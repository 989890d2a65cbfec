import sys

import numpy as np
import pytest

from factored_pg.baselines import BaselineState
from factored_pg.envs import TargetMatching


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-gate verdict lines after the test summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


class NanReward(TargetMatching):
    """Matching task whose last trajectory of every batch earns a NaN reward."""

    def step(self, states, actions, noise):
        following, rewards = super().step(states, actions, noise)
        rewards[-1] = np.nan
        return following, rewards


@pytest.fixture
def nan_reward_env():
    """A 2-dimensional matching task that hands out a NaN reward every step."""
    return NanReward(np.array([0.5, -0.3]))


@pytest.fixture
def refit_arm():
    """``refit_arm(spec, batch, policy, rng=None)``: a fresh arm of ``spec``
    after one ``evaluate_and_refit`` on ``batch``, so its model is fitted on
    that batch; a second ``evaluate_and_refit`` call evaluates it."""
    def refit(spec, batch, policy, rng=None):
        return BaselineState(spec).evaluate_and_refit(batch, policy, rng)[1]
    return refit
