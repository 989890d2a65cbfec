import sys

import numpy as np
import pytest

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
        step = super().step(states, actions, noise)
        step.rewards[-1] = np.nan
        return step


@pytest.fixture
def nan_reward_env():
    """A 2-dimensional matching task that hands out a NaN reward every step."""
    return NanReward(np.array([0.5, -0.3]))
