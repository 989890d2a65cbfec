"""The lockstep rollout against the one-trajectory-at-a-time reference.

``optim.collect_batch`` steps every trajectory of a batch together; the
reference in ``verify`` runs them one by one on one-row calls. Both read the
same keyed generators, so their batches must agree array for array.
"""

import numpy as np
import pytest

from factored_pg import optim
from factored_pg.envs import (
    Environment,
    MdpSpec,
    Step,
    TargetMatchingParams,
    make_env,
)
from factored_pg.features import _rows
from factored_pg.policies import IndependentGaussianPolicy
from factored_pg.verify import fixture_problem, reference_collect_batch


class _RandomStop(Environment):
    """Episodes that end at different steps: each step is terminal with
    probability 0.3, drawn from the trajectory's own environment generator."""

    def __init__(self):
        self.spec = MdpSpec(state_dim=1, n_factors=2, horizon=6, gamma=0.9)

    def reset(self, rngs):
        return np.array([[rng.standard_normal()] for rng in rngs])

    def step(self, states, actions, rngs):
        actions = _rows(actions, self.spec.n_factors)
        u = np.array([rng.random() for rng in rngs])
        return Step(states + actions[:, :1], states[:, 0] - np.sum(actions**2, axis=1), u < 0.3)


def _gaussian(m, state_dim, seed):
    policy = IndependentGaussianPolicy.zeros(m, state_dim)
    return policy.with_theta(0.3 * np.random.default_rng(seed).standard_normal(policy.n_params))


def _problem(problem):
    return problem.env, problem.policy


CASES = {
    "target_matching_m100": lambda: (TargetMatchingParams(m=100).build(), _gaussian(100, 1, 1)),
    "point_mass": lambda: (make_env("point_mass", {"horizon": 20}), _gaussian(2, 4, 2)),
    "chain_two_step": lambda: _problem(fixture_problem("chain_two_step")),
    "random_stop": lambda: (_RandomStop(), _gaussian(2, 1, 3)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_collect_batch_equals_reference(case, seed):
    env, policy = CASES[case]()
    for iteration in range(3):
        batch = optim.collect_batch(env, policy, 9, seed, iteration)
        ref = reference_collect_batch(env, policy, 9, seed, iteration)
        for name in ("states", "actions", "rewards", "lengths"):
            assert np.array_equal(getattr(batch, name), getattr(ref, name)), name
        if case == "random_stop":
            assert len(set(batch.lengths)) > 1  # the alive mask is exercised


@pytest.mark.parametrize("case, tags", [
    ("target_matching_m100", [optim.STREAM_POLICY]),  # draws nothing from its env streams
    ("point_mass", [optim.STREAM_ENV, optim.STREAM_POLICY]),
])
def test_collect_batch_builds_only_the_streams_it_reads(monkeypatch, case, tags):
    env, policy = CASES[case]()
    keys = []
    build = optim.substream
    monkeypatch.setattr(optim, "substream", lambda *key: keys.append(key) or build(*key))
    optim.collect_batch(env, policy, 7, seed=0, iteration=0)
    assert sorted(keys) == [(0, tag, 0, k) for tag in tags for k in range(7)]
