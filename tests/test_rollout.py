"""The lockstep rollout against the one-trajectory-at-a-time reference.

``optim.collect_batch`` seeds a batch's keyed generators in one vectorized
pass, draws each trajectory's noise in one call and steps every trajectory
together; the reference in ``verify`` builds each generator with
``substream`` and runs the trajectories one by one, drawing one step at a
time. Both read the same keyed streams, so their batches must agree array for
array.
"""

import numpy as np
import pytest

from factored_pg import optim
from factored_pg.envs import TargetMatchingParams, make_env
from factored_pg.policies import IndependentGaussianPolicy
from factored_pg.verify import fixture_problem, reference_collect_batch


def _gaussian(m, state_dim, seed):
    policy = IndependentGaussianPolicy.zeros(m, state_dim)
    return policy.with_theta(0.3 * np.random.default_rng(seed).standard_normal(policy.n_params))


def _problem(problem):
    return problem.env, problem.policy


CASES = {
    "target_matching_m100": lambda: (TargetMatchingParams(m=100).build(), _gaussian(100, 1, 1)),
    "point_mass": lambda: (make_env("point_mass", {"horizon": 20}), _gaussian(2, 4, 2)),
    "chain_two_step": lambda: _problem(fixture_problem("chain_two_step")),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_collect_batch_equals_reference(case, seed):
    env, policy = CASES[case]()
    for iteration in range(3):
        batch = optim.collect_batch(env, policy, 9, seed, iteration)
        ref = reference_collect_batch(env, policy, 9, seed, iteration)
        for name in ("states", "actions", "rewards", "n_trajectories", "horizon"):
            assert np.array_equal(getattr(batch, name), getattr(ref, name)), name
        assert batch.horizon == env.spec.horizon
        # the ridge solve's rounding depends on this layout
        assert batch.states.flags.c_contiguous and batch.actions.flags.c_contiguous


@pytest.mark.parametrize("case, tags", [
    ("target_matching_m100", [optim.STREAM_POLICY]),  # draws nothing from its env streams
    ("point_mass", [optim.STREAM_ENV, optim.STREAM_POLICY]),
])
def test_collect_batch_builds_only_the_streams_it_reads(monkeypatch, case, tags):
    env, policy = CASES[case]()
    seeded = []
    build = optim.keyed_states
    monkeypatch.setattr(optim, "keyed_states",
                        lambda keys: seeded.extend(map(tuple, keys.tolist())) or build(keys))
    optim.collect_batch(env, policy, 7, seed=0, iteration=0)
    assert sorted(seeded) == [(0, tag, 0, k) for tag in tags for k in range(7)]


@pytest.mark.parametrize("case", ["point_mass", "chain_two_step"])
def test_a_block_of_draws_equals_successive_draws(case):
    # collect_batch draws a trajectory's horizon at once, the reference a step
    # at a time: the same values, for the policy and for the environment
    env, policy = CASES[case]()
    horizon = 5
    block, steps = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(policy.draw(block, horizon),
                          np.concatenate([policy.draw(steps, 1) for _ in range(horizon)]))
    assert np.array_equal(env.draw_reset(block), env.draw_reset(steps))
    assert np.array_equal(env.draw_steps(block, horizon),
                          np.concatenate([env.draw_steps(steps, 1) for _ in range(horizon)]))
    assert np.array_equal(block.random(3), steps.random(3))  # both read the same count
