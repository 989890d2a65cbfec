"""The natural-gradient step, keyed rng streams, rollout collection, and the training loop."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.baselines import BaselineSpec, BaselineState
from factored_pg.envs import TargetMatching
from factored_pg.errors import NonFiniteError, SingularSystemError
from factored_pg.optim import (
    STREAM_BASELINE,
    STREAM_ENV,
    STREAM_POLICY,
    OptimizerConfig,
    _check_keyed_generators,
    _Pool,
    collect_batch,
    conjugate_gradient,
    keyed_generators,
    keyed_pools,
    make_fvp,
    npg_step,
    rollout,
    substream,
    train,
)
from factored_pg.features import IndicatorFeatures
from factored_pg.policies import CategoricalPolicy, IndependentGaussianPolicy
from factored_pg.verify import load_fixture


def test_conjugate_gradient_diagonal_hand_case():
    a = np.diag([2.0, 4.0])
    x = conjugate_gradient(lambda v: a @ v, np.array([2.0, 8.0]), iters=2)
    assert_allclose(x, [1.0, 2.0], atol=1e-10)


def test_conjugate_gradient_random_spd():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((6, 6))
    a = mat @ mat.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x = conjugate_gradient(lambda v: a @ v, b, iters=60, tol=1e-16)
    assert_allclose(a @ x, b, atol=1e-8)


def test_conjugate_gradient_zero_rhs():
    assert_allclose(conjugate_gradient(lambda v: v, np.zeros(3)), np.zeros(3))


def test_make_fvp_rank_one_hand_case():
    scores = np.array([[1.0, 2.0]])  # F = s s' / 1 + d I
    fvp = make_fvp(scores, damping=0.5)
    v = np.array([1.0, 0.0])
    assert_allclose(fvp(v), np.array([1.0, 2.0]) * 1.0 + 0.5 * v, atol=1e-14)


def test_npg_step_identity_fisher_hits_kl_budget():
    p = 4
    scores = np.sqrt(p) * np.eye(p)  # S'S / n = I
    g = np.array([0.3, -0.2, 0.5, 0.1])
    cfg = OptimizerConfig(kl=0.025, damping=0.0)
    step = npg_step(g, scores, cfg)
    # x = g, so 0.5 * step' F step = kl (up to the 1e-8 guard in the scale)
    assert_allclose(0.5 * step @ step, cfg.kl, rtol=1e-6)
    # direction is g, magnitude independent of ||g||
    assert_allclose(step / np.linalg.norm(step), g / np.linalg.norm(g), atol=1e-10)
    assert_allclose(npg_step(10.0 * g, scores, cfg), step, rtol=1e-6)


def test_npg_step_direction_solves_the_damped_fisher_system():
    # six parameters with Fisher eigenvalues spread over three decades: CG
    # solves the system in six exact iterations, so npg_step's ten stop at
    # the CG tolerance |r|^2 < 1e-10, |r| < 1e-5 with |g| = 1; one iteration
    # would step along g, which this system leaves far from solved
    bound = 1e-4
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((60, 6)) * np.logspace(0.0, -1.5, 6)
    cfg = OptimizerConfig(kl=0.025, damping=1e-4)
    fisher = scores.T @ scores / len(scores) + cfg.damping * np.eye(6)
    g = rng.standard_normal(6)
    g /= np.linalg.norm(g)

    def residual(direction):
        """|F (c x) - g| / |g| at the best scale c of ``direction`` x."""
        fx = fisher @ direction
        return np.linalg.norm((fx @ g) / (fx @ fx) * fx - g)

    assert residual(g) > 0.1
    assert residual(npg_step(g, scores, cfg)) < bound


def test_npg_step_raises_on_degenerate_curvature():
    # degenerate curvature raises; no fallback step is taken
    g = np.array([3.0, 4.0])
    with pytest.raises(SingularSystemError, match="curvature"):
        npg_step(g, np.zeros((2, 2)), OptimizerConfig(kl=0.02, damping=0.0))


def test_npg_step_zero_gradient_takes_zero_step():
    step = npg_step(np.zeros(2), np.zeros((2, 2)), OptimizerConfig(kl=0.02, damping=0.0))
    assert np.array_equal(step, np.zeros(2))


def test_conjugate_gradient_raises_on_negative_curvature():
    with pytest.raises(SingularSystemError, match="curvature"):
        conjugate_gradient(lambda v: -v, np.array([1.0, 2.0]))


def test_substream_keyed_independence_and_determinism():
    a = substream(7, STREAM_ENV, 3, 2).random(4)
    b = substream(7, STREAM_ENV, 3, 2).random(4)
    assert_allclose(a, b)
    for other in (
        substream(8, STREAM_ENV, 3, 2),
        substream(7, STREAM_POLICY, 3, 2),
        substream(7, STREAM_ENV, 4, 2),
        substream(7, STREAM_ENV, 3, 1),
    ):
        assert not np.allclose(a, other.random(4))
    assert STREAM_ENV != STREAM_POLICY != STREAM_BASELINE


@pytest.mark.parametrize("key", [(0, 0, 0, 0), (7, 1, 3, 2), (2**32 - 1, 0, 2**32 - 1, 0),
                                 (0, 2**32 - 1, 0, 2**32 - 1)])
def test_substream_draws_equal_the_list_keyed_generator(key):
    expected = np.random.default_rng(list(key))
    got = substream(*key)
    assert np.array_equal(got.random(5), expected.random(5))
    assert np.array_equal(got.standard_normal((3, 2)), expected.standard_normal((3, 2)))


def _pool(key):
    return np.random.SeedSequence(np.asarray(key, dtype=np.uint32)).generate_state(4, np.uint64)


def test_keyed_pools_equal_seed_sequence_state():
    words = (0, 1, 2**31, 2**32 - 1)
    keys = np.array(list(itertools.product(words, repeat=4)), dtype=np.uint32)
    pools = keyed_pools(keys)
    assert pools.shape == (256, 4) and pools.dtype == np.uint64
    assert np.array_equal(pools, [_pool(key) for key in keys])
    key = np.array([[7, STREAM_POLICY, 3, 2]], dtype=np.uint32)  # n = 1
    assert np.array_equal(keyed_pools(key), [_pool(key[0])])


@pytest.mark.parametrize("n", [1, 7])
def test_keyed_generators_draw_what_substream_draws(n):
    streams = keyed_generators(5, (STREAM_POLICY, STREAM_ENV), 3, n)
    assert sorted(streams) == sorted((STREAM_POLICY, STREAM_ENV))
    for tag, generators in streams.items():
        generators = list(generators)
        assert len(generators) == n
        for k, got in enumerate(generators):
            expected = substream(5, tag, 3, k)
            assert np.array_equal(got.random(5), expected.random(5))
            assert np.array_equal(got.standard_normal((3, 2)), expected.standard_normal((3, 2)))


def test_keyed_pool_serves_only_pcg64s_request():
    pool = _Pool(keyed_pools(np.zeros((1, 4), dtype=np.uint32))[0])
    with pytest.raises(ValueError, match="4 uint64 words"):
        pool.generate_state(8, np.uint32)


def test_keyed_generators_guard_raises_when_numpy_seeds_differently(monkeypatch):
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: default_rng([key[0], 1]))
    with pytest.raises(RuntimeError, match="seeds differently from optim.keyed_pools"):
        _check_keyed_generators()


def test_rollout_shapes_and_horizon():
    env = TargetMatching(np.array([0.5, -0.3]))
    policy = IndependentGaussianPolicy.zeros(2, 1)
    batch = rollout(env, policy, np.empty((1, 0)), np.empty((1, 1, 0)),
                    policy.draw(np.random.default_rng(1), 1)[None])
    states, actions, rewards = batch.states, batch.actions, batch.rewards
    assert states.shape == (1, 1)
    assert actions.shape == (1, 2)
    assert rewards.shape == (1,)
    assert rewards[0] <= 0.0


def test_collect_batch_deterministic_in_seed_and_iteration():
    env = TargetMatching(np.array([1.0, 0.0, -1.0]))
    policy = IndependentGaussianPolicy.zeros(3, 1)
    one = collect_batch(env, policy, 8, seed=5, iteration=2)
    two = collect_batch(env, policy, 8, seed=5, iteration=2)
    assert np.array_equal(one.actions, two.actions)
    assert np.array_equal(one.rewards, two.rewards)
    other = collect_batch(env, policy, 8, seed=5, iteration=3)
    assert not np.array_equal(one.actions, other.actions)


def test_train_improves_matching_task():
    env = TargetMatching(np.array([0.8, -0.6]))
    policy = IndependentGaussianPolicy.zeros(2, 1)
    result = train(
        env,
        policy,
        BaselineSpec(kind="state_value"),
        n_iterations=40,
        n_trajectories=30,
        seed=0,
        optimizer=OptimizerConfig(kl=0.025, damping=0.1),
    )
    returns = result.mean_returns()
    assert len(returns) == 40
    assert returns[-1] > returns[0] + 0.5
    assert returns[-1] > -0.2
    logs = result.logs
    assert logs[0].iteration == 0 and logs[-1].iteration == 39
    assert all(np.isfinite(log.grad_variance) for log in logs)
    assert all(log.realized_kl >= 0.0 for log in logs)


def test_train_reruns_bitwise_identical():
    env = TargetMatching(np.array([0.3, 0.7]))
    policy = IndependentGaussianPolicy.zeros(2, 1)
    kw = dict(
        baseline_spec=BaselineSpec(kind="mean_q", features="quadratic", ridge=1e-8),
        n_iterations=6,
        n_trajectories=12,
        seed=11,
        optimizer=OptimizerConfig(),
    )
    one = train(env, policy, **kw)
    two = train(env, policy, **kw)
    assert np.array_equal(one.policy.theta, two.policy.theta)
    assert np.array_equal(one.mean_returns(), two.mean_returns())


def test_train_callback_sees_every_iteration():
    env = TargetMatching(np.array([0.1]))
    policy = IndependentGaussianPolicy.zeros(1, 1)
    seen = []
    train(
        env,
        policy,
        BaselineSpec(kind="none"),
        n_iterations=3,
        n_trajectories=4,
        seed=1,
        optimizer=OptimizerConfig(),
        callback=lambda it, batch, pol, log: seen.append((it, batch.n_trajectories)),
    )
    assert seen == [(0, 4), (1, 4), (2, 4)]


def test_train_rejects_an_arm_the_policy_rules_out_before_iteration_0():
    # mean substitution has no mean to substitute for a categorical factor
    env = load_fixture("bandit_two_factor")
    policy = CategoricalPolicy.zeros(env.cardinalities, IndicatorFeatures(len(env.rho0)))
    seen = []
    with pytest.raises(ValueError, match="mean_q"):
        train(env, policy, BaselineSpec(kind="mean_q"), n_iterations=2, n_trajectories=4,
              seed=0, optimizer=OptimizerConfig(),
              callback=lambda it, batch, pol, log: seen.append(it))
    assert seen == []


def test_train_rejects_non_finite_rewards(nan_reward_env):
    with pytest.raises(NonFiniteError, match="batch rewards at iteration 0, seed 3"):
        train(nan_reward_env, IndependentGaussianPolicy.zeros(2, 1),
              BaselineSpec(kind="none"), n_iterations=2, n_trajectories=4, seed=3,
              optimizer=OptimizerConfig())


def test_train_rejects_non_finite_advantages(monkeypatch):
    # a baseline value of inf makes the advantage of its step non-finite
    # while rewards stay finite; it must not surface as a bad gradient
    def evaluate(self, batch, policy, rng, phi):
        values = np.zeros((batch.n_steps, policy.m))
        values[1, 0] = np.inf
        return values

    monkeypatch.setattr(BaselineState, "evaluate", evaluate)
    with pytest.raises(NonFiniteError, match="advantages at iteration 0, seed 4"):
        train(TargetMatching(np.array([0.5, -0.3])), IndependentGaussianPolicy.zeros(2, 1),
              BaselineSpec(kind="state_value"), n_iterations=2, n_trajectories=4, seed=4,
              optimizer=OptimizerConfig())
