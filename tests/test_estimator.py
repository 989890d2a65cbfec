"""Gradient estimator: exact-weight unbiasedness, advantage paths, variance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.baselines import BaselineSpec, BaselineState
from factored_pg.estimator import (
    gae_advantages,
    gradient_variance,
    pg_estimate,
    score_matrix,
    whiten,
)
from factored_pg.oracle import exact_gradient, trajectory_probabilities
from factored_pg.policies import IndependentGaussianPolicy
from factored_pg.trajectory import Batch, returns_to_go
from factored_pg.verify import fixture_problem


def _enumerated_batch(problem):
    probs = trajectory_probabilities(problem)
    paths = [(et.states, et.actions, et.rewards) for et in problem.enumerated]
    return Batch.from_paths(paths, gamma=problem.gamma, weights=probs)


def _raw_returns(batch, m):
    """Zero-baseline advantages: every factor's advantage is qhat."""
    return np.repeat(batch.qhat[:, None], m, axis=1)


def test_enumeration_weighted_estimate_is_exact_gradient():
    for name in ("bandit_two_factor", "chain_two_step"):
        problem = fixture_problem(name)
        batch = _enumerated_batch(problem)
        scores = score_matrix(batch, problem.policy)
        report = pg_estimate(batch, problem.policy, scores, _raw_returns(batch, problem.policy.m))
        assert_allclose(report.gradient, exact_gradient(problem), atol=1e-10, err_msg=name)


def test_estimate_stays_exact_under_fitted_baselines():
    problem = fixture_problem("chain_two_step")
    batch = _enumerated_batch(problem)
    grad = exact_gradient(problem)
    for spec in (
        BaselineSpec(kind="state_value", tabular=True),
        BaselineSpec(kind="optimal_state", tabular=True),
        BaselineSpec(kind="mc_q", exact=True, tabular=True),
        BaselineSpec(kind="optimal_action", tabular=True),
    ):
        state = BaselineState(spec).refit(batch, problem.policy)
        values = state.evaluate(batch, problem.policy)
        scores = score_matrix(batch, problem.policy)
        report = pg_estimate(batch, problem.policy, scores, batch.qhat[:, None] - values)
        assert_allclose(report.gradient, grad, atol=1e-10, err_msg=spec.kind)


def _gaussian_batch(seed=0, lengths=(4, 1, 6, 3, 4, 2), m=2):
    rng = np.random.default_rng(seed)
    policy = IndependentGaussianPolicy.zeros(m, 1).with_theta(
        0.3 * rng.standard_normal(3 * m)
    )
    paths = []
    for horizon in lengths:
        states = rng.standard_normal((horizon, 1))
        actions = np.stack([policy.sample(s[None, :], [rng])[0] for s in states])
        rewards = rng.standard_normal(horizon)
        paths.append((states, actions, rewards))
    return Batch.from_paths(paths, gamma=0.9), policy


def test_gae_lambda_one_telescopes_to_full_advantage():
    batch, policy = _gaussian_batch(seed=1)
    rng = np.random.default_rng(2)
    b = rng.standard_normal((batch.n_steps, policy.m))
    adv = gae_advantages(batch, b, lam=1.0)
    assert_allclose(adv, batch.qhat[:, None] - b, atol=1e-12)


def test_gae_lambda_one_zero_baseline_is_bitwise_returns_to_go():
    # qhat and lam = 1 GAE both run Batch.suffix_sums; returns_to_go is the
    # independent per-trajectory reference
    batch, policy = _gaussian_batch(seed=3)
    adv = gae_advantages(batch, np.zeros((batch.n_steps, policy.m)), lam=1.0)
    for k in range(batch.n_trajectories):
        sl = batch.traj_slice(k)
        expect = returns_to_go(batch.rewards[sl], batch.gamma)
        assert np.array_equal(batch.qhat[sl], expect)
        for i in range(policy.m):
            assert np.array_equal(adv[sl][:, i], expect)


def test_gae_lambda_zero_is_one_step_td():
    batch, policy = _gaussian_batch(seed=4)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((batch.n_steps, policy.m))
    adv = gae_advantages(batch, b, lam=0.0)
    for k in range(batch.n_trajectories):
        sl = batch.traj_slice(k)
        r, bb = batch.rewards[sl], b[sl]
        for t in range(len(r)):
            b_next = bb[t + 1] if t + 1 < len(r) else np.zeros(policy.m)
            assert np.array_equal(adv[sl][t], r[t] + batch.gamma * b_next - bb[t])


def test_gae_rejects_mismatched_rows():
    batch, policy = _gaussian_batch(seed=6)
    with pytest.raises(ValueError):
        gae_advantages(batch, np.zeros((batch.n_steps + 1, policy.m)), lam=1.0)


def test_whiten_hand_value():
    out = whiten(np.array([1.0, 3.0]))
    assert_allclose(out, [-1.0, 1.0], atol=1e-7)
    assert_allclose(out.mean(), 0.0, atol=1e-12)


def test_normalize_whitens_gradient_but_not_diagnostics():
    batch, policy = _gaussian_batch(seed=7)
    scores = score_matrix(batch, policy)
    advantages = _raw_returns(batch, policy.m)
    raw = pg_estimate(batch, policy, scores, advantages)
    norm = pg_estimate(batch, policy, scores, advantages, normalize=True)
    # diagnostics keep raw advantages either way
    assert_allclose(norm.per_trajectory, raw.per_trajectory, atol=1e-14)
    rebuilt = pg_estimate(batch, policy, scores, whiten(advantages)).gradient
    assert_allclose(norm.gradient, rebuilt, atol=1e-12)


def test_advantages_shape_validated():
    batch, policy = _gaussian_batch(seed=8)
    with pytest.raises(ValueError):
        pg_estimate(batch, policy, score_matrix(batch, policy), advantages=np.zeros((3, policy.m)))


def test_gradient_equals_weighted_per_trajectory_mean():
    batch, policy = _gaussian_batch(seed=9)
    report = pg_estimate(batch, policy, score_matrix(batch, policy), _raw_returns(batch, policy.m))
    assert_allclose(report.gradient, batch.weights @ report.per_trajectory, atol=1e-13)


def test_score_matrix_rows_are_joint_scores():
    batch, policy = _gaussian_batch(seed=10, lengths=(3, 3))
    rows = score_matrix(batch, policy)
    assert rows.shape == (batch.n_steps, policy.n_params)
    # central differences of log pi(a_n | s_n), the joint score by definition
    h, theta = 1e-6, policy.theta
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            policy.with_theta(up).log_prob(batch.states, batch.actions)
            - policy.with_theta(dn).log_prob(batch.states, batch.actions)
        ) / (2 * h)
        assert_allclose(rows[:, j], fd, rtol=1e-5, atol=1e-7)


def test_gradient_variance_hand_value():
    per_traj = np.array([[0.0, 0.0], [2.0, 4.0]])
    # mean (1, 2); squared deviations sum to 10; ddof=1 divides by 1
    assert_allclose(gradient_variance(per_traj), 10.0, atol=1e-14)
    assert gradient_variance(per_traj[:1]) == 0.0


def test_gradient_variance_weighted_population_form():
    per_traj = np.array([[0.0], [1.0], [3.0]])
    w = np.array([0.5, 0.25, 0.25])
    mean = 0.5 * 0 + 0.25 * 1 + 0.25 * 3
    expect = 0.5 * mean**2 + 0.25 * (1 - mean) ** 2 + 0.25 * (3 - mean) ** 2
    assert_allclose(gradient_variance(per_traj, w), expect, atol=1e-14)


def test_variance_reduction_visible_on_enumerated_fixture():
    # optimal action baseline lowers the per-trajectory variance vs none
    problem = fixture_problem("bandit_two_factor")
    batch = _enumerated_batch(problem)
    scores = score_matrix(batch, problem.policy)
    none = pg_estimate(batch, problem.policy, scores, _raw_returns(batch, problem.policy.m))
    state = BaselineState(
        BaselineSpec(kind="optimal_action", tabular=True)
    ).refit(batch, problem.policy)
    better = pg_estimate(
        batch, problem.policy, scores, batch.qhat[:, None] - state.evaluate(batch, problem.policy)
    )
    v_none = gradient_variance(none.per_trajectory, batch.weights)
    v_opt = gradient_variance(better.per_trajectory, batch.weights)
    assert v_opt < v_none
