"""Factored policies: scores, sampling, factorization structure, round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.policies import (
    CategoricalHead,
    CategoricalPolicy,
    DagPolicy,
    GaussianHead,
    IndependentGaussianPolicy,
    IndicatorFeatures,
    RawFeatures,
    policy_from_checkpoint,
    policy_to_checkpoint,
)


def _gaussian(m=2, state_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    pol = IndependentGaussianPolicy.zeros(m, state_dim)
    return pol.with_theta(0.3 * rng.standard_normal(pol.n_params))


def _categorical(cards=(2, 3), n_states=2, seed=0):
    rng = np.random.default_rng(seed)
    pol = CategoricalPolicy.zeros(list(cards), IndicatorFeatures(n_states))
    return pol.with_theta(0.5 * rng.standard_normal(pol.n_params))


def _dag(seed=0):
    rng = np.random.default_rng(seed)
    heads = [
        CategoricalHead(0.3 * rng.standard_normal((2, 1))),
        CategoricalHead(0.3 * rng.standard_normal((3, 3))),  # sees state + parent one-hot
    ]
    return DagPolicy(heads, parents=((), (0,)), features=IndicatorFeatures(1))


def _fd_score(policy, state, action, i, h=1e-6):
    theta = policy.theta
    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (
            policy.with_theta(up).factor_log_prob(state, action, i)
            - policy.with_theta(dn).factor_log_prob(state, action, i)
        ) / (2 * h)
    return grad


def test_gaussian_score_hand_example():
    # mu = 0.5 * s + 0.1, sigma = 2, s = 2, a = 3: resid = 1.9, var = 4.
    pol = IndependentGaussianPolicy(
        weights=np.array([[0.5]]),
        biases=np.array([0.1]),
        log_std=np.array([np.log(2.0)]),
        features=RawFeatures(1),
    )
    score = pol.score_factor(np.array([2.0]), np.array([3.0]), 0)
    assert_allclose(score, [1.9 / 4 * 2.0, 1.9 / 4, 1.9 ** 2 / 4 - 1.0], atol=1e-12)


def test_scores_match_finite_differences():
    rng = np.random.default_rng(42)
    cases = []
    for seed in range(5):
        pol = _gaussian(m=2, state_dim=2, seed=seed)
        s = rng.standard_normal(2)
        a = pol.sample(s, rng)
        cases.append((pol, s, a))
        polc = _categorical(seed=seed)
        sc = np.array([float(rng.integers(2))])
        ac = polc.sample(sc, rng)
        cases.append((polc, sc, ac))
    for pol, s, a in cases:
        for i in range(pol.m):
            exact = pol.score_factor(s, a, i)
            fd = _fd_score(pol, s, a, i)
            assert_allclose(exact, fd, rtol=1e-5, atol=1e-7)


def test_score_factor_zero_outside_own_block():
    pol = _gaussian(m=3, seed=1)
    s, a = np.zeros(1), np.array([0.3, -0.1, 0.8])
    for i in range(3):
        full = pol.score_factor(s, a, i)
        block = pol.block_slices[i]
        mask = np.ones(pol.n_params, dtype=bool)
        mask[block] = False
        assert_allclose(full[mask], 0.0)
        assert_allclose(full[block], pol.score_block(s, a, i))


def test_joint_score_is_sum_of_factor_scores():
    pol = _categorical(seed=3)
    s, a = np.array([1.0]), np.array([1.0, 2.0])
    total = sum(pol.score_factor(s, a, i) for i in range(pol.m))
    assert_allclose(pol.joint_score(s, a), total, atol=1e-14)


@pytest.mark.parametrize("kind", ["gaussian", "categorical", "dag"])
def test_score_matrix_matches_joint_scores(kind):
    rng = np.random.default_rng(7)
    if kind == "gaussian":
        pol = _gaussian(m=2, state_dim=2, seed=2)
        states = rng.standard_normal((6, 2))
    else:
        # unequal cardinalities: categorical blocks of 2 and 3 rows
        pol = _categorical(seed=2) if kind == "categorical" else _dag(seed=2)
        n_states = pol.features.n_states
        states = rng.integers(n_states, size=(6, 1)).astype(float)
    actions = np.stack([pol.sample(s, rng) for s in states])
    scores = pol.score_matrix(states, actions)
    assert scores.shape == (6, pol.n_params)
    for n in range(6):
        assert_allclose(scores[n], pol.joint_score(states[n], actions[n]), atol=1e-12)


def test_joint_score_sq_norms_match_joint_scores():
    pol = _categorical(seed=5)
    rng = np.random.default_rng(9)
    states = rng.integers(2, size=(5, 1)).astype(float)
    actions = pol.sample_batch(states, rng)
    norms = pol.joint_score_sq_norms(states, actions)
    for n in range(5):
        expect = np.sum(pol.joint_score(states[n], actions[n]) ** 2)
        assert_allclose(norms[n], expect, atol=1e-12)


def test_log_prob_sums_factor_log_probs():
    pol = _gaussian(m=3, seed=4)
    s, a = np.zeros(1), np.array([0.1, 0.2, -0.4])
    total = sum(pol.factor_log_prob(s, a, i) for i in range(3))
    assert_allclose(pol.log_prob(s, a), total, atol=1e-13)
    assert_allclose(pol.prob(s, a), np.exp(total), atol=1e-13)


def test_categorical_probs_normalize_and_batch_agrees():
    pol = _categorical(cards=(2, 3), seed=6)
    states = np.array([[0.0], [1.0], [0.0]])
    for i in range(2):
        batch = pol.factor_probs_batch(states, i)
        assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
        for n, s in enumerate(states):
            assert_allclose(batch[n], pol.factor_probs(s, i), atol=1e-14)


def test_sample_factor_batch_frequencies_match_probs():
    pol = _categorical(cards=(3,), n_states=1, seed=8)
    states = np.zeros((1, 1))
    probs = pol.factor_probs(states[0], 0)
    draws = pol.sample_factor_batch(np.repeat(states, 5, axis=0), 0, 4000, np.random.default_rng(0))
    assert draws.shape == (5, 4000)
    freq = np.mean(draws.reshape(-1)[:, None] == np.arange(3)[None, :], axis=0)
    se = np.sqrt(probs * (1 - probs) / draws.size)
    assert np.all(np.abs(freq - probs) < 5 * se + 1e-9)


def test_gaussian_sample_factor_batch_moments():
    pol = _gaussian(m=2, seed=9)
    states = np.zeros((3, 1))
    draws = pol.sample_factor_batch(states, 1, 8000, np.random.default_rng(1))
    mu = pol.mean_actions_batch(states)[:, 1]
    sd = np.exp(pol.log_std[1])
    assert draws.shape == (3, 8000)
    assert np.all(np.abs(draws.mean(axis=1) - mu) < 5 * sd / np.sqrt(8000))
    assert np.all(np.abs(draws.std(axis=1) - sd) < 0.05 * sd + 5 * sd / np.sqrt(8000))


def test_gaussian_kl_hand_value():
    pol = _gaussian(m=2, seed=10)
    # shifting one mean bias by d with sigma fixed: KL = d^2 / (2 sigma^2)
    theta = pol.theta.copy()
    bias_idx = pol.block_slices[0].start + 1  # blocks are [w, b, log_std]
    d = 0.3
    theta[bias_idx] += d
    shifted = pol.with_theta(theta)
    sigma2 = np.exp(2 * pol.log_std[0])
    assert_allclose(pol.kl(shifted, np.zeros((4, 1))), d ** 2 / (2 * sigma2), atol=1e-12)
    assert_allclose(pol.kl(pol, np.zeros((2, 1))), 0.0, atol=1e-15)


def test_categorical_kl_hand_value():
    # cardinalities 2 and 3 over two indicator states; column s holds state
    # s's logits. State 0 is uniform in both policies; in state 1 the first
    # policy has factor 0 at (3/4, 1/4) and factor 1 at (1/2, 1/4, 1/4)
    pol = CategoricalPolicy(
        [np.array([[0.0, np.log(3.0)], [0.0, 0.0]]),
         np.array([[0.0, np.log(2.0)], [0.0, 0.0], [0.0, 0.0]])],
        IndicatorFeatures(2),
    )
    uniform = CategoricalPolicy.zeros([2, 3], IndicatorFeatures(2))
    states = np.array([[0.0], [1.0]])
    kl_factor0 = 0.75 * np.log(0.75 / 0.5) + 0.25 * np.log(0.25 / 0.5)
    kl_factor1 = 0.5 * np.log(0.5 / (1 / 3)) + 2 * 0.25 * np.log(0.25 / (1 / 3))
    assert_allclose(pol.kl(uniform, states), (kl_factor0 + kl_factor1) / 2, atol=1e-14)
    assert pol.kl(pol, states) == 0.0


def test_mean_action_and_support():
    g = _gaussian(m=2, seed=11)
    assert_allclose(g.mean_action(np.zeros(1)), g.biases, atol=1e-12)
    c = _categorical(cards=(4,), n_states=1, seed=11)
    assert_allclose(c.factor_support(0), [0, 1, 2, 3])


def test_theta_round_trip():
    for pol in (_gaussian(seed=12), _categorical(seed=12), _dag(seed=12)):
        theta = pol.theta
        clone = pol.with_theta(theta.copy())
        assert_allclose(clone.theta, theta)
        s = np.zeros(1)
        rng = np.random.default_rng(0)
        a = pol.sample(s, rng)
        assert_allclose(clone.log_prob(s, a), pol.log_prob(s, a), atol=1e-14)


def test_dag_structure_queries():
    pol = _dag()
    assert pol.parents(1) == (0,)
    assert pol.parents(0) == ()
    assert pol.descendants(0) == (0, 1)
    assert pol.descendants(1) == (1,)


def test_dag_cycle_rejected():
    heads = [
        CategoricalHead(np.zeros((2, 1 + 3))),
        CategoricalHead(np.zeros((3, 1 + 2))),
    ]
    with pytest.raises(ValueError):
        DagPolicy(heads, parents=((1,), (0,)), features=IndicatorFeatures(1))


def test_dag_conditional_depends_on_parent_value():
    pol = _dag(seed=13)
    s = np.zeros(1)
    p_given0 = [pol.factor_log_prob(s, np.array([0.0, v]), 1) for v in range(3)]
    p_given1 = [pol.factor_log_prob(s, np.array([1.0, v]), 1) for v in range(3)]
    assert not np.allclose(p_given0, p_given1)
    assert_allclose(np.exp(p_given0).sum(), 1.0, atol=1e-12)
    assert_allclose(np.exp(p_given1).sum(), 1.0, atol=1e-12)


def test_dag_empty_parent_map_matches_independent():
    cards = (2, 3)
    flat = CategoricalPolicy.zeros(list(cards), IndicatorFeatures(2))
    rng = np.random.default_rng(14)
    flat = flat.with_theta(0.4 * rng.standard_normal(flat.n_params))
    heads = [CategoricalHead(w.copy()) for w in flat.logit_weights]
    dag = DagPolicy(heads, parents=((), ()), features=IndicatorFeatures(2))
    s = np.array([1.0])
    for a in ([0.0, 2.0], [1.0, 0.0]):
        assert_allclose(dag.log_prob(s, np.array(a)), flat.log_prob(s, np.array(a)), atol=1e-13)


def test_dag_scores_match_finite_differences():
    pol = _dag(seed=15)
    rng = np.random.default_rng(2)
    s = np.zeros(1)
    a = pol.sample(s, rng)
    for i in range(pol.m):
        assert_allclose(pol.score_factor(s, a, i), _fd_score(pol, s, a, i), rtol=1e-5, atol=1e-7)


def test_checkpoint_round_trip_all_policy_types():
    rng = np.random.default_rng(16)
    s = np.zeros(1)
    for pol in (_gaussian(seed=16), _categorical(seed=16), _dag(seed=16)):
        clone = policy_from_checkpoint(policy_to_checkpoint(pol))
        assert_allclose(clone.theta, pol.theta)
        a = pol.sample(s, rng)
        assert_allclose(clone.log_prob(s, a), pol.log_prob(s, a), atol=1e-14)
