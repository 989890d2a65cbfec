"""Factored policies: scores, sampling, parameter blocks, round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.features import IndicatorFeatures, RawFeatures
from factored_pg.policies import CategoricalPolicy, IndependentGaussianPolicy


def _gaussian(m=2, state_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    pol = IndependentGaussianPolicy.zeros(m, state_dim)
    return pol.with_theta(0.3 * rng.standard_normal(pol.n_params))


def _categorical(cards=(2, 3), n_states=2, seed=0):
    rng = np.random.default_rng(seed)
    pol = CategoricalPolicy.zeros(list(cards), IndicatorFeatures(n_states))
    return pol.with_theta(0.5 * rng.standard_normal(pol.n_params))


def _fd_scores(policy, states, actions, h=1e-6):
    """Central differences of log_prob, one row per (state, action)."""
    theta = policy.theta
    grad = np.zeros((len(states), len(theta)))
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[:, j] = (
            policy.with_theta(up).log_prob(states, actions)
            - policy.with_theta(dn).log_prob(states, actions)
        ) / (2 * h)
    return grad


def _sampled(policy, states, rng):
    return np.stack([policy.sample(s[None, :], policy.draw(rng, 1))[0] for s in states])


def test_gaussian_score_hand_example():
    # mu = 0.5 * s + 0.1, sigma = 2, s = 2, a = 3: resid = 1.9, var = 4.
    pol = IndependentGaussianPolicy(
        weights=np.array([[0.5]]),
        biases=np.array([0.1]),
        log_std=np.array([np.log(2.0)]),
        features=RawFeatures(1),
    )
    score = pol.score_matrix(np.array([[2.0]]), np.array([[3.0]]))[0]
    assert_allclose(score, [1.9 / 4 * 2.0, 1.9 / 4, 1.9 ** 2 / 4 - 1.0], atol=1e-12)


def test_scores_match_finite_differences():
    rng = np.random.default_rng(42)
    cases = []
    for seed in range(5):
        pol = _gaussian(m=2, state_dim=2, seed=seed)
        s = rng.standard_normal((3, 2))
        cases.append((pol, s, _sampled(pol, s, rng)))
        polc = _categorical(seed=seed)
        sc = rng.integers(2, size=(3, 1)).astype(float)
        cases.append((polc, sc, _sampled(polc, sc, rng)))
    for pol, s, a in cases:
        assert_allclose(pol.score_matrix(s, a), _fd_scores(pol, s, a), rtol=1e-5, atol=1e-7)


def test_score_matrix_block_depends_only_on_own_factor():
    pol = _gaussian(m=3, seed=1)
    s, a = np.zeros((1, 1)), np.array([[0.3, -0.1, 0.8]])
    base = pol.score_matrix(s, a)[0]
    for i in range(3):
        moved = a.copy()
        moved[0, i] += 0.5
        changed = pol.score_matrix(s, moved)[0] != base
        mask = np.zeros(pol.n_params, dtype=bool)
        mask[pol.block_slices[i]] = True
        assert changed.any()
        assert not changed[~mask].any()


def test_joint_score_is_sum_of_factor_scores():
    # each factor's block is the score of that factor alone as a one-factor policy
    pol = _categorical(seed=3)
    s, a = np.array([[1.0], [0.0]]), np.array([[1.0, 2.0], [0.0, 1.0]])
    singles = [CategoricalPolicy([w[:k]], pol.features)
               for w, k in zip(pol.logit_weights, pol.cardinalities)]
    expect = np.hstack([p.score_matrix(s, a[:, i : i + 1]) for i, p in enumerate(singles)])
    assert_allclose(pol.score_matrix(s, a), expect, atol=1e-14)


def test_joint_score_sq_norms_match_joint_scores():
    # the squared row norms of one batched score_matrix call, as the optimal
    # state baseline weighs with, equal those of one-row calls
    pol = _categorical(seed=5)
    rng = np.random.default_rng(9)
    states = rng.integers(2, size=(5, 1)).astype(float)
    actions = _sampled(pol, states, rng)
    scores = pol.score_matrix(states, actions)
    norms = np.einsum("np,np->n", scores, scores)
    for n in range(5):
        expect = np.sum(pol.score_matrix(states[n : n + 1], actions[n : n + 1]) ** 2)
        assert_allclose(norms[n], expect, atol=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "categorical"])
def test_score_matrix_matches_joint_scores(kind):
    rng = np.random.default_rng(7)
    if kind == "gaussian":
        pol = _gaussian(m=2, state_dim=2, seed=2)
        states = rng.standard_normal((6, 2))
    else:
        # unequal cardinalities: categorical blocks of 2 and 3 rows
        pol = _categorical(seed=2)
        states = rng.integers(pol.features.n_features, size=(6, 1)).astype(float)
    actions = _sampled(pol, states, rng)
    scores = pol.score_matrix(states, actions)
    assert scores.shape == (6, pol.n_params)
    assert_allclose(scores, _fd_scores(pol, states, actions), rtol=1e-5, atol=1e-7)


def test_log_prob_sums_factor_log_probs():
    pol = _gaussian(m=3, seed=4)
    s, a = np.zeros((2, 1)), np.array([[0.1, 0.2, -0.4], [0.5, -1.0, 0.0]])
    mu, sd = pol.mean_actions(s), np.exp(pol.log_std)
    per_factor = -0.5 * ((a - mu) / sd) ** 2 - np.log(sd * np.sqrt(2.0 * np.pi))
    assert pol.log_prob(s, a).shape == (2,)
    assert_allclose(pol.log_prob(s, a), per_factor.sum(axis=1), atol=1e-13)


def test_categorical_probs_normalize_and_batch_agrees():
    pol = _categorical(cards=(2, 3), seed=6)
    states = np.array([[0.0], [1.0], [0.0]])
    for i in range(2):
        batch = pol.factor_probs(states, i)
        assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
        for n in range(len(states)):
            assert_allclose(batch[n], pol.factor_probs(states[n : n + 1], i)[0], atol=1e-14)
    # log_prob of the joint is the sum of the chosen per-factor log-probs
    actions = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    rows = np.arange(3)
    expect = sum(
        np.log(pol.factor_probs(states, i)[rows, actions[:, i].astype(int)]) for i in range(2)
    )
    assert_allclose(pol.log_prob(states, actions), expect, atol=1e-14)


def test_sample_factor_batch_frequencies_match_probs():
    pol = _categorical(cards=(3,), n_states=1, seed=8)
    states = np.zeros((1, 1))
    probs = pol.factor_probs(states, 0)[0]
    draws = pol.sample_factors(np.repeat(states, 5, axis=0), 4000, np.random.default_rng(0))
    assert draws.shape == (5, 1, 4000)
    freq = np.mean(draws.reshape(-1)[:, None] == np.arange(3)[None, :], axis=0)
    se = np.sqrt(probs * (1 - probs) / draws.size)
    assert np.all(np.abs(freq - probs) < 5 * se + 1e-9)


def test_gaussian_sample_factor_batch_moments():
    pol = _gaussian(m=2, seed=9)
    states = np.zeros((3, 1))
    draws = pol.sample_factors(states, 8000, np.random.default_rng(1), [1])[:, 0]
    mu = pol.mean_actions(states)[:, 1]
    sd = np.exp(pol.log_std[1])
    assert draws.shape == (3, 8000)
    assert np.all(np.abs(draws.mean(axis=1) - mu) < 5 * sd / np.sqrt(8000))
    assert np.all(np.abs(draws.std(axis=1) - sd) < 0.05 * sd + 5 * sd / np.sqrt(8000))


@pytest.mark.parametrize("make", [_gaussian, _categorical])
def test_sample_factors_block_equals_one_factor_at_a_time(make):
    # one call over every factor reads one (n, size) block per factor, in
    # factor order, so it draws what successive one-factor calls draw
    pol = make(seed=18)
    states = np.array([[0.0], [1.0], [1.0], [0.0]])
    block = pol.sample_factors(states, 7, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    one_at_a_time = [pol.sample_factors(states, 7, rng, [i])[:, 0] for i in range(pol.m)]
    assert block.shape == (4, pol.m, 7)
    assert np.array_equal(block, np.stack(one_at_a_time, axis=1))


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


def test_categorical_kl_skips_an_underflowed_probability():
    # factor 0's logits (0, -800) put exactly 0 on its second category; that
    # term adds 0 to the KL, not 0 * (-inf - -inf) = nan
    pol = CategoricalPolicy([np.array([[0.0], [-800.0]]), np.zeros((2, 1))], RawFeatures(1))
    states = np.ones((3, 1))
    assert pol.factor_probs(states, 0)[0, 1] == 0.0
    assert pol.kl(pol, states) == 0.0
    # a step that moves only factor 1: the KL is factor 1's alone
    moved = pol.with_theta(pol.theta + np.array([0.0, 0.0, np.log(3.0), 0.0]))
    q = 1.0 / (1.0 + 3.0)
    expected = 0.5 * np.log(0.5 / (1.0 - q)) + 0.5 * np.log(0.5 / q)
    assert_allclose(pol.kl(moved, states), expected, rtol=1e-14)


def _per_factor_reference(ws, other_ws, states, actions, noise):
    """probs, sample, log_prob, score_matrix and kl of the policy with logit
    matrices ``ws`` (KL against ``other_ws``), one factor at a time on
    raw-feature states."""
    n, rows = len(states), np.arange(len(states))

    def shifted(w):
        logits = states @ w.T
        return logits - np.max(logits, axis=1, keepdims=True)

    def softmax(w):
        e = np.exp(shifted(w))
        return e / np.sum(e, axis=1, keepdims=True)

    probs, samples, blocks = [], [], []
    log_prob, kl = np.zeros(n), np.empty((n, len(ws)))
    for i, (w, v) in enumerate(zip(ws, other_ws)):
        a = actions[:, i].astype(int)
        p = softmax(w)
        probs.append(p)
        logits = (w @ states[:, :, None])[..., 0]  # one matrix-vector product per row
        e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        cdf = np.cumsum(e / np.sum(e, axis=1, keepdims=True), axis=1)
        samples.append(np.minimum(np.sum(cdf <= noise[:, i : i + 1], axis=1), len(w) - 1))
        own = shifted(w)
        log_prob += own[rows, a] - np.log(np.sum(np.exp(own), axis=1))
        coeff = -p
        coeff[rows, a] += 1.0
        blocks.append((coeff[:, :, None] * states[:, None, :]).reshape(n, -1))
        q = softmax(v)
        kl[:, i] = np.sum(p * (np.log(p) - np.log(q)), axis=1)
    return (probs, np.stack(samples, axis=1), log_prob, np.hstack(blocks),
            float(np.cumsum(kl.ravel())[-1]) / n)


# Up to 8 categories a padded sum groups its terms as the unpadded one does,
# so every bit is kept. Past 8, numpy's pairwise sum groups a narrow factor's
# terms with the padded zeros differently, so the wide case is held to a few
# ulps instead (tolerance fixed before the first run).
@pytest.mark.parametrize("cards, dim, rtol, atol", [((2, 3), 3, 0.0, 0.0),
                                                    ((2, 3), 1, 0.0, 0.0),
                                                    ((5, 9, 2, 12), 3, 1e-14, 1e-15)],
                         ids=["narrow", "one_feature", "wide"])
def test_padded_support_matches_a_per_factor_loop(cards, dim, rtol, atol):
    rng = np.random.default_rng(13)
    feats = RawFeatures(dim)
    ws = [rng.standard_normal((k, dim)) for k in cards]
    other_ws = [w + 0.3 * rng.standard_normal(w.shape) for w in ws]
    pol, other = CategoricalPolicy(ws, feats), CategoricalPolicy(other_ws, feats)
    states = rng.standard_normal((40, dim))
    noise = pol.draw(rng, 40)
    actions = np.stack([rng.integers(k, size=40) for k in cards], axis=1).astype(float)
    probs, samples, log_prob, scores, kl = _per_factor_reference(
        ws, other_ws, states, actions, noise)
    padded = pol.probs(states)
    assert padded.shape == (40, len(cards), max(cards))
    for i, k in enumerate(cards):
        assert_allclose(padded[:, i, :k], probs[i], rtol=rtol, atol=atol)
        assert_allclose(pol.factor_probs(states, i), probs[i], rtol=rtol, atol=atol)
        assert not padded[:, i, k:].any()
    np.testing.assert_array_equal(pol.sample(states, noise), samples)
    assert_allclose(pol.log_prob(states, actions), log_prob, rtol=rtol, atol=atol)
    padded_scores = pol.score_matrix(states, actions)
    assert_allclose(padded_scores, scores, rtol=rtol, atol=atol)
    # a Fortran-ordered score matrix rounds the natural step's BLAS products
    # differently
    assert padded_scores.flags.c_contiguous
    assert_allclose(pol.kl(other, states), kl, rtol=rtol, atol=atol)


@pytest.mark.parametrize("bad", [(2.0, 0.0), (-1.0, 0.0), (0.0, 3.0), (0.0, -0.6)],
                         ids=["past_k0", "negative", "past_k1", "rounds_negative"])
def test_action_outside_its_support_raises(bad):
    # an index past k_i or below 0 is rejected, not read past the end or wrapped
    pol = _categorical(cards=(2, 3), seed=17)
    states, actions = np.zeros((2, 1)), np.array([[1.0, 2.0], bad])
    for method in (pol.log_prob, pol.score_matrix):
        with pytest.raises(ValueError, match="outside the supports"):
            method(states, actions)


def test_mean_action_and_support():
    g = _gaussian(m=2, seed=11)
    assert_allclose(g.mean_actions(np.zeros((3, 1))), np.tile(g.biases, (3, 1)), atol=1e-12)


@pytest.mark.parametrize("make", [_gaussian, _categorical])
def test_one_dimensional_inputs_raise(make):
    # a 1-D array is never read as one row: states and actions must be (n, d)
    pol = make(seed=16)
    states, actions = np.zeros((3, 1)), np.zeros((3, pol.m))
    for method in (pol.log_prob, pol.score_matrix):
        with pytest.raises(ValueError, match=r"\(n, 1\)"):
            method(states[:, 0], actions)
        with pytest.raises(ValueError, match=rf"\(n, {pol.m}\)"):
            method(states, actions[0])
    with pytest.raises(ValueError, match=r"\(n, 1\)"):
        pol.sample(states[:, 0], pol.draw(np.random.default_rng(0), 3))


def test_theta_round_trip():
    for pol in (_gaussian(seed=12), _categorical(seed=12)):
        theta = pol.theta
        clone = pol.with_theta(theta.copy())
        assert_allclose(clone.theta, theta)
        s = np.zeros(1)
        rng = np.random.default_rng(0)
        a = pol.sample(s[None, :], pol.draw(rng, 1))
        assert_allclose(clone.log_prob(s[None, :], a), pol.log_prob(s[None, :], a), atol=1e-14)
