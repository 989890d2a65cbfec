"""Baseline functions: hand-checked optima, marginalization, batch-vs-reference."""


import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg import baselines
from factored_pg.baselines import BaselineSpec, BaselineState, QModel, TableModel
from factored_pg.envs import make_env
from factored_pg.features import (
    IndicatorFeatures,
    LinearModel,
    QuadraticMap,
    RawFeatures,
    RffMap,
    default_ridge,
    fit_linear,
    median_bandwidth,
)
from factored_pg.optim import OptimizerConfig, train
from factored_pg.policies import CategoricalPolicy, IndependentGaussianPolicy
from factored_pg.trajectory import Batch
from factored_pg.verify import (
    _swap,
    gaussian_marginalized_baseline,
    mc_marginalized_baseline,
    mean_marginalized_baseline,
    optimal_action_baseline,
)

S0 = np.array([0.0])


def _binary_policy(p0: float) -> CategoricalPolicy:
    """Single binary factor with exact marginal (p0, 1 - p0)."""
    return CategoricalPolicy(
        [np.log(np.array([[p0], [1.0 - p0]]))], IndicatorFeatures(1)
    )


def _sampled(policy, states, rng):
    return np.stack([policy.sample(s[None, :], policy.draw(rng, 1))[0] for s in states])


def _lookup_q(table):
    return lambda state, action: table[int(round(float(action[0])))]


def test_optimal_action_baseline_hand_value_a():
    # pi = (0.3, 0.7), Q = (2, -1); ||z(v)||^2 = (1 - 2 p_v + sum p^2) with
    # one-hot state features, so weights are (0.98, 0.18):
    # b* = (0.3*0.98*2 + 0.7*0.18*(-1)) / (0.3*0.98 + 0.7*0.18) = 0.462/0.42 = 1.1
    policy = _binary_policy(0.3)
    q = _lookup_q({0: 2.0, 1: -1.0})
    got = optimal_action_baseline(q, policy, S0, np.array([1.0]), 0)
    assert_allclose(got, 1.1, atol=1e-12)


def test_optimal_action_baseline_hand_value_b():
    # pi = (0.8, 0.2), Q = (1, 3); weights (0.08, 1.28):
    # b* = (0.8*0.08*1 + 0.2*1.28*3) / (0.8*0.08 + 0.2*1.28) = 0.832/0.32 = 2.6
    policy = _binary_policy(0.8)
    q = _lookup_q({0: 1.0, 1: 3.0})
    got = optimal_action_baseline(q, policy, S0, np.array([0.0]), 0)
    assert_allclose(got, 2.6, atol=1e-12)


def test_optimal_action_baseline_uniform_reduces_to_mean():
    # uniform probs give equal score norms, so the ratio collapses to the mean
    policy = CategoricalPolicy.zeros([3], IndicatorFeatures(1))
    q = _lookup_q({0: 1.0, 1: 2.0, 2: 6.0})
    got = optimal_action_baseline(q, policy, S0, np.array([2.0]), 0)
    assert_allclose(got, 3.0, atol=1e-12)


def test_exact_marginalization_hand_values():
    policy = _binary_policy(0.3)
    q = _lookup_q({0: 2.0, 1: -1.0})
    got = mc_marginalized_baseline(q, policy, S0, np.array([0.0]), 0, exact=True)
    assert_allclose(got, 0.3 * 2.0 + 0.7 * (-1.0), atol=1e-14)


def test_sampled_marginalization_requires_rng_and_converges():
    # Q = (a - 1)^2 with a ~ N(0.3, 0.5^2): E = d^2 + v and
    # Var = 4 d^2 v + 2 v^2, with d = -0.7 and v = 0.25
    policy = IndependentGaussianPolicy(np.zeros((1, 1)), np.array([0.3]),
                                       np.array([np.log(0.5)]), RawFeatures(1))
    q = lambda state, action: (action[0] - 1.0) ** 2
    with pytest.raises(ValueError, match="rng"):
        mc_marginalized_baseline(q, policy, S0, np.array([0.0]), 0)
    # a categorical factor is summed over its support, never sampled
    with pytest.raises(ValueError, match="continuous factor"):
        mc_marginalized_baseline(q, _binary_policy(0.3), S0, np.array([0.0]), 0,
                                 rng=np.random.default_rng(0))
    got = mc_marginalized_baseline(
        q, policy, S0, np.array([0.0]), 0, n_samples=60000, rng=np.random.default_rng(0)
    )
    d, v = -0.7, 0.25
    assert abs(got - (d**2 + v)) < 3 * np.sqrt((4 * d**2 * v + 2 * v**2) / 60000)


def test_mean_substitution_exact_for_linear_q():
    rng = np.random.default_rng(3)
    policy = IndependentGaussianPolicy.zeros(2, 1).with_theta(
        0.4 * rng.standard_normal(6)
    )

    def q(state, action):
        return 3.0 * action[0] + 2.0 * action[1] + 1.0

    s = np.array([0.7])
    a = np.array([0.5, -0.2])
    mu = policy.mean_actions(s[None, :])[0]
    # linear Q: plugging in the mean equals the full marginal expectation
    assert_allclose(
        mean_marginalized_baseline(q, policy, s, a, 1),
        3.0 * a[0] + 2.0 * mu[1] + 1.0,
        atol=1e-12,
    )
    draws = mc_marginalized_baseline(
        q, policy, s, a, 1, n_samples=40000, rng=np.random.default_rng(1)
    )
    sd = 2.0 * np.exp(policy.log_std[1])
    assert abs(draws - (3.0 * a[0] + 2.0 * mu[1] + 1.0)) < 3 * sd / np.sqrt(40000)


def test_mean_substitution_rejects_categorical_factor():
    policy = _binary_policy(0.5)
    with pytest.raises(ValueError):
        mean_marginalized_baseline(lambda s, a: 0.0, policy, S0, np.array([0.0]), 0)


def test_quadratic_critic_recovers_quadratic_return(refit_arm):
    rng = np.random.default_rng(5)
    states = rng.standard_normal((160, 1))
    actions = rng.standard_normal((160, 3))
    c = np.array([1.0, -2.0, 0.5])
    targets = -np.sum((actions - c) ** 2, axis=1)
    batch = Batch.from_paths([(states[k:k + 1], actions[k:k + 1], targets[k:k + 1])
                              for k in range(160)], gamma=1.0)
    spec = BaselineSpec(kind="mean_q", features="quadratic", ridge=1e-10)
    qmodel = refit_arm(spec, batch, IndependentGaussianPolicy.zeros(3, 1)).fitted
    test_a = rng.standard_normal((20, 3))
    pred = qmodel.predict(np.zeros((20, 1)), test_a)
    assert_allclose(pred, -np.sum((test_a - c) ** 2, axis=1), atol=1e-6)


def _categorical_batch(policy, n_traj=40, horizon=2, seed=7):
    """Synthetic batch with integer states, policy-sampled actions."""
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_traj):
        states = rng.integers(2, size=(horizon, 1)).astype(float)
        actions = _sampled(policy, states, rng)
        rewards = np.array(
            [float(a[0]) - 0.5 * float(a[1]) + 0.2 * float(s[0]) for s, a in zip(states, actions)]
        )
        paths.append((states, actions, rewards))
    return Batch.from_paths(paths, gamma=1.0)


def _two_factor_policy(seed=11):
    rng = np.random.default_rng(seed)
    pol = CategoricalPolicy.zeros([2, 3], IndicatorFeatures(2))
    return pol.with_theta(0.6 * rng.standard_normal(pol.n_params))


def test_exact_mc_q_batch_matches_reference(refit_arm):
    policy = _two_factor_policy()
    batch = _categorical_batch(policy)
    spec = BaselineSpec(kind="mc_q", exact=True, tabular=True)
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for k in range(0, batch.n_steps, 7):
        for i in range(policy.m):
            ref = mc_marginalized_baseline(
                q, policy, batch.states[k], batch.actions[k], i, exact=True
            )
            assert_allclose(out[k, i], ref, atol=1e-12)


def test_categorical_mc_q_sums_the_support_without_exact(refit_arm):
    # every Q kind sums a categorical factor's support, so an mc_q arm
    # without exact gives the exact arm's values, reads neither mc_samples
    # nor an rng, and leaves a generator it is handed where it was
    policy = _two_factor_policy(seed=32)
    batch = _categorical_batch(policy, seed=33)
    exact = refit_arm(BaselineSpec(kind="mc_q", exact=True, tabular=True), batch, policy)
    expect = exact.evaluate_and_refit(batch, policy)[0]
    state = refit_arm(BaselineSpec(kind="mc_q", mc_samples=5, tabular=True), batch, policy)
    rng = np.random.default_rng(3)
    for given in (None, rng):
        np.testing.assert_array_equal(state.evaluate_and_refit(batch, policy, given)[0], expect)
    assert rng.random() == np.random.default_rng(3).random()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_table_candidates_match_predictions_on_the_swapped_rows(weighted):
    """The code shift at candidates reads the bytes ``QModel.predict`` reads
    on each swapped row. The fit covers 0..2 on every column and the block
    -1..3, so a batch row's own a^i, another column and a candidate each fall
    outside the fit's range; factor 0's last slot stands for a ragged
    support's padding, candidate 0, read like any other slot."""
    rng = np.random.default_rng(31)
    ds, m, k = 1, 2, 4
    fit_rows = rng.integers(0, 3, (300, ds + m)).astype(float)
    weights = None
    if weighted:  # one key keeps only zero weight, so it reads as unseen
        weights = rng.uniform(0.0, 2.0, 300)
        weights[np.all(fit_rows == fit_rows[0], axis=1)] = 0.0
    model = QModel(TableModel.fit(fit_rows, rng.standard_normal(300), weights),
                   RawFeatures(ds + m))
    n = 400
    states = rng.integers(-1, 4, (n, ds)) + rng.uniform(-0.45, 0.45, (n, ds))
    actions = rng.integers(-1, 4, (n, m)) + rng.uniform(-0.45, 0.45, (n, m))
    cand = rng.integers(-1, 4, (n, m, k)) + rng.uniform(-0.45, 0.45, (n, m, k))
    cand[:, 0, -1] = 0.0
    q = model.at_candidates(states, actions, cand, np.hstack([states, actions]))
    for i, j in np.ndindex(m, k):
        np.testing.assert_array_equal(
            q[:, i, j], model.predict(states, _swap(actions, i, cand[:, i, j])))
    # each case the range test decides occurs in the block
    outside = lambda x: (np.rint(x) < 0) | (np.rint(x) > 2)
    own_out = outside(actions)[:, :, None] & ~outside(cand) & ~outside(states)[:, :, None]
    own_out &= ~outside(actions[:, ::-1])[:, :, None]  # the other factor, m = 2
    assert np.any(q[own_out] != 0.0)
    assert outside(states).any() and outside(cand[:, :, :-1]).any()
    assert not q[outside(states)[:, 0]].any()
    assert not q[outside(cand)].any()


def test_table_fit_raises_when_its_codes_overflow_int64():
    # spans 2^32 and 2^31 - 1 give 2^63 - 2^32 codes, which int64 holds
    table = TableModel.fit(np.array([[0.0, 0.0], [2.0**32 - 1, 2.0**31 - 2]]), np.array([1.0, 2.0]))
    assert_allclose(table.predict(np.array([[2.0**32 - 1, 2.0**31 - 2], [0.0, 1.0]])), [2.0, 0.0])
    with pytest.raises(ValueError, match="int64"):  # 2^63 codes
        TableModel.fit(np.array([[0.0, 0.0], [2.0**32 - 1, 2.0**31 - 1]]), np.array([1.0, 2.0]))


_ROW = np.array([0.0, 1.0, 2.0])


@pytest.mark.parametrize("call", [
    lambda: fit_linear(_ROW, np.ones(1), ridge=None),
    lambda: default_ridge(_ROW),
    lambda: median_bandwidth(_ROW),
    lambda: TableModel.fit(_ROW, np.ones(1)),
    lambda: TableModel.fit(np.eye(3), np.ones(3)).predict(_ROW),
    lambda: QModel(LinearModel(np.ones(4)), RawFeatures(3)).predict(_ROW[:1], _ROW[1:]),
], ids=["fit_linear", "default_ridge", "median_bandwidth", "table_fit", "table_predict",
        "q_predict"])
def test_one_row_as_a_1d_array_raises(call):
    # a 1-D array is never read as one row: the rows must be (n, d)
    with pytest.raises(ValueError, match=r"expected \(n, d\) rows"):
        call()


def test_table_with_no_positive_weight_predicts_zero():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]])
    model = QModel(TableModel.fit(rows, np.array([2.0, 4.0, -1.0]), np.zeros(3)), RawFeatures(2))
    assert model.model.codes.size == 0
    np.testing.assert_array_equal(model.model.predict(rows), 0.0)
    cand = np.array([[[0.0, 1.0]], [[0.0, 2.0]], [[1.0, 0.0]]])
    got = model.at_candidates(rows[:, :1], rows[:, 1:], cand, rows)
    np.testing.assert_array_equal(got, 0.0)


def test_optimal_action_batch_matches_reference(refit_arm):
    policy = _two_factor_policy(seed=12)
    batch = _categorical_batch(policy, seed=8)
    spec = BaselineSpec(kind="optimal_action", tabular=True)
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for k in range(0, batch.n_steps, 7):
        for i in range(policy.m):
            ref = optimal_action_baseline(q, policy, batch.states[k], batch.actions[k], i)
            assert_allclose(out[k, i], ref, atol=1e-12)


def test_mean_q_batch_matches_reference(refit_arm):
    rng = np.random.default_rng(13)
    policy = IndependentGaussianPolicy.zeros(2, 1).with_theta(0.3 * rng.standard_normal(6))
    paths = []
    for _ in range(30):
        states = rng.standard_normal((2, 1))
        actions = _sampled(policy, states, rng)
        rewards = actions.sum(axis=1)
        paths.append((states, actions, rewards))
    batch = Batch.from_paths(paths, gamma=1.0)
    spec = BaselineSpec(kind="mean_q", features="linear")
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for k in range(0, batch.n_steps, 5):
        for i in range(policy.m):
            ref = mean_marginalized_baseline(
                q, policy, batch.states[k], batch.actions[k], i
            )
            assert_allclose(out[k, i], ref, atol=1e-12)


def test_mean_q_quadratic_matches_reference(refit_arm):
    rng = np.random.default_rng(32)
    policy = IndependentGaussianPolicy.zeros(5, 2).with_theta(0.3 * rng.standard_normal(20))
    paths = []
    for _ in range(40):
        states = rng.standard_normal((2, 2))
        actions = _sampled(policy, states, rng)
        paths.append((states, actions, -np.sum((actions - 0.4) ** 2, axis=1) + states[:, 1]))
    batch = Batch.from_paths(paths, gamma=1.0)
    spec = BaselineSpec(kind="mean_q", features="quadratic", ridge=1e-8)
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for k in range(batch.n_steps):
        for i in range(policy.m):
            ref = mean_marginalized_baseline(q, policy, batch.states[k], batch.actions[k], i)
            assert_allclose(out[k, i], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("features", ["linear", "quadratic"])
@pytest.mark.parametrize("kind, reference", [
    ("mc_q", lambda q, pol, s, a, i: mc_marginalized_baseline(q, pol, s, a, i, exact=True)),
    ("optimal_action", optimal_action_baseline),
], ids=["exact_mc_q", "optimal_action"])
def test_ragged_categorical_regression_matches_reference(refit_arm, features, kind, reference):
    """Supports of 2 and 3 values on a ridge fit, so factor 0's candidates
    are padded to 3 with zero weight."""
    policy = _two_factor_policy(seed=33)
    batch = _categorical_batch(policy, seed=34)
    spec = BaselineSpec(kind=kind, exact=kind == "mc_q", features=features)
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for k in range(batch.n_steps):
        for i in range(policy.m):
            ref = reference(q, policy, batch.states[k], batch.actions[k], i)
            assert_allclose(out[k, i], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("features, calls", [("linear", 1), ("quadratic", 1), ("rff", 2)])
def test_separable_maps_predict_once_per_batch(monkeypatch, refit_arm, features, calls):
    """A ridge fit on raw or quadratic features moves a^i by its own columns
    alone, so it predicts once, on the batch's mapped block. On random
    features a^i moves the sinusoid's argument by its own projection column,
    so the batch's argument is computed twice, once for the mapped block and
    once for the candidates, and nothing predicts per factor and candidate."""
    rng = np.random.default_rng(35)
    policy = IndependentGaussianPolicy.zeros(3, 1).with_theta(0.3 * rng.standard_normal(9))
    batch = _gaussian_batch(policy, 36)
    spec = BaselineSpec(kind="mc_q", mc_samples=4, features=features,
                        n_features=20 if features == "rff" else 100)
    state = refit_arm(spec, batch, policy, np.random.default_rng(1))
    counted = []
    for owner, attr in ((LinearModel, "predict"), (RffMap, "argument")):
        monkeypatch.setattr(owner, attr, lambda *args, call=getattr(owner, attr):
                            counted.append(1) or call(*args))
    state.evaluate_and_refit(batch, policy, np.random.default_rng(2))
    assert len(counted) == calls


@pytest.mark.parametrize("spec", [
    BaselineSpec(kind="state_value", features="rff", n_features=20),
    BaselineSpec(kind="optimal_state", features="quadratic"),
    BaselineSpec(kind="mean_q", features="quadratic"),
    BaselineSpec(kind="none"),
], ids=["state_value-rff", "optimal_state-quadratic", "mean_q-quadratic", "none"])
def test_train_maps_each_batch_once(monkeypatch, spec):
    # iteration 0 maps its batch once to build the map and fit it; every
    # later iteration maps its batch once, for evaluate and refit together
    # (mean_q reads Q(s, a) off that block); kind none maps nothing
    mapped = []
    for fmap in (RffMap, QuadraticMap):
        monkeypatch.setattr(fmap, "__call__", lambda m, x, call=fmap.__call__:
                            mapped.append(len(x)) or call(m, x))
    train(make_env("point_mass", {"horizon": 5}), IndependentGaussianPolicy.zeros(2, 4),
          spec, n_iterations=3, n_trajectories=4, seed=0, optimizer=OptimizerConfig())
    assert mapped == ([] if spec.kind == "none" else [4 * 5] * 3)


def _gaussian_batch(policy, seed):
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(20):
        states = rng.standard_normal((2, 1))
        actions = _sampled(policy, states, rng)
        paths.append((states, actions, -np.sum((actions - 0.3) ** 2, axis=1) + states[:, 0]))
    return Batch.from_paths(paths, gamma=1.0)


def _gaussian_case():
    policy = IndependentGaussianPolicy.zeros(2, 1).with_theta(
        0.3 * np.random.default_rng(28).standard_normal(6)
    )
    return policy, _gaussian_batch(policy, 29)


def _categorical_case():
    policy = _two_factor_policy(seed=30)
    return policy, _categorical_batch(policy, seed=31)


def _rff_swap(fmap, states, actions, i, values):
    """``actions`` with a^i = ``values`` and the elementwise bound on a
    candidate sine of ``QModel.at_candidates`` against ``fmap`` of those
    rows. Rounding z, the shift's two factors, their product and the sum to
    float32 moves the argument by at most 2^-24 (|z| + 3 |shift| + |z'|),
    ``fmap`` rounds the swapped argument z' by 2^-24 |z'|, and each float32
    sine adds at most 2^-22."""
    swapped = _swap(actions, i, values)
    z = fmap.argument(np.hstack([states, actions]))
    z_swap = fmap.argument(np.hstack([states, swapped]))
    shift = (values - actions[:, i])[:, None] * (fmap.projection[:, states.shape[1] + i]
                                                 / fmap.bandwidth)
    bound = 2.0**-24 * (np.abs(z) + 3 * np.abs(shift) + 2 * np.abs(z_swap)) + 2.0**-21
    return swapped, bound


def test_rff_candidate_sines_match_the_map_of_the_swapped_rows():
    # a unit weight on feature f and a zero bias read at_candidates' shifted
    # sines out one feature at a time, exactly; the bound was fixed before
    # the first run
    policy, batch = _gaussian_case()
    states, actions = batch.states, batch.actions
    x = np.hstack([states, actions])
    n_features = 8
    fmap = RffMap(x.shape[1], n_features, 0.05, np.random.default_rng(3))
    cand = actions[:, :, None] + 2.0 * np.random.default_rng(4).standard_normal((len(x), 2, 3))
    unit = np.eye(n_features + 1)  # the bias weight is last
    sines = np.stack([QModel(LinearModel(unit[f]), fmap).at_candidates(
        states, actions, cand, fmap(x)) for f in range(n_features)], axis=-1)
    assert np.abs(fmap.argument(x)).max() > 20
    for i, k in np.ndindex(2, 3):
        swapped, bound = _rff_swap(fmap, states, actions, i, cand[:, i, k])
        err = np.abs(sines[:, i, k] - fmap(np.hstack([states, swapped])))
        assert np.all(err <= bound), f"factor {i} slot {k}"


RFF = {"features": "rff", "n_features": 30}


@pytest.mark.parametrize("spec, case", [
    (BaselineSpec(kind="mc_q", exact=True, **RFF), _categorical_case),
    (BaselineSpec(kind="optimal_action", **RFF), _categorical_case),
    (BaselineSpec(kind="optimal_action", mc_samples=7, **RFF), _gaussian_case),
    (BaselineSpec(kind="mean_q", **RFF), _gaussian_case),
], ids=["exact_mc_q-categorical", "optimal_action-categorical", "optimal_action-gaussian",
        "mean_q-gaussian"])
def test_rff_candidates_match_predictions_on_the_swapped_rows(refit_arm, spec, case):
    """Q at each candidate is within sum_f |w_f| bound_f of
    ``QModel.predict`` on the swapped rows, plus the rounding of the two
    float64 dot products; the ragged support's padded slots, read like any
    other, carry zero weight."""
    policy, batch = case()
    model = refit_arm(spec, batch, policy, np.random.default_rng(1)).fitted
    states, actions = batch.states, batch.actions
    cand, weights, _, _ = baselines.marginal(states, policy, spec, np.random.default_rng(2))
    q = model.at_candidates(states, actions, cand,
                            model.feature_map(np.hstack([states, actions])))
    w = model.model.weights
    rounding = 2 * (len(w) + 1) * 2.0**-53 * np.sum(np.abs(w))
    for i, k in np.ndindex(cand.shape[1:]):
        swapped, bound = _rff_swap(model.feature_map, states, actions, i, cand[:, i, k])
        err = np.abs(q[:, i, k] - model.predict(states, swapped))
        assert np.all(err <= bound @ np.abs(w[:-1]) + rounding), f"factor {i} slot {k}"
    if policy.kind == "categorical":  # factor 0 has 2 of the 3 slots
        assert policy.cardinalities == (2, 3)
        assert not np.any(weights[:, 0, 2])


@pytest.mark.parametrize("spec, reference", [
    (BaselineSpec(kind="optimal_action", mc_samples=7, features="quadratic", ridge=1e-8),
     optimal_action_baseline),
], ids=["optimal_action-gaussian"])
def test_sampled_batch_matches_draw_aligned_reference(refit_arm, spec, reference):
    """Draws of factor i come in one (n, K) block after those of factors < i,
    so row r of factor i reads the draws after the first (i n + r) K."""
    policy, batch = _gaussian_case()
    state = refit_arm(spec, batch, policy, np.random.default_rng(1))
    out = state.evaluate_and_refit(batch, policy, np.random.default_rng(2))[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    n, k = batch.n_steps, spec.mc_samples
    for i in range(policy.m):
        for r in range(n):
            rng = np.random.default_rng(2)
            rng.standard_normal((i * n + r) * k)
            ref = reference(q, policy, batch.states[r], batch.actions[r], i,
                            n_samples=k, rng=rng)
            assert_allclose(out[r, i], ref, rtol=1e-12, atol=1e-12, err_msg=f"factor {i} row {r}")


@pytest.mark.parametrize("features", ["linear", "quadratic"])
def test_gaussian_mc_q_matches_the_gauss_hermite_reference(refit_arm, features):
    """On raw or quadratic features Q is a polynomial of degree <= 2 in a^i,
    which the two-node rule integrates exactly."""
    policy, batch = _gaussian_case()
    spec = BaselineSpec(kind="mc_q", features=features, ridge=1e-8)
    state = refit_arm(spec, batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    model = state.fitted
    q = lambda s, a: model.predict(s[None], a[None])[0]
    for r, i in np.ndindex(out.shape):
        ref = gaussian_marginalized_baseline(q, policy, batch.states[r], batch.actions[r], i, 2)
        assert_allclose(out[r, i], ref, rtol=1e-12, atol=1e-12, err_msg=f"factor {i} row {r}")


def _wide_rff_case(n_features=30):
    """The Gaussian test policy on 40 states of spread 30 and a critic of
    random weights on random features of bandwidth 1: the sinusoid's
    argument passes 20, and (sigma_i c_f)^2 stays below 12, where a 40-node
    Gauss-Hermite rule integrates each sine to double precision."""
    policy = _gaussian_case()[0]
    rng = np.random.default_rng(37)
    states = 30.0 * rng.standard_normal((40, 1))
    actions = _sampled(policy, states, rng)
    batch = Batch.from_paths([(states, actions, np.zeros(40))], gamma=1.0)
    fmap = RffMap(1 + policy.m, n_features, 1.0, rng)
    model = QModel(LinearModel(rng.standard_normal(n_features + 1)), fmap)
    assert np.abs(fmap.argument(np.hstack([states, actions]))).max() > 20
    assert np.max((policy.std * fmap.projection[:, 1:]) ** 2) < 12
    return policy, batch, model


def test_rff_mc_q_matches_the_gauss_hermite_reference():
    """Each factor reads one shifted sine, at the mean, against damped
    weights: within sum_f |w_f| bound_f of the 40-node rule over
    ``QModel.predict`` on the swapped rows, bound_f being the float32 sine
    bound at the mean, plus the rounding of the float64 sums; the bound was
    fixed before the first run."""
    policy, batch, model = _wide_rff_case()
    states, actions = batch.states, batch.actions
    out = BaselineState(BaselineSpec(kind="mc_q", features="rff", n_features=30), model).evaluate(
        batch, policy, None, model.feature_map(np.hstack([states, actions])))
    q = lambda s, a: model.predict(s[None], a[None])[0]
    w = model.model.weights
    rounding = 2 * (len(w) + 40) * 2.0**-53 * np.sum(np.abs(w))
    means = policy.mean_actions(states)
    for i in range(policy.m):
        _, bound = _rff_swap(model.feature_map, states, actions, i, means[:, i])
        ref = [gaussian_marginalized_baseline(q, policy, states[r], actions[r], i, 40)
               for r in range(len(states))]
        assert np.all(np.abs(out[:, i] - ref) <= bound @ np.abs(w[:-1]) + rounding), f"factor {i}"


def test_gauss_hermite_reference_is_the_limit_of_sampling():
    # a Q no finite rule integrates exactly; 60 000 draws land within 4 SE
    policy, batch = _gaussian_case()
    s, a, i = batch.states[3], batch.actions[3], 1
    q = lambda s, a: np.sin(2.0 * a[..., 1] + s[0]) * np.cos(a[..., 0]) + a[..., 1] ** 3
    n = 60000
    draws = policy.sample_factors(s[None], n, np.random.default_rng(38), [i])[0, 0]
    se = np.std(q(s, _swap(np.tile(a, (n, 1)), i, draws)), ddof=1) / np.sqrt(n)
    sampled = mc_marginalized_baseline(q, policy, s, a, i, n_samples=n,
                                       rng=np.random.default_rng(38))
    assert abs(sampled - gaussian_marginalized_baseline(q, policy, s, a, i, 40)) < 4 * se


@pytest.mark.parametrize("features", ["linear", "quadratic", "rff"])
def test_gaussian_mc_q_draws_nothing(refit_arm, features):
    # once the map exists, a Gaussian mc_q arm reads no generator: it gives
    # the same values without one and leaves one it is handed where it was
    policy, batch = _gaussian_case()
    spec = BaselineSpec(kind="mc_q", mc_samples=5, features=features,
                        n_features=20 if features == "rff" else 100)
    state = refit_arm(spec, batch, policy, np.random.default_rng(1))
    rng = np.random.default_rng(3)
    expect = state.evaluate_and_refit(batch, policy, rng)[0]
    np.testing.assert_array_equal(state.evaluate_and_refit(batch, policy, None)[0], expect)
    assert rng.random() == np.random.default_rng(3).random()


@pytest.mark.parametrize("features", ["quadratic", "rff"])
def test_gaussian_mc_q_does_not_read_the_factor_it_integrates(refit_arm, features):
    """Moving every row's a^i moves b_i by rounding alone: on quadratic
    features by the float64 rounding of the dot product and the closed-form
    terms, on random features by the float32 sine bound at the mean on each
    side. The bounds were fixed before the first run."""
    policy, batch = _gaussian_case()
    spec = BaselineSpec(kind="mc_q", features=features, n_features=30 if features == "rff" else 100)
    state = refit_arm(spec, batch, policy, np.random.default_rng(1))
    fmap, w = state.fitted.feature_map, state.fitted.model.weights
    means, var = policy.mean_actions(batch.states), policy.std**2
    moves = 1.5 * np.random.default_rng(39).standard_normal(batch.actions.shape)
    for i in range(policy.m):
        sides = []
        for actions in (batch.actions, _swap(batch.actions, i, batch.actions[:, i] + moves[:, i])):
            phi = fmap(np.hstack([batch.states, actions]))
            moved = Batch.from_paths([(batch.states, actions, np.zeros(batch.n_steps))], gamma=1.0)
            b = state.evaluate(moved, policy, None, phi)[:, i]
            if features == "rff":
                bound = _rff_swap(fmap, batch.states, actions, i, means[:, i])[1] @ np.abs(w[:-1])
                bound += 2 * (len(w) + 1) * 2.0**-53 * np.sum(np.abs(w))
            else:
                a, col = actions[:, i], 1 + i
                scale = (np.abs(phi) @ np.abs(w[:-1]) + abs(w[-1]) + abs(w[col]) * (
                    np.abs(means[:, i]) + np.abs(a)) + abs(w[fmap.input_dim + col]) * (
                    means[:, i] ** 2 + var[i] + a * a))
                bound = (len(w) + 4) * 2.0**-53 * scale
            sides.append((b, bound))
        (b0, bound0), (b1, bound1) = sides
        assert np.all(np.abs(b1 - b0) <= bound0 + bound1), f"factor {i}"


def test_tabular_mc_q_rejects_gaussian_factors():
    # a table critic has no Gaussian expectation to take
    with pytest.raises(ValueError, match="tabular mc_q"):
        baselines.check_marginal(BaselineSpec(kind="mc_q", tabular=True),
                                 IndependentGaussianPolicy.zeros(2, 1))
    baselines.check_marginal(BaselineSpec(kind="mc_q", tabular=True), _two_factor_policy())


def test_exact_mc_q_rejects_continuous_factors(refit_arm):
    rng = np.random.default_rng(14)
    policy = IndependentGaussianPolicy.zeros(1, 1)
    states = rng.standard_normal((3, 1))
    actions = _sampled(policy, states, rng)
    batch = Batch.from_paths([(states, actions, np.zeros(3))], gamma=1.0)
    spec = BaselineSpec(kind="mc_q", exact=True, features="linear")
    state = refit_arm(spec, batch, policy)
    with pytest.raises(ValueError):
        state.evaluate_and_refit(batch, policy)


def test_enumerated_score_baseline_orthogonality(refit_arm):
    """E_{a^i}[z_i b_i] = 0 for every baseline kind: b_i never reads a^i."""
    policy = _two_factor_policy(seed=15)
    batch = _categorical_batch(policy, seed=16)
    kinds = [
        BaselineSpec(kind="none"),
        BaselineSpec(kind="state_value", tabular=True),
        BaselineSpec(kind="optimal_state", tabular=True),
        BaselineSpec(kind="mc_q", exact=True, tabular=True),
        BaselineSpec(kind="optimal_action", tabular=True),
    ]
    for spec in kinds:
        state = refit_arm(spec, batch, policy)
        for k in range(0, batch.n_steps, 11):
            s = batch.states[k]
            for i in range(policy.m):
                block = policy.block_slices[i]
                probs = policy.factor_probs(s[None, :], i)[0]
                moment = np.zeros(block.stop - block.start)
                for v, pv in enumerate(probs):
                    a = batch.actions[k].copy()
                    a[i] = v
                    sub = Batch.from_paths([(s[None, :], a[None, :], np.zeros(1))], gamma=1.0)
                    b = state.evaluate_and_refit(sub, policy)[0][0, i]
                    moment += pv * b * policy.score_matrix(s[None, :], a[None, :])[0, block]
                assert_allclose(moment, 0.0, atol=1e-12, err_msg=f"{spec.kind} factor {i}")


def test_initial_state_is_zero_and_none_stays_zero(refit_arm):
    policy = _two_factor_policy(seed=17)
    batch = _categorical_batch(policy, seed=18)
    spec = BaselineSpec(kind="optimal_action", tabular=True)
    assert_allclose(BaselineState(spec).evaluate_and_refit(batch, policy)[0], 0.0)
    none_state = refit_arm(BaselineSpec(kind="none"), batch, policy)
    assert_allclose(none_state.evaluate_and_refit(batch, policy)[0], 0.0)


@pytest.mark.parametrize("tabular", [False, True], ids=["fit_linear", "TableModel.fit"])
def test_evaluate_reads_the_model_fitted_on_the_previous_batch(tabular):
    # b on batch t comes from the refit on t - 1, so it never sees t's returns
    policy = _two_factor_policy(seed=23)
    previous, batch = (_categorical_batch(policy, seed=seed) for seed in (24, 25))
    spec = BaselineSpec(kind="state_value", tabular=tabular)
    state = BaselineState(spec).evaluate_and_refit(previous, policy)[1]
    values = state.evaluate_and_refit(batch, policy)[0]

    def fitted_on(b):
        if tabular:
            return TableModel.fit(b.states, b.qhat)
        return fit_linear(b.states, b.qhat, ridge=spec.ridge)

    def predicted(model):
        return np.repeat(model.predict(batch.states)[:, None], policy.m, axis=1)

    assert values.tobytes() == predicted(fitted_on(previous)).tobytes()
    assert not np.allclose(values, predicted(fitted_on(batch)))


def test_state_value_constant_across_factors(refit_arm):
    policy = _two_factor_policy(seed=19)
    batch = _categorical_batch(policy, seed=20)
    state = refit_arm(BaselineSpec(kind="state_value", tabular=True), batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    assert out.shape == (batch.n_steps, policy.m)
    assert_allclose(out[:, 0], out[:, 1], atol=1e-14)
    # tabular state values are per-state batch means of the return-to-go
    for s_key in (0, 1):
        mask = np.rint(batch.states[:, 0]).astype(int) == s_key
        if mask.any():
            assert_allclose(out[mask, 0], batch.qhat[mask].mean(), atol=1e-12)


def test_optimal_state_uses_score_norm_weights(refit_arm):
    policy = _two_factor_policy(seed=21)
    batch = _categorical_batch(policy, seed=22)
    state = refit_arm(BaselineSpec(kind="optimal_state", tabular=True), batch, policy)
    out = state.evaluate_and_refit(batch, policy)[0]
    # the weights are squared joint score norms, from one-row score_matrix calls
    rows = zip(batch.states[:, None], batch.actions[:, None])
    w = np.array([np.sum(policy.score_matrix(s, a) ** 2) for s, a in rows])
    keys = np.rint(batch.states[:, 0]).astype(int)
    for s_key in (0, 1):
        mask = keys == s_key
        if mask.any():
            expect = np.sum(w[mask] * batch.qhat[mask]) / np.sum(w[mask])
            assert_allclose(out[mask, 0], expect, atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec(kind="fancy")
    with pytest.raises(ValueError):
        BaselineSpec(kind="none", features="cubic")
    with pytest.raises(ValueError):
        BaselineSpec(kind="mc_q", mc_samples=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ridge"):
            BaselineSpec(kind="state_value", ridge=bad)
    with pytest.raises(ValueError):
        BaselineSpec(kind="state_value", features="rff", n_features=0)
    with pytest.raises(ValueError, match="rff features only"):
        BaselineSpec(kind="mc_q", features="quadratic", n_features=7)
    # a table keys on raw rows, so regression settings on it are an error
    for bad in ({"features": "quadratic"}, {"n_features": 250}, {"ridge": 1e-3}):
        with pytest.raises(ValueError, match="tabular"):
            BaselineSpec(kind="state_value", tabular=True, **bad)
    assert BaselineSpec(kind="mean_q", features="quadratic").features == "quadratic"


def test_tabular_state_value_keys_on_every_state_column(refit_arm):
    # states differ only in column 1; a table keyed on column 0 alone would
    # merge them into one entry
    states = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    actions = np.zeros((4, 1))
    batch = Batch.from_paths(
        [(states[k:k + 1], actions[k:k + 1], np.array([r]))
         for k, r in enumerate([1.0, 5.0, 3.0, 7.0])],
        gamma=1.0,
    )
    policy = IndependentGaussianPolicy.zeros(1, 2)
    spec = BaselineSpec(kind="state_value", tabular=True)
    state = refit_arm(spec, batch, policy)
    assert_allclose(state.evaluate_and_refit(batch, policy)[0][:, 0], [2.0, 6.0, 2.0, 6.0],
                    atol=1e-14)


def test_table_model_predicts_zero_on_unseen_rows():
    table = TableModel.fit(np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 4.0, -1.0]))
    got = table.predict(np.array([[1.0, 0.0], [5.0, 5.0], [0.0, 1.0], [1.0, 1.0]]))
    assert_allclose(got, [-1.0, 0.0, 3.0, 0.0], atol=1e-14)


def test_one_fitted_model_per_arm(monkeypatch, refit_arm):
    """Every arm fits one QModel: the state kinds on zero action columns, the
    marginal kinds on the batch's own action array, since a fancy-indexed
    copy is Fortran-ordered and rounds the ridge solve differently."""
    policy = _two_factor_policy(seed=25)
    batch = _categorical_batch(policy, seed=26)
    read = []
    action_inputs = BaselineState._action_inputs
    monkeypatch.setattr(BaselineState, "_action_inputs",
                        lambda arm, actions: read.append(action_inputs(arm, actions)) or read[-1])
    for spec in (BaselineSpec(kind="state_value", tabular=True), BaselineSpec(kind="optimal_state")):
        state = refit_arm(spec, batch, policy)
        assert isinstance(state.fitted, QModel)
        assert read.pop().shape == (batch.n_steps, 0)
    state = BaselineState(BaselineSpec(kind="mc_q", exact=True))
    for _ in range(2):  # a fresh feature map, then the frozen one
        state = state.evaluate_and_refit(batch, policy)[1]
        assert isinstance(state.fitted, QModel)
        assert read.pop() is batch.actions
    assert refit_arm(BaselineSpec(kind="none"), batch, policy).fitted is None
    assert read == []
