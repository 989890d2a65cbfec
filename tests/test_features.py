"""Feature maps and the closed-form ridge fit."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.errors import SingularSystemError
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


def test_scalar_least_squares_mean():
    # no features, t = (2, 4): the bias column alone recovers the mean.
    model = fit_linear(np.empty((2, 0)), np.array([2.0, 4.0]), ridge=1e-14)
    assert_allclose(model.weights, [3.0])


def test_bias_column_recovers_affine_data():
    model = fit_linear(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]), ridge=1e-14)
    assert_allclose(model.weights, [2.0, 1.0], atol=1e-12)
    assert_allclose(model.predict(np.array([[4.0]])), [9.0], atol=1e-10)


def test_exact_interpolation_on_full_rank_square_system():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((4, 3))
    t = rng.standard_normal(4)
    model = fit_linear(F, t, ridge=1e-14)
    assert_allclose(model.predict(F), t, atol=1e-8)


def test_zero_ridge_raises():
    # every fit is a ridge solve; there is no unregularized least squares
    F = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="> 0"):
        fit_linear(F, np.array([1.0, 2.0, 3.0]), ridge=0.0)


@pytest.mark.parametrize("ridge", [None, 1.0])
def test_empty_design_raises(ridge):
    # the default ridge of an empty design is 0, and a ridge solve on it
    # would return zero weights without complaint
    with pytest.raises(ValueError, match="at least one row"):
        fit_linear(np.empty((0, 2)), np.empty(0), ridge=ridge)


def test_ridge_regularizes_rank_deficient_system():
    F = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    model = fit_linear(F, np.array([1.0, 2.0, 3.0]), ridge=1e-6)
    assert np.all(np.isfinite(model.weights))
    assert_allclose(model.predict(F), [1.0, 2.0, 3.0], atol=1e-3)


def test_large_ridge_shrinks_weights_toward_zero():
    F = np.array([[1.0], [2.0], [3.0]])
    t = np.array([2.0, 4.0, 6.0])
    small = fit_linear(F, t, ridge=1e-8)
    huge = fit_linear(F, t, ridge=1e8)
    assert np.linalg.norm(huge.weights) < 1e-4 < np.linalg.norm(small.weights)


def test_weighted_fit_reweights_samples():
    # Bias column alone, weights (1, 3): weighted mean (2 + 3*4)/4 = 3.5.
    model = fit_linear(
        np.empty((2, 0)),
        np.array([2.0, 4.0]),
        ridge=1e-14,
        sample_weights=np.array([1.0, 3.0]),
    )
    assert_allclose(model.weights, [3.5])


def test_weighted_fit_rejects_negative_weights():
    with pytest.raises(ValueError):
        fit_linear(
            np.empty((2, 0)),
            np.array([2.0, 4.0]),
            ridge=1e-3,
            sample_weights=np.array([1.0, -1.0]),
        )


def test_invalid_ridge_rejected():
    with pytest.raises(ValueError):
        fit_linear(np.array([[1.0]]), np.array([1.0]), ridge=-1.0)
    with pytest.raises(ValueError):
        fit_linear(np.array([[1.0]]), np.array([1.0]), ridge=float("nan"))


@pytest.mark.parametrize("ridge", [None, 1e-3])
@pytest.mark.parametrize("bad", ["features", "targets", "weights"])
def test_non_finite_inputs_raise_singular_system(ridge, bad, capfd):
    # a ridge fit on a NaN design once fell into an lstsq fallback that
    # raised a bare LinAlgError after LAPACK printed to stderr
    inputs = {"features": np.array([[1.0], [2.0], [3.0]]),
              "targets": np.array([1.0, 2.0, 3.0]),
              "weights": np.ones(3)}
    inputs[bad] = inputs[bad].copy()
    inputs[bad][1] = np.nan if bad != "targets" else np.inf
    with pytest.raises(SingularSystemError, match="finite"):
        fit_linear(inputs["features"], inputs["targets"], ridge=ridge,
                   sample_weights=inputs["weights"])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("shape", [(5, 1), (2, 2)], ids=["primal", "dual"])
def test_failed_ridge_solve_raises_singular_system(shape):
    # a ridge lost to rounding leaves the system exactly singular; no
    # least-squares fallback hides it
    with pytest.raises(SingularSystemError, match="solve failed"):
        fit_linear(np.ones(shape), np.arange(float(shape[0])), ridge=1e-300)


def test_wide_design_uses_dual_solve():
    # p > n: ridge solution must still reproduce near-interpolation on train.
    rng = np.random.default_rng(11)
    F = rng.standard_normal((5, 12))
    t = rng.standard_normal(5)
    model = fit_linear(F, t, ridge=1e-10)
    assert_allclose(model.predict(F), t, atol=1e-6)


def test_fit_linear_default_ridge_uses_its_own_unweighted_design():
    rng = np.random.default_rng(11)
    F, t, sw = rng.standard_normal((30, 4)), rng.standard_normal(30), rng.random(30)
    ridge = default_ridge(np.hstack([F, np.ones((30, 1))]))
    for weights in (None, sw):
        auto = fit_linear(F, t, ridge=None, sample_weights=weights)
        explicit = fit_linear(F, t, ridge=ridge, sample_weights=weights)
        assert np.array_equal(auto.weights, explicit.weights)


def test_default_ridge_hand_value():
    design = np.array([[1.0, 1.0], [1.0, 1.0]])
    # 1e-5 * sum(F^2) / rows = 1e-5 * 4 / 2
    assert_allclose(default_ridge(design), 2e-5)


def test_rff_map_identical_under_identical_seeds():
    a = RffMap(3, 16, 2.0, np.random.default_rng(7))
    b = RffMap(3, 16, 2.0, np.random.default_rng(7))
    x = np.random.default_rng(0).standard_normal((5, 3))
    assert_allclose(a(x), b(x))
    assert_allclose(a.projection, b.projection)


def test_rff_map_output_shape_and_range():
    m = RffMap(4, 10, 1.0, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((6, 4))
    y = m(x)
    assert y.shape == (6, 10)
    assert np.all(np.abs(y) <= 1.0)
    assert m(x[:1]).shape == (1, 10)


def _rff_phase(m, x):
    """z = x P' / bandwidth + phase in float64, the argument of the sinusoid."""
    return x @ m.projection.T / m.bandwidth + m.phase


@pytest.mark.parametrize("rows", [1001, 1])
def test_rff_map_equals_the_float32_sinusoid_bit_for_bit(rows):
    # 1001: an odd, many-row block (a point_mass batch has 1000 rows); 1: one row
    m = RffMap(6, 100, 0.7, np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((rows, 6))
    expected = np.sin(_rff_phase(m, x).astype(np.float32)).astype(float)
    y = m(x)
    assert y.dtype == np.float64
    assert y.tobytes() == expected.tobytes()


def test_rff_map_maps_each_row_as_it_maps_it_inside_a_block():
    # the batch's one mapped block relies on a row's features not depending
    # on the rows mapped with it
    m = RffMap(6, 100, 0.7, np.random.default_rng(4))
    x = np.random.default_rng(6).standard_normal((37, 6))
    block = m(x)
    for i in range(len(x)):
        assert m(x[i : i + 1]).tobytes() == block[i : i + 1].tobytes()


def test_rff_map_is_within_float32_rounding_of_the_float64_sinusoid():
    # rounding z to float32 moves sin(z) by at most 2^-24 |z| (sin is
    # 1-Lipschitz), and the float32 sin itself adds a few units in the last
    # place of a value in [-1, 1]; the bound was fixed before the first run
    m = RffMap(6, 100, 0.7, np.random.default_rng(4))
    x = np.random.default_rng(7).standard_normal((1000, 6))
    z = _rff_phase(m, x)
    assert np.abs(z).max() > 20  # 25.2 here
    err = np.abs(m(x) - np.sin(z))
    assert np.all(err <= 2.0**-24 * np.abs(z) + 2.0**-22)


def test_rff_map_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        RffMap(0, 4, 1.0, rng)
    with pytest.raises(ValueError):
        RffMap(2, 4, 0.0, rng)


MAPS = {
    "raw": lambda: RawFeatures(2),
    "indicator": lambda: IndicatorFeatures(3),
    "quadratic": lambda: QuadraticMap(2),
    "rff": lambda: RffMap(2, 5, 1.0, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", MAPS)
def test_feature_maps_take_rows_and_return_n_features(name):
    fmap = MAPS[name]()
    d = fmap.input_dim
    x = np.random.default_rng(1).integers(3, size=(4, d)).astype(float)
    assert fmap(x).shape == (4, fmap.n_features)
    for rows in (np.zeros(d), np.zeros((4, d + 1))):
        with pytest.raises(ValueError, match=rf"\(n, {d}\) rows"):
            fmap(rows)
    if name == "indicator":
        assert_allclose(fmap([[2.0], [0.0]]), [[0, 0, 1], [1, 0, 0]])
        for states in ([[-1.0]], [[1.0], [3.0]]):
            with pytest.raises(ValueError, match=r"state index (-1|3) outside \[0, 3\)"):
                fmap(states)


def test_quadratic_map_appends_elementwise_squares():
    m = QuadraticMap(2)
    assert_allclose(m(np.array([[2.0, -1.0]])), [[2.0, -1.0, 4.0, 1.0]])
    batch = m(np.array([[1.0, 3.0], [0.0, -2.0]]))
    assert_allclose(batch, [[1.0, 3.0, 1.0, 9.0], [0.0, -2.0, 0.0, 4.0]])


def test_linear_model_predict_takes_rows_only():
    for rows in (np.zeros(2), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            LinearModel(np.zeros(3)).predict(rows)


def test_quadratic_map_validates_dimension():
    with pytest.raises(ValueError):
        QuadraticMap(0)


def test_quadratic_features_fit_separable_quadratic_exactly():
    # Reward-model shape used by the matching task: noiseless quadratic targets
    # are exactly linear in [x, x^2], so the ridge fit recovers them.
    rng = np.random.default_rng(9)
    c = rng.standard_normal(6)
    X = rng.standard_normal((40, 6))
    t = -np.sum((X - c) ** 2, axis=1)
    model = fit_linear(QuadraticMap(6)(X), t, ridge=1e-10)
    Xh = rng.standard_normal((15, 6))
    assert_allclose(model.predict(QuadraticMap(6)(Xh)), -np.sum((Xh - c) ** 2, axis=1), atol=1e-6)


def test_median_bandwidth_hand_value():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert_allclose(median_bandwidth(pts), 5.0)


def test_median_bandwidth_degenerate_falls_back_to_one():
    assert median_bandwidth(np.zeros((4, 2))) == 1.0
    assert median_bandwidth(np.zeros((1, 2))) == 1.0
