"""Feature maps and ridge-regularized least squares.

Policies and baselines are linear heads on feature maps, and every map has one
protocol: ``map(x)`` takes (n, input_dim) rows and returns (n, n_features).
The maps are the identity (``RawFeatures``), a one-hot state index
(``IndicatorFeatures``), appended squares (``QuadraticMap``) and frozen
sinusoidal random features (``RffMap``, whose sinusoid runs in single
precision). Refitting a linear model from scratch
each iteration is equivalent to one exact Newton step on the squared loss,
which is all the training loop needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError


def _rows(x: np.ndarray, d: int | None = None) -> np.ndarray:
    """``x`` as a float (n, d) array, any d if None; other shapes raise ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or d is not None and x.shape[1] != d:
        raise ValueError(f"expected (n, {'d' if d is None else d}) rows, got shape {x.shape}")
    return x


class RawFeatures:
    """Identity map y(x) = x; linear heads and ridge fits add their own bias."""

    def __init__(self, input_dim: int):
        self.input_dim = self.n_features = int(input_dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _rows(x, self.input_dim)


class IndicatorFeatures:
    """One-hot encoding of an integer index in [0, n_features), for tabular heads."""

    input_dim = 1

    def __init__(self, n_features: int):
        self.n_features = int(n_features)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        idx = np.rint(_rows(x, 1)[:, 0]).astype(int)
        bad = (idx < 0) | (idx >= self.n_features)
        if np.any(bad):
            raise ValueError(f"state index {idx[bad][0]} outside [0, {self.n_features})")
        out = np.zeros((len(idx), self.n_features))
        out[np.arange(len(idx)), idx] = 1.0
        return out


class RffMap:
    """Feature map y(x) = sin(P x / bandwidth + phase).

    P has i.i.d. standard normal entries and phase is uniform on [-pi, pi);
    both are drawn once at construction and never change, so two maps built
    from identically seeded generators are element-wise identical.

    The argument z (``argument``) is computed in float64 and the sine in
    float32, written back to float64: within 2^-24 |z| + 2^-22 of the float64
    sine, elementwise. A row maps to the same bytes alone or inside any block.
    Random features approximate their kernel only to O(1/sqrt(n_features)),
    about 0.1 at 100 features, far above that rounding, and numpy's vectorized
    float32 sine is an order of magnitude faster than its float64 one.
    """

    def __init__(self, input_dim: int, n_features: int, bandwidth: float, rng: np.random.Generator):
        if input_dim < 1 or n_features < 1:
            raise ValueError("input_dim and n_features must be positive")
        if not (bandwidth > 0 and np.isfinite(bandwidth)):
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
        self.input_dim = int(input_dim)
        self.n_features = int(n_features)
        self.bandwidth = float(bandwidth)
        self.projection = rng.standard_normal((self.n_features, self.input_dim))
        self.phase = rng.uniform(-np.pi, np.pi, size=self.n_features)

    def argument(self, x: np.ndarray) -> np.ndarray:
        """z = x P' / bandwidth + phase in one float64 (n, n_features) buffer.

        z is linear in each input column, so moving column j by d moves z by
        d * P[:, j] / bandwidth; ``QModel.at_candidates`` relies on it."""
        z = _rows(x, self.input_dim) @ self.projection.T
        z /= self.bandwidth
        z += self.phase
        return z

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # the sinusoid runs in float32, cast in numpy's buffers and written back
        z = self.argument(x)
        return np.sin(z, out=z, dtype=np.float32)


class QuadraticMap:
    """Feature map y(x) = [x, x * x] (elementwise squares appended).

    The classic hand-crafted feature set for linear return baselines: any
    additively separable quadratic of the inputs is exactly linear in these
    features, so a ridge fit recovers it from a modest noiseless batch.
    """

    def __init__(self, input_dim: int):
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        self.input_dim = int(input_dim)
        self.n_features = 2 * self.input_dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _rows(x, self.input_dim)
        return np.hstack([x, x * x])


# the maps a baseline's regression reads its (state, action) rows through
FeatureMap = RawFeatures | QuadraticMap | RffMap


def median_bandwidth(inputs: np.ndarray, max_probe: int = 256) -> float:
    """Median pairwise distance over a leading probe of the inputs.

    Falls back to 1.0 when the probe is degenerate (fewer than two points or
    all points coincident), so downstream maps stay well defined.
    """
    inputs = _rows(inputs)
    probe = inputs[: int(max_probe)]
    if len(probe) < 2:
        return 1.0
    diffs = probe[:, None, :] - probe[None, :, :]
    dists = np.sqrt(np.sum(diffs**2, axis=-1))
    upper = dists[np.triu_indices(len(probe), k=1)]
    med = float(np.median(upper))
    return med if med > 0 else 1.0


@dataclass
class LinearModel:
    """Linear predictor on explicit features; the bias weight is stored last."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float).ravel()

    def predict(self, features: np.ndarray) -> np.ndarray:
        w = self.weights
        return _rows(features, len(w) - 1) @ w[:-1] + w[-1]


def default_ridge(design: np.ndarray) -> float:
    """Relative regularizer 1e-5 * trace(F'F) / rows for design matrix F."""
    design = _rows(design)
    return 1e-5 * float(np.sum(design**2)) / max(len(design), 1)


def fit_linear(
    features: np.ndarray,
    targets: np.ndarray,
    ridge: float | None,
    sample_weights: np.ndarray | None = None,
) -> LinearModel:
    """Solve argmin_w ||F w - t||^2 + ridge * ||w||^2 in closed form.

    F is ``features`` with a ones column appended; ``ridge`` is finite and
    > 0, or None for ``default_ridge(F)``, taken before any sample weighting.
    A design with no rows or a bad ridge raises ValueError. Non-finite
    features, targets or sample weights, and a failed or non-finite solve
    raise SingularSystemError. ``sample_weights`` turns the objective into
    weighted least squares, used by the variance-optimal state baseline.
    """
    features = _rows(features)
    targets = np.asarray(targets, dtype=float).ravel()
    sw = None if sample_weights is None else np.asarray(sample_weights, dtype=float).ravel()
    if len(features) != len(targets):
        raise ValueError("features and targets disagree on sample count")
    if not len(features):
        raise ValueError("a least-squares fit needs at least one row")
    if ridge is not None and not 0 < ridge < np.inf:
        raise ValueError(f"ridge must be None or finite and > 0, got {ridge}")
    if not all(np.all(np.isfinite(x)) for x in (features, targets, sw) if x is not None):
        raise SingularSystemError("features, targets and sample weights must be finite")
    design = np.hstack([features, np.ones((len(features), 1))])
    if ridge is None:
        ridge = default_ridge(design)
    t = targets
    if sw is not None:
        if len(sw) != len(design):
            raise ValueError("one sample weight per row required")
        if np.any(sw < 0):
            raise ValueError("sample weights must be nonnegative")
        root = np.sqrt(sw)
        design = design * root[:, None]
        t = t * root

    n, p = design.shape
    try:
        if p <= n:
            w = np.linalg.solve(design.T @ design + ridge * np.eye(p), design.T @ t)
        else:
            # Dual form for wide designs: w = F'(FF' + ridge I)^{-1} t, identical
            # to the primal ridge solution but an n x n solve instead of p x p.
            w = design.T @ np.linalg.solve(design @ design.T + ridge * np.eye(n), t)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"least-squares solve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise SingularSystemError("non-finite solution; the solve overflowed or is ill-conditioned")
    return LinearModel(w)
