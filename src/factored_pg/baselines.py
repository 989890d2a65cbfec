"""Per-factor baselines: one regression shape plus a marginalization rule.

A baseline for factor i may depend on the state and every *other* factor's
value but never on a^i itself; that restriction alone makes the score-weighted
correction exactly mean-zero, so all variants below leave the gradient
estimator unbiased and differ only in variance.

Every arm fits one model: a regression of the return-to-go qhat on the
state and some action columns. The state kinds read one b off it and give it
to every factor; the marginal kinds fit Q on every factor and integrate a^i
out of it by one rule (``marginal``), a weighted mean of Q over candidate
values of a^i:

    kind                          action columns read
    state_value, optimal_state    none; b_i = b(s) for every i
    mean_q, mc_q, optimal_action  every factor; b_i = sum_k w_ik Q(a^i = v_ik) / den_i

``optimal_state`` weights its regression by the squared joint score norm.
With ``tabular`` the regression is a table of exact group means keyed on the
whole rounded input row, and rows the table has not seen predict 0.

Fitting follows the training-loop convention: baselines are evaluated with
models fitted on the previous iteration's batch; the first iteration uses an
all-zero model, so early advantages are raw returns-to-go.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroScoreNormError
from .features import (
    FeatureMap,
    LinearModel,
    QuadraticMap,
    RawFeatures,
    RffMap,
    fit_linear,
    median_bandwidth,
)

BASELINE_KINDS = (
    "none",
    "state_value",
    "optimal_state",
    "mc_q",
    "mean_q",
    "optimal_action",
)
# the kinds whose b_i integrates a^i out of a Q fitted on every factor
MARGINAL_KINDS = ("mean_q", "mc_q", "optimal_action")


@dataclass(frozen=True)
class BaselineSpec:
    """Which baseline to run and how to approximate the functions it needs.

    ``exact`` switches ``mc_q``'s Monte-Carlo marginalization to an exact sum
    over a categorical factor's support; no other kind takes it. ``tabular``
    replaces regressions with exact group-mean tables for discrete problems
    and takes no regression settings.
    """

    kind: str
    mc_samples: int = 10
    exact: bool = False
    features: str = "linear"  # linear | quadratic | rff
    n_features: int = 100
    ridge: float | None = None
    tabular: bool = False

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}; choose from {BASELINE_KINDS}")
        if self.features not in ("linear", "quadratic", "rff"):
            raise ValueError(f"features must be 'linear', 'quadratic', or 'rff', got {self.features!r}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.exact and self.kind != "mc_q":
            raise ValueError(f"exact applies to kind 'mc_q' only, got {self.kind!r}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if self.ridge is not None and not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be None or a finite value >= 0, got {self.ridge}")
        if self.tabular and (self.features, self.n_features, self.ridge) != ("linear", 100, None):
            raise ValueError("a tabular baseline keys on raw rows; it takes no features, "
                             "n_features or ridge")


# ---------------------------------------------------------------------------
# the regression on (state, kept action columns)


def _rounded(inputs: np.ndarray) -> np.ndarray:
    return np.rint(np.atleast_2d(inputs)).astype(np.int64)


@dataclass
class TableModel:
    """Exact group means of the targets, keyed on the whole rounded input row.

    The ridge-free regression on one-hot row indicators. Rows never seen in
    the fit, or seen only with zero total weight, predict 0.
    """

    keys: np.ndarray  # (n_rows, input_dim) integers
    values: np.ndarray  # (n_rows,)

    @classmethod
    def fit(cls, inputs, targets, sample_weights=None) -> "TableModel":
        keys, rows = np.unique(_rounded(inputs), axis=0, return_inverse=True)
        rows = rows.ravel()
        w = np.ones(len(rows)) if sample_weights is None else np.asarray(sample_weights, float)
        num = np.bincount(rows, weights=w * targets, minlength=len(keys))
        den = np.bincount(rows, weights=w, minlength=len(keys))
        seen = den > 0
        return cls(keys[seen], num[seen] / den[seen])

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        both = np.vstack([self.keys, _rounded(inputs)])
        _, rows = np.unique(both, axis=0, return_inverse=True)
        rows = rows.ravel()
        lookup = np.zeros(len(both))
        lookup[rows[: len(self.keys)]] = self.values
        return lookup[rows[len(self.keys):]]


@dataclass
class QModel:
    """Return-to-go regression on concatenated (state, action) inputs.

    ``model`` is a ridge fit or a ``TableModel`` on the inputs mapped by
    ``feature_map``; a table reads them through ``RawFeatures``.
    """

    model: LinearModel | TableModel
    feature_map: FeatureMap

    def predict(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        x = np.hstack([np.atleast_2d(states), np.atleast_2d(actions)])
        return self.model.predict(self.feature_map(x))

    def at_candidates(self, states: np.ndarray, actions: np.ndarray,
                      cand: np.ndarray) -> np.ndarray:
        """Q(s, a with a^i = cand[:, i, k]) for every factor i and candidate k,
        an (n, m, K) array like ``cand``.

        A ridge fit on raw or ``QuadraticMap`` features is separable by input
        column, so moving a^i to v changes only a^i's own columns:
        Q(a^i = v) = Q(s, a) + w_i (v - a_i) + w_ii (v^2 - a_i^2). That is one
        prediction per batch; other models predict once per candidate.
        """
        fmap = self.feature_map
        if isinstance(self.model, LinearModel) and isinstance(fmap, (RawFeatures, QuadraticMap)):
            w = self.model.weights
            cols = np.arange(states.shape[1], states.shape[1] + actions.shape[1])  # a^i's column
            a = actions[:, :, None]
            q = self.predict(states, actions)[:, None, None] + w[cols, None] * (cand - a)
            if isinstance(fmap, QuadraticMap):  # the squares follow the inputs
                q += w[fmap.input_dim + cols, None] * (cand * cand - a * a)
            return q
        q = np.empty(cand.shape)
        for i, k in np.ndindex(cand.shape[1:]):
            q[:, i, k] = self.predict(states, _swap(actions, i, cand[:, i, k]))
        return q


def _make_map(inputs: np.ndarray, spec: BaselineSpec, rng: np.random.Generator) -> FeatureMap:
    if spec.features == "linear":
        return RawFeatures(inputs.shape[1])
    if spec.features == "quadratic":
        return QuadraticMap(inputs.shape[1])
    if rng is None:
        raise ValueError("rng required to construct a fresh feature map")
    bw = median_bandwidth(inputs)
    return RffMap(inputs.shape[1], spec.n_features, bw, rng)


def fit_q(
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    spec: BaselineSpec,
    rng: np.random.Generator | None = None,
    frozen_map: FeatureMap | None = None,
    sample_weights: np.ndarray | None = None,
) -> QModel:
    """One closed-form refit of the regression (an exact Newton step).

    ``actions`` holds only the action columns the model may read. A
    ``frozen_map`` is reused as is; otherwise a fresh map is built from these
    inputs (``rng`` is needed for random features), and a tabular fit reads
    them through ``RawFeatures``.
    """
    x = np.hstack([np.atleast_2d(states), np.atleast_2d(actions)])
    rmap = frozen_map if frozen_map is not None else _make_map(x, spec, rng)
    phi = rmap(x)
    if spec.tabular:
        return QModel(TableModel.fit(phi, targets, sample_weights), rmap)
    return QModel(fit_linear(phi, targets, ridge=spec.ridge, sample_weights=sample_weights), rmap)


# ---------------------------------------------------------------------------
# marginalization: b_i = sum_k w_ik Q(s, a with a^i = v_ik) / den_i


def _swap(actions: np.ndarray, i: int, value) -> np.ndarray:
    """A copy with factor i set to ``value``; one action or a batch of them."""
    out = actions.copy()
    out[..., i] = value
    return out


def check_marginal(spec: BaselineSpec, policy) -> None:
    """Raise ValueError when ``spec``'s kind cannot integrate a^i out of
    ``policy``'s factors; the state kinds need no marginal."""
    if spec.kind == "mean_q" and policy.kind != "gaussian":
        raise ValueError("mean_q substitutes the policy mean, so it requires continuous factors")
    if spec.exact and policy.kind != "categorical":
        raise ValueError("exact mc_q sums over a support, so it requires categorical factors")


def marginal(states: np.ndarray, policy, spec: BaselineSpec, rng):
    """Candidates v_ik of a^i, weights w_ik and denominators den_i:

        mean_q          the policy mean; w 1, den 1
        exact mc_q      the support; w the probabilities, den 1
        sampled mc_q    ``mc_samples`` = K draws; w 1, den K
        optimal_action  the support, w p ||z_i||^2, or draws, w ||z_i||^2; den sum_k w_ik

    ``cand`` and ``weights`` are (n, m, K) arrays; a support has the widest
    factor's K values, and weight zero past factor i's own k_i. ``den`` is a
    scalar or (n, m). Draws come from ``rng``, one (n, K) block per factor in
    factor order.
    """
    check_marginal(spec, policy)
    n, m = len(states), policy.m
    if spec.kind == "mean_q":
        return policy.mean_actions(states)[:, :, None], np.ones((n, m, 1)), 1.0
    optimal = spec.kind == "optimal_action"
    if optimal:
        phi_sq = np.sum(policy.features(states) ** 2, axis=1)[:, None]
    if policy.kind == "categorical" and (optimal or spec.exact):
        width = max(policy.cardinalities)
        cand = np.broadcast_to(np.arange(width, dtype=float), (n, m, width))
        weights = np.zeros((n, m, width))
        for i, k in enumerate(policy.cardinalities):
            p = policy.factor_probs(states, i)
            if optimal:  # ||z_i(v)||^2 = (1 - 2 p_v + sum_u p_u^2) ||phi||^2 for softmax heads
                p = p * ((1.0 - 2.0 * p + np.sum(p**2, axis=1)[:, None]) * phi_sq)
            weights[:, i, :k] = p
    else:
        if rng is None:
            raise ValueError(f"rng required to draw candidate values for {spec.kind}")
        cand = np.stack([policy.sample_factor(states, i, spec.mc_samples, rng)
                         for i in range(m)], axis=1)
        weights = np.ones(cand.shape)
        if optimal:  # ||z_i||^2 of the Gaussian block [d phi, d, d resid - 1]
            resid = cand - policy.mean_actions(states)[:, :, None]
            d = resid / np.exp(2.0 * policy.log_std)[:, None]
            weights = d * d * (phi_sq[:, :, None] + 1.0) + (d * resid - 1.0) ** 2
    if not optimal:
        return cand, weights, 1.0 if spec.exact else float(spec.mc_samples)
    den = np.sum(weights, axis=-1)
    vanishing = np.flatnonzero(np.any(den <= 0.0, axis=0))
    if len(vanishing):
        raise ZeroScoreNormError(f"factor {vanishing[0]} has vanishing score norm in batch")
    return cand, weights, den


# ---------------------------------------------------------------------------
# iteration-level baseline state


class BaselineState:
    """The fitted model of one baseline arm, refit once per training iteration.

    ``fitted`` is the arm's one ``QModel``; it is None before the first refit
    and for kind ``none``. ``evaluate`` produces the (n_steps, n_factors)
    matrix b_i(s_t, a_t^{-i}) from the previous refit's model: the state kinds
    predict one b per step and repeat it over the factors, the marginal kinds
    predict Q at every candidate of ``marginal`` and take one weighted mean. A
    fresh state evaluates to zero everywhere.
    """

    def __init__(self, spec: BaselineSpec, fitted: QModel | None = None):
        self.spec = spec
        self.fitted = fitted

    def evaluate(self, batch, policy, rng: np.random.Generator | None = None) -> np.ndarray:
        if self.fitted is None:
            return np.zeros((batch.n_steps, policy.m))
        states, actions = batch.states, batch.actions
        if self.spec.kind not in MARGINAL_KINDS:
            b = self.fitted.predict(states, self._action_inputs(actions))
            return np.repeat(b[:, None], policy.m, axis=1)
        cand, weights, den = marginal(states, policy, self.spec, rng)
        q = self.fitted.at_candidates(states, actions, cand)
        return np.sum(weights * q, axis=-1) / den

    def refit(self, batch, policy, rng: np.random.Generator | None = None) -> "BaselineState":
        if self.spec.kind == "none":
            return self
        weights = None
        if self.spec.kind == "optimal_state":
            scores = policy.score_matrix(batch.states, batch.actions)
            weights = np.einsum("np,np->n", scores, scores)  # ||grad log pi(a|s)||^2
        frozen = None if self.fitted is None else self.fitted.feature_map
        fitted = fit_q(batch.states, self._action_inputs(batch.actions), batch.qhat,
                       self.spec, rng, frozen, weights)
        return BaselineState(self.spec, fitted)

    def _action_inputs(self, actions: np.ndarray) -> np.ndarray:
        """The action columns the arm's model reads: none for the state kinds.
        The marginal kinds read the batch's own array, since a fancy-indexed
        copy is Fortran-ordered and changes the rounding of the ridge solve."""
        return actions if self.spec.kind in MARGINAL_KINDS else actions[:, :0]
