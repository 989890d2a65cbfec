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
whole rounded input row, stored as one int64 code per row, and rows the table
has not seen predict 0.

A batch reaches the critic one way, ``BaselineState.evaluate_and_refit``: it
maps the batch's (state, action columns) rows through the arm's feature map
once, evaluates the model fitted on the previous iteration's batch on that
block, then refits on it. The first call builds the map from its batch and
evaluates to zero, so early advantages are raw returns-to-go.
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
    _rows,
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
    over a categorical factor's support; no other kind takes it. Only ``rff``
    features take ``n_features``. ``tabular`` replaces regressions with exact
    group-mean tables for discrete problems and takes no regression settings.
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
        if self.ridge is not None and not 0 < self.ridge < np.inf:
            raise ValueError(f"ridge must be None or finite and > 0, got {self.ridge}")
        if self.tabular and (self.features, self.n_features, self.ridge) != ("linear", 100, None):
            raise ValueError("a tabular baseline keys on raw rows; it takes no features, "
                             "n_features or ridge")
        if self.features != "rff" and self.n_features != 100:
            raise ValueError(f"n_features applies to rff features only, got "
                             f"{self.n_features} with {self.features!r}")


# ---------------------------------------------------------------------------
# the regression on (state, kept action columns)


def _rounded(inputs: np.ndarray) -> np.ndarray:
    return np.rint(_rows(inputs)).astype(np.int64)


@dataclass
class TableModel:
    """Exact group means of the targets, keyed on the whole rounded input row.

    The ridge-free regression on one-hot row indicators. A rounded row x
    inside the fitted rows' per-column range [low, high] has the int64 code
    (x - low) . strides, its mixed-radix number over the range: the last
    column has stride 1, so sorted codes list the rows in lexicographic
    order. ``codes`` holds the sorted codes of the rows seen with positive
    total weight and ``values`` their means. Rows outside the range, rows
    never seen in the fit, and rows seen only with zero total weight
    predict 0. A fit whose range product does not fit in int64 raises
    ValueError.
    """

    low: np.ndarray  # (input_dim,) per-column minimum of the fitted rows
    high: np.ndarray  # (input_dim,) per-column maximum
    strides: np.ndarray  # (input_dim,) mixed-radix strides, the last 1
    codes: np.ndarray  # (n_keys,) sorted int64 codes
    values: np.ndarray  # (n_keys,)

    @classmethod
    def fit(cls, inputs, targets, sample_weights=None) -> "TableModel":
        x = _rounded(inputs)
        low, high = x.min(axis=0), x.max(axis=0)
        strides, size = [], 1
        for lo, hi in zip(low[::-1].tolist(), high[::-1].tolist()):  # exact Python ints
            strides.append(size)
            size *= hi - lo + 1
        if size > np.iinfo(np.int64).max:
            raise ValueError(f"a table over these rows' ranges needs {size} codes, "
                             "more than int64 holds")
        strides = np.array(strides[::-1], dtype=np.int64)
        keys, rows = np.unique((x - low) @ strides, return_inverse=True)
        w = np.ones(len(rows)) if sample_weights is None else np.asarray(sample_weights, float)
        num = np.bincount(rows, weights=w * targets, minlength=len(keys))
        den = np.bincount(rows, weights=w, minlength=len(keys))
        seen = den > 0
        return cls(low, high, strides, keys[seen], num[seen] / den[seen])

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = _rounded(inputs)
        return self.lookup(self.row_codes(x), np.all(self.inside(x), axis=1))

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Whether each entry of the integer array ``x``, whose last axis
        runs over the columns, lies in its column's fitted range."""
        return (x >= self.low) & (x <= self.high)

    def row_codes(self, x: np.ndarray) -> np.ndarray:
        """The codes of the rounded (n, input_dim) rows ``x``; only those of
        rows inside the range are meaningful."""
        return (x - self.low) @ self.strides

    def lookup(self, codes: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """The value stored at each code where ``hit`` holds (a boolean array
        of the same shape), else 0."""
        if not len(self.codes):  # nothing kept: every row had zero weight
            return np.zeros(codes.shape)
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(hit & (self.codes[at] == codes), self.values[at], 0.0)


@dataclass
class QModel:
    """Return-to-go regression on concatenated (state, action) inputs.

    ``model`` is a ridge fit or a ``TableModel`` on the inputs mapped by
    ``feature_map``; a table reads them through ``RawFeatures``.
    """

    model: LinearModel | TableModel
    feature_map: FeatureMap

    def predict(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        rows = np.hstack([_rows(states), _rows(actions)])
        return self.model.predict(self.feature_map(rows))

    def at_candidates(self, states: np.ndarray, actions: np.ndarray,
                      cand: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Q(s, a with a^i = cand[:, i, k]) for every factor i and candidate k,
        an (n, m, K) array like ``cand``; ``phi`` is the (s, a) rows mapped
        through ``feature_map``. A ragged support's padded slots are read like
        any other: their weight is 0.

        A ridge fit on raw or ``QuadraticMap`` features is separable by input
        column, so moving a^i to v changes only a^i's own columns:
        Q(a^i = v) = Q(s, a) + w_i (v - a_i) + w_ii (v^2 - a_i^2). That is one
        prediction per batch, read off ``phi``. On an ``RffMap`` it shifts
        the sinusoid's argument z of the (s, a) rows by (v - a_i) times a^i's
        column of the projection over the bandwidth: z is computed once, and
        each candidate takes one shifted float32 sine, elementwise within
        2^-24 (|z| + 3 |shift| + 2 |z'|) + 2^-21 of the map of the swapped row
        (whose argument is z'). A ``TableModel`` moves the code of the rounded
        row by (rint(v) - rint(a_i)) times a^i's stride and looks the whole
        block up at once; a slot hits when every column but a^i's is inside
        the fit's range and rint(v) is inside a^i's, since the batch row's own
        a_i never enters the key.
        """
        fmap, d = self.feature_map, states.shape[1]
        if isinstance(self.model, LinearModel) and isinstance(fmap, (RawFeatures, QuadraticMap)):
            w = self.model.weights
            cols = np.arange(d, d + actions.shape[1])  # a^i's column
            a = actions[:, :, None]
            q = self.model.predict(phi)[:, None, None] + w[cols, None] * (cand - a)
            if isinstance(fmap, QuadraticMap):  # the squares follow the inputs
                q += w[fmap.input_dim + cols, None] * (cand * cand - a * a)
            return q
        if isinstance(self.model, TableModel):
            table, x = self.model, _rounded(phi)
            out = ~table.inside(x)
            others_in = out.sum(axis=1)[:, None] - out[:, d:] == 0  # (n, m)
            v = np.rint(cand).astype(np.int64)
            hit = (others_in[:, :, None]
                   & (v >= table.low[d:, None]) & (v <= table.high[d:, None]))
            shift = (v - x[:, d:, None]) * table.strides[d:, None]
            return table.lookup(table.row_codes(x)[:, None, None] + shift, hit)
        # an RffMap
        w = self.model.weights
        z = fmap.argument(np.hstack([states, actions])).astype(np.float32)
        step = (fmap.projection[:, d:] / fmap.bandwidth).T.astype(
            np.float32, order="C")  # row i: a^i's column
        arg = np.empty_like(z)
        q = np.zeros(cand.shape)
        for i, k in np.ndindex(cand.shape[1:]):
            shift = (cand[:, i, k] - actions[:, i]).astype(np.float32)
            # the outer product shift step_i'; einsum's runs faster here
            # than a broadcast multiply, to the same bytes
            np.einsum("r,f->rf", shift, step[i], out=arg)
            arg += z
            q[:, i, k] = np.sin(arg, out=arg) @ w[:-1] + w[-1]
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


# ---------------------------------------------------------------------------
# marginalization: b_i = sum_k w_ik Q(s, a with a^i = v_ik) / den_i


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
    factor's K values, weighted from the policy's padded ``probs``, so 0 past
    factor i's own k_i. ``den`` is a scalar or (n, m). Draws come from
    ``rng``, one (n, K) block per factor in factor order.
    """
    check_marginal(spec, policy)
    n, m = len(states), policy.m
    if spec.kind == "mean_q":
        return policy.mean_actions(states)[:, :, None], np.ones((n, m, 1)), 1.0
    optimal = spec.kind == "optimal_action"
    if optimal:
        phi_sq = np.sum(policy.features(states) ** 2, axis=1)[:, None]
    if policy.kind == "categorical" and (optimal or spec.exact):
        weights = p = policy.probs(states)
        cand = np.broadcast_to(np.arange(p.shape[2], dtype=float), p.shape)
        if optimal:  # ||z_i(v)||^2 = (1 - 2 p_v + sum_u p_u^2) ||phi||^2 for softmax heads
            weights = p * ((1.0 - 2.0 * p + np.sum(p**2, axis=2, keepdims=True))
                           * phi_sq[:, :, None])
    else:
        if rng is None:
            raise ValueError(f"rng required to draw candidate values for {spec.kind}")
        cand = policy.sample_factors(states, spec.mc_samples, rng)
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
    and for kind ``none``. A training iteration calls ``evaluate_and_refit``,
    which maps its batch once and hands that block ``phi`` to ``evaluate`` and
    ``refit``. ``evaluate`` produces the (n_steps, n_factors) matrix
    b_i(s_t, a_t^{-i}) from the previous refit's model: the state kinds
    predict one b per step and repeat it over the factors, the marginal kinds
    predict Q at every candidate of ``marginal`` and take one weighted mean. A
    fresh state evaluates to zero everywhere.
    """

    def __init__(self, spec: BaselineSpec, fitted: QModel | None = None):
        self.spec = spec
        self.fitted = fitted

    def evaluate_and_refit(self, batch, policy, rng: np.random.Generator | None = None):
        """``(evaluate(batch, ...), refit(batch, ...))`` in that order, with
        the batch mapped once through the frozen feature map; the first call
        builds the map from this batch. Kind ``none`` maps nothing."""
        if self.spec.kind == "none":
            return np.zeros((batch.n_steps, policy.m)), self
        inputs = np.hstack([batch.states, self._action_inputs(batch.actions)])
        fmap = _make_map(inputs, self.spec, rng) if self.fitted is None else self.fitted.feature_map
        phi = fmap(inputs)
        del inputs  # only the mapped block stays alive through evaluate and refit
        return self.evaluate(batch, policy, rng, phi), self.refit(batch, policy, fmap, phi)

    def evaluate(self, batch, policy, rng: np.random.Generator | None,
                 phi: np.ndarray) -> np.ndarray:
        if self.fitted is None:
            return np.zeros((batch.n_steps, policy.m))
        if self.spec.kind not in MARGINAL_KINDS:
            return np.repeat(self.fitted.model.predict(phi)[:, None], policy.m, axis=1)
        cand, weights, den = marginal(batch.states, policy, self.spec, rng)
        q = self.fitted.at_candidates(batch.states, batch.actions, cand, phi)
        return np.sum(weights * q, axis=-1) / den

    def refit(self, batch, policy, feature_map: FeatureMap, phi: np.ndarray) -> "BaselineState":
        """One closed-form refit of the regression (an exact Newton step) on
        ``phi``, the batch mapped through ``feature_map``."""
        weights = None
        if self.spec.kind == "optimal_state":
            scores = policy.score_matrix(batch.states, batch.actions)
            weights = np.einsum("np,np->n", scores, scores)  # ||grad log pi(a|s)||^2
        if self.spec.tabular:
            model = TableModel.fit(phi, batch.qhat, weights)
        else:
            model = fit_linear(phi, batch.qhat, ridge=self.spec.ridge, sample_weights=weights)
        return BaselineState(self.spec, QModel(model, feature_map))

    def _action_inputs(self, actions: np.ndarray) -> np.ndarray:
        """The action columns the arm's model reads: none for the state kinds.
        The marginal kinds read the batch's own array, since a fancy-indexed
        copy is Fortran-ordered and changes the rounding of the ridge solve."""
        return actions if self.spec.kind in MARGINAL_KINDS else actions[:, :0]
