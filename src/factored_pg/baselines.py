"""Per-factor baselines: one regression shape plus a marginalization rule.

A baseline for factor i may depend on the state and every *other* factor's
value but never on a^i itself; that restriction alone makes the score-weighted
correction exactly mean-zero, so all variants below leave the gradient
estimator unbiased and differ only in variance.

Every kind is the same thing: a regression of the return-to-go qhat on
(s, a[keep_i]). When keep_i contains factor i, a^i is marginalized out of the
fitted model by the kind's rule:

    kind                        keep_i                  rule when i in keep_i
    state_value, optimal_state  {} (the state alone)    none needed
    dag                         non-descendants of i    none needed
    mean_q                      every factor            mean substitution
    mc_q                        every factor            exact support sum
                                                        (``exact``) or a
                                                        Monte-Carlo mean
    optimal_action              every factor            score-norm-weighted ratio

``optimal_state`` weights its regression by the squared joint score norm. One
model is fitted per distinct keep set. With ``tabular`` the regression is a
table of exact group means keyed on the whole rounded input row, and rows the
table has not seen predict 0.

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
    RffMap,
    fit_linear,
    median_bandwidth,
)
from .policies import DagPolicy

BASELINE_KINDS = (
    "none",
    "state_value",
    "optimal_state",
    "mc_q",
    "mean_q",
    "optimal_action",
    "dag",
)


@dataclass(frozen=True)
class BaselineSpec:
    """Which baseline to run and how to approximate the functions it needs.

    ``exact`` switches Monte-Carlo marginalization to an exact sum over a
    categorical factor's support. ``tabular`` replaces regressions with exact
    group-mean tables for discrete problems.
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
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if self.ridge is not None and not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be None or a finite value >= 0, got {self.ridge}")


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

    def descriptor(self) -> dict:
        return {"kind": "table", "keys": self.keys.tolist(), "values": self.values.tolist()}


@dataclass
class QModel:
    """Return-to-go regression on concatenated (state, action) inputs.

    ``model`` is a ridge fit on (optionally mapped) inputs or a ``TableModel``.
    """

    model: LinearModel | TableModel
    feature_map: FeatureMap | None = None

    def predict(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        x = np.hstack([np.atleast_2d(states), np.atleast_2d(actions)])
        phi = self.feature_map(x) if self.feature_map is not None else x
        return self.model.predict(phi)

    def descriptor(self) -> dict:
        fmap = self.feature_map
        return {"model": self.model.descriptor(),
                "map": fmap.descriptor() if fmap is not None else None}


def _make_map(inputs: np.ndarray, spec: BaselineSpec, rng: np.random.Generator) -> FeatureMap | None:
    if spec.features == "quadratic":
        return QuadraticMap(inputs.shape[1])
    if spec.features != "rff":
        return None
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
    inputs (``rng`` is needed for random features).
    """
    x = np.hstack([np.atleast_2d(states), np.atleast_2d(actions)])
    if spec.tabular:
        return QModel(TableModel.fit(x, targets, sample_weights))
    rmap = frozen_map if frozen_map is not None else _make_map(x, spec, rng)
    phi = rmap(x) if rmap is not None else x
    return QModel(fit_linear(phi, targets, ridge=spec.ridge, sample_weights=sample_weights), rmap)


def keep_sets(kind: str, policy) -> list:
    """keep_i for every factor: the action columns b_i's regression reads."""
    m = policy.m
    if kind in ("state_value", "optimal_state"):
        return [()] * m
    if kind == "dag":
        return [tuple(j for j in range(m) if j not in policy.descendants(i)) for i in range(m)]
    return [tuple(range(m))] * m


def _kept(actions: np.ndarray, keep: tuple) -> np.ndarray:
    # a fancy-indexed copy of every column is Fortran-ordered, which changes
    # the rounding of the ridge solve; pass the batch's own array instead
    return actions if len(keep) == actions.shape[1] else actions[:, list(keep)]


# ---------------------------------------------------------------------------
# marginalization rules: built once per batch, then applied per factor as
# rule(q, actions, i) with q(actions) -> predictions for the batch's states


def _swap(actions: np.ndarray, i: int, value) -> np.ndarray:
    """A copy with factor i set to ``value``; one action or a batch of them."""
    out = actions.copy()
    out[..., i] = value
    return out


def _mean_substitution(states, policy, spec, rng):
    """Q with a^i replaced by its policy mean; continuous factors only."""
    _require_independent(policy, "marginalized baselines")
    if any(kind != "gaussian" for kind in policy.factor_kinds):
        raise ValueError("mean substitution requires continuous factors")
    means = policy.mean_actions(states)
    return lambda q, actions, i: q(_swap(actions, i, means[:, i]))


def _marginal_mean(states, policy, spec, rng):
    """E_{a^i}[Q]: exact sum over a categorical support, else a sample mean."""
    _require_independent(policy, "marginalized baselines")
    if not spec.exact and rng is None:
        raise ValueError("rng required for sampled marginalization")

    def rule(q, actions, i):
        if spec.exact:
            support = policy.factor_support(i)
            if support is None:
                raise ValueError("exact marginalization requires categorical factors")
            vals = np.stack([q(_swap(actions, i, v)) for v in support], axis=1)
            return np.sum(policy.factor_probs(states, i) * vals, axis=1)
        draws = policy.sample_factor(states, i, spec.mc_samples, rng)
        return np.mean(np.stack([q(_swap(actions, i, v)) for v in draws.T], axis=1), axis=1)

    return rule


def _score_weighted(states, policy, spec, rng):
    """E[z_i'z_i Q] / E[z_i'z_i] over a^i, with ||z_i||^2 in closed form.

    Categorical factors sum over their support; continuous ones take a
    shared-draw Monte Carlo ratio (same draws in numerator and denominator).
    """
    _require_independent(policy, "the optimal action baseline")
    continuous = "gaussian" in policy.factor_kinds
    if continuous and rng is None:
        raise ValueError("rng required for the continuous-factor ratio estimator")
    phi_sq = np.sum(policy.features.batch(states) ** 2, axis=1)
    mus = policy.mean_actions(states) if continuous else None

    def rule(q, actions, i):
        support = policy.factor_support(i)
        if support is not None:
            # ||z_i(v)||^2 = (1 - 2 p_v + sum_u p_u^2) ||phi||^2 for softmax heads
            probs = policy.factor_probs(states, i)
            psum = np.sum(probs**2, axis=1)
            values, weights = support, probs.T
            zsqs = [(1.0 - 2.0 * p + psum) * phi_sq for p in weights]
        else:
            values = policy.sample_factor(states, i, spec.mc_samples, rng).T
            weights = np.ones(len(values))
            resid = values - mus[:, i]
            d = resid / float(np.exp(2.0 * policy.log_std[i]))
            zsqs = d * d * (phi_sq + 1.0) + (d * resid - 1.0) ** 2
        num, den = np.zeros(len(states)), np.zeros(len(states))
        for v, w, zsq in zip(values, weights, zsqs):
            num += w * zsq * q(_swap(actions, i, v))
            den += w * zsq
        if np.any(den <= 0.0):
            raise ZeroScoreNormError(f"factor {i} has vanishing score norm in batch")
        return num / den

    return rule


_RULES = {"mean_q": _mean_substitution, "mc_q": _marginal_mean, "optimal_action": _score_weighted}


def _require_independent(policy, what: str) -> None:
    # a^i's descendants carry information about a^i, so marginalizing a^i
    # while holding them fixed would leave a^i inside the baseline; a DAG
    # policy offers no per-factor marginals even with an empty parent map
    if isinstance(policy, DagPolicy) or any(policy.parents(i) for i in range(policy.m)):
        raise ValueError(f"{what} assume independent factors; fit per-factor regressions instead")


# ---------------------------------------------------------------------------
# iteration-level baseline state


class BaselineState:
    """Fitted models for one baseline arm, refit once per training iteration.

    ``fitted`` maps each distinct keep set (a tuple of action columns, see
    ``keep_sets``) to its ``QModel``; it is None before the first refit and
    for kind ``none``. ``evaluate`` produces the (n_steps, n_factors) matrix
    b_i(s_t, a_t^{-i}) from the previous refit's models: it predicts b_i
    directly when i is not in keep_i and applies the kind's marginalization
    rule otherwise. A fresh state evaluates to zero everywhere.
    """

    def __init__(self, spec: BaselineSpec, fitted: dict | None = None):
        self.spec = spec
        self.fitted = fitted

    @classmethod
    def initial(cls, spec: BaselineSpec) -> "BaselineState":
        return cls(spec, fitted=None)

    def evaluate(self, batch, policy, rng: np.random.Generator | None = None) -> np.ndarray:
        n, m = batch.n_steps, policy.m
        if self.fitted is None:
            return np.zeros((n, m))
        states, actions = batch.states, batch.actions
        out = np.empty((n, m))
        direct = {}
        rule = None
        for i, keep in enumerate(keep_sets(self.spec.kind, policy)):
            model = self.fitted[keep]
            if i not in keep:
                if keep not in direct:
                    direct[keep] = model.predict(states, _kept(actions, keep))
                out[:, i] = direct[keep]
                continue
            if rule is None:
                rule = _RULES[self.spec.kind](states, policy, self.spec, rng)
            out[:, i] = rule(lambda a: model.predict(states, _kept(a, keep)), actions, i)
        return out

    def refit(self, batch, policy, rng: np.random.Generator | None = None) -> "BaselineState":
        if self.spec.kind == "none":
            return self
        weights = None
        if self.spec.kind == "optimal_state":
            weights = policy.joint_score_sq_norms(batch.states, batch.actions)
        fitted = {}
        for keep in dict.fromkeys(keep_sets(self.spec.kind, policy)):
            frozen = self.fitted[keep].feature_map if self.fitted else None
            fitted[keep] = fit_q(batch.states, _kept(batch.actions, keep), batch.qhat,
                                 self.spec, rng, frozen, weights)
        return BaselineState(self.spec, fitted)

    def descriptor(self) -> dict:
        """JSON-serializable snapshot (checkpointing): the spec and one entry
        per keep set with its action columns, model and feature map."""
        fitted = None if self.fitted is None else [
            {"columns": list(keep), **q.descriptor()} for keep, q in self.fitted.items()
        ]
        return {"spec": self.spec.__dict__.copy(), "fitted": fitted}
