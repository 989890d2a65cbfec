"""Factorized stochastic policies with per-factor scores.

A policy over an m-factor action decomposes into independent factors,
pi(a | s) = prod_i pi(a^i | s), with every factor owning a contiguous,
disjoint block of the flat parameter vector. Disjoint blocks make score
vectors of different factors exactly orthogonal, z_i' z_j = 0 for i != j,
which the per-factor baseline variance analysis relies on; tests assert the
property at machine zero.

Action vectors hold one slot per factor: continuous factors store the sampled
real value, categorical factors store the integer category as a float.

Every method takes (n, .) arrays of states and actions. ``sample(states,
rngs)`` draws row k from its own generator ``rngs[k]``, in the order a
one-row call would, so a trajectory's actions do not depend on which other
trajectories are sampled with it.
"""

from __future__ import annotations

import numpy as np

from .features import RawFeatures, _rows

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# base class


class FactoredPolicy:
    """Shared plumbing; concrete classes fill in per-factor math.

    Parameter updates never mutate a policy: ``with_theta`` returns a fresh
    instance, so policies are safe to share read-only across workers. The
    concrete classes also expose the per-factor marginals that baselines
    integrate over: ``factor_probs`` (categorical), ``mean_actions``
    (Gaussian) and ``sample_factor`` (both).
    """

    m: int
    n_params: int
    block_slices: tuple
    kind: str  # every factor's family: "gaussian" or "categorical"

    # -- parameters

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    def with_theta(self, theta: np.ndarray) -> "FactoredPolicy":
        raise NotImplementedError

    # -- sampling, densities and scores

    def sample(self, states, rngs) -> np.ndarray:
        """One action per state, (n, m); row k draws only from ``rngs[k]``."""
        raise NotImplementedError

    def log_prob(self, states, actions) -> np.ndarray:
        """log pi(a_n | s_n) per row, (n,)."""
        raise NotImplementedError

    def score_matrix(self, states, actions) -> np.ndarray:
        """Joint score rows grad log pi(a_n | s_n), (n, n_params); factor i
        fills only the columns of its block."""
        raise NotImplementedError

    # -- divergences

    def kl(self, other: "FactoredPolicy", states: np.ndarray) -> float:
        """Mean over states of KL(self(.|s) || other(.|s))."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# independent Gaussian factors


class IndependentGaussianPolicy(FactoredPolicy):
    """m independent scalar Gaussian factors with linear means on state features.

    Factor i has mean W[i] . phi(s) + b[i] and a free state-independent log
    standard deviation. Parameter block i is [W[i], b[i], log_std[i]], so the
    block size is feature_dim + 2 for every factor.
    """

    kind = "gaussian"

    def __init__(self, weights: np.ndarray, biases: np.ndarray, log_std: np.ndarray, features):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float))
        self.biases = np.asarray(biases, dtype=float).ravel()
        self.log_std = np.asarray(log_std, dtype=float).ravel()
        self.features = features
        self.m = len(self.biases)
        if self.weights.shape != (self.m, features.n_features) or len(self.log_std) != self.m:
            raise ValueError("parameter shapes disagree with factor count / feature dim")
        self.block_size = features.n_features + 2
        self.n_params = self.m * self.block_size
        self.block_slices = tuple(
            slice(i * self.block_size, (i + 1) * self.block_size) for i in range(self.m)
        )

    @classmethod
    def zeros(cls, m: int, state_dim: int, log_std: float = 0.0) -> "IndependentGaussianPolicy":
        """Zero means on raw state features, every factor at ``log_std``."""
        feats = RawFeatures(state_dim)
        return cls(np.zeros((m, feats.n_features)), np.zeros(m), np.full(m, log_std), feats)

    @property
    def theta(self) -> np.ndarray:
        stacked = np.concatenate(
            [self.weights, self.biases[:, None], self.log_std[:, None]], axis=1
        )
        return stacked.ravel()

    def with_theta(self, theta: np.ndarray) -> "IndependentGaussianPolicy":
        theta = np.asarray(theta, dtype=float).ravel()
        if len(theta) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(theta)}")
        stacked = theta.reshape(self.m, self.block_size)
        f = self.features.n_features
        return IndependentGaussianPolicy(
            stacked[:, :f].copy(), stacked[:, f].copy(), stacked[:, f + 1].copy(), self.features
        )

    def _phi_mu(self, states):
        phis = self.features(states)
        return phis, phis @ self.weights.T + self.biases

    def sample(self, states, rngs) -> np.ndarray:
        # one matrix-vector product per row: phis @ W.T rounds differently
        phis = self.features(states)
        mus = (self.weights @ phis[:, :, None])[..., 0] + self.biases
        noise = np.array([rng.standard_normal(self.m) for rng in rngs])
        return mus + np.exp(self.log_std) * noise

    def log_prob(self, states, actions) -> np.ndarray:
        actions = _rows(actions, self.m)
        z = (actions - self.mean_actions(states)) / np.exp(self.log_std)
        return np.sum(-0.5 * z * z - self.log_std - 0.5 * LOG_2PI, axis=1)

    def score_matrix(self, states, actions) -> np.ndarray:
        phis, mus = self._phi_mu(states)
        actions = _rows(actions, self.m)
        resid = actions - mus
        d = resid / np.exp(2.0 * self.log_std)
        n = len(phis)
        out = np.empty((n, self.m, self.block_size))
        out[:, :, : self.features.n_features] = d[:, :, None] * phis[:, None, :]
        out[:, :, self.features.n_features] = d
        out[:, :, self.features.n_features + 1] = d * resid - 1.0
        return out.reshape(n, -1)

    def mean_actions(self, states) -> np.ndarray:
        return self._phi_mu(states)[1]

    def sample_factor(self, states, i: int, size: int, rng) -> np.ndarray:
        """``size`` draws of factor i per state, (n, size)."""
        _, mus = self._phi_mu(states)
        sigma_i = float(np.exp(self.log_std[i]))
        return mus[:, i][:, None] + sigma_i * rng.standard_normal((len(mus), size))

    def kl(self, other: "IndependentGaussianPolicy", states) -> float:
        _, mu1 = self._phi_mu(states)
        _, mu2 = other._phi_mu(states)
        v1 = np.exp(2.0 * self.log_std)
        v2 = np.exp(2.0 * other.log_std)
        per_factor = (
            other.log_std - self.log_std + (v1 + (mu1 - mu2) ** 2) / (2.0 * v2) - 0.5
        )
        return float(np.mean(np.sum(per_factor, axis=1)))


# ---------------------------------------------------------------------------
# independent categorical factors


class CategoricalPolicy(FactoredPolicy):
    """m independent categorical factors with linear logits on state features.

    Factor i with cardinality k_i owns logits l = W_i phi(s); its parameter
    block is W_i flattened row-major, size k_i * feature_dim. With indicator
    state features this is an exact tabular policy.
    """

    kind = "categorical"

    def __init__(self, logit_weights: list, features):
        self.logit_weights = [np.atleast_2d(np.asarray(w, dtype=float)) for w in logit_weights]
        self.features = features
        self.m = len(self.logit_weights)
        self.cardinalities = tuple(w.shape[0] for w in self.logit_weights)
        for w in self.logit_weights:
            if w.shape[1] != features.n_features:
                raise ValueError("logit weight columns must match feature dim")
        sizes = [w.size for w in self.logit_weights]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.block_slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        self.n_params = int(bounds[-1])

    @classmethod
    def zeros(cls, cardinalities, features) -> "CategoricalPolicy":
        return cls([np.zeros((k, features.n_features)) for k in cardinalities], features)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.logit_weights])

    def with_theta(self, theta: np.ndarray) -> "CategoricalPolicy":
        theta = np.asarray(theta, dtype=float).ravel()
        if len(theta) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(theta)}")
        ws = [
            theta[sl].reshape(w.shape).copy()
            for sl, w in zip(self.block_slices, self.logit_weights)
        ]
        return CategoricalPolicy(ws, self.features)

    def _logits(self, states, i: int) -> np.ndarray:
        logits = self.features(states) @ self.logit_weights[i].T
        return logits - np.max(logits, axis=1, keepdims=True)

    def factor_probs(self, states, i: int) -> np.ndarray:
        """Factor i's category probabilities per state, (n, k_i)."""
        e = np.exp(self._logits(states, i))
        return e / np.sum(e, axis=1, keepdims=True)

    def sample(self, states, rngs) -> np.ndarray:
        phis = self.features(states)
        u = np.array([rng.random(self.m) for rng in rngs])  # factor i reads u[:, i]
        actions = np.empty((len(phis), self.m))
        for i, w in enumerate(self.logit_weights):
            # one matrix-vector product per row, as in the Gaussian sample
            logits = (w @ phis[:, :, None])[..., 0]
            e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
            cdf = np.cumsum(e / np.sum(e, axis=1, keepdims=True), axis=1)
            # count of cdf entries <= u, as searchsorted with side="right"
            actions[:, i] = np.minimum(np.sum(cdf <= u[:, i : i + 1], axis=1), len(w) - 1)
        return actions

    def log_prob(self, states, actions) -> np.ndarray:
        actions = _rows(actions, self.m)
        rows = np.arange(len(actions))
        out = np.zeros(len(actions))
        for i in range(self.m):
            logits = self._logits(states, i)
            chosen = logits[rows, np.rint(actions[:, i]).astype(int)]
            out += chosen - np.log(np.sum(np.exp(logits), axis=1))
        return out

    def score_matrix(self, states, actions) -> np.ndarray:
        phis = self.features(states)
        actions = _rows(actions, self.m)
        rows = np.arange(len(phis))
        blocks = []
        for i in range(self.m):
            coeff = -self.factor_probs(states, i)
            coeff[rows, np.rint(actions[:, i]).astype(int)] += 1.0
            blocks.append((coeff[:, :, None] * phis[:, None, :]).reshape(len(phis), -1))
        return np.hstack(blocks)

    def sample_factor(self, states, i: int, size: int, rng) -> np.ndarray:
        """``size`` draws of factor i per state, (n, size)."""
        p = self.factor_probs(states, i)
        cdf = np.cumsum(p, axis=1)
        u = rng.random((len(p), size))
        # count of cdf entries <= u, matching searchsorted side="right" in sample
        idx = np.minimum(np.sum(cdf[:, None, :] <= u[:, :, None], axis=2), p.shape[1] - 1)
        return idx.astype(float)

    def kl(self, other: "CategoricalPolicy", states) -> float:
        per_step = np.empty((len(states), self.m))
        for i in range(self.m):
            p = self.factor_probs(states, i)
            q = other.factor_probs(states, i)
            per_step[:, i] = np.sum(p * (np.log(p) - np.log(q)), axis=1)
        # a sequential sum in (state, factor) order; np.sum would pair terms
        # differently and move the last bits of the logged KL
        return float(np.cumsum(per_step.ravel())[-1]) / len(states)
