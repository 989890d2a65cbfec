"""Factorized stochastic policies with per-factor scores.

A policy over an m-factor action decomposes into independent factors,
pi(a | s) = prod_i pi(a^i | s), with every factor owning a contiguous,
disjoint block of the flat parameter vector. Disjoint blocks make score
vectors of different factors exactly orthogonal, z_i' z_j = 0 for i != j,
which the per-factor baseline variance analysis relies on; tests assert the
property at machine zero.

Action vectors hold one slot per factor: continuous factors store the sampled
real value, categorical factors store the integer category as a float.

Every method takes (n, .) arrays of states and actions. Sampling is split in
two: ``draw(rng, steps)`` reads a trajectory's noise from its own generator,
(steps, m) in draw order, and ``sample(states, noise)`` turns one (n, m) row
of noise per state into actions. A generator gives the same values drawn as
one (steps, m) block or m at a time, so a trajectory's actions do not depend
on which other trajectories are sampled with it, nor on when its noise is
drawn.
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
    integrate over: ``probs`` and ``factor_probs`` (categorical),
    ``mean_actions`` (Gaussian) and ``sample_factors`` (both).
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

    def draw(self, rng, steps: int) -> np.ndarray:
        """The variates ``steps`` calls of ``sample`` read, (steps, m), in
        draw order."""
        raise NotImplementedError

    def sample(self, states, noise) -> np.ndarray:
        """One action per state, (n, m); row k reads only ``noise[k]``, a row
        of ``draw``."""
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
        self.std = np.exp(self.log_std)
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

    def draw(self, rng, steps: int) -> np.ndarray:
        """Standard normals, one per factor and step."""
        return rng.standard_normal((steps, self.m))

    def sample(self, states, noise) -> np.ndarray:
        # one matrix-vector product per row: phis @ W.T rounds differently
        phis = self.features(states)
        mus = (self.weights @ phis[:, :, None])[..., 0] + self.biases
        return mus + self.std * noise

    def log_prob(self, states, actions) -> np.ndarray:
        actions = _rows(actions, self.m)
        z = (actions - self.mean_actions(states)) / self.std
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

    def sample_factors(self, states, size: int, rng, factors=slice(None)) -> np.ndarray:
        """``size`` draws per state of each factor ``factors`` indexes, (n, f, size);
        ``rng`` gives one (n, size) block of standard normals per factor, in order."""
        mus = self.mean_actions(states)[:, factors]
        noise = rng.standard_normal((mus.shape[1], len(mus), size)).transpose(1, 0, 2)
        return mus[:, :, None] + self.std[factors][:, None] * noise

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
    state features this is an exact tabular policy. ``logit_weights`` pads
    the W_i to one (m, K, feature_dim) array, K = max k_i; past k_i, where the
    (m, K) mask ``support`` is false, logits are -inf and probabilities 0.
    """

    kind = "categorical"

    def __init__(self, logit_weights: list, features):
        ws = [np.atleast_2d(np.asarray(w, dtype=float)) for w in logit_weights]
        self.features = features
        self.m = len(ws)
        self.cardinalities = tuple(w.shape[0] for w in ws)
        if any(w.shape[1] != features.n_features for w in ws):
            raise ValueError("logit weight columns must match feature dim")
        self.support = np.arange(max(self.cardinalities)) < np.array(self.cardinalities)[:, None]
        self.logit_weights = np.zeros(self.support.shape + (features.n_features,))
        self.logit_weights[self.support] = np.concatenate(ws)
        bounds = np.concatenate([[0], np.cumsum([w.size for w in ws])])
        self.block_slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        self.n_params = int(bounds[-1])

    @classmethod
    def zeros(cls, cardinalities, features) -> "CategoricalPolicy":
        return cls([np.zeros((k, features.n_features)) for k in cardinalities], features)

    @property
    def theta(self) -> np.ndarray:
        return self.logit_weights[self.support].ravel()

    def with_theta(self, theta: np.ndarray) -> "CategoricalPolicy":
        theta = np.asarray(theta, dtype=float).ravel()
        if len(theta) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(theta)}")
        rows = theta.reshape(-1, self.features.n_features)
        return CategoricalPolicy(np.split(rows, np.cumsum(self.cardinalities)[:-1]), self.features)

    @staticmethod
    def _shifted(logits: np.ndarray, support: np.ndarray) -> np.ndarray:
        """(n, ., K) logits less each factor's maximum, -inf off ``support``."""
        logits = np.where(support, logits, -np.inf)
        return logits - np.max(logits, axis=2, keepdims=True)

    def _logits(self, states, factors=slice(None)) -> np.ndarray:
        phis, w = self.features(states), self.logit_weights[factors]
        logits = (phis @ w.reshape(-1, phis.shape[1]).T).reshape(len(phis), *w.shape[:2])
        return self._shifted(logits, self.support[factors])

    def _indices(self, actions) -> np.ndarray:
        """Each factor's category, (n, m) ints; ValueError outside a support."""
        idx = np.rint(_rows(actions, self.m)).astype(int)
        if np.any((idx < 0) | (idx >= np.array(self.cardinalities))):
            raise ValueError(f"actions outside the supports {self.cardinalities}")
        return idx

    def probs(self, states, factors=slice(None)) -> np.ndarray:
        """Per-state probabilities of the factors ``factors`` indexes, (n, m, K), 0 past k_i."""
        e = np.exp(self._logits(states, factors))
        return e / np.sum(e, axis=2, keepdims=True)

    def factor_probs(self, states, i: int) -> np.ndarray:
        """Factor i's category probabilities per state, (n, k_i)."""
        return self.probs(states, [i])[:, 0, : self.cardinalities[i]]

    def draw(self, rng, steps: int) -> np.ndarray:
        """Uniforms on [0, 1), one per factor and step."""
        return rng.random((steps, self.m))

    def sample(self, states, noise) -> np.ndarray:
        phis = self.features(states)
        # one matrix-vector product per row, as in the Gaussian sample
        logits = (self.logit_weights @ phis[:, None, :, None])[..., 0]
        e = np.exp(self._shifted(logits, self.support))
        cdf = np.cumsum(e / np.sum(e, axis=2, keepdims=True), axis=2)
        # count of cdf entries <= each factor's uniform, as searchsorted with
        # side="right"; a padded entry repeats its factor's last one
        counts = np.sum(cdf <= noise[:, :, None], axis=2)
        return np.minimum(counts, np.array(self.cardinalities) - 1).astype(float)

    def log_prob(self, states, actions) -> np.ndarray:
        idx = self._indices(actions)
        logits = self._logits(states)
        chosen = np.take_along_axis(logits, idx[:, :, None], axis=2)[:, :, 0]
        per_factor = chosen - np.log(np.sum(np.exp(logits), axis=2))
        return np.cumsum(per_factor, axis=1)[:, -1]  # factor after factor, as in kl

    def score_matrix(self, states, actions) -> np.ndarray:
        phis = self.features(states)
        idx = self._indices(actions)
        coeff = -self.probs(states)
        coeff[np.arange(len(phis))[:, None], np.arange(self.m), idx] += 1.0
        # (n, sum k_i); a mask gather is Fortran-ordered, which would round
        # npg_step's BLAS products differently
        coeff = np.ascontiguousarray(coeff[:, self.support])
        return (coeff[:, :, None] * phis[:, None, :]).reshape(len(phis), -1)

    def sample_factors(self, states, size: int, rng, factors=slice(None)) -> np.ndarray:
        """``size`` draws per state of each factor ``factors`` indexes, (n, f, size);
        ``rng`` gives one (n, size) block of uniforms per factor, in order."""
        cdf = np.cumsum(self.probs(states, factors), axis=2)
        u = rng.random((cdf.shape[1], len(cdf), size)).transpose(1, 0, 2)
        # count of cdf entries <= u, as in sample; a padded entry repeats its
        # factor's last one
        counts = np.sum(cdf[:, :, None, :] <= u[:, :, :, None], axis=3)
        return np.minimum(counts, np.array(self.cardinalities)[factors][:, None] - 1).astype(float)

    def kl(self, other: "CategoricalPolicy", states) -> float:
        p, q = self.probs(states), other.probs(states)
        # p = 0 (padding, or a probability that underflowed) adds 0, not 0 * -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            per_step = np.sum(np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0), axis=2)
        # a sequential sum in (state, factor) order; np.sum would pair terms
        # differently and move the last bits of the logged KL
        return float(np.cumsum(per_step.ravel())[-1]) / len(states)
