"""Factorized stochastic policies with per-factor scores.

A policy over an m-factor action decomposes as prod_i pi(a^i | s, a^{parents(i)}),
with every factor owning a contiguous, disjoint block of the flat parameter
vector. Disjoint blocks make score vectors of different factors exactly
orthogonal, z_i' z_j = 0 for i != j, which the per-factor baseline variance
analysis relies on; tests assert the property at machine zero.

Action vectors hold one slot per factor: continuous factors store the sampled
real value, categorical factors store the integer category as a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# state feature maps


class RawFeatures:
    """Identity map on the raw state; linear heads add their own bias."""

    def __init__(self, state_dim: int):
        self.state_dim = int(state_dim)
        self.dim = self.state_dim

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float).ravel()

    def batch(self, states: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(states, dtype=float))

    def descriptor(self) -> dict:
        return {"kind": "raw", "state_dim": self.state_dim}


class IndicatorFeatures:
    """One-hot encoding of an integer state index, for tabular heads."""

    def __init__(self, n_states: int):
        self.n_states = int(n_states)
        self.dim = self.n_states

    def __call__(self, state: np.ndarray) -> np.ndarray:
        idx = int(round(float(np.asarray(state).ravel()[0])))
        out = np.zeros(self.n_states)
        out[idx] = 1.0
        return out

    def batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        idx = np.rint(states[:, 0]).astype(int)
        out = np.zeros((len(idx), self.n_states))
        out[np.arange(len(idx)), idx] = 1.0
        return out

    def descriptor(self) -> dict:
        return {"kind": "indicator", "n_states": self.n_states}


def features_from_descriptor(desc: dict):
    kind = desc["kind"]
    if kind == "raw":
        return RawFeatures(desc["state_dim"])
    if kind == "indicator":
        return IndicatorFeatures(desc["n_states"])
    raise ValueError(f"unknown feature map kind {kind!r}")


# ---------------------------------------------------------------------------
# base class


class FactoredPolicy:
    """Shared plumbing; concrete classes fill in per-factor math.

    Parameter updates never mutate a policy: ``with_theta`` returns a fresh
    instance, so policies are safe to share read-only across workers.
    """

    m: int
    n_params: int
    block_slices: tuple
    factor_kinds: tuple

    # -- parameters

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    def with_theta(self, theta: np.ndarray) -> "FactoredPolicy":
        raise NotImplementedError

    # -- structure

    def parents(self, i: int) -> tuple:
        return ()

    def descendants(self, i: int) -> tuple:
        return (i,)

    # -- sampling and densities

    def sample(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        states = np.atleast_2d(states)
        return np.stack([self.sample(s, rng) for s in states])

    def factor_log_prob(self, state, action, i: int) -> float:
        raise NotImplementedError

    def log_prob(self, state, action) -> float:
        return float(sum(self.factor_log_prob(state, action, i) for i in range(self.m)))

    def prob(self, state, action) -> float:
        return float(np.exp(self.log_prob(state, action)))

    # -- scores

    def score_block(self, state, action, i: int) -> np.ndarray:
        """Gradient of log pi(a^i | ...) w.r.t. factor i's parameter block."""
        raise NotImplementedError

    def score_factor(self, state, action, i: int) -> np.ndarray:
        out = np.zeros(self.n_params)
        out[self.block_slices[i]] = self.score_block(state, action, i)
        return out

    def joint_score(self, state, action) -> np.ndarray:
        out = np.zeros(self.n_params)
        for i in range(self.m):
            out[self.block_slices[i]] = self.score_block(state, action, i)
        return out

    def score_matrix(self, states, actions) -> np.ndarray:
        """Joint score rows, (n, n_params); stacks per-step joint scores
        unless the policy computes them batched."""
        rows = [self.joint_score(s, a) for s, a in zip(np.atleast_2d(states), np.atleast_2d(actions))]
        return np.array(rows, dtype=float).reshape(-1, self.n_params)

    def joint_score_sq_norms(self, states, actions) -> np.ndarray:
        """||grad log pi(a|s)||^2 per sample; weights for the optimal state fit."""
        scores = self.score_matrix(states, actions)
        return np.einsum("np,np->n", scores, scores)

    # -- moments and divergences

    def mean_action(self, state) -> np.ndarray:
        raise NotImplementedError

    def factor_support(self, i: int):
        """Category values for categorical factors, None for continuous ones."""
        return None

    def kl(self, other: "FactoredPolicy", states: np.ndarray) -> float:
        """Mean over states of KL(self(.|s) || other(.|s))."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# independent Gaussian factors


class IndependentGaussianPolicy(FactoredPolicy):
    """m independent scalar Gaussian factors with linear means on state features.

    Factor i has mean W[i] . phi(s) + b[i] and a free state-independent log
    standard deviation. Parameter block i is [W[i], b[i], log_std[i]], so the
    block size is feature_dim + 2 for every factor.
    """

    def __init__(self, weights: np.ndarray, biases: np.ndarray, log_std: np.ndarray, features):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float))
        self.biases = np.asarray(biases, dtype=float).ravel()
        self.log_std = np.asarray(log_std, dtype=float).ravel()
        self.features = features
        self.m = len(self.biases)
        if self.weights.shape != (self.m, features.dim) or len(self.log_std) != self.m:
            raise ValueError("parameter shapes disagree with factor count / feature dim")
        self.block_size = features.dim + 2
        self.n_params = self.m * self.block_size
        self.block_slices = tuple(
            slice(i * self.block_size, (i + 1) * self.block_size) for i in range(self.m)
        )
        self.factor_kinds = ("gaussian",) * self.m

    @classmethod
    def zeros(cls, m: int, state_dim: int) -> "IndependentGaussianPolicy":
        feats = RawFeatures(state_dim)
        return cls(np.zeros((m, feats.dim)), np.zeros(m), np.zeros(m), feats)

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
        f = self.features.dim
        return IndependentGaussianPolicy(
            stacked[:, :f].copy(), stacked[:, f].copy(), stacked[:, f + 1].copy(), self.features
        )

    def _mu_sigma(self, state):
        phi = self.features(state)
        mu = self.weights @ phi + self.biases
        return mu, np.exp(self.log_std)

    def _mu_batch(self, states):
        phis = self.features.batch(states)
        return phis, phis @ self.weights.T + self.biases

    def sample(self, state, rng) -> np.ndarray:
        mu, sigma = self._mu_sigma(state)
        return mu + sigma * rng.standard_normal(self.m)

    def sample_batch(self, states, rng) -> np.ndarray:
        _, mus = self._mu_batch(states)
        return mus + np.exp(self.log_std) * rng.standard_normal(mus.shape)

    def factor_log_prob(self, state, action, i: int) -> float:
        mu, sigma = self._mu_sigma(state)
        z = (float(action[i]) - mu[i]) / sigma[i]
        return float(-0.5 * z * z - self.log_std[i] - 0.5 * LOG_2PI)

    def log_prob(self, state, action) -> float:
        mu, sigma = self._mu_sigma(state)
        z = (np.asarray(action, dtype=float) - mu) / sigma
        return float(np.sum(-0.5 * z * z - self.log_std - 0.5 * LOG_2PI))

    def score_block(self, state, action, i: int) -> np.ndarray:
        phi = self.features(state)
        mu_i = float(self.weights[i] @ phi + self.biases[i])
        var_i = float(np.exp(2.0 * self.log_std[i]))
        resid = float(action[i]) - mu_i
        d = resid / var_i
        return np.concatenate([d * phi, [d, d * resid - 1.0]])

    def score_matrix(self, states, actions) -> np.ndarray:
        phis, mus = self._mu_batch(states)
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        resid = actions - mus
        d = resid / np.exp(2.0 * self.log_std)
        n = len(phis)
        out = np.empty((n, self.m, self.block_size))
        out[:, :, : self.features.dim] = d[:, :, None] * phis[:, None, :]
        out[:, :, self.features.dim] = d
        out[:, :, self.features.dim + 1] = d * resid - 1.0
        return out.reshape(n, -1)

    def mean_action(self, state) -> np.ndarray:
        mu, _ = self._mu_sigma(state)
        return mu

    def mean_actions_batch(self, states) -> np.ndarray:
        return self._mu_batch(states)[1]

    def sample_factor(self, state, i: int, size: int, rng) -> np.ndarray:
        mu, sigma = self._mu_sigma(state)
        return mu[i] + sigma[i] * rng.standard_normal(size)

    def sample_factor_batch(self, states, i: int, size: int, rng) -> np.ndarray:
        _, mus = self._mu_batch(states)
        sigma_i = float(np.exp(self.log_std[i]))
        return mus[:, i][:, None] + sigma_i * rng.standard_normal((len(mus), size))

    def kl(self, other: "IndependentGaussianPolicy", states) -> float:
        _, mu1 = self._mu_batch(states)
        _, mu2 = other._mu_batch(states)
        v1 = np.exp(2.0 * self.log_std)
        v2 = np.exp(2.0 * other.log_std)
        per_factor = (
            other.log_std - self.log_std + (v1 + (mu1 - mu2) ** 2) / (2.0 * v2) - 0.5
        )
        return float(np.mean(np.sum(per_factor, axis=1)))

    def descriptor(self) -> dict:
        return {
            "kind": "independent_gaussian",
            "m": self.m,
            "features": self.features.descriptor(),
            "block_size": self.block_size,
        }


# ---------------------------------------------------------------------------
# independent categorical factors


class CategoricalPolicy(FactoredPolicy):
    """m independent categorical factors with linear logits on state features.

    Factor i with cardinality k_i owns logits l = W_i phi(s); its parameter
    block is W_i flattened row-major, size k_i * feature_dim. With indicator
    state features this is an exact tabular policy.
    """

    def __init__(self, logit_weights: list, features):
        self.logit_weights = [np.atleast_2d(np.asarray(w, dtype=float)) for w in logit_weights]
        self.features = features
        self.m = len(self.logit_weights)
        self.cardinalities = tuple(w.shape[0] for w in self.logit_weights)
        for w in self.logit_weights:
            if w.shape[1] != features.dim:
                raise ValueError("logit weight columns must match feature dim")
        sizes = [w.size for w in self.logit_weights]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.block_slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        self.n_params = int(bounds[-1])
        self.factor_kinds = ("categorical",) * self.m

    @classmethod
    def zeros(cls, cardinalities, features) -> "CategoricalPolicy":
        return cls([np.zeros((k, features.dim)) for k in cardinalities], features)

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

    def factor_probs(self, state, i: int) -> np.ndarray:
        logits = self.logit_weights[i] @ self.features(state)
        logits = logits - np.max(logits)
        e = np.exp(logits)
        return e / np.sum(e)

    def sample(self, state, rng) -> np.ndarray:
        action = np.empty(self.m)
        for i in range(self.m):
            p = self.factor_probs(state, i)
            u = rng.random()
            action[i] = float(min(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1))
        return action

    def factor_log_prob(self, state, action, i: int) -> float:
        logits = self.logit_weights[i] @ self.features(state)
        logits = logits - np.max(logits)
        v = int(round(float(action[i])))
        return float(logits[v] - np.log(np.sum(np.exp(logits))))

    def score_block(self, state, action, i: int) -> np.ndarray:
        phi = self.features(state)
        p = self.factor_probs(state, i)
        v = int(round(float(action[i])))
        coeff = -p
        coeff[v] += 1.0
        return (coeff[:, None] * phi[None, :]).ravel()

    def score_matrix(self, states, actions) -> np.ndarray:
        phis = self.features.batch(states)
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        rows = np.arange(len(phis))
        blocks = []
        for i in range(self.m):
            coeff = -self.factor_probs_batch(states, i)
            coeff[rows, np.rint(actions[:, i]).astype(int)] += 1.0
            blocks.append((coeff[:, :, None] * phis[:, None, :]).reshape(len(phis), -1))
        return np.hstack(blocks)

    def mean_action(self, state) -> np.ndarray:
        """Concatenated per-factor probability vectors (expected one-hots)."""
        return np.concatenate([self.factor_probs(state, i) for i in range(self.m)])

    def factor_support(self, i: int) -> np.ndarray:
        return np.arange(self.cardinalities[i], dtype=float)

    def sample_factor(self, state, i: int, size: int, rng) -> np.ndarray:
        p = self.factor_probs(state, i)
        u = rng.random(size)
        idx = np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1)
        return idx.astype(float)

    def factor_probs_batch(self, states, i: int) -> np.ndarray:
        logits = self.features.batch(np.atleast_2d(states)) @ self.logit_weights[i].T
        logits = logits - np.max(logits, axis=1, keepdims=True)
        e = np.exp(logits)
        return e / np.sum(e, axis=1, keepdims=True)

    def sample_factor_batch(self, states, i: int, size: int, rng) -> np.ndarray:
        p = self.factor_probs_batch(states, i)
        cdf = np.cumsum(p, axis=1)
        u = rng.random((len(p), size))
        # count of cdf entries <= u, matching searchsorted side="right" above
        idx = np.minimum(np.sum(cdf[:, None, :] <= u[:, :, None], axis=2), p.shape[1] - 1)
        return idx.astype(float)

    def kl(self, other: "CategoricalPolicy", states) -> float:
        states = np.atleast_2d(states)
        per_step = np.empty((len(states), self.m))
        for i in range(self.m):
            p = self.factor_probs_batch(states, i)
            q = other.factor_probs_batch(states, i)
            per_step[:, i] = np.sum(p * (np.log(p) - np.log(q)), axis=1)
        # a sequential sum in (state, factor) order; np.sum would pair terms
        # differently and move the last bits of the logged KL
        return float(np.cumsum(per_step.ravel())[-1]) / len(states)

    def descriptor(self) -> dict:
        return {
            "kind": "categorical",
            "cardinalities": list(self.cardinalities),
            "features": self.features.descriptor(),
        }


# ---------------------------------------------------------------------------
# general DAG factorization


@dataclass
class GaussianHead:
    """Scalar Gaussian head: mean = w . inputs + b, free log_std."""

    weights: np.ndarray
    bias: float
    log_std: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()

    @property
    def block_size(self) -> int:
        return len(self.weights) + 2

    @property
    def block(self) -> np.ndarray:
        return np.concatenate([self.weights, [self.bias, self.log_std]])

    @classmethod
    def from_block(cls, block: np.ndarray) -> "GaussianHead":
        block = np.asarray(block, dtype=float)
        return cls(block[:-2], float(block[-2]), float(block[-1]))

    def mean(self, inputs: np.ndarray) -> float:
        return float(self.weights @ inputs + self.bias)

    def sample(self, inputs, rng) -> float:
        return self.mean(inputs) + float(np.exp(self.log_std)) * rng.standard_normal()

    def log_prob(self, inputs, value: float) -> float:
        z = (value - self.mean(inputs)) / np.exp(self.log_std)
        return float(-0.5 * z * z - self.log_std - 0.5 * LOG_2PI)

    def score(self, inputs, value: float) -> np.ndarray:
        var = float(np.exp(2.0 * self.log_std))
        resid = value - self.mean(inputs)
        d = resid / var
        return np.concatenate([d * inputs, [d, d * resid - 1.0]])


@dataclass
class CategoricalHead:
    """Categorical head: logits = W . inputs."""

    weights: np.ndarray  # (k, input_dim)

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))

    @property
    def cardinality(self) -> int:
        return self.weights.shape[0]

    @property
    def block_size(self) -> int:
        return self.weights.size

    @property
    def block(self) -> np.ndarray:
        return self.weights.ravel()

    def with_block(self, block: np.ndarray) -> "CategoricalHead":
        return CategoricalHead(np.asarray(block, dtype=float).reshape(self.weights.shape))

    def probs(self, inputs) -> np.ndarray:
        logits = self.weights @ inputs
        logits = logits - np.max(logits)
        e = np.exp(logits)
        return e / np.sum(e)

    def sample(self, inputs, rng) -> float:
        p = self.probs(inputs)
        u = rng.random()
        return float(min(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1))

    def log_prob(self, inputs, value: float) -> float:
        logits = self.weights @ inputs
        logits = logits - np.max(logits)
        return float(logits[int(round(value))] - np.log(np.sum(np.exp(logits))))

    def score(self, inputs, value: float) -> np.ndarray:
        p = self.probs(inputs)
        coeff = -p
        coeff[int(round(value))] += 1.0
        return (coeff[:, None] * np.asarray(inputs)[None, :]).ravel()


class DagPolicy(FactoredPolicy):
    """Autoregressive factorization pi(a|s) = prod_i pi(a^i | s, a^{parents(i)}).

    Head i sees state features concatenated with encoded parent values
    (continuous parents contribute their raw value, categorical parents a
    one-hot). Factors are sampled in topological order. An empty parent map
    recovers the independent factorization exactly.
    """

    def __init__(self, heads: list, parents: tuple, features):
        self.heads = list(heads)
        self.parent_map = tuple(tuple(p) for p in parents)
        self.features = features
        self.m = len(self.heads)
        if len(self.parent_map) != self.m:
            raise ValueError("one parent tuple per factor required")
        self.factor_kinds = tuple(
            "gaussian" if isinstance(h, GaussianHead) else "categorical" for h in self.heads
        )
        self._topo = self._toposort()
        self._descendants = self._closure()
        sizes = [h.block_size for h in self.heads]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.block_slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        self.n_params = int(bounds[-1])
        for i, h in enumerate(self.heads):
            expected = self._input_dim(i)
            got = len(h.weights.ravel()) if isinstance(h, GaussianHead) else h.weights.shape[1]
            if got != expected:
                raise ValueError(f"head {i} expects inputs of dim {expected}, has {got}")

    def _parent_enc_dim(self, j: int) -> int:
        if self.factor_kinds[j] == "gaussian":
            return 1
        return self.heads[j].cardinality

    def _input_dim(self, i: int) -> int:
        return self.features.dim + sum(self._parent_enc_dim(j) for j in self.parent_map[i])

    def _toposort(self) -> tuple:
        indeg = [0] * self.m
        children = [[] for _ in range(self.m)]
        for i, ps in enumerate(self.parent_map):
            for j in ps:
                if not (0 <= j < self.m) or j == i:
                    raise ValueError(f"invalid parent {j} for factor {i}")
                children[j].append(i)
                indeg[i] += 1
        order, queue = [], [i for i in range(self.m) if indeg[i] == 0]
        while queue:
            i = queue.pop()
            order.append(i)
            for c in children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != self.m:
            raise ValueError("parent map contains a cycle")
        return tuple(order)

    def _closure(self) -> tuple:
        children = [[] for _ in range(self.m)]
        for i, ps in enumerate(self.parent_map):
            for j in ps:
                children[j].append(i)
        out = []
        for i in range(self.m):
            seen = {i}
            stack = list(children[i])
            while stack:
                j = stack.pop()
                if j not in seen:
                    seen.add(j)
                    stack.extend(children[j])
            out.append(tuple(sorted(seen)))
        return tuple(out)

    def parents(self, i: int) -> tuple:
        return self.parent_map[i]

    def descendants(self, i: int) -> tuple:
        """Factor i together with everything reachable through the parent map."""
        return self._descendants[i]

    def head_inputs(self, state, action, i: int) -> np.ndarray:
        parts = [self.features(state)]
        for j in self.parent_map[i]:
            if self.factor_kinds[j] == "gaussian":
                parts.append(np.array([float(action[j])]))
            else:
                onehot = np.zeros(self.heads[j].cardinality)
                onehot[int(round(float(action[j])))] = 1.0
                parts.append(onehot)
        return np.concatenate(parts)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([h.block for h in self.heads])

    def with_theta(self, theta: np.ndarray) -> "DagPolicy":
        theta = np.asarray(theta, dtype=float).ravel()
        if len(theta) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(theta)}")
        heads = []
        for h, sl in zip(self.heads, self.block_slices):
            if isinstance(h, GaussianHead):
                heads.append(GaussianHead.from_block(theta[sl]))
            else:
                heads.append(h.with_block(theta[sl]))
        return DagPolicy(heads, self.parent_map, self.features)

    def sample(self, state, rng) -> np.ndarray:
        action = np.zeros(self.m)
        for i in self._topo:
            action[i] = self.heads[i].sample(self.head_inputs(state, action, i), rng)
        return action

    def factor_log_prob(self, state, action, i: int) -> float:
        return self.heads[i].log_prob(self.head_inputs(state, action, i), float(action[i]))

    def score_block(self, state, action, i: int) -> np.ndarray:
        return self.heads[i].score(self.head_inputs(state, action, i), float(action[i]))

    def conditional_mean(self, state, action, i: int):
        """Mean of factor i given the parent values recorded in ``action``.

        Gaussian heads return a scalar mean, categorical heads the probability
        vector (the expected one-hot).
        """
        inputs = self.head_inputs(state, action, i)
        head = self.heads[i]
        if isinstance(head, GaussianHead):
            return head.mean(inputs)
        return head.probs(inputs)

    def factor_support(self, i: int):
        if self.factor_kinds[i] == "categorical":
            return np.arange(self.heads[i].cardinality, dtype=float)
        return None

    def factor_probs(self, state, action, i: int) -> np.ndarray:
        if self.factor_kinds[i] != "categorical":
            raise ValueError("factor_probs requires a categorical factor")
        return self.heads[i].probs(self.head_inputs(state, action, i))

    def mean_action(self, state) -> np.ndarray:
        if any(self.parent_map):
            raise ValueError(
                "unconditional means are undefined under a nontrivial factorization; "
                "use conditional_mean(state, action, i)"
            )
        out = []
        for i in range(self.m):
            cm = self.conditional_mean(state, np.zeros(self.m), i)
            out.append(np.atleast_1d(np.asarray(cm, dtype=float)))
        return np.concatenate(out)

    def descriptor(self) -> dict:
        return {
            "kind": "dag",
            "parents": [list(p) for p in self.parent_map],
            "factor_kinds": list(self.factor_kinds),
            "cardinalities": [
                self.heads[i].cardinality if self.factor_kinds[i] == "categorical" else None
                for i in range(self.m)
            ],
            "features": self.features.descriptor(),
        }


# ---------------------------------------------------------------------------
# serialization


def policy_to_checkpoint(policy: FactoredPolicy) -> dict:
    return {"descriptor": policy.descriptor(), "theta": policy.theta.tolist()}


def policy_from_checkpoint(data: dict) -> FactoredPolicy:
    desc = data["descriptor"]
    theta = np.asarray(data["theta"], dtype=float)
    features = features_from_descriptor(desc["features"])
    kind = desc["kind"]
    if kind == "independent_gaussian":
        base = IndependentGaussianPolicy.zeros(desc["m"], features.state_dim)
        return base.with_theta(theta)
    if kind == "categorical":
        base = CategoricalPolicy.zeros(desc["cardinalities"], features)
        return base.with_theta(theta)
    if kind == "dag":
        heads = []
        offset = 0
        for i, fk in enumerate(desc["factor_kinds"]):
            parents = desc["parents"][i]
            input_dim = features.dim
            for j in parents:
                if desc["factor_kinds"][j] == "gaussian":
                    input_dim += 1
                else:
                    input_dim += int(desc["cardinalities"][j])
            if fk == "gaussian":
                heads.append(GaussianHead(np.zeros(input_dim), 0.0, 0.0))
            else:
                heads.append(CategoricalHead(np.zeros((int(desc["cardinalities"][i]), input_dim))))
            offset += heads[-1].block_size
        base = DagPolicy(heads, [tuple(p) for p in desc["parents"]], features)
        return base.with_theta(theta)
    raise ValueError(f"unknown policy kind {kind!r}")
