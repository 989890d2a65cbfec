"""The batch container shared by the estimator and the training loop.

A batch stores n trajectories of one horizon H in flat step arrays,
trajectory after trajectory, so ``by_trajectory`` reads any per-step array as
its (n, H, ...) block. Per-trajectory quantities (returns-to-go, GAE) are one
backward recursion, ``returns_to_go``, run along that block's time axis over
all trajectories at once; nothing keeps a per-trajectory object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted suffix sums q_t = r_t + gamma * q_{t+1}, q_T = 0, along the
    first axis: a (T, P) array gives P paths' sums at once.

    ``Batch.suffix_sums`` runs it on the (H, n, ...) time-major block, so
    ``Batch.qhat`` and the GAE path with lambda = 1 and a zero baseline
    perform the same float operations, which tests assert bit-for-bit.
    """
    rewards = np.asarray(rewards, dtype=float)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


@dataclass
class Batch:
    """``n_trajectories`` trajectories of one horizon as flat step arrays.

    Rows ``k * horizon : (k + 1) * horizon`` of ``states``, ``actions`` and
    ``rewards`` are trajectory k, in time order; ``states[t]`` is the state
    at which ``actions[t]`` was taken. ``weights`` are per-trajectory
    probabilities summing to one; rollout batches use uniform 1/N, while
    exact-enumeration batches carry occurrence probabilities so the same
    estimator code computes exact expectations.
    """

    states: np.ndarray   # (n_steps, state_dim)
    actions: np.ndarray  # (n_steps, m), factor values concatenated
    rewards: np.ndarray  # (n_steps,)
    n_trajectories: int
    gamma: float
    weights: np.ndarray = None  # (n_trajectories,), defaults to uniform

    @classmethod
    def from_paths(cls, paths, gamma: float, weights=None) -> "Batch":
        """Batch of ``(states, actions, rewards)`` triples, one per trajectory,
        all of one length."""
        paths = list(paths)
        if not paths:
            raise ValueError("empty batch")
        lengths = {len(part) for path in paths for part in path}
        if len(lengths) != 1:
            raise ValueError(f"paths' states, actions and rewards have lengths {sorted(lengths)}, "
                             "not one horizon")
        states, actions, rewards = (np.concatenate(column, dtype=float) for column in zip(*paths))
        return cls(states, actions, rewards, len(paths), gamma, weights)

    def __post_init__(self) -> None:
        n = self.n_trajectories = int(self.n_trajectories)
        if n < 1:
            raise ValueError("empty batch")
        n_steps = len(self.rewards)
        if not (len(self.states) == len(self.actions) == n_steps) or n_steps % n or not n_steps:
            raise ValueError(
                f"{len(self.states)} states, {len(self.actions)} actions and {n_steps} rewards "
                f"do not split into {n} trajectories of one horizon >= 1"
            )
        self.horizon = n_steps // n
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
            if len(self.weights) != n:
                raise ValueError("one weight per trajectory required")
        self.starts = np.arange(0, n_steps, self.horizon)
        self.gamma_pow = np.tile(self.gamma ** np.arange(self.horizon), n)
        self.qhat = self.suffix_sums(self.rewards, self.gamma)
        # each row sum takes the pairwise order of np.sum over that trajectory alone
        self.totals = np.sum(self.by_trajectory(self.rewards), axis=1)

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    def by_trajectory(self, x: np.ndarray) -> np.ndarray:
        """A per-step array as its (n_trajectories, horizon, ...) block, a view
        of ``x``: splitting the row axis never copies."""
        return x.reshape(self.n_trajectories, self.horizon, *x.shape[1:])

    def suffix_sums(self, x: np.ndarray, factor: float) -> np.ndarray:
        """out[t] = x[t] + factor * out[t+1] within each trajectory, zero past
        its end: ``returns_to_go`` along the time axis of the trajectories'
        (horizon, n, ...) block, copied contiguous so each step reads one run
        of memory."""
        x = np.asarray(x, dtype=float)
        block = np.ascontiguousarray(self.by_trajectory(x).swapaxes(0, 1))
        return returns_to_go(block, factor).swapaxes(0, 1).reshape(x.shape)

    def mean_return(self) -> float:
        return float(np.mean(self.totals))

    def sd_return(self) -> float:
        if len(self.totals) < 2:
            return 0.0
        return float(np.std(self.totals, ddof=1))
