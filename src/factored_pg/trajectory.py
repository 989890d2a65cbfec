"""The batch container shared by environments, estimator, and training loop.

A batch stores every visited step in flat arrays, trajectory after trajectory,
and the trajectory boundaries as one length per trajectory. Per-trajectory
quantities (returns-to-go, GAE) are one backward recursion, ``returns_to_go``,
run over all trajectories at once; nothing keeps a per-trajectory object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted suffix sums q_t = r_t + gamma * q_{t+1}, q_T = 0, along the
    first axis: a (T, P) array gives P paths' sums at once.

    ``Batch.suffix_sums`` runs it on a zero-padded block, so ``Batch.qhat``
    and the GAE path with lambda = 1 and a zero baseline perform the same
    float operations, which tests assert bit-for-bit.
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
    """Trajectories as flat step arrays plus one length per trajectory.

    Rows ``offsets[k] : offsets[k] + lengths[k]`` of ``states``, ``actions``
    and ``rewards`` are trajectory k, in time order; ``states[t]`` is the
    state at which ``actions[t]`` was taken. ``weights`` are per-trajectory
    probabilities summing to one; rollout batches use uniform 1/N, while
    exact-enumeration batches carry occurrence probabilities so the same
    estimator code computes exact expectations.
    """

    states: np.ndarray   # (n, state_dim)
    actions: np.ndarray  # (n, m), factor values concatenated
    rewards: np.ndarray  # (n,)
    lengths: np.ndarray  # (n_traj,), every entry >= 1
    gamma: float
    weights: np.ndarray = None  # (n_traj,), defaults to uniform

    @classmethod
    def from_paths(cls, paths, gamma: float, weights=None) -> "Batch":
        """Batch of ``(states, actions, rewards)`` triples, one per trajectory."""
        paths = list(paths)
        if not paths:
            raise ValueError("empty batch")
        lengths = [len(r) for _, _, r in paths]
        if any(len(s) != n or len(a) != n for (s, a, _), n in zip(paths, lengths)):
            raise ValueError("a path's states, actions and rewards differ in length")
        states, actions, rewards = (np.concatenate(column, dtype=float) for column in zip(*paths))
        return cls(states, actions, rewards, lengths, gamma, weights)

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=int).ravel()
        n_traj = len(self.lengths)
        if n_traj == 0:
            raise ValueError("empty batch")
        if np.any(self.lengths < 1):
            raise ValueError("every trajectory needs at least one step")
        n = int(np.sum(self.lengths))
        if not (len(self.states) == len(self.actions) == len(self.rewards) == n):
            raise ValueError(
                f"{len(self.states)} states, {len(self.actions)} actions and "
                f"{len(self.rewards)} rewards for trajectory lengths summing to {n}"
            )
        if self.weights is None:
            self.weights = np.full(n_traj, 1.0 / n_traj)
        else:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
            if len(self.weights) != n_traj:
                raise ValueError("one weight per trajectory required")
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])[:-1]
        self.traj_index = np.repeat(np.arange(n_traj), self.lengths)
        self.t_index = np.arange(n) - self.offsets[self.traj_index]
        self.gamma_pow = self.gamma ** self.t_index
        self.qhat = self.suffix_sums(self.rewards, self.gamma)
        # not np.add.reduceat, which differs in the last bits: trajectories of
        # one length L form the rows of a (count, L) array, and a row sum takes
        # the same pairwise order as np.sum over that trajectory alone (the
        # lengths present come from a bincount: np.unique's sort would load
        # another megabyte of sorting code into a training process)
        self.totals = np.empty(n_traj)
        for length in np.flatnonzero(np.bincount(self.lengths)):
            rows = np.flatnonzero(self.lengths == length)
            self.totals[rows] = np.sum(self.rewards[self.offsets[rows, None] + np.arange(length)],
                                       axis=1)

    @property
    def n_trajectories(self) -> int:
        return len(self.lengths)

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    def traj_slice(self, k: int) -> slice:
        start = int(self.offsets[k])
        return slice(start, start + int(self.lengths[k]))

    def suffix_sums(self, x: np.ndarray, factor: float) -> np.ndarray:
        """out[t] = x[t] + factor * out[t+1] within each trajectory, zero past
        its end: ``returns_to_go`` on the trajectories as the columns of one
        zero-padded (max_len, n_traj) block, whose zeros keep each
        accumulator at exactly 0 until its own last step."""
        x = np.asarray(x, dtype=float)
        padded = np.zeros((int(self.lengths.max()), self.n_trajectories) + x.shape[1:])
        padded[self.t_index, self.traj_index] = x
        return returns_to_go(padded, factor)[self.t_index, self.traj_index]

    def mean_return(self) -> float:
        return float(np.mean(self.totals))

    def sd_return(self) -> float:
        if len(self.totals) < 2:
            return 0.0
        return float(np.std(self.totals, ddof=1))
