"""Policy-gradient estimation for factorized policies with per-factor baselines.

The estimator averages, over trajectories, the discounted sum of per-factor
score blocks weighted by per-factor advantages:

    g = mean_k sum_t gamma^t sum_i z_i(s_t, a_t) (qhat_t - b_i(s_t, a_t^{-i}))

where z_i is factor i's score restricted to its own parameter block and
qhat_t is the observed return-to-go. Because each b_i never reads a^i, the
correction term has zero mean and the estimate stays unbiased for any choice
of the baselines; with exact-enumeration trajectory weights the weighted sum
reproduces the true gradient to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import Batch


@dataclass
class GradientReport:
    """Gradient estimate plus the pieces the diagnostics need.

    ``per_trajectory`` holds the raw (un-normalized) per-trajectory
    contribution vectors; ``gradient`` is their weighted mean, computed from
    normalized advantages when ``normalize`` was requested.
    """

    gradient: np.ndarray  # (n_params,)
    per_trajectory: np.ndarray  # (n_traj, n_params), raw advantages


def whiten(values: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Shift/scale to zero mean, unit sd over all entries jointly."""
    values = np.asarray(values, dtype=float)
    return (values - values.mean()) / (values.std() + eps)


def pg_estimate(
    batch: Batch,
    policy,
    scores: np.ndarray,
    advantages: np.ndarray,
    normalize: bool = False,
) -> GradientReport:
    """Estimate the policy gradient from a batch.

    ``scores`` is ``score_matrix(batch, policy)``, built once by the caller
    and shared with the natural-gradient step; ``advantages`` is the
    (n_steps, m) per-factor advantage matrix, e.g. qhat - b_i or
    ``gae_advantages``. ``normalize`` whitens the advantages used for the
    returned gradient; the per-trajectory diagnostic contributions always use
    the raw advantages so variance comparisons are not distorted by the
    rescaling.
    """
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (batch.n_steps, policy.m):
        raise ValueError(f"advantages must have shape {(batch.n_steps, policy.m)}")

    per_traj = _per_trajectory_sums(batch, policy, scores, advantages)
    if normalize:
        gradient = batch.weights @ _per_trajectory_sums(batch, policy, scores, whiten(advantages))
    else:
        gradient = batch.weights @ per_traj
    return GradientReport(gradient=gradient, per_trajectory=per_traj)


def _per_trajectory_sums(batch: Batch, policy, scores: np.ndarray, advantages: np.ndarray) -> np.ndarray:
    # every score column belongs to one factor's block; weight it by that
    # factor's discounted advantage, then sum each trajectory's rows
    sizes = [sl.stop - sl.start for sl in policy.block_slices]
    weighted = scores * np.repeat(advantages * batch.gamma_pow[:, None], sizes, axis=1)
    # reduceat, not a sum over by_trajectory's time axis: that pairs the terms
    # differently, and at horizon 1 it turns -0.0 into +0.0
    if batch.horizon == 1:  # the sums are the rows
        return weighted
    return np.add.reduceat(weighted, batch.starts, axis=0)


def score_matrix(batch: Batch, policy) -> np.ndarray:
    """Joint score vectors for every visited step, one row per step."""
    return policy.score_matrix(batch.states, batch.actions)


def gae_advantages(batch: Batch, baseline_values: np.ndarray, lam: float) -> np.ndarray:
    """Per-factor generalized advantages from one-step baseline residuals.

    delta_t^i = r_t + gamma * b_i(t+1) - b_i(t), with b_i(t+1) = 0 at every
    trajectory end, is one vector expression over the whole batch; the
    deltas are then accumulated backward with factor gamma*lam by
    ``Batch.suffix_sums``, the recursion that also gives qhat. At lam = 1 the
    sum telescopes to qhat_t - b_i(t) for every factor, so the lam knob
    interpolates between the one-step residual and the full-return advantage.
    """
    baseline_values = np.asarray(baseline_values, dtype=float)
    n, _ = baseline_values.shape
    if n != batch.n_steps:
        raise ValueError("baseline rows must match batch steps")
    b_next = np.zeros_like(baseline_values)
    batch.by_trajectory(b_next)[:, :-1] = batch.by_trajectory(baseline_values)[:, 1:]
    deltas = batch.rewards[:, None] + batch.gamma * b_next - baseline_values
    return batch.suffix_sums(deltas, batch.gamma * lam)


def gradient_variance(per_trajectory: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Total variance (trace of covariance) of per-trajectory contributions.

    This is the single-trajectory estimator variance; divide by the batch size
    for the variance of the batch mean. Weighted form uses the probability
    weights directly (population covariance under that measure).
    """
    per_trajectory = np.asarray(per_trajectory, dtype=float)
    if weights is None:
        if len(per_trajectory) < 2:
            return 0.0
        centered = per_trajectory - per_trajectory.mean(axis=0)
        return float(np.sum(np.square(centered, out=centered)) / (len(per_trajectory) - 1))
    weights = np.asarray(weights, dtype=float)
    mean = weights @ per_trajectory
    centered = per_trajectory - mean
    return float(weights @ np.sum(centered**2, axis=1))
