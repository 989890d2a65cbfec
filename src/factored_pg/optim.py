"""Policy optimizers and the iteration loop tying sampling, baselines, updates.

Two update rules:

* vanilla: theta += lr * g
* natural: theta += sqrt(2 kl / (x' F x)) * x with x ~= F^-1 g from damped
  conjugate gradient on the empirical Fisher (outer products of joint scores).

The natural rule's KL normalization makes step size invariant to the
parameterization scale, which matters when comparing baseline arms whose
gradient magnitudes differ: both arms move the same "distance" per iteration
and differ only through the direction quality of their gradient estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineSpec, BaselineState
from .errors import ConfigError
from .estimator import gae_advantages, gradient_variance, pg_estimate, score_matrix
from .trajectory import Batch

# substream tags for the keyed rng scheme: default_rng([seed, tag, iteration, k])
STREAM_ENV = 0
STREAM_POLICY = 1
STREAM_BASELINE = 2


def substream(seed: int, tag: int, iteration: int, index: int = 0) -> np.random.Generator:
    """Independent, reconstructible generator for one (purpose, iteration, k)."""
    return np.random.default_rng([seed, tag, iteration, index])


@dataclass(frozen=True)
class OptimizerConfig:
    """The update rule: ``npg`` takes natural steps at KL budget ``kl``
    (``cg_iters`` damped conjugate-gradient iterations), ``vanilla`` steps
    ``lr`` times the gradient."""

    kind: str = "npg"  # npg | vanilla
    lr: float = 0.05
    kl: float = 0.025
    cg_iters: int = 10
    damping: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("npg", "vanilla"):
            raise ConfigError(f"optimizer kind must be 'npg' or 'vanilla', got {self.kind!r}")
        for name in ("lr", "kl"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.cg_iters < 1:
            raise ConfigError(f"cg_iters must be >= 1, got {self.cg_iters}")
        if not 0.0 <= self.damping < math.inf:
            raise ConfigError(f"damping must be finite and >= 0, got {self.damping}")


def conjugate_gradient(matvec, b: np.ndarray, iters: int = 10, tol: float = 1e-10) -> np.ndarray:
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x
    for _ in range(iters):
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0 or not np.isfinite(denom):
            break  # operator not positive along p; keep the best iterate so far
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if rs_new < tol:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def make_fvp(scores: np.ndarray, damping: float):
    """Matrix-free product with the damped empirical Fisher (1/n) S'S + d I."""
    n = len(scores)

    def fvp(v: np.ndarray) -> np.ndarray:
        return scores.T @ (scores @ v) / n + damping * v

    return fvp


def npg_step(gradient: np.ndarray, scores: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """KL-constrained natural step; falls back to a normalized vanilla step
    when the curvature solve produces a non-finite or non-positive scale."""
    fvp = make_fvp(scores, cfg.damping)
    x = conjugate_gradient(fvp, gradient, iters=cfg.cg_iters)
    xfx = float(x @ fvp(x))
    if np.isfinite(xfx) and xfx > 0.0 and np.all(np.isfinite(x)):
        return np.sqrt(2.0 * cfg.kl / (xfx + 1e-8)) * x
    gg = float(gradient @ gradient)
    return np.sqrt(2.0 * cfg.kl / (gg + 1e-8)) * gradient


def vanilla_step(gradient: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    return cfg.lr * gradient


# ---------------------------------------------------------------------------
# rollout collection


def rollout(env, policy, env_rng, policy_rng):
    """One trajectory as ``(states, actions, rewards)`` arrays of shapes
    (T, state_dim), (T, m) and (T,); ``states[t]`` is where ``actions[t]``
    was taken, and T stops short of the horizon at a terminal step."""
    states, actions, rewards = [], [], []
    state = env.reset(env_rng)
    for _ in range(env.spec.horizon):
        action = policy.sample(state, policy_rng)
        step = env.step(state, action, env_rng)
        states.append(state)
        actions.append(action)
        rewards.append(step.reward)
        state = step.state
        if step.terminal:
            break
    return np.array(states), np.array(actions), np.array(rewards)


def collect_batch(env, policy, n_trajectories: int, seed: int, iteration: int) -> Batch:
    paths = []
    for k in range(n_trajectories):
        env_rng = substream(seed, STREAM_ENV, iteration, k)
        pol_rng = substream(seed, STREAM_POLICY, iteration, k)
        paths.append(rollout(env, policy, env_rng, pol_rng))
    return Batch.from_paths(paths, gamma=env.spec.gamma)


# ---------------------------------------------------------------------------
# the iteration loop


@dataclass
class IterationLog:
    iteration: int
    mean_return: float
    sd_return: float
    grad_variance: float
    realized_kl: float


@dataclass
class TrainResult:
    policy: object
    logs: list = field(default_factory=list)
    baseline_state: BaselineState | None = None

    def mean_returns(self) -> np.ndarray:
        return np.array([log.mean_return for log in self.logs])


def train(
    env,
    policy,
    baseline_spec: BaselineSpec,
    n_iterations: int,
    n_trajectories: int,
    seed: int,
    optimizer: OptimizerConfig,
    lam: float = 1.0,
    normalize: bool = True,
    callback=None,
) -> TrainResult:
    """Run the full loop: sample, evaluate last iteration's baseline, step, refit.

    Baselines are always one iteration stale: the models evaluated on batch t
    were fitted on batch t-1 (zero at t = 0), so the critic never sees the
    data it corrects. The raw-advantage per-trajectory variance is logged
    before any normalization.
    """
    state = BaselineState.initial(baseline_spec)
    logs = []
    for it in range(n_iterations):
        batch = collect_batch(env, policy, n_trajectories, seed, it)
        base_rng = substream(seed, STREAM_BASELINE, it)
        baseline_values = state.evaluate(batch, policy, base_rng)
        advantages = gae_advantages(batch, baseline_values, lam)
        scores = score_matrix(batch, policy)
        report = pg_estimate(batch, policy, scores, advantages=advantages, normalize=normalize)

        if optimizer.kind == "npg":
            step = npg_step(report.gradient, scores, optimizer)
        else:
            step = vanilla_step(report.gradient, optimizer)
        new_policy = policy.with_theta(policy.theta + step)

        log = IterationLog(
            iteration=it,
            mean_return=batch.mean_return(),
            sd_return=batch.sd_return(),
            grad_variance=gradient_variance(report.per_trajectory),
            realized_kl=policy.kl(new_policy, batch.states),
        )
        logs.append(log)
        if callback is not None:
            callback(it, batch, policy, log)

        state = state.refit(batch, policy, base_rng)
        policy = new_policy
    return TrainResult(policy=policy, logs=logs, baseline_state=state)
