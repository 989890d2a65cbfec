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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineSpec, BaselineState, check_marginal
from .errors import ConfigError, NonFiniteError, SingularSystemError
from .estimator import gae_advantages, gradient_variance, pg_estimate, score_matrix
from .threads import BLAS_PIN
from .trajectory import Batch

# substream tags for the keyed rng scheme: default_rng([seed, tag, iteration, k])
STREAM_ENV = 0
STREAM_POLICY = 1
STREAM_BASELINE = 2
# the scheme's name in every checkpoint, with the BLAS pin the curves depend
# on; a change to either changes it
RNG_SCHEME = f"default_rng([seed, stream, iteration, trajectory]); {BLAS_PIN}"


def substream(seed: int, tag: int, iteration: int, index: int = 0) -> np.random.Generator:
    """Independent, reconstructible generator for one (purpose, iteration, k).

    Every key below 2**32 is one uint32 word of the seed sequence, as in
    ``default_rng([seed, tag, iteration, index])``; the array is cheaper to
    build from than the list.
    """
    return np.random.default_rng(np.array([seed, tag, iteration, index], dtype=np.uint32))


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
    """Approximate A^-1 b for a positive definite ``matvec``; a non-finite or
    non-positive curvature p'Ap along a search direction raises
    SingularSystemError."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x
    for _ in range(iters):
        ap = matvec(p)
        denom = float(p @ ap)
        if not 0.0 < denom < math.inf:
            raise SingularSystemError(f"curvature p'Ap = {denom} along a CG direction")
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
    """KL-constrained natural step. A zero gradient takes a zero step; a
    non-finite direction x or x'Fx <= 0 raises SingularSystemError."""
    if not np.any(gradient):
        return np.zeros_like(gradient)
    fvp = make_fvp(scores, cfg.damping)
    x = conjugate_gradient(fvp, gradient, iters=cfg.cg_iters)
    xfx = float(x @ fvp(x))
    if not (0.0 < xfx < math.inf and np.all(np.isfinite(x))):
        raise SingularSystemError(f"natural-gradient direction has x'Fx = {xfx}")
    return np.sqrt(2.0 * cfg.kl / (xfx + 1e-8)) * x


def vanilla_step(gradient: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    return cfg.lr * gradient


# ---------------------------------------------------------------------------
# rollout collection


class _Rows(Sequence):
    """``entry(k)`` for each k in ``keys``, looked up on access, so entries
    built on first use stay unbuilt until read."""

    def __init__(self, entry, keys):
        self.entry, self.keys = entry, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, j: int):
        return self.entry(int(self.keys[j]))


def rollout(env, policy, env_rngs, policy_rngs) -> Batch:
    """One trajectory per generator pair, all stepped together: one
    ``env.reset``, then per time step one ``policy.sample`` and one
    ``env.step`` over the trajectories not yet terminal. Trajectory k draws
    only from ``env_rngs[k]`` and ``policy_rngs[k]``, in the order it would
    alone. Returns the trajectory-major batch; a trajectory stops short of
    the horizon at its terminal step."""
    alive = np.arange(len(env_rngs))
    state = env.reset(env_rngs)
    steps = []  # per time step: (trajectory index, state, action, reward) rows
    for _ in range(env.spec.horizon):
        action = policy.sample(state, _Rows(policy_rngs.__getitem__, alive))
        step = env.step(state, action, _Rows(env_rngs.__getitem__, alive))
        steps.append((alive, state, action, step.rewards))
        running = ~step.terminal
        alive, state = alive[running], step.states[running]
        if not len(alive):
            break
    traj, states, actions, rewards = (np.concatenate(column) for column in zip(*steps))
    order = np.argsort(traj, kind="stable")  # time order within each trajectory
    lengths = np.bincount(traj, minlength=len(env_rngs))
    return Batch(states[order], actions[order], rewards[order], lengths, env.spec.gamma)


def collect_batch(env, policy, n_trajectories: int, seed: int, iteration: int) -> Batch:
    """``n_trajectories`` rollouts; trajectory k draws from
    ``substream(seed, STREAM_ENV, iteration, k)`` and
    ``substream(seed, STREAM_POLICY, iteration, k)``, each built on first
    use, so an environment that draws nothing builds no generator."""

    def streams(tag: int) -> _Rows:
        return _Rows(functools.cache(functools.partial(substream, seed, tag, iteration)),
                     range(n_trajectories))

    return rollout(env, policy, streams(STREAM_ENV), streams(STREAM_POLICY))


# ---------------------------------------------------------------------------
# the iteration loop


@dataclass
class IterationLog:
    """One curve row; the fields after ``iteration`` are its float columns."""

    iteration: int
    mean_return: float
    sd_return: float
    grad_variance: float
    realized_kl: float


@dataclass
class TrainResult:
    policy: object
    logs: list = field(default_factory=list)

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
    before any normalization. A non-finite batch reward, advantage, gradient
    or step raises ``NonFiniteError``, and a failed ridge or curvature solve raises
    ``SingularSystemError``; both name the iteration and seed. A baseline kind
    that the policy's factors rule out raises ``ValueError`` before the first
    batch is drawn.
    """

    def require_finite(what: str, values: np.ndarray) -> None:
        if not np.all(np.isfinite(values)):
            raise NonFiniteError(f"non-finite {what} at iteration {it}, seed {seed}")

    def solve(fn, *args):
        try:
            return fn(*args)
        except SingularSystemError as exc:
            raise SingularSystemError(f"{exc} at iteration {it}, seed {seed}") from exc

    check_marginal(baseline_spec, policy)
    state = BaselineState.initial(baseline_spec)
    logs = []
    for it in range(n_iterations):
        batch = collect_batch(env, policy, n_trajectories, seed, it)
        require_finite("batch rewards", batch.rewards)
        base_rng = substream(seed, STREAM_BASELINE, it)
        baseline_values = state.evaluate(batch, policy, base_rng)
        advantages = gae_advantages(batch, baseline_values, lam)
        require_finite("advantages", advantages)
        scores = score_matrix(batch, policy)
        report = pg_estimate(batch, policy, scores, advantages=advantages, normalize=normalize)
        require_finite("gradient", report.gradient)

        if optimizer.kind == "npg":
            step = solve(npg_step, report.gradient, scores, optimizer)
        else:
            step = vanilla_step(report.gradient, optimizer)
        require_finite("step", step)
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

        state = solve(state.refit, batch, policy, base_rng)
        policy = new_policy
    return TrainResult(policy=policy, logs=logs)
