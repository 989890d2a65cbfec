"""The natural-gradient update and the iteration loop tying sampling,
baselines and updates.

One update rule: theta += sqrt(2 kl / (x' F x)) * x with x ~= F^-1 g from
``CG_ITERS`` damped conjugate-gradient iterations on the empirical Fisher
(outer products of joint scores).

Every random draw comes from a keyed stream ``substream(seed, tag, iteration,
k)``. A batch of n trajectories reads n policy streams and, for an environment
that draws, n environment streams: ``keyed_pools`` runs numpy's SeedSequence
mixing on all these keys in one vectorized pass, numpy seeds each stream's
PCG64 from its pool, and each stream draws trajectory k's whole horizon of
noise in one call. A generator gives the same values drawn as one block or
step by step, so the draws are those of ``substream``. Every trajectory runs
the environment's horizon, so the rollout steps all n together and every
batch it returns is n trajectories of that one horizon.

The KL normalization makes step size invariant to the parameterization
scale, which matters when comparing baseline arms whose gradient magnitudes
differ: both arms move the same "distance" per iteration and differ only
through the direction quality of their gradient estimates.
"""

from __future__ import annotations

import math
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
# conjugate-gradient iterations per natural step
CG_ITERS = 10


def substream(seed: int, tag: int, iteration: int, index: int = 0) -> np.random.Generator:
    """Independent, reconstructible generator for one (purpose, iteration, k).

    Every key below 2**32 is one uint32 word of the seed sequence, as in
    ``default_rng([seed, tag, iteration, index])``; the array is cheaper to
    build from than the list.
    """
    return np.random.default_rng(np.array([seed, tag, iteration, index], dtype=np.uint32))


# numpy's SeedSequence constants (a pool of 4 uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def keyed_pools(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each row of the
    (n, 4) uint32 ``keys``, as one (n, 4) uint64 array: SeedSequence's pool
    mixing on all rows at once."""
    keys = np.asarray(keys, dtype=np.uint32)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> 16)

    with np.errstate(over="ignore"):
        pool = [hashmix(keys[:, i]) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        words = np.empty((len(keys), 8), dtype=np.uint32)
        hash_b = _INIT_B
        for i in range(8):
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * _MULT_B & _MASK32
            value = value * hash_b
            words[:, i] = value ^ (value >> 16)
    # little-endian word pairs, as SeedSequence joins them
    return words.astype("<u4").view("<u8")


@dataclass
class _Pool(np.random.bit_generator.ISeedSequence):
    """One row of ``keyed_pools`` as the seed sequence PCG64 reads, so numpy
    seeds the generator itself."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"a keyed pool holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def keyed_generators(seed: int, tags, iteration: int, n: int) -> dict:
    """``{tag: (substream(seed, tag, iteration, k) for k in range(n))}`` for
    each of ``tags``: the pools of every key are mixed in one ``keyed_pools``
    call, and each generator is built from its pool as it is read."""
    keys = np.empty((len(tags), n, 4), dtype=np.uint32)
    keys[..., 0], keys[..., 2], keys[..., 3] = seed, iteration, np.arange(n)
    keys[..., 1] = np.array(tags)[:, None]
    pools = keyed_pools(keys.reshape(-1, 4)).reshape(len(tags), n, 4)
    return {tag: (np.random.Generator(np.random.PCG64(_Pool(pool))) for pool in block)
            for tag, block in zip(tags, pools)}


def _check_keyed_generators() -> None:
    """Raise unless ``keyed_generators`` starts a stream where this numpy's
    ``default_rng`` does, so a numpy that seeds differently fails here."""
    seed, iteration = 2**32 - 1, 12345
    (rng,) = keyed_generators(seed, (STREAM_POLICY,), iteration, 1)[STREAM_POLICY]
    expected = np.random.default_rng([seed, STREAM_POLICY, iteration, 0])
    if rng.bit_generator.state != expected.bit_generator.state:
        raise RuntimeError("numpy's default_rng seeds differently from "
                           "optim.keyed_pools; the keyed streams would change")


_check_keyed_generators()


@dataclass(frozen=True)
class OptimizerConfig:
    """Natural steps at KL budget ``kl`` on the Fisher damped by ``damping``;
    ``npg`` is the only ``kind``."""

    kind: str = "npg"
    kl: float = 0.025
    damping: float = 1e-4

    def __post_init__(self):
        if self.kind != "npg":
            raise ConfigError(f"optimizer kind must be 'npg', got {self.kind!r}")
        if not 0.0 < self.kl < math.inf:
            raise ConfigError(f"kl must be finite and > 0, got {self.kl}")
        if not 0.0 <= self.damping < math.inf:
            raise ConfigError(f"damping must be finite and >= 0, got {self.damping}")


def conjugate_gradient(matvec, b: np.ndarray, iters: int = CG_ITERS,
                       tol: float = 1e-10) -> np.ndarray:
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
    x = conjugate_gradient(fvp, gradient)
    xfx = float(x @ fvp(x))
    if not (0.0 < xfx < math.inf and np.all(np.isfinite(x))):
        raise SingularSystemError(f"natural-gradient direction has x'Fx = {xfx}")
    return np.sqrt(2.0 * cfg.kl / (xfx + 1e-8)) * x


# ---------------------------------------------------------------------------
# rollout collection


def rollout(env, policy, reset_noise, step_noise, policy_noise) -> Batch:
    """One trajectory per row of the noise blocks, all stepped together for
    the environment's horizon: one ``env.reset``, then per time step t one
    ``policy.sample`` and one ``env.step`` over every trajectory. Trajectory k
    reads ``reset_noise[k]``, then ``policy_noise[k, t]`` and
    ``step_noise[k, t]`` at step t. Each step's (n, ·) blocks are stacked
    along a time axis, so trajectory k's steps are rows ``k * horizon`` to
    ``(k + 1) * horizon`` of the batch."""
    n, horizon = len(policy_noise), env.spec.horizon
    state = env.reset(reset_noise)
    states, actions, rewards = [], [], []
    for t in range(horizon):
        action = policy.sample(state, policy_noise[:, t])
        states.append(state)
        actions.append(action)
        state, reward = env.step(state, action, step_noise[:, t])
        rewards.append(reward)
    states, actions = (np.stack(column, axis=1).reshape(n * horizon, -1)
                       for column in (states, actions))
    rewards = np.stack(rewards, axis=1).ravel()
    return Batch(states, actions, rewards, n, env.spec.gamma)


def collect_batch(env, policy, n_trajectories: int, seed: int, iteration: int) -> Batch:
    """``n_trajectories`` rollouts; trajectory k draws its whole horizon of
    noise from ``substream(seed, STREAM_POLICY, iteration, k)`` and, when the
    environment draws, its reset and step noise from
    ``substream(seed, STREAM_ENV, iteration, k)``."""
    horizon, n = env.spec.horizon, n_trajectories
    tags = (STREAM_POLICY, STREAM_ENV) if env.draws else (STREAM_POLICY,)
    rngs = keyed_generators(seed, tags, iteration, n)
    policy_noise = np.stack([policy.draw(rng, horizon) for rng in rngs[STREAM_POLICY]])
    if env.draws:
        env_noise = [(env.draw_reset(rng), env.draw_steps(rng, horizon))
                     for rng in rngs[STREAM_ENV]]
        reset_noise, step_noise = (np.stack(column) for column in zip(*env_noise))
    else:
        reset_noise, step_noise = np.empty((n, 0)), np.empty((n, horizon, 0))
    return rollout(env, policy, reset_noise, step_noise, policy_noise)


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
    callback=None,
) -> TrainResult:
    """Run the full loop: sample, evaluate last iteration's baseline and refit
    it on the batch, step.

    Baselines are always one iteration stale: the models evaluated on batch t
    were fitted on batch t-1 (zero at t = 0), so the critic never sees the
    data it corrects. The gradient is always estimated on whitened
    advantages; the raw-advantage per-trajectory variance is logged before
    the whitening. A non-finite batch reward, advantage, gradient
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
    state = BaselineState(baseline_spec)
    logs = []
    for it in range(n_iterations):
        batch = collect_batch(env, policy, n_trajectories, seed, it)
        require_finite("batch rewards", batch.rewards)
        base_rng = substream(seed, STREAM_BASELINE, it)
        baseline_values, state = solve(state.evaluate_and_refit, batch, policy, base_rng)
        advantages = gae_advantages(batch, baseline_values, lam)
        require_finite("advantages", advantages)
        scores = score_matrix(batch, policy)
        report = pg_estimate(batch, policy, scores, advantages=advantages, normalize=True)
        require_finite("gradient", report.gradient)
        step = solve(npg_step, report.gradient, scores, optimizer)
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

        policy = new_policy
    return TrainResult(policy=policy, logs=logs)
