"""Task environments: the scalable target-matching family, tabular MDPs that
enumerate their paths as one table for exact oracles, and a small multi-step
control task.

Environments are value objects: ``step`` is a pure function of (state, action,
noise) to (next state, reward), so replays are exact given the seed. ``reset``
and ``step`` take n trajectories at once, one row each, and row k reads only
its own row of noise. Every trajectory runs the spec's full horizon; no task
ends an episode early. A trajectory draws that noise from its own generator,
all of it before its first step: ``draw_reset(rng)`` and then
``draw_steps(rng, steps)``, one row per step. An environment that draws
nothing says so with ``draws = False``, and the rollout then builds no
generator for it.
Each registered environment has one frozen params dataclass, read from JSON
by ``schema.section``, that validates its values and builds the environment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnumerationSizeError, NotEnumerableError
from .features import _rows
from .schema import section

ENUMERATION_BUDGET = 1_000_000


def _check_horizon_gamma(horizon: int, gamma: float) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


@dataclass(frozen=True)
class MdpSpec:
    """Dimensions and horizon of a task; policies are built against this."""

    state_dim: int
    n_factors: int
    horizon: int
    gamma: float

    def __post_init__(self):
        _check_horizon_gamma(self.horizon, self.gamma)
        if self.n_factors < 1:
            raise ValueError("at least one action factor required")


class Environment:
    """``cardinalities`` states the action space: None when every factor is
    continuous, else each factor's category count."""

    spec: MdpSpec
    cardinalities: tuple[int, ...] | None = None
    draws = False  # whether reset or step reads any noise

    def draw_reset(self, rng) -> np.ndarray:
        """The variates one trajectory's ``reset`` reads, (d_reset,)."""
        return np.empty(0)

    def draw_steps(self, rng, steps: int) -> np.ndarray:
        """The variates ``steps`` of one trajectory's ``step`` calls read,
        (steps, d_step), drawn after ``draw_reset``."""
        return np.empty((steps, 0))

    def reset(self, noise: np.ndarray) -> np.ndarray:
        """Initial states (n, state_dim), row k from ``noise[k]``, a row of
        ``draw_reset``."""
        raise NotImplementedError

    def step(self, states: np.ndarray, actions: np.ndarray,
             noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next states (n, state_dim) and rewards (n,): row k moves from
        ``states[k]`` under ``actions[k]``, reading ``noise[k]``, a row of
        ``draw_steps``."""
        raise NotImplementedError

    def enumerate_trajectories(self):
        raise NotEnumerableError(f"{type(self).__name__} does not support exact enumeration")


# ---------------------------------------------------------------------------
# target matching


def solve_threshold_default(m: int) -> float:
    """Mean-return level at which an m-dimensional matching task counts as solved."""
    table = {12: -0.01, 100: -0.25, 400: -0.99, 2000: -4.96}
    return table.get(int(m), -0.0025 * int(m))


class TargetMatching(Environment):
    """Single-state, horizon-1 task: reward -(||a - c||^2) for a hidden target c.

    Each action coordinate is its own factor, and the reward is additively
    separable across coordinates, so per-factor baselines can strip every other
    coordinate's exploration noise out of factor i's advantage. The gap between
    baseline arms on this task is pure variance, never bias. Its one step is
    never discounted (gamma 1).
    """

    def __init__(self, target: np.ndarray):
        self.target = np.asarray(target, dtype=float).ravel()
        self.spec = MdpSpec(state_dim=1, n_factors=len(self.target), horizon=1, gamma=1.0)

    def reset(self, noise) -> np.ndarray:
        return np.zeros((len(noise), 1))

    def step(self, states, actions, noise) -> tuple[np.ndarray, np.ndarray]:
        actions = _rows(actions, self.spec.n_factors)
        rewards = -np.sum((actions - self.target) ** 2, axis=1)
        return np.zeros((len(actions), 1)), rewards


# ---------------------------------------------------------------------------
# enumerable tabular MDPs


@dataclass(frozen=True)
class PathTable:
    """Every length-horizon path of a tabular MDP, one row each, with its
    environment probability; the policy's part is multiplied in by the
    oracle, so one table serves every parameter vector."""

    states: np.ndarray    # (P, T) int state indices
    actions: np.ndarray   # (P, T, m) int factor values
    rewards: np.ndarray   # (P, T)
    env_prob: np.ndarray  # (P,) initial-state times transition probabilities


_Row = tuple[float, ...]


@dataclass(frozen=True)
class TabularFixture:
    """The JSON layout of a tabular MDP fixture, as in ``fixtures/*.json``."""

    transitions: tuple[tuple[_Row, ...], ...]
    rewards: tuple[_Row, ...]
    rho0: _Row
    factor_cardinalities: tuple[int, ...]
    horizon: int
    gamma: float = 1.0
    name: str = "tabular"


class TabularMdp(Environment):
    """Finite MDP with factored categorical actions, exact tables throughout.

    ``transitions[s, a_joint, s']`` and ``rewards[s, a_joint]`` index the joint
    action in mixed-radix order over the per-factor cardinalities. States are
    presented to policies as the 1-dim vector [state_index], an index into rho0.
    """

    draws = True

    def __init__(
        self,
        transitions: np.ndarray,
        rewards: np.ndarray,
        rho0: np.ndarray,
        cardinalities,
        horizon: int,
        gamma: float = 1.0,
        name: str = "tabular",
    ):
        self.transitions = np.asarray(transitions, dtype=float)
        self.rewards = np.asarray(rewards, dtype=float)
        self.rho0 = np.asarray(rho0, dtype=float).ravel()
        self.cardinalities = tuple(int(k) for k in cardinalities)
        self.name = name
        n = len(self.rho0)
        n_joint = int(np.prod(self.cardinalities))
        if self.transitions.shape != (n, n_joint, n):
            raise ValueError(
                f"transitions must have shape {(n, n_joint, n)}, "
                f"got {self.transitions.shape}"
            )
        if self.rewards.shape != (n, n_joint):
            raise ValueError(f"rewards must have shape {(n, n_joint)}")
        if not self.cardinalities or min(self.cardinalities) < 1 or int(horizon) < 1:
            raise ValueError("need at least one factor, cardinalities >= 1 and horizon >= 1")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        for label, probs in (("transition", self.transitions), ("initial", self.rho0)):
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise ValueError(f"{label} probabilities must lie in [0, 1]")
        if not np.allclose(self.transitions.sum(axis=2), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if not np.isclose(self.rho0.sum(), 1.0, atol=1e-9):
            raise ValueError("initial distribution must sum to 1")
        # sampling tables for reset/step, summed in the same sequential order
        self._rho0_cdf = np.cumsum(self.rho0)
        self._transition_cdf = np.cumsum(self.transitions, axis=2)
        self.spec = MdpSpec(state_dim=1, n_factors=len(self.cardinalities),
                            horizon=int(horizon), gamma=float(gamma))

    def draw_reset(self, rng) -> np.ndarray:
        """One uniform for the initial state."""
        return rng.random(1)

    def draw_steps(self, rng, steps: int) -> np.ndarray:
        """One uniform per step for the next state."""
        return rng.random((steps, 1))

    def reset(self, noise) -> np.ndarray:
        s = np.searchsorted(self._rho0_cdf, noise[:, 0], side="right")
        return np.minimum(s, len(self.rho0) - 1).astype(float)[:, None]

    def step(self, states, actions, noise) -> tuple[np.ndarray, np.ndarray]:
        actions = _rows(actions, self.spec.n_factors)
        s = np.rint(states[:, 0]).astype(int)
        aj = np.ravel_multi_index(np.rint(actions).astype(int).T, self.cardinalities)
        # count of cdf entries <= the uniform, as searchsorted with side="right"
        s2 = np.sum(self._transition_cdf[s, aj] <= noise, axis=1)
        s2 = np.minimum(s2, len(self.rho0) - 1).astype(float)[:, None]
        return s2, self.rewards[s, aj]

    def enumerate_trajectories(self) -> PathTable:
        """All length-horizon paths in depth-first walk order: initial state,
        then per step the joint action in ``itertools.product`` order and the
        next state. Paths that differ only in the last next state, which is
        not stored, are separate rows.

        Each step extends every path by its current state's nonzero (joint
        action, next state) pairs. Raises ``EnumerationSizeError``, before
        building any path, when the bound |S| (joint actions x widest
        branching)^horizon exceeds the budget.
        """
        branching = int(np.count_nonzero(self.transitions, axis=2).max())
        bound = len(self.rho0) * (self.transitions.shape[1] * branching) ** self.spec.horizon
        if bound > ENUMERATION_BUDGET:
            raise EnumerationSizeError(
                f"enumeration bound {bound} exceeds budget {ENUMERATION_BUDGET}")
        # the nonzero (s, joint action, s') edges, lexicographic: state s has
        # count[s] of them, starting at first[s]
        src, joint, dst = np.nonzero(self.transitions)
        edge_prob = self.transitions[src, joint, dst]
        count = np.bincount(src, minlength=len(self.rho0))
        first = np.cumsum(count) - count
        at = np.flatnonzero(self.rho0)  # each path's current state
        prob = self.rho0[at]
        states = joints = np.empty((len(at), 0), dtype=int)
        for _ in range(self.spec.horizon):
            n_out = count[at]
            parent = np.repeat(np.arange(len(at)), n_out)
            # child j of path k takes edge first[at[k]] + j
            edge = np.arange(len(parent)) + np.repeat(first[at] - np.cumsum(n_out) + n_out, n_out)
            states = np.column_stack([states[parent], at[parent]])
            joints = np.column_stack([joints[parent], joint[edge]])
            prob = prob[parent] * edge_prob[edge]
            at = dst[edge]
        actions = np.stack(np.unravel_index(joints, self.cardinalities), axis=-1)
        return PathTable(states, actions, self.rewards[states, joints], prob)

    @classmethod
    def from_json(cls, path) -> "TabularMdp":
        """Build from a fixture file; an unreadable file or one that is not
        JSON is a ``ConfigError`` naming the path."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"tabular MDP fixture {path!r}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"tabular MDP fixture {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "TabularMdp":
        """Build from the ``TabularFixture`` layout. A missing, unknown or
        mistyped key, or tables whose shapes or values do not fit together,
        is a ``ConfigError``."""
        f = section(TabularFixture, data, "tabular MDP")
        try:
            return cls(f.transitions, f.rewards, f.rho0, f.factor_cardinalities,
                       f.horizon, f.gamma, f.name)
        except ValueError as exc:
            raise ConfigError(f"tabular MDP: {exc}") from exc


# ---------------------------------------------------------------------------
# multi-step control task


class PointMass(Environment):
    """2-D double integrator with quadratic state-action cost.

    State (px, py, vx, vy), starting at rest from a standard-normal position;
    the two force coordinates are separate factors, integrated over steps of
    length ``DT``. Reward is -(||p'||^2 + ACTION_COST ||a||^2) on the
    post-step position. The task exists to exercise multi-step advantage
    estimation (lambda sweeps), where bootstrapped advantages trade variance
    against baseline-model bias.
    """

    DT = 0.1
    ACTION_COST = 0.001
    draws = True

    def __init__(self, horizon: int, gamma: float):
        self.spec = MdpSpec(state_dim=4, n_factors=2, horizon=int(horizon), gamma=gamma)

    def draw_reset(self, rng) -> np.ndarray:
        """Two standard normals for the initial position."""
        return rng.standard_normal(2)

    def reset(self, noise) -> np.ndarray:
        return np.hstack([noise, np.zeros_like(noise)])

    def step(self, states, actions, noise) -> tuple[np.ndarray, np.ndarray]:
        # whole-row operations on (n, 4) blocks: the state's column slices
        # are strided, and an elementwise op on a strided slice costs more
        # than on a whole contiguous row
        actions = _rows(actions, self.spec.n_factors)
        d = np.concatenate([actions, actions], axis=1)
        d[:, :2] = (states + self.DT * d)[:, 2:]  # [v', a] with v' = v + DT a
        out = states + self.DT * d  # [p + DT v', v + DT a] = [p', v']
        d[:, :2] = out[:, :2]  # [p', a]
        sq = d * d
        rewards = -((sq[:, 0] + sq[:, 1]) + self.ACTION_COST * (sq[:, 2] + sq[:, 3]))
        return out, rewards


# ---------------------------------------------------------------------------
# registry: one params dataclass per environment name. Each also carries its
# default baseline features and its solve task (m, threshold), which is None
# off the matching task.


@dataclass(frozen=True)
class TargetMatchingParams:
    """``target_matching``: a target of m standard-normal coordinates drawn
    from ``default_rng([target_seed])``, so arms sharing a config share the
    task. ``solve_threshold`` defaults to ``solve_threshold_default(m)``."""

    m: int = 12
    target_seed: int = 0
    solve_threshold: float | None = None

    baseline_features = {"features": "linear"}

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.target_seed < 0:
            raise ValueError(f"target_seed must be >= 0, got {self.target_seed}")
        if self.solve_threshold is not None and not np.isfinite(self.solve_threshold):
            raise ValueError(f"solve_threshold must be finite, got {self.solve_threshold}")

    @property
    def solve_task(self) -> tuple[int, float]:
        threshold = self.solve_threshold
        return self.m, solve_threshold_default(self.m) if threshold is None else threshold

    def build(self) -> TargetMatching:
        # drawn once, then frozen
        return TargetMatching(np.random.default_rng([self.target_seed]).standard_normal(self.m))


@dataclass(frozen=True)
class PointMassParams:
    """``point_mass``: horizon >= 1 steps and gamma in (0, 1]."""

    horizon: int = 100
    gamma: float = 0.995

    baseline_features = {"features": "rff", "n_features": 100}
    solve_task = None

    def __post_init__(self):
        _check_horizon_gamma(self.horizon, self.gamma)

    def build(self) -> PointMass:
        return PointMass(self.horizon, self.gamma)


@dataclass(frozen=True)
class TabularParams:
    """``tabular``: the ``path`` of a JSON fixture in the ``TabularFixture`` layout."""

    path: str

    baseline_features = {"features": "rff", "n_features": 250}
    solve_task = None

    def build(self) -> TabularMdp:
        return TabularMdp.from_json(self.path)


ENV_PARAMS = {
    "target_matching": TargetMatchingParams,
    "point_mass": PointMassParams,
    "tabular": TabularParams,
}
EnvParams = TargetMatchingParams | PointMassParams | TabularParams


def env_params(name, raw) -> EnvParams:
    """The params of environment ``name`` read from the JSON object ``raw``;
    an unknown name or a bad key, type or value is a ``ConfigError``."""
    if not isinstance(name, str) or name not in ENV_PARAMS:
        raise ConfigError(f"unknown environment {name!r}; valid names: {sorted(ENV_PARAMS)}")
    return section(ENV_PARAMS[name], raw, "env.params")


def make_env(name: str, params: dict | None = None) -> Environment:
    """Build a registered environment from its JSON params."""
    return env_params(name, {} if params is None else params).build()
