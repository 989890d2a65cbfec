"""Task environments: the scalable target-matching family, enumerable tabular
MDPs for exact oracles, and a small multi-step control task.

Environments are value objects: ``step`` is a pure function of (state, action,
generator draw), so replays are exact given the seed. ``reset`` and ``step``
take n trajectories at once, one row each, and row k draws only from its own
generator ``rngs[k]``; an environment that draws nothing never reads
``rngs``, so lazily built generators stay unbuilt.
Each registered environment has one frozen params dataclass, read from JSON
by ``schema.section``, that validates its values and builds the environment.
"""

from __future__ import annotations

import itertools
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


@dataclass
class Step:
    """One transition of n trajectories: next states (n, state_dim), rewards
    (n,) and terminal flags (n,)."""

    states: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray


class Environment:
    """``cardinalities`` states the action space: None when every factor is
    continuous, else each factor's category count."""

    spec: MdpSpec
    cardinalities: tuple[int, ...] | None = None

    def reset(self, rngs) -> np.ndarray:
        """Initial states (n, state_dim), row k drawn from ``rngs[k]``."""
        raise NotImplementedError

    def step(self, states: np.ndarray, actions: np.ndarray, rngs) -> Step:
        """Row k moves from ``states[k]`` under ``actions[k]``, drawing from
        ``rngs[k]``."""
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

    def reset(self, rngs) -> np.ndarray:
        return np.zeros((len(rngs), 1))

    def step(self, states, actions, rngs) -> Step:
        actions = _rows(actions, self.spec.n_factors)
        rewards = -np.sum((actions - self.target) ** 2, axis=1)
        n = len(actions)
        return Step(np.zeros((n, 1)), rewards, np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# enumerable tabular MDPs


@dataclass
class EnumeratedTrajectory:
    """A complete path with the environment part of its probability.

    The full occurrence probability multiplies in the policy's action
    probabilities, so one enumeration serves every parameter vector.
    """

    states: np.ndarray   # (T, 1), the state index as a float
    actions: np.ndarray  # (T, m)
    rewards: np.ndarray  # (T,)
    env_prob: float

    def probability(self, policy) -> float:
        logp = float(np.sum(policy.log_prob(self.states, self.actions)))
        return self.env_prob * float(np.exp(logp))


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

    def reset(self, rngs) -> np.ndarray:
        u = np.array([rng.random() for rng in rngs])
        s = np.searchsorted(self._rho0_cdf, u, side="right")
        return np.minimum(s, len(self.rho0) - 1).astype(float)[:, None]

    def step(self, states, actions, rngs) -> Step:
        actions = _rows(actions, self.spec.n_factors)
        s = np.rint(states[:, 0]).astype(int)
        aj = np.ravel_multi_index(np.rint(actions).astype(int).T, self.cardinalities)
        u = np.array([rng.random() for rng in rngs])
        # count of cdf entries <= u, as searchsorted with side="right"
        s2 = np.sum(self._transition_cdf[s, aj] <= u[:, None], axis=1)
        s2 = np.minimum(s2, len(self.rho0) - 1).astype(float)[:, None]
        return Step(s2, self.rewards[s, aj], np.zeros(len(s), dtype=bool))

    def enumerate_trajectories(self) -> list:
        """All length-horizon paths with their environment probabilities.

        Enumerates initial states, joint actions, and transition branches with
        nonzero probability; raises if the outcome count would exceed the
        budget rather than grinding away.
        """
        joint_actions = list(itertools.product(*[range(k) for k in self.cardinalities]))
        branching = max(
            1, max(int(np.count_nonzero(row)) for plane in self.transitions for row in plane)
        )
        bound = len(self.rho0) * (len(joint_actions) * branching) ** self.spec.horizon
        if bound > ENUMERATION_BUDGET:
            raise EnumerationSizeError(
                f"enumeration bound {bound} exceeds budget {ENUMERATION_BUDGET}"
            )
        out: list[EnumeratedTrajectory] = []

        def extend(s, t, states, actions, rewards, prob):
            if t == self.spec.horizon:
                out.append(EnumeratedTrajectory(
                    np.array(states, dtype=float)[:, None],
                    np.array(actions, dtype=float),
                    np.array(rewards, dtype=float),
                    prob,
                ))
                return
            for a in joint_actions:
                aj = int(np.ravel_multi_index(a, self.cardinalities))
                r = float(self.rewards[s, aj])
                for s2 in np.flatnonzero(self.transitions[s, aj]):
                    extend(
                        int(s2),
                        t + 1,
                        states + [s],
                        actions + [a],
                        rewards + [r],
                        prob * float(self.transitions[s, aj, s2]),
                    )

        for s0 in np.flatnonzero(self.rho0):
            extend(int(s0), 0, [], [], [], float(self.rho0[s0]))
        return out

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

    def __init__(self, horizon: int, gamma: float):
        self.spec = MdpSpec(state_dim=4, n_factors=2, horizon=int(horizon), gamma=gamma)

    def reset(self, rngs) -> np.ndarray:
        pos = np.array([rng.standard_normal(2) for rng in rngs])
        return np.hstack([pos, np.zeros_like(pos)])

    def step(self, states, actions, rngs) -> Step:
        actions = _rows(actions, self.spec.n_factors)
        vel = states[:, 2:] + self.DT * actions
        pos = states[:, :2] + self.DT * vel
        rewards = -(np.sum(pos**2, axis=1) + self.ACTION_COST * np.sum(actions**2, axis=1))
        return Step(np.hstack([pos, vel]), rewards, np.zeros(len(states), dtype=bool))


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
