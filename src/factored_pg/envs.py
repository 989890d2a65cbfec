"""Task environments: the scalable target-matching family, enumerable tabular
MDPs for exact oracles, and two small multi-step control tasks.

Environments are value objects: ``step`` is a pure function of (state, action,
generator draw), so rollouts parallelize and replays are exact given the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnumerationSizeError, NotEnumerableError

ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class ContinuousFactor:
    dim: int = 1


@dataclass(frozen=True)
class CategoricalFactor:
    cardinality: int


@dataclass(frozen=True)
class MdpSpec:
    """Dimensions and horizon of a task; policies are built against this."""

    state_dim: int
    factors: tuple
    horizon: int
    gamma: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not self.factors:
            raise ValueError("at least one action factor required")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def action_dim(self) -> int:
        # one action slot per factor; continuous factors here are scalar
        return len(self.factors)


@dataclass
class Step:
    state: np.ndarray
    reward: float
    terminal: bool


class Environment:
    spec: MdpSpec

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def step(self, state: np.ndarray, action: np.ndarray, rng: np.random.Generator) -> Step:
        raise NotImplementedError

    def _check_action(self, action) -> np.ndarray:
        action = np.asarray(action, dtype=float).ravel()
        if len(action) != self.spec.action_dim:
            raise ValueError(
                f"expected action of dim {self.spec.action_dim}, got {len(action)}"
            )
        return action

    def enumerate_trajectories(self):
        raise NotEnumerableError(f"{type(self).__name__} does not support exact enumeration")


# ---------------------------------------------------------------------------
# target matching


def solve_threshold_default(m: int) -> float:
    """Mean-return level at which an m-dimensional matching task counts as solved."""
    table = {12: -0.01, 100: -0.25, 400: -0.99, 2000: -4.96}
    return table.get(int(m), -0.0025 * int(m))


def matching_dimension(params: dict) -> int:
    """The m of a ``target_matching`` params dict: the size of an explicit
    ``target`` when one is given, else ``m`` (default 12)."""
    return int(np.size(params["target"])) if "target" in params else int(params.get("m", 12))


class TargetMatching(Environment):
    """Single-state, horizon-1 task: reward -(||a - c||^2) for a hidden target c.

    Each action coordinate is its own factor, and the reward is additively
    separable across coordinates, so per-factor baselines can strip every other
    coordinate's exploration noise out of factor i's advantage. The gap between
    baseline arms on this task is pure variance, never bias.
    """

    def __init__(self, target: np.ndarray, solve_threshold: float | None = None, gamma: float = 0.995):
        self.target = np.asarray(target, dtype=float).ravel()
        m = len(self.target)
        self.solve_threshold = (
            solve_threshold_default(m) if solve_threshold is None else float(solve_threshold)
        )
        self.spec = MdpSpec(
            state_dim=1,
            factors=tuple(ContinuousFactor() for _ in range(m)),
            horizon=1,
            gamma=gamma,
        )

    @classmethod
    def with_random_target(cls, m: int, rng: np.random.Generator, **kw) -> "TargetMatching":
        """Target drawn once from a seeded standard normal, then frozen."""
        return cls(rng.standard_normal(m), **kw)

    def reset(self, rng) -> np.ndarray:
        return np.zeros(1)

    def step(self, state, action, rng) -> Step:
        action = self._check_action(action)
        reward = -float(np.sum((action - self.target) ** 2))
        return Step(np.zeros(1), reward, True)


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


# fixture key -> its JSON types; gamma and name are optional
_FIXTURE_TYPES = {"transitions": (list,), "rewards": (list,), "rho0": (list,),
                  "factor_cardinalities": (list,), "horizon": (int,),
                  "gamma": (int, float), "name": (str,)}


class TabularMdp(Environment):
    """Finite MDP with factored categorical actions, exact tables throughout.

    ``transitions[s, a_joint, s']`` and ``rewards[s, a_joint]`` index the joint
    action in mixed-radix order over the per-factor cardinalities. States are
    presented to policies as the 1-dim vector [state_index].
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
        n_states = len(self.rho0)
        n_joint = int(np.prod(self.cardinalities))
        if self.transitions.shape != (n_states, n_joint, n_states):
            raise ValueError(
                f"transitions must have shape {(n_states, n_joint, n_states)}, "
                f"got {self.transitions.shape}"
            )
        if self.rewards.shape != (n_states, n_joint):
            raise ValueError(f"rewards must have shape {(n_states, n_joint)}")
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
        self.spec = MdpSpec(
            state_dim=1,
            factors=tuple(CategoricalFactor(k) for k in self.cardinalities),
            horizon=int(horizon),
            gamma=float(gamma),
        )

    @property
    def n_states(self) -> int:
        return len(self.rho0)

    def joint_index(self, action) -> int:
        values = [int(round(float(v))) for v in np.asarray(action).ravel()]
        return int(np.ravel_multi_index(values, self.cardinalities))

    def reset(self, rng) -> np.ndarray:
        s = int(np.searchsorted(self._rho0_cdf, rng.random(), side="right"))
        return np.array([float(min(s, self.n_states - 1))])

    def step(self, state, action, rng) -> Step:
        action = self._check_action(action)
        s = int(round(float(state[0])))
        aj = self.joint_index(action)
        reward = float(self.rewards[s, aj])
        cdf = self._transition_cdf[s, aj]
        s2 = int(min(np.searchsorted(cdf, rng.random(), side="right"), self.n_states - 1))
        return Step(np.array([float(s2)]), reward, False)

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
        bound = self.n_states * (len(joint_actions) * branching) ** self.spec.horizon
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
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "TabularMdp":
        """Build from the ``to_dict`` layout. A missing, unknown or mistyped
        key, or tables whose shapes or values do not fit together, is a
        ``ConfigError``."""
        if not isinstance(data, dict):
            raise ConfigError(f"tabular MDP must be a JSON object, got {type(data).__name__}")
        data = {"gamma": 1.0, "name": "tabular", **data}
        unknown = sorted(set(data) - set(_FIXTURE_TYPES))
        if unknown:
            raise ConfigError(f"tabular MDP: unknown keys {unknown}")
        for key, kinds in _FIXTURE_TYPES.items():
            if type(data.get(key)) not in kinds:
                raise ConfigError(f"tabular MDP {key!r} must be {kinds[-1].__name__}, "
                                  f"got {data.get(key)!r:.40}")
        if any(type(k) is not int for k in data["factor_cardinalities"]):
            raise ConfigError("tabular MDP 'factor_cardinalities' must be integers")
        try:
            return cls(data["transitions"], data["rewards"], data["rho0"],
                       data["factor_cardinalities"], data["horizon"], data["gamma"], data["name"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"tabular MDP: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "factor_cardinalities": list(self.cardinalities),
            "horizon": self.spec.horizon,
            "gamma": self.spec.gamma,
            "rho0": self.rho0.tolist(),
            "transitions": self.transitions.tolist(),
            "rewards": self.rewards.tolist(),
        }


# ---------------------------------------------------------------------------
# multi-step control tasks


class PointMass(Environment):
    """2-D double integrator with quadratic state-action cost.

    State (px, py, vx, vy); the two force coordinates are separate factors.
    Reward is -(||p'||^2 + 0.001 ||a||^2) on the post-step position. The task
    exists to exercise multi-step advantage estimation (lambda sweeps), where
    bootstrapped advantages trade variance against baseline-model bias.
    """

    def __init__(self, horizon: int = 100, dt: float = 0.1, gamma: float = 0.995,
                 action_cost: float = 0.001, start_scale: float = 1.0):
        self.dt = float(dt)
        self.action_cost = float(action_cost)
        self.start_scale = float(start_scale)
        self.spec = MdpSpec(
            state_dim=4,
            factors=(ContinuousFactor(), ContinuousFactor()),
            horizon=int(horizon),
            gamma=gamma,
        )

    def reset(self, rng) -> np.ndarray:
        pos = self.start_scale * rng.standard_normal(2)
        return np.concatenate([pos, np.zeros(2)])

    def step(self, state, action, rng) -> Step:
        action = self._check_action(action)
        vel = state[2:] + self.dt * action
        pos = state[:2] + self.dt * vel
        reward = -float(np.sum(pos**2) + self.action_cost * np.sum(action**2))
        return Step(np.concatenate([pos, vel]), reward, False)


class CommunicateTargetLite(Environment):
    """Two point agents, each rewarded for reaching a private goal.

    Per-agent action = 2 motion dims + 2 broadcast dims, m = 8 factors total.
    The state exposes both positions, both goals, and the previous broadcasts;
    reward is -(|pos1 - goal1| + |pos2 - goal2|). A desk-scale stand-in for
    cooperative tasks with large factored action spaces.
    """

    STATE_DIM = 12  # pos1, pos2, goal1, goal2, last broadcast1, last broadcast2

    def __init__(self, horizon: int = 25, dt: float = 0.2, gamma: float = 0.995,
                 goal_scale: float = 1.0):
        self.dt = float(dt)
        self.goal_scale = float(goal_scale)
        self.spec = MdpSpec(
            state_dim=self.STATE_DIM,
            factors=tuple(ContinuousFactor() for _ in range(8)),
            horizon=int(horizon),
            gamma=gamma,
        )

    def reset(self, rng) -> np.ndarray:
        pos = 0.5 * rng.standard_normal(4)
        goals = self.goal_scale * rng.standard_normal(4)
        return np.concatenate([pos, goals, np.zeros(4)])

    def step(self, state, action, rng) -> Step:
        action = self._check_action(action)
        move1, comm1 = action[0:2], action[2:4]
        move2, comm2 = action[4:6], action[6:8]
        pos1 = state[0:2] + self.dt * move1
        pos2 = state[2:4] + self.dt * move2
        goals = state[4:8]
        next_state = np.concatenate([pos1, pos2, goals, comm1, comm2])
        reward = -float(
            np.linalg.norm(pos1 - goals[0:2]) + np.linalg.norm(pos2 - goals[2:4])
        )
        return Step(next_state, reward, False)


# ---------------------------------------------------------------------------
# registry


ENV_BUILDERS = {
    "target_matching": lambda params, rng: TargetMatching(
        params["target"] if "target" in params else rng.standard_normal(matching_dimension(params)),
        solve_threshold=params.get("solve_threshold"),
        gamma=float(params.get("gamma", 0.995)),
    ),
    "point_mass": lambda params, rng: PointMass(
        horizon=int(params.get("horizon", 100)),
        dt=float(params.get("dt", 0.1)),
        gamma=float(params.get("gamma", 0.995)),
        action_cost=float(params.get("action_cost", 0.001)),
    ),
    "communicate_target_lite": lambda params, rng: CommunicateTargetLite(
        horizon=int(params.get("horizon", 25)),
        dt=float(params.get("dt", 0.2)),
        gamma=float(params.get("gamma", 0.995)),
    ),
    "tabular": lambda params, rng: (
        TabularMdp.from_json(params["path"]) if "path" in params else TabularMdp.from_dict(params)
    ),
}


def make_env(name: str, params: dict | None = None, rng: np.random.Generator | None = None) -> Environment:
    """Build a registered environment; task-level randomness (e.g. the matching
    target) is drawn from ``rng`` so arms sharing a seed share the task."""
    if name not in ENV_BUILDERS:
        raise ConfigError(f"unknown environment {name!r}; valid names: {sorted(ENV_BUILDERS)}")
    if rng is None:
        rng = np.random.default_rng(0)
    return ENV_BUILDERS[name](params or {}, rng)
