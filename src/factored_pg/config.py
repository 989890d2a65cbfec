"""Experiment configuration: a documented JSON layout with defaults.

Layout (all fields overridable; defaults shown):

{
  "env": {"name": "target_matching",
          "params": {"m": 12, "target_seed": 0, "solve_threshold": null}},
  "policy": {"features": "linear", "log_std_init": 0.0},
  "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.0001},
  "arms": [{"name": "state", "kind": "state_value"},
           {"name": "action", "kind": "mean_q"}],
  "n_iterations": 100,
  "n_trajectories": 150,
  "lam": 0.97,
  "normalize": true,
  "seeds": [0, 1, 2, 3, 4],
  "out_dir": "results/run"
}

Each section is read into its dataclass, where its defaults live, by one
parser (``schema.section``). ``env.params`` is read into the params dataclass
of the named environment (``envs.ENV_PARAMS``), so a bad name, key, type or
value is a ``ConfigError`` before anything is written. The other names take
``point_mass``: {"horizon": 100, "gamma": 0.995} and ``tabular``:
{"path": <fixture JSON>} (required). ``npg`` is the only optimizer kind,
and ``normalize`` must be true: training always whitens its advantages.

Arm entries accept a ``name`` (default: the kind) and every baseline field
(kind, mc_samples, exact, features, n_features, ridge, tabular); unset
baseline feature kinds take the environment's default
(``baseline_features`` on its params): raw linear features on the matching
task, 100 random Fourier features on point mass, 250 on tabular MDPs. Only
an ``rff`` arm takes ``n_features``, a ``ridge`` is null (the default ridge)
or finite and > 0, and a ``tabular`` arm takes no features, n_features or
ridge.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .baselines import BaselineSpec
from .envs import EnvParams, env_params
from .errors import ConfigError
from .optim import OptimizerConfig
from .schema import json_object, section, write_json


@dataclass(frozen=True)
class EnvConfig:
    name: str
    params: EnvParams


@dataclass(frozen=True)
class PolicyConfig:
    features: str = "linear"  # linear | indicator
    log_std_init: float = 0.0

    def __post_init__(self):
        if self.features not in ("linear", "indicator"):
            raise ConfigError(f"policy features must be linear or indicator, got {self.features!r}")
        if not math.isfinite(self.log_std_init):
            raise ConfigError(f"log_std_init must be finite, got {self.log_std_init}")


@dataclass(frozen=True)
class ArmConfig:
    name: str
    spec: BaselineSpec


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig
    arms: tuple
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    policy: PolicyConfig = PolicyConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    n_iterations: int = 100
    n_trajectories: int = 150
    lam: float = 0.97
    normalize: bool = True
    out_dir: str = "results/run"

    def __post_init__(self):
        if not self.arms:
            raise ConfigError("at least one baseline arm required")
        names = [arm.name for arm in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError(f"arm names must be unique, got {names}")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            # a repeated seed would overwrite its curve and count twice in the summary
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")
        if min(self.seeds) < 0 or max(self.seeds) >= 2**32:
            # each seed is one uint32 word of every keyed generator's seed sequence
            raise ConfigError(f"seeds must lie in [0, 2**32), got {list(self.seeds)}")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lam must lie in [0, 1], got {self.lam}")
        if self.n_iterations < 1 or self.n_trajectories < 1:
            raise ConfigError("n_iterations and n_trajectories must be >= 1")
        if not self.normalize:
            raise ConfigError("normalize must be true: training always whitens its advantages")


def _arm(raw, feature_defaults: dict) -> ArmConfig:
    # the environment's feature defaults sit under the arm's own keys; a
    # tabular arm keys on raw rows and takes none, and only random features
    # read the environment's n_features
    raw = json_object(raw, "arm")
    defaults = {} if raw.get("tabular") is True else dict(feature_defaults)
    if raw.get("features", defaults.get("features")) != "rff":
        defaults.pop("n_features", None)
    spec_raw = {**defaults, **raw}
    name = spec_raw.pop("name", spec_raw.get("kind"))
    where = f"arm {name!r}"
    return section(ArmConfig, {"name": name}, where, spec=section(BaselineSpec, spec_raw, where))


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = json_object(raw, "config")
    env_raw = json_object(raw.get("env"), "env")
    env = section(EnvConfig, env_raw, "env",
                  params=env_params(env_raw.get("name"), env_raw.get("params", {})))
    arms = raw.get("arms")
    if not isinstance(arms, list):
        raise ConfigError(f"config requires arms: a list of objects, got {type(arms).__name__}")
    return section(ExperimentConfig, raw, "config", env=env,
                   arms=tuple(_arm(a, env.params.baseline_features) for a in arms))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved form: every field explicit, suitable for provenance."""
    out = asdict(cfg)
    out.update(arms=[{"name": arm.name, **asdict(arm.spec)} for arm in cfg.arms],
               seeds=list(cfg.seeds))
    return out


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(path, config_to_dict(cfg), indent=2)


def matching_task_config(
    m: int,
    seeds=(0, 1, 2, 3, 4),
    n_iterations: int | None = None,
    out_dir: str = "results/matching",
) -> ExperimentConfig:
    """The two-arm comparison this package exists to run, at dimension m.

    Calibration notes, shared by both arms so the comparison stays fair:

    - Natural-gradient steps (kl 0.025) rather than a fixed learning rate: a
      constant step cannot track the shrinking action scale near the target,
      so constant-rate runs plateau above the solve threshold.
    - 250 trajectories per iteration, which keeps the quadratic-feature
      return regression (2m + 1 coefficients) overdetermined through m = 100.
    - The action arm fits the return on [s, a, a^2] features with a tiny
      explicit ridge. The reward is an exact quadratic in the action, so this
      model class contains it; raw linear features cannot represent the
      curvature that dominates returns once the policy mean is near the
      target, and an auto-scaled ridge over-shrinks the true coefficients.
    - Fisher damping 0.1: with per-factor advantages the gradient leaves the
      span of the sampled joint scores, and smaller damping lets conjugate
      gradient push through weakly sampled curvature directions.

    ``n_iterations`` defaults to a horizon comfortably past the slower arm's
    solve threshold at the given m.
    """
    if n_iterations is None:
        n_iterations = 120 if m <= 12 else 420
    return config_from_dict(
        {
            "env": {"name": "target_matching", "params": {"m": m, "target_seed": 0}},
            "policy": {"features": "linear", "log_std_init": 0.0},
            "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
            "arms": [
                {"name": "state", "kind": "state_value", "features": "linear"},
                {"name": "action", "kind": "mean_q", "features": "quadratic", "ridge": 1e-8},
            ],
            "n_iterations": n_iterations,
            "n_trajectories": 250,
            "lam": 1.0,
            "normalize": True,
            "seeds": list(seeds),
            "out_dir": out_dir,
        }
    )
