"""Experiment configuration: a documented JSON layout with defaults.

Layout (all fields overridable; defaults shown):

{
  "env": {"name": "target_matching", "params": {"m": 12, "target_seed": 0}},
  "policy": {"features": "linear", "log_std_init": 0.0},
  "optimizer": {"kind": "npg", "lr": 0.05, "kl": 0.025,
                "cg_iters": 10, "damping": 0.0001},
  "arms": [{"name": "state", "kind": "state_value"},
           {"name": "action", "kind": "mean_q"}],
  "n_iterations": 100,
  "n_trajectories": 150,
  "lam": 0.97,
  "normalize": true,
  "seeds": [0, 1, 2, 3, 4],
  "out_dir": "results/run"
}

Arm entries accept every baseline field (kind, mc_samples, exact, features,
n_features, ridge, tabular); unset baseline feature kinds default per
environment: raw linear features on the matching task, 100 random Fourier
features on point mass, 250 elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .baselines import BASELINE_KINDS, BaselineSpec
from .errors import ConfigError

_ENV_FEATURE_DEFAULTS = {
    "target_matching": ("linear", 0),
    "point_mass": ("rff", 100),
}
_FALLBACK_FEATURES = ("rff", 250)


@dataclass(frozen=True)
class EnvConfig:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PolicyConfig:
    features: str = "linear"  # linear | indicator
    log_std_init: float = 0.0


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "npg"  # npg | vanilla
    lr: float = 0.05
    kl: float = 0.025
    cg_iters: int = 10
    damping: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("npg", "vanilla"):
            raise ConfigError(f"optimizer kind must be 'npg' or 'vanilla', got {self.kind!r}")


@dataclass(frozen=True)
class ArmConfig:
    name: str
    spec: BaselineSpec


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig
    arms: tuple
    seeds: tuple
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
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lam must lie in [0, 1], got {self.lam}")
        if self.n_iterations < 1 or self.n_trajectories < 1:
            raise ConfigError("n_iterations and n_trajectories must be >= 1")


def _default_features(env_name: str) -> tuple:
    return _ENV_FEATURE_DEFAULTS.get(env_name, _FALLBACK_FEATURES)


def _arm_from_dict(d: dict, env_name: str) -> ArmConfig:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind is None:
        raise ConfigError("each arm needs a baseline 'kind'")
    if kind not in BASELINE_KINDS:
        raise ConfigError(f"unknown baseline kind {kind!r}; valid kinds: {list(BASELINE_KINDS)}")
    name = d.pop("name", kind)
    feat_kind, feat_count = _default_features(env_name)
    try:
        spec = BaselineSpec(
            kind=kind,
            mc_samples=int(d.pop("mc_samples", 10)),
            exact=bool(d.pop("exact", False)),
            features=str(d.pop("features", feat_kind)),
            n_features=int(d.pop("n_features", feat_count or 100)),
            ridge=None if d.get("ridge") is None else float(d.get("ridge")),
            tabular=bool(d.pop("tabular", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"arm {name!r}: {exc}") from exc
    d.pop("ridge", None)
    if d:
        raise ConfigError(f"unknown arm fields: {sorted(d)}")
    return ArmConfig(name=name, spec=spec)


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    env_raw = raw.pop("env", None)
    if not isinstance(env_raw, dict) or "name" not in env_raw:
        raise ConfigError("config requires env: {name, params}")
    env = EnvConfig(name=env_raw["name"], params=dict(env_raw.get("params", {})))

    arms_raw = raw.pop("arms", None)
    if not arms_raw:
        raise ConfigError("config requires a non-empty arms list")
    arms = tuple(_arm_from_dict(a, env.name) for a in arms_raw)

    pol_raw = dict(raw.pop("policy", {}))
    policy = PolicyConfig(
        features=pol_raw.get("features", "linear"),
        log_std_init=float(pol_raw.get("log_std_init", 0.0)),
    )
    opt_raw = dict(raw.pop("optimizer", {}))
    optimizer = OptimizerConfig(
        kind=opt_raw.get("kind", "npg"),
        lr=float(opt_raw.get("lr", 0.05)),
        kl=float(opt_raw.get("kl", 0.025)),
        cg_iters=int(opt_raw.get("cg_iters", 10)),
        damping=float(opt_raw.get("damping", 1e-4)),
    )

    known = {
        "seeds": tuple(int(s) for s in raw.pop("seeds", (0, 1, 2, 3, 4))),
        "n_iterations": int(raw.pop("n_iterations", 100)),
        "n_trajectories": int(raw.pop("n_trajectories", 150)),
        "lam": float(raw.pop("lam", 0.97)),
        "normalize": bool(raw.pop("normalize", True)),
        "out_dir": str(raw.pop("out_dir", "results/run")),
    }
    if raw:
        raise ConfigError(f"unknown config fields: {sorted(raw)}")
    return ExperimentConfig(env=env, arms=arms, policy=policy, optimizer=optimizer, **known)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved form: every field explicit, suitable for provenance."""
    return {
        "env": {"name": cfg.env.name, "params": dict(cfg.env.params)},
        "policy": asdict(cfg.policy),
        "optimizer": asdict(cfg.optimizer),
        "arms": [{"name": arm.name, **asdict(arm.spec)} for arm in cfg.arms],
        "n_iterations": cfg.n_iterations,
        "n_trajectories": cfg.n_trajectories,
        "lam": cfg.lam,
        "normalize": cfg.normalize,
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
    }


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def matching_task_config(
    m: int,
    seeds=(0, 1, 2, 3, 4),
    n_iterations: int | None = None,
    out_dir: str = "results/matching",
    optimizer_kind: str = "npg",
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
            "optimizer": {"kind": optimizer_kind, "lr": 0.05, "kl": 0.025, "damping": 0.1},
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
