"""Config layout: defaults, validation, round-trips, the frozen matching recipe."""

import json

import pytest

from factored_pg.config import (
    ArmConfig,
    EnvConfig,
    ExperimentConfig,
    OptimizerConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    matching_task_config,
    save_config,
)
from factored_pg.envs import PointMassParams, TargetMatchingParams
from factored_pg.errors import ConfigError
from factored_pg.verify import fixture_path

MINIMAL = {
    "env": {"name": "target_matching", "params": {"m": 4}},
    "arms": [{"kind": "state_value"}, {"name": "action", "kind": "mean_q"}],
}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.env.name == "target_matching"
    assert cfg.optimizer.kind == "npg"
    assert cfg.n_iterations == 100
    assert cfg.n_trajectories == 150
    assert cfg.lam == 0.97
    assert cfg.normalize is True
    assert cfg.seeds == (0, 1, 2, 3, 4)
    # unnamed arms inherit their kind as the name
    assert [arm.name for arm in cfg.arms] == ["state_value", "action"]


def test_env_feature_defaults_per_environment():
    cfg = config_from_dict(dict(MINIMAL))
    assert all(arm.spec.features == "linear" for arm in cfg.arms)
    pm = config_from_dict(
        {"env": {"name": "point_mass"}, "arms": [{"kind": "state_value"}]}
    )
    assert pm.arms[0].spec.features == "rff"
    assert pm.arms[0].spec.n_features == 100
    tab = config_from_dict(
        {"env": {"name": "tabular", "params": {"path": fixture_path("chain_two_step")}},
         "arms": [{"kind": "state_value"}]}
    )
    assert tab.arms[0].spec.features == "rff"
    assert tab.arms[0].spec.n_features == 250
    # a tabular arm takes none of the environment's regression defaults
    tab = config_from_dict(
        {"env": {"name": "tabular", "params": {"path": fixture_path("chain_two_step")}},
         "arms": [{"kind": "state_value", "tabular": True}]}
    )
    assert tab.arms[0].spec.features == "linear"


def test_arm_fields_pass_through():
    cfg = config_from_dict(
        {
            "env": {"name": "target_matching"},
            "arms": [
                {
                    "name": "a",
                    "kind": "mc_q",
                    "mc_samples": 25,
                    "exact": True,
                    "features": "quadratic",
                    "ridge": 1e-8,
                    "tabular": False,
                }
            ],
        }
    )
    spec = cfg.arms[0].spec
    assert spec.mc_samples == 25
    assert spec.exact is True
    assert spec.features == "quadratic"
    assert spec.ridge == 1e-8


def test_ints_accepted_for_float_fields():
    cfg = config_from_dict(
        {
            "env": {"name": "target_matching"},
            "policy": {"log_std_init": 0},
            "optimizer": {"kl": 1, "damping": 0},
            "arms": [{"kind": "state_value", "ridge": 2}],
            "lam": 1,
        }
    )
    values = (cfg.policy.log_std_init, cfg.optimizer.kl, cfg.optimizer.damping,
              cfg.arms[0].spec.ridge, cfg.lam)
    assert values == (0.0, 1.0, 0.0, 2.0, 1.0)
    assert all(type(v) is float for v in values)
    assert json.dumps(config_to_dict(cfg)["optimizer"]["kl"]) == "1.0"


def test_round_trip_through_dict_and_file(tmp_path):
    cfg = matching_task_config(12, seeds=(3, 4))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # the saved form is fully resolved, so a naive json reader sees every field
    raw = json.loads(path.read_text())
    assert raw["optimizer"]["kl"] == 0.025
    assert raw["arms"][1]["ridge"] == 1e-8


def test_malformed_json_reports_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps([MINIMAL]))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("env"),
        lambda d: d.pop("arms"),
        lambda d: d.update(arms=[]),
        lambda d: d.update(arms=[{"kind": "nope"}]),
        lambda d: d.update(arms=[{"kind": "state_value", "bogus": 1}]),
        lambda d: d.update(arms=[{"kind": "state_value"}, {"kind": "state_value"}]),
        lambda d: d.update(optimizer={"kind": "adam"}),
        lambda d: d.update(lam=1.5),
        lambda d: d.update(n_iterations=0),
        lambda d: d.update(seeds=[]),
        lambda d: d.update(typo_field=3),
        lambda d: d.update(arms=[{"kind": "mc_q", "exact": True, "max_aggregation": True}]),
        lambda d: d.update(arms=[{"kind": "state_value", "ridge": -1}]),
        lambda d: d.update(arms=[{"kind": "state_value", "features": "rff", "n_features": 0}]),
        lambda d: d.update(arms=[{"kind": "state_value", "features": "cubic"}]),
        lambda d: d.update(arms=[{"kind": "mc_q", "mc_samples": 0}]),
        lambda d: d["env"].update(bogus=1),
        lambda d: d.update(policy={"featurs": "linear"}),
        lambda d: d.update(optimizer={"klx": 0.1}),
        lambda d: d.update(normalize="false"),
        lambda d: d.update(arms=[{"kind": "mc_q", "exact": "false"}]),
        lambda d: d.update(arms=[{"kind": "optimal_action", "exact": True}]),
        lambda d: d.update(arms=[{"kind": "mean_q", "exact": True}]),
        lambda d: d.update(arms=[{"kind": "state_value", "exact": True}]),
        lambda d: d.update(n_iterations=True),
        lambda d: d.update(n_iterations=2.9),
        lambda d: d.update(arms=[{"kind": "mc_q", "mc_samples": 2.5}]),
        lambda d: d.update(seeds=[0.7]),
        lambda d: d.update(seeds=3),
        lambda d: d.update(arms=["state_value"]),
        lambda d: d["env"].update(params=[1]),
        lambda d: d.update(optimizer={"kl": 0}),
        lambda d: d.update(optimizer={"kl": -1}),
        lambda d: d.update(optimizer={"kl": float("nan")}),
        lambda d: d.update(optimizer={"kind": "vanilla"}),
        lambda d: d.update(optimizer={"damping": -1}),
        lambda d: d.update(optimizer={"cg_iters": 10}),
        lambda d: d.update(policy={"features": "indikator"}),
        lambda d: d.update(policy={"log_std_init": float("inf")}),
        lambda d: d.update(seeds=[-1]),
        lambda d: d.update(seeds=[0, 2**32]),
        lambda d: d["env"].update(params={"mm": 4}),
        lambda d: d["env"].update(params={"m": "3"}),
        lambda d: d.update(env={"name": "point_mass", "params": {"horizon": 2.9}}),
        lambda d: d["env"].update(params={"m": 0}),
        lambda d: d["env"].update(params={"m": 4, "target_seed": -1}),
        lambda d: d.update(env={"name": "point_mass", "params": {"gamma": 1.5}}),
        lambda d: d.update(env={"name": "point_mass", "params": {"target_seed": 0}}),
        lambda d: d.update(env={"name": "communicate_target_lite"}),
        lambda d: d.update(arms=[{"kind": "mc_q", "tabular": True, "features": "rff"}]),
        lambda d: d.update(arms=[{"kind": "dag"}]),
        lambda d: d.update(seeds=[0, 0]),
    ],
)
def test_invalid_configs_rejected(mutate):
    raw = json.loads(json.dumps(MINIMAL))
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_natural_gradient_is_the_only_optimizer_kind():
    with pytest.raises(ConfigError, match="'npg'"):
        config_from_dict(dict(MINIMAL, optimizer={"kind": "vanilla"}))


def test_arm_missing_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"env": {"name": "target_matching"}, "arms": [{"name": "x"}]})


def test_matching_task_config_frozen_protocol():
    cfg = matching_task_config(100)
    assert cfg.env.params == TargetMatchingParams(m=100, target_seed=0)
    assert cfg.optimizer == OptimizerConfig(kind="npg", kl=0.025, damping=0.1)
    assert cfg.n_trajectories == 250
    assert cfg.lam == 1.0
    assert cfg.normalize is True
    assert cfg.seeds == (0, 1, 2, 3, 4)
    state, action = cfg.arms
    assert (state.name, state.spec.kind, state.spec.features) == ("state", "state_value", "linear")
    assert (action.name, action.spec.kind, action.spec.features) == ("action", "mean_q", "quadratic")
    assert action.spec.ridge == 1e-8
    # iteration budget scales with problem size unless pinned
    assert matching_task_config(12).n_iterations == 120
    assert cfg.n_iterations == 420
    assert matching_task_config(12, n_iterations=7).n_iterations == 7


def test_direct_dataclass_validation():
    arm = ArmConfig(name="a", spec=matching_task_config(4).arms[0].spec)
    env = EnvConfig(name="point_mass", params=PointMassParams())
    with pytest.raises(ConfigError):
        ExperimentConfig(env=env, arms=(arm,), seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(env=env, arms=(), seeds=(0,))
