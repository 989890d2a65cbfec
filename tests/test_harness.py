"""Run directories, CSV round-trips, solve-time tables, and rerun determinism."""

import importlib.resources
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.config import PolicyConfig, config_from_dict, matching_task_config, save_config
from factored_pg.envs import ENV_PARAMS, make_env, solve_threshold_default
from factored_pg.errors import ConfigError, NonFiniteError, SingularSystemError
from factored_pg import harness, schema
from factored_pg.harness import (
    CSV_COLUMNS,
    build_env,
    build_policy,
    first_crossing,
    format_solve_table,
    lambda_sweep,
    load_curve,
    load_policy,
    run_experiment,
    summarize_run,
    table1_report,
)
from factored_pg.optim import IterationLog, train


def _tiny_config(out_dir, seeds=(0,), n_iterations=4):
    return config_from_dict(
        {
            "env": {
                "name": "target_matching",
                "params": {"m": 2, "target_seed": 0, "solve_threshold": -0.05},
            },
            "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
            "arms": [
                {"name": "state", "kind": "state_value", "features": "linear"},
                {"name": "action", "kind": "mean_q", "features": "quadratic", "ridge": 1e-8},
            ],
            "n_iterations": n_iterations,
            "n_trajectories": 16,
            "lam": 1.0,
            "seeds": list(seeds),
            "out_dir": str(out_dir),
        }
    )


def _fabricated_run(out_dir, crossings, n_iterations=160, threshold=-0.5, seeds=(0, 1), m=4):
    """Write a run directory of dimension ``m`` whose per-seed solve iterations
    are prescribed.

    ``crossings`` maps arm name -> 1-based solve iteration (None = never).
    """
    cfg = config_from_dict(
        {
            "env": {
                "name": "target_matching",
                "params": {"m": m, "solve_threshold": threshold},
            },
            "arms": [{"name": name, "kind": "state_value"} for name in crossings],
            "n_iterations": n_iterations,
            "seeds": list(seeds),
            "out_dir": str(out_dir),
        }
    )
    os.makedirs(os.path.join(out_dir, "curves"), exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.json"))
    for name, cross in crossings.items():
        for seed in seeds:
            path = os.path.join(out_dir, "curves", f"{name}_seed{seed}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(CSV_COLUMNS) + "\n")
                for it in range(n_iterations):
                    solved = cross is not None and it >= cross - 1
                    r = -0.1 if solved else -1.0
                    fh.write(f"{it},{seed},{name},{r},0,0,0\n")
    schema.write_json(os.path.join(out_dir, "summary.json"), summarize_run(str(out_dir)), indent=2)
    return str(out_dir)


def test_first_crossing_hand_cases():
    returns = np.array([-3.0, -2.0, -1.0])
    assert first_crossing(returns, -2.0) == 2
    assert first_crossing(returns, -3.0) == 1
    assert first_crossing(returns, -0.5) is None
    assert first_crossing(returns, -1.0) == 3


def test_table1_arithmetic_on_fabricated_curves(tmp_path):
    # state solves at 150, action at 136: improvement = 100 * 14 / 150 = 9.33%
    run = _fabricated_run(tmp_path / "run", {"state": 150, "action": 136})
    rows = table1_report([run])
    assert len(rows) == 1
    row = rows[0]
    assert row.m == 4
    assert row.reference_arm == "state"
    assert row.comparison_arm == "action"
    assert_allclose(row.arm_iterations["state"], 150.0)
    assert_allclose(row.arm_iterations["action"], 136.0)
    assert_allclose(row.delta, 14.0)
    assert_allclose(row.improvement_pct, 100.0 * 14.0 / 150.0)
    assert_allclose(row.improvement_pct, 9.333333333333334)
    text = format_solve_table(rows)
    assert "9.3%" in text
    assert "150.0 (state)" in text
    assert json.dumps(row.to_dict())  # JSON-safe payload


def test_table1_handles_unsolved_arm(tmp_path):
    run = _fabricated_run(tmp_path / "run", {"state": 10, "action": None})
    row = table1_report([run])[0]
    assert row.arm_iterations["action"] is None
    assert row.delta is None and row.improvement_pct is None
    text = format_solve_table([row])
    assert "unsolved" in text and "n/a" in text


def test_table1_rows_sorted_by_dimension(tmp_path):
    big = _fabricated_run(tmp_path / "big", {"state": 20, "action": 10})
    small = _fabricated_run(tmp_path / "small", {"state": 6, "action": 3}, m=2)
    rows = table1_report([big, small])
    assert [r.m for r in rows] == [2, 4]


def test_table1_reads_the_dimension_of_the_run_not_of_a_later_config(tmp_path):
    run = run_experiment(_tiny_config(tmp_path / "run"))
    assert harness.load_summary(run)["solve_task"] == [2, -0.05]
    cfg_path = os.path.join(run, "config.json")
    with open(cfg_path) as fh:
        raw = json.load(fh)
    raw["env"]["params"]["m"] = 7
    with open(cfg_path, "w") as fh:
        json.dump(raw, fh)
    assert table1_report([run])[0].m == 2


def test_table1_dimension_of_explicit_target(tmp_path):
    run = tmp_path / "run"
    _fabricated_run(run, {"state": 6, "action": 3})
    cfg_path = run / "config.json"
    raw = json.loads(cfg_path.read_text())
    raw["env"]["params"] = {"m": 4}
    cfg_path.write_text(json.dumps(raw))
    # the summary threshold and the table row both read m = 4 off the config
    assert summarize_run(str(run))["solve_threshold"] == solve_threshold_default(4)
    assert table1_report([str(run)])[0].m == 4


def test_table1_requires_two_arms(tmp_path):
    run = _fabricated_run(tmp_path / "run", {"state": 5})
    with pytest.raises(ValueError):
        table1_report([run])


def test_summarize_recomputes_from_csvs(tmp_path):
    run = _fabricated_run(tmp_path / "run", {"state": 150, "action": 136})
    summary = summarize_run(run)
    assert summary["solve_threshold"] == -0.5
    state = summary["arms"]["state"]
    assert state["per_seed_solve_iterations"] == [150, 150]
    assert state["mean_solve_iterations"] == 150.0
    assert state["mean_curve_solve_iterations"] == 150
    assert_allclose(state["final_mean_return"], -0.1)


def test_run_experiment_writes_full_layout(tmp_path):
    cfg = _tiny_config(tmp_path / "run")
    out = run_experiment(cfg)
    assert out == str(tmp_path / "run")
    for arm in ("state", "action"):
        curve = load_curve(os.path.join(out, "curves", f"{arm}_seed0.csv"))
        assert curve["arm"] == arm
        assert len(curve["iteration"]) == cfg.n_iterations
        assert np.all(curve["seed"] == 0)
        assert np.all(np.isfinite(curve["mean_return"]))
        with open(os.path.join(out, "checkpoints", f"{arm}_seed0.json")) as fh:
            ck = json.load(fh)
        assert ck["arm"] == arm and ck["seed"] == 0
        assert len(ck["policy"]["theta"]) == 6  # m=2 gaussian: (w, b, log_std) each
    with open(os.path.join(out, "summary.json")) as fh:
        stored = json.load(fh)
    assert stored == summarize_run(out)
    with open(os.path.join(out, "config.json")) as fh:
        assert json.load(fh)["n_trajectories"] == 16
    # every file was renamed into place
    assert [name for _, _, names in os.walk(out) for name in names if name.endswith(".tmp")] == []


def test_interrupted_rerun_is_refused_by_the_table(tmp_path, monkeypatch):
    """A rerun that stops on its second arm leaves the first arm's new curve
    next to the second arm's old one. The old summary.json is gone, so the
    table refuses the directory instead of mixing the two runs."""
    from factored_pg.cli import main

    cfg = _tiny_config(tmp_path / "run", n_iterations=2)
    out = run_experiment(cfg)
    assert len(table1_report([out])) == 1
    real_train = harness.train

    def stop_on_second_arm(env, policy, spec, **kwargs):
        if spec.kind == "mean_q":
            raise RuntimeError("interrupted")
        return real_train(env, policy, spec, **kwargs)

    monkeypatch.setattr(harness, "train", stop_on_second_arm)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_experiment(replace(cfg, n_iterations=3))
    assert len(load_curve(os.path.join(out, "curves", "state_seed0.csv"))["iteration"]) == 3
    assert not os.path.exists(os.path.join(out, "summary.json"))
    with pytest.raises(ValueError, match="summary.json"):
        table1_report([out])
    assert main(["report-table1", out]) == 2


def test_a_failed_rename_leaves_no_file_at_the_final_path(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(schema.os, "replace", fail)
    path = tmp_path / "summary.json"
    with pytest.raises(OSError):
        schema.write_json(path, {"a": 1})
    assert not path.exists()
    with pytest.raises(OSError, match="config.json"):
        run_experiment(_tiny_config(tmp_path / "run"))
    assert not (tmp_path / "run" / "config.json").exists()


def test_tabular_state_arm_checkpoint_round_trips(tmp_path):
    chain = importlib.resources.files("factored_pg").joinpath("fixtures", "chain_two_step.json")
    cfg = config_from_dict(
        {
            "env": {"name": "tabular", "params": {"path": str(chain)}},
            "policy": {"features": "indicator"},
            "arms": [{"name": "state", "kind": "state_value", "tabular": True}],
            "n_iterations": 2,
            "n_trajectories": 8,
            "seeds": [0],
            "out_dir": str(tmp_path / "run"),
        }
    )
    out = run_experiment(cfg)
    with open(os.path.join(out, "checkpoints", "state_seed0.json")) as fh:
        checkpoint = json.load(fh)
    assert sorted(checkpoint) == ["arm", "iterations", "policy", "rng_scheme", "seed"]
    assert load_policy(out, "state", 0).theta.tolist() == checkpoint["policy"]["theta"]


def _chain_config(out_dir):
    chain = importlib.resources.files("factored_pg").joinpath("fixtures", "chain_two_step.json")
    return config_from_dict(
        {
            "env": {"name": "tabular", "params": {"path": str(chain)}},
            "policy": {"features": "indicator"},
            "arms": [
                {"name": "state", "kind": "state_value", "tabular": True},
                {"name": "action", "kind": "mc_q", "exact": True, "tabular": True},
            ],
            "n_iterations": 3,
            "n_trajectories": 8,
            "seeds": [1],
            "out_dir": str(out_dir),
        }
    )


@pytest.mark.parametrize("make_config", [
    lambda out: replace(matching_task_config(3, seeds=(1,), n_iterations=3, out_dir=str(out)),
                        n_trajectories=12),
    _chain_config,
], ids=["gaussian", "categorical_indicator"])
def test_load_policy_matches_the_trained_policy(tmp_path, make_config):
    cfg = make_config(tmp_path / "run")
    out = run_experiment(cfg)
    env = build_env(cfg)
    rngs = [np.random.default_rng(k) for k in range(5)]
    states = env.reset(rngs)
    for arm in cfg.arms:
        trained = train(env, build_policy(env, cfg.policy), arm.spec,
                        n_iterations=cfg.n_iterations, n_trajectories=cfg.n_trajectories,
                        seed=1, optimizer=cfg.optimizer, lam=cfg.lam,
                        normalize=cfg.normalize).policy
        loaded = load_policy(out, arm.name, 1)
        assert type(loaded) is type(trained)
        assert np.array_equal(loaded.theta, trained.theta)
        assert np.any(trained.theta != 0.0)
        actions = trained.sample(states, rngs)
        assert np.array_equal(loaded.log_prob(states, actions), trained.log_prob(states, actions))
        assert np.array_equal(loaded.score_matrix(states, actions),
                              trained.score_matrix(states, actions))


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_config(tmp_path / "run", seeds=(0, 1), n_iterations=3)
    out = run_experiment(cfg)

    def snapshot():
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
        return files

    first = snapshot()
    run_experiment(cfg)
    second = snapshot()
    assert first.keys() == second.keys()
    for path in first:
        assert first[path] == second[path], f"{path} changed across reruns"


def test_run_experiment_echo_lines(tmp_path):
    lines = []
    run_experiment(_tiny_config(tmp_path / "run", n_iterations=2), echo=lines.append)
    assert len(lines) == 2  # one per (arm, seed)
    assert all("final mean return" in line for line in lines)


def test_load_curve_rejects_foreign_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,foo\n0,1\n")
    with pytest.raises(ValueError):
        load_curve(str(path))


def test_curve_floats_round_trip_exactly(tmp_path):
    from factored_pg.harness import _write_curve

    logs = [
        IterationLog(0, 0.1 + 0.2, 1.0 / 3.0, 2.0**-40, np.nextafter(0.025, 1)),
        IterationLog(1, -1e300, 5e-324, 0.0, 1.0),
    ]
    os.makedirs(tmp_path / "curves")
    _write_curve(str(tmp_path), "arm", 3, logs)
    curve = load_curve(str(tmp_path / "curves" / "arm_seed3.csv"))
    assert curve["mean_return"][0] == 0.1 + 0.2
    assert curve["sd_return"][0] == 1.0 / 3.0
    assert curve["grad_variance"][0] == 2.0**-40
    assert curve["realized_kl"][0] == np.nextafter(0.025, 1)
    assert curve["mean_return"][1] == -1e300
    assert curve["sd_return"][1] == 5e-324


def test_lambda_sweep_layout_and_validation(tmp_path):
    cfg = _tiny_config(tmp_path / "sweep", n_iterations=2)
    with pytest.raises(ConfigError):
        lambda_sweep(cfg, [0.5, 1.2])
    out = lambda_sweep(cfg, [0.0, 1.0])
    assert set(out) == {0.0, 1.0}
    for lam, run_dir in out.items():
        assert run_dir == os.path.join(cfg.out_dir, f"lam_{lam}")
        assert os.path.exists(os.path.join(run_dir, "summary.json"))
        with open(os.path.join(run_dir, "config.json")) as fh:
            assert json.load(fh)["lam"] == lam


def test_build_policy_shapes_and_indicator_rejection():
    cfg = _tiny_config("unused")
    env = build_env(cfg)
    policy = build_policy(env, cfg.policy)
    assert policy.m == 2
    assert policy.n_params == 6
    with pytest.raises(ConfigError):
        build_policy(env, replace(cfg.policy, features="indicator"))


@pytest.mark.parametrize("name", sorted(ENV_PARAMS))
def test_build_policy_family_follows_env_cardinalities(name):
    chain = importlib.resources.files("factored_pg").joinpath("fixtures", "chain_two_step.json")
    env = make_env(name, {"path": str(chain)} if name == "tabular" else {})
    policy = build_policy(env, PolicyConfig())
    assert policy.m == env.spec.n_factors
    if env.cardinalities is None:
        assert policy.kind == "gaussian"
    else:
        assert isinstance(env.cardinalities, tuple)
        assert policy.kind == "categorical"
        assert policy.cardinalities == env.cardinalities


def test_build_env_target_seed_controls_task():
    a = build_env(_tiny_config("unused"))
    cfg2 = config_from_dict(
        {
            "env": {"name": "target_matching", "params": {"m": 2, "target_seed": 9}},
            "arms": [{"kind": "state_value"}, {"kind": "mean_q"}],
        }
    )
    b = build_env(cfg2)
    again = build_env(_tiny_config("elsewhere"))
    assert np.array_equal(a.target, again.target)
    assert not np.array_equal(a.target, b.target)


def test_run_experiment_names_the_arm_of_a_non_finite_run(tmp_path, monkeypatch, nan_reward_env):
    monkeypatch.setattr(harness, "build_env", lambda cfg: nan_reward_env)
    with pytest.raises(NonFiniteError, match="arm 'state': .* iteration 0, seed 0"):
        run_experiment(_tiny_config(tmp_path / "run"))
    assert os.listdir(tmp_path / "run" / "curves") == []


@pytest.mark.parametrize("field", ["mean_return", "sd_return", "grad_variance", "realized_kl"])
def test_write_curve_names_the_arm_of_a_non_finite_log(tmp_path, field):
    os.makedirs(tmp_path / "curves")
    logs = [IterationLog(0, 0.0, 0.0, 0.0, 0.0),
            replace(IterationLog(1, 0.0, 0.0, 0.0, 0.0), **{field: np.nan})]
    with pytest.raises(NonFiniteError, match="arm 'state': .* iteration 1, seed 2"):
        harness._write_curve(str(tmp_path), "state", 2, logs)
    assert os.listdir(tmp_path / "curves") == []


def test_run_experiment_names_the_arm_of_a_failed_solve(tmp_path):
    # the matching task has one state, so an unregularized state fit on
    # [s, 1] is rank-deficient at the first refit
    cfg = _tiny_config(tmp_path / "run")
    flat = replace(cfg.arms[0], name="flat", spec=replace(cfg.arms[0].spec, ridge=0.0))
    cfg = replace(cfg, arms=(flat,))
    with pytest.raises(SingularSystemError, match="arm 'flat': rank-deficient .* iteration 0, seed 0"):
        run_experiment(cfg)
    assert os.listdir(tmp_path / "run" / "curves") == []


@pytest.mark.parametrize("env, policy, arm, match", [
    ("chain", {"features": "indicator"}, {"name": "mean", "kind": "mean_q"},
     "arm 'mean': mean_q .* continuous factors"),
    ("matching", {}, {"name": "sum", "kind": "mc_q", "exact": True},
     "arm 'sum': exact mc_q .* categorical factors"),
    ("matching", {"features": "indicator"}, {"name": "state", "kind": "state_value"},
     "indicator policy features need categorical factors"),
], ids=["mean_q-categorical", "exact_mc_q-gaussian", "indicator-gaussian"])
def test_incompatible_arm_or_policy_fails_before_the_run_directory(tmp_path, env, policy, arm, match):
    chain = importlib.resources.files("factored_pg").joinpath("fixtures", "chain_two_step.json")
    envs = {"chain": {"name": "tabular", "params": {"path": str(chain)}},
            "matching": {"name": "target_matching", "params": {"m": 2}}}
    cfg = config_from_dict({
        "env": envs[env], "policy": policy,
        "arms": [{"name": "fine", "kind": "state_value"}, arm],
        "n_iterations": 2, "n_trajectories": 4, "seeds": [0], "out_dir": str(tmp_path / "run"),
    })
    with pytest.raises(ConfigError, match=match):
        run_experiment(cfg)
    assert not os.path.exists(tmp_path / "run")
