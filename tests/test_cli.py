"""CLI subcommands: exit codes, overrides, and output plumbing."""

import json
import os

import pytest

from factored_pg import verify
from factored_pg.cli import main
from factored_pg.config import config_to_dict, matching_task_config


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = matching_task_config(
        2, seeds=(0,), n_iterations=3, out_dir=str(tmp_path / "run")
    )
    raw = config_to_dict(cfg)
    raw["n_trajectories"] = 12
    raw["env"]["params"]["solve_threshold"] = -0.05
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_subcommand(tiny_config_path, tmp_path, capsys):
    assert main(["run", tiny_config_path]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    assert "mean solve iterations" in out
    run_dir = str(tmp_path / "run")
    assert os.path.exists(os.path.join(run_dir, "summary.json"))
    assert os.path.exists(os.path.join(run_dir, "curves", "state_seed0.csv"))
    assert os.path.exists(os.path.join(run_dir, "curves", "action_seed0.csv"))


def test_run_overrides(tiny_config_path, tmp_path, capsys):
    alt = str(tmp_path / "alt")
    code = main(["run", tiny_config_path, "--seed", "7,8", "--out", alt, "--arm", "state"])
    assert code == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(alt, "curves", "state_seed7.csv"))
    assert os.path.exists(os.path.join(alt, "curves", "state_seed8.csv"))
    assert not os.path.exists(os.path.join(alt, "curves", "action_seed7.csv"))
    with open(os.path.join(alt, "config.json")) as fh:
        stored = json.load(fh)
    assert stored["seeds"] == [7, 8]
    assert [a["name"] for a in stored["arms"]] == ["state"]


def test_run_unknown_arm_exits_2(tiny_config_path, capsys):
    assert main(["run", tiny_config_path, "--arm", "ghost"]) == 2
    assert "unknown arm names" in capsys.readouterr().err


def test_run_missing_config_exits_2(capsys):
    assert main(["run", "no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["run", str(path)]) == 2
    assert "malformed config JSON" in capsys.readouterr().err


def test_report_table1_subcommand(tiny_config_path, tmp_path, capsys):
    assert main(["run", tiny_config_path]) == 0
    capsys.readouterr()
    table_json = str(tmp_path / "table.json")
    code = main(["report-table1", str(tmp_path / "run"), "--json", table_json])
    assert code == 0
    out = capsys.readouterr().out
    assert "m | reference | comparison | delta | improvement" in out
    rows = json.loads(open(table_json).read())
    assert rows[0]["m"] == 2
    assert rows[0]["reference_arm"] == "state"
    assert rows[0]["comparison_arm"] == "action"


def test_report_table1_bad_dir_exits_2(capsys):
    assert main(["report-table1", "no/such/run"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_lambda_subcommand(tiny_config_path, tmp_path, capsys):
    sweep_dir = str(tmp_path / "sweep")
    code = main(
        ["sweep-lambda", tiny_config_path, "--lams", "0,1", "--out", sweep_dir, "--arm", "state"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=0.0" in out and "lambda=1.0" in out
    assert os.path.exists(os.path.join(sweep_dir, "lam_0.0", "summary.json"))
    assert os.path.exists(os.path.join(sweep_dir, "lam_1.0", "summary.json"))


def test_sweep_lambda_out_of_range_exits_2(tiny_config_path, capsys):
    assert main(["sweep-lambda", tiny_config_path, "--lams", "0,2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(verify.CHECKS), "verify should print one line per check"
    assert all(l.startswith("PASS") for l in lines)
    names = [l.split(":")[0] for l in lines]
    assert len(set(names)) == len(names)
    assert f"all {len(lines)} checks passed" in out


def test_verify_subcommand_exits_1_on_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", (
        lambda: verify.CheckResult("passes", True, "ok"),
        lambda: verify.CheckResult("fails", False, "off by one"),
    ))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "FAIL fails: off by one" in captured.out
    assert "1 of 2 checks failed" in captured.err


def test_run_repeated_seed_exits_2(tiny_config_path, capsys):
    assert main(["run", tiny_config_path, "--seed", "0,0"]) == 2
    assert "seeds must be unique" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
