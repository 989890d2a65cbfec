"""Check that a refactor keeps the training curves and summaries byte-identical.

Usage, from the root of a checkout:

    python3 tools/curve_hashes.py --parent REV

Runs the same short, fixed experiments in an export of ``REV`` (``git
archive``, as ``tools/bench_pairs.py`` makes it) and in this checkout, each
side importing its own ``src/``:

- ``matching_task_config(12)``, seeds 0-1, 60 iterations;
- ``matching_task_config(100)``, seed 0, 40 iterations;
- the ``point_mass`` and ``tabular_chain`` configs of
  ``perfbench/workloads.py``, seeds 0-1, 30 iterations;
- sampled candidates (K = 5 per factor) on the matching task at m=12: arms
  ``mc_q`` and ``optimal_action`` on a quadratic critic, seeds 0-1, 30
  iterations;
- the matching task at m=12 on a critic of 50 random Fourier features: arms
  ``mean_q`` and sampled ``optimal_action`` (K = 5), seeds 0-1, 30
  iterations;
- the matching task at m=12 on a tabular critic, so the table reads
  rounded Gaussian candidates and rows outside its fitted range: arms
  ``mean_q`` and sampled ``mc_q`` (K = 5), seeds 0-1, 30 iterations;
- ragged categorical supports (cardinalities 2 and 3) on the
  ``bandit_two_factor`` fixture with indicator policy features: exact
  ``mc_q`` and ``optimal_action``, each with a tabular and with a quadratic
  critic, seeds 0-1, 30 iterations;
- the same fixture on a critic of 50 random Fourier features, so the
  padded slots of the narrower support pass through the RFF candidate loop:
  exact ``mc_q`` and ``optimal_action``, seeds 0-1, 30 iterations;
- the same fixture with the state kinds and sampled candidates, 50
  trajectories: arms ``none``, ``optimal_state`` with a tabular and with a
  quadratic critic, and sampled ``mc_q`` (K = 5) with a tabular critic,
  seeds 0-1, 30 iterations;
- ``target_matching`` at m=12, 250 trajectories: arms ``optimal_state`` on
  a linear critic and ``none``, seeds 0-1, 30 iterations;
- the ``chain_two_step`` fixture with indicator policy features, 50
  trajectories: arms ``state_value``, ``optimal_state`` and exact ``mc_q``
  on the tabular environment's default critic (250 random Fourier features
  on 150 rows, so the ridge solve takes its dual form; ``optimal_state``
  takes it with sample weights), seeds 0-1, 30 iterations.

Every run trains both arms. Each side also evaluates the exact oracles on
the three committed fixtures (``verify.fixture_problem``): ``exact_eta``,
``exact_gradient`` and the ``zy_tables`` moments, and, for each oracle
baseline kind of ``make_oracle_baseline``, ``exact_pg_expectation`` with
every field of ``exact_variance``. So an oracle refactor gets the same
byte check as the curves.

Prints the sha256 of each curve CSV, each checkpoint (final theta and RNG
scheme), each run's ``summary.json`` and each oracle output on both sides,
and exits 1 if any of these differs or is missing on one side. Also prints each side's line count of ``src/**/*.py``, as ``wc -l``
counts it. ``config.json`` is not compared: it holds each side's own
``out_dir``. Everything is written under one temporary
directory, which is removed afterwards.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import export, git

# Run in each side's root with that side's src/ first on sys.path; prints
# {"<run>/<arm>_seed<k>.csv", "<run>/<arm>_seed<k>.json" (checkpoint),
# "<run>/summary.json" or "oracle/<fixture>/<quantity>": sha256} as one JSON
# line. It uses only names that every revision with perfbench/workloads.py
# has.
SIDE_SCRIPT = r"""
import hashlib, importlib.util, json, os, sys
import numpy as np
from factored_pg.config import config_from_dict, matching_task_config
from factored_pg.harness import run_experiment
from factored_pg.oracle import (exact_eta, exact_gradient, exact_pg_expectation, exact_variance,
                                make_oracle_baseline, zy_tables)
from factored_pg.verify import fixture_problem

out = sys.argv[1]
spec = importlib.util.spec_from_file_location("workloads", "perfbench/workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
runs = [
    matching_task_config(12, (0, 1), 60, os.path.join(out, "matching_m12")),
    matching_task_config(100, (0,), 40, os.path.join(out, "matching_m100")),
] + [
    config_from_dict(dict(workloads.WORKLOADS[name]["config"], n_iterations=30, seeds=[0, 1],
                          out_dir=os.path.join(out, name)))
    for name in ("point_mass", "tabular_chain")
]
runs.append(config_from_dict({
    "env": {"name": "target_matching", "params": {"m": 12, "target_seed": 0}},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": kind, "kind": kind, "mc_samples": 5, "features": "quadratic",
              "ridge": 1e-8} for kind in ("mc_q", "optimal_action")],
    "n_iterations": 30, "n_trajectories": 250, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "matching_m12_sampled"),
}))
runs.append(config_from_dict({
    "env": {"name": "target_matching", "params": {"m": 12, "target_seed": 0}},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "mean_q", "kind": "mean_q", "features": "rff", "n_features": 50},
             {"name": "optimal_action", "kind": "optimal_action", "mc_samples": 5,
              "features": "rff", "n_features": 50}],
    "n_iterations": 30, "n_trajectories": 250, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "matching_m12_rff"),
}))
runs.append(config_from_dict({
    "env": {"name": "target_matching", "params": {"m": 12, "target_seed": 0}},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "mean_q", "kind": "mean_q", "tabular": True},
             {"name": "mc_q", "kind": "mc_q", "mc_samples": 5, "tabular": True}],
    "n_iterations": 30, "n_trajectories": 250, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "matching_m12_table"),
}))
runs.append(config_from_dict({
    "env": {"name": "tabular",
            "params": {"path": "src/factored_pg/fixtures/bandit_two_factor.json"}},
    "policy": {"features": "indicator"},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "mc_q_tabular", "kind": "mc_q", "exact": True, "tabular": True},
             {"name": "mc_q_quadratic", "kind": "mc_q", "exact": True, "features": "quadratic"},
             {"name": "optimal_action_tabular", "kind": "optimal_action", "tabular": True},
             {"name": "optimal_action_quadratic", "kind": "optimal_action",
              "features": "quadratic"}],
    "n_iterations": 30, "n_trajectories": 50, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "bandit_two_factor"),
}))
runs.append(config_from_dict({
    "env": {"name": "tabular",
            "params": {"path": "src/factored_pg/fixtures/bandit_two_factor.json"}},
    "policy": {"features": "indicator"},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "mc_q_rff", "kind": "mc_q", "exact": True, "features": "rff",
              "n_features": 50},
             {"name": "optimal_action_rff", "kind": "optimal_action", "features": "rff",
              "n_features": 50}],
    "n_iterations": 30, "n_trajectories": 50, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "bandit_two_factor_rff"),
}))
runs.append(config_from_dict({
    "env": {"name": "tabular",
            "params": {"path": "src/factored_pg/fixtures/bandit_two_factor.json"}},
    "policy": {"features": "indicator"},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "none", "kind": "none"},
             {"name": "optimal_state_tabular", "kind": "optimal_state", "tabular": True},
             {"name": "optimal_state_quadratic", "kind": "optimal_state",
              "features": "quadratic"},
             {"name": "mc_q_sampled_tabular", "kind": "mc_q", "tabular": True,
              "mc_samples": 5}],
    "n_iterations": 30, "n_trajectories": 50, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "bandit_two_factor_state"),
}))
runs.append(config_from_dict({
    "env": {"name": "target_matching", "params": {"m": 12, "target_seed": 0}},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "optimal_state", "kind": "optimal_state", "features": "linear"},
             {"name": "none", "kind": "none"}],
    "n_iterations": 30, "n_trajectories": 250, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "matching_m12_state"),
}))
runs.append(config_from_dict({
    "env": {"name": "tabular",
            "params": {"path": "src/factored_pg/fixtures/chain_two_step.json"}},
    "policy": {"features": "indicator"},
    "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
    "arms": [{"name": "state_value", "kind": "state_value"},
             {"name": "optimal_state", "kind": "optimal_state"},
             {"name": "mc_q", "kind": "mc_q", "exact": True}],
    "n_iterations": 30, "n_trajectories": 50, "lam": 1.0, "seeds": [0, 1],
    "out_dir": os.path.join(out, "chain_default_rff"),
}))
hashes = {}
for cfg in runs:
    run_dir = run_experiment(cfg)
    rels = [f"{sub}/{name}" for sub in ("curves", "checkpoints")
            for name in sorted(os.listdir(os.path.join(run_dir, sub)))]
    for rel in rels + ["summary.json"]:
        with open(os.path.join(run_dir, rel), "rb") as fh:
            hashes[f"{os.path.basename(run_dir)}/{os.path.basename(rel)}"] = hashlib.sha256(
                fh.read()).hexdigest()
for name in ("bandit_two_arm", "bandit_two_factor", "chain_two_step"):
    problem = fixture_problem(name)
    # repr round-trips every float exactly; arrays hash their bytes
    values = {"eta": repr(exact_eta(problem)).encode(),
              "gradient": exact_gradient(problem).tobytes(),
              "zy_tables": repr(zy_tables(problem)).encode()}
    for kind in ("none", "state_value", "optimal_state", "marginalized_q", "optimal_action"):
        baseline = make_oracle_baseline(problem, kind)
        var = exact_variance(problem, baseline)
        values[kind] = np.hstack([
            exact_pg_expectation(problem, baseline), var.mean, var.per_factor,
            [var.total, var.cross_correction, var.decomposition_total]]).tobytes()
    for key, data in values.items():
        hashes[f"oracle/{name}/{key}"] = hashlib.sha256(data).hexdigest()
print(json.dumps(hashes))
"""
RUN_TIMEOUT_S = 600


def side_hashes(checkout: str, out: str) -> dict:
    """sha256 per '<run>/<file>' for the code in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SIDE_SCRIPT, out], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"curve runs in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(checkout: str) -> int:
    """Newlines in the ``src/**/*.py`` files of ``checkout``: the total of ``wc -l``."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    args = p.parse_args(argv)

    parent_rev = git("rev-parse", args.parent)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = tempfile.mkdtemp(prefix="curve-hashes-")
    try:
        tree = os.path.join(scratch, "parent")
        os.makedirs(tree)
        export(parent_rev, tree)
        parent = side_hashes(tree, os.path.join(scratch, "runs-parent"))
        change = side_hashes(root, os.path.join(scratch, "runs-change"))
        lines = src_lines(tree), src_lines(root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    keys = sorted(set(parent) | set(change))
    differ = [key for key in keys if parent.get(key) != change.get(key)]
    print(f"parent: {parent_rev}; change: the working tree")
    for key in keys:
        print(f"{'DIFFER' if key in differ else 'same'}  {key}")
        print(f"  parent  {parent.get(key, 'missing')}")
        print(f"  change  {change.get(key, 'missing')}")
    print(f"{len(keys) - len(differ)} of {len(keys)} files byte-identical")
    print(f"src/**/*.py lines: parent {lines[0]}, change {lines[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
