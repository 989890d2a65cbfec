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
- ragged categorical supports (cardinalities 2 and 3) on the
  ``bandit_two_factor`` fixture with indicator policy features: exact
  ``mc_q`` and ``optimal_action``, each with a tabular and with a quadratic
  critic, seeds 0-1, 30 iterations;
- the same fixture with the state kinds and sampled candidates, 50
  trajectories: arms ``none``, ``optimal_state`` with a tabular and with a
  quadratic critic, and sampled ``mc_q`` (K = 5) with a tabular critic,
  seeds 0-1, 30 iterations;
- ``target_matching`` at m=12, 250 trajectories: arms ``optimal_state`` on
  a linear critic and ``none``, seeds 0-1, 30 iterations.

Every run trains both arms. Prints the sha256 of each curve CSV, each
checkpoint (final theta and RNG scheme) and each run's ``summary.json`` on
both sides, and exits 1 if any of these files differs or is missing on one
side. ``config.json`` is not compared: it holds each side's own
``out_dir``. Everything is written under one temporary
directory, which is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import export, git

# Run in each side's root with that side's src/ first on sys.path; prints
# {"<run>/<arm>_seed<k>.csv", "<run>/<arm>_seed<k>.json" (checkpoint) or
# "<run>/summary.json": sha256} as one JSON line. It uses only names that
# every revision with perfbench/workloads.py has.
SIDE_SCRIPT = r"""
import hashlib, importlib.util, json, os, sys
from factored_pg.config import config_from_dict, matching_task_config
from factored_pg.harness import run_experiment

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
hashes = {}
for cfg in runs:
    run_dir = run_experiment(cfg)
    rels = [f"{sub}/{name}" for sub in ("curves", "checkpoints")
            for name in sorted(os.listdir(os.path.join(run_dir, sub)))]
    for rel in rels + ["summary.json"]:
        with open(os.path.join(run_dir, rel), "rb") as fh:
            hashes[f"{os.path.basename(run_dir)}/{os.path.basename(rel)}"] = hashlib.sha256(
                fh.read()).hexdigest()
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
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
