"""One benchmark job in a fresh process: one arm of one workload, one seed.

Started by ``perfbench/run.py`` from the checkout root. Usage:

    python3 perfbench/job.py --workload NAME --arm state|action --seed N
        --out DIR --spawned-at T [--trace] [--setup-only] [--iterations K]

``T`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start and imports. The job writes ``DIR/result.json``; with
``--trace`` it also writes the spans to ``DIR/spans.npz``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from factored_pg import harness  # noqa: E402
from factored_pg.config import config_from_dict, matching_task_config  # noqa: E402
from factored_pg.envs import solve_threshold_default  # noqa: E402
from factored_pg.oracle import EnumerableProblem, exact_eta  # noqa: E402

import spans  # noqa: E402
from workloads import ARMS, WORKLOADS  # noqa: E402


class SetupDone(Exception):
    """Raised at the first train call of a --setup-only job."""


def build_config(workload: dict, arm: str, seed: int, iterations: int, out_dir: str):
    if "matching_m" in workload:
        cfg = matching_task_config(
            workload["matching_m"], seeds=(seed,), n_iterations=iterations, out_dir=out_dir
        )
        return replace(cfg, arms=tuple(a for a in cfg.arms if a.name == arm))
    raw = copy.deepcopy(workload["config"])
    raw["arms"] = [a for a in raw["arms"] if a["name"] == arm]
    raw.update(seeds=[seed], n_iterations=iterations, out_dir=out_dir)
    if raw["env"]["name"] == "tabular":
        raw["env"]["params"]["path"] = os.path.join(ROOT, raw["env"]["params"]["path"])
    return config_from_dict(raw)


class Clock:
    """Wraps ``harness.train`` to time set-up and every iteration of the one
    training run a job makes.

    ``run_experiment`` passes no callback, so the wrapper supplies the one
    ``train`` already accepts; it does not touch the computation. The callback
    also keeps the policy that generated the last batch, for the oracle check.
    """

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.first_train = None
        self.stamps: list = []
        self.steps = 0
        self.trajectories = 0
        self.last_policy = None
        self.last_log = None
        self.original = harness.train
        harness.train = self.train

    def train(self, *args, **kwargs):
        self.first_train = time.monotonic()
        if self.setup_only:
            raise SetupDone
        self.stamps.append(self.first_train)
        return self.original(*args, callback=self.callback, **kwargs)

    def callback(self, it, batch, policy, log):
        self.stamps.append(time.monotonic())
        self.steps += batch.n_steps
        self.trajectories += batch.n_trajectories
        self.last_policy = policy
        self.last_log = log


def curve_facts(path: str, limit) -> dict:
    """Hash, finiteness and threshold crossing of one curve CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    curve = harness.load_curve(path)
    numeric = [curve[c] for c in ("mean_return", "sd_return", "grad_variance", "realized_kl")]
    finite = all(bool(np.all(np.isfinite(col))) for col in numeric)
    returns = curve["mean_return"]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "finite": finite,
        "solve_iters": None if limit is None else harness.first_crossing(returns, limit),
        "final_return": float(returns[-1]) if len(returns) else None,
    }


def oracle_check(cfg, clock: Clock) -> dict:
    """Last logged mean return against the exact return of the policy that
    generated that batch (the repo's independent oracle), in standard errors."""
    env = harness.build_env(cfg)
    eta = exact_eta(EnumerableProblem(env, clock.last_policy))
    log = clock.last_log
    se = log.sd_return / math.sqrt(cfg.n_trajectories)
    z = (log.mean_return - eta) / se if se > 0 else (0.0 if log.mean_return == eta else math.inf)
    return {"exact_eta": float(eta), "mean_return": float(log.mean_return), "se": float(se),
            "z": float(z), "passed": bool(abs(z) <= 5.0)}


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_job(name: str, arm: str, seed: int, out: str, trace: bool, setup_only: bool,
            iterations: int | None, spawned_at: float) -> dict:
    workload = WORKLOADS[name]
    clock = Clock(setup_only)
    tracer = None
    run_experiment = harness.run_experiment
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        run_experiment = tracer.wrap("harness.run_experiment", run_experiment)
        clock.original = tracer.wrap("optim.train", clock.original)

    cfg = build_config(workload, arm, seed, iterations or workload["iterations"][arm], out)
    entry = {}
    t0 = time.monotonic()
    try:
        run_experiment(cfg)
    except SetupDone:
        return {"setup_s": clock.first_train - spawned_at}
    except Exception:  # a failed training run is a result, not a crash
        entry["error"] = traceback.format_exc()
    entry["wall_s"] = time.monotonic() - t0
    entry["stamps"] = [t - clock.stamps[0] for t in clock.stamps] if clock.stamps else []
    entry["steps"] = clock.steps
    entry["trajectories"] = clock.trajectories
    curve = harness._curve_path(cfg.out_dir, arm, seed)
    if "error" not in entry and os.path.exists(curve):
        limit = solve_threshold_default(workload["matching_m"]) if "matching_m" in workload else None
        entry.update(curve_facts(curve, limit))

    result = {
        "setup_s": clock.first_train - spawned_at if clock.first_train else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.summarize(tracer)
        tracer.save(os.path.join(out, "spans.npz"), arm, seed)
    if workload.get("oracle_check") and clock.last_policy is not None:
        entry["oracle"] = oracle_check(cfg, clock)  # untimed
    result.update(entry)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--arm", required=True, choices=ARMS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--iterations", type=int, default=None)
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    result = run_job(args.workload, args.arm, args.seed, args.out, args.trace,
                     args.setup_only, args.iterations, args.spawned_at)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
