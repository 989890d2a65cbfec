"""Training benchmark: one workload, one seed, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job trains one arm of the workload in a fresh child process
(``perfbench/job.py``) through ``harness.run_experiment``. Jobs alternate
between the arms, with the same seed, while another one is expected to end
within ``S`` seconds (at least one per arm); timings pool over repeats, and
every repeat must write a byte-identical curve. Without tracing, a
set-up-only child precedes every job.

With ``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` one more job per arm runs with spans recorded at every module
boundary and the last line holds the per-layer metrics. Outputs go to
``.perfbench/<workload>-seed<N>-trace<0|1>/`` in the checkout.

``--iterations K`` shortens every training run to K iterations; the
benchmark's self-test uses it. Exit code 0 means a result was printed; any
other code means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import SPANS  # noqa: E402
from workloads import ARMS, WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # every run ends well within 180 s

# Gated metrics. Host contention on a small shared VM slows every layer alike
# by up to ~1.7x for seconds to minutes. The median iteration latency then
# jumps between the fast and the slow regime from run to run, and wall time
# follows the contended share; p90 sits in the slow regime in nearly every run.
# Wall time, p10 and p50 are printed as unbounded figures.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
) + tuple((f"{arm}.iter_ms_p90", "ms") for arm in ARMS)

EXTRA_LAYER = (
    ("optim.substream", "calls_per_traj", "calls/traj"),
    ("baselines.QModel.predict", "rows_per_step", "rows/step"),
    ("features.fit_linear", "cols", "count"),
    ("features.fit_linear", "rows", "count"),
    ("features.fit_linear", "mflop_per_call", "MFLOP"),
)

PER_LAYER = tuple(
    (f"{arm}.{span}.{q}", unit)
    for arm in ARMS
    for span in SPANS
    for q, unit in (("self_ms_per_iter", "ms"), ("calls_per_iter", "calls/iter"))
) + tuple(
    (f"{arm}.{span}.{q}", unit) for arm in ARMS for span, q, unit in EXTRA_LAYER
) + (("trace.overhead_pct", "%"),)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed training run)."""


def child_env() -> tuple:
    """The caller's environment minus BLAS thread pins, so every commit runs
    the library's default thread count; returns (env, removed)."""
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in BLAS_THREAD_VARS if k in env}
    return env, removed


def spawn(args, arm: str, out: str, env: dict, deadline: float, *flags) -> dict:
    os.makedirs(out, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "job.py"), "--workload", args.workload,
        "--arm", arm, "--seed", str(args.seed), "--out", out,
    ]
    if args.iterations is not None:
        cmd += ["--iterations", str(args.iterations)]
    cmd += list(flags)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next job")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"job exited with code {proc.returncode}: {' '.join(cmd)}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def percentile(values, q: int):
    """q-th percentile (q in 1..99) by statistics.quantiles' default method;
    None when no run produced a value."""
    if len(values) < 2:
        return float(values[0]) if values else None
    return statistics.quantiles(values, n=100)[q - 1]


def arm_failure(workload: dict, entry: dict):
    if "error" in entry:
        return "raised: " + entry["error"].strip().splitlines()[-1]
    if "sha256" not in entry:
        return "no curve written"
    if not entry["finite"]:
        return "non-finite value in curve"
    if "matching_m" in workload and entry["solve_iters"] is None:
        return "never reached the solve threshold"
    return None


def check(jobs: dict, workload: dict, seed: int, full_length: bool) -> tuple:
    """Failed (arm, seed) runs and every correctness check; ``jobs`` maps each
    arm to all of its jobs, traced or not."""
    attempted = failed = 0
    problems = []
    for arm, runs in jobs.items():
        for run in runs:
            attempted += 1
            why = arm_failure(workload, run)
            if why is not None:
                failed += 1
                problems.append(f"{arm} seed {seed}: {why}")
            oracle = run.get("oracle")
            if oracle is not None and not oracle["passed"]:
                problems.append(
                    f"{arm}: last mean return {oracle['mean_return']:.6g} is "
                    f"{oracle['z']:.2f} SE from exact eta {oracle['exact_eta']:.6g} (limit 5)"
                )
        if len({run.get("sha256") for run in runs}) != 1:
            problems.append(f"{arm}: curves differ between repeated or traced jobs")
        reference = workload.get("seed0_solve_iters")
        got = runs[0].get("solve_iters")
        if seed == 0 and reference and full_length and got != reference[arm]:
            problems.append(f"{arm}: seed 0 solve_iters {got}, criterion 4 gives {reference[arm]}")
    return attempted, failed, problems


def end_to_end(jobs: dict, setups: list) -> tuple:
    """The gated metrics, and the unbounded figures printed beside them."""
    everything = [run for runs in jobs.values() for run in runs]
    setups = setups + [run["setup_s"] for run in everything if run["setup_s"] is not None]
    metrics = {
        "setup_s": percentile(setups, 50),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in everything),
    }
    figures = {
        "wall_s": sum(statistics.median(run["wall_s"] for run in runs) for runs in jobs.values()),
    }
    for arm, runs in jobs.items():
        lat = []
        for run in runs:
            stamps = run["stamps"]
            lat += [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        metrics[f"{arm}.iter_ms_p90"] = percentile(lat, 90)
        figures[f"{arm}.iter_ms_p10"] = percentile(lat, 10)
        figures[f"{arm}.iter_ms_p50"] = percentile(lat, 50)
        figures[f"{arm}.iterations"] = len(lat)
    return metrics, figures


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, untraced_wall: float) -> dict:
    metrics = {}
    for arm, run in traced.items():
        n_iter = max(len(run["stamps"]) - 1, 1)
        layers = run["layers"]
        for span in SPANS:
            metrics[f"{arm}.{span}.self_ms_per_iter"] = 1000.0 * layers[span]["self_s"] / n_iter
            metrics[f"{arm}.{span}.calls_per_iter"] = layers[span]["calls"] / n_iter
        metrics[f"{arm}.optim.substream.calls_per_traj"] = ratio(
            layers["optim.substream"]["calls"], run["trajectories"]
        )
        metrics[f"{arm}.baselines.QModel.predict.rows_per_step"] = ratio(
            layers["baselines.QModel.predict"].get("rows", 0.0), run["steps"]
        )
        fit = layers["features.fit_linear"]
        for quantity in ("cols", "rows"):
            metrics[f"{arm}.features.fit_linear.{quantity}"] = ratio(
                fit.get(quantity, 0.0), fit["calls"]
            )
        metrics[f"{arm}.features.fit_linear.mflop_per_call"] = (
            ratio(fit.get("flops", 0.0), fit["calls"]) / 1e6
        )
    traced_wall = sum(run["wall_s"] for run in traced.values())
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return metrics


def outcomes(jobs: dict) -> list:
    """Deterministic per-arm results (from each arm's first job) for the record."""
    lines = []
    for arm, runs in jobs.items():
        run = runs[0]
        solve = run.get("solve_iters")
        stamps = run["stamps"]
        solve_s = stamps[solve] if solve is not None and solve < len(stamps) else None
        line = (f"{arm}: final_return {run.get('final_return')!r} "
                f"solve_iters {solve} solve_s "
                f"{'n/a' if solve_s is None else format(solve_s, '.4f')} "
                f"curve sha256 {run.get('sha256')}")
        if "oracle" in run:
            line += f" oracle z {run['oracle']['z']:.3f} (exact eta {run['oracle']['exact_eta']:.6g})"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--iterations", type=int, default=None)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "factored_pg", "__init__.py")):
        print(f"perfbench: no factored_pg sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    env, removed = child_env()

    try:
        # Arms alternate, one job each, so both sample the same stretch of time;
        # no job starts that would be expected to end after --seconds. Without
        # tracing, a set-up-only child precedes every job, so set-up time is
        # sampled across the whole run too.
        jobs = {arm: [] for arm in ARMS}
        setups = []
        took = {}
        start = time.monotonic()
        for k in itertools.count():
            arm = ARMS[k % len(ARMS)]
            began = time.monotonic()
            if not args.trace:
                probe = spawn(args, arm, os.path.join(work, f"setup{k}"), env, deadline,
                              "--setup-only")
                setups.append(probe["setup_s"])
            jobs[arm].append(
                spawn(args, arm, os.path.join(work, f"{arm}{len(jobs[arm])}"), env, deadline)
            )
            took[arm] = time.monotonic() - began
            following = ARMS[(k + 1) % len(ARMS)]
            if len(took) == len(ARMS) and (
                time.monotonic() - start + took[following] > args.seconds
            ):
                break
        traced = {}
        if args.trace:
            for arm in ARMS:
                traced[arm] = spawn(args, arm, os.path.join(work, f"{arm}-traced"), env,
                                    deadline, "--trace")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = {arm: jobs[arm] + ([traced[arm]] if traced else []) for arm in ARMS}
    attempted, failed, problems = check(checked, workload, args.seed, args.iterations is None)
    e2e, figures = end_to_end(jobs, setups)
    if args.trace:
        metrics = per_layer(traced, figures["wall_s"])
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)

    machine = dict(jobs[ARMS[0]][0]["machine"], blas_thread_env_removed=removed)
    print(f"workload {args.workload} seed {args.seed}: jobs "
          + ", ".join(f"{arm} {len(runs)}" for arm, runs in jobs.items())
          + (" + 1 traced per arm" if traced else "") + f"; machine {json.dumps(machine)}")
    for line in outcomes(jobs):
        print("  " + line)
    print("  unbounded: " + ", ".join(f"{k} {v}" for k, v in figures.items()))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    print(f"  failed/attempted: {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(work, "summary.json"), "w") as fh:
        json.dump(dict(result, machine=machine, outcomes=outcomes(jobs), figures=figures),
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
