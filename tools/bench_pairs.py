"""Paired benchmark runs of a parent commit against the working tree.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json

For every workload in ``perfbench/workloads.py``, runs
``python3 perfbench/run.py --workload W --seed S --seconds 35 --trace 0`` once
in an export of ``REV`` (``git archive``, so the repository's own git data is
left alone) and once in an export of this checkout's tracked files as they
stand on disk (uncommitted edits included), for ``PAIRS`` pairs. Both exports
sit under one temporary directory, so the two sides differ in their files
alone and not in the directory they run from. Pair i uses seed i, and the
side that runs first alternates from pair to pair, so slow stretches of a
shared machine fall on both sides alike.

The output records the machine (nproc, CPU, BLAS, BLAS thread variables),
the BLAS thread count each side's package leaves in a process that imports it
(read back from numpy's bundled OpenBLAS, without the thread variables, as the
benchmark's jobs run), every run's gated metrics, and per workload and metric
the median and quartiles of each side, the median and quartiles of the per-pair ratio
change / parent (a paired statistic, which a host that drifts between pairs
moves less than it moves either side's median), the share of pairs the change
won (lower is better, ties count for neither side) and whether the change's
median beats the parent's by more than the parent's interquartile range. It
also records whether every run's curve sha256 per arm was equal between the
two sides. The file is rewritten after every pair, so an interrupted run keeps
what it measured.

Each run starts in a session of its own, and its whole process group (the run
and the ``job.py`` children it starts) is killed when the run ends, times out,
or this script is stopped with SIGTERM or Ctrl-C, so nothing it started keeps
running after it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "peak_rss_mb", "state.iter_ms_p90", "action.iter_ms_p90")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SECONDS = 35
PAIRS = 10
RUN_TIMEOUT_S = 400

# Run in a side's root with its src/ on sys.path: imports the package, then
# prints the thread count numpy's bundled OpenBLAS reports (null without one).
BLAS_THREADS_SCRIPT = r"""
import ctypes, glob, json, os
import numpy as np
import factored_pg
libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*"))
threads = None
if libs:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    threads = get()
print(json.dumps(threads))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    git("archive", "--format=tar", "-o", archive, rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def export_worktree(dest: str) -> None:
    """The working tree's tracked files, as they stand on disk, under
    ``dest``; a tracked file deleted from the disk is left out."""
    for name in filter(None, git("ls-files", "-z").split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.lexists(source):
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)


def run_in_session(cmd: list, cwd: str, env=None) -> subprocess.CompletedProcess:
    """``cmd`` run to completion in a new session, its output captured. On a
    timeout, an exception (SIGTERM included, see ``exit_on_sigterm``) or a
    normal exit, the session's process group is killed, so no child it
    started outlives it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group has no process left
            pass
        proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks (the process group
    kill in ``run_in_session``, the export's removal) run before exiting."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark run: its result line, its machine record and the curve
    sha256 of each arm."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = run_in_session(cmd, checkout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary_path = os.path.join(checkout, ".perfbench", f"{workload}-seed{seed}-trace0",
                                "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    shas = {line.split(":")[0]: re.search(r"curve sha256 (\S+)", line).group(1)
            for line in summary["outcomes"]}
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
        "curve_sha256": shas,
        "machine": summary["machine"],
    }


def blas_threads_after_import(checkout: str):
    """The BLAS thread count left after importing ``checkout``'s package."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], cwd=checkout, env=env,
                          check=True, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout)


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: list) -> dict:
    """Per metric: each side's spread, the spread of the per-pair ratio
    change / parent, the change's share of pairs won and whether the gain
    rule (>= 9/10 won, median gap > parent IQR) holds."""
    out = {}
    for name in METRICS:
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        won = sum(c < p for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        gap = p["median"] - c["median"]
        share = won / len(runs)
        out[name] = {
            "parent": p,
            "change": c,
            "pair_ratio": spread([cv / pv for pv, cv in zip(parent, change)]),
            "pairs": len(runs),
            "change_won": won,
            "share_won": share,
            "median_gap": gap,
            "parent_iqr": p["q3"] - p["q1"],
            "relative_change": -gap / p["median"],
            "gain_rule_met": share >= 0.9 and gap > p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    exit_on_sigterm()

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    workloads = sorted(WORKLOADS)
    parent_rev = git("rev-parse", args.parent)
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads_after_import": None,
        "machine": None,
        "pairs_per_workload": PAIRS,
        "workloads": {},
    }
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        sides = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        for path in sides.values():
            os.makedirs(path)
        export(parent_rev, sides["parent"])
        export_worktree(sides["change"])
        record["blas_threads_after_import"] = {
            side: blas_threads_after_import(path) for side, path in sides.items()}
        for w in workloads:
            record["workloads"][w] = {"runs": []}
        for i in range(PAIRS):
            for w in workloads:
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": i, "first": order[0]}
                for side in order:
                    began = time.monotonic()
                    pair[side] = run_once(sides[side], w, seed=i)
                    print(f"pair {i} {w} {side}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v in pair[side]["metrics"].items())
                          + f" ({time.monotonic() - began:.0f} s)", file=sys.stderr, flush=True)
                record["machine"] = record["machine"] or pair["parent"]["machine"]
                for side in order:
                    del pair[side]["machine"]
                entry = record["workloads"][w]
                entry["runs"].append(pair)
                entry["correct"] = all(r[s]["correct"] for r in entry["runs"]
                                       for s in ("parent", "change"))
                entry["curves_equal"] = all(r["parent"]["curve_sha256"] == r["change"]["curve_sha256"]
                                            for r in entry["runs"])
                if len(entry["runs"]) > 1:  # quartiles need two values
                    entry["metrics"] = compare(entry["runs"])
                with open(args.out, "w") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
