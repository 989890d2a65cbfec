"""Command-line entry point.

Subcommands:
  run           train every (arm, seed) pair from a JSON config
  report-table1 solve-time comparison table across run directories
  sweep-lambda  rerun one config over a list of GAE lambda values
  verify        run the exact-oracle property suite, nonzero exit on failure
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .errors import ConfigError
from .harness import (format_solve_table, lambda_sweep, load_summary, run_experiment,
                      table1_report)
from .schema import write_json


def _parse_seeds(values) -> tuple:
    out = []
    for chunk in values:
        out.extend(int(s) for s in str(chunk).split(",") if s != "")
    return tuple(out)


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None):
        cfg = replace(cfg, seeds=_parse_seeds(args.seed))
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "arm", None):
        keep = tuple(a for a in cfg.arms if a.name in set(args.arm))
        missing = set(args.arm) - {a.name for a in cfg.arms}
        if missing:
            raise ConfigError(
                f"unknown arm names {sorted(missing)}; configured: {[a.name for a in cfg.arms]}"
            )
        cfg = replace(cfg, arms=keep)
    return cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = run_experiment(cfg, echo=print)
    print(f"run complete: {out}")
    summary = load_summary(out)
    if summary.get("solve_threshold") is not None:
        for name, entry in summary["arms"].items():
            print(
                f"  {name}: mean solve iterations = {entry['mean_solve_iterations']}",
            )
    return 0


def _cmd_report(args) -> int:
    rows = table1_report(args.run_dirs)
    print(format_solve_table(rows))
    if args.json:
        write_json(args.json, [r.to_dict() for r in rows], indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    lams = [float(x) for x in args.lams.split(",") if x != ""]
    dirs = lambda_sweep(cfg, lams, echo=print)
    for lam, run_dir in sorted(dirs.items()):
        summary = load_summary(run_dir)
        finals = {
            name: f"{entry['final_mean_return']:.4f}"
            for name, entry in summary["arms"].items()
        }
        print(f"lambda={lam}: final mean return {finals}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factored-pg",
        description="Per-factor baseline policy gradient experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train every (arm, seed) pair from a config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument("--seed", action="append", help="override seeds (repeat or comma-list)")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--arm", action="append", help="run only the named arm(s)")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report-table1", help="solve-time table from run directories")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories, one per dimension")
    p_rep.add_argument("--json", help="also write the table as JSON to this path")
    p_rep.set_defaults(fn=_cmd_report)

    p_sweep = sub.add_parser("sweep-lambda", help="rerun a config across lambda values")
    p_sweep.add_argument("config", help="path to the experiment config JSON")
    p_sweep.add_argument("--lams", default="0,0.97,1", help="comma-separated lambdas in [0,1]")
    p_sweep.add_argument("--seed", action="append", help="override seeds")
    p_sweep.add_argument("--out", help="override the output directory")
    p_sweep.add_argument("--arm", action="append", help="run only the named arm(s)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the exact-oracle property suite")
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
