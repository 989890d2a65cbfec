"""Experiment runner: training runs to CSV/JSON, solve-time tables, λ sweeps.

Run directory layout:

    out_dir/
      config.json                  fully-resolved config (provenance)
      curves/<arm>_seed<k>.csv     CSV_COLUMNS: iteration, seed, arm, then
                                   the other ``IterationLog`` fields
      checkpoints/<arm>_seed<k>.json   arm, seed, iterations, final theta,
                                   rng scheme
      summary.json                 recomputed from the CSVs, never from memory;
                                   written last, it marks the run complete

Every file goes through ``schema.write_text``: written to ``<path>.tmp`` and
renamed into place. A run removes any old ``summary.json`` before it writes
anything, so a directory whose run stopped part way has none, and
``table1_report`` refuses it rather than mixing old and new curves. Floats
are written with repr-exact precision so reruns of the same config are
byte-identical and summaries round-trip through the CSVs.
A checkpoint stores the policy's theta, not its structure: ``load_policy``
rebuilds the policy from config.json and sets the stored theta.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .baselines import check_marginal
from .config import ExperimentConfig, load_config, save_config
from .errors import ConfigError, NonFiniteError, SingularSystemError
from .features import IndicatorFeatures, RawFeatures
from .optim import RNG_SCHEME, IterationLog, train
from .policies import CategoricalPolicy, IndependentGaussianPolicy
from .schema import write_json, write_text

CSV_COLUMNS = ("iteration", "seed", "arm") + tuple(
    f.name for f in fields(IterationLog) if f.name != "iteration")
_FLOAT_COLUMNS = CSV_COLUMNS[3:]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def build_env(cfg: ExperimentConfig):
    return cfg.env.params.build()


def build_policy(env, policy_cfg):
    """A zero policy of the family ``env.cardinalities`` states: Gaussian
    factors when it is None, categorical factors of those sizes otherwise."""
    if env.cardinalities is None:
        if policy_cfg.features == "indicator":
            raise ConfigError("indicator policy features need categorical factors")
        return IndependentGaussianPolicy.zeros(env.spec.n_factors, env.spec.state_dim,
                                               policy_cfg.log_std_init)
    if policy_cfg.features == "indicator":
        feats = IndicatorFeatures(len(env.rho0))
    else:
        feats = RawFeatures(env.spec.state_dim)
    return CategoricalPolicy.zeros(env.cardinalities, feats)


# ---------------------------------------------------------------------------
# running


def run_experiment(cfg: ExperimentConfig, echo=None) -> str:
    """Train every (arm, seed) pair and write the run directory; returns its
    path. A missing fixture, a policy or an arm that the env's factors rule
    out is a ``ConfigError`` before the directory exists. A non-finite value
    (``NonFiniteError``) or a failed ridge or curvature solve
    (``SingularSystemError``) is raised naming the arm, and no curve is
    written for that (arm, seed)."""
    env = build_env(cfg)
    policy = build_policy(env, cfg.policy)
    for arm in cfg.arms:
        try:
            check_marginal(arm.spec, policy)
        except ValueError as exc:
            raise ConfigError(f"arm {arm.name!r}: {exc}") from exc
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "curves"), exist_ok=True)
    os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
    with contextlib.suppress(FileNotFoundError):  # a previous run's marker
        os.remove(_summary_path(out))
    save_config(cfg, os.path.join(out, "config.json"))

    for arm in cfg.arms:
        for seed in cfg.seeds:
            try:
                result = train(
                    env,
                    policy,
                    arm.spec,
                    n_iterations=cfg.n_iterations,
                    n_trajectories=cfg.n_trajectories,
                    seed=seed,
                    optimizer=cfg.optimizer,
                    lam=cfg.lam,
                )
            except (NonFiniteError, SingularSystemError) as exc:
                raise type(exc)(f"arm {arm.name!r}: {exc}") from exc
            _write_curve(out, arm.name, seed, result.logs)
            write_json(_checkpoint_path(out, arm.name, seed), {
                "arm": arm.name,
                "seed": seed,
                "iterations": cfg.n_iterations,
                "policy": {"theta": result.policy.theta.tolist()},
                "rng_scheme": RNG_SCHEME,
            })
            if echo is not None:
                echo(
                    f"{arm.name} seed {seed}: "
                    f"final mean return {result.logs[-1].mean_return:.4f}"
                )
    write_json(_summary_path(out), summarize_run(out), indent=2)
    return out


def _summary_path(out: str) -> str:
    return os.path.join(out, "summary.json")


def load_summary(run_dir: str) -> dict:
    """The run's ``summary.json``; a ``ValueError`` naming ``run_dir`` when it
    has none, because its run did not finish."""
    if not os.path.exists(_summary_path(run_dir)):
        raise ValueError(f"{run_dir}: no summary.json, so its run did not finish")
    with open(_summary_path(run_dir)) as fh:
        return json.load(fh)


def _curve_path(out: str, arm: str, seed: int) -> str:
    return os.path.join(out, "curves", f"{arm}_seed{seed}.csv")


def _write_curve(out: str, arm: str, seed: int, logs) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for log in logs:
        values = [getattr(log, col) for col in _FLOAT_COLUMNS]
        if not all(map(math.isfinite, values)):
            raise NonFiniteError(
                f"arm {arm!r}: non-finite log at iteration {log.iteration}, seed {seed}"
            )
        lines.append(",".join([str(log.iteration), str(seed), arm, *map(_fmt, values)]))
    write_text(_curve_path(out, arm, seed), "\n".join(lines) + "\n")


def _checkpoint_path(out: str, arm: str, seed: int) -> str:
    return os.path.join(out, "checkpoints", f"{arm}_seed{seed}.json")


def load_policy(out_dir: str, arm: str, seed: int):
    """The final policy of one (arm, seed): built from the run's config.json
    as ``run_experiment`` built it, then given the checkpoint's theta."""
    cfg = load_config(os.path.join(out_dir, "config.json"))
    with open(_checkpoint_path(out_dir, arm, seed)) as fh:
        theta = json.load(fh)["policy"]["theta"]
    return build_policy(build_env(cfg), cfg.policy).with_theta(np.asarray(theta, dtype=float))


def load_curve(path: str) -> dict:
    """One CSV back as {column: array}; numeric columns become float arrays."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {reader.fieldnames}")
        rows = list(reader)
    out: dict = {"arm": rows[0]["arm"] if rows else ""}
    out["iteration"] = np.array([int(r["iteration"]) for r in rows])
    out["seed"] = np.array([int(r["seed"]) for r in rows])
    for col in _FLOAT_COLUMNS:
        out[col] = np.array([float(r[col]) for r in rows])
    return out


# ---------------------------------------------------------------------------
# summaries and the solve-time table


def first_crossing(returns: np.ndarray, threshold: float):
    """1-based count of iterations until mean return first reaches threshold."""
    hits = np.nonzero(np.asarray(returns, dtype=float) >= threshold)[0]
    return int(hits[0]) + 1 if len(hits) else None


def summarize_run(out_dir: str) -> dict:
    """Recompute all summary statistics from the stored CSVs and config."""
    cfg = load_config(os.path.join(out_dir, "config.json"))
    task = cfg.env.params.solve_task
    threshold = None if task is None else task[1]

    arms_summary: dict = {}
    for arm in cfg.arms:
        curves = [load_curve(_curve_path(out_dir, arm.name, seed)) for seed in cfg.seeds]
        returns = np.stack([c["mean_return"] for c in curves])  # (seeds, iters)
        entry = {
            "final_mean_return": float(np.mean(returns[:, -1])),
            "mean_grad_variance": float(
                np.mean([np.mean(c["grad_variance"]) for c in curves])
            ),
        }
        if threshold is not None:
            per_seed = [first_crossing(r, threshold) for r in returns]
            entry["per_seed_solve_iterations"] = per_seed
            solved = [s for s in per_seed if s is not None]
            entry["mean_solve_iterations"] = (
                float(np.mean(solved)) if len(solved) == len(per_seed) else None
            )
            entry["mean_curve_solve_iterations"] = first_crossing(
                np.mean(returns, axis=0), threshold
            )
        arms_summary[arm.name] = entry
    return {
        "env": cfg.env.name,
        "solve_task": None if task is None else list(task),
        "solve_threshold": threshold,
        "n_iterations": cfg.n_iterations,
        "seeds": list(cfg.seeds),
        "arms": arms_summary,
    }


@dataclass
class SolveTimeRow:
    """Per-dimension solve-time comparison between the two baseline arms."""

    m: int
    arm_iterations: dict  # arm name -> mean per-seed solve iterations
    delta: float | None
    improvement_pct: float | None
    mean_curve_iterations: dict  # secondary protocol, same shape
    reference_arm: str
    comparison_arm: str

    def to_dict(self) -> dict:
        return asdict(self)


def table1_report(run_dirs) -> list:
    """Solve-time rows, one per run directory (each holding both arms).

    Each row reads only the directory's ``summary.json`` (``load_summary``),
    m included, so an unfinished run directory is a ``ValueError`` and a
    config edited after the run does not change its row. The reference arm is
    the one named "state" when present, otherwise the first configured arm;
    improvement is (reference - comparison) / reference in percent, positive
    when the comparison arm solves faster.
    """
    rows = []
    for run_dir in run_dirs:
        summary = load_summary(run_dir)
        arm_names = list(summary["arms"])
        if len(arm_names) < 2:
            raise ValueError(f"{run_dir}: solve-time table needs two arms, got {arm_names}")
        reference = "state" if "state" in arm_names else arm_names[0]
        comparison = next(n for n in arm_names if n != reference)
        if summary.get("solve_task") is None:
            raise ValueError(f"{run_dir}: summary.json records no solve task")
        m, _ = summary["solve_task"]

        per_arm = {
            name: summary["arms"][name]["mean_solve_iterations"] for name in arm_names
        }
        curve_arm = {
            name: summary["arms"][name]["mean_curve_solve_iterations"] for name in arm_names
        }
        ref, cmp_ = per_arm[reference], per_arm[comparison]
        if ref is None or cmp_ is None:
            delta = improvement = None
        else:
            delta = ref - cmp_
            improvement = 100.0 * delta / ref
        rows.append(
            SolveTimeRow(
                m=m,
                arm_iterations=per_arm,
                delta=delta,
                improvement_pct=improvement,
                mean_curve_iterations=curve_arm,
                reference_arm=reference,
                comparison_arm=comparison,
            )
        )
    rows.sort(key=lambda r: r.m)
    return rows


def format_solve_table(rows) -> str:
    lines = ["m | reference | comparison | delta | improvement"]
    for r in rows:
        ref = r.arm_iterations[r.reference_arm]
        cmp_ = r.arm_iterations[r.comparison_arm]
        def show(v):
            return "unsolved" if v is None else f"{v:.1f}"
        imp = "n/a" if r.improvement_pct is None else f"{r.improvement_pct:.1f}%"
        delta = "n/a" if r.delta is None else f"{r.delta:.1f}"
        lines.append(
            f"{r.m} | {show(ref)} ({r.reference_arm}) | {show(cmp_)} ({r.comparison_arm})"
            f" | {delta} | {imp}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# lambda sweep


def lambda_sweep(cfg: ExperimentConfig, lam_values, echo=None) -> dict:
    """One run per λ under out_dir/lam_<value>, shared seeds; returns
    {lam: run_dir}. Every λ is checked before the first run starts."""
    runs = {
        float(lam): replace(cfg, lam=float(lam), out_dir=os.path.join(cfg.out_dir, f"lam_{lam}"))
        for lam in lam_values
    }
    return {lam: run_experiment(sub, echo=echo) for lam, sub in runs.items()}
