"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces each public
function or method at a module boundary with a wrapper that appends one span
(name, start, end, parent, iteration) to flat in-memory arrays. A benchmark
job trains one arm on one seed, so arm and seed are stored once per job rather
than per span. Nothing is written until ``save`` is called at the end of the
job.

A span's self time is its duration minus the time its direct children cover;
calls are nested and single-threaded, so children never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Every span the benchmark reports, in report order. The per-layer metric names
# are "<arm>.<span>.self_ms_per_iter" and "<arm>.<span>.calls_per_iter".
SPANS = (
    "harness.run_experiment",
    "optim.train",
    "optim.collect_batch",
    "optim.substream",
    "optim.rollout",
    "trajectory.Batch",
    "envs.reset",
    "envs.step",
    "policies.sample",
    "baselines.evaluate",
    "baselines.refit",
    "baselines.QModel.predict",
    "features.fit_linear",
    "features.QuadraticMap",
    "features.RffMap",
    "estimator.gae_advantages",
    "estimator.pg_estimate",
    "estimator.score_matrix",
    "policies.score_blocks_batch",
    "policies.score_block",
    "policies.kl",
    "optim.npg_step",
    "optim.fvp",
)


class Tracer:
    """In-memory span store; ``iteration`` tags every new span."""

    def __init__(self):
        self._ids = {name: k for k, name in enumerate(SPANS)}
        self.name_id = array("i")
        self.parent = array("i")
        self.iteration_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.iteration = -1
        # (span name, quantity) -> running sum, for counts that a span's
        # arguments carry (rows predicted, design shape, flops)
        self.amounts: dict = {}
        self._restore: list = []

    def add(self, name: str, quantity: str, value: float) -> None:
        key = (name, quantity)
        self.amounts[key] = self.amounts.get(key, 0.0) + value

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with a span around every call; ``measure(*args, **kwargs)``
        runs before the call and may record amounts with ``add``."""
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if measure is not None:
                measure(*args, **kwargs)
            sid = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.iteration_of.append(self.iteration)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` (a module global or a method defined on the
        class itself) with its traced form; ``uninstall`` puts it back."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "iteration": np.frombuffer(self.iteration_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str, arm: str, seed: int) -> None:
        np.savez(path, names=np.array(SPANS), arm=np.array(arm), seed=np.int64(seed),
                 **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(tracer: Tracer) -> dict:
    """{span: {"self_s", "calls", <recorded amounts>}} over every span."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    self_s = np.bincount(a["name"], weights=own, minlength=len(SPANS))
    calls = np.bincount(a["name"], minlength=len(SPANS))
    out = {name: {"self_s": float(self_s[k]), "calls": int(calls[k])}
           for k, name in enumerate(SPANS)}
    for (name, quantity), value in tracer.amounts.items():
        out[name][quantity] = value
    return out


def design_flops(rows: int, cols: int) -> float:
    """Floating-point operations of one ridge solve in ``features.fit_linear``.

    Primal form (cols <= rows): F'F (2 r c^2), F't (2 r c) and an LU solve
    (2/3 c^3 + 2 c^2). Dual form: FF' (2 r^2 c), an r x r LU solve
    (2/3 r^3 + 2 r^2) and F'x (2 r c).
    """
    r, c = float(rows), float(cols)
    if c <= r:
        return 2 * r * c * c + 2 * r * c + 2 / 3 * c**3 + 2 * c * c
    return 2 * r * r * c + 2 / 3 * r**3 + 2 * r * r + 2 * r * c


def install(tracer: Tracer) -> None:
    """Trace every boundary in SPANS except ``harness.run_experiment`` and
    ``optim.train``, which the job wraps itself (it owns those calls)."""
    from factored_pg import baselines, envs, features, optim, policies, trajectory

    def on_collect(env, policy, n_trajectories, seed, iteration):
        tracer.iteration = int(iteration)

    def on_predict(model, states, actions):
        tracer.add("baselines.QModel.predict", "rows", len(np.atleast_2d(states)))

    def on_fit(feature_rows, targets, ridge=0.0, bias=True, sample_weights=None):
        rows, cols = np.atleast_2d(feature_rows).shape
        cols += 1 if bias else 0
        tracer.add("features.fit_linear", "rows", rows)
        tracer.add("features.fit_linear", "cols", cols)
        tracer.add("features.fit_linear", "flops", design_flops(rows, cols))

    tracer.patch(optim, "collect_batch", "optim.collect_batch", on_collect)
    tracer.patch(optim, "substream", "optim.substream")
    tracer.patch(optim, "rollout", "optim.rollout")
    tracer.patch(optim, "gae_advantages", "estimator.gae_advantages")
    tracer.patch(optim, "pg_estimate", "estimator.pg_estimate")
    tracer.patch(optim, "score_matrix", "estimator.score_matrix")
    tracer.patch(optim, "npg_step", "optim.npg_step")
    tracer.patch(trajectory.Batch, "__post_init__", "trajectory.Batch")
    tracer.patch(baselines.BaselineState, "evaluate", "baselines.evaluate")
    tracer.patch(baselines.BaselineState, "refit", "baselines.refit")
    tracer.patch(baselines.QModel, "predict", "baselines.QModel.predict", on_predict)
    tracer.patch(baselines, "fit_linear", "features.fit_linear", on_fit)
    tracer.patch(features.QuadraticMap, "__call__", "features.QuadraticMap")
    tracer.patch(features.RffMap, "__call__", "features.RffMap")
    for cls in (envs.TargetMatching, envs.PointMass, envs.TabularMdp):
        tracer.patch(cls, "reset", "envs.reset")
        tracer.patch(cls, "step", "envs.step")
    for cls in (policies.FactoredPolicy, policies.IndependentGaussianPolicy,
                policies.CategoricalPolicy):
        for method in ("sample", "score_blocks_batch", "score_block", "kl"):
            if method in cls.__dict__:
                tracer.patch(cls, method, f"policies.{method}")

    # the Fisher-vector product is a closure built per step; trace the closure
    make_fvp = optim.make_fvp
    tracer._restore.append((optim, "make_fvp", make_fvp))
    optim.make_fvp = lambda scores, damping: tracer.wrap(
        "optim.fvp", make_fvp(scores, damping)
    )
