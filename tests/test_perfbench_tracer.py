"""The benchmark's span tracer still attaches to the package and comes off cleanly.

``perfbench/spans.py`` patches functions and methods by name at module
boundaries and raises ``KeyError`` when one is missing, so renaming or moving
any of them breaks the traced benchmark run. The module is loaded from its
file and only read.
"""

import importlib.util
from pathlib import Path

import numpy as np

from factored_pg import baselines, envs, features, optim, trajectory
from factored_pg.baselines import BaselineSpec
from factored_pg.policies import IndependentGaussianPolicy

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

GUARDED = [
    (optim, name)
    for name in ("rollout", "collect_batch", "substream", "gae_advantages",
                 "pg_estimate", "score_matrix", "npg_step", "make_fvp")
] + [
    (trajectory.Batch, "__post_init__"),
    (features.QuadraticMap, "__call__"),
    (features.RffMap, "__call__"),
    (baselines.QModel, "predict"),
    (baselines.BaselineState, "evaluate"),
    (baselines.BaselineState, "refit"),
    (baselines, "fit_linear"),
] + [
    (cls, method)
    for cls in (envs.TargetMatching, envs.PointMass, envs.TabularMdp)
    for method in ("reset", "step")
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_attaches_and_uninstall_restores():
    spans = _load_spans()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in GUARDED}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._restore)
        for owner, attr in GUARDED:
            assert owner.__dict__[attr] is not before[(owner, attr)], attr
        # a short run goes through every wrapper but QModel.predict's; the
        # collect_batch hook takes its arguments by name, so it also pins
        # that signature. No training path predicts on (state, action) rows
        # (a state arm reads the batch's mapped block, and every critic
        # evaluates its candidates off the batch's own rows), so the test
        # calls QModel.predict itself, through the patched attribute
        optim.train(
            envs.TargetMatching(np.array([0.5, -0.3])),
            IndependentGaussianPolicy.zeros(2, 1),
            BaselineSpec(kind="state_value", features="linear"),
            n_iterations=2,
            n_trajectories=4,
            seed=0,
            optimizer=optim.OptimizerConfig(),
        )
        q = baselines.QModel(features.LinearModel(np.ones(4)), features.RawFeatures(3))
        assert q.predict(np.zeros((2, 1)), np.ones((2, 2))).tolist() == [3.0, 3.0]
    finally:
        tracer.uninstall()
    summary = spans.summarize(tracer)
    for name in ("optim.collect_batch", "optim.substream", "optim.rollout",
                 "trajectory.Batch", "envs.reset", "envs.step", "policies.sample",
                 "estimator.gae_advantages", "estimator.pg_estimate",
                 "estimator.score_matrix", "policies.kl", "optim.npg_step", "optim.fvp",
                 "baselines.evaluate", "baselines.refit", "baselines.QModel.predict",
                 "features.fit_linear"):
        assert summary[name]["calls"] > 0, name
    assert tracer.iteration == 1
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, attr
