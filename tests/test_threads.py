import os
import subprocess
import sys
import threading

import numpy as np

import factored_pg
from factored_pg import optim, threads
from factored_pg.baselines import BaselineSpec
from factored_pg.envs import make_env
from factored_pg.features import RffMap
from factored_pg.optim import RNG_SCHEME
from factored_pg.policies import IndependentGaussianPolicy

SRC = os.path.dirname(os.path.dirname(factored_pg.__file__))

# a short m=100 run of the action arm alone; prints its curve's sha256
ACTION_RUN = r"""
import dataclasses, hashlib, os, sys
from factored_pg.config import matching_task_config
from factored_pg.harness import run_experiment

cfg = matching_task_config(100, (0,), 5, sys.argv[1])
run_experiment(dataclasses.replace(cfg, arms=cfg.arms[1:]))
with open(os.path.join(sys.argv[1], "curves", "action_seed0.csv"), "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_blas_pin_is_read_back_and_named_in_the_rng_scheme():
    assert threads.BLAS_THREADS in (1, None)
    assert ("unpinned" in threads.BLAS_PIN) == (threads.BLAS_THREADS is None)
    assert RNG_SCHEME.endswith(threads.BLAS_PIN)


def test_curves_do_not_depend_on_the_requested_blas_threads(tmp_path):
    hashes = set()
    for n in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=n)
        proc = subprocess.run([sys.executable, "-c", ACTION_RUN, str(tmp_path / n)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.add(proc.stdout.split()[-1])
    assert len(hashes) == 1


def test_the_package_starts_no_thread():
    before = threading.active_count()
    rff = RffMap(6, 100, 0.7, np.random.default_rng(0))
    rff(np.random.default_rng(1).standard_normal((1001, 6)))
    spec = BaselineSpec(kind="mc_q", mc_samples=2, features="rff", n_features=20)
    optim.train(make_env("point_mass", {"horizon": 5}), IndependentGaussianPolicy.zeros(2, 4),
                spec, n_iterations=2, n_trajectories=4, seed=0,
                optimizer=optim.OptimizerConfig())
    assert threading.active_count() == before
