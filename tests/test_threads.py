import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np

import factored_pg
from factored_pg import threads
from factored_pg.optim import RNG_SCHEME

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


def _sin_bytes(z):
    return np.sin(z).tobytes()


def test_rows_inplace_is_byte_identical_under_concurrent_callers():
    # more callers than cores, switching often: each caller's rows come back
    # exactly as one unsplit np.sin computes them
    rng = np.random.default_rng(0)
    n = threads.cores()
    inputs = [rng.uniform(-50, 50, (n * 400 + 1, 97)) for _ in range(n + 3)]
    results = [None] * len(inputs)

    def work(k):
        results[k] = threads.rows_inplace(np.sin, inputs[k].copy()).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [_sin_bytes(z) for z in inputs]


def _forked_child(z, out):
    out.put(threads.rows_inplace(np.sin, z.copy()).tobytes() == _sin_bytes(z))


def test_a_forked_child_builds_its_own_pool():
    z = np.random.default_rng(1).uniform(-5, 5, (1001, 100))
    threads.rows_inplace(np.sin, z.copy())  # the parent's pool exists now
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_forked_child, args=(z, out))
    child.start()
    try:
        ok = out.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert ok and child.exitcode == 0
