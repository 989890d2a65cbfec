"""numpy's BLAS pinned to one thread; the package starts no thread of its own.

Curves depend on the BLAS thread count, because a multi-threaded product or
solve sums in an order set by its thread count, and an idle OpenBLAS worker
spins on the core it holds. So importing the package pins numpy's bundled
scipy-openblas to one thread, in this process only, through the library's own
``scipy_openblas_set_num_threads64_``, and reads the count back.
``BLAS_THREADS`` is that count, or None when numpy's BLAS is not a bundled
scipy-openblas; ``BLAS_PIN`` names the outcome for ``optim.RNG_SCHEME``, so
every checkpoint records whether its run was pinned.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def _pin_blas() -> tuple:
    """(threads read back, description) after asking numpy's BLAS for one
    thread; (None, ...) when numpy does not bundle scipy-openblas."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*"))
    if not libs:
        return None, "blas threads unpinned (numpy's BLAS is not a bundled scipy-openblas)"
    lib = ctypes.CDLL(libs[0])  # the copy numpy loaded: same path, same handle
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_(1)
    threads = lib.scipy_openblas_get_num_threads64_()
    if threads != 1:
        raise RuntimeError(f"scipy-openblas reports {threads} threads after a pin to 1")
    return threads, "blas threads 1"


BLAS_THREADS, BLAS_PIN = _pin_blas()
