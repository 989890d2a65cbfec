"""Where the package uses threads: BLAS on one, elementwise work on all cores.

Curves depend on the BLAS thread count, because a multi-threaded product or
solve sums in an order set by its thread count, and an idle OpenBLAS worker
spins on the core it holds. So importing the package pins numpy's bundled
scipy-openblas to one thread, in this process only, through the library's own
``scipy_openblas_set_num_threads64_``, and reads the count back.
``BLAS_THREADS`` is that count, or None when numpy's BLAS is not a bundled
scipy-openblas; ``BLAS_PIN`` names the outcome for ``optim.RNG_SCHEME``, so
every checkpoint records whether its run was pinned.

``rows_inplace`` splits an elementwise ufunc over contiguous row chunks, one
per core in the process's affinity mask. Elementwise results do not depend on
the split, so its output is byte-identical to one call. Worker threads of one
pool, built on first use (a forked child builds its own), compute every chunk
but the last and the calling thread computes the last, so no traced call
leaves the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# below this many elements per chunk, handing a chunk to a worker costs more
# than it saves (a hand-off takes ~50 us, a float64 sin ~20 ns per element)
MIN_CHUNK_ELEMENTS = 16384


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

def cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _executor():
    """The process's row-chunk pool: one worker per core but one."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cores() - 1, thread_name_prefix="factored_pg-rows")


if hasattr(os, "register_at_fork"):  # no fork, no hook on Windows
    # a forked child inherits the pool object, but not its threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def rows_inplace(ufunc, z: np.ndarray) -> np.ndarray:
    """``ufunc(z, out=z)`` for a C-contiguous 2-D array ``z``, split into
    contiguous row chunks over the cores; returns ``z``."""
    chunks = min(len(z), z.size // MIN_CHUNK_ELEMENTS, cores())
    if chunks < 2:
        return ufunc(z, out=z)
    bounds = [len(z) * i // chunks for i in range(chunks + 1)]
    parts = [z[a:b] for a, b in zip(bounds, bounds[1:])]
    executor = _executor()
    futures = [executor.submit(ufunc, part, out=part) for part in parts[:-1]]
    ufunc(parts[-1], out=parts[-1])
    for future in futures:
        future.result()
    return z
