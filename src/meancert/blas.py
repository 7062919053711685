"""One BLAS thread per process while certifiers run.

The certifiers' LAPACK calls are small (n <= 64), so OpenBLAS threads add
CPU time without lowering wall time, and the thread count changes the bits
of the results at dims 32 and 64.  The runner therefore holds BLAS to one
thread for a run and in each pool worker: ``--workers`` is the only
parallelism, and a report does not depend on the host's core count or on
``OPENBLAS_NUM_THREADS``.

The OpenBLAS thread control is looked up on first use, not at import, among
the shared objects this process has loaded.  Where none is found (another
BLAS, or no ``/proc/self/maps``) every function here does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Callable, NamedTuple

#: Symbol prefixes in lookup order: upstream OpenBLAS, then the scipy-openblas
#: build bundled in numpy wheels.  Each is tried without and with the ILP64
#: ``64_`` suffix (numpy 2.x exports ``scipy_openblas_set_num_threads64_``).
_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_")


class ThreadControl(NamedTuple):
    """The ``set``/``get`` num-threads functions of one OpenBLAS library."""

    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]


def _loaded_openblas_paths() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = [line.split(maxsplit=5)[-1].strip() for line in fh if "/" in line]
    except OSError:
        return []
    return [p for p in dict.fromkeys(paths) if "openblas" in os.path.basename(p).lower()]


@functools.cache
def openblas_control() -> ThreadControl | None:
    """The first ``set``/``get`` num-threads pair found in a loaded OpenBLAS,
    or ``None``."""
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                try:
                    setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return ThreadControl(setter, getter)
    return None


def pin_one_thread() -> None:
    """Hold BLAS to one thread for the rest of this process (a pool worker's
    initializer)."""
    control = openblas_control()
    # Setting the count starts OpenBLAS's thread server in a forked worker,
    # which has none yet: one more OS thread per worker, about 5% more CPU
    # at 2 workers.  A worker forked from a pinned parent already reads 1.
    if control is not None and control.get_num_threads() != 1:
        control.set_num_threads(1)


@contextlib.contextmanager
def one_thread():
    """Hold BLAS to one thread inside the block; restore the caller's count
    when it exits, by return or by exception."""
    control = openblas_control()
    previous = 1 if control is None else control.get_num_threads()
    if previous == 1:
        yield
        return
    control.set_num_threads(1)
    try:
        yield
    finally:
        control.set_num_threads(previous)
