"""Inner products and norms of grids, summed in one fixed order.

A BLAS dot product sums in an order that depends on the BLAS thread count:
OpenBLAS's x86-64 dot kernels, for example, cut a vector longer than 10 000
elements into one piece per thread and add the pieces' sums. CG amplifies
that last-bit difference, so before this module `metrics.csv` bytes depended
on `OPENBLAS_NUM_THREADS`. A threaded dot also costs a core: the idle OpenBLAS
workers spin after it on the CPUs the threaded Radon matvec needs.

`inner` therefore fixes the order instead of letting BLAS pick it: a vector
longer than `SPLIT_ABOVE` is cut into two halves, each half is summed by a
single-threaded BLAS dot, and the halves are added. That is the order OpenBLAS
uses with two threads, so results equal those of the default BLAS setting on
a 2-CPU machine, with which earlier results and the benchmark's references
were made. The BLAS is held to one thread only for the duration of the call.
If the loaded BLAS is not an OpenBLAS whose thread count can be set, the halves
are summed by numpy's own loop instead: still independent of BLAS threads,
though not bitwise equal to OpenBLAS.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

# Vectors up to this length are summed in one piece, as OpenBLAS does.
SPLIT_ABOVE = 10_000


class _ThreadControl(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas_thread_controls() -> tuple[_ThreadControl, ...] | None:
    """Thread-count getters and setters of every OpenBLAS loaded in this
    process, or None if there is none (or no way to find one)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append(_ThreadControl(get, set_))
    return tuple(controls) or None


# Serializes the set-and-restore of the BLAS thread count between threads. A
# forked child gets a fresh lock, in case the fork came while it was held.
_blas_lock = threading.Lock()


def _new_lock_after_fork() -> None:
    global _blas_lock
    _blas_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms without fork have nothing to reset
    os.register_at_fork(after_in_child=_new_lock_after_fork)


@contextmanager
def _single_threaded(controls: tuple[_ThreadControl, ...]):
    with _blas_lock:
        saved = [control.get() for control in controls]
        for control, count in zip(controls, saved):
            if count != 1:
                control.set(1)
        try:
            yield
        finally:
            for control, count in zip(controls, saved):
                if count != 1:
                    control.set(count)


def _numpy_dot(a: np.ndarray, b: np.ndarray) -> float:
    # Complex grids are summed over their interleaved float64 view, which
    # gives sum(Re a Re b + Im a Im b), the real part of <a, b>.
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        a = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
        b = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    return float(np.einsum("i,i->", a, b))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of the Hermitian inner product <a, b>, in a fixed summation
    order (see the module docstring). The real part is exact for the SPD
    operators here."""
    a, b = np.ravel(a), np.ravel(b)
    pieces = [slice(None)]
    if a.size > SPLIT_ABOVE:
        half = (a.size + 1) // 2
        pieces = [slice(None, half), slice(half, None)]
    controls = _openblas_thread_controls()
    if controls is None:
        return sum(_numpy_dot(a[piece], b[piece]) for piece in pieces)
    with _single_threaded(controls):
        return sum(float(np.real(np.vdot(a[piece], b[piece]))) for piece in pieces)


def norm(a: np.ndarray) -> float:
    """Euclidean norm of a grid (see `inner`)."""
    return math.sqrt(inner(a, a))
