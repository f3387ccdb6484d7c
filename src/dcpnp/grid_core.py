"""2D sample grids, the DFT convention, seeded generators, grid I/O, and
the two ways grid work is divided: across CPUs and across channels.

Grids are plain numpy arrays: real grids are 2D float64, complex grids are
2D complex128, frequency maps are 2D nonnegative float64. All public grid
operations validate shapes and finiteness and are pure.

Parallel grid work goes through `fork_join`, the only user of the thread
pool. A complex grid splits into its real then imaginary channel
(`channels`), the order in which per-channel noise is drawn.

DFT convention used throughout: unnormalized forward (plain sum, no 1/HW),
inverse carries the 1/HW factor. Under this convention white noise with
per-pixel variance s**2 has expected per-bin power s**2 * H * W, which is
the target level the spectral-homogenization module fills toward.
"""

from __future__ import annotations

import os
import struct
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MAGIC = b"DCPG"


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# One pool per process, shared by every `fork_join`, since the CPUs are
# shared too. A forked child inherits the pool object but none of its
# threads, so a submit there would wait forever: the child forgets the pool
# and builds its own on first use.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def worker_pool() -> ThreadPoolExecutor:
    """The process-wide pool, with one thread per CPU beyond the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(available_cpus() - 1, 1),
                                       thread_name_prefix="dcpnp-worker")
        return _pool


def _forget_pool_after_fork() -> None:
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms without fork have nothing to reset
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def fork_join(fn: Callable, items: Sequence) -> None:
    """Call `fn` on every item: the first on the calling thread, the others on
    `worker_pool` (all on the caller, in order, with one item or one CPU).
    Returns, or re-raises a call's exception, once every call has finished.
    `fn` must not itself wait on the pool."""
    if len(items) < 2 or available_cpus() < 2:
        for item in items:
            fn(item)
        return
    pool = worker_pool()
    futures = [pool.submit(fn, item) for item in items[1:]]
    try:
        fn(items[0])
    finally:
        for future in futures:
            future.exception()  # waits for the call; `wait` costs ~50 us more
    for future in futures:
        future.result()


def channels(g: np.ndarray) -> list[np.ndarray]:
    """The real channels of a grid: `[g]` if real, `[g.real, g.imag]` if complex."""
    return [g.real, g.imag] if np.iscomplexobj(g) else [g]


def from_channels(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Inverse of `channels`: one part is a real grid, two make a complex one."""
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def gaussian_window(half: int, std: float) -> np.ndarray:
    """Normalized (2 half + 1)-square Gaussian window of standard deviation `std`."""
    coords = np.arange(-half, half + 1, dtype=np.float64)
    one_d = np.exp(-0.5 * (coords / std) ** 2)
    k = np.outer(one_d, one_d)
    return k / k.sum()


def _check_grid(g: np.ndarray) -> None:
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2D grid, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid contains non-finite samples")


def forward_dft(g: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT (sum convention).

    Satisfies Parseval as sum |G|^2 == H*W * sum |g|^2. Works for real or
    complex grids of arbitrary (not necessarily power-of-two) size.
    """
    g = np.asarray(g)
    _check_grid(g)
    return np.fft.fft2(g)


def inverse_dft(G: np.ndarray) -> np.ndarray:
    """Inverse 2D DFT carrying the 1/(H*W) factor; exact inverse of forward_dft."""
    G = np.asarray(G)
    _check_grid(G)
    return np.fft.ifft2(G)


# --- serialization ---------------------------------------------------------
#
# Binary layout: magic "DCPG", height and width as little-endian uint32,
# then row-major little-endian float64 payload (re/im interleaved for
# complex grids). Realness is inferred from the payload length.


def save_grid(path, g: np.ndarray) -> None:
    g = np.asarray(g)
    _check_grid(g)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", g.shape[0], g.shape[1]))
        fh.write(np.stack(channels(g), axis=-1).astype("<f8", copy=False).tobytes())


def load_grid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic bytes {magic!r}")
        header = fh.read(8)
        payload = fh.read()
    if len(header) < 8:
        raise ValueError(f"{path}: file ends inside its 12-byte header")
    h, w = struct.unpack("<II", header)
    if h < 1 or w < 1:
        raise ValueError(f"{path}: header declares an empty {h}x{w} grid")
    n = h * w
    if len(payload) == 8 * n:
        return np.frombuffer(payload, dtype="<f8").reshape(h, w).astype(np.float64)
    if len(payload) == 16 * n:
        inter = np.frombuffer(payload, dtype="<f8").reshape(h, w, 2)
        return (inter[..., 0] + 1j * inter[..., 1]).astype(np.complex128)
    raise ValueError(f"{path}: payload length {len(payload)} does not match {h}x{w} real or "
                     "complex grid")


def save_pgm(path, g: np.ndarray, window: tuple[float, float] | None = None) -> None:
    """16-bit binary PGM export after windowing, for visual inspection.

    `window` is the (low, high) intensity range mapped to [0, 65535];
    defaults to the grid's own min/max. Complex grids export magnitudes.
    """
    g = np.asarray(g)
    _check_grid(g)
    if np.iscomplexobj(g):
        g = np.abs(g)
    lo, hi = window if window is not None else (float(g.min()), float(g.max()))
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((g - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.shape[1]} {g.shape[0]}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())
