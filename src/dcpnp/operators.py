"""Linear forward models with exact adjoints.

Two measurement families are shipped: a parallel-beam Radon transform
(sparse-view and limited-angle CT) and a masked unitary Fourier encoding
(accelerated single-coil MRI), plus dense and identity operators used by
tests and fixed-point certification. Every operator satisfies the adjoint
dot-test to near machine precision because the adjoint is the literal
transpose of the discretized forward map, never an independent
discretization.

The Radon matrices are applied on every CPU the process may run on: each is
cut into one row block per CPU and the blocks are multiplied on a shared
thread pool (scipy's CSR kernel releases the GIL). Every row is still summed
in the same order, so results are bitwise equal to a single-threaded product.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .grid_core import make_rng


class LinearOperator:
    """Base class: a linear map between 2D grids with an exact adjoint."""

    domain_shape: tuple[int, int]
    range_shape: tuple[int, int]
    is_complex: bool = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_domain(self, x: np.ndarray) -> None:
        if x.shape != self.domain_shape:
            raise ValueError(f"domain shape mismatch: expected {self.domain_shape}, got {x.shape}")

    def _check_range(self, y: np.ndarray) -> None:
        if y.shape != self.range_shape:
            raise ValueError(f"range shape mismatch: expected {self.range_shape}, got {y.shape}")


# --- parallel-beam Radon ----------------------------------------------------


@dataclass(frozen=True)
class RadonGeometry:
    """Parallel-beam geometry: view angles in degrees plus a flat 1D detector.

    The detector has `detector_bins` bins at `detector_pitch` pixels per bin,
    centered on the rotation axis; it must cover the image diagonal.
    """

    angles: np.ndarray
    detector_bins: int = 363
    detector_pitch: float = 1.0
    image_side: int = 256

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64)
        object.__setattr__(self, "angles", angles)
        if angles.ndim != 1 or angles.size < 1:
            raise ValueError("angles must be a non-empty 1D sequence")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("angles must be strictly increasing")
        if angles[0] < 0.0 or angles[-1] >= 180.0:
            raise ValueError("angles must lie in [0, 180) degrees")
        if self.detector_bins < 1 or self.image_side < 1:
            raise ValueError("detector_bins and image_side must be positive")
        diagonal = self.image_side * math.sqrt(2.0)
        if self.detector_bins < diagonal / self.detector_pitch:
            raise ValueError(
                f"detector too narrow: {self.detector_bins} bins cannot cover a "
                f"{self.image_side}px image diagonal at pitch {self.detector_pitch}"
            )

    @property
    def n_views(self) -> int:
        return len(self.angles)


def _default_bins(image_side: int, pitch: float) -> int:
    # 363 covers every image up to 256px; wider images get the smallest
    # odd bin count that still spans the diagonal.
    needed = int(math.ceil(image_side * math.sqrt(2.0) / pitch))
    if needed <= 363:
        return 363
    return needed if needed % 2 == 1 else needed + 1


def make_sparse_view_geometry(
    n_views: int,
    image_side: int = 256,
    detector_bins: int | None = None,
    detector_pitch: float = 1.0,
) -> RadonGeometry:
    """Uniform sparse-view geometry: angles k*(180/n_views), k = 0..n_views-1."""
    if n_views < 1:
        raise ValueError("n_views must be at least 1")
    angles = np.arange(n_views) * (180.0 / n_views)
    bins = detector_bins if detector_bins is not None else _default_bins(image_side, detector_pitch)
    return RadonGeometry(angles, bins, detector_pitch, image_side)


def make_limited_angle_geometry(
    n_views: int,
    max_angle: float,
    image_side: int = 256,
    detector_bins: int | None = None,
    detector_pitch: float = 1.0,
) -> RadonGeometry:
    """Limited-angle geometry: n_views angles spanning [0, max_angle] inclusive."""
    if n_views < 1:
        raise ValueError("n_views must be at least 1")
    if not 0.0 < max_angle <= 180.0:
        raise ValueError("max_angle must lie in (0, 180]")
    if n_views == 1:
        angles = np.array([0.0])
    else:
        angles = np.linspace(0.0, max_angle, n_views)
    bins = detector_bins if detector_bins is not None else _default_bins(image_side, detector_pitch)
    return RadonGeometry(angles, bins, detector_pitch, image_side)


def _trapezoid_cdf(x: np.ndarray, ramp: float, plateau_half: float) -> np.ndarray:
    """CDF of the unit-area trapezoid (box(w1) conv box(w2)) footprint.

    `ramp` is the ramp width (a - c), `plateau_half` is c, with support
    half-width a = c + ramp; degenerates to a box CDF when ramp ~ 0.
    """
    a = plateau_half + ramp
    height = 1.0 / (a + plateau_half)
    out = np.empty_like(x)
    if ramp < 1e-12:
        np.clip((x + a) / (2.0 * a), 0.0, 1.0, out=out)
        return out
    np.clip(x, -a, a, out=out)
    x = out.copy()
    left = x < -plateau_half
    right = x > plateau_half
    mid = ~(left | right)
    out[left] = height * (x[left] + a) ** 2 / (2.0 * ramp)
    out[mid] = height * (0.5 * ramp + (x[mid] + plateau_half))
    out[right] = 1.0 - height * (a - x[right]) ** 2 / (2.0 * ramp)
    return out


def _radon_matrix(geo: RadonGeometry) -> sp.csr_matrix:
    """Pixel-driven projection matrix with exact area-weighted footprints.

    Each pixel's unit-square aperture projects onto the detector axis as a
    trapezoid (the convolution of boxes of width |cos t| and |sin t|); the
    weight on a bin is the exact integral of that footprint over the bin.
    At axis-aligned angles this reduces to the classic two-bin linear split;
    at oblique angles it suppresses the lattice-beating comb artifacts a
    two-bin split produces. Contributions outside the detector are dropped
    identically in forward and adjoint, so the adjoint is an exact transpose.
    """
    side = geo.image_side
    n_bins = geo.detector_bins
    pitch = geo.detector_pitch
    center = (side - 1) / 2.0
    coords = np.arange(side) - center
    # x increases along columns, y upward (against the row index);
    # s = x cos(t) + y sin(t)
    y = np.repeat(-coords, side)
    x = np.tile(coords, side)

    rows, cols, vals = [], [], []
    pixel_ids = np.arange(side * side)
    for view, angle in enumerate(geo.angles):
        theta = math.radians(angle)
        w1, w2 = abs(math.cos(theta)), abs(math.sin(theta))
        a = (w1 + w2) / 2.0
        plateau_half = abs(w1 - w2) / 2.0
        ramp = a - plateau_half
        s = x * math.cos(theta) + y * math.sin(theta)
        first = np.floor((s - a) / pitch + (n_bins - 1) / 2.0 + 0.5).astype(np.int64)
        n_touched = int(math.ceil(2.0 * a / pitch)) + 1
        prev_cdf = None
        for offset in range(n_touched + 1):
            b = first + offset
            edge = (b - (n_bins - 1) / 2.0 - 0.5) * pitch - s  # left bin edge
            cdf = _trapezoid_cdf(edge, ramp, plateau_half)
            if prev_cdf is not None:
                weight = (cdf - prev_cdf) / pitch
                bin_idx = b - 1
                ok = (bin_idx >= 0) & (bin_idx < n_bins) & (weight > 1e-300)
                rows.append(view * n_bins + bin_idx[ok])
                cols.append(pixel_ids[ok])
                vals.append(weight[ok])
            prev_cdf = cdf
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geo.n_views * n_bins, side * side),
    )
    matrix.sum_duplicates()
    return matrix


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _RowBlock(NamedTuple):
    """Consecutive rows of a CSR matrix, starting at row `first`.

    `data` and `indices` are views into the matrix's arrays; only `indptr`
    is a new array, rebased to start at 0.
    """

    first: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1


def _split_rows(matrix: sp.csr_matrix, n_blocks: int) -> list[_RowBlock]:
    """Cut a CSR matrix into at most `n_blocks` contiguous row blocks of about
    equal non-zero count.

    No block is empty of rows, so asking for more blocks than rows gives at
    most one block per row.
    """
    indptr = matrix.indptr
    n_rows = matrix.shape[0]
    cuts = np.searchsorted(indptr, np.arange(1, n_blocks) * (matrix.nnz / n_blocks))
    bounds = np.unique(np.concatenate(([0], np.minimum(cuts, n_rows), [n_rows])))
    blocks = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        start, stop = indptr[lo], indptr[hi]
        blocks.append(_RowBlock(lo, indptr[lo:hi + 1] - start, matrix.indices[start:stop],
                                matrix.data[start:stop]))
    return blocks


# One pool per process, shared by every operator, since the CPUs are shared
# too. A forked child inherits the pool object but none of its threads, so a
# submit there would wait forever: the child forgets the pool and builds its
# own on first use.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _matvec_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_available_cpus() - 1, 1),
                                       thread_name_prefix="dcpnp-matvec")
        return _pool


def _forget_pool_after_fork() -> None:
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms without fork have nothing to reset
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


class _RowBlockedCsr:
    """A CSR matrix whose matvec runs its row blocks on the thread pool."""

    def __init__(self, matrix: sp.csr_matrix, n_blocks: int):
        self.matrix = matrix
        self.blocks = _split_rows(matrix, n_blocks)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if len(self.blocks) < 2:
            return self.matrix @ x
        x = np.ascontiguousarray(x, dtype=np.float64)
        n_rows, n_cols = self.matrix.shape
        out = np.zeros(n_rows)

        def run(block: _RowBlock) -> None:
            # scipy's own CSR kernel: adds each row's sum, taken in stored
            # order, into the zeroed slice, exactly as `matrix @ x` does
            _sparsetools.csr_matvec(block.n_rows, n_cols, block.indptr, block.indices,
                                    block.data, x, out[block.first:block.first + block.n_rows])

        pool = _matvec_pool()
        futures = [pool.submit(run, block) for block in self.blocks[1:]]
        run(self.blocks[0])
        for future in futures:
            future.result()
        return out


class RadonOperator(LinearOperator):
    """Discrete parallel-beam Radon transform with its exact transpose.

    Both matrices are split into one row block per available CPU at
    construction; with a single CPU they are multiplied directly.
    """

    def __init__(self, geo: RadonGeometry):
        self.geo = geo
        self.domain_shape = (geo.image_side, geo.image_side)
        self.range_shape = (geo.n_views, geo.detector_bins)
        self._fwd = _radon_matrix(geo)
        self._adj = sp.csr_matrix(self._fwd.T)
        n_cpus = _available_cpus()
        self._fwd_blocks = _RowBlockedCsr(self._fwd, n_cpus)
        self._adj_blocks = _RowBlockedCsr(self._adj, n_cpus)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check_domain(x)
        return (self._fwd_blocks @ x.ravel()).reshape(self.range_shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self._check_range(y)
        return (self._adj_blocks @ y.ravel()).reshape(self.domain_shape)


def radon_forward(img: np.ndarray, geo: RadonGeometry) -> np.ndarray:
    """One-shot sinogram of `img`; prefer RadonOperator for repeated applies."""
    return RadonOperator(geo).apply(img)


def radon_adjoint(sino: np.ndarray, geo: RadonGeometry) -> np.ndarray:
    """One-shot back-projection (exact transpose of radon_forward)."""
    return RadonOperator(geo).adjoint(sino)


def _ramp_filter(n: int, pitch: float, apodization: str) -> np.ndarray:
    # Sampled spatial-domain ramp response rather than |f| sampled in
    # frequency: its DFT keeps the small positive DC term that removes the
    # mean bias of a naive ramp.
    kernel = np.zeros(n)
    kernel[0] = 0.25
    odd = np.arange(1, n // 2 + 1, 2)
    kernel[odd] = -1.0 / (np.pi * odd) ** 2
    kernel[-odd] = -1.0 / (np.pi * odd) ** 2
    ramp = np.real(np.fft.fft(kernel)) / pitch
    if apodization == "hann":
        freqs = np.fft.fftfreq(n, d=pitch)
        ramp = ramp * 0.5 * (1.0 + np.cos(np.pi * freqs / (0.5 / pitch)))
    elif apodization != "ramp":
        raise ValueError(f"unknown apodization {apodization!r}")
    return ramp


def fbp(sino: np.ndarray, geo: RadonGeometry, apodization: str = "ramp",
        op: RadonOperator | None = None) -> np.ndarray:
    """Filtered back-projection: per-row frequency-domain ramp filter, then
    the transpose back-projector, scaled by pi / n_views.

    Classical pseudo-inverse baseline and optional solver initialization.
    """
    sino = np.asarray(sino, dtype=np.float64)
    if sino.shape != (geo.n_views, geo.detector_bins):
        raise ValueError(f"sinogram shape {sino.shape} does not match geometry")
    n_pad = 1 << max(6, int(math.ceil(math.log2(2 * geo.detector_bins))))
    ramp = _ramp_filter(n_pad, geo.detector_pitch, apodization)
    spectrum = np.fft.fft(sino, n=n_pad, axis=1) * ramp[None, :]
    filtered = np.fft.ifft(spectrum, axis=1).real[:, : geo.detector_bins]
    operator = op if op is not None else RadonOperator(geo)
    scale = math.pi * geo.detector_pitch / geo.n_views
    return scale * operator.adjoint(filtered)


# --- masked Fourier encoding -------------------------------------------------


@dataclass(frozen=True)
class CartesianMask:
    """1D equidistant Cartesian line mask over k-space columns.

    `keep` flags the retained columns in unshifted DFT indexing; the DC
    column (index 0) is always kept, plus `center_lines` low-frequency
    columns around it.
    """

    height: int
    width: int
    keep: np.ndarray
    af: int
    center_lines: int

    def __post_init__(self):
        keep = np.asarray(self.keep, dtype=bool)
        object.__setattr__(self, "keep", keep)
        if keep.shape != (self.width,):
            raise ValueError("keep must have one flag per k-space column")
        if not keep[0]:
            raise ValueError("DC column must be kept")

    @property
    def kept_fraction(self) -> float:
        return float(np.count_nonzero(self.keep)) / self.width


def make_cartesian_mask(h: int, w: int, af: int, center_lines: int = 16) -> CartesianMask:
    """Equidistant mask: every af-th line plus a fully sampled central band.

    Constructed in centered (fftshift) coordinates so the equidistant comb
    passes through the k-space center, then rolled to unshifted indexing.
    """
    if af < 1:
        raise ValueError("acceleration factor must be at least 1")
    if af > w:
        raise ValueError(f"acceleration factor {af} exceeds k-space width {w}")
    if center_lines < 1:
        raise ValueError("center_lines must be at least 1")
    center = w // 2
    cols = np.arange(w)
    keep_shifted = (cols - center) % af == 0
    half_lo = center_lines // 2
    half_hi = center_lines - half_lo
    band = (cols >= center - half_lo) & (cols < center + half_hi)
    keep = np.fft.ifftshift(keep_shifted | band)
    return CartesianMask(h, w, keep, af, center_lines)


def save_mask(path, mask: CartesianMask) -> None:
    """Mask file: magic "DCPM", h/w/af/center_lines as little-endian uint32,
    then the keep flags as a packed bit vector (little bit order)."""
    with open(path, "wb") as fh:
        fh.write(b"DCPM")
        fh.write(np.array([mask.height, mask.width, mask.af, mask.center_lines],
                          dtype="<u4").tobytes())
        fh.write(np.packbits(mask.keep, bitorder="little").tobytes())


def load_mask(path) -> CartesianMask:
    with open(path, "rb") as fh:
        if fh.read(4) != b"DCPM":
            raise ValueError("bad mask magic bytes")
        h, w, af, center = np.frombuffer(fh.read(16), dtype="<u4")
        packed = np.frombuffer(fh.read(), dtype=np.uint8)
    keep = np.unpackbits(packed, count=int(w), bitorder="little").astype(bool)
    return CartesianMask(int(h), int(w), keep, int(af), int(center))


class FourierMaskOperator(LinearOperator):
    """Masked unitary Fourier encoding: y = M * F(x) with F'F = I.

    The unitary scaling (1/sqrt(HW) forward) makes A'A an orthogonal
    projection onto the sampled lines, independent of the unnormalized
    convention used by the spectral pipeline.
    """

    is_complex = True

    def __init__(self, mask: CartesianMask):
        self.mask = mask
        self.domain_shape = (mask.height, mask.width)
        self.range_shape = (mask.height, mask.width)
        self._norm = math.sqrt(mask.height * mask.width)
        self._keep = mask.keep[None, :].astype(np.float64)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        self._check_domain(x)
        return self._keep * (np.fft.fft2(x) / self._norm)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128)
        self._check_range(y)
        return np.fft.ifft2(self._keep * y) * self._norm


def fourier_mask_apply(img: np.ndarray, mask: CartesianMask) -> np.ndarray:
    """One-shot masked k-space of `img` under the unitary scaling."""
    return FourierMaskOperator(mask).apply(img)


# --- test and certification operators ----------------------------------------


class DenseOperator(LinearOperator):
    """Explicit-matrix operator over column-vector grids (n, 1) -> (m, 1)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2D")
        self.matrix = matrix
        self.domain_shape = (matrix.shape[1], 1)
        self.range_shape = (matrix.shape[0], 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check_domain(x)
        return self.matrix @ x

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self._check_range(y)
        return self.matrix.T @ y


class IdentityOperator(LinearOperator):
    def __init__(self, shape: tuple[int, int], is_complex: bool = False):
        self.domain_shape = shape
        self.range_shape = shape
        self.is_complex = is_complex

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check_domain(x)
        return np.array(x, copy=True)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        self._check_range(y)
        return np.array(y, copy=True)


def dot_test(op: LinearOperator, rng: np.random.Generator | int = 0) -> float:
    """Normalized adjoint discrepancy |<Ax,y> - <x,A'y>| / (|Ax||y| + tiny)."""
    if not isinstance(rng, np.random.Generator):
        rng = make_rng(rng)

    def draw(shape):
        sample = rng.standard_normal(shape)
        if op.is_complex:
            sample = sample + 1j * rng.standard_normal(shape)
        return sample

    x = draw(op.domain_shape)
    y = draw(op.range_shape)
    ax = op.apply(x)
    aty = op.adjoint(y)
    lhs = np.vdot(y, ax)
    rhs = np.vdot(aty, x)
    denom = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-300
    return float(abs(lhs - rhs) / denom)
