"""Linear forward models with exact adjoints.

Two measurement families are shipped: a parallel-beam Radon transform
(sparse-view and limited-angle CT) and a masked unitary Fourier encoding
(accelerated single-coil MRI), plus dense and identity operators used by
tests and fixed-point certification. Every operator satisfies the adjoint
dot-test to near machine precision because the adjoint is the literal
transpose of the discretized forward map, never an independent
discretization.

The Radon matrices are applied on every CPU the process may run on: each is
cut into one nnz-balanced row range per CPU, and `grid_core.fork_join` runs
scipy's CSR kernel (which releases the GIL) on each range, straight on the
matrix's own arrays. Every row is still summed in the same order, so results
are bitwise equal to a single-threaded product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import grid_core
from .grid_core import from_channels


class LinearOperator:
    """Base class: a linear map between 2D grids with an exact adjoint."""

    domain_shape: tuple[int, int]
    range_shape: tuple[int, int]
    is_complex: bool = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_solve(self, y: np.ndarray, warm: np.ndarray, lam: float) -> np.ndarray | None:
        """argmin_x ||Ax - y||^2 + lam ||x - warm||^2 in closed form, or None
        when the operator has no closed form (the caller then iterates)."""
        return None

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

    The detector has `detector_bins` bins of one pixel each, centered on the
    rotation axis; it must cover the image diagonal.
    """

    angles: np.ndarray
    detector_bins: int = 363
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
        if self.detector_bins < self.image_side * math.sqrt(2.0):
            raise ValueError(
                f"detector too narrow: {self.detector_bins} bins cannot cover a "
                f"{self.image_side}px image diagonal"
            )

    @property
    def n_views(self) -> int:
        return len(self.angles)


def _default_bins(image_side: int) -> int:
    # 363 covers every image up to 256px; wider images get the smallest
    # odd bin count that still spans the diagonal.
    needed = int(math.ceil(image_side * math.sqrt(2.0)))
    if needed <= 363:
        return 363
    return needed if needed % 2 == 1 else needed + 1


def make_sparse_view_geometry(
    n_views: int,
    image_side: int = 256,
    detector_bins: int | None = None,
) -> RadonGeometry:
    """Uniform sparse-view geometry: angles k*(180/n_views), k = 0..n_views-1."""
    if n_views < 1:
        raise ValueError("n_views must be at least 1")
    angles = np.arange(n_views) * (180.0 / n_views)
    bins = detector_bins if detector_bins is not None else _default_bins(image_side)
    return RadonGeometry(angles, bins, image_side)


def make_limited_angle_geometry(
    n_views: int,
    max_angle: float,
    image_side: int = 256,
    detector_bins: int | None = None,
) -> RadonGeometry:
    """Limited-angle geometry: n_views angles spanning [0, max_angle] inclusive."""
    if n_views < 1:
        raise ValueError("n_views must be at least 1")
    if not 0.0 < max_angle < 180.0:
        raise ValueError("max_angle must lie in (0, 180): a view at 180 degrees "
                         "would repeat the view at 0")
    angles = np.linspace(0.0, max_angle, n_views)
    bins = detector_bins if detector_bins is not None else _default_bins(image_side)
    return RadonGeometry(angles, bins, image_side)


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


def _footprint(theta: float) -> tuple[float, float, int]:
    """A unit pixel's trapezoid footprint at angle `theta`: its half-support a,
    its plateau half-width c, and the most detector bins it can overlap."""
    w1, w2 = abs(math.cos(theta)), abs(math.sin(theta))
    a = (w1 + w2) / 2.0
    return a, abs(w1 - w2) / 2.0, int(math.ceil(2.0 * a)) + 1


def _radon_matrix(geo: RadonGeometry) -> sp.csr_matrix:
    """Pixel-driven projection matrix with exact area-weighted footprints.

    Each pixel's unit-square aperture projects onto the detector axis as a
    trapezoid (the convolution of boxes of width |cos t| and |sin t|); the
    weight on a bin is the exact integral of that footprint over the bin.
    At axis-aligned angles this reduces to the classic two-bin linear split;
    at oblique angles it suppresses the lattice-beating comb artifacts a
    two-bin split produces. Contributions outside the detector are dropped
    identically in forward and adjoint, so the adjoint is an exact transpose.

    View v owns rows v*n_bins ... (v+1)*n_bins - 1, so the matrix is built
    one view at a time: each view's CSR block is scattered straight into
    arrays sized for an upper bound on the non-zero count, which are shrunk
    in place at the end. Pages past the real count are never touched, and
    the whole matrix is never held as (row, column, value) triplets.
    """
    side = geo.image_side
    n_bins = geo.detector_bins
    n_pixels = side * side
    n_rows = geo.n_views * n_bins
    center = (side - 1) / 2.0
    coords = np.arange(side) - center
    # x increases along columns, y upward (against the row index);
    # s = x cos(t) + y sin(t)
    y = np.repeat(-coords, side)
    x = np.tile(coords, side)

    thetas = [math.radians(angle) for angle in geo.angles]
    bound = n_pixels * sum(_footprint(theta)[2] for theta in thetas)
    idx_dtype = np.int32 if max(bound, n_rows, n_pixels) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    indices = np.empty(bound, dtype=idx_dtype)
    data = np.empty(bound)
    view_indptr = np.empty(n_bins + 1, dtype=idx_dtype)
    nnz = 0
    for view, theta in enumerate(thetas):
        a, plateau_half, n_touched = _footprint(theta)
        ramp = a - plateau_half
        s = x * math.cos(theta) + y * math.sin(theta)
        first = np.floor(s - a + (n_bins - 1) / 2.0 + 0.5).astype(np.int64)
        # pixel-major: weights[p, j] is pixel p's weight on bin first[p] + j
        bins = first[:, None] + np.arange(n_touched)
        weights = np.empty(bins.shape)
        prev_cdf = None
        for offset in range(n_touched + 1):
            edge = first + offset - (n_bins - 1) / 2.0 - 0.5 - s  # left bin edge
            cdf = _trapezoid_cdf(edge, ramp, plateau_half)
            if prev_cdf is not None:
                weights[:, offset - 1] = cdf - prev_cdf
            prev_cdf = cdf
        ok = (bins >= 0) & (bins < n_bins) & (weights > 1e-300)
        pixels = np.nonzero(ok)[0].astype(idx_dtype)
        count = len(pixels)
        # a stable scatter by bin of the pixel-major entries leaves every
        # row's columns in ascending order, with no duplicates to sum
        _sparsetools.coo_tocsr(n_bins, n_pixels, count, bins[ok].astype(idx_dtype), pixels,
                               weights[ok], view_indptr, indices[nnz:nnz + count],
                               data[nnz:nnz + count])
        indptr[view * n_bins + 1:(view + 1) * n_bins + 1] = view_indptr[1:] + nnz
        nnz += count
    indices.resize(nnz, refcheck=False)  # in place: never a second copy
    data.resize(nnz, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_pixels))


def _row_ranges(matrix: sp.csr_matrix, n_ranges: int) -> list[tuple[int, int]]:
    """Cut a CSR matrix's rows into at most `n_ranges` contiguous `(first, stop)`
    ranges of about equal non-zero count, none of them empty of rows."""
    n_rows = matrix.shape[0]
    cuts = np.searchsorted(matrix.indptr, np.arange(1, n_ranges) * (matrix.nnz / n_ranges))
    bounds = np.unique(np.concatenate(([0], np.minimum(cuts, n_rows), [n_rows])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _matvec(matrix: sp.csr_matrix, ranges: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    """`matrix @ x`, each row range on its own thread through `grid_core.fork_join`."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.zeros(matrix.shape[0])

    def run(rows: tuple[int, int]) -> None:
        # scipy's own CSR kernel adds each row's sum, in stored order, into the
        # zeroed slice as `matrix @ x` does; indptr keeps its absolute offsets
        first, stop = rows
        _sparsetools.csr_matvec(stop - first, matrix.shape[1], matrix.indptr[first:stop + 1],
                                matrix.indices, matrix.data, x, out[first:stop])

    grid_core.fork_join(run, ranges)
    return out


class RadonOperator(LinearOperator):
    """Discrete parallel-beam Radon transform with its exact transpose.

    Both matrices are cut into one row range per available CPU at
    construction; with one CPU the whole matrix is one range.
    """

    def __init__(self, geo: RadonGeometry):
        self.domain_shape = (geo.image_side, geo.image_side)
        self.range_shape = (geo.n_views, geo.detector_bins)
        self._fwd = _radon_matrix(geo)
        self._adj = sp.csr_matrix(self._fwd.T)
        n_cpus = grid_core.available_cpus()
        self._fwd_ranges = _row_ranges(self._fwd, n_cpus)
        self._adj_ranges = _row_ranges(self._adj, n_cpus)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check_domain(x)
        return _matvec(self._fwd, self._fwd_ranges, x.ravel()).reshape(self.range_shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self._check_range(y)
        return _matvec(self._adj, self._adj_ranges, y.ravel()).reshape(self.domain_shape)


# --- masked Fourier encoding -------------------------------------------------


@dataclass(frozen=True)
class CartesianMask:
    """1D equidistant Cartesian line mask over k-space columns.

    `keep` flags the retained columns in unshifted DFT indexing; the DC
    column (index 0) is always kept.
    """

    height: int
    width: int
    keep: np.ndarray

    def __post_init__(self):
        keep = np.asarray(self.keep, dtype=bool)
        object.__setattr__(self, "keep", keep)
        if keep.shape != (self.width,):
            raise ValueError("keep must have one flag per k-space column")
        if not keep[0]:
            raise ValueError("DC column must be kept")


def make_cartesian_mask(h: int, w: int, af: int, center_lines: int) -> CartesianMask:
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
    return CartesianMask(h, w, keep)


class FourierMaskOperator(LinearOperator):
    """Masked unitary Fourier encoding: y = M * F(x) with F'F = I.

    The unitary scaling (1/sqrt(HW) forward) makes A'A an orthogonal
    projection onto the sampled lines, independent of the unnormalized
    convention used by the spectral pipeline. The same fact makes the
    penalized least-squares step diagonal in k-space (`prox_solve`).
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

    def prox_solve(self, y: np.ndarray, warm: np.ndarray, lam: float) -> np.ndarray | None:
        """x = F'[(M y + lam F warm) / (M + lam)] with F unitary: one FFT and
        one inverse FFT. Energy in y off the mask is ignored, as `adjoint`
        ignores it. lam = 0 has no unique minimizer: None."""
        if lam <= 0:
            return None
        y = np.asarray(y, dtype=np.complex128)
        warm = np.asarray(warm, dtype=np.complex128)
        self._check_range(y)
        self._check_domain(warm)
        spectrum = np.fft.fft2(warm)
        spectrum *= lam / self._norm
        spectrum += self._keep * y
        spectrum /= self._keep + lam
        return np.fft.ifft2(spectrum) * self._norm


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
    def __init__(self, shape: tuple[int, int]):
        self.domain_shape = shape
        self.range_shape = shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check_domain(x)
        return np.array(x, copy=True)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        self._check_range(y)
        return np.array(y, copy=True)


def dot_test(op: LinearOperator, rng: np.random.Generator) -> float:
    """Normalized adjoint discrepancy |<Ax,y> - <x,A'y>| / (|Ax||y| + tiny)."""

    def draw(shape):
        return from_channels([rng.standard_normal(shape) for _ in range(2 if op.is_complex else 1)])

    x = draw(op.domain_shape)
    y = draw(op.range_shape)
    ax = op.apply(x)
    aty = op.adjoint(y)
    lhs = np.vdot(y, ax)
    rhs = np.vdot(aty, x)
    denom = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-300
    return float(abs(lhs - rhs) / denom)
