"""Spectral homogenization: turn structured solver residuals into pseudo-white noise.

Pipeline per call: estimate the residual against the previous prior iterate,
smooth its periodogram, measure the per-bin deficit against the white target
level sigma^2 * H * W, synthesize complementary noise carrying exactly that
deficit with a transplanted random phase, and add it to the input. Complex
grids run the pipeline on their real and imaginary channel
(`grid_core.channels`) at the same time, through `grid_core.fork_join`. The
calling thread draws both white fields first, real channel first, and
allocates every buffer; each channel then works in place in its slice of
those buffers, so the result is bitwise equal to running the channels one
after the other.

All functions use the unnormalized-forward DFT convention from grid_core,
under which a white field of per-pixel variance s^2 has expected per-bin
power s^2 * H * W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .grid_core import _check_grid, channels, forward_dft, fork_join, from_channels
from .grid_core import gaussian_window, inverse_dft, make_rng


@dataclass(frozen=True)
class SmoothingKernel:
    """Normalized 2D Gaussian window for periodogram smoothing.

    Odd window size w, standard deviation w/4, truncated to the window and
    normalized to sum exactly 1 so circular smoothing preserves total energy.
    """

    window: int = 7

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd positive integer")

    @property
    def array(self) -> np.ndarray:
        return gaussian_window(self.window // 2, self.window / 4.0)


@dataclass(frozen=True)
class ShConfig:
    """Homogenization knobs: smoothing kernel and the deficit floor eps.

    eps = 0 reproduces the hard max(0, .) deficit clipping; a positive eps
    keeps a small noise floor in every bin.
    """

    kernel: SmoothingKernel = field(default_factory=SmoothingKernel)
    eps: float = 0.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")


@dataclass
class SpectralReport:
    """Diagnostics for one homogenization call.

    `flatness_*` is the coefficient of variation of the smoothed effective
    PSD (residual before injection, residual-plus-noise after); lower means
    whiter. `peak_to_floor` is the max/min ratio of the residual's smoothed
    PSD. For complex grids the statistics average the two channels while
    `injected_energy` totals them.
    """

    injected_energy: float
    flatness_before: float
    flatness_after: float
    peak_to_floor: float


def estimate_residual(v: np.ndarray, z_prev: np.ndarray) -> np.ndarray:
    """Bootstrap residual: the input minus the previous prior estimate."""
    v = np.asarray(v)
    z_prev = np.asarray(z_prev)
    if v.shape != z_prev.shape:
        raise ValueError(f"shape mismatch {v.shape} vs {z_prev.shape}")
    return v - z_prev


def estimate_psd(r: np.ndarray, kernel: SmoothingKernel) -> np.ndarray:
    """Smoothed periodogram: |F(r)|^2 circularly convolved with the kernel.

    Circular (wrap-around) smoothing matches the periodicity of the DFT
    plane and preserves the total energy exactly.
    """
    spectrum = forward_dft(r)
    return _smoothed_periodogram(spectrum, kernel.array, np.empty(spectrum.shape),
                                 np.empty(spectrum.shape))


def _smoothed_periodogram(spectrum, kernel, scratch, out):
    """|spectrum|^2 into `scratch`, smoothed into `out`."""
    np.square(np.abs(spectrum, out=scratch), out=scratch)
    return ndimage.convolve(scratch, kernel, output=out, mode="wrap")


def spectral_deficit(psd: np.ndarray, sigma: float, eps: float = 0.0) -> np.ndarray:
    """Per-bin gap max(eps, sigma^2 * H * W - psd) toward the white target."""
    if sigma < 0 or eps < 0:
        raise ValueError("sigma and eps must be nonnegative")
    psd = np.asarray(psd, dtype=np.float64)
    return _deficit(psd, sigma, eps, np.empty(psd.shape))


def _deficit(psd, sigma, eps, out):
    target = sigma**2 * psd.shape[0] * psd.shape[1]
    return np.maximum(eps, np.subtract(target, psd, out=out), out=out)


def synthesize_complementary_noise(deficit: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Real noise field whose per-bin spectral power equals the deficit.

    Amplitude sqrt(deficit) is deterministic; the phase is transplanted from
    a fresh white Gaussian draw, which keeps the spectrum Hermitian so the
    synthesized field is real (the vanishing imaginary part is asserted).
    """
    deficit = np.asarray(deficit, dtype=np.float64)
    if np.any(deficit < 0):
        raise ValueError("deficit must be nonnegative")
    spectrum = forward_dft(rng.standard_normal(deficit.shape))
    scratch = np.empty(deficit.shape)
    _unit_phase(spectrum, scratch)
    spectrum *= np.sqrt(deficit)
    return _real_field(spectrum, scratch)


def _unit_phase(spectrum, scratch):
    """Normalize a spectrum to unit modulus in place; a bin of modulus below
    1e-300 gets phase 1."""
    mag = np.abs(spectrum, out=scratch)
    if mag.min() >= 1e-300:
        spectrum /= mag
        return
    degenerate = mag < 1e-300
    mag[degenerate] = 1.0
    spectrum /= mag
    spectrum[degenerate] = 1.0


def _real_field(spectrum, scratch):
    """The inverse transform's real part, after checking that its imaginary
    part vanishes. numpy's `ifft2` ignores `out=`, so the field is new."""
    field_c = inverse_dft(spectrum)
    worst_imag = float(np.abs(field_c.imag, out=scratch).max())
    if worst_imag > 1e-9:
        raise AssertionError(f"synthesized noise is not real: max |imag| = {worst_imag}")
    return field_c.real


def _coefficient_of_variation(m, scratch=None):
    """np.std(m) / np.mean(m), bit for bit, with `scratch` for the squared deviations."""
    mean = float(np.mean(m))
    if mean == 0.0:
        return 0.0
    deviation = np.square(np.subtract(m, mean, out=scratch), out=scratch)
    return float(np.sqrt(deviation.sum() / m.size) / mean)


def _peak_to_floor(psd: np.ndarray) -> float:
    return float(np.max(psd) / max(float(np.min(psd)), 1e-300))


def _real_alias(buffer):
    """A contiguous real grid of `buffer`'s shape over the first half of its
    complex memory, for reusing a spectrum buffer once it is spent."""
    return buffer.view(np.float64).reshape(-1)[: buffer.size].reshape(buffer.shape)


def homogenize(
    v: np.ndarray,
    z_prev: np.ndarray,
    sigma: float,
    cfg: ShConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, SpectralReport]:
    """Spectrally homogenized copy of v plus the per-call diagnostics.

    Fills only the spectral valleys of the bootstrap residual, never
    removing energy where the residual already exceeds the white target.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    r = estimate_residual(v, z_prev)
    _check_grid(r)
    r_parts = channels(r)
    c = len(r_parts)
    shape = r.shape
    out = np.empty(shape, np.result_type(v, np.complex128 if c == 2 else np.float64))
    v_parts = channels(np.asarray(v, dtype=out.dtype))
    out_parts = channels(out)
    kernel = cfg.kernel.array
    # every buffer is allocated here, since buffers allocated on a worker
    # stay cached in its glibc heap arena (see priors._tv_prox_channels).
    # Two blocks rather than four arrays: with four, an mri320 solve took
    # about 265k minor page faults instead of 50-60k, and ran 10% slower
    spectra, synthesized = np.empty((2, c) + shape, np.complex128)
    scratch, psds = np.empty((2, c) + shape)
    for white in scratch:  # real channel first: the results depend on this stream order
        rng.standard_normal(out=white)
    stats = [None] * c

    def run(k: int) -> None:
        # r is transformed once: the effective PSD of r + noise is taken
        # from F(r) + S, where S is the spectrum the noise is synthesized from
        spectrum, synth, work, psd = spectra[k], synthesized[k], scratch[k], psds[k]
        # each channel is copied into its complex buffer and transformed in
        # place: given a real input, `fft2(out=)` allocates the complex copy
        np.copyto(synth, work)
        np.fft.fft2(synth, out=synth)
        np.copyto(spectrum, r_parts[k])
        np.fft.fft2(spectrum, out=spectrum)
        _smoothed_periodogram(spectrum, kernel, work, psd)
        flat_before = _coefficient_of_variation(psd, work)
        _unit_phase(synth, work)
        deficit = _deficit(psd, sigma, cfg.eps, work)
        injected = deficit.sum()
        synth *= np.sqrt(deficit, out=deficit)
        np.add(v_parts[k], _real_field(synth, work), out=out_parts[k])
        spectrum += synth
        effective = _smoothed_periodogram(spectrum, kernel, work, _real_alias(synth))
        stats[k] = injected, flat_before, _coefficient_of_variation(effective, work)

    fork_join(run, range(c))
    injected, flat_before, flat_after = zip(*stats)
    report = SpectralReport(
        injected_energy=float(sum(injected) / r.size),
        flatness_before=sum(flat_before) / c,
        flatness_after=sum(flat_after) / c,
        peak_to_floor=_peak_to_floor(psds.mean(axis=0)),
    )
    return out, report


def naive_inject(v: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Ablation comparator: add full-level white noise regardless of the
    residual spectrum (over-energizes bins that already carry energy)."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    v = np.asarray(v)
    return v + sigma * from_channels([rng.standard_normal(c.shape) for c in channels(v)])


def whitening_statistics(side: int, n_seeds: int) -> tuple[float, float, float]:
    """Monte-Carlo check of the whitening property at sigma = 1, window 7.

    Returns (lo, hi, cv_ratio): the min and max of the mean smoothed PSD of
    homogenized half-level white residuals over the white target (near 1
    when whitening works), and the mean flatness of homogenized plane-wave
    streaks over that of naively injected ones (well below 1 when
    homogenization whitens what naive noise leaves coloured).
    """
    sigma = 1.0
    cfg = ShConfig(SmoothingKernel(7), 0.0)
    target = sigma**2 * side * side

    acc = np.zeros((side, side))
    for seed in range(n_seeds):
        rng = make_rng(seed)
        residual = 0.5 * sigma * rng.standard_normal((side, side))
        homogenized, _ = homogenize(residual, np.zeros_like(residual), sigma, cfg, rng)
        acc += estimate_psd(homogenized, cfg.kernel)
    mean_psd = acc / n_seeds

    xs = np.arange(side)
    streaks = np.zeros((side, side))
    for fx, fy in ((3, 11), (17, 5), (9, 23)):
        streaks += np.cos(2 * np.pi * (fx * xs[None, :] + fy * xs[:, None]) / side)
    streaks *= 0.12
    cv_sh, cv_naive = [], []
    for seed in range(n_seeds):
        rng = make_rng(10_000 + seed)
        _, report = homogenize(streaks, np.zeros_like(streaks), sigma, cfg, rng)
        cv_sh.append(report.flatness_after)
        cv_naive.append(_coefficient_of_variation(estimate_psd(naive_inject(streaks, sigma, rng),
                                                               cfg.kernel)))
    return (float(mean_psd.min() / target), float(mean_psd.max() / target),
            float(np.mean(cv_sh) / np.mean(cv_naive)))
