"""Spectral homogenization: turn structured solver residuals into pseudo-white noise.

Pipeline per call: estimate the residual against the previous prior iterate,
smooth its periodogram, measure the per-bin deficit against the white target
level sigma^2 * H * W, synthesize complementary noise carrying exactly that
deficit with a transplanted random phase, and add it to the input. Complex
grids run the pipeline independently on real and imaginary channels.

All functions use the unnormalized-forward DFT convention from grid_core,
under which a white field of per-pixel variance s^2 has expected per-bin
power s^2 * H * W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .grid_core import forward_dft, inverse_dft, make_rng, sample_white_gaussian


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
        half = self.window // 2
        coords = np.arange(-half, half + 1, dtype=np.float64)
        std = self.window / 4.0
        one_d = np.exp(-0.5 * (coords / std) ** 2)
        k = np.outer(one_d, one_d)
        return k / k.sum()


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
    return _smoothed_periodogram(forward_dft(r), kernel)


def _smoothed_periodogram(spectrum: np.ndarray, kernel: SmoothingKernel) -> np.ndarray:
    return ndimage.convolve(np.abs(spectrum) ** 2, kernel.array, mode="wrap")


def spectral_deficit(psd: np.ndarray, sigma: float, eps: float = 0.0) -> np.ndarray:
    """Per-bin gap max(eps, sigma^2 * H * W - psd) toward the white target."""
    if sigma < 0 or eps < 0:
        raise ValueError("sigma and eps must be nonnegative")
    psd = np.asarray(psd, dtype=np.float64)
    target = sigma**2 * psd.shape[0] * psd.shape[1]
    return np.maximum(eps, target - psd)


def synthesize_complementary_noise(deficit: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Real noise field whose per-bin spectral power equals the deficit.

    Amplitude sqrt(deficit) is deterministic; the phase is transplanted from
    a fresh white Gaussian draw, which keeps the spectrum Hermitian so the
    synthesized field is real (the vanishing imaginary part is asserted).
    """
    return _real_field(_complementary_spectrum(deficit, rng))


def _complementary_spectrum(deficit: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """sqrt(deficit) times the unit phase of a fresh white draw's spectrum."""
    deficit = np.asarray(deficit, dtype=np.float64)
    if np.any(deficit < 0):
        raise ValueError("deficit must be nonnegative")
    spectrum = forward_dft(rng.standard_normal(deficit.shape))
    mag = np.abs(spectrum)
    degenerate = mag < 1e-300
    mag[degenerate] = 1.0
    spectrum /= mag  # the phase, normalized in place
    spectrum[degenerate] = 1.0
    spectrum *= np.sqrt(deficit)
    return spectrum


def _real_field(spectrum: np.ndarray) -> np.ndarray:
    field_c = inverse_dft(spectrum)
    worst_imag = float(np.max(np.abs(field_c.imag)))
    if worst_imag > 1e-9:
        raise AssertionError(f"synthesized noise is not real: max |imag| = {worst_imag}")
    return field_c.real


def _coefficient_of_variation(m: np.ndarray) -> float:
    mean = float(np.mean(m))
    if mean == 0.0:
        return 0.0
    return float(np.std(m) / mean)


def _peak_to_floor(psd: np.ndarray) -> float:
    return float(np.max(psd) / max(float(np.min(psd)), 1e-300))


def _homogenize_channel(r: np.ndarray, sigma: float, cfg: ShConfig, rng: np.random.Generator):
    # r is transformed once: the effective PSD of r + noise is taken from
    # F(r) + S, where S is the spectrum the noise was synthesized from
    spectrum = forward_dft(r)
    psd = _smoothed_periodogram(spectrum, cfg.kernel)
    deficit = spectral_deficit(psd, sigma, cfg.eps)
    synthesized = _complementary_spectrum(deficit, rng)
    noise = _real_field(synthesized)
    spectrum += synthesized
    effective = _smoothed_periodogram(spectrum, cfg.kernel)
    return noise, psd, deficit, effective


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
    channels = [r.real, r.imag] if np.iscomplexobj(r) else [r]
    noises, psds, deficits, effectives = zip(
        *(_homogenize_channel(c, sigma, cfg, rng) for c in channels))
    noise = noises[0] if len(channels) == 1 else noises[0] + 1j * noises[1]
    psd = sum(psds) / len(channels)
    report = SpectralReport(
        injected_energy=float(sum(d.sum() for d in deficits) / r.size),
        flatness_before=sum(map(_coefficient_of_variation, psds)) / len(channels),
        flatness_after=sum(map(_coefficient_of_variation, effectives)) / len(channels),
        peak_to_floor=_peak_to_floor(psd),
    )
    return v + noise, report


def naive_inject(v: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Ablation comparator: add full-level white noise regardless of the
    residual spectrum (over-energizes bins that already carry energy)."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return v + sigma * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
    return v + sigma * rng.standard_normal(v.shape)


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
        residual = sample_white_gaussian(rng, side, side, 0.5 * sigma)
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
