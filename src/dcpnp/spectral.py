"""Spectral homogenization: turn structured solver residuals into pseudo-white noise.

`homogenize` is the one pipeline. Per call it takes the residual against
the previous prior iterate, smooths its periodogram, measures the per-bin
deficit max(0, sigma^2 * H * W - PSD) against the white target, synthesizes
noise carrying exactly that deficit with the phase of a fresh white draw, and
adds it to the input. Its one setting is the smoothing window (`ShConfig`);
`estimate_psd` exposes the smoothed periodogram for diagnostics. Complex
grids run the pipeline on their real and imaginary channel
(`grid_core.channels`) at the same time, through `grid_core.fork_join`. The
calling thread draws both white fields first, real channel first, and
allocates every buffer; each channel then works in place in its slice of
those buffers, both transforms included, so no thread allocates the noise
field, and the result is bitwise equal to running the channels one after
the other.

All functions use the unnormalized-forward DFT convention from grid_core,
under which a white field of per-pixel variance s^2 has expected per-bin
power s^2 * H * W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid_core import _check_grid, channels, forward_dft, fork_join, from_channels
from .grid_core import gaussian_window, make_rng


@dataclass(frozen=True)
class ShConfig:
    """Homogenization settings: the odd periodogram-smoothing window w.

    The smoothing kernel is a 2D Gaussian of standard deviation w/4,
    truncated to the w x w window and normalized to sum exactly 1, so
    circular smoothing preserves total energy.
    """

    window: int = 7

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd positive integer")

    @property
    def kernel(self) -> np.ndarray:
        return gaussian_window(self.window // 2, self.window / 4.0)


@dataclass
class SpectralReport:
    """The two pre-injection statistics of one homogenization call.

    `injected_energy` is the injected noise's total energy sum |n|^2 over
    all pixels, i.e. H * W times its per-pixel variance; for complex grids
    it totals the two channels. `flatness_before` is the coefficient of
    variation of the smoothed PSD of the bootstrap residual v - z_prev
    (lower means whiter), averaged over the channels. It describes that
    residual, not the error of the denoiser's input against the truth.
    """

    injected_energy: float
    flatness_before: float


def estimate_psd(r: np.ndarray, cfg: ShConfig) -> np.ndarray:
    """Smoothed periodogram: |F(r)|^2 circularly convolved with `cfg.kernel`.

    Circular (wrap-around) smoothing matches the periodicity of the DFT
    plane and preserves the total energy exactly.
    """
    spectrum = forward_dft(r)
    return _smoothed_periodogram(spectrum, cfg.kernel, np.empty(spectrum.shape),
                                 np.empty(spectrum.shape))


def _smoothed_periodogram(spectrum, kernel, scratch, out):
    """|spectrum|^2 into `scratch`, smoothed into `out`."""
    np.square(np.abs(spectrum, out=scratch), out=scratch)
    return ndimage.convolve(scratch, kernel, output=out, mode="wrap")


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
    """Invert `spectrum` in place and return the field's real part, after
    checking that its imaginary part vanishes.

    The two in-place 1-D passes, rows then columns, are the passes `ifft2`
    makes, so the bytes are `np.fft.ifft2`'s; `ifft2` ignores `out=` and
    would allocate the field and two temporaries. Finiteness is checked
    first, through `scratch` rather than a full-size temporary, since a NaN
    passes the imaginary-part test and an infinite bin can leave it finite.
    """
    if not math.isfinite(np.abs(spectrum, out=scratch).max()):
        raise ValueError("grid contains non-finite samples")
    np.fft.ifft(spectrum, axis=-1, out=spectrum)
    np.fft.ifft(spectrum, axis=-2, out=spectrum)
    worst_imag = float(np.abs(spectrum.imag, out=scratch).max())
    if worst_imag > 1e-9:
        raise AssertionError(f"synthesized noise is not real: max |imag| = {worst_imag}")
    return spectrum.real


def _coefficient_of_variation(m, scratch=None):
    """np.std(m) / np.mean(m), bit for bit, with `scratch` for the squared deviations."""
    mean = float(np.mean(m))
    if mean == 0.0:
        return 0.0
    deviation = np.square(np.subtract(m, mean, out=scratch), out=scratch)
    return float(np.sqrt(deviation.sum() / m.size) / mean)


def homogenize(
    v: np.ndarray,
    z_prev: np.ndarray,
    sigma: float,
    cfg: ShConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, SpectralReport]:
    """Spectrally homogenized copy of v plus its pre-injection statistics.

    Fills only the spectral valleys of the bootstrap residual, never
    removing energy where the residual already exceeds the white target.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    v = np.asarray(v)
    z_prev = np.asarray(z_prev)
    if v.shape != z_prev.shape:
        raise ValueError(f"shape mismatch {v.shape} vs {z_prev.shape}")
    r = v - z_prev
    _check_grid(r)
    r_parts = channels(r)
    c = len(r_parts)
    shape = r.shape
    out = np.empty(shape, np.result_type(v, np.complex128 if c == 2 else np.float64))
    v_parts = channels(np.asarray(v, dtype=out.dtype))
    out_parts = channels(out)
    kernel = cfg.kernel
    target = sigma**2 * shape[0] * shape[1]
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
        deficit = np.maximum(0.0, np.subtract(target, psd, out=work), out=work)
        injected = deficit.sum()
        synth *= np.sqrt(deficit, out=deficit)
        np.add(v_parts[k], _real_field(synth, work), out=out_parts[k])
        stats[k] = injected, flat_before

    fork_join(run, range(c))
    injected, flat_before = zip(*stats)
    report = SpectralReport(
        injected_energy=float(sum(injected) / r.size),
        flatness_before=sum(flat_before) / c,
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
    homogenization whitens what naive noise leaves coloured). Both arms are
    scored the same way: the coefficient of variation of `estimate_psd` of
    the injected grid.
    """
    sigma = 1.0
    cfg = ShConfig(7)
    target = sigma**2 * side * side

    acc = np.zeros((side, side))
    for seed in range(n_seeds):
        rng = make_rng(seed)
        residual = 0.5 * sigma * rng.standard_normal((side, side))
        homogenized, _ = homogenize(residual, np.zeros_like(residual), sigma, cfg, rng)
        acc += estimate_psd(homogenized, cfg)
    mean_psd = acc / n_seeds

    xs = np.arange(side)
    streaks = np.zeros((side, side))
    for fx, fy in ((3, 11), (17, 5), (9, 23)):
        streaks += np.cos(2 * np.pi * (fx * xs[None, :] + fy * xs[:, None]) / side)
    streaks *= 0.12
    cv_sh, cv_naive = [], []
    for seed in range(n_seeds):
        rng = make_rng(10_000 + seed)
        homogenized, _ = homogenize(streaks, np.zeros_like(streaks), sigma, cfg, rng)
        cv_sh.append(_coefficient_of_variation(estimate_psd(homogenized, cfg)))
        cv_naive.append(_coefficient_of_variation(estimate_psd(naive_inject(streaks, sigma, rng), cfg)))
    return (float(mean_psd.min() / target), float(mean_psd.max() / target),
            float(np.mean(cv_sh) / np.mean(cv_naive)))
