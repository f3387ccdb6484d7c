"""Reconstruction quality metrics.

PSNR is computed on the declared intensity range; SSIM is the mean local
structural similarity with the conventional 11x11 Gaussian window (std 1.5)
and stabilizers K1 = 0.01, K2 = 0.03. On complex grids PSNR scores the
complex error |a - b|, so a phase error counts, while SSIM compares the
magnitudes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .grid_core import gaussian_window

# the width of the phantoms' fixed intensity range [-1, 1]
PSNR_PEAK = 2.0


def _as_comparable(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return np.abs(a) if np.iscomplexobj(a) else a.astype(np.float64)


def psnr(a: np.ndarray, b: np.ndarray, peak: float = PSNR_PEAK) -> float:
    """10 log10(peak^2 / MSE) in dB; +inf when the grids are identical."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean(np.abs(a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = PSNR_PEAK) -> float:
    """Mean local SSIM over the interior (windows fully inside the grids)."""
    a, b = _as_comparable(a), _as_comparable(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if min(a.shape) < 11:
        raise ValueError("grids must be at least 11x11 for the SSIM window")
    window = gaussian_window(5, 1.5)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    def smooth(m):
        return ndimage.convolve(m, window, mode="nearest")

    mu_a, mu_b = smooth(a), smooth(b)
    var_a = smooth(a * a) - mu_a**2
    var_b = smooth(b * b) - mu_b**2
    cov = smooth(a * b) - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    interior = ssim_map[5:-5, 5:-5]
    return float(np.mean(interior))
