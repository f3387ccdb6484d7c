"""Synthetic test objects on the [-1, 1] intensity convention.

The background maps to -1 and the brightest tissue to at most +1. The MRI
phantom is complex-valued: a magnitude image modulated by a smooth
low-order polynomial phase, standing in for single-coil k-space data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ellipse table (intensity, semi-axis a, semi-axis b, x0, y0, angle deg) of the
# high-contrast head phantom variant; raw superposition lies in [0, 1].
_HEAD_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


@dataclass(frozen=True)
class PhantomSpec:
    kind: str = "shepp-logan"  # "shepp-logan" | "random-ellipses" | "flat-disk"
    side: int = 128

    def __post_init__(self):
        if self.kind not in ("shepp-logan", "random-ellipses", "flat-disk"):
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if self.side < 16:
            raise ValueError("phantom side must be at least 16")


def _unit_coords(side: int):
    # x right along columns, y up; both in [-1, 1] at the pixel centers
    half = (side - 1) / 2.0
    x = (np.arange(side) - half) / half
    xx, yy = np.meshgrid(x, -x, indexing="xy")
    return xx, yy


def _render_ellipses(side: int, table) -> np.ndarray:
    xx, yy = _unit_coords(side)
    img = np.zeros((side, side))
    for intensity, a, b, x0, y0, angle in table:
        phi = np.deg2rad(angle)
        xr = (xx - x0) * np.cos(phi) + (yy - y0) * np.sin(phi)
        yr = -(xx - x0) * np.sin(phi) + (yy - y0) * np.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += intensity
    return img


def shepp_logan(side: int = 128) -> np.ndarray:
    """Head phantom mapped from raw [0, 1] onto [-1, 1] (background -1)."""
    return np.clip(2.0 * _render_ellipses(side, _HEAD_ELLIPSES) - 1.0, -1.0, 1.0)


def random_ellipses(side: int, rng: np.random.Generator, n_ellipses: int = 8) -> np.ndarray:
    """Seeded random overlapping ellipses inside a fixed body outline."""
    table = [(0.8, 0.75, 0.85, 0.0, 0.0, 0.0)]
    for _ in range(n_ellipses):
        table.append((
            float(rng.uniform(-0.4, 0.4)),
            float(rng.uniform(0.05, 0.35)),
            float(rng.uniform(0.05, 0.35)),
            float(rng.uniform(-0.45, 0.45)),
            float(rng.uniform(-0.45, 0.45)),
            float(rng.uniform(0.0, 180.0)),
        ))
    return np.clip(2.0 * _render_ellipses(side, table) - 1.0, -1.0, 1.0)


def flat_disk(side: int, radius: float = 0.6, inside: float = 1.0, outside: float = -1.0) -> np.ndarray:
    """Constant disk on a constant background; radius is a fraction of the half-side."""
    xx, yy = _unit_coords(side)
    img = np.full((side, side), float(outside))
    img[xx**2 + yy**2 <= radius**2] = float(inside)
    return img


def make_phantom(spec: PhantomSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    if spec.kind == "shepp-logan":
        return shepp_logan(spec.side)
    if spec.kind == "flat-disk":
        return flat_disk(spec.side)
    if rng is None:
        raise ValueError("random-ellipses needs an rng")
    return random_ellipses(spec.side, rng)


def mri_phantom(side: int = 320) -> np.ndarray:
    """Complex phantom: head-phantom magnitude with a smooth polynomial phase."""
    magnitude = np.clip(0.5 * (shepp_logan(side) + 1.0), 0.0, 1.0)
    xx, yy = _unit_coords(side)
    phase = 0.8 * (xx**2 - yy**2) + 0.5 * xx * yy + 0.3 * xx - 0.2 * yy
    return magnitude * np.exp(1j * phase)
