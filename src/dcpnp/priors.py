"""Denoiser contract, noise schedule, and analytic stand-in priors.

The solver only ever calls `Denoiser.denoise(v, sigma, t)`. Three analytic
denoisers are provided for desk-scale experiments where the prior's score
or proximal map is known exactly (Gaussian prior, TV prox, identity), plus
a file-based handshake for plugging in an external denoiser process.
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grid_core


class DenoiserError(RuntimeError):
    """External denoiser invocation failed or returned an unusable grid."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise levels over the outer iterations."""

    sigma_max: float = 10.0
    sigma_min: float = 0.01
    steps: int = 50
    spacing: str = "geometric"  # or "linear"

    def __post_init__(self):
        if not 0 < self.sigma_min <= self.sigma_max:
            raise ValueError("need 0 < sigma_min <= sigma_max")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.spacing not in ("linear", "geometric"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def sigma(self, k: int) -> float:
        """Noise level at outer iteration k; endpoints are sigma_max and sigma_min."""
        if not 0 <= k < self.steps:
            raise ValueError(f"iteration {k} outside [0, {self.steps})")
        if self.steps == 1:
            return self.sigma_max
        frac = k / (self.steps - 1)
        if self.spacing == "linear":
            return self.sigma_max + frac * (self.sigma_min - self.sigma_max)
        return float(self.sigma_max * (self.sigma_min / self.sigma_max) ** frac)

    def timestep(self, k: int) -> int:
        """Descending pseudo-timestep passed to denoisers (steps - k)."""
        if not 0 <= k < self.steps:
            raise ValueError(f"iteration {k} outside [0, {self.steps})")
        return self.steps - k


class Denoiser:
    """Maps (noisy grid, noise level sigma, timestep t) to a clean estimate."""

    kind: str

    def denoise(self, v: np.ndarray, sigma: float, t: int = 0) -> np.ndarray:
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        out = self._denoise(np.asarray(v), float(sigma), int(t))
        if out.shape != np.shape(v):
            raise DenoiserError(f"denoiser changed grid shape {np.shape(v)} -> {out.shape}")
        if np.iscomplexobj(v) and not np.iscomplexobj(out):
            raise DenoiserError("denoiser returned a real grid for a complex input")
        return out

    def _denoise(self, v: np.ndarray, sigma: float, t: int) -> np.ndarray:
        raise NotImplementedError


class IdentityDenoiser(Denoiser):
    kind = "identity"

    def _denoise(self, v, sigma, t):
        return np.array(v, copy=True)


class GaussianPriorDenoiser(Denoiser):
    """Exact MMSE denoiser for a Gaussian prior N(mu0, tau^2 I).

    Output (tau^2 v + sigma^2 mu0) / (tau^2 + sigma^2) equals both the
    posterior mean under the smoothed prior and prox of sigma^2 * phi with
    phi(x) = ||x - mu0||^2 / (2 tau^2); the contraction factor
    tau^2 / (tau^2 + sigma^2) makes it 1-Lipschitz.
    """

    kind = "gaussian-prior"

    def __init__(self, mu0, tau: float):
        if tau <= 0:
            raise ValueError("prior std tau must be positive")
        self.mu0 = np.asarray(mu0, dtype=np.float64) if not np.iscomplexobj(mu0) else np.asarray(mu0)
        self.tau = float(tau)

    def _denoise(self, v, sigma, t):
        t2, s2 = self.tau**2, sigma**2
        return (t2 * v + s2 * self.mu0) / (t2 + s2)

    def score(self, v: np.ndarray, sigma: float) -> np.ndarray:
        """Closed-form score of the smoothed prior N(mu0, (tau^2 + sigma^2) I)."""
        return (self.mu0 - v) / (self.tau**2 + sigma**2)


# --- total-variation prox ----------------------------------------------------


def _grad(z: np.ndarray) -> np.ndarray:
    g = np.zeros((2,) + z.shape, dtype=z.dtype)
    g[0, :-1, :] = z[1:, :] - z[:-1, :]
    g[1, :, :-1] = z[:, 1:] - z[:, :-1]
    return g


def _div(p: np.ndarray) -> np.ndarray:
    d = np.zeros(p.shape[1:], dtype=p.dtype)
    d[:-1, :] += p[0, :-1, :]
    d[1:, :] -= p[0, :-1, :]
    d[:, :-1] += p[1, :, :-1]
    d[:, 1:] -= p[1, :, :-1]
    return d


def total_variation(z: np.ndarray) -> float:
    """Isotropic TV: sum of per-pixel gradient magnitudes."""
    g = _grad(z)
    return float(np.sum(np.sqrt(g[0] ** 2 + g[1] ** 2)))


def tv_prox(v: np.ndarray, gamma: float, iters: int = 50,
            track_energy: bool = False):
    """Approximate prox of gamma * TV at v by dual gradient projection.

    Fixed dual step 1/8 (the spectral bound of the discrete gradient);
    `track_energy` additionally returns the primal objective
    0.5 ||z - v||^2 + gamma TV(z) per inner iteration.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if np.iscomplexobj(v):
        raise ValueError("tv_prox expects a real grid; split complex grids per channel")
    if gamma == 0.0:
        z = np.array(v, copy=True)
        return (z, [0.0]) if track_energy else z
    p = np.zeros((2,) + v.shape)
    energies = []
    target = v / gamma
    for _ in range(iters):
        p = p + 0.125 * _grad(_div(p) - target)
        mag = np.sqrt(p[0] ** 2 + p[1] ** 2)
        p = p / np.maximum(1.0, mag)[None, :, :]
        if track_energy:
            z = v - gamma * _div(p)
            energies.append(0.5 * float(np.sum((z - v) ** 2)) + gamma * total_variation(z))
    z = v - gamma * _div(p)
    return (z, energies) if track_energy else z


class TvProxDenoiser(Denoiser):
    """Proximal TV denoiser with noise-level coupling.

    The effective regularization weight is weight * sigma: the
    discrepancy-principle scaling for removing noise of standard deviation
    sigma with a TV prior, so denoising strength tracks the schedule (a
    sigma^2 coupling under-denoises badly at small sigma). Complex grids
    are handled per channel (real and imaginary parts separately).
    """

    kind = "tv-prox"

    def __init__(self, weight: float = 0.5, iters: int = 50):
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if iters < 1:
            raise ValueError("iters must be at least 1")
        self.weight = float(weight)
        self.iters = int(iters)

    def _denoise(self, v, sigma, t):
        gamma = self.weight * sigma
        if np.iscomplexobj(v):
            return tv_prox(v.real, gamma, self.iters) + 1j * tv_prox(v.imag, gamma, self.iters)
        return tv_prox(v, gamma, self.iters)


class ExternalDenoiser(Denoiser):
    """File-based handshake with an external denoiser process.

    For each call the input grid is written to a temp file and the command
    is invoked as `command... input_path output_path sigma t`; the output
    grid is read back from output_path. Nonzero exit raises DenoiserError.
    Not safe for concurrent calls on one instance.
    """

    kind = "external"

    def __init__(self, command: list[str]):
        if not command:
            raise ValueError("command must be a non-empty argument list")
        self.command = list(command)

    def _denoise(self, v, sigma, t):
        with tempfile.TemporaryDirectory(prefix="dcpnp-denoise-") as tmp:
            in_path = Path(tmp) / "input.dcpg"
            out_path = Path(tmp) / "output.dcpg"
            grid_core.save_grid(in_path, v)
            argv = self.command + [str(in_path), str(out_path), repr(sigma), str(t)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                raise DenoiserError(
                    f"external denoiser exited with {proc.returncode}: {proc.stderr.strip()}"
                )
            if not out_path.exists():
                raise DenoiserError("external denoiser produced no output grid")
            return grid_core.load_grid(out_path)


def tweedie_consistency_check(d: Denoiser, v: np.ndarray, sigma: float) -> float:
    """Max-abs gap between the denoiser output and the score-form identity
    v + sigma^2 * score(v); zero in exact arithmetic for the Gaussian prior,
    the only kind whose score is available in closed form.
    """
    if not isinstance(d, GaussianPriorDenoiser):
        raise ValueError("consistency check requires the gaussian-prior denoiser")
    via_prox = d.denoise(v, sigma)
    via_score = v + sigma**2 * d.score(v, sigma)
    return float(np.max(np.abs(via_prox - via_score)))
