"""Denoiser contract, noise schedule, and analytic stand-in priors.

The solver only ever calls `Denoiser.denoise(v, sigma, t)`. Two analytic
denoisers are provided for desk-scale experiments where the prior's score
or proximal map is known exactly (Gaussian prior, TV prox), plus a
file-based handshake for plugging in an external denoiser process.

The TV prox denoises the channels of a complex grid (`grid_core.channels`)
at the same time, through `grid_core.fork_join`.
"""

from __future__ import annotations

import os
import shlex
import signal
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
        if not 0 < self.sigma_min <= self.sigma_max < np.inf:
            raise ValueError("need 0 < sigma_min <= sigma_max < inf")
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
        if np.iscomplexobj(out) != np.iscomplexobj(v):
            got, given = ("real", "complex") if np.iscomplexobj(v) else ("complex", "real")
            raise DenoiserError(f"denoiser returned a {got} grid for a {given} input")
        if not np.isfinite(out).all():
            raise DenoiserError(f"{self.kind} denoiser returned non-finite values")
        return out

    def _denoise(self, v: np.ndarray, sigma: float, t: int) -> np.ndarray:
        raise NotImplementedError


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


# The dual field of one H x W channel lives in one flat buffer `p` laid out
# as [W zeros | p0 | p1], with p0 the vertical and p1 the horizontal
# component, each row-major. The projection keeps p0's last row and p1's
# last column at zero, so the divergence is a sum of differences of whole
# offset slices: the pad is the row above p0's first row, the zero that ends
# p0 is the entry left of p1's first, and the zero that ends each row of p1
# is the entry left of the next row's first. Adding or subtracting those
# zeros leaves every sum as the sliced two-dimensional updates leave it.
# Besides p0 and p1, a channel has three n-entry buffers: `target` holds
# v/gamma, `div` the divergence and then the step (div - target)/8, and
# `mag` each gradient component of that step in turn and then max(1, |p|).


def _div_into(p: np.ndarray, w: int, out: np.ndarray) -> None:
    """Divergence of the padded dual field `p` of a width-`w` channel, into `out`."""
    n = out.size
    np.subtract(p[w:w + n], p[:n], out=out)
    np.add(out, p[w + n:], out=out)
    np.subtract(out, p[w + n - 1:w + 2 * n - 1], out=out)


def _tv_dual_projection(v, gamma, iters, p, div, target, mag):
    """Run the dual projection of one channel in its own buffers; z ends in `div`."""
    h, w = v.shape
    n = h * w
    components = p[w:].reshape(2, n)
    p0, p1 = components
    np.divide(v, gamma, out=target.reshape(h, w))
    for _ in range(iters):
        _div_into(p, w, div)
        np.subtract(div, target, out=div)
        np.multiply(div, 0.125, out=div)
        np.subtract(div[w:], div[:n - w], out=mag[:n - w])
        np.add(p0[:n - w], mag[:n - w], out=p0[:n - w])  # p0's last row stays 0
        np.subtract(div[1:], div[:n - 1], out=mag[:n - 1])
        mag[w - 1::w] = 0.0  # the differences across row ends
        np.add(p1, mag, out=p1)
        np.einsum("ij,ij->j", components, components, out=mag)
        np.sqrt(mag, out=mag)
        np.maximum(mag, 1.0, out=mag)
        # one divide per component: dividing `components` by `mag` at once
        # broadcasts, and numpy then copies all 2n entries on every step
        np.divide(p0, mag, out=p0)
        np.divide(p1, mag, out=p1)
    _div_into(p, w, div)
    np.multiply(div, gamma, out=div)
    np.subtract(v, div.reshape(h, w), out=div.reshape(h, w))


def _tv_prox_channels(channels, gamma: float, iters: int) -> np.ndarray:
    """Prox of gamma * TV of each of C real H x W channels, as a (C, H, W) array,
    by Chambolle's dual gradient projection with the fixed step 1/8 (the
    spectral bound of the discrete gradient).

    Each channel uses five HW-entry buffers, the dual components p0 and p1
    (in one padded array `p`) and `div`, `target` and `mag`, and a step
    allocates nothing: each gradient component of the step is written into
    `mag` and added to its own dual component, |p|^2 is one `einsum` pass
    into `mag`, and each component is divided by max(1, |p|) on its own.
    The 1/8 step scales div - target (HW entries) rather than the gradient
    (2HW). Scaling by a power of two commutes with rounding for normal
    numbers, so the result is bitwise equal to the sliced two-dimensional
    formulation except where (div - target)/8 is subnormal; there the
    results differ in the last subnormal bits (by 6e-322 for |v| near
    1e-306 and gamma = 1).

    The calling thread allocates every buffer, since buffers allocated on a
    worker stay cached in its glibc heap arena (mri320 peak RSS rose 6-7 MB
    when tried); `grid_core.fork_join` then projects the channels. The work
    is elementwise numpy ufuncs, which release the GIL, and no channel's
    step reads another's buffers, so the result is bitwise equal to
    projecting each channel alone.
    """
    c = len(channels)
    h, w = channels[0].shape
    if gamma == 0.0:
        return np.array(channels)
    n = h * w
    p = np.zeros((c, w + 2 * n))
    div = np.empty((c, n))
    target = np.empty((c, n))
    mag = np.empty((c, n))

    def run(k: int) -> None:
        _tv_dual_projection(channels[k], gamma, iters, p[k], div[k], target[k], mag[k])

    grid_core.fork_join(run, range(c))
    return div.reshape(c, h, w)


class TvProxDenoiser(Denoiser):
    """Proximal TV denoiser with noise-level coupling.

    The effective regularization weight is weight * sigma: the
    discrepancy-principle scaling for removing noise of standard deviation
    sigma with a TV prior, so denoising strength tracks the schedule (a
    sigma^2 coupling under-denoises badly at small sigma). Complex grids
    are handled per channel (real and imaginary parts separately), and the
    two channels run at the same time when there is a second CPU.
    """

    kind = "tv-prox"

    def __init__(self, weight: float = 0.5, iters: int = 50):
        if not 0 <= weight < np.inf:
            raise ValueError("weight must be nonnegative and finite")
        if iters < 1:
            raise ValueError("iters must be at least 1")
        self.weight = float(weight)
        self.iters = int(iters)

    def _denoise(self, v, sigma, t):
        parts = _tv_prox_channels(grid_core.channels(v), self.weight * sigma, self.iters)
        return grid_core.from_channels(parts)


class ExternalDenoiser(Denoiser):
    """File-based handshake with an external denoiser process.

    For each call the input grid is written to a temp file and the command
    is invoked as `command... input_path output_path sigma t`; the output
    grid is read back from output_path. Nonzero exit raises DenoiserError,
    and so does a call that outlives `timeout` seconds, after the command
    and every process it started are killed. Not safe for concurrent calls
    on one instance.
    """

    kind = "external"

    def __init__(self, command: list[str], timeout: float = 600.0):
        if not command:
            raise ValueError("command must be a non-empty argument list")
        if not timeout > 0:
            raise ValueError("timeout must be positive")
        self.command = list(command)
        self.timeout = timeout

    def _denoise(self, v, sigma, t):
        with tempfile.TemporaryDirectory(prefix="dcpnp-denoise-") as tmp:
            in_path = Path(tmp) / "input.dcpg"
            out_path = Path(tmp) / "output.dcpg"
            grid_core.save_grid(in_path, v)
            argv = self.command + [str(in_path), str(out_path), repr(sigma), str(t)]
            # its own process group, so that a timeout can kill what it started too
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True)
            try:
                _, stderr = proc.communicate(timeout=self.timeout)
            except BaseException as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise DenoiserError(
                        f"external denoiser {shlex.join(self.command)} did not finish "
                        f"within its timeout of {self.timeout:g} s"
                    ) from None
                raise
            if proc.returncode != 0:
                raise DenoiserError(
                    f"external denoiser exited with {proc.returncode}: {stderr.strip()}"
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
