import itertools
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dcpnp import grid_core, priors
from dcpnp.experiment import ExperimentConfig
from dcpnp.grid_core import make_rng
from dcpnp.priors import (
    Denoiser,
    DenoiserError,
    ExternalDenoiser,
    GaussianPriorDenoiser,
    NoiseSchedule,
    TvProxDenoiser,
    tweedie_consistency_check,
)
from helpers import IdentityDenoiser


class TestSchedule:
    def test_linear_two_steps_hits_endpoints(self):
        sched = NoiseSchedule(1.0, 0.01, 2, "linear")
        assert sched.sigma(0) == pytest.approx(1.0)
        assert sched.sigma(1) == pytest.approx(0.01)

    def test_geometric_midpoint(self):
        sched = NoiseSchedule(1.0, 0.01, 3, "geometric")
        values = [sched.sigma(k) for k in range(3)]
        assert values == pytest.approx([1.0, 0.1, 0.01])

    def test_strictly_decreasing_over_50(self):
        for spacing in ("linear", "geometric"):
            sched = NoiseSchedule(10.0, 0.01, 50, spacing)
            values = [sched.sigma(k) for k in range(50)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(0.01)

    def test_out_of_range_rejected(self):
        sched = NoiseSchedule(1.0, 0.1, 5)
        for k in (-1, 5):
            with pytest.raises(ValueError):
                sched.sigma(k)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NoiseSchedule(0.01, 1.0, 5)
        with pytest.raises(ValueError):
            NoiseSchedule(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            NoiseSchedule(1.0, 0.1, 5, "cubic")

    def test_timestep_counts_down(self):
        sched = NoiseSchedule(1.0, 0.1, 5)
        assert [sched.timestep(k) for k in range(5)] == [5, 4, 3, 2, 1]


class TestGaussianPrior:
    def test_zero_sigma_is_identity(self):
        d = GaussianPriorDenoiser(np.zeros((4, 4)), tau=1.0)
        v = make_rng(0).standard_normal((4, 4))
        assert np.array_equal(d.denoise(v, 0.0), v)

    def test_flat_prior_limit(self):
        d = GaussianPriorDenoiser(np.zeros((4, 4)), tau=1e8)
        v = make_rng(1).standard_normal((4, 4))
        assert np.max(np.abs(d.denoise(v, 1.0) - v)) < 1e-6

    def test_balanced_shrinkage(self):
        d = GaussianPriorDenoiser(np.zeros((3, 3)), tau=1.0)
        v = np.full((3, 3), 2.0)
        assert np.allclose(d.denoise(v, 1.0), 1.0)

    def test_is_exact_prox_of_quadratic(self):
        # prox_{gamma phi} with phi = ||z - mu0||^2 / (2 tau^2), gamma = sigma^2:
        # the output must zero the objective gradient (z - v) + gamma/tau^2 (z - mu0)
        rng = make_rng(2)
        mu0 = rng.standard_normal((5, 5))
        d = GaussianPriorDenoiser(mu0, tau=1.3)
        v = rng.standard_normal((5, 5))
        sigma = 0.7
        z = d.denoise(v, sigma)
        closed = (1.3**2 * v + sigma**2 * mu0) / (1.3**2 + sigma**2)
        assert np.max(np.abs(z - closed)) < 1e-12
        grad = (z - v) + (sigma**2 / 1.3**2) * (z - mu0)
        assert np.max(np.abs(grad)) < 1e-12

    def test_contraction_is_1_lipschitz(self):
        rng = make_rng(3)
        d = GaussianPriorDenoiser(rng.standard_normal((6, 6)), tau=0.9)
        v1 = rng.standard_normal((6, 6))
        v2 = rng.standard_normal((6, 6))
        lhs = np.linalg.norm(d.denoise(v1, 0.5) - d.denoise(v2, 0.5))
        assert lhs <= np.linalg.norm(v1 - v2) + 1e-12

    def test_negative_sigma_rejected(self):
        d = GaussianPriorDenoiser(np.zeros((2, 2)), tau=1.0)
        with pytest.raises(ValueError):
            d.denoise(np.zeros((2, 2)), -0.1)


class TestTweedie:
    @pytest.mark.parametrize("tau,sigma", [(0.5, 0.5), (1.0, 0.5), (2.0, 1.0)])
    def test_identity_holds_to_machine_precision(self, tau, sigma):
        rng = make_rng(4)
        d = GaussianPriorDenoiser(rng.standard_normal((8, 8)), tau=tau)
        v = rng.standard_normal((8, 8))
        assert tweedie_consistency_check(d, v, sigma) < 1e-12

    def test_zero_sigma_zero_deviation(self):
        d = GaussianPriorDenoiser(np.zeros((4, 4)), tau=1.0)
        v = make_rng(5).standard_normal((4, 4))
        assert tweedie_consistency_check(d, v, 0.0) == 0.0

    def test_prior_mean_is_fixed_point(self):
        rng = make_rng(6)
        mu0 = rng.standard_normal((4, 4))
        d = GaussianPriorDenoiser(mu0, tau=1.0)
        assert np.max(np.abs(d.denoise(mu0.copy(), 0.8) - mu0)) < 1e-12
        assert tweedie_consistency_check(d, mu0.copy(), 0.8) < 1e-12

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            tweedie_consistency_check(IdentityDenoiser(), np.zeros((4, 4)), 1.0)


def _tv_prox(v, gamma, iters=50):
    """Prox of gamma * TV at v: at sigma = 1 the denoiser's weight is gamma."""
    return TvProxDenoiser(gamma, iters).denoise(v, 1.0)


def _total_variation(z):
    """Isotropic TV: sum of per-pixel gradient magnitudes."""
    g0 = np.zeros_like(z)
    g1 = np.zeros_like(z)
    g0[:-1, :] = z[1:, :] - z[:-1, :]
    g1[:, :-1] = z[:, 1:] - z[:, :-1]
    return float(np.sum(np.sqrt(g0 ** 2 + g1 ** 2)))


def _tv_objective(z, v, gamma):
    return 0.5 * float(np.sum((z - v) ** 2)) + gamma * _total_variation(z)


class TestTvProx:
    def test_energy_non_increasing(self):
        rng = make_rng(7)
        v = rng.standard_normal((24, 24))
        energies = np.array([_tv_objective(_tv_prox(v, 0.4, k), v, 0.4) for k in range(1, 61)])
        assert np.all(np.diff(energies) <= 1e-10 * max(1.0, energies[0]))

    def test_energy_descends_from_input(self):
        rng = make_rng(8)
        v = rng.standard_normal((16, 16))
        z = _tv_prox(v, 0.5, 40)
        # below the objective at z = v
        assert _tv_objective(z, v, 0.5) <= 0.5 * _total_variation(v) + 1e-12

    def test_constant_grid_is_fixed_point(self):
        v = np.full((10, 10), 3.7)
        z = _tv_prox(v, 1.0, 30)
        assert np.max(np.abs(z - v)) < 1e-12

    def test_strong_weight_flattens(self):
        rng = make_rng(9)
        v = rng.standard_normal((12, 12))
        z = _tv_prox(v, 100.0, 400)
        assert _total_variation(z) < 0.05 * _total_variation(v)

    def test_zero_gamma_identity(self):
        v = make_rng(10).standard_normal((8, 8))
        assert np.array_equal(_tv_prox(v, 0.0), v)

    def test_denoiser_handles_complex_per_channel(self):
        rng = make_rng(11)
        v = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        d = TvProxDenoiser(weight=0.5, iters=20)
        out = d.denoise(v, 0.5)
        assert out.shape == v.shape and np.iscomplexobj(out)
        assert np.array_equal(out.real, _tv_prox(v.real, 0.5 * 0.5, 20))
        assert np.array_equal(out.imag, _tv_prox(v.imag, 0.5 * 0.5, 20))

    def test_zero_sigma_is_identity(self):
        v = make_rng(12).standard_normal((9, 9))
        d = TvProxDenoiser(weight=1.0, iters=20)
        assert np.array_equal(d.denoise(v, 0.0), v)

    def test_output_finite_and_shaped(self):
        v = make_rng(13).standard_normal((7, 11))
        out = TvProxDenoiser(0.8, 25).denoise(v, 1.0)
        assert out.shape == (7, 11)
        assert np.all(np.isfinite(out))


def _reference_tv_prox(v, gamma, iters):
    """The sliced, allocating dual projection of one real channel."""

    def grad(z):
        g = np.zeros((2,) + z.shape)
        g[0, :-1, :] = z[1:, :] - z[:-1, :]
        g[1, :, :-1] = z[:, 1:] - z[:, :-1]
        return g

    def div(p):
        d = np.zeros(p.shape[1:])
        d[:-1, :] += p[0, :-1, :]
        d[1:, :] -= p[0, :-1, :]
        d[:, :-1] += p[1, :, :-1]
        d[:, 1:] -= p[1, :, :-1]
        return d

    if gamma == 0.0:
        return np.array(v, copy=True)
    p = np.zeros((2,) + v.shape)
    target = v / gamma
    for _ in range(iters):
        p = p + 0.125 * grad(div(p) - target)
        mag = np.sqrt(p[0] ** 2 + p[1] ** 2)
        p = p / np.maximum(1.0, mag)[None, :, :]
    return v - gamma * div(p)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _complex_grid(seed, shape):
    rng = make_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedTvProx:
    CASES = [(shape, gamma, iters)
             for shape in ((1, 1), (1, 5), (5, 1), (7, 11), (33, 65), (64, 64))
             for gamma, iters in ((0.7, 20), (0.7, 1), (0.0, 20))]

    @pytest.mark.parametrize("shape,gamma,iters", CASES)
    def test_single_channel_bitwise_equal_to_reference(self, shape, gamma, iters):
        v = 3.0 * make_rng(20).standard_normal(shape)
        assert _same_bits(_tv_prox(v, gamma, iters), _reference_tv_prox(v, gamma, iters))

    @pytest.mark.parametrize("shape,gamma,iters", CASES)
    def test_threaded_stack_bitwise_equal_to_reference(self, monkeypatch, shape, gamma, iters):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rng = make_rng(21)
        channels = [3.0 * rng.standard_normal(shape) for _ in range(3)]
        stacked = priors._tv_prox_channels(channels, gamma, iters)
        for got, v in zip(stacked, channels):
            assert _same_bits(got, _reference_tv_prox(v, gamma, iters))

    @pytest.mark.parametrize("shape,gamma,iters", CASES)
    def test_complex_denoise_bitwise_equal_to_reference(self, monkeypatch, shape, gamma, iters):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        v = _complex_grid(22, shape)
        out = TvProxDenoiser(weight=gamma, iters=iters).denoise(v, 1.0)
        want = (_reference_tv_prox(v.real, gamma, iters)
                + 1j * _reference_tv_prox(v.imag, gamma, iters))
        assert _same_bits(out.view(np.float64), want.view(np.float64))

    def test_squared_magnitude_pass_is_two_rounded_products_and_a_sum(self):
        # the step takes |p|^2 from one einsum pass; a build that fused the
        # sum into an FMA would move every result
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1.5e-154,
                   1e154, -1.2e154, 1.3407807929942596e154, 1.0, 3.0]
        pairs = np.array(list(itertools.product(special, repeat=2))).T
        c = np.concatenate([pairs, make_rng(25).standard_normal((2, 1001))], axis=1)
        with np.errstate(over="ignore"):
            got = np.einsum("ij,ij->j", c, c, out=np.empty(c.shape[1]))
            want = c[0] * c[0] + c[1] * c[1]
        assert _same_bits(got, want)

    @pytest.mark.parametrize("complex_grid", [False, True])
    def test_denoise_allocates_no_more_than_its_buffers(self, monkeypatch, complex_grid):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        h = w = 64
        n, c = h * w, 1 + complex_grid
        v = _complex_grid(26, (h, w)) if complex_grid else make_rng(26).standard_normal((h, w))
        d = TvProxDenoiser(0.5, 20)
        d.denoise(v, 1.0)  # starts the pool thread outside the traced call
        tracemalloc.start()
        try:
            d.denoise(v, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 8 * (c * (w + 2 * n) + 3 * c * n)
        assert peak <= 1.1 * buffers, f"traced peak {peak / buffers:.2f}x the dual-projection buffers"

    def test_one_cpu_runs_channels_on_calling_thread(self, monkeypatch):
        def no_pool():
            raise AssertionError("with one CPU the channels must not use the thread pool")

        v = _complex_grid(23, (24, 24))
        threaded = TvProxDenoiser(0.5, 30).denoise(v, 1.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(grid_core, "worker_pool", no_pool)
        serial = TvProxDenoiser(0.5, 30).denoise(v, 1.0)
        assert _same_bits(serial.view(np.float64), threaded.view(np.float64))

    def test_real_grid_never_uses_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("a single channel must not use the thread pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(grid_core, "worker_pool", no_pool)
        v = make_rng(24).standard_normal((16, 16))
        assert _same_bits(TvProxDenoiser(0.5, 10).denoise(v, 1.0),
                          _reference_tv_prox(v, 0.5, 10))

    def test_concurrent_complex_callers_get_their_own_results(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        d = TvProxDenoiser(0.5, 8)
        inputs = [_complex_grid(seed, (20, 20)) for seed in range(8)]
        expected = [_reference_tv_prox(v.real, 0.5, 8) + 1j * _reference_tv_prox(v.imag, 0.5, 8)
                    for v in inputs]

        def denoise_repeatedly(v):
            return [d.denoise(v, 1.0) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(inputs)) as callers:
                results = list(callers.map(denoise_repeatedly, inputs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert all(_same_bits(g.view(np.float64), want.view(np.float64)) for g in got)


def _running(pid: int) -> bool:
    """True unless the process is gone or a zombie waiting to be reaped."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


class TestExternalDenoiser:
    def _script(self, tmp_path, body):
        path = tmp_path / "denoise.py"
        path.write_text(body)
        return [sys.executable, str(path)]

    def test_round_trip_through_files(self, tmp_path):
        cmd = self._script(
            tmp_path,
            "import sys\n"
            "from dcpnp.grid_core import load_grid, save_grid\n"
            "inp, out, sigma, t = sys.argv[1:5]\n"
            "g = load_grid(inp)\n"
            "save_grid(out, 0.5 * g)\n",
        )
        d = ExternalDenoiser(cmd)
        v = make_rng(14).standard_normal((6, 6))
        assert np.allclose(d.denoise(v, 0.3, t=7), 0.5 * v)

    def test_nonzero_exit_raises(self, tmp_path):
        cmd = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        d = ExternalDenoiser(cmd)
        with pytest.raises(DenoiserError):
            d.denoise(np.zeros((4, 4)), 1.0)

    def test_missing_output_raises(self, tmp_path):
        cmd = self._script(tmp_path, "pass\n")
        d = ExternalDenoiser(cmd)
        with pytest.raises(DenoiserError):
            d.denoise(np.zeros((4, 4)), 1.0)


    def test_timeout_kills_the_command(self, tmp_path, monkeypatch):
        started = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        cmd = [sys.executable, "-c", "import time; time.sleep(60)"]
        d = ExternalDenoiser(cmd, timeout=0.5)
        t0 = time.monotonic()
        with pytest.raises(DenoiserError, match=r"time\.sleep\(60\).* timeout of 0\.5 s"):
            d.denoise(np.zeros((4, 4)), 1.0)
        assert time.monotonic() - t0 < 10.0
        [proc] = started
        assert proc.returncode == -signal.SIGKILL  # killed and reaped

    def test_timeout_kills_what_the_command_started(self, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        cmd = self._script(
            tmp_path,
            "import subprocess, sys, time\n"
            "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
            "child.wait()\n",
        )
        d = ExternalDenoiser(cmd, timeout=2.0)
        t0 = time.monotonic()
        with pytest.raises(DenoiserError, match="timeout"):
            d.denoise(np.zeros((4, 4)), 1.0)
        assert time.monotonic() - t0 < 10.0
        grandchild = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while _running(grandchild):
            assert time.monotonic() < deadline, "the grandchild outlived the timeout"
            time.sleep(0.05)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(ValueError):
            ExternalDenoiser(["true"], timeout=timeout)


class TestRegistry:
    def test_kinds_constructible(self):
        def build(kind):
            return ExperimentConfig(denoiser=kind, image_side=16).make_denoiser()

        assert isinstance(build("tv-prox"), TvProxDenoiser)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(denoiser="median-filter")


class TestDenoiseContract:
    def test_real_output_for_complex_input_rejected(self):
        class DropsImaginary(Denoiser):
            def _denoise(self, v, sigma, t):
                return v.real

        v = np.ones((4, 4), dtype=complex)
        with pytest.raises(DenoiserError, match="real grid for a complex input"):
            DropsImaginary().denoise(v, 1.0)

    def test_complex_output_for_real_input_rejected(self):
        class AddsImaginary(Denoiser):
            def _denoise(self, v, sigma, t):
                return v + 1e-3j

        with pytest.raises(DenoiserError, match="complex grid for a real input"):
            AddsImaginary().denoise(np.ones((4, 4)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_rejected(self, bad):
        class Diverges(Denoiser):
            kind = "diverging"

            def _denoise(self, v, sigma, t):
                out = np.array(v, copy=True)
                out[1, 2] = bad
                return out

        with pytest.raises(DenoiserError, match="diverging denoiser returned non-finite values"):
            Diverges().denoise(np.zeros((4, 4)), 1.0)
