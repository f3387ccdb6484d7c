import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import ndimage

from dcpnp import grid_core
from dcpnp.grid_core import forward_dft, inverse_dft, make_rng
from dcpnp.spectral import (
    ShConfig,
    SmoothingKernel,
    estimate_psd,
    estimate_residual,
    homogenize,
    naive_inject,
    spectral_deficit,
    synthesize_complementary_noise,
)


def streak_field(side, amplitudes=((3, 11), (17, 5), (9, 23)), scale=0.12):
    """Superposed plane waves: strongly concentrated spectrum, modest energy."""
    xs = np.arange(side)
    field = np.zeros((side, side))
    for fx, fy in amplitudes:
        field += np.cos(2 * np.pi * (fx * xs[None, :] + fy * xs[:, None]) / side)
    return scale * field


class TestSmoothingKernel:
    def test_default_window_7(self):
        k = SmoothingKernel()
        assert k.window == 7
        assert k.array.shape == (7, 7)

    def test_normalized_and_nonnegative(self):
        for w in (1, 3, 7, 11):
            arr = SmoothingKernel(w).array
            assert np.all(arr >= 0)
            assert abs(arr.sum() - 1.0) < 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            SmoothingKernel(6)

    def test_peak_at_center(self):
        arr = SmoothingKernel(7).array
        assert arr[3, 3] == arr.max()


class TestEstimateResidual:
    def test_equal_inputs_zero(self):
        v = make_rng(0).standard_normal((8, 8))
        assert np.all(estimate_residual(v, v) == 0.0)

    def test_zero_reference_identity(self):
        v = make_rng(1).standard_normal((8, 8))
        assert np.array_equal(estimate_residual(v, np.zeros_like(v)), v)

    def test_constant_shift_cancels(self):
        rng = make_rng(2)
        v = rng.standard_normal((8, 8))
        z = rng.standard_normal((8, 8))
        assert np.allclose(estimate_residual(v + 3.5, z + 3.5), estimate_residual(v, z))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_residual(np.zeros((4, 4)), np.zeros((4, 5)))


class TestEstimatePsd:
    def test_zero_residual_zero_psd(self):
        psd = estimate_psd(np.zeros((16, 16)), SmoothingKernel())
        assert np.all(psd == 0.0)

    def test_white_noise_level(self):
        # E|F(n)|^2 = sigma^2 * H * W = 4096 on 64x64; Monte-Carlo mean of the
        # smoothed periodogram per bin within +-10%
        side, n_seeds = 64, 100
        kernel = SmoothingKernel()
        acc = np.zeros((side, side))
        for seed in range(n_seeds):
            r = make_rng(seed).standard_normal((side, side))
            acc += estimate_psd(r, kernel)
        mean = acc / n_seeds
        target = side * side
        assert mean.min() > 0.9 * target
        assert mean.max() < 1.1 * target

    def test_sinusoid_concentrates(self):
        side = 64
        xs = np.arange(side)
        wave = np.cos(2 * np.pi * (5 * xs[None, :] + 9 * xs[:, None]) / side)
        kernel = SmoothingKernel(7)
        psd = estimate_psd(wave, kernel)
        # mass lives in w x w neighborhoods of the two conjugate bins
        mask = np.zeros((side, side), bool)
        for fy, fx in ((9, 5), (side - 9, side - 5)):
            rows = (np.arange(fy - 3, fy + 4)) % side
            cols = (np.arange(fx - 3, fx + 4)) % side
            mask[np.ix_(rows, cols)] = True
        assert psd[mask].sum() >= 0.99 * psd.sum()

    def test_energy_preserved(self):
        r = make_rng(5).standard_normal((32, 32))
        raw = np.abs(forward_dft(r)) ** 2
        smoothed = estimate_psd(r, SmoothingKernel(7))
        assert abs(smoothed.sum() - raw.sum()) / raw.sum() < 1e-10

    def test_nonnegative(self):
        r = make_rng(6).standard_normal((20, 20))
        assert np.min(estimate_psd(r, SmoothingKernel())) >= 0.0


class TestSpectralDeficit:
    def test_zero_psd_full_target(self):
        deficit = spectral_deficit(np.zeros((8, 8)), sigma=2.0, eps=0.0)
        assert np.all(deficit == 4.0 * 64)

    def test_saturated_psd_floors_at_eps(self):
        psd = np.full((8, 8), 1e6)
        for eps in (0.0, 0.5):
            deficit = spectral_deficit(psd, sigma=1.0, eps=eps)
            assert np.all(deficit == eps)

    def test_4x4_arithmetic_example(self):
        psd = np.zeros((4, 4))
        psd[1, 2] = 20.0
        deficit = spectral_deficit(psd, sigma=1.0, eps=0.0)
        assert deficit[1, 2] == 0.0  # 16 - 20 clips to zero
        others = deficit[psd == 0.0]
        assert np.all(others == 16.0)

    def test_never_exceeds_target_plus_eps(self):
        rng = make_rng(7)
        psd = np.abs(rng.standard_normal((16, 16))) * 300
        sigma, eps = 1.3, 0.25
        deficit = spectral_deficit(psd, sigma, eps)
        assert np.all(deficit <= sigma**2 * 256 + eps)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            spectral_deficit(np.zeros((4, 4)), -1.0)
        with pytest.raises(ValueError):
            spectral_deficit(np.zeros((4, 4)), 1.0, -0.1)


class TestSynthesizeNoise:
    def test_zero_deficit_zero_field(self):
        out = synthesize_complementary_noise(np.zeros((8, 8)), make_rng(0))
        assert np.all(out == 0.0)

    def test_flat_deficit_gives_white_noise(self):
        # flat per-bin power D -> per-pixel variance D / (H W); average over seeds
        side, level = 32, 50.0
        deficit = np.full((side, side), level)
        variances = [
            float(np.var(synthesize_complementary_noise(deficit, make_rng(seed))))
            for seed in range(200)
        ]
        mean_var = np.mean(variances)
        expected = level / (side * side)
        assert abs(mean_var - expected) / expected < 0.1

    def test_sample_mean_near_zero(self):
        side = 32
        deficit = np.full((side, side), 10.0)
        means = [
            float(np.mean(synthesize_complementary_noise(deficit, make_rng(seed))))
            for seed in range(100)
        ]
        std_per_field = np.sqrt(10.0 / (side * side))  # dc bin amplitude / HW
        assert abs(np.mean(means)) < 3 * std_per_field / np.sqrt(100) + 1e-12

    def test_realized_energy_matches_parseval_exactly(self):
        # deficits arising in practice come from PSDs of real grids and are
        # Hermitian-symmetric; realized energy then equals sum(deficit)/HW
        # exactly, not just in expectation (the phase is unit-modulus)
        r = make_rng(9).standard_normal((16, 16))
        psd = estimate_psd(r, SmoothingKernel())
        deficit = spectral_deficit(psd, sigma=np.sqrt(psd.mean() / 128), eps=0.0)
        assert deficit.sum() > 0
        field = synthesize_complementary_noise(deficit, make_rng(10))
        lhs = float(np.sum(field**2))
        rhs = float(deficit.sum() / 256)
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_deterministic_given_seed(self):
        deficit = np.full((16, 16), 3.0)
        a = synthesize_complementary_noise(deficit, make_rng(77))
        b = synthesize_complementary_noise(deficit, make_rng(77))
        assert np.array_equal(a, b)

    def test_negative_deficit_rejected(self):
        deficit = np.zeros((4, 4))
        deficit[0, 0] = -1.0
        with pytest.raises(ValueError):
            synthesize_complementary_noise(deficit, make_rng(0))


class TestHomogenize:
    def test_zero_sigma_zero_residual_is_identity(self):
        v = make_rng(11).standard_normal((16, 16))
        out, report = homogenize(v, v.copy(), 0.0, ShConfig(), make_rng(0))
        assert np.array_equal(out, v)
        assert report.injected_energy == 0.0

    def test_structured_residual_flattens(self):
        side = 64
        streaks = streak_field(side)
        rng = make_rng(12)
        _, report = homogenize(streaks, np.zeros_like(streaks), 1.0, ShConfig(), rng)
        assert report.flatness_after < report.flatness_before

    def test_saturated_bins_receive_nothing(self):
        side = 32
        strong = streak_field(side, scale=3.0)
        cfg = ShConfig()
        psd = estimate_psd(strong, cfg.kernel)
        deficit = spectral_deficit(psd, 0.05, 0.0)
        saturated = psd >= 0.05**2 * side * side
        assert saturated.any()
        assert np.all(deficit[saturated] == 0.0)

    def test_report_parseval_invariant(self):
        side = 32
        rng = make_rng(13)
        v = rng.standard_normal((side, side))
        z = rng.standard_normal((side, side))
        out, report = homogenize(v, z, 0.8, ShConfig(), make_rng(14))
        realized = float(np.sum((out - v) ** 2))
        assert abs(realized - report.injected_energy) / max(report.injected_energy, 1e-30) < 1e-10

    def test_complex_runs_per_channel(self):
        side = 16
        rng = make_rng(15)
        v = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        z = np.zeros_like(v)
        out, report = homogenize(v, z, 0.7, ShConfig(), make_rng(16))
        assert np.iscomplexobj(out)
        # channel-wise equivalence with a shared stream
        rng2 = make_rng(16)
        re_out, _ = homogenize(v.real, z.real, 0.7, ShConfig(), rng2)
        im_out, _ = homogenize(v.imag, z.imag, 0.7, ShConfig(), rng2)
        assert np.array_equal(out.real, re_out)
        assert np.array_equal(out.imag, im_out)

    def test_deterministic(self):
        v = make_rng(17).standard_normal((24, 24))
        z = np.zeros_like(v)
        a, _ = homogenize(v, z, 0.5, ShConfig(), make_rng(18))
        b, _ = homogenize(v, z, 0.5, ShConfig(), make_rng(18))
        assert np.array_equal(a, b)

    def test_eps_floor_injects_everywhere(self):
        side = 16
        strong = streak_field(side, scale=5.0)
        out_hard, _ = homogenize(strong, np.zeros_like(strong), 0.01, ShConfig(eps=0.0), make_rng(19))
        out_soft, _ = homogenize(strong, np.zeros_like(strong), 0.01, ShConfig(eps=1.0), make_rng(19))
        moved_hard = np.sum((out_hard - strong) ** 2)
        moved_soft = np.sum((out_soft - strong) ** 2)
        assert moved_soft > moved_hard


def _two_transform_homogenize(v, z_prev, sigma, cfg, rng):
    """The earlier homogenization pipeline, kept as the reference: it took
    the effective PSD from a second transform of r + noise."""

    def psd_of(grid):
        return ndimage.convolve(np.abs(forward_dft(grid)) ** 2, cfg.kernel.array, mode="wrap")

    def channel(r):
        psd = psd_of(r)
        deficit = spectral_deficit(psd, sigma, cfg.eps)
        spectrum = forward_dft(rng.standard_normal(deficit.shape))
        mag = np.abs(spectrum)
        degenerate = mag < 1e-300
        phase = np.where(degenerate, 1.0 + 0j, spectrum / np.where(degenerate, 1.0, mag))
        noise = inverse_dft(np.sqrt(deficit) * phase).real
        return noise, psd, deficit, psd_of(r + noise)

    def cv(m):
        return float(np.std(m) / np.mean(m)) if float(np.mean(m)) != 0.0 else 0.0

    r = v - z_prev
    channels = [r.real, r.imag] if np.iscomplexobj(r) else [r]
    noises, psds, deficits, effectives = zip(*(channel(c) for c in channels))
    noise = noises[0] if len(channels) == 1 else noises[0] + 1j * noises[1]
    psd = sum(psds) / len(channels)
    return v + noise, dict(
        injected_energy=float(sum(d.sum() for d in deficits) / r.size),
        flatness_before=sum(map(cv, psds)) / len(channels),
        flatness_after=sum(map(cv, effectives)) / len(channels),
        peak_to_floor=float(np.max(psd) / max(float(np.min(psd)), 1e-300)),
    )


def _no_pool():
    raise AssertionError("this homogenization must run on the calling thread alone")


def _complex_pair(seed, shape):
    rng = make_rng(seed)
    v, z = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
    return v, z


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestOneTransformOfTheResidual:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 12), (17, 17), (64, 64), (320, 320)])
    @pytest.mark.parametrize("complex_grid", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_two_transform_pipeline(self, monkeypatch, shape, complex_grid, eps, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if cpus == 1:
            monkeypatch.setattr(grid_core, "worker_pool", _no_pool)
        rng = make_rng(sum(shape))
        v, z = rng.standard_normal((2,) + shape)
        if complex_grid:
            v = v + 1j * rng.standard_normal(shape)
            z = z + 1j * rng.standard_normal(shape)
        cfg = ShConfig(eps=eps)
        out, report = homogenize(v, z, 0.8, cfg, make_rng(3))
        ref_out, ref = _two_transform_homogenize(v, z, 0.8, cfg, make_rng(3))
        assert np.array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        for name in ("injected_energy", "flatness_before", "peak_to_floor"):
            got = np.float64(getattr(report, name)).view(np.uint64)
            assert got == np.float64(ref[name]).view(np.uint64), name
        assert abs(report.flatness_after - ref["flatness_after"]) <= 1e-12 * ref["flatness_after"]

    def test_real_grid_never_uses_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(grid_core, "worker_pool", _no_pool)
        rng = make_rng(30)
        v, z = rng.standard_normal((2, 24, 24))
        out, report = homogenize(v, z, 0.8, ShConfig(), make_rng(31))
        ref_out, ref = _two_transform_homogenize(v, z, 0.8, ShConfig(), make_rng(31))
        assert _same_bits(out, ref_out)
        assert report.injected_energy == ref["injected_energy"]

    def test_concurrent_complex_callers_get_their_own_results(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = ShConfig()
        inputs = [_complex_pair(seed, (20, 20)) for seed in range(8)]
        expected = []
        for seed, (v, z) in enumerate(inputs):
            rng = make_rng(100 + seed)
            expected.append([_two_transform_homogenize(v, z, 0.8, cfg, rng) for _ in range(5)])

        def homogenize_repeatedly(seed):
            v, z = inputs[seed]
            rng = make_rng(100 + seed)
            return [homogenize(v, z, 0.8, cfg, rng) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(inputs)) as callers:
                results = list(callers.map(homogenize_repeatedly, range(len(inputs)), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            for (out, report), (ref_out, ref) in zip(got, want):
                assert _same_bits(out, ref_out)
                assert report.injected_energy == ref["injected_energy"]
                assert report.peak_to_floor == ref["peak_to_floor"]


class TestNaiveInject:
    def test_zero_sigma_identity(self):
        v = make_rng(20).standard_normal((8, 8))
        assert np.array_equal(naive_inject(v, 0.0, make_rng(0)), v)

    def test_over_energizes_structured_bins(self):
        # expected PSD of structured residual + full-level noise exceeds the
        # white target wherever the residual carries energy
        side, sigma, n_seeds = 32, 0.5, 120
        streaks = streak_field(side, scale=0.3)
        kernel = SmoothingKernel()
        base = estimate_psd(streaks, kernel)
        acc = np.zeros((side, side))
        for seed in range(n_seeds):
            noisy = naive_inject(streaks, sigma, make_rng(seed))
            acc += estimate_psd(noisy, kernel)
        mean = acc / n_seeds
        target = sigma**2 * side * side
        hot = base > 0.5 * target
        assert hot.any()
        assert np.all(mean[hot] > target)

    def test_matches_homogenize_on_zero_residual_in_expectation(self):
        side, sigma = 32, 1.0
        zeros = np.zeros((side, side))
        kernel = SmoothingKernel()
        acc_n = np.zeros((side, side))
        acc_h = np.zeros((side, side))
        for seed in range(80):
            acc_n += estimate_psd(naive_inject(zeros, sigma, make_rng(seed)) - 0.0, kernel)
            out, _ = homogenize(zeros, zeros, sigma, ShConfig(), make_rng(seed))
            acc_h += estimate_psd(out, kernel)
        target = sigma**2 * side * side
        assert abs(acc_n.mean() / 80 - target) / target < 0.05
        assert abs(acc_h.mean() / 80 - target) / target < 0.05

    def test_complex_noise_per_channel(self):
        v = np.zeros((16, 16), dtype=complex)
        out = naive_inject(v, 1.0, make_rng(21))
        assert np.iscomplexobj(out)
        assert np.std(out.real) > 0 and np.std(out.imag) > 0
