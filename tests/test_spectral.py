import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import ndimage

from dcpnp import grid_core
from dcpnp.grid_core import forward_dft, make_rng
from dcpnp.spectral import ShConfig, _real_field, estimate_psd, homogenize, naive_inject


def streak_field(side, amplitudes=((3, 11), (17, 5), (9, 23)), scale=0.12):
    """Superposed plane waves: strongly concentrated spectrum, modest energy."""
    xs = np.arange(side)
    field = np.zeros((side, side))
    for fx, fy in amplitudes:
        field += np.cos(2 * np.pi * (fx * xs[None, :] + fy * xs[:, None]) / side)
    return scale * field


class TestShConfig:
    def test_default_window_7(self):
        cfg = ShConfig()
        assert cfg.window == 7
        assert cfg.kernel.shape == (7, 7)

    def test_normalized_and_nonnegative(self):
        for w in (1, 3, 7, 11):
            arr = ShConfig(w).kernel
            assert np.all(arr >= 0)
            assert abs(arr.sum() - 1.0) < 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            ShConfig(6)

    def test_peak_at_center(self):
        arr = ShConfig(7).kernel
        assert arr[3, 3] == arr.max()

    def test_window_1_is_raw_periodogram(self):
        r = make_rng(4).standard_normal((12, 10))
        assert np.array_equal(ShConfig(1).kernel, np.ones((1, 1)))
        assert np.allclose(estimate_psd(r, ShConfig(1)), np.abs(forward_dft(r)) ** 2,
                           rtol=1e-14, atol=0.0)


class TestEstimateResidual:
    # the residual v - z_prev is read back through the report's statistics of its PSD
    def test_equal_inputs_zero(self):
        v = make_rng(0).standard_normal((8, 8))
        _, report = homogenize(v, v, 1.0, ShConfig(), make_rng(1))
        assert report.flatness_before == 0.0

    def test_zero_reference_identity(self):
        v = make_rng(1).standard_normal((8, 8))
        cfg = ShConfig()
        _, report = homogenize(v, np.zeros_like(v), 0.5, cfg, make_rng(2))
        psd = estimate_psd(v, cfg)
        assert report.flatness_before == pytest.approx(np.std(psd) / np.mean(psd), rel=1e-12)

    def test_constant_shift_cancels(self):
        rng = make_rng(2)
        v, z = rng.standard_normal((2, 8, 8))
        shifted, _ = homogenize(v + 3.5, z + 3.5, 0.6, ShConfig(), make_rng(24))
        plain, _ = homogenize(v, z, 0.6, ShConfig(), make_rng(24))
        assert np.allclose(shifted - 3.5, plain)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            homogenize(np.zeros((4, 4)), np.zeros((4, 5)), 1.0, ShConfig(), make_rng(0))


def _injected_power(r, sigma, cfg, seed):
    """Homogenize the residual r from v = 0, z_prev = -r, so the output is
    exactly the synthesized noise; return its per-bin power, which is the
    deficit, and the report."""
    noise, report = homogenize(np.zeros_like(r), -r, sigma, cfg, make_rng(seed))
    return np.abs(forward_dft(noise)) ** 2, report


class TestSpectralDeficit:
    def test_zero_psd_full_target(self):
        # every bin's deficit is the whole target sigma^2 * H * W = 256
        power, report = _injected_power(np.zeros((8, 8)), 2.0, ShConfig(), 23)
        assert report.injected_energy == 256.0
        assert np.allclose(power, 256.0, rtol=1e-12, atol=0.0)

    def test_saturated_psd_floors_at_zero(self):
        # an impulse of height 10 has power 100 in every bin, above the target 64
        v = np.zeros((8, 8))
        v[0, 0] = 10.0
        out, report = homogenize(v, np.zeros_like(v), 1.0, ShConfig(), make_rng(5))
        assert report.injected_energy == 0.0
        assert np.array_equal(out, v)

    def test_4x4_arithmetic_example(self):
        # window 1 leaves the periodogram raw; a plane wave puts power 20 in
        # bin (1, 2) and its conjugate (3, 2); the target is 16
        ys, xs = np.mgrid[0:4, 0:4]
        r = np.sqrt(20.0) / 8.0 * np.cos(2 * np.pi * (2 * xs + ys) / 4)
        wave_power = np.abs(forward_dft(r)) ** 2
        assert wave_power[1, 2] == pytest.approx(20.0) and wave_power[3, 2] == pytest.approx(20.0)
        power, report = _injected_power(r, 1.0, ShConfig(1), 6)
        expected = np.full((4, 4), 16.0)
        expected[1, 2] = expected[3, 2] = 0.0  # 16 - 20 clips to zero
        assert np.allclose(power, expected, rtol=1e-12, atol=1e-12)
        assert report.injected_energy == pytest.approx(14.0, rel=1e-12)

    def test_never_exceeds_target(self):
        rng = make_rng(7)
        sigma = 1.3
        r = sigma * rng.standard_normal((16, 16))
        power, _ = _injected_power(r, sigma, ShConfig(), 8)
        target = sigma**2 * 256
        # residual power near the target: some bins are saturated, some are not
        assert np.any(power < 1e-12 * target) and np.any(power > 0.1 * target)
        assert np.all(power <= target * (1 + 1e-12))

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            homogenize(np.zeros((4, 4)), np.zeros((4, 4)), -1.0, ShConfig(), make_rng(0))
        with pytest.raises(ValueError, match="sigma"):
            naive_inject(np.zeros((4, 4)), -1.0, make_rng(0))


class TestSynthesizeNoise:
    def test_flat_deficit_gives_white_noise(self):
        # a zero residual leaves the flat deficit sigma^2 * H * W in every bin:
        # the noise then has mean square sigma^2 (Parseval) and a circular
        # autocorrelation that vanishes at every nonzero lag
        side, sigma = 32, 0.7
        zeros = np.zeros((side, side))
        for seed in range(5):
            noise, _ = homogenize(zeros, zeros, sigma, ShConfig(), make_rng(seed))
            assert np.mean(noise**2) == pytest.approx(sigma**2, rel=1e-12)
            for dy, dx in ((0, 1), (1, 0), (1, 1), (5, 11)):
                lagged = np.mean(noise * np.roll(noise, (dy, dx), axis=(0, 1)))
                assert abs(lagged) < 1e-12 * sigma**2

    def test_sample_mean_near_zero(self):
        # the DC bin carries +-sqrt(target) / (H W) with the sign of the white draw
        side, level = 32, 10.0
        zeros = np.zeros((side, side))
        sigma = np.sqrt(level) / side
        means = [float(np.mean(homogenize(zeros, zeros, sigma, ShConfig(), make_rng(seed))[0]))
                 for seed in range(100)]
        std_per_field = np.sqrt(level) / (side * side)
        assert abs(np.mean(means)) < 3 * std_per_field / np.sqrt(100) + 1e-12


class TestEstimatePsd:
    def test_zero_residual_zero_psd(self):
        psd = estimate_psd(np.zeros((16, 16)), ShConfig())
        assert np.all(psd == 0.0)

    def test_white_noise_level(self):
        # E|F(n)|^2 = sigma^2 * H * W = 4096 on 64x64; Monte-Carlo mean of the
        # smoothed periodogram per bin within +-10%
        side, n_seeds = 64, 100
        cfg = ShConfig()
        acc = np.zeros((side, side))
        for seed in range(n_seeds):
            r = make_rng(seed).standard_normal((side, side))
            acc += estimate_psd(r, cfg)
        mean = acc / n_seeds
        target = side * side
        assert mean.min() > 0.9 * target
        assert mean.max() < 1.1 * target

    def test_sinusoid_concentrates(self):
        side = 64
        xs = np.arange(side)
        wave = np.cos(2 * np.pi * (5 * xs[None, :] + 9 * xs[:, None]) / side)
        cfg = ShConfig(7)
        psd = estimate_psd(wave, cfg)
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
        smoothed = estimate_psd(r, ShConfig(7))
        assert abs(smoothed.sum() - raw.sum()) / raw.sum() < 1e-10

    def test_nonnegative(self):
        r = make_rng(6).standard_normal((20, 20))
        assert np.min(estimate_psd(r, ShConfig())) >= 0.0


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
        out, report = homogenize(streaks, np.zeros_like(streaks), 1.0, ShConfig(), rng)
        psd = estimate_psd(out, ShConfig())
        assert np.std(psd) / np.mean(psd) < report.flatness_before

    def test_saturated_bins_receive_nothing(self):
        side = 32
        strong = streak_field(side, scale=3.0)
        sigma = 0.05
        cfg = ShConfig()
        saturated = estimate_psd(strong, cfg) >= sigma**2 * side * side
        assert saturated.any() and not saturated.all()
        out, _ = homogenize(strong, np.zeros_like(strong), sigma, cfg, make_rng(19))
        injected = np.abs(forward_dft(out - strong))
        assert injected[~saturated].max() > 1.0
        assert injected[saturated].max() < 1e-12

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


def _two_transform_homogenize(v, z_prev, sigma, cfg, rng):
    """The earlier homogenization pipeline, kept as the reference: it
    transformed the residual and the white draw out of place."""

    def psd_of(grid):
        return ndimage.convolve(np.abs(forward_dft(grid)) ** 2, cfg.kernel, mode="wrap")

    def channel(r):
        psd = psd_of(r)
        deficit = np.maximum(0.0, sigma**2 * psd.shape[0] * psd.shape[1] - psd)
        spectrum = forward_dft(rng.standard_normal(deficit.shape))
        mag = np.abs(spectrum)
        degenerate = mag < 1e-300
        phase = np.where(degenerate, 1.0 + 0j, spectrum / np.where(degenerate, 1.0, mag))
        noise = np.fft.ifft2(np.sqrt(deficit) * phase).real
        return noise, psd, deficit

    def cv(m):
        return float(np.std(m) / np.mean(m)) if float(np.mean(m)) != 0.0 else 0.0

    r = v - z_prev
    channels = [r.real, r.imag] if np.iscomplexobj(r) else [r]
    noises, psds, deficits = zip(*(channel(c) for c in channels))
    noise = noises[0] if len(channels) == 1 else noises[0] + 1j * noises[1]
    return v + noise, dict(
        injected_energy=float(sum(d.sum() for d in deficits) / r.size),
        flatness_before=sum(map(cv, psds)) / len(channels),
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
    @pytest.mark.parametrize("sigma", [0.8, 3.0])  # deficit in few bins / in every bin
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_two_transform_pipeline(self, monkeypatch, shape, complex_grid, sigma, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if cpus == 1:
            monkeypatch.setattr(grid_core, "worker_pool", _no_pool)
        rng = make_rng(sum(shape))
        v, z = rng.standard_normal((2,) + shape)
        if complex_grid:
            v = v + 1j * rng.standard_normal(shape)
            z = z + 1j * rng.standard_normal(shape)
        cfg = ShConfig()
        out, report = homogenize(v, z, sigma, cfg, make_rng(3))
        ref_out, ref = _two_transform_homogenize(v, z, sigma, cfg, make_rng(3))
        assert np.array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        for name in ("injected_energy", "flatness_before"):
            got = np.float64(getattr(report, name)).view(np.uint64)
            assert got == np.float64(ref[name]).view(np.uint64), name

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
                got = np.float64(report.flatness_before).view(np.uint64)
                assert got == np.float64(ref["flatness_before"]).view(np.uint64)


class TestRealField:
    # an inf in a bin with zero imaginary part, and a NaN, both pass the
    # imaginary-part test, so finiteness has its own check
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0.0),
                                     complex(0.0, np.nan), complex(1.0, -np.inf)])
    def test_non_finite_spectrum_rejected(self, bad):
        spectrum = forward_dft(make_rng(40).standard_normal((8, 8)))
        spectrum[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _real_field(spectrum, np.empty(spectrum.shape))

    def test_warm_320px_call_allocates_no_grid(self):
        spectrum = forward_dft(make_rng(41).standard_normal((320, 320)))
        scratch = np.empty(spectrum.shape)
        _real_field(spectrum.copy(), scratch)  # outside the trace: numpy's FFT setup
        work = spectrum.copy()
        tracemalloc.start()
        try:
            field = _real_field(work, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000, f"traced peak {peak} bytes"
        assert _same_bits(field.copy(), np.fft.ifft2(spectrum).real.copy())


class TestNaiveInject:
    def test_zero_sigma_identity(self):
        v = make_rng(20).standard_normal((8, 8))
        assert np.array_equal(naive_inject(v, 0.0, make_rng(0)), v)

    def test_over_energizes_structured_bins(self):
        # expected PSD of structured residual + full-level noise exceeds the
        # white target wherever the residual carries energy
        side, sigma, n_seeds = 32, 0.5, 120
        streaks = streak_field(side, scale=0.3)
        cfg = ShConfig()
        base = estimate_psd(streaks, cfg)
        acc = np.zeros((side, side))
        for seed in range(n_seeds):
            noisy = naive_inject(streaks, sigma, make_rng(seed))
            acc += estimate_psd(noisy, cfg)
        mean = acc / n_seeds
        target = sigma**2 * side * side
        hot = base > 0.5 * target
        assert hot.any()
        assert np.all(mean[hot] > target)

    def test_matches_homogenize_on_zero_residual_in_expectation(self):
        side, sigma = 32, 1.0
        zeros = np.zeros((side, side))
        cfg = ShConfig()
        acc_n = np.zeros((side, side))
        acc_h = np.zeros((side, side))
        for seed in range(80):
            acc_n += estimate_psd(naive_inject(zeros, sigma, make_rng(seed)) - 0.0, cfg)
            out, _ = homogenize(zeros, zeros, sigma, cfg, make_rng(seed))
            acc_h += estimate_psd(out, cfg)
        target = sigma**2 * side * side
        assert abs(acc_n.mean() / 80 - target) / target < 0.05
        assert abs(acc_h.mean() / 80 - target) / target < 0.05

    def test_complex_noise_per_channel(self):
        v = np.zeros((16, 16), dtype=complex)
        out = naive_inject(v, 1.0, make_rng(21))
        assert np.iscomplexobj(out)
        assert np.std(out.real) > 0 and np.std(out.imag) > 0
