import warnings

import numpy as np
import pytest
from scipy import ndimage

from dcpnp import solver
from dcpnp.cli import CERTIFY_MAX_ITERS, CERTIFY_TOL
from dcpnp.experiment import build_operator, build_phantom, default_config, simulate_measurements
from dcpnp.fidelity import CgConfig, prox_data_consistency
from dcpnp.grid_core import make_rng
from dcpnp.operators import DenseOperator, FourierMaskOperator, make_cartesian_mask
from dcpnp.priors import GaussianPriorDenoiser, NoiseSchedule, TvProxDenoiser
from dcpnp.solver import (
    SolverDivergence,
    SolverState,
    SolverStepError,
    VariantSpec,
    certification_instance,
    certify_pair,
    dual_update,
    initialize,
    run,
)
from dcpnp.spectral import ShConfig
from helpers import IdentityDenoiser, IdentityOperator


def small_problem(seed=0, n=12):
    rng = make_rng(seed)
    op = DenseOperator(rng.standard_normal((n, n)) / np.sqrt(n))
    truth = rng.standard_normal((n, 1))
    return op, truth, op.apply(truth)


def mri_certification_instance(side, complex_mean, seed=3):
    """Masked Fourier operator (AF 4), clean measurements of a complex truth,
    and the Gaussian-prior denoiser (tau = 1) around a real or complex mean."""
    op = FourierMaskOperator(make_cartesian_mask(side, side, 4, 4))
    rng = make_rng(seed)
    y = op.apply(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    mu0 = rng.standard_normal((side, side))
    if complex_mean:
        mu0 = mu0 + 1j * rng.standard_normal((side, side))
    return op, y, GaussianPriorDenoiser(mu0, tau=1.0)


class TestVariantSpec:
    def test_labels_round_trip(self):
        specs = [VariantSpec(dual, inject) for dual in (True, False)
                 for inject in ("sh", "naive", "none")]
        assert solver.VARIANT_LABELS == tuple(v.label for v in specs)
        for v in specs:
            assert VariantSpec.from_label(v.label) == v

    def test_bad_labels_rejected(self):
        # partial or reordered spellings of a real variant are rejected too
        for label in ("dual=maybe,inject=sh", "dual=on,inject=blur", "dual=on,foo=1",
                      "dual=on,dual=off,inject=none", "dual", "", "dual=on,", "dual=off",
                      "inject=none", "inject=none,dual=on", "dual=on, inject=sh"):
            with pytest.raises(ValueError, match=f"unknown variant {label!r}"):
                VariantSpec.from_label(label)


class TestInitialize:
    def test_dual_starts_exactly_zero(self):
        op = IdentityOperator((8, 8))
        state = initialize(op, make_rng(0))
        assert np.all(state.u == 0.0)

    def test_prior_iterate_seeded_reproducibly(self):
        op = IdentityOperator((8, 8))
        a = initialize(op, make_rng(5), init_noise_std=2.0)
        b = initialize(op, make_rng(5), init_noise_std=2.0)
        assert np.array_equal(a.z, b.z)
        assert np.std(a.z) > 1.0  # scaled by the requested level

    def test_negative_noise_std_rejected(self):
        with pytest.raises(ValueError, match="init_noise_std must be nonnegative"):
            initialize(IdentityOperator((8, 8)), make_rng(0), init_noise_std=-1.0)


class TestDualUpdate:
    def test_consensus_leaves_dual_unchanged(self):
        z = make_rng(0).standard_normal((4, 4))
        state = SolverState(x=z.copy(), z=z.copy(), u=np.ones((4, 4)))
        assert np.array_equal(dual_update(state).u, state.u)

    def test_first_update_copies_gap(self):
        rng = make_rng(1)
        x, z = rng.standard_normal((2, 4, 4))
        state = SolverState(x=x, z=z, u=np.zeros((4, 4)))
        assert np.allclose(dual_update(state).u, x - z)

    def test_constant_gap_telescopes(self):
        rng = make_rng(2)
        x, z = rng.standard_normal((2, 4, 4))
        state = SolverState(x=x, z=z, u=np.zeros((4, 4)))
        for _ in range(5):
            state = dual_update(state)
        assert np.allclose(state.u, 5 * (x - z))

    def test_pure_function(self):
        state = SolverState(x=np.ones((2, 2)), z=np.zeros((2, 2)), u=np.zeros((2, 2)))
        dual_update(state)
        assert np.all(state.u == 0.0)


class TestRunLoop:
    def test_single_step_dual_on_off_identical(self):
        op, truth, y = small_problem(4)
        sched = NoiseSchedule(0.5, 0.5, 1)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        cg = CgConfig(200, 1e-12, 1e-2)
        outs = []
        for dual in (True, False):
            z, _ = run(op, y, den, sched, VariantSpec(dual, "none"), cg, ShConfig(), make_rng(9))
            outs.append(z)
        assert np.array_equal(outs[0], outs[1])

    def test_consistent_fixed_point_recovered(self):
        # identity operator, clean y, prior centered at y: every variant must
        # settle at y. Run data-dominated (tiny base penalty) with sigma_min
        # small enough that the tail injections sit below the tolerance; a
        # weak Gaussian prior cannot scrub injected noise by itself.
        side = 16
        rng = make_rng(5)
        truth = rng.standard_normal((side, side))
        op = IdentityOperator((side, side))
        y = truth.copy()
        den = GaussianPriorDenoiser(y.copy(), tau=1.0)
        sched = NoiseSchedule(1.0, 1e-7, 80)
        cg = CgConfig(100, 1e-12, 1e-16)
        for label in ("dual=on,inject=none", "dual=off,inject=none",
                      "dual=on,inject=sh", "dual=on,inject=naive"):
            z, _ = run(op, y, den, sched, VariantSpec.from_label(label), cg, ShConfig(), make_rng(6))
            assert np.max(np.abs(z - y)) < 1e-6, label

    def test_trace_has_one_record_per_iteration(self):
        op, truth, y = small_problem(6)
        sched = NoiseSchedule(1.0, 0.1, 7)
        den = IdentityDenoiser()
        z, trace = run(op, y, den, sched, VariantSpec(True, "none"), CgConfig(30, 1e-10, 1.0),
                       ShConfig(), make_rng(7), ground_truth=truth)
        assert len(trace.records) == 7
        ks = [r.k for r in trace.records]
        assert ks == list(range(7))
        assert all(r.psnr is not None for r in trace.records)

    def test_hqs_degeneracy_bit_exact(self):
        # (dual off, injection none) must replay a hand-rolled half-quadratic
        # splitting loop exactly, state for state
        op, truth, y = small_problem(8)
        sched = NoiseSchedule(2.0, 0.05, 12)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        lam0 = 1e-3
        cg = CgConfig(50, 1e-11, lam0)

        captured = []
        run(op, y, den, sched, VariantSpec(False, "none"), cg, ShConfig(), make_rng(11),
            on_iteration=lambda k, s: captured.append((s.x.copy(), s.z.copy())))

        state = initialize(op, make_rng(11), init_noise_std=sched.sigma_max)
        z = state.z
        for k in range(sched.steps):
            sigma = sched.sigma(k)
            lam = lam0 / sigma**2
            x = prox_data_consistency(op, y, z, np.zeros_like(z), CgConfig(50, 1e-11, lam)).x
            z = den.denoise(x, sigma, sched.timestep(k))
            assert np.array_equal(captured[k][0], x)
            assert np.array_equal(captured[k][1], z)

    def test_injection_variants_draw_noise(self):
        op, truth, y = small_problem(9, n=16)
        sched = NoiseSchedule(0.5, 0.1, 3)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        cg = CgConfig(50, 1e-10, 1e-2)
        outs = {}
        for inject in ("none", "naive", "sh"):
            z, trace = run(op, y, den, sched, VariantSpec(True, inject), cg, ShConfig(), make_rng(12))
            outs[inject] = z
        assert not np.array_equal(outs["none"], outs["naive"])
        assert not np.array_equal(outs["none"], outs["sh"])

    def test_sh_trace_records_spectral_fields(self):
        op, truth, y = small_problem(10, n=16)
        sched = NoiseSchedule(0.5, 0.1, 3)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        z, trace = run(op, y, den, sched, VariantSpec(True, "sh"), CgConfig(50, 1e-10, 1e-2),
                       ShConfig(), make_rng(13))
        for record in trace.records:
            assert record.injected_energy is not None
            assert record.flatness_before is not None

    def test_divergence_guard_raises_with_trace(self):
        class ExplodingDenoiser(IdentityDenoiser):
            def _denoise(self, v, sigma, t):
                return v * 1e7

        op, truth, y = small_problem(11)
        sched = NoiseSchedule(1.0, 0.5, 6)
        with pytest.raises(SolverDivergence) as err:
            run(op, y, ExplodingDenoiser(), sched, VariantSpec(True, "none"),
                CgConfig(20, 1e-10, 1e-2), ShConfig(), make_rng(14))
        assert len(err.value.trace.records) >= 1
        # a SolverStepError, so a failed row's error.txt names the iteration
        assert isinstance(err.value, SolverStepError)
        assert err.value.k == err.value.trace.records[-1].k
        assert str(err.value).startswith(f"iteration {err.value.k}: state ")

    def test_truthy_hook_ends_the_loop(self):
        op, truth, y = small_problem(13, n=16)
        sched = NoiseSchedule(0.5, 0.05, 6)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        seen = []

        def hook(k, state):
            seen.append(state.z)
            return k == 2

        z, trace = run(op, y, den, sched, VariantSpec(True, "sh"), CgConfig(40, 1e-10, 1e-2),
                       ShConfig(), make_rng(21), on_iteration=hook)
        assert [r.k for r in trace.records] == [0, 1, 2]
        assert z is seen[-1]

    def test_mri_iteration_transform_budget(self, monkeypatch):
        # per iteration: 2 FFTs for the exact data step, 1 for the data
        # residual, 3 per homogenized channel, and none to start the loop.
        # Homogenization inverts with two in-place 1-D passes, so a pair of
        # `ifft` calls counts as one 2-D transform
        cfg = default_config("mri", image_side=32, steps=5, tv_iters=10)
        op = build_operator(cfg)
        truth = build_phantom(cfg, 0)
        y = simulate_measurements(op, truth, cfg, 0)
        counted = []
        for name, weight in (("fft2", 1.0), ("ifft2", 1.0), ("ifft", 0.5)):
            monkeypatch.setattr(np.fft, name, lambda *a, _f=getattr(np.fft, name), _w=weight, **k:
                                counted.append(_w) or _f(*a, **k))
        run(op, y, cfg.make_denoiser(), cfg.schedule(), VariantSpec.from_label("dual=on,inject=sh"),
            cfg.cg_config(), cfg.sh_config(), make_rng(0))
        assert sum(counted) == 9 * 5

    @pytest.mark.parametrize("task, channels", [("svct", 1), ("mri", 2)])
    def test_homogenization_smooths_one_periodogram_per_channel(self, monkeypatch, task,
                                                                channels):
        # SH smooths only the residual's periodogram; nothing after the
        # injection is measured
        cfg = default_config(task, image_side=32, steps=5, tv_iters=10)
        op = build_operator(cfg)
        y = simulate_measurements(op, build_phantom(cfg, 0), cfg, 0)
        convolved, homogenized = [], []
        convolve, homogenize = ndimage.convolve, solver.homogenize
        monkeypatch.setattr(ndimage, "convolve",
                            lambda *a, **k: convolved.append(1) or convolve(*a, **k))
        monkeypatch.setattr(solver, "homogenize",
                            lambda *a: homogenized.append(1) or homogenize(*a))
        run(op, y, cfg.make_denoiser(), cfg.schedule(), VariantSpec.from_label("dual=on,inject=sh"),
            cfg.cg_config(), cfg.sh_config(), make_rng(0))
        assert len(homogenized) == 5
        assert len(convolved) == channels * len(homogenized)

    def test_seeded_run_deterministic(self):
        op, truth, y = small_problem(12, n=16)
        sched = NoiseSchedule(0.5, 0.05, 5)
        den = GaussianPriorDenoiser(np.zeros(op.domain_shape), tau=1.0)
        args = (op, y, den, sched, VariantSpec(True, "sh"), CgConfig(40, 1e-10, 1e-2), ShConfig())
        z1, _ = run(*args, make_rng(20))
        z2, _ = run(*args, make_rng(20))
        assert np.array_equal(z1, z2)


class TestCertifyFixedPoint:
    @pytest.mark.parametrize("seed", range(3))
    def test_dual_on_reaches_optimum(self, seed):
        op, y, den = certification_instance(seed)
        cert, _, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        assert cert.converged
        assert cert.consensus < CERTIFY_TOL
        assert cert.stationarity < CERTIFY_TOL
        assert cert.error_vs_optimum < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_off_biased_but_predictable(self, seed):
        op, y, den = certification_instance(seed)
        on, off, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        assert off.converged
        assert off.prediction_error is not None and off.prediction_error < CERTIFY_TOL
        assert off.error_vs_optimum > 10 * max(on.error_vs_optimum, 1e-12)

    def test_identity_with_agreeing_prior_unbiased(self):
        n = 12
        op = DenseOperator(np.eye(n))
        mu0 = make_rng(1).standard_normal((n, 1))
        y = mu0.copy()
        den = GaussianPriorDenoiser(mu0, tau=1.0)
        # the optimum is mu0 here, so a vanishing error is an unbiased iterate
        on, off, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        assert on.error_vs_optimum < 1e-6 and off.error_vs_optimum < 1e-6

    def test_dual_balance_at_fixed_point(self):
        op, y, den = certification_instance(7)
        cert, _, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        # gradient of the data term balanced by the scaled dual
        x0 = np.zeros(op.domain_shape)
        grad0 = np.linalg.norm(op.adjoint(op.apply(x0) - y))
        assert cert.dual_balance <= 1e-6 * grad0

    def test_inconclusive_marked(self):
        op, y, den = certification_instance(9)
        on, off, _ = certify_pair(op, y, den, CERTIFY_TOL, 2)
        assert not on.converged and not off.converged

    def test_certifies_the_shipped_loop(self, monkeypatch):
        # a loop whose dual never accumulates must not pass the dual-on certificate
        monkeypatch.setattr(solver, "dual_update", lambda state: state)
        op, y, den = certification_instance(0)
        cert, _, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        assert not cert.converged
        assert cert.consensus > CERTIFY_TOL

    def test_complex_prior_mean_is_kept(self):
        op, y, den = mri_certification_instance(32, complex_mean=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            cert, _, _ = certify_pair(op, y, den, CERTIFY_TOL, CERTIFY_MAX_ITERS)
        assert cert.converged
        assert cert.stationarity < CERTIFY_TOL
        assert cert.error_vs_optimum < 1e-5

    @pytest.mark.parametrize("complex_mean", [False, True])
    def test_mri_fixed_point(self, complex_mean):
        # the exact data manifold on the paper's own forward model
        tol = CERTIFY_TOL
        op, y, den = mri_certification_instance(64, complex_mean)
        on, off, ratio = certify_pair(op, y, den, tol, CERTIFY_MAX_ITERS)
        assert on.converged and on.consensus < tol and on.stationarity < tol
        assert off.converged and off.prediction_error < tol
        assert ratio >= 10

    def test_requires_gaussian_denoiser(self):
        op, y, _ = certification_instance(10)
        with pytest.raises(ValueError):
            certify_pair(op, y, TvProxDenoiser(), CERTIFY_TOL, CERTIFY_MAX_ITERS)
