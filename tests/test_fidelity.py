import numpy as np
import pytest

from dcpnp.fidelity import CgConfig, prox_data_consistency
from dcpnp.grid_core import make_rng
from dcpnp.operators import (
    DenseOperator,
    FourierMaskOperator,
    RadonOperator,
    make_cartesian_mask,
    make_sparse_view_geometry,
)
from helpers import IdentityOperator


def dense_instance(seed, m=12, n=12):
    rng = make_rng(seed)
    op = DenseOperator(rng.standard_normal((m, n)) / np.sqrt(n))
    y = rng.standard_normal((m, 1))
    z = rng.standard_normal((n, 1))
    u = rng.standard_normal((n, 1))
    return op, y, z, u


class TestIdentityClosedForm:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 17.5])
    def test_matches_scalar_algebra(self, lam):
        rng = make_rng(1)
        op = IdentityOperator((6, 6))
        y, z, u = rng.standard_normal((3, 6, 6))
        res = prox_data_consistency(op, y, z, u, CgConfig(200, 1e-13, lam))
        expected = (y + lam * (z - u)) / (1.0 + lam)
        assert np.max(np.abs(res.x - expected)) < 1e-12


class TestDenseOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_cg_matches_direct_solve(self, seed):
        op, y, z, u = dense_instance(seed)
        lam = 0.5
        res = prox_data_consistency(op, y, z, u, CgConfig(500, 1e-10, lam))
        a = op.matrix
        direct = np.linalg.solve(a.T @ a + lam * np.eye(12), (a.T @ y + lam * (z - u)).ravel())
        rel = np.linalg.norm(res.x.ravel() - direct) / np.linalg.norm(direct)
        assert res.converged
        assert rel < 1e-8

    def test_warm_start_at_solution_returns_immediately(self):
        op = IdentityOperator((4, 4))
        z = np.ones((4, 4))
        u = np.zeros((4, 4))
        y = z.copy()  # solution of (I + lam I)x = y + lam z is exactly z
        res = prox_data_consistency(op, y, z, u, CgConfig(50, 1e-10, 3.0))
        assert res.iterations == 0 and res.converged


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_norms_non_increasing(self, seed):
        op, y, z, u = dense_instance(seed)
        res = prox_data_consistency(op, y, z, u, CgConfig(300, 1e-12, 0.25))
        norms = np.array(res.residual_norms)
        assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))

    def test_penalty_dominated_residuals_non_increasing(self):
        # with lam dominating the spectrum the system is near-identity and
        # the residual norm provably contracts every step
        geo = make_sparse_view_geometry(10, 32)
        op = RadonOperator(geo)
        rng = make_rng(7)
        y = rng.standard_normal(op.range_shape)
        z = rng.standard_normal(op.domain_shape)
        u = rng.standard_normal(op.domain_shape)
        res = prox_data_consistency(op, y, z, u, CgConfig(60, 1e-10, 1e4))
        norms = np.array(res.residual_norms)
        assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))

    def test_radon_residual_converges_overall(self):
        # plain CG residual 2-norms legitimately oscillate on ill-conditioned
        # systems; the certified behavior is overall convergence
        geo = make_sparse_view_geometry(10, 32)
        op = RadonOperator(geo)
        rng = make_rng(7)
        y = rng.standard_normal(op.range_shape)
        z = rng.standard_normal(op.domain_shape)
        u = rng.standard_normal(op.domain_shape)
        res = prox_data_consistency(op, y, z, u, CgConfig(400, 1e-10, 1.0))
        assert res.converged
        assert res.residual_norms[-1] < 1e-9 * res.residual_norms[0]

    def test_error_norm_non_increasing_against_oracle(self):
        # CG's Euclidean distance to the true solution is guaranteed
        # monotone on SPD systems; check it via a per-iteration replay
        op, y, z, u = dense_instance(2)
        lam = 0.25
        a = op.matrix
        direct = np.linalg.solve(a.T @ a + lam * np.eye(12), (a.T @ y + lam * (z - u)).ravel())
        errors = []
        for iters in range(1, 40):
            res = prox_data_consistency(op, y, z, u, CgConfig(iters, 1e-30, lam))
            errors.append(np.linalg.norm(res.x.ravel() - direct))
        errors = np.array(errors)
        assert np.all(np.diff(errors) <= 1e-10 * max(1.0, errors[0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_optimality_certificate(self, seed):
        op, y, z, u = dense_instance(seed)
        lam = 0.8
        tol = 1e-10
        res = prox_data_consistency(op, y, z, u, CgConfig(500, tol, lam))
        assert res.converged
        grad = 2.0 * (op.adjoint(op.apply(res.x) - y) + lam * (res.x - (z - u)))
        bound = tol * (np.linalg.norm(op.adjoint(y)) + lam * np.linalg.norm(z - u))
        assert np.linalg.norm(grad) <= bound

    def test_huge_penalty_pins_to_warm_start(self):
        op, y, z, u = dense_instance(11)
        res = prox_data_consistency(op, y, z, u, CgConfig(200, 1e-12, 1e8))
        target = z - u
        rel = np.linalg.norm(res.x - target) / np.linalg.norm(target)
        assert rel < 1e-6

    def test_normal_operator_symmetry(self):
        op, *_ = dense_instance(3)
        lam = 0.7
        rng = make_rng(5)
        a = rng.standard_normal(op.domain_shape)
        b = rng.standard_normal(op.domain_shape)

        def normal(v):
            return op.adjoint(op.apply(v)) + lam * v

        lhs = float(np.sum(normal(a) * b))
        rhs = float(np.sum(a * normal(b)))
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10


class _CgOnlyFourier(FourierMaskOperator):
    """The masked Fourier operator without its closed form: plain CG."""

    def prox_solve(self, y, warm, lam):
        return None


def fourier_instance(side, af, seed):
    op = FourierMaskOperator(make_cartesian_mask(side, side, af, 2))
    rng = make_rng(seed)
    y, z, u = (rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
               for _ in range(3))
    return op, y, z, u


class TestExactFourierStep:
    @pytest.mark.parametrize("side", [16, 37, 64])
    @pytest.mark.parametrize("af", [1, 4, 6])
    @pytest.mark.parametrize("lam", [1e-5, 1e-2, 1.0, 1e3])
    def test_matches_converged_cg(self, side, af, lam):
        op, y, z, u = fourier_instance(side, af, seed=side + af)
        exact = prox_data_consistency(op, y, z, u, CgConfig(20, 1e-10, lam))
        cg_op = _CgOnlyFourier(op.mask)
        cg = prox_data_consistency(cg_op, y, z, u, CgConfig(200, 1e-14, lam))
        assert cg.converged and cg.iterations >= 1
        assert np.linalg.norm(exact.x - cg.x) <= 1e-12 * np.linalg.norm(cg.x)

    @pytest.mark.parametrize("lam", [1e-5, 0.3, 1e3])
    def test_solves_the_normal_equations(self, lam):
        op, y, z, u = fourier_instance(32, 4, seed=3)
        x = prox_data_consistency(op, y, z, u, CgConfig(20, 1e-10, lam)).x
        lhs = op.adjoint(op.apply(x)) + lam * x
        rhs = op.adjoint(y) + lam * (z - u)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_reports_an_exact_step(self):
        op, y, z, u = fourier_instance(16, 4, seed=4)
        res = prox_data_consistency(op, y, z, u, CgConfig(20, 1e-10, 0.5))
        assert res.converged and res.iterations == 0 and res.residual_norms == []

    def test_ignores_measurements_off_the_mask(self):
        op, y, z, u = fourier_instance(24, 4, seed=5)
        on_mask = np.where(op.mask.keep[None, :], y, 0.0)
        full = op.prox_solve(y, z - u, 0.7)
        masked = op.prox_solve(on_mask, z - u, 0.7)
        assert np.array_equal(full, masked)

    def test_zero_penalty_runs_cg(self):
        # lam = 0 has no unique minimizer, so the Fourier operator falls back to
        # CG, which converges in one step on the projection A'A and leaves the
        # unsampled part of the warm start alone
        op, y, z, u = fourier_instance(32, 4, seed=6)
        assert op.prox_solve(y, z - u, 0.0) is None
        res = prox_data_consistency(op, y, z, u, CgConfig(20, 1e-12, 0.0))
        assert res.converged and res.iterations >= 1
        aty = op.adjoint(y)
        assert np.linalg.norm(op.adjoint(op.apply(res.x)) - aty) <= 1e-12 * np.linalg.norm(aty)
        off_mask = res.x - z + u - op.adjoint(op.apply(res.x - z + u))
        assert np.linalg.norm(off_mask) <= 1e-12 * np.linalg.norm(z - u)

    def test_other_operators_keep_cg(self):
        rng = make_rng(8)
        dense, *_ = dense_instance(8)
        radon = RadonOperator(make_sparse_view_geometry(4, 16))
        for op in (dense, radon, IdentityOperator((5, 5))):
            y = rng.standard_normal(op.range_shape)
            assert op.prox_solve(y, rng.standard_normal(op.domain_shape), 1.0) is None


class TestEdgeCases:
    def test_rank_deficient_unregularized_reports_nonconverged(self):
        rng = make_rng(9)
        tall = rng.standard_normal((4, 8))  # wide A, rank-deficient A'A
        op = DenseOperator(tall)
        y = rng.standard_normal((4, 1))
        z = rng.standard_normal((8, 1))
        u = np.zeros((8, 1))
        res = prox_data_consistency(op, y, z, u, CgConfig(3, 1e-16, 0.0))
        assert not res.converged
        assert np.all(np.isfinite(res.x))

    def test_nonfinite_inputs_rejected(self):
        op = IdentityOperator((3, 3))
        bad = np.full((3, 3), np.nan)
        good = np.zeros((3, 3))
        with pytest.raises(ValueError):
            prox_data_consistency(op, bad, good, good, CgConfig())
        with pytest.raises(ValueError):
            prox_data_consistency(op, good, bad, good, CgConfig())

    def test_shape_mismatch_rejected(self):
        op = IdentityOperator((3, 3))
        with pytest.raises(ValueError):
            prox_data_consistency(op, np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 3)), CgConfig())

    def test_complex_operator_solve(self):
        op = FourierMaskOperator(make_cartesian_mask(16, 16, 4, 2))
        rng = make_rng(21)
        truth = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        y = op.apply(truth)
        z = np.zeros((16, 16), dtype=complex)
        u = np.zeros((16, 16), dtype=complex)
        res = prox_data_consistency(op, y, z, u, CgConfig(100, 1e-12, 0.1))
        assert res.converged
        # solution of (P + 0.1 I) x = P truth where P is the sampling projection
        proj = op.adjoint(op.apply(truth))
        expected = proj / 1.1 + (truth - truth) / 1.0  # kept lines shrink by 1/1.1
        kept = proj
        assert np.max(np.abs(op.adjoint(op.apply(res.x)) - kept / 1.1)) < 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CgConfig(max_iters=0)
        with pytest.raises(ValueError):
            CgConfig(tol=0.0)
        with pytest.raises(ValueError):
            CgConfig(lam=-1.0)
