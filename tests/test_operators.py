import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from dcpnp import operators
from dcpnp.grid_core import make_rng
from dcpnp.metrics import psnr
from dcpnp.operators import (
    CartesianMask,
    DenseOperator,
    FourierMaskOperator,
    IdentityOperator,
    RadonGeometry,
    RadonOperator,
    dot_test,
    fbp,
    fourier_mask_apply,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
    radon_adjoint,
    radon_forward,
)
from dcpnp.phantoms import _HEAD_ELLIPSES, flat_disk, shepp_logan


def ellipse_sinogram(geo, table, side):
    """Analytic line integrals of an ellipse superposition (exact chords)."""
    half = (side - 1) / 2.0
    bins = (np.arange(geo.detector_bins) - (geo.detector_bins - 1) / 2.0) * geo.detector_pitch
    sino = np.zeros((geo.n_views, geo.detector_bins))
    for vi, ang in enumerate(geo.angles):
        th = np.deg2rad(ang)
        for rho, a, b, x0, y0, phi_deg in table:
            phi = np.deg2rad(phi_deg)
            big_a, big_b = a * half, b * half
            offset = bins - (x0 * half * np.cos(th) + y0 * half * np.sin(th))
            alpha2 = (big_a * np.cos(th - phi)) ** 2 + (big_b * np.sin(th - phi)) ** 2
            inside = offset**2 <= alpha2
            vals = np.zeros_like(offset)
            vals[inside] = 2 * rho * big_a * big_b * np.sqrt(alpha2 - offset[inside] ** 2) / alpha2
            sino[vi] += vals
    return sino


class TestGeometries:
    def test_sparse_view_20_angles(self):
        geo = make_sparse_view_geometry(20, 128)
        assert np.allclose(geo.angles, np.arange(20) * 9.0)

    def test_sparse_view_single(self):
        assert make_sparse_view_geometry(1, 64).angles.tolist() == [0.0]

    def test_sparse_view_4(self):
        assert make_sparse_view_geometry(4, 64).angles.tolist() == [0.0, 45.0, 90.0, 135.0]

    def test_sparse_view_rejects_zero(self):
        with pytest.raises(ValueError):
            make_sparse_view_geometry(0, 64)

    def test_limited_angle_span(self):
        geo = make_limited_angle_geometry(90, 90.0, 128)
        assert len(geo.angles) == 90
        assert geo.angles[0] == 0.0 and geo.angles[-1] == 90.0

    def test_limited_angle_two_views(self):
        assert make_limited_angle_geometry(2, 90.0, 64).angles.tolist() == [0.0, 90.0]

    def test_limited_angle_three_views(self):
        assert make_limited_angle_geometry(3, 90.0, 64).angles.tolist() == [0.0, 45.0, 90.0]

    def test_limited_angle_rejects_bad_range(self):
        with pytest.raises(ValueError):
            make_limited_angle_geometry(5, 0.0, 64)
        with pytest.raises(ValueError):
            make_limited_angle_geometry(5, 200.0, 64)

    def test_default_bins_cover_reference_size(self):
        assert make_sparse_view_geometry(20, 256).detector_bins == 363

    def test_detector_coverage_enforced(self):
        with pytest.raises(ValueError):
            RadonGeometry(np.array([0.0]), detector_bins=100, image_side=128)

    def test_angles_must_increase(self):
        with pytest.raises(ValueError):
            RadonGeometry(np.array([10.0, 5.0]), image_side=32)


class TestRadon:
    def test_zero_image_zero_sinogram(self):
        geo = make_sparse_view_geometry(8, 32)
        assert np.all(radon_forward(np.zeros((32, 32)), geo) == 0.0)

    def test_disk_profile_matches_chord_length(self):
        side = 128
        geo = make_sparse_view_geometry(8, side)
        img = flat_disk(side, radius=0.5, inside=1.0, outside=0.0)
        sino = radon_forward(img, geo)
        r_pix = 0.5 * (side - 1) / 2.0
        center = (geo.detector_bins - 1) // 2
        for view in range(geo.n_views):
            measured = sino[view, center]
            assert measured == pytest.approx(2 * r_pix, rel=0.02)

    def test_rotation_consistency(self):
        side = 48
        rng = make_rng(14)
        img = rng.standard_normal((side, side))
        geo = make_sparse_view_geometry(20, side)
        op = RadonOperator(geo)
        sino = op.apply(img)
        sino_rot = op.apply(np.rot90(img))
        # with y up, a 90 deg ccw image rotation shifts view content so the
        # rotated sinogram at angle a + 90 matches the original at angle a
        angle_index = {a: i for i, a in enumerate(geo.angles)}
        checked = 0
        for i, a in enumerate(geo.angles):
            if a + 90.0 in angle_index:
                j = angle_index[a + 90.0]
                assert np.max(np.abs(sino_rot[j] - sino[i])) < 1e-6
                checked += 1
        assert checked == 10

    def test_dot_test_sparse_view(self):
        op = RadonOperator(make_sparse_view_geometry(20, 32))
        assert dot_test(op, make_rng(0)) < 1e-10

    def test_dot_test_limited_angle(self):
        op = RadonOperator(make_limited_angle_geometry(90, 90.0, 32))
        assert dot_test(op, make_rng(1)) < 1e-10

    def test_adjoint_zero(self):
        geo = make_sparse_view_geometry(8, 32)
        sino = np.zeros((8, geo.detector_bins))
        assert np.all(radon_adjoint(sino, geo) == 0.0)

    def test_adjoint_single_bin_is_a_ray(self):
        geo = make_sparse_view_geometry(4, 32)
        sino = np.zeros((4, geo.detector_bins))
        sino[0, (geo.detector_bins - 1) // 2] = 1.0
        back = radon_adjoint(sino, geo)
        assert np.all(back >= 0.0)
        assert back.sum() > 0
        # angle 0 ray: detector coordinate is x, so the hit column band is narrow
        hit_cols = np.nonzero(back.sum(axis=0))[0]
        assert hit_cols.size <= 2

    def test_brute_force_inner_products(self):
        geo = make_sparse_view_geometry(5, 16)
        op = RadonOperator(geo)
        rng = make_rng(3)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        lhs = float(np.sum(op.apply(x) * y))
        rhs = float(np.sum(x * op.adjoint(y)))
        assert abs(lhs - rhs) / (np.linalg.norm(op.apply(x)) * np.linalg.norm(y)) < 1e-12

    def test_linearity(self):
        geo = make_sparse_view_geometry(6, 24)
        op = RadonOperator(geo)
        rng = make_rng(4)
        x1, x2 = rng.standard_normal((2, 24, 24))
        lhs = op.apply(2.5 * x1 - 1.25 * x2)
        rhs = 2.5 * op.apply(x1) - 1.25 * op.apply(x2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_nonnegative_image_gives_nonnegative_sinogram(self):
        geo = make_sparse_view_geometry(9, 32)
        img = np.abs(make_rng(5).standard_normal((32, 32)))
        assert np.min(radon_forward(img, geo)) >= 0.0

    def test_shape_mismatch_rejected(self):
        geo = make_sparse_view_geometry(8, 32)
        with pytest.raises(ValueError):
            radon_forward(np.zeros((16, 16)), geo)
        with pytest.raises(ValueError):
            radon_adjoint(np.zeros((3, 3)), geo)


class TestThreadedRadon:
    GEOMETRIES = {
        "sparse-view": lambda: make_sparse_view_geometry(20, 48),
        "limited-angle": lambda: make_limited_angle_geometry(90, 90.0, 48),
    }

    @pytest.mark.parametrize("n_cpus", [2, 3])
    @pytest.mark.parametrize("kind", sorted(GEOMETRIES))
    def test_blocked_matvec_bitwise_equal_to_matrix(self, monkeypatch, kind, n_cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        op = RadonOperator(self.GEOMETRIES[kind]())
        assert len(op._fwd_blocks.blocks) == n_cpus
        assert len(op._adj_blocks.blocks) == n_cpus
        rng = make_rng(7)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        assert np.array_equal(op.apply(x).ravel(), op._fwd @ x.ravel())
        assert np.array_equal(op.adjoint(y).ravel(), op._adj @ y.ravel())
        assert dot_test(op, make_rng(8)) <= 1e-10

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        op = RadonOperator(make_sparse_view_geometry(20, 48))
        inputs = [make_rng(seed).standard_normal(op.domain_shape) for seed in range(8)]
        expected = [op._adj @ (op._fwd @ x.ravel()) for x in inputs]

        def normal_repeatedly(x):
            return [op.adjoint(op.apply(x)).ravel() for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(inputs)) as callers:
                results = list(callers.map(normal_repeatedly, inputs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert all(np.array_equal(g, want) for g in got)

    def test_blocks_are_views_with_balanced_nnz(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        op = RadonOperator(make_limited_angle_geometry(90, 90.0, 48))
        for whole, blocked in ((op._fwd, op._fwd_blocks), (op._adj, op._adj_blocks)):
            for block in blocked.blocks:
                assert np.shares_memory(block.data, whole.data)
                assert np.shares_memory(block.indices, whole.indices)
            counts = [len(block.data) for block in blocked.blocks]
            assert sum(counts) == whole.nnz
            assert max(counts) - min(counts) <= 2 * np.diff(whole.indptr).max()

    def test_split_more_blocks_than_rows(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0],
                                         [0.0, 5.0, 6.0]]))
        blocks = operators._split_rows(matrix, 50)
        assert 1 <= len(blocks) <= matrix.shape[0]
        sizes = [block.n_rows for block in blocks]
        assert min(sizes) >= 1
        assert [block.first for block in blocks] == list(np.cumsum([0] + sizes[:-1]))
        stacked = sp.vstack([sp.csr_matrix((b.data, b.indices, b.indptr), shape=(b.n_rows, 3))
                             for b in blocks])
        assert np.array_equal(stacked.toarray(), matrix.toarray())

    def test_split_single_block(self):
        matrix = RadonOperator(make_sparse_view_geometry(6, 24))._fwd
        [block] = operators._split_rows(matrix, 1)
        assert block.first == 0 and block.n_rows == matrix.shape[0]
        assert np.shares_memory(block.data, matrix.data)
        assert np.shares_memory(block.indices, matrix.indices)
        assert np.array_equal(block.indptr, matrix.indptr)

    def test_single_cpu_multiplies_directly(self, monkeypatch):
        def no_pool():
            raise AssertionError("a single-CPU operator must not use the thread pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(operators, "_matvec_pool", no_pool)
        op = RadonOperator(make_sparse_view_geometry(20, 32))
        x = make_rng(9).standard_normal(op.domain_shape)
        y = make_rng(10).standard_normal(op.range_shape)
        assert np.array_equal(op.apply(x).ravel(), op._fwd @ x.ravel())
        assert np.array_equal(op.adjoint(y).ravel(), op._adj @ y.ravel())


class TestFbp:
    def test_zero_sinogram_zero_image(self):
        geo = make_sparse_view_geometry(12, 32)
        assert np.all(fbp(np.zeros((12, geo.detector_bins)), geo) == 0.0)

    def test_full_view_quality_pinned(self):
        # measured once for this discretization (pixel-driven forward,
        # transpose backprojection, pitch 1): 23.85 dB; floor guards regressions
        side = 128
        geo = make_sparse_view_geometry(180, side)
        op = RadonOperator(geo)
        ph = shepp_logan(side)
        rec = fbp(op.apply(ph), geo, op=op)
        assert psnr(rec, ph, 2.0) >= 23.0

    def test_analytic_sinogram_reconstruction(self):
        # dual-route check: reconstruct from exact ellipse line integrals,
        # independent of the discrete forward projector
        side = 128
        geo = make_sparse_view_geometry(180, side)
        op = RadonOperator(geo)
        sino = ellipse_sinogram(geo, _HEAD_ELLIPSES, side)
        rec = 2.0 * fbp(sino, geo, op=op) - 1.0
        assert psnr(rec, shepp_logan(side), 2.0) >= 23.0

    def test_sparse_view_strictly_worse_than_full(self):
        side = 128
        ph = shepp_logan(side)
        geo_full = make_sparse_view_geometry(180, side)
        geo_20 = make_sparse_view_geometry(20, side)
        full = psnr(fbp(RadonOperator(geo_full).apply(ph), geo_full), ph, 2.0)
        sparse = psnr(fbp(RadonOperator(geo_20).apply(ph), geo_20), ph, 2.0)
        assert sparse < full

    def test_hann_apodization_runs(self):
        geo = make_sparse_view_geometry(16, 32)
        op = RadonOperator(geo)
        out = fbp(op.apply(np.ones((32, 32))), geo, apodization="hann", op=op)
        assert np.all(np.isfinite(out))

    def test_unknown_apodization_rejected(self):
        geo = make_sparse_view_geometry(4, 32)
        with pytest.raises(ValueError):
            fbp(np.zeros((4, geo.detector_bins)), geo, apodization="welch")


class TestCartesianMask:
    def test_af1_keeps_everything(self):
        mask = make_cartesian_mask(32, 32, 1, 4)
        assert mask.keep.all()

    def test_reference_fraction(self):
        mask = make_cartesian_mask(320, 320, 10, 16)
        assert 0.10 <= mask.kept_fraction <= 0.15

    def test_dc_always_kept(self):
        for af in (2, 4, 6, 10):
            assert make_cartesian_mask(64, 64, af, 8).keep[0]

    def test_equidistant_comb_density(self):
        w, af = 96, 6
        mask = make_cartesian_mask(96, w, af, 1)
        cols = np.fft.fftshift(mask.keep)
        comb = [j for j in range(w) if (j - w // 2) % af == 0]
        assert all(cols[j] for j in comb)
        assert abs(len(comb) - w / af) <= 1

    def test_af_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            make_cartesian_mask(16, 16, 17, 2)

    def test_experiment_factors_construct(self):
        for af in (6, 10):
            mask = make_cartesian_mask(320, 320, af, 16)
            assert isinstance(mask, CartesianMask)

    def test_serialization_round_trip(self, tmp_path):
        from dcpnp.operators import load_mask, save_mask

        mask = make_cartesian_mask(64, 96, 6, 8)
        path = tmp_path / "mask.dcpm"
        save_mask(path, mask)
        loaded = load_mask(path)
        assert loaded.height == 64 and loaded.width == 96
        assert loaded.af == 6 and loaded.center_lines == 8
        assert np.array_equal(loaded.keep, mask.keep)

    def test_bad_mask_magic_rejected(self, tmp_path):
        from dcpnp.operators import load_mask

        path = tmp_path / "bad.dcpm"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(ValueError):
            load_mask(path)


class TestFourierMask:
    def test_dot_test(self):
        op = FourierMaskOperator(make_cartesian_mask(32, 32, 6, 4))
        assert dot_test(op, make_rng(2)) < 1e-10

    def test_full_mask_normal_operator_is_identity(self):
        op = FourierMaskOperator(make_cartesian_mask(24, 24, 1, 1))
        rng = make_rng(8)
        x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        back = op.adjoint(op.apply(x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_normal_operator_is_projection(self):
        op = FourierMaskOperator(make_cartesian_mask(32, 32, 4, 4))
        rng = make_rng(9)
        x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        once = op.adjoint(op.apply(x))
        twice = op.adjoint(op.apply(once))
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_zero_filled_af10_worse_than_full(self):
        from dcpnp.phantoms import mri_phantom

        img = mri_phantom(64)
        full = FourierMaskOperator(make_cartesian_mask(64, 64, 1, 1))
        sub = FourierMaskOperator(make_cartesian_mask(64, 64, 10, 6))
        full_rec = full.adjoint(full.apply(img))
        sub_rec = sub.adjoint(sub.apply(img))
        assert psnr(sub_rec, img, 2.0) < psnr(full_rec, img, 2.0)

    def test_one_shot_helper(self):
        mask = make_cartesian_mask(16, 16, 2, 2)
        img = np.ones((16, 16), dtype=complex)
        y = fourier_mask_apply(img, mask)
        assert y.shape == (16, 16)


class TestDotTestHarness:
    def test_identity_operator_is_exact(self):
        assert dot_test(IdentityOperator((8, 8)), make_rng(0)) < 1e-14

    def test_dense_operator(self):
        op = DenseOperator(make_rng(1).standard_normal((6, 9)))
        assert dot_test(op, make_rng(2)) < 1e-12
