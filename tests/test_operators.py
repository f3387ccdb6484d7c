import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from dcpnp import grid_core, operators
from dcpnp.grid_core import make_rng
from dcpnp.metrics import psnr
from dcpnp.operators import (
    CartesianMask,
    DenseOperator,
    FourierMaskOperator,
    RadonGeometry,
    RadonOperator,
    dot_test,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
)
from helpers import IdentityOperator


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

    def test_limited_angle_single(self):
        assert make_limited_angle_geometry(1, 90.0, 16).angles.tolist() == [0.0]

    def test_limited_angle_two_views(self):
        assert make_limited_angle_geometry(2, 90.0, 64).angles.tolist() == [0.0, 90.0]

    def test_limited_angle_three_views(self):
        assert make_limited_angle_geometry(3, 90.0, 64).angles.tolist() == [0.0, 45.0, 90.0]

    def test_limited_angle_rejects_bad_range(self):
        with pytest.raises(ValueError):
            make_limited_angle_geometry(5, 0.0, 64)
        with pytest.raises(ValueError):
            make_limited_angle_geometry(5, 200.0, 64)
        with pytest.raises(ValueError, match="repeat the view at 0"):
            make_limited_angle_geometry(5, 180.0, 64)

    def test_default_bins_cover_reference_size(self):
        assert make_sparse_view_geometry(20, 256).detector_bins == 363

    def test_detector_coverage_enforced(self):
        with pytest.raises(ValueError):
            RadonGeometry(np.array([0.0]), detector_bins=100, image_side=128)

    def test_angles_must_increase(self):
        with pytest.raises(ValueError):
            RadonGeometry(np.array([10.0, 5.0]), image_side=32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_angles_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="angles must be finite"):
            RadonGeometry(np.array([0.0, bad]), 47, 32)


class TestRadon:
    def test_zero_image_zero_sinogram(self):
        geo = make_sparse_view_geometry(8, 32)
        assert np.all(RadonOperator(geo).apply(np.zeros((32, 32))) == 0.0)

    def test_disk_profile_matches_chord_length(self):
        side = 128
        geo = make_sparse_view_geometry(8, side)
        x = (np.arange(side) - (side - 1) / 2.0) / ((side - 1) / 2.0)  # pixel centers in [-1, 1]
        img = (x[None, :] ** 2 + x[:, None] ** 2 <= 0.5**2).astype(np.float64)  # disk of radius 0.5
        sino = RadonOperator(geo).apply(img)
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
        assert np.all(RadonOperator(geo).adjoint(sino) == 0.0)

    def test_adjoint_single_bin_is_a_ray(self):
        geo = make_sparse_view_geometry(4, 32)
        sino = np.zeros((4, geo.detector_bins))
        sino[0, (geo.detector_bins - 1) // 2] = 1.0
        back = RadonOperator(geo).adjoint(sino)
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
        assert np.min(RadonOperator(geo).apply(img)) >= 0.0

    def test_shape_mismatch_rejected(self):
        op = RadonOperator(make_sparse_view_geometry(8, 32))
        with pytest.raises(ValueError):
            op.apply(np.zeros((16, 16)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros((3, 3)))


def _reference_trapezoid_cdf(x, ramp, plateau_half):
    """The footprint CDF in its plain masked form: the reference assembly's
    own copy, so that it cannot move with `operators._trapezoid_cdf`."""
    a = plateau_half + ramp
    height = 1.0 / (a + plateau_half)
    out = np.empty_like(x)
    if ramp < 1e-12:
        np.clip((x + a) / (2.0 * a), 0.0, 1.0, out=out)
        return out
    np.clip(x, -a, a, out=out)
    x = out.copy()
    left = x < -plateau_half
    right = x > plateau_half
    mid = ~(left | right)
    out[left] = height * (x[left] + a) ** 2 / (2.0 * ramp)
    out[mid] = height * (0.5 * ramp + (x[mid] + plateau_half))
    out[right] = 1.0 - height * (a - x[right]) ** 2 / (2.0 * ramp)
    return out


def _coo_radon_matrix(geo):
    """The whole-matrix (row, column, value) assembly `_radon_matrix` replaced.

    Returns the matrix and the number of candidate entries that fell off the
    detector.
    """
    side, n_bins = geo.image_side, geo.detector_bins
    coords = np.arange(side) - (side - 1) / 2.0
    y = np.repeat(-coords, side)
    x = np.tile(coords, side)
    rows, cols, vals = [], [], []
    pixel_ids = np.arange(side * side)
    off_detector = 0
    for view, angle in enumerate(geo.angles):
        theta = math.radians(angle)
        w1, w2 = abs(math.cos(theta)), abs(math.sin(theta))
        a = (w1 + w2) / 2.0
        plateau_half = abs(w1 - w2) / 2.0
        ramp = a - plateau_half
        s = x * math.cos(theta) + y * math.sin(theta)
        first = np.floor(s - a + (n_bins - 1) / 2.0 + 0.5).astype(np.int64)
        n_touched = int(math.ceil(2.0 * a)) + 1
        prev_cdf = None
        for offset in range(n_touched + 1):
            b = first + offset
            edge = b - (n_bins - 1) / 2.0 - 0.5 - s
            cdf = _reference_trapezoid_cdf(edge, ramp, plateau_half)
            if prev_cdf is not None:
                weight = cdf - prev_cdf
                bin_idx = b - 1
                on_detector = (bin_idx >= 0) & (bin_idx < n_bins)
                off_detector += int(np.count_nonzero(~on_detector))
                ok = on_detector & (weight > 1e-300)
                rows.append(view * n_bins + bin_idx[ok])
                cols.append(pixel_ids[ok])
                vals.append(weight[ok])
            prev_cdf = cdf
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geo.n_views * n_bins, side * side),
    )
    matrix.sum_duplicates()
    return matrix, off_detector


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.data.dtype == want.data.dtype == np.float64
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def _csr_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _storage(array):
    """The array that owns `array`'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _reachable_storage(root):
    """The memory of every numpy array reachable from `root` through
    attributes, lists, tuples and dicts, as the arrays that own it, each once."""
    seen, owners, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = _storage(obj)
            owners[id(owner)] = owner
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return list(owners.values())


def _patch_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))


class TestViewByViewAssembly:
    GEOMETRIES = {
        "sparse-view": lambda: make_sparse_view_geometry(8, 32),
        "limited-angle-odd": lambda: make_limited_angle_geometry(12, 90.0, 33),
        "axis-aligned": lambda: RadonGeometry(np.array([0.0, 90.0]), 47, 32),
        "one-view": lambda: make_sparse_view_geometry(1, 32),
        "just-covering": lambda: RadonGeometry(np.array([0.0, 30.0, 45.0, 60.0, 135.0]), 46, 32),
        # box footprints at 0, 1e-11 and 90 degrees, ramps of 1.7e-11 at 1e-9
        # and 179.999999999 degrees, a plateau of 5.6e-17 at 45 degrees
        "cdf-branches": lambda: RadonGeometry([0, 1e-11, 1e-9, 45, 90, 179.999999999], 47, 32),
    }

    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(GEOMETRIES))
    def test_bit_identical_to_whole_matrix_assembly(self, monkeypatch, kind, n_cpus):
        self._check_against_whole_matrix(monkeypatch, self.GEOMETRIES[kind](), n_cpus,
                                         reaches_off_detector=kind == "just-covering")

    def test_lact128_bit_identical_to_whole_matrix_assembly(self, monkeypatch):
        # the limited-angle acceptance benchmark's matrix
        self._check_against_whole_matrix(monkeypatch, make_limited_angle_geometry(90, 90.0, 128, 183),
                                         2, reaches_off_detector=False)

    def test_cdf_branches_geometry_reaches_both_forms(self):
        footprints = [operators._footprint(t) for t in np.radians(self.GEOMETRIES["cdf-branches"]().angles)]
        ramps = sorted(a - plateau_half for a, plateau_half, _ in footprints)
        # three below the box form's 1e-12 switch, three above it
        assert ramps[:5] == pytest.approx([0.0, 5.6e-17, 1.7e-13, 1.7e-11, 1.7e-11], rel=0.1, abs=0)
        assert ramps[5] > 0.7
        assert min(plateau_half for _, plateau_half, _ in footprints) < 1e-16

    def _check_against_whole_matrix(self, monkeypatch, geo, n_cpus, reaches_off_detector):
        _patch_cpus(monkeypatch, n_cpus)
        op = RadonOperator(geo)
        want, off_detector = _coo_radon_matrix(geo)
        assert len(op._blocks) == n_cpus
        _assert_same_csr(sp.hstack(op._blocks, format="csr"), want)
        rng = make_rng(11)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        assert _same_bits(op.apply(x).ravel(), want @ x.ravel())
        assert _same_bits(op.adjoint(y).ravel(), sp.csr_matrix(want.T) @ y.ravel())
        if reaches_off_detector:
            assert off_detector > 0
        # the matrix is stored once: no transpose or other copy beside the blocks
        assert sum(block.nnz for block in op._blocks) == want.nnz
        stored = {id(_storage(a)) for block in op._blocks for a in (block.data, block.indices)}
        others = [a for a in _reachable_storage(op) if id(a) not in stored]
        assert not [a for a in others if a.size == want.nnz]
        # past the one copy, only the blocks' row pointers are held
        assert sum(a.nbytes for a in others) == sum(b.indptr.nbytes for b in op._blocks)

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_shrunk_in_place(self, n_blocks):
        geo = make_limited_angle_geometry(45, 90.0, 64)
        tracemalloc.start()
        try:
            blocks = operators._radon_blocks(geo, operators._column_bounds(64 * 64, n_blocks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(blocks) == n_blocks
        for block in blocks:
            for array in (block.data, block.indices):
                storage = _storage(array)
                assert storage.flags.owndata
                assert storage.size == block.nnz
        # the arrays are preallocated for 1.4x the real count here; shrinking
        # them by a copy would take the peak to 1.9x
        assert peak <= 1.6 * sum(_csr_bytes(block) for block in blocks)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_build_peak_near_final_size(self, monkeypatch, n_cpus):
        _patch_cpus(monkeypatch, n_cpus)
        geo = make_limited_angle_geometry(45, 90.0, 64)
        tracemalloc.start()
        try:
            op = RadonOperator(geo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_copy = sum(_csr_bytes(block) for block in op._blocks)
        # storing the transpose beside the matrix took the peak to 2.0x, and
        # the whole-matrix assembly to 5.7x
        assert peak <= 1.6 * one_copy


class TestThreadedRadon:
    GEOMETRIES = {
        "sparse-view": lambda: make_sparse_view_geometry(20, 48),
        "limited-angle": lambda: make_limited_angle_geometry(90, 90.0, 48),
    }

    @pytest.mark.parametrize("n_cpus", [2, 3])
    @pytest.mark.parametrize("kind", sorted(GEOMETRIES))
    def test_ranged_matvec_bitwise_equal_to_matrix(self, monkeypatch, kind, n_cpus):
        _patch_cpus(monkeypatch, n_cpus)
        op = RadonOperator(self.GEOMETRIES[kind]())
        assert len(op._blocks) == n_cpus
        assert len(op._ranges) == n_cpus
        whole = sp.hstack(op._blocks, format="csr")
        rng = make_rng(7)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        assert _same_bits(op.apply(x).ravel(), whole @ x.ravel())
        assert _same_bits(op.adjoint(y).ravel(), sp.csr_matrix(whole.T) @ y.ravel())
        assert dot_test(op, make_rng(8)) <= 1e-10

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        _patch_cpus(monkeypatch, 3)
        op = RadonOperator(make_sparse_view_geometry(20, 48))
        whole = sp.hstack(op._blocks, format="csr")
        whole_t = sp.csr_matrix(whole.T)
        inputs = [make_rng(seed).standard_normal(op.domain_shape) for seed in range(8)]
        expected = [whole_t @ (whole @ x.ravel()) for x in inputs]

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
            assert all(_same_bits(g, want) for g in got)

    def test_ranges_have_balanced_nnz(self, monkeypatch):
        _patch_cpus(monkeypatch, 4)
        op = RadonOperator(make_limited_angle_geometry(90, 90.0, 48))
        ranges = op._ranges
        n_rows = op.range_shape[0] * op.range_shape[1]
        assert [first for first, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
        assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
        indptr = sum(block.indptr.astype(np.int64) for block in op._blocks)
        counts = [indptr[stop] - indptr[first] for first, stop in ranges]
        assert sum(counts) == sum(block.nnz for block in op._blocks)
        assert max(counts) - min(counts) <= 2 * np.diff(indptr).max()
        # the column blocks tile the image in pixel order, each a quarter of it
        widths = [block.shape[1] for block in op._blocks]
        assert sum(widths) == 48 * 48 and max(widths) - min(widths) <= 1

    def test_more_ranges_than_rows(self, monkeypatch):
        # 3 detector rows and 4 pixels: more CPUs than either
        _patch_cpus(monkeypatch, 6)
        geo = RadonGeometry(np.array([30.0]), detector_bins=3, image_side=2)
        op = RadonOperator(geo)
        assert [block.shape[1] for block in op._blocks] == [1, 1, 1, 1]
        ranges = op._ranges
        assert 1 <= len(ranges) <= 3
        assert min(stop - first for first, stop in ranges) >= 1
        assert [first for first, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == 3
        want, _ = _coo_radon_matrix(geo)
        x = np.array([[1.5, -2.0], [0.25, 3.0]])
        y = np.array([[0.5, -1.0, 2.0]])
        assert _same_bits(op.apply(x).ravel(), want @ x.ravel())
        assert _same_bits(op.adjoint(y).ravel(), sp.csr_matrix(want.T) @ y.ravel())
        indptr = np.array([0, 2, 2, 4, 6])
        assert operators._row_ranges(indptr, 50) == [(0, 1), (1, 3), (3, 4)]

    def test_single_range(self):
        block, = operators._radon_blocks(make_sparse_view_geometry(6, 24), [(0, 24 * 24)])
        assert operators._row_ranges(block.indptr, 1) == [(0, block.shape[0])]

    def test_single_cpu_multiplies_directly(self, monkeypatch):
        def no_pool():
            raise AssertionError("a single-CPU operator must not use the thread pool")

        _patch_cpus(monkeypatch, 1)
        monkeypatch.setattr(grid_core, "worker_pool", no_pool)
        op = RadonOperator(make_sparse_view_geometry(20, 32))
        block, = op._blocks
        assert op._ranges == [(0, block.shape[0])]
        x = make_rng(9).standard_normal(op.domain_shape)
        y = make_rng(10).standard_normal(op.range_shape)
        assert _same_bits(op.apply(x).ravel(), block @ x.ravel())
        assert _same_bits(op.adjoint(y).ravel(), sp.csr_matrix(block.T) @ y.ravel())


class TestCartesianMask:
    def test_af1_keeps_everything(self):
        mask = make_cartesian_mask(32, 32, 1, 4)
        assert mask.keep.all()

    def test_reference_fraction(self):
        mask = make_cartesian_mask(320, 320, 10, 16)
        assert 0.10 <= mask.keep.mean() <= 0.15

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


class TestDotTestHarness:
    def test_identity_operator_is_exact(self):
        assert dot_test(IdentityOperator((8, 8)), make_rng(0)) < 1e-14

    def test_dense_operator(self):
        op = DenseOperator(make_rng(1).standard_normal((6, 9)))
        assert dot_test(op, make_rng(2)) < 1e-12
