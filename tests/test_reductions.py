import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dcpnp import reductions
from dcpnp.grid_core import make_rng
from dcpnp.reductions import SPLIT_ABOVE, inner, norm

SIZES = [1, 1000, SPLIT_ABOVE, SPLIT_ABOVE + 1, 128 * 128, 65537]


def grid_pair(n, complex_=False, seed=0):
    rng = make_rng(seed)
    a, b = rng.standard_normal((2, n))
    if complex_:
        a = a + 1j * rng.standard_normal(n)
        b = b + 1j * rng.standard_normal(n)
    return a, b


def openblas_or_skip():
    controls = reductions._openblas_thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS with a settable thread count is loaded")
    return controls


class TestInner:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_close_to_vdot(self, n, complex_):
        a, b = grid_pair(n, complex_)
        assert inner(a, b) == pytest.approx(np.real(np.vdot(a, b)), rel=1e-12, abs=1e-12)
        assert norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-13)

    def test_takes_grids(self):
        a, b = grid_pair(64 * 64)
        assert inner(a.reshape(64, 64), b.reshape(64, 64)) == inner(a, b)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_two_thread_openblas(self, n, complex_):
        # The order inner fixes is the one OpenBLAS picks with two threads.
        controls = openblas_or_skip()
        a, b = grid_pair(n, complex_, seed=1)
        saved = [control.get() for control in controls]
        try:
            for control in controls:
                control.set(2)
            expected = float(np.real(np.vdot(a, b)))
        finally:
            for control, count in zip(controls, saved):
                control.set(count)
        assert inner(a, b) == expected

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_independent_of_and_restores_blas_threads(self, threads):
        controls = openblas_or_skip()
        a, b = grid_pair(65537, seed=2)
        reference = inner(a, b)
        saved = [control.get() for control in controls]
        try:
            for control in controls:
                control.set(threads)
            assert inner(a, b) == reference
            assert [control.get() for control in controls] == [threads] * len(controls)
        finally:
            for control, count in zip(controls, saved):
                control.set(count)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_without_openblas_sums_halves_in_numpy(self, monkeypatch, complex_):
        a, b = grid_pair(3 * SPLIT_ABOVE, complex_, seed=3)
        monkeypatch.setattr(reductions, "_openblas_thread_controls", lambda: None)
        got = inner(a, b)
        assert got == pytest.approx(np.real(np.vdot(a, b)), rel=1e-12)
        half = (a.size + 1) // 2
        assert got == (reductions._numpy_dot(a[:half], b[:half])
                       + reductions._numpy_dot(a[half:], b[half:]))

    def test_concurrent_callers_leave_blas_threads_as_found(self):
        controls = reductions._openblas_thread_controls() or ()
        saved = [control.get() for control in controls]
        pairs = [grid_pair(65537, seed=seed) for seed in range(8)]
        expected = [inner(a, b) for a, b in pairs]

        def inner_repeatedly(pair):
            return [inner(*pair) for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(pairs)) as callers:
                results = list(callers.map(inner_repeatedly, pairs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(got == [want] * 50 for got, want in zip(results, expected))
        assert [control.get() for control in controls] == saved
