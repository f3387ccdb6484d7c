import ast
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnp import grid_core
from dcpnp.experiment import _rng_for, default_config, simulate_measurements
from dcpnp.grid_core import (
    channels,
    fork_join,
    forward_dft,
    from_channels,
    gaussian_window,
    load_grid,
    make_rng,
    save_grid,
    save_pgm,
)
from dcpnp.operators import FourierMaskOperator, dot_test, make_cartesian_mask
from dcpnp.solver import initialize
from dcpnp.spectral import naive_inject


def is_hermitian(G):
    """G(w) == conj(G(-w mod N)) up to rounding."""
    mirrored = np.conj(np.roll(G[::-1, ::-1], 1, axis=(0, 1)))
    return np.allclose(G, mirrored, rtol=0.0, atol=1e-10 * np.max(np.abs(G)))


def direct_dft(g):
    """O(N^2) reference transform: literal double sum, no FFT."""
    h, w = g.shape
    out = np.zeros((h, w), dtype=complex)
    for p in range(h):
        for q in range(w):
            rows = np.exp(-2j * np.pi * p * np.arange(h) / h)
            cols = np.exp(-2j * np.pi * q * np.arange(w) / w)
            out[p, q] = rows @ g.astype(complex) @ cols
    return out


class TestForwardDft:
    def test_constant_grid_concentrates_in_dc(self):
        G = forward_dft(np.ones((2, 2)))
        assert G[0, 0] == pytest.approx(4.0)
        off_dc = np.abs(G).ravel()[1:]
        assert np.max(off_dc) < 1e-12

    def test_impulse_has_flat_spectrum(self):
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        G = forward_dft(g)
        assert np.max(np.abs(G - 1.0)) < 1e-12

    def test_matches_direct_dft_oracle(self):
        g = make_rng(3).standard_normal((8, 8))
        assert np.max(np.abs(forward_dft(g) - direct_dft(g))) < 1e-9

    def test_parseval_unnormalized_convention(self):
        g = make_rng(11).standard_normal((8, 8))
        G = forward_dft(g)
        lhs = np.sum(np.abs(G) ** 2)
        rhs = 64 * np.sum(g**2)
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            forward_dft(np.zeros((0, 4)))

    def test_nonfinite_rejected(self):
        g = np.ones((3, 3))
        g[1, 1] = np.nan
        with pytest.raises(ValueError):
            forward_dft(g)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(2, 12),
    w=st.integers(2, 12),
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_dft_linearity(h, w, a, b, seed):
    rng = make_rng(seed)
    g1 = rng.standard_normal((h, w))
    g2 = rng.standard_normal((h, w))
    lhs = forward_dft(a * g1 + b * g2)
    rhs = a * forward_dft(g1) + b * forward_dft(g2)
    scale = np.max(np.abs(rhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 16), w=st.integers(1, 16), seed=st.integers(0, 2**31))
def test_real_grid_spectrum_is_hermitian(h, w, seed):
    g = make_rng(seed).standard_normal((h, w))
    assert is_hermitian(forward_dft(g))


@settings(max_examples=20, deadline=None)
@given(h=st.integers(2, 16), w=st.integers(2, 16), seed=st.integers(0, 2**31))
def test_parseval_property(h, w, seed):
    g = make_rng(seed).standard_normal((h, w))
    G = forward_dft(g)
    rhs = h * w * np.sum(g**2)
    assert abs(np.sum(np.abs(G) ** 2) - rhs) / rhs < 1e-10


class TestMakeRng:
    def test_same_seed_same_grid(self):
        a = 2.0 * make_rng(42).standard_normal((16, 16))
        b = 2.0 * make_rng(42).standard_normal((16, 16))
        assert np.array_equal(a, b)

    def test_reproducible_across_processes(self):
        code = (
            "from dcpnp.grid_core import make_rng\n"
            "g = 1.5 * make_rng(99).standard_normal((8, 8))\n"
            "print(repr(g.tobytes().hex()))\n"
        )
        outputs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1] and outputs[0].strip()


class TestSerialization:
    def test_real_round_trip(self, tmp_path):
        g = make_rng(5).standard_normal((9, 13))
        path = tmp_path / "g.dcpg"
        save_grid(path, g)
        assert np.array_equal(load_grid(path), g)

    def test_complex_round_trip(self, tmp_path):
        rng = make_rng(6)
        g = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        path = tmp_path / "g.dcpg"
        save_grid(path, g)
        assert np.array_equal(load_grid(path), g)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "g.dcpg"
        save_grid(path, np.zeros((2, 2)))
        assert path.read_bytes()[:4] == b"DCPG"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dcpg"
        path.write_bytes(b"NOPE" + b"\0" * 24)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_grid(path)

    @pytest.mark.parametrize("content", [
        b"DCPG",
        b"DCPG\x02\0\0",
        b"DCPG" + struct.pack("<II", 0, 4),
        b"DCPG" + struct.pack("<II", 4, 0),
        b"DCPG" + struct.pack("<II", 2, 2) + b"\0" * 8,
    ], ids=["no-header", "short-header", "zero-rows", "zero-columns", "short-payload"])
    def test_malformed_file_rejected_naming_it(self, tmp_path, content):
        path = tmp_path / "bad.dcpg"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_grid(path)

    def test_pgm_export(self, tmp_path):
        # [-1, 1], the phantoms' range, maps linearly onto [0, 65535] and clips
        # beyond it; a complex grid exports its magnitude
        path = tmp_path / "g.pgm"
        for grid, want in (
            ([[-1.0, 0.0, 1.0], [-2.0, 2.0, 0.5]], [[0, 32768, 65535], [0, 65535, 49151]]),
            ([[-1.0 + 0j, 0.6 + 0.8j, 0.5j]], [[65535, 65535, 49151]]),
        ):
            save_pgm(path, np.array(grid))
            h, w = np.shape(grid)
            header = f"P5\n{w} {h}\n65535\n".encode("ascii")
            data = path.read_bytes()
            assert data.startswith(header)
            assert np.frombuffer(data[len(header):], dtype=">u2").reshape(h, w).tolist() == want


class TestForkJoin:
    def _record(self, items):
        seen = []

        def fn(item):
            seen.append((item, threading.current_thread()))

        fork_join(fn, items)
        return seen

    def test_first_item_on_caller_the_rest_on_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        seen = dict(self._record(range(5)))
        assert seen[0] is threading.current_thread()
        assert all(seen[k].name.startswith("dcpnp-worker") for k in range(1, 5))

    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_every_item_runs_exactly_once(self, monkeypatch, n_cpus, n_items):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        items = list(range(n_items))
        assert sorted(item for item, _ in self._record(items)) == items

    @pytest.mark.parametrize("n_cpus,n_items", [(1, 5), (4, 1)])
    def test_one_cpu_or_one_item_runs_in_order_on_caller(self, monkeypatch, n_cpus, n_items):
        def no_pool():
            raise AssertionError("one CPU or one item must not use the thread pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        monkeypatch.setattr(grid_core, "worker_pool", no_pool)
        seen = self._record(list(range(n_items)))
        assert [item for item, _ in seen] == list(range(n_items))
        assert all(thread is threading.current_thread() for _, thread in seen)

    def test_pooled_exception_propagates_after_every_call(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = []

        def fn(item):
            if item == 2:
                raise KeyError("pooled item failed")
            done.append(item)

        with pytest.raises(KeyError, match="pooled item failed"):
            fork_join(fn, [0, 1, 2, 3])
        assert sorted(done) == [0, 1, 3]


def test_only_grid_core_uses_the_pool():
    """Every parallel layer goes through `fork_join`, never the pool itself."""
    calls = []
    for path in sorted(Path(grid_core.__file__).parent.glob("*.py")):
        if path.name == "grid_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("worker_pool", "submit"):
                    calls.append(f"{path.name}:{node.lineno} {name}(")
    assert calls == []


def test_grid_core_imports_alone():
    """A handshake script (`ExternalDenoiser`) imports `dcpnp.grid_core` in a
    fresh process on every call, so that import loads no scipy and no other
    module of the package."""
    code = ("import sys, dcpnp.grid_core\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('dcpnp', 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['dcpnp', 'dcpnp.grid_core']"


def test_no_unused_imports():
    """No linter runs on the package, so an import its module no longer uses
    is caught here."""
    unused = []
    for path in sorted(Path(grid_core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_no_dead_private_names():
    """A module-level `_name` (function, class or constant) that nothing in
    the package loads is dead code: its last caller went and it stayed."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(grid_core.__file__).parent.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{name}:{node.lineno} {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in loaded]
    assert dead == []


def test_acceptance_criteria_run_the_check_commands():
    """A criterion that has a `dcpnp` command runs it, so the check and its
    bounds are written once, in the CLI."""
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    checks = {"dot_test", "whitening_statistics", "certify_pair", "certification_instance"}
    assert names & checks == set()


class TestChannels:
    def test_real_grid_is_one_channel(self):
        g = make_rng(1).standard_normal((5, 7))
        [part] = channels(g)
        assert part is g
        assert from_channels(channels(g)) is g

    def test_complex_round_trip_is_bitwise(self):
        rng = make_rng(2)
        g = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        re, im = channels(g)
        assert np.array_equal(re, g.real) and np.array_equal(im, g.imag)
        back = from_channels(channels(g))
        assert back.dtype == np.complex128
        assert np.array_equal(back.view(np.uint64), g.view(np.uint64))


class TestChannelDrawOrder:
    """Complex noise is drawn real channel first, then imaginary."""

    SIDE = 16

    def _twin_draws(self, rng, scale=1.0):
        re = scale * rng.standard_normal((self.SIDE, self.SIDE))
        im = scale * rng.standard_normal((self.SIDE, self.SIDE))
        return re + 1j * im

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def _operator(self):
        return FourierMaskOperator(make_cartesian_mask(self.SIDE, self.SIDE, 4, 4))

    def test_naive_inject(self):
        v = self._twin_draws(make_rng(3))
        got = naive_inject(v, 0.7, make_rng(4))
        assert self._same_bits(got, v + 0.7 * self._twin_draws(make_rng(4)))

    def test_initialize(self):
        op = self._operator()
        y = op.apply(self._twin_draws(make_rng(5)))
        state = initialize(op, y, make_rng(6), init_noise_std=1.3)
        assert self._same_bits(state.z, self._twin_draws(make_rng(6), 1.3))

    def test_simulate_measurements(self):
        cfg = default_config("mri", image_side=self.SIDE, af=4, center_lines=4,
                             measurement_noise_std=0.05)
        op = self._operator()
        truth = self._twin_draws(make_rng(7))
        got = simulate_measurements(op, truth, cfg, seed=3)
        want = op.apply(truth) + 0.05 * self._twin_draws(_rng_for(3, 2))
        assert self._same_bits(got, want)

    def test_dot_test(self):
        seen = {}

        class Recording(FourierMaskOperator):
            def apply(self, x):
                seen["x"] = x
                return super().apply(x)

            def adjoint(self, y):
                seen["y"] = y
                return super().adjoint(y)

        dot_test(Recording(make_cartesian_mask(self.SIDE, self.SIDE, 4, 4)), make_rng(8))
        twin = make_rng(8)
        assert self._same_bits(seen["x"], self._twin_draws(twin))
        assert self._same_bits(seen["y"], self._twin_draws(twin))


def test_gaussian_window_is_the_normalized_outer_product():
    coords = np.arange(-3, 4, dtype=np.float64)
    one_d = np.exp(-0.5 * (coords / 1.75) ** 2)
    want = np.outer(one_d, one_d)
    want /= want.sum()
    window = gaussian_window(3, 1.75)
    assert window.shape == (7, 7)
    assert np.array_equal(window, want)
    assert np.array_equal(window, window.T) and np.array_equal(window, window[::-1])
