import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnp.grid_core import (
    forward_dft,
    inverse_dft,
    load_grid,
    make_rng,
    sample_white_gaussian,
    save_grid,
    save_pgm,
)


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


class TestInverseDft:
    def test_round_trip(self):
        g = make_rng(7).standard_normal((8, 8))
        back = inverse_dft(forward_dft(g))
        assert np.max(np.abs(back - g)) < 1e-10

    def test_flat_spectrum_is_delta(self):
        g = inverse_dft(np.ones((4, 4), dtype=complex))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(g - expected)) < 1e-12

    def test_hermitian_spectrum_gives_real_field(self):
        # construct an explicitly symmetric spectrum from a real grid
        G = forward_dft(make_rng(9).standard_normal((6, 6)))
        assert is_hermitian(G)
        back = inverse_dft(G)
        assert np.max(np.abs(back.imag)) < 1e-10


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


class TestWhiteGaussian:
    def test_zero_std_gives_zero_grid(self):
        g = sample_white_gaussian(make_rng(0), 5, 7, 0.0)
        assert np.all(g == 0.0)

    def test_same_seed_same_grid(self):
        a = sample_white_gaussian(make_rng(42), 16, 16, 2.0)
        b = sample_white_gaussian(make_rng(42), 16, 16, 2.0)
        assert np.array_equal(a, b)

    def test_moments_within_standard_error(self):
        # n = 65536 samples: se(mean) = 1/256, allow 5 se; var bounds from
        # chi-square concentration (~0.8% relative at 5 sigma)
        g = sample_white_gaussian(make_rng(123), 256, 256, 1.0)
        assert abs(float(g.mean())) < 0.02
        assert 0.97 < float(g.var()) < 1.03

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            sample_white_gaussian(make_rng(0), 4, 4, -1.0)

    def test_reproducible_across_processes(self):
        code = (
            "import numpy as np\n"
            "from dcpnp.grid_core import make_rng, sample_white_gaussian\n"
            "g = sample_white_gaussian(make_rng(99), 8, 8, 1.5)\n"
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
        with pytest.raises(ValueError):
            load_grid(path)

    def test_pgm_export(self, tmp_path):
        path = tmp_path / "g.pgm"
        save_pgm(path, make_rng(2).standard_normal((6, 8)), window=(-1, 1))
        data = path.read_bytes()
        assert data.startswith(b"P5\n8 6\n65535\n")
        assert len(data) == len(b"P5\n8 6\n65535\n") + 2 * 48
