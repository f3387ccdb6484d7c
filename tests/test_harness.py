import dataclasses
import hashlib
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcpnp
from dcpnp import cli, experiment
from dcpnp.experiment import (
    ExperimentConfig,
    ablate,
    build_operator,
    build_phantom,
    default_config,
    load_config,
    run_experiment,
    run_row,
    sweep_nfe,
    write_config,
    write_metrics_csv,
)
from dcpnp.grid_core import make_rng
from dcpnp.metrics import psnr, ssim
from dcpnp.phantoms import PhantomSpec, flat_disk, make_phantom, mri_phantom, random_ellipses, shepp_logan
from dcpnp.solver import SolverStepError


class TestPhantoms:
    def test_shepp_logan_range_and_background(self):
        ph = shepp_logan(128)
        assert ph.max() <= 1.0
        assert ph[0, 0] == -1.0  # corner is background
        assert ph.min() == -1.0

    def test_flat_disk_two_levels(self):
        ph = flat_disk(64, radius=0.5, inside=0.75, outside=-0.25)
        values = np.unique(ph)
        assert set(values.tolist()) == {-0.25, 0.75}

    def test_random_ellipses_reproducible(self):
        a = random_ellipses(64, make_rng(3), 6)
        b = random_ellipses(64, make_rng(3), 6)
        assert np.array_equal(a, b)
        assert a.min() >= -1.0 and a.max() <= 1.0

    def test_make_phantom_dispatch(self):
        assert make_phantom(PhantomSpec("shepp-logan", 32)).shape == (32, 32)
        assert make_phantom(PhantomSpec("flat-disk", 32)).shape == (32, 32)
        assert make_phantom(PhantomSpec("random-ellipses", 32), make_rng(0)).shape == (32, 32)

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec("shepp-logan", 8)

    def test_mri_phantom_complex_with_smooth_phase(self):
        img = mri_phantom(64)
        assert np.iscomplexobj(img)
        assert np.max(np.abs(img)) <= 1.0 + 1e-12
        interior = np.abs(img) > 0.05
        phases = np.angle(img[interior])
        assert np.ptp(phases) > 0.1  # phase actually varies


class TestPsnr:
    def test_identical_grids_infinite(self):
        a = make_rng(0).standard_normal((8, 8))
        assert math.isinf(psnr(a, a.copy(), 1.0))

    def test_mse_001_peak1_is_20db(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)  # mse = 0.01
        assert psnr(a, b, 1.0) == pytest.approx(20.0)

    def test_peak2_uniform_error(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.2)  # mse = 0.04, peak^2 = 4
        assert psnr(a, b, 2.0) == pytest.approx(20.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)), 1.0)

    def test_complex_magnitude_difference(self):
        a = np.zeros((8, 8), dtype=complex)
        b = np.full((8, 8), 0.1 + 0.0j)
        assert psnr(a, b, 1.0) == pytest.approx(20.0)


class TestSsim:
    def test_identical_is_one(self):
        a = make_rng(1).standard_normal((32, 32))
        assert ssim(a, a.copy()) == pytest.approx(1.0)

    def test_anticorrelated_negative(self):
        # sign flip shows up when local window means vanish (otherwise the
        # luminance and structure terms are both ~ -1 and cancel); verified
        # identical to scikit-image's gaussian-weighted implementation
        xs = np.arange(32)
        pattern = np.where((xs[None, :] + xs[:, None]) % 2 == 0, 1.0, -1.0)
        pattern = pattern * (0.5 + 0.3 * np.sin(2 * np.pi * xs[None, :] / 16))
        assert ssim(pattern, -pattern) < 0.0

    def test_constant_offset_closed_form(self):
        # constant grids: structure term is 1, value reduces to the luminance
        # term (2 m1 m2 + c1) / (m1^2 + m2^2 + c1)
        m1, c = 0.4, 0.3
        m2 = m1 + c
        a = np.full((32, 32), m1)
        b = np.full((32, 32), m2)
        data_range = 2.0
        c1 = (0.01 * data_range) ** 2
        expected = (2 * m1 * m2 + c1) / (m1**2 + m2**2 + c1)
        assert ssim(a, b, data_range) == pytest.approx(expected, rel=1e-10)
        assert ssim(a, b, data_range) < 1.0

    def test_within_bounds(self):
        rng = make_rng(3)
        a, b = rng.standard_normal((2, 24, 24))
        value = ssim(a, b)
        assert -1.0 <= value <= 1.0


def tiny_config(tmp_path, **overrides):
    params = dict(
        task="svct",
        image_side=32,
        n_views=8,
        detector_bins=47,
        steps=4,
        sigma_max=1.0,
        sigma_min=0.05,
        denoiser="tv-prox",
        tv_weight=1.0,
        tv_iters=10,
        cg_iters=5,
        lam0=1e-05,
        seeds=(0, 1),
        variants=("dual=on,inject=sh",),
        out_dir=str(tmp_path / "out"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfig:
    def test_defaults_reproduce_reference_geometry(self):
        svct = default_config("svct")
        assert svct.n_views == 20 and svct.image_side == 256 and svct.steps == 50
        assert build_operator(svct).range_shape == (20, 363)
        lact = default_config("lact")
        assert lact.n_views == 90 and lact.max_angle == 90.0 and lact.cg_iters == 100
        mri = default_config("mri")
        assert mri.image_side == 320 and mri.af in (6, 10)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(3, 4, 5))
        path = tmp_path / "cfg.ini"
        write_config(path, cfg)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ntask = svct\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_cli_task_overrides_file_task(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\ntask = svct\n")
        cfg = load_config(path, task="lact")
        assert cfg.task == "lact"
        assert cfg.cg_iters == 100  # lact task defaults applied

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(Path("/tmp"), variants=("dual=sideways,inject=sh",))

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="pet")

    @pytest.mark.parametrize("kind", ["external", "median"])
    def test_unbuildable_denoiser_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown denoiser"):
            ExperimentConfig(denoiser=kind)


class TestRunExperiment:
    def test_grid_size_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, variants=("dual=on,inject=none", "dual=off,inject=none"),
                          seeds=(0, 1, 2))
        rows = run_experiment(cfg, write_outputs=False)
        assert len(rows) == 6

    def test_ablation_grid_is_2x2(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        rows = ablate(cfg, write_outputs=False)
        assert len(rows) == 4
        assert len({r.variant for r in rows}) == 4

    def test_four_variants_three_seeds_gives_twelve_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0, 1, 2))
        rows = ablate(cfg, write_outputs=False)
        assert len(rows) == 12

    def test_outputs_written(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        rows = run_experiment(cfg)
        out = Path(cfg.out_dir)
        assert (out / "metrics.csv").exists()
        assert (out / "runlog.csv").exists()
        assert (out / "config.resolved").exists()
        run_dir = out / "svct_dual-on_inject-sh_seed0"
        for name in ("recon.dcpg", "recon.pgm", "trace.csv", "spectral.csv", "config.resolved"):
            assert (run_dir / name).exists(), name
        assert all(r.status == "ok" for r in rows)

    def test_deterministic_metrics_bytes(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        bytes_a = (Path(cfg_a.out_dir) / "metrics.csv").read_bytes()
        bytes_b = (Path(cfg_b.out_dir) / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_row_failure_recorded_not_raised(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,), detector_bins=11)  # too narrow
        rows = run_experiment(cfg, write_outputs=False)
        assert len(rows) == 1
        assert rows[0].status.startswith("error:")
        assert math.isnan(rows[0].psnr)

    def test_failed_row_writes_error_txt(self, tmp_path, monkeypatch):
        def fail_at_iteration_3(*args, **kwargs):
            raise SolverStepError(3, ValueError("boom"))

        monkeypatch.setattr(experiment, "run", fail_at_iteration_3)
        cfg = tiny_config(tmp_path, seeds=(0,))
        [row] = run_experiment(cfg)
        status = "error: SolverStepError: iteration 3: boom"
        assert row.status == status
        metrics = (Path(cfg.out_dir) / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 2 and metrics[1].endswith("," + status)
        error = (Path(cfg.out_dir) / "svct_dual-on_inject-sh_seed0" / "error.txt").read_text()
        assert "iteration: 3\n" in error
        assert f"status: {status}\n" in error
        assert "Traceback (most recent call last)" in error
        assert "in fail_at_iteration_3" in error

    def test_successful_rerun_removes_error_txt(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, seeds=(0,))
        error = Path(cfg.out_dir) / "svct_dual-on_inject-sh_seed0" / "error.txt"
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "run", lambda *args, **kwargs: 1 / 0)
            run_experiment(cfg)
        assert "ZeroDivisionError" in error.read_text()
        assert "iteration:" not in error.read_text()
        [row] = run_experiment(cfg)
        assert row.status == "ok"
        assert not error.exists()

    def test_no_error_txt_without_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "run", lambda *args, **kwargs: 1 / 0)
        cfg = tiny_config(tmp_path, seeds=(0,))
        [row] = run_experiment(cfg, write_outputs=False)
        assert row.status.startswith("error: ZeroDivisionError")
        assert not Path(cfg.out_dir).exists()

    def test_mri_task_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, task="mri", image_side=32, af=4, center_lines=4,
                          seeds=(0,), steps=3)
        rows = run_experiment(cfg, write_outputs=False)
        assert rows[0].status == "ok"
        assert math.isfinite(rows[0].psnr)

    def test_measurement_noise_changes_rows(self, tmp_path):
        clean = run_row(tiny_config(tmp_path, seeds=(0,)), "dual=on,inject=none", 0, write_outputs=False)
        noisy = run_row(tiny_config(tmp_path, seeds=(0,), measurement_noise_std=0.5),
                        "dual=on,inject=none", 0, write_outputs=False)
        assert clean.psnr != noisy.psnr

    def test_sweep_nfe_shape(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        results = sweep_nfe(cfg, step_counts=(2, 3),
                            variants=("dual=on,inject=sh",), write_outputs=False)
        assert set(results) == {("dual=on,inject=sh", 2), ("dual=on,inject=sh", 3)}


# Builds a Radon operator and applies it, so the parent holds a live matvec
# thread pool, then runs the ablation grid of the config file in argv[1].
_ABLATE_AFTER_APPLY = """
import sys
import numpy as np
from dcpnp.experiment import ablate, build_operator, load_config
cfg = load_config(sys.argv[1])
op = build_operator(cfg)
op.adjoint(op.apply(np.ones(op.domain_shape)))
ablate(cfg)
"""


# Denoises a complex grid, so the parent holds a live thread pool on a machine
# with a second CPU, then runs the ablation grid of the config file in argv[1].
_ABLATE_AFTER_COMPLEX_DENOISE = """
import sys
import numpy as np
from dcpnp.experiment import ablate, load_config
cfg = load_config(sys.argv[1])
side = cfg.image_side
cfg.make_denoiser().denoise(np.ones((side, side)) + 1j * np.eye(side), 1.0)
ablate(cfg)
"""


def _run_python(script: str, *args: str, env_update=None, drop_env=(), timeout: float = 120.0):
    """Run a Python snippet against this dcpnp in a new process group; on timeout
    kill the whole group (a hung worker pool included) and fail."""
    env = dict(os.environ)
    for name in drop_env:
        env.pop(name, None)
    env.update(env_update or {})
    src = str(Path(dcpnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-c", script, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"subprocess did not finish within {timeout:.0f} s")
    assert proc.returncode == 0, err


def _ablate_in_subprocess(cfg, tmp_path, name: str, script: str = _ABLATE_AFTER_APPLY,
                          **kwargs) -> bytes:
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / name))
    path = tmp_path / f"{name}.ini"
    write_config(path, cfg)
    _run_python(script, str(path), **kwargs)
    return (Path(cfg.out_dir) / "metrics.csv").read_bytes()


# The fast ablation config at 128 px: grids of 16384 pixels are large enough
# for OpenBLAS to run a dot product on several threads.
def blas_sized_config(tmp_path):
    return tiny_config(tmp_path, image_side=128, detector_bins=0, steps=10, cg_iters=8)


# sha256 of that config's metrics.csv: the bytes earlier versions wrote with
# two OpenBLAS threads. It changes only when a change is meant to alter the
# reconstructions, and such a change says so. The bytes also depend on the
# BLAS's dot kernel, so another CPU family or BLAS may need a new pin.
BLAS_SIZED_METRICS_SHA256 = "0e1111bf5579924d3dd6486a019f0c8f1f0a053caf6cf72d2773ba6116b1eee5"


class TestParallelDeterminism:
    def test_pooled_grid_after_threaded_apply_matches_serial(self, tmp_path):
        cfg = tiny_config(tmp_path)
        serial = dataclasses.replace(cfg, out_dir=str(tmp_path / "serial"))
        ablate(serial)
        pooled = _ablate_in_subprocess(dataclasses.replace(cfg, workers=2), tmp_path, "pooled")
        assert pooled == (Path(serial.out_dir) / "metrics.csv").read_bytes()

    def test_pooled_mri_grid_after_complex_denoise_matches_serial(self, tmp_path):
        cfg = tiny_config(tmp_path, task="mri", image_side=32, af=4, center_lines=4, steps=3)
        serial = dataclasses.replace(cfg, out_dir=str(tmp_path / "serial"))
        ablate(serial)
        pooled = _ablate_in_subprocess(dataclasses.replace(cfg, workers=2), tmp_path, "pooled",
                                       script=_ABLATE_AFTER_COMPLEX_DENOISE)
        assert pooled == (Path(serial.out_dir) / "metrics.csv").read_bytes()

    @pytest.fixture(scope="class")
    def blas_runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("blas")
        cfg = blas_sized_config(tmp_path)
        one = _ablate_in_subprocess(cfg, tmp_path, "one-thread",
                                    env_update={"OPENBLAS_NUM_THREADS": "1"})
        default = _ablate_in_subprocess(cfg, tmp_path, "default-threads",
                                        drop_env=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        return one, default

    def test_metrics_independent_of_blas_threads(self, blas_runs):
        one, default = blas_runs
        assert one == default

    def test_metrics_hash_pinned(self, blas_runs):
        one, _ = blas_runs
        assert hashlib.sha256(one).hexdigest() == BLAS_SIZED_METRICS_SHA256


class TestCli:
    def test_dot_test_command_passes(self, capsys):
        assert cli.main(["dot-test", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_certify_command_passes(self, capsys):
        assert cli.main(["certify", "--instances", "2"]) == 0

    def test_whiteness_command_passes(self, capsys):
        assert cli.main(["whiteness", "--size", "64", "--seeds", "30"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_command_with_config(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, seeds=(0,))
        path = tmp_path / "cfg.ini"
        write_config(path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_seed_override(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0, 1))
        path = tmp_path / "cfg.ini"
        write_config(path, cfg)
        assert cli.main(["run", "--config", str(path), "--seed", "7",
                         "--out", str(tmp_path / "o2")]) == 0
        metrics = (tmp_path / "o2" / "metrics.csv").read_text()
        assert ",7," in metrics and ",0," not in metrics

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "dcpnp.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dot-test" in proc.stdout
