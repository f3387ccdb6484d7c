import configparser
import dataclasses
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcpnp import cli, experiment, operators
from dcpnp.experiment import (
    ExperimentConfig,
    MetricRow,
    ablate,
    build_operator,
    build_phantom,
    default_config,
    load_config,
    mean_psnr,
    run_experiment,
    run_row,
    sweep_nfe,
    write_config,
    write_metrics_csv,
)
from dcpnp.grid_core import make_rng
from dcpnp.metrics import psnr, ssim
from dcpnp.phantoms import mri_phantom, shepp_logan
from dcpnp.solver import SolverStepError
from helpers import IdentityDenoiser


class TestPhantoms:
    def test_shepp_logan_range_and_background(self):
        ph = shepp_logan(128)
        assert ph.max() <= 1.0
        assert ph[0, 0] == -1.0  # corner is background
        assert ph.min() == -1.0

    @pytest.mark.parametrize("task", experiment.TASKS)
    def test_one_phantom_per_task(self, task):
        cfg = ExperimentConfig(task=task, image_side=32)
        want = mri_phantom(32) if task == "mri" else shepp_logan(32)
        for seed in (0, 7):
            assert np.array_equal(build_phantom(cfg, seed), want)

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
        assert svct.cg_iters == 20
        assert build_operator(svct).range_shape == (20, 363)
        lact = default_config("lact")
        assert lact.n_views == 90 and lact.max_angle == 90.0 and lact.cg_iters == 100
        mri = default_config("mri")
        assert mri.image_side == 320 and mri.cg_iters == 20
        assert np.array_equal(build_operator(mri).mask.keep,
                              operators.make_cartesian_mask(320, 320, 6, 16).keep)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(3, 4, 5))
        path = tmp_path / "cfg.ini"
        write_config(path, cfg)
        loaded = load_config(path)
        assert loaded == cfg

    @pytest.mark.parametrize("line", ["foo = 1", "phantom = flat-disk", "af = 4", "center_lines = 4",
                                      "psnr_peak = 2.0", "sh_window = 7"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\ntask = svct\n{line}\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    @pytest.mark.parametrize("section,line", [
        ("geometry", "n_views = 20.0"),
        ("geometry", "max_angle = wide"),
        ("experiment", "seeds = 0 one"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, section, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=rf"config key '{key}' in section \[{section}\]"):
            load_config(path)

    def test_cli_task_overrides_file_task(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\ntask = svct\n")
        cfg = load_config(path, task="lact")
        assert cfg.task == "lact"
        assert cfg.cg_iters == 100  # lact task defaults applied

    def test_bad_variant_rejected(self):
        for label in ("dual=sideways,inject=sh", "inject=none"):
            with pytest.raises(ValueError, match="unknown variant"):
                tiny_config(Path("/tmp"), variants=(label,))

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="pet")

    @pytest.mark.parametrize("kind", ["external", "median", "identity", "gaussian-prior"])
    def test_unbuildable_denoiser_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown denoiser"):
            ExperimentConfig(denoiser=kind)

    @pytest.mark.parametrize("knobs,match", [
        ({"spacing": "cubic"}, "unknown spacing"),
        ({"cg_iters": 0}, "max_iters must be at least 1"),
        ({"steps": 0}, "steps must be at least 1"),
        ({"image_side": 8}, "image_side must be at least 16"),
        ({"variants": ()}, "at least one variant"),
        ({"measurement_noise_std": -0.4}, "measurement_noise_std must be non-negative"),
        ({"measurement_noise_std": math.nan}, "measurement_noise_std must be non-negative"),
        ({"measurement_noise_std": math.inf}, "measurement_noise_std must be non-negative"),
        ({"workers": -3}, "workers must be at least 1"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"seeds": (0, 1, 0)}, "seeds repeats a seed"),
        ({"seeds": (-1,)}, "seeds must be non-negative"),
        ({"variants": (experiment.FULL_METHOD, experiment.MEMORYLESS, experiment.FULL_METHOD)},
         "variants repeats a variant"),
        ({"n_views": 0}, "n_views must be at least 1"),
        ({"task": "lact", "n_views": 0}, "n_views must be at least 1"),
        ({"image_side": 16, "detector_bins": 10}, "detector too narrow"),
        ({"detector_bins": -5}, r"detector_bins must be non-negative \(0 for the derived"),
        ({"task": "lact", "max_angle": 0.0}, "max_angle must lie in"),
        ({"task": "lact", "max_angle": 180.0}, "max_angle must lie in"),
        ({"tv_weight": math.nan}, "weight must be nonnegative and finite"),
        ({"tv_weight": math.inf}, "weight must be nonnegative and finite"),
        ({"lam0": math.nan}, "penalty must be nonnegative and finite"),
        ({"lam0": math.inf}, "penalty must be nonnegative and finite"),
        ({"sigma_max": math.inf}, "sigma_max < inf"),
        ({"task": "mri", "n_views": 0}, "n_views must be at least 1"),
        ({"task": "mri", "detector_bins": -5},
         r"detector_bins must be non-negative \(0 for the derived"),
        ({"task": "mri", "max_angle": math.nan}, "max_angle must lie in"),
        ({"task": "mri", "max_angle": 180.0}, "max_angle must lie in"),
        ({"max_angle": math.nan}, "max_angle must lie in"),
        ({"max_angle": -10.0}, "max_angle must lie in"),
    ])
    def test_bad_knob_rejected_at_construction(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**knobs)

    def test_small_side_rejected_for_every_task(self):
        # mri renders its own phantom, but SSIM's 11x11 window still needs the side
        for task in experiment.TASKS:
            with pytest.raises(ValueError, match="image_side must be at least 16"):
                ExperimentConfig(task=task, image_side=8)
        assert ExperimentConfig(task="mri", image_side=16).image_side == 16

    def test_readme_lists_the_config_keys(self, tmp_path):
        # README's key list against `config.resolved`, section by section, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listing = readme.split("`config.resolved` writes them under:\n", 1)[1]
        bullets = re.findall(r"^- `\[(\w+)\]`:(.*?)(?=^- |\n\n)", listing, re.M | re.S)
        documented = [(section, re.findall(r"`(\w+)`", keys)) for section, keys in bullets]
        write_config(tmp_path / "config.resolved", default_config())
        parser = configparser.ConfigParser()
        parser.read(tmp_path / "config.resolved")
        assert documented == [(section, list(parser[section])) for section in parser.sections()]


class TestRunExperiment:
    def test_grid_size_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, variants=("dual=on,inject=none", "dual=off,inject=none"),
                          seeds=(0, 1, 2))
        rows = run_experiment(cfg)
        assert len(rows) == 6

    def test_ablation_grid_is_2x2(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        rows = ablate(cfg)
        assert len(rows) == 4
        assert len({r.variant for r in rows}) == 4

    def test_four_variants_three_seeds_gives_twelve_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0, 1, 2))
        rows = ablate(cfg)
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

    def test_row_failure_recorded_not_raised(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "build_phantom", lambda cfg, seed: 1 / 0)
        cfg = tiny_config(tmp_path, seeds=(0,))
        rows = run_experiment(cfg)
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

    def test_failed_rerun_removes_the_earlier_artifacts(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, seeds=(0,))
        run_dir = Path(cfg.out_dir) / "svct_dual-on_inject-sh_seed0"
        [row] = run_experiment(cfg)
        assert row.status == "ok" and (run_dir / "trace.csv").exists()
        monkeypatch.setattr(experiment, "run", lambda *args, **kwargs: 1 / 0)
        [row] = run_experiment(cfg)
        assert row.status.startswith("error:")
        assert sorted(p.name for p in run_dir.iterdir()) == ["error.txt"]

    def test_mri_task_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, task="mri", image_side=32, seeds=(0,), steps=3)
        rows = run_experiment(cfg)
        assert rows[0].status == "ok"
        assert math.isfinite(rows[0].psnr)

    def test_measurement_noise_changes_rows(self, tmp_path):
        clean = run_row(tiny_config(tmp_path, seeds=(0,)), "dual=on,inject=none", 0)
        noisy = run_row(tiny_config(tmp_path, seeds=(0,), measurement_noise_std=0.5),
                        "dual=on,inject=none", 0)
        assert clean.psnr != noisy.psnr

    @pytest.mark.parametrize("step_counts,match", [((2, 0), "steps must be at least 1"),
                                                   ((2, 2), "repeats a budget")])
    def test_sweep_nfe_checks_every_budget_before_running(self, tmp_path, step_counts, match):
        cfg = tiny_config(tmp_path, seeds=(0,))
        with pytest.raises(ValueError, match=match):
            sweep_nfe(cfg, step_counts=step_counts)
        assert not Path(cfg.out_dir).exists()

    def test_diverging_row_error_txt_names_its_iteration(self, tmp_path, monkeypatch):
        class ExplodingDenoiser(IdentityDenoiser):
            def _denoise(self, v, sigma, t):
                return v * 1e7

        monkeypatch.setattr(ExperimentConfig, "make_denoiser", lambda self: ExplodingDenoiser())
        cfg = tiny_config(tmp_path, seeds=(0,), variants=("dual=on,inject=none",))
        [row] = run_experiment(cfg)
        assert row.status.startswith("error: SolverDivergence: iteration 1: state")
        error = (Path(cfg.out_dir) / "svct_dual-on_inject-none_seed0" / "error.txt").read_text()
        assert "\niteration: 1\n" in error

    def test_sweep_nfe_shape(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        results = sweep_nfe(cfg, step_counts=(2, 3))
        assert list(results) == [2, 3]
        for k, rows in results.items():
            assert [(r.variant, r.status) for r in rows] == [(experiment.MEMORYLESS, "ok"),
                                                              (experiment.FULL_METHOD, "ok")]
            out = Path(cfg.out_dir) / f"steps{k}"
            assert f"\nsteps = {k}\n" in (out / "config.resolved").read_text()
            assert all(line.endswith(",ok")
                       for line in (out / "metrics.csv").read_text().splitlines()[1:])
            assert (out / "svct_dual-on_inject-sh_seed0" / "trace.csv").exists()


def _row(variant: str, seed: int, value: float, status: str = "ok") -> MetricRow:
    return MetricRow("svct", variant, seed, value, 0.5, 1.0, 0.0, status)


class TestMeanPsnr:
    def test_groups_by_variant_in_first_seen_order(self):
        rows = [_row("b", 0, 10.0), _row("a", 0, 1.0), _row("b", 1, 20.0), _row("a", 1, 3.0)]
        means = mean_psnr(rows)
        assert list(means) == ["b", "a"]
        assert means == {"b": 15.0, "a": 2.0}

    def test_skips_rows_that_failed(self):
        rows = [_row("a", 0, 10.0), _row("a", 1, float("nan"), "error: boom"), _row("a", 2, 20.0)]
        assert mean_psnr(rows) == {"a": 15.0}

    def test_variant_without_ok_row_is_left_out_and_ablate_fails(self, tmp_path, monkeypatch,
                                                                  capsys):
        *others, full = experiment.ABLATION_VARIANTS
        rows = [_row(label, 0, 20.0 + i) for i, label in enumerate(others)]
        rows.append(_row(full, 0, float("nan"), "error: boom"))
        assert list(mean_psnr(rows)) == others
        monkeypatch.setattr(experiment, "ablate", lambda cfg: rows)
        assert cli.main(["ablate", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "PASS" not in out
        [verdict] = [line for line in out.splitlines() if line.startswith("ordering")]
        assert "FAIL" in verdict and full in verdict
        assert not any(label in verdict for label in others)


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
    """Run a Python snippet against this dcpnp (conftest sets PYTHONPATH) in a
    new process group; on timeout kill the whole group (a hung worker pool
    included) and fail."""
    env = dict(os.environ)
    for name in drop_env:
        env.pop(name, None)
    env.update(env_update or {})
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


def test_perfbench_smoke():
    # the benchmark imports dcpnp by name (solver.run's hook, the trace writers),
    # so a renamed entry point it calls fails here and not only in a benchmark run
    smoke = Path(__file__).resolve().parents[1] / "perfbench" / "smoke.py"
    _run_python("import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')",
                str(smoke), timeout=600.0)


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
        cfg = tiny_config(tmp_path, task="mri", image_side=32, steps=3)
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


def _inflate_fourier_adjoint(monkeypatch):
    adjoint = operators.FourierMaskOperator.adjoint
    monkeypatch.setattr(operators.FourierMaskOperator, "adjoint",
                        lambda self, y: adjoint(self, y) * (1 + 1e-6))


def _whitening_band_too_low(monkeypatch):
    monkeypatch.setattr(cli, "whitening_statistics", lambda side, n_seeds: (0.85, 1.0, 0.2))


def _dual_off_run_unconverged(monkeypatch):
    certify_pair = cli.certify_pair

    def unconverged(*args, **kwargs):
        on, off, ratio = certify_pair(*args, **kwargs)
        return on, dataclasses.replace(off, converged=False), ratio

    monkeypatch.setattr(cli, "certify_pair", unconverged)


class TestCli:
    """The check commands pass on the shipped code through the acceptance
    suite; here each is shown to fail when its check does."""

    @pytest.mark.parametrize("argv,breaker", [
        (["dot-test"], _inflate_fourier_adjoint),
        (["whiteness"], _whitening_band_too_low),
        (["certify"], _dual_off_run_unconverged),
    ])
    def test_failed_check_exits_1_with_a_fail_line(self, argv, breaker, monkeypatch, capsys):
        breaker(monkeypatch)
        assert cli.main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["certify", "--seed", "1"], ["dot-test", "--size", "32"],
                                      ["whiteness", "--seeds", "2"]])
    def test_check_commands_take_no_options(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "2,0", "2,2", "x"])
    def test_bad_step_budgets_rejected_before_anything_runs(self, steps, tmp_path, capsys):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exited:
            cli.main(["sweep-nfe", "--steps", steps, "--out", str(out)])
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["inject=none", "dual=maybe"])
    def test_bad_variant_rejected_before_anything_runs(self, label, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--variant", label])
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_ablate_prints_means_to_3_decimals(self, tmp_path, monkeypatch, capsys):
        rows = [_row(label, 0, value) for label, value in
                zip(experiment.ABLATION_VARIANTS, (19.7071, 19.9, 20.1234, 20.1144))]
        monkeypatch.setattr(experiment, "ablate", lambda cfg: rows)
        assert cli.main(["ablate", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "mean psnr: hqs 19.707 | dual-only 20.123 | full 20.114\n" in out
        assert "ordering full >= dual-only > hqs: FAIL" in out

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

    def test_sweep_nfe_exits_1_and_records_a_failed_row(self, tmp_path, monkeypatch, capsys):
        real_row = experiment.run_row

        def fail_seed_1(cfg, variant_label, seed):
            if seed == 1:
                return MetricRow(cfg.task, variant_label, seed, float("nan"), float("nan"),
                                 float("nan"), 0.0, "error: boom")
            return real_row(cfg, variant_label, seed)

        monkeypatch.setattr(experiment, "run_row", fail_seed_1)
        path = tmp_path / "cfg.ini"
        write_config(path, tiny_config(tmp_path, seeds=(0, 1)))
        out = tmp_path / "sweep"
        assert cli.main(["sweep-nfe", "--config", str(path), "--steps", "2,3",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().out.count("[error: boom]") == 4
        for k in (2, 3):
            lines = (out / f"steps{k}" / "metrics.csv").read_text().splitlines()
            statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
            assert statuses == ["ok", "error: boom"] * 2

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "dcpnp.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dot-test" in proc.stdout
