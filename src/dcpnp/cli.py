"""Command-line interface for the benchmark harness and diagnostics.

Subcommands:
  run        execute the (variant x seed) grid of a config
  ablate     the 2x2 dual-coupling / homogenization grid
  sweep-nfe  rerun at several outer-step budgets (convergence-speed curve)
  certify    fixed-point optimality and bias certificates on convex instances
  dot-test   adjoint exactness of the shipped operators
  whiteness  Monte-Carlo check of the spectral whitening property

certify and whiteness call the same library functions, with the same
bounds, as the acceptance suite's certification and whitening criteria.

Exit status is 0 only if every run completed and every enabled assertion
passed.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiment
from .experiment import default_config, load_config
from .grid_core import make_rng
from .operators import (
    FourierMaskOperator,
    RadonOperator,
    dot_test,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
)
from .solver import certification_instance, certify_pair
from .spectral import whitening_statistics


def _build_config(args) -> experiment.ExperimentConfig:
    overrides = {}
    if args.task:
        overrides["task"] = args.task
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out:
        overrides["out_dir"] = args.out
    if getattr(args, "variant", None):
        overrides["variants"] = (args.variant,)
    if args.config:
        return load_config(args.config, **overrides)
    task = overrides.pop("task", "svct")
    return default_config(task, **overrides)


def _report_rows(rows) -> bool:
    ok = True
    for row in rows:
        print(f"{row.task:5s} {row.variant:26s} seed {row.seed:3d}  "
              f"psnr {row.psnr:7.2f}  ssim {row.ssim:6.4f}  "
              f"data_res {row.data_residual:10.4g}  [{row.status}]")
        ok = ok and row.status == "ok"
    return ok


def cmd_run(args) -> int:
    cfg = _build_config(args)
    rows = experiment.run_experiment(cfg)
    return 0 if _report_rows(rows) else 1


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    rows = experiment.ablate(cfg)
    ok = _report_rows(rows)
    by_variant = {}
    for row in rows:
        if row.status == "ok":
            by_variant.setdefault(row.variant, []).append(row.psnr)
    means = {v: float(np.mean(p)) for v, p in by_variant.items()}
    if len(means) == len(experiment.ABLATION_VARIANTS):
        hqs = means["dual=off,inject=none"]
        dc = means["dual=on,inject=none"]
        full = means["dual=on,inject=sh"]
        print(f"mean psnr: hqs {hqs:.2f} | dual-only {dc:.2f} | full {full:.2f}")
        ordering = full >= dc > hqs
        print(f"ordering full >= dual-only > hqs: {'PASS' if ordering else 'FAIL'}")
        ok = ok and ordering
    else:
        ok = False
    return 0 if ok else 1


def cmd_sweep_nfe(args) -> int:
    cfg = _build_config(args)
    steps = tuple(int(s) for s in args.steps.split(","))
    results = experiment.sweep_nfe(cfg, step_counts=steps)
    for (variant, k), value in sorted(results.items()):
        print(f"steps {k:4d}  {variant:26s}  mean psnr {value:7.2f}")
    ok = all(math.isfinite(v) for v in results.values())
    return 0 if ok else 1


def cmd_certify(args) -> int:
    failures = 0
    for instance in range(args.instances):
        on, off, ratio = certify_pair(*certification_instance(args.seed + instance, args.size),
                                      tol=args.tol, max_iters=args.max_iters)
        good = (on.converged and on.consensus < args.tol and on.stationarity < args.tol
                and off.prediction_error is not None and off.prediction_error < args.tol
                and ratio >= 10.0)
        failures += 0 if good else 1
        print(f"instance {instance:2d}: consensus {on.consensus:.2e} "
              f"stationarity {on.stationarity:.2e} bias {off.error_vs_optimum:.3e} "
              f"bias/err {ratio:9.1f}x prediction {off.prediction_error:.2e} "
              f"[{'ok' if good else 'FAIL'}]")
    print(f"{args.instances - failures}/{args.instances} instances certified")
    return 0 if failures == 0 else 1


def cmd_dot_test(args) -> int:
    side = args.size
    cases = [
        ("radon sparse-view", RadonOperator(make_sparse_view_geometry(20, side))),
        ("radon limited-angle", RadonOperator(make_limited_angle_geometry(90, 90.0, side))),
        ("fourier mask af=6", FourierMaskOperator(make_cartesian_mask(side, side, 6))),
    ]
    worst = 0.0
    for name, op in cases:
        value = dot_test(op, make_rng(args.seed if args.seed is not None else 0))
        worst = max(worst, value)
        print(f"{name:22s} discrepancy {value:.3e}  [{'ok' if value < 1e-10 else 'FAIL'}]")
    return 0 if worst < 1e-10 else 1


def cmd_whiteness(args) -> int:
    lo, hi, ratio = whitening_statistics(args.size, args.seeds)
    band_ok = 0.9 <= lo and hi <= 1.1
    print(f"mean effective PSD / target over {args.seeds} seeds: min {lo:.4f} max {hi:.4f} "
          f"[{'ok' if band_ok else 'FAIL'}]")
    flat_ok = ratio < 0.5
    print(f"flatness CV ratio homogenized/naive on streaks: {ratio:.3f} "
          f"[{'ok' if flat_ok else 'FAIL'}]")
    return 0 if band_ok and flat_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dcpnp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True):
        p.add_argument("--config", help="config file path")
        p.add_argument("--seed", type=int, help="override: run only this seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--task", choices=experiment.TASKS)
        if variant:
            p.add_argument("--variant", help="e.g. dual=on,inject=sh")

    p_run = sub.add_parser("run", help="execute a config")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ab = sub.add_parser("ablate", help="2x2 variant grid")
    common(p_ab, variant=False)
    p_ab.set_defaults(func=cmd_ablate)

    p_nfe = sub.add_parser("sweep-nfe", help="outer-step budget sweep")
    common(p_nfe, variant=False)
    p_nfe.add_argument("--steps", default="10,20,30,50,100")
    p_nfe.set_defaults(func=cmd_sweep_nfe)

    p_cert = sub.add_parser("certify", help="fixed-point certificates")
    p_cert.add_argument("--instances", type=int, default=10)
    p_cert.add_argument("--size", type=int, default=16)
    p_cert.add_argument("--tol", type=float, default=1e-6)
    p_cert.add_argument("--max-iters", type=int, default=500)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.set_defaults(func=cmd_certify)

    p_dot = sub.add_parser("dot-test", help="operator adjoint checks")
    p_dot.add_argument("--size", type=int, default=32)
    p_dot.add_argument("--seed", type=int, default=0)
    p_dot.set_defaults(func=cmd_dot_test)

    p_wh = sub.add_parser("whiteness", help="spectral whitening Monte-Carlo")
    p_wh.add_argument("--size", type=int, default=64)
    p_wh.add_argument("--seeds", type=int, default=100)
    p_wh.set_defaults(func=cmd_whiteness)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
