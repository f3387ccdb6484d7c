"""Command-line interface for the benchmark harness and diagnostics.

Subcommands:
  run        execute the (variant x seed) grid of a config
  ablate     the 2x2 dual-coupling / homogenization grid
  sweep-nfe  rerun at several outer-step budgets (convergence-speed curve)
  certify    fixed-point optimality and bias certificates on convex instances
  dot-test   adjoint exactness of the shipped operators
  whiteness  Monte-Carlo check of the spectral whitening property

`run`, `ablate` and `sweep-nfe` run their grids through
`experiment.run_experiment`: one run directory per row, one `metrics.csv`
with a status column per grid, and for `sweep-nfe` one grid of the
memoryless baseline and the full method per outer-step budget K, in
`<out>/steps<K>`. `run --variant` takes one of the six labels
`dual=on|off,inject=sh|naive|none`, spelled in that order.

The last three checks run `operators.dot_test`,
`spectral.whitening_statistics` and `solver.certify_pair`, and each is one
fixed check that takes no options. What this module holds once is their
settings and bounds: the acceptance suite runs the bare `dot-test`,
`whiteness` and `certify` through `main`, so the constants below are the
release criteria's.

Exit status is 0 only if every run completed and every enabled assertion
passed.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .experiment import default_config, load_config
from .grid_core import make_rng
from .operators import dot_test
from .solver import VARIANT_LABELS, certification_instance, certify_pair
from .spectral import whitening_statistics


# the check commands' fixed settings: certify draws instance i from
# make_rng(CERTIFY_SEED + i), dot-test draws from make_rng(DOT_TEST_SEED)
CERTIFY_SEED, CERTIFY_INSTANCES, CERTIFY_SIDE = 100, 10, 16
CERTIFY_TOL, CERTIFY_MAX_ITERS = 1e-6, 500
DOT_TEST_SIDE, DOT_TEST_SEED = 32, 0
WHITENESS_SIDE, WHITENESS_SEEDS = 64, 100


def _step_budgets(text: str) -> tuple[int, ...]:
    """argparse type for `--steps`: distinct positive integers, comma-separated."""
    steps = tuple(int(part) if part.strip().isdecimal() else 0 for part in text.split(","))
    if min(steps) < 1 or len(set(steps)) < len(steps):
        raise argparse.ArgumentTypeError(f"need distinct integers of at least 1, got {text!r}")
    return steps


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
    means = experiment.mean_psnr(rows)
    missing = [label for label in experiment.ABLATION_VARIANTS if label not in means]
    if missing:
        print(f"ordering full >= dual-only > hqs: FAIL (no ok row for {'; '.join(missing)})")
        return 1
    hqs, dc, full = (means[label] for label in (experiment.MEMORYLESS, experiment.DUAL_ONLY,
                                                 experiment.FULL_METHOD))
    print(f"mean psnr: hqs {hqs:.3f} | dual-only {dc:.3f} | full {full:.3f}")
    ordering = full >= dc > hqs
    print(f"ordering full >= dual-only > hqs: {'PASS' if ordering else 'FAIL'}")
    return 0 if ok and ordering else 1


def cmd_sweep_nfe(args) -> int:
    cfg = _build_config(args)
    ok = True
    for k, rows in experiment.sweep_nfe(cfg, step_counts=args.steps).items():
        ok = _report_rows(rows) and ok
        for variant, value in experiment.mean_psnr(rows).items():
            print(f"steps {k:4d}  {variant:26s}  mean psnr {value:7.2f}")
    return 0 if ok else 1


def cmd_certify(args) -> int:
    certs = [certify_pair(*certification_instance(CERTIFY_SEED + i, CERTIFY_SIDE),
                          tol=CERTIFY_TOL, max_iters=CERTIFY_MAX_ITERS)
             for i in range(CERTIFY_INSTANCES)]
    certified = 0
    for instance, (on, off, ratio) in enumerate(certs):
        good = (on.converged and on.consensus < CERTIFY_TOL and on.stationarity < CERTIFY_TOL
                and off.converged and off.prediction_error < CERTIFY_TOL and ratio >= 10.0)
        certified += good
        print(f"instance {instance:2d}: consensus {on.consensus:.2e} "
              f"stationarity {on.stationarity:.2e} bias {off.error_vs_optimum:.3e} "
              f"bias/err {ratio:9.1f}x prediction {off.prediction_error:.2e} "
              f"[{'ok' if good else 'FAIL'}]")
    ons, offs, ratios = zip(*certs)
    print(f"{certified}/{CERTIFY_INSTANCES} instances certified: worst consensus "
          f"{max(c.consensus for c in ons):.2e}, worst stationarity "
          f"{max(c.stationarity for c in ons):.2e}, bias/err >= {min(ratios):.0f}x, "
          f"worst prediction {max(c.prediction_error for c in offs):.2e}")
    return 0 if certified == CERTIFY_INSTANCES else 1


def cmd_dot_test(args) -> int:
    worst = 0.0
    for task in experiment.TASKS:
        op = experiment.build_operator(default_config(task, image_side=DOT_TEST_SIDE))
        value = dot_test(op, make_rng(DOT_TEST_SEED))
        worst = max(worst, value)
        print(f"{task:5s} discrepancy {value:.3e}  [{'ok' if value < 1e-10 else 'FAIL'}]")
    return 0 if worst < 1e-10 else 1


def cmd_whiteness(args) -> int:
    lo, hi, ratio = whitening_statistics(WHITENESS_SIDE, WHITENESS_SEEDS)
    band_ok = 0.9 <= lo and hi <= 1.1
    print(f"mean effective PSD / target over {WHITENESS_SEEDS} seeds: min {lo:.4f} max {hi:.4f} "
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
            p.add_argument("--variant", choices=VARIANT_LABELS, metavar="LABEL",
                           help=f"run only this variant, one of: {'; '.join(VARIANT_LABELS)}")

    p_run = sub.add_parser("run", help="execute a config")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ab = sub.add_parser("ablate", help="2x2 variant grid")
    common(p_ab, variant=False)
    p_ab.set_defaults(func=cmd_ablate)

    p_nfe = sub.add_parser("sweep-nfe", help="outer-step budget sweep")
    common(p_nfe, variant=False)
    p_nfe.add_argument("--steps", type=_step_budgets, default="10,20,30,50,100",
                       help="distinct outer-step budgets, comma-separated")
    p_nfe.set_defaults(func=cmd_sweep_nfe)

    sub.add_parser("certify", help="fixed-point certificates").set_defaults(func=cmd_certify)
    sub.add_parser("dot-test", help="operator adjoint checks").set_defaults(func=cmd_dot_test)
    sub.add_parser("whiteness", help="whitening Monte-Carlo").set_defaults(func=cmd_whiteness)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
