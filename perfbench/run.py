"""dcpnp benchmark: end-to-end and per-layer timings of the PnP-ADMM solver.

    python3 perfbench/run.py --workload lact128 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the benchmark imports `dcpnp` from the
checkout's `src/` and refuses to run without it. Workloads:

  lact128         acceptance limited-angle CT config, `solver.run` called directly
  mri320          default MRI task, `solver.run` called directly
  svct256-ablate  `experiment.ablate` on the default sparse-view task, in-process

`--trace 0` measures the end-to-end metrics declared in BENCHMARK.json.
`--trace 1` measures untraced, then wraps the library's layer boundaries
(see tracer.py) and measures again, reporting the per-layer metrics and the
difference between the two as `trace.overhead_frac`; on svct256-ablate it
also times one grid on a pool of 2 workers. Every reconstruction is
checked against perfbench/references.json; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`. A
result file and, with tracing, the spans are written to perfbench/out/.
`--toy` shrinks every workload for the smoke check (perfbench/smoke.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from tracer import OUTSIDE, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

FULL_METHOD = "dual=on,inject=sh"

# The acceptance limited-angle benchmark (tests/test_acceptance.py, LACT_BENCHMARK)
LACT128 = dict(
    task="lact", image_side=128, n_views=90, max_angle=90.0, detector_bins=183,
    steps=50, sigma_max=1.0, sigma_min=0.01, spacing="geometric",
    denoiser="tv-prox", tv_weight=5.0, tv_iters=100,
    cg_iters=30, lam0=1e-05, measurement_noise_std=0.42,
)
TOY = {
    "lact128": dict(image_side=32, n_views=12, detector_bins=47, steps=5, tv_iters=10, cg_iters=5),
    "mri320": dict(image_side=64, steps=5, tv_iters=10),
    "svct256-ablate": dict(image_side=32, n_views=8, detector_bins=47, steps=5, tv_iters=10,
                           cg_iters=8),
}
WORKLOADS = tuple(TOY)
# The grid's end-to-end runs are serial: with 2 workers whose OpenBLAS threads
# oversubscribe the 2 cores, one grid took 28-42 s over 5 seeds. The pooled
# grid is measured in the traced run (experiment.pool_* metrics).
POOL_WORKERS = 2

# Set-up is repeated until both limits are reached; its median is setup_s.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0


def import_dcpnp():
    """Import dcpnp from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "dcpnp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a dcpnp checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import dcpnp
    import dcpnp.experiment  # noqa: F401  (the tracer needs every layer module loaded)

    if Path(dcpnp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported dcpnp from {dcpnp.__file__}, expected {package}")
    return dcpnp


def workload_config(dcpnp, name: str, toy: bool):
    exp = dcpnp.experiment
    if name == "lact128":
        cfg = exp.ExperimentConfig(**LACT128)
    elif name == "mri320":
        cfg = exp.default_config("mri")
    else:
        cfg = exp.default_config("svct")
    return dataclasses.replace(cfg, **TOY[name]) if toy else cfg


# --- machine facts ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_effect": _blas_threads_in_effect(),
    }


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# --- failures and correctness ---------------------------------------------------


class Tally:
    """Attempted and failed reconstructions; prints the first failure in full."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"perfbench: first failed reconstruction:\n{message}", file=sys.stderr)


class References:
    """Recorded row metrics per (workload, instance, variant) and their tolerances."""

    def __init__(self, toy: bool):
        data = json.loads(REFERENCES.read_text())
        self.tolerance = data["tolerance"]
        self.instances = data["instances"]
        self.table = data["toy" if toy else "full"]

    def instance(self, seed: int) -> int:
        """The benchmark seed selects one of the recorded input instances."""
        return seed % self.instances

    def check(self, workload: str, instance: int, variant: str, got: dict) -> None:
        ref = self.table[workload][str(instance)][variant]
        tol = self.tolerance[workload]
        bad = [
            key for key, limit in (("psnr", tol["psnr_abs"]), ("ssim", tol["ssim_abs"]))
            if not abs(got[key] - ref[key]) <= limit
        ]
        if not abs(got["data_residual"] - ref["data_residual"]) <= (
                tol["data_residual_rel"] * abs(ref["data_residual"])):
            bad.append("data_residual")
        if bad:
            raise AssertionError(
                f"{workload} instance {instance} {variant}: {', '.join(bad)} off the reference; "
                f"got {got}, reference {ref}, tolerance {tol}")


def score(dcpnp, cfg, op, y, truth, recon) -> dict:
    """The row metrics of experiment.run_row, from the unwrapped metric functions."""
    if recon.shape != truth.shape or not np.all(np.isfinite(recon)):
        raise AssertionError(f"reconstruction has shape {recon.shape} or non-finite values")
    return {
        "psnr": dcpnp.metrics.psnr(recon, truth, cfg.psnr_peak),
        "ssim": dcpnp.metrics.ssim(recon, truth, data_range=cfg.psnr_peak),
        "data_residual": float(np.linalg.norm(op.apply(recon) - y)),
    }


# --- measurement -----------------------------------------------------------------


def set_up(dcpnp, cfg, seed: int):
    """Operator build, phantom, simulated measurements and denoiser, as a user pays them."""
    exp = dcpnp.experiment
    op = exp.build_operator(cfg)
    truth = exp.build_phantom(cfg, seed)
    y = exp.simulate_measurements(op, truth, cfg, seed)
    cfg.make_denoiser()
    return op, truth, y


def time_set_up(dcpnp, cfg, seed: int):
    times, inputs = [], None
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        inputs = None  # release the previous operator before building the next
        t0 = time.perf_counter()
        inputs = set_up(dcpnp, cfg, seed)
        times.append(time.perf_counter() - t0)
    return times, inputs


def solve(dcpnp, cfg, variant: str, inputs, seed: int, on_iteration=None):
    op, truth, y = inputs
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    recon, _ = dcpnp.solver.run(
        op, y, cfg.make_denoiser(), cfg.schedule(), dcpnp.solver.VariantSpec.from_label(variant),
        cfg.cg_config(), cfg.sh_config(), rng, ground_truth=truth, psnr_peak=cfg.psnr_peak,
        on_iteration=on_iteration,
    )
    return recon


def timed_loop(seconds: float, once) -> None:
    """Call `once` at least one time, and again while the next call should fit in `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        once()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


@dataclasses.dataclass
class Run:
    """What one benchmark invocation measures, and its tally of failures."""

    dcpnp: object
    cfg: object
    workload: str
    seed: int
    instance: int
    refs: References
    seconds: float
    tally: Tally = dataclasses.field(default_factory=Tally)

    def set_up(self):
        return set_up(self.dcpnp, self.cfg, self.instance)

    def time_set_up(self):
        return time_set_up(self.dcpnp, self.cfg, self.instance)


class DirectSolves:
    """lact128 / mri320: the full method through `solver.run`, one reconstruction per call."""

    def __init__(self, run: Run, tracer: Tracer | None = None):
        self.run, self.tracer = run, tracer
        self.walls: list[float] = []
        self.gaps_ms: list[float] = []
        self.psnrs: list[float] = []

    def once(self, inputs) -> None:
        run, stamps = self.run, []
        run.tally.attempted += 1
        if self.tracer is not None:
            self.tracer.rec = f"solve{run.tally.attempted}"
        t0 = time.perf_counter()
        try:
            recon = solve(run.dcpnp, run.cfg, FULL_METHOD, inputs, run.instance,
                          on_iteration=lambda k, state: stamps.append(time.perf_counter()))
        except Exception:
            run.tally.fail(traceback.format_exc())
            return
        finally:
            self.walls.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.rec = OUTSIDE
        self.gaps_ms.extend(np.diff(stamps) * 1e3)
        try:
            got = score(run.dcpnp, run.cfg, inputs[0], inputs[2], inputs[1], recon)
            run.refs.check(run.workload, run.instance, FULL_METHOD, got)
        except AssertionError:
            run.tally.fail(traceback.format_exc())
            return
        self.psnrs.append(got["psnr"])


class Grids:
    """svct256-ablate: `experiment.ablate` grids written into a temporary directory."""

    def __init__(self, run: Run):
        self.run = run
        self.rows = []
        self.grid_walls: list[float] = []
        self.artifact_bytes = 0
        self.psnrs: list[float] = []

    def once(self, workers: int) -> None:
        run = self.run
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cfg = dataclasses.replace(run.cfg, seeds=(run.instance,), workers=workers, out_dir=tmp)
            t0 = time.perf_counter()
            rows = run.dcpnp.experiment.ablate(cfg)
            self.grid_walls.append(time.perf_counter() - t0)
            self.artifact_bytes = sum(f.stat().st_size for f in Path(tmp).rglob("*") if f.is_file())
        self.rows.extend(rows)
        for row in rows:
            run.tally.attempted += 1
            if row.status != "ok":
                run.tally.fail(f"{row.variant} seed {row.seed}: {row.status}\n"
                               + self._reproduce(row.variant))
                continue
            got = {"psnr": row.psnr, "ssim": row.ssim, "data_residual": row.data_residual}
            try:
                run.refs.check(run.workload, run.instance, row.variant, got)
            except AssertionError:
                run.tally.fail(traceback.format_exc())
                continue
            self.psnrs.append(row.psnr)

    def _reproduce(self, variant: str) -> str:
        """run_row keeps a one-line status; rerun the row's solve uncaught for the traceback."""
        run = self.run
        if run.tally.failed > 0:
            return ""
        try:
            solve(run.dcpnp, run.cfg, variant, run.set_up(), run.instance)
        except Exception:
            return traceback.format_exc()
        return "(the row's solve does not fail when rerun outside experiment.run_row)\n"


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


@contextlib.contextmanager
def iteration_clock(exp, gaps_ms: list):
    """experiment.run_row calls solver.run without an on_iteration hook; pass it one
    that collects the gaps between iterations, as the direct workloads do."""
    original = exp.run

    def run_with_clock(*args, **kwargs):
        stamps = []
        kwargs["on_iteration"] = lambda k, state: stamps.append(time.perf_counter())
        try:
            return original(*args, **kwargs)
        finally:
            gaps_ms.extend(np.diff(stamps) * 1e3)

    exp.run = run_with_clock
    try:
        yield
    finally:
        exp.run = original


def end_to_end(run: Run) -> dict:
    tally = run.tally
    setup_times, inputs = run.time_set_up()
    if run.workload == "svct256-ablate":
        inputs = None
        grids, gaps = Grids(run), []
        with iteration_clock(run.dcpnp.experiment, gaps):
            timed_loop(run.seconds, lambda: grids.once(1))
        walls = [row.wall_time for row in grids.rows]
        busy, what, psnrs = sum(grids.grid_walls), "ablate rows (MetricRow.wall_time)", grids.psnrs
    else:
        direct = DirectSolves(run)
        timed_loop(run.seconds, lambda: direct.once(inputs))
        walls, gaps, psnrs = direct.walls, direct.gaps_ms, direct.psnrs
        busy, what = sum(walls), "solver.run calls"
    ok = tally.attempted - tally.failed
    return {
        "solve_s": (float(np.median(walls)), f"median over n={len(walls)} {what}"),
        "iter_ms_p50": (_percentile(gaps, 50), f"on_iteration gaps, n={len(gaps)}"),
        "iter_ms_p90": (_percentile(gaps, 90), f"on_iteration gaps, n={len(gaps)}"),
        "rows_per_min": (60.0 * len(walls) / busy, f"{len(walls)} reconstructions in {busy:.2f} s"),
        "setup_s": (float(np.median(setup_times)), f"median of n={len(setup_times)} set-ups"),
        "peak_rss_mb": (_peak_rss_mb(), "max ru_maxrss of this process and its children"),
        "psnr_db": (float(np.mean(psnrs)) if psnrs else 0.0,
                    f"mean final PSNR of {len(psnrs)} checked reconstructions"),
        "ok_frac": (ok / tally.attempted, f"failed_frac = {tally.failed}/{tally.attempted}"),
    }


def per_layer(run: Run) -> dict:
    rss0 = _rss_mb()
    op = run.dcpnp.experiment.build_operator(run.cfg)  # first build in the process: RSS growth is real
    build_rss_mb = max(_rss_mb() - rss0, 0.0)
    del op
    tracer = Tracer()
    if run.workload == "svct256-ablate":
        # Spans recorded in pool workers would stay there, so the traced grid
        # runs in-process; the pooled grid gives the pool's throughput and idle time.
        pooled = Grids(run)
        pooled.once(POOL_WORKERS)
        untraced = Grids(run)
        untraced.once(1)
        tracer.install(run.dcpnp)
        run.time_set_up()
        tracer.rec = "grid"
        traced = Grids(run)
        traced.once(1)
        tracer.rec = OUTSIDE
        before = [row.wall_time for row in untraced.rows]
        after = [row.wall_time for row in traced.rows]
        root = "experiment.row"
        pool = {
            "experiment.artifact_bytes": pooled.artifact_bytes,
            "experiment.pool_idle_frac": 1.0 - sum(row.wall_time for row in pooled.rows) / (
                POOL_WORKERS * pooled.grid_walls[0]),
            "experiment.pool_rows_per_min": 60.0 * len(pooled.rows) / pooled.grid_walls[0],
        }
    else:
        inputs = run.set_up()
        untraced = DirectSolves(run)
        timed_loop(run.seconds / 2, lambda: untraced.once(inputs))
        tracer.install(run.dcpnp)
        _, inputs = run.time_set_up()
        traced = DirectSolves(run, tracer)
        timed_loop(run.seconds / 2, lambda: traced.once(inputs))
        before, after = untraced.walls, traced.walls
        root = "solver.run"
        pool = {"experiment.artifact_bytes": 0, "experiment.pool_idle_frac": 0.0,
                "experiment.pool_rows_per_min": 0.0}
    tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"spans-{run.workload}-seed{run.seed}.jsonl")
    values = layer_metrics(tracer, root)
    values.update(pool)
    values["operators.build_rss_mb"] = build_rss_mb
    values["trace.overhead_frac"] = float(np.median(after) / np.median(before) - 1.0)
    note = f"{len(after)} traced / {len(before)} untraced reconstructions"
    return {key: (value, note) for key, value in values.items()}


# --- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    dcpnp = import_dcpnp()
    refs = References(args.toy)
    run = Run(dcpnp, workload_config(dcpnp, args.workload, args.toy), args.workload, args.seed,
              refs.instance(args.seed), refs, args.seconds)
    facts = machine_facts()
    print(f"perfbench {args.workload} seed={args.seed} (instance {run.instance}) "
          f"trace={args.trace}{' toy' if args.toy else ''} seconds={args.seconds:g}")
    print("machine " + json.dumps(facts))

    measured = (per_layer if args.trace else end_to_end)(run)
    tally = run.tally
    missing = sorted(set(units) - set(measured))
    if missing:
        raise SystemExit(f"perfbench: declared metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        value, note = measured[name]
        if not math.isfinite(value):
            raise SystemExit(f"perfbench: {name} is not finite ({value})")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}  ({note})")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, instance=run.instance,
                  trace=args.trace, toy=args.toy, seconds=args.seconds, machine=facts,
                  notes={name: measured[name][1] for name in units})
    suffix = "-toy" if args.toy else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
