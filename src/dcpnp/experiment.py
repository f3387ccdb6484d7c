"""Experiment configuration, measurement simulation, and the benchmark runner.

A config fully determines a grid of (task, variant, seed) rows. Each row
simulates measurements from a phantom, runs the solver, scores the
reconstruction, and writes its artifacts into its own directory. Rows are
independent and may execute in a worker pool; aggregation happens after all
rows finish, in a fixed order, so outputs are byte-reproducible for a given
config (wall-clock timings are segregated into runlog.csv, which carries no
reproducibility guarantee).
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import itertools
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fidelity import CgConfig
from .grid_core import channels, from_channels, save_grid, save_pgm, write_table
from .metrics import psnr, ssim
from .operators import (
    FourierMaskOperator,
    LinearOperator,
    RadonOperator,
    make_cartesian_mask,
    make_limited_angle_geometry,
    make_sparse_view_geometry,
)
from .phantoms import PhantomSpec, make_phantom, mri_phantom
from .priors import Denoiser, GaussianPriorDenoiser, IdentityDenoiser, NoiseSchedule, TvProxDenoiser
from .reductions import norm
from .solver import SolverStepError, VariantSpec, run
from .spectral import ShConfig

TASKS = ("svct", "lact", "mri")

# the ablation's roles: the memoryless baseline, dual coupling alone, and the
# full method (dual coupling plus spectral homogenization)
MEMORYLESS = VariantSpec(False, "none").label
DUAL_ONLY = VariantSpec(True, "none").label
FULL_METHOD = VariantSpec(True, "sh").label
ABLATION_VARIANTS = (MEMORYLESS, VariantSpec(False, "sh").label, DUAL_ONLY, FULL_METHOD)


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark configuration. The field defaults are the svct reference
    setup: 20 uniform views, 363 detector bins at 256px, 50 outer steps, and
    equidistant Cartesian AF-6 masking if the task is mri. The other tasks'
    reference settings (lact: 90 views over [0, 90], CG budget 100; mri:
    320px) are `_TASK_DEFAULTS`, which only `default_config` and
    `load_config` apply: `ExperimentConfig(task="lact")` keeps 20 views and
    CG budget 20, and `task="mri"` keeps 256px."""

    # experiment
    task: str = "svct"
    phantom: str = "shepp-logan"
    image_side: int = 256
    measurement_noise_std: float = 0.0
    variants: tuple[str, ...] = (FULL_METHOD,)
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"
    workers: int = 1
    psnr_peak: float = 2.0
    # ct geometry
    n_views: int = 20
    max_angle: float = 90.0
    detector_bins: int = 0  # 0 -> derived default (363 up to 256px)
    # mri geometry
    af: int = 6
    center_lines: int = 16
    # schedule
    steps: int = 50
    sigma_max: float = 1.0
    sigma_min: float = 0.01
    spacing: str = "geometric"
    # denoiser
    denoiser: str = "tv-prox"
    tv_weight: float = 1.0
    tv_iters: int = 50
    # data-consistency solve
    cg_iters: int = 20
    lam0: float = 1e-05
    # spectral homogenization
    sh_window: int = 7

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.variants:
            raise ValueError("at least one variant is required")
        for label in self.variants:
            VariantSpec.from_label(label)
        for build in (self.make_denoiser, self.schedule, self.cg_config, self.sh_config):
            build()  # a bad knob fails here, not in every row after the pool has forked
        if self.task == "mri":  # runs only its own complex Shepp-Logan, at any side
            PhantomSpec(self.phantom)  # an unknown kind fails as it does for every task
            if self.phantom != "shepp-logan":
                raise ValueError("task mri runs only the shepp-logan phantom, "
                                 f"got {self.phantom!r}")
        else:
            PhantomSpec(self.phantom, self.image_side)

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(self.sigma_max, self.sigma_min, self.steps, self.spacing)

    def cg_config(self) -> CgConfig:
        return CgConfig(self.cg_iters, lam=self.lam0)

    def sh_config(self) -> ShConfig:
        return ShConfig(self.sh_window)

    def make_denoiser(self) -> Denoiser:
        """The denoiser `denoiser` names: tv-prox, gaussian-prior or identity."""
        if self.denoiser == "tv-prox":
            return TvProxDenoiser(self.tv_weight, self.tv_iters)
        if self.denoiser == "gaussian-prior":
            zero = np.zeros((self.image_side, self.image_side))
            return GaussianPriorDenoiser(zero, tau=1.0)
        if self.denoiser == "identity":
            return IdentityDenoiser()
        raise ValueError(f"unknown denoiser {self.denoiser!r}; a config can select "
                         "tv-prox, gaussian-prior or identity")


# task-specific overrides applied on top of the dataclass defaults
_TASK_DEFAULTS = {
    "lact": {"n_views": 90, "cg_iters": 100},
    "mri": {"image_side": 320},
}


def default_config(task: str = "svct", **overrides) -> ExperimentConfig:
    params = dict(_TASK_DEFAULTS.get(task, {}))
    params.update(overrides)
    return ExperimentConfig(task=task, **params)


# --- config file parsing ------------------------------------------------------

_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELD_TYPES[name]
    raw = raw.strip()
    if f.type in ("int", int):
        return int(raw)
    if f.type in ("float", float):
        return float(raw)
    if name in ("variants",):
        return tuple(part.strip() for part in raw.split(";") if part.strip())
    if name in ("seeds",):
        return tuple(int(part) for part in raw.replace(",", " ").split())
    return raw


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a sectioned key-value config file; unknown keys are errors.

    Sections are organizational only; keys are globally unique and map to
    ExperimentConfig fields. `variants` is a ;-separated list of labels,
    `seeds` a list of integers.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    params: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            if key in params:
                raise ValueError(f"duplicate config key {key!r}")
            params[key] = _parse_value(key, raw)
    file_task = params.pop("task", None)
    task = overrides.pop("task", None) or file_task or "svct"
    merged = dict(params)
    merged.update(overrides)
    return default_config(task, **merged)


# config.resolved section names, keyed by each section's first field; the
# ExperimentConfig fields are declared in section order.
_SECTION_STARTS = {
    "task": "experiment",
    "n_views": "geometry",
    "steps": "schedule",
    "denoiser": "denoiser",
    "cg_iters": "fidelity",
    "sh_window": "spectral",
}


def write_config(path, cfg: ExperimentConfig) -> None:
    lines = []
    for f in dataclasses.fields(cfg):
        if f.name in _SECTION_STARTS:
            lines.append(f"\n[{_SECTION_STARTS[f.name]}]")
        value = getattr(cfg, f.name)
        if f.name == "variants":
            value = "; ".join(value)
        elif f.name == "seeds":
            value = " ".join(str(s) for s in value)
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines).lstrip("\n") + "\n")


# --- measurement simulation ---------------------------------------------------


def _rng_for(seed: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, role])))


def build_operator(cfg: ExperimentConfig) -> LinearOperator:
    bins = cfg.detector_bins if cfg.detector_bins > 0 else None
    if cfg.task == "svct":
        geo = make_sparse_view_geometry(cfg.n_views, cfg.image_side, bins)
        return RadonOperator(geo)
    if cfg.task == "lact":
        geo = make_limited_angle_geometry(cfg.n_views, cfg.max_angle, cfg.image_side, bins)
        return RadonOperator(geo)
    mask = make_cartesian_mask(cfg.image_side, cfg.image_side, cfg.af, cfg.center_lines)
    return FourierMaskOperator(mask)


def build_phantom(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    if cfg.task == "mri":
        return mri_phantom(cfg.image_side)
    spec = PhantomSpec(kind=cfg.phantom, side=cfg.image_side)
    return make_phantom(spec, _rng_for(seed, 1))


def simulate_measurements(op: LinearOperator, truth: np.ndarray, cfg: ExperimentConfig,
                          seed: int) -> np.ndarray:
    y = op.apply(truth)
    if cfg.measurement_noise_std > 0:
        noise_rng = _rng_for(seed, 2)
        noise = from_channels([noise_rng.standard_normal(c.shape) for c in channels(y)])
        y = y + cfg.measurement_noise_std * noise
    return y


# --- the row runner -----------------------------------------------------------


@dataclass
class MetricRow:
    task: str
    variant: str
    seed: int
    psnr: float
    ssim: float
    data_residual: float
    wall_time: float
    status: str = "ok"


_METRIC_COLUMNS = ("task", "variant", "seed", "psnr", "ssim", "data_residual", "status")

_OPERATOR_CACHE: dict = {}


def _cached_operator(cfg: ExperimentConfig) -> LinearOperator:
    key = (cfg.task, cfg.image_side, cfg.n_views, cfg.max_angle, cfg.detector_bins, cfg.af,
           cfg.center_lines)
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE.clear()  # keep at most one matrix resident
        _OPERATOR_CACHE[key] = build_operator(cfg)
    return _OPERATOR_CACHE[key]


def run_row(cfg: ExperimentConfig, variant_label: str, seed: int) -> MetricRow:
    start = time.perf_counter()
    run_dir = _run_dir(cfg, variant_label, seed)
    try:
        op = _cached_operator(cfg)
        truth = build_phantom(cfg, seed)
        y = simulate_measurements(op, truth, cfg, seed)
        variant = VariantSpec.from_label(variant_label)
        recon, trace = run(
            op, y, cfg.make_denoiser(), cfg.schedule(), variant,
            cfg.cg_config(), cfg.sh_config(), _rng_for(seed, 0),
            ground_truth=truth, psnr_peak=cfg.psnr_peak,
        )
        row = MetricRow(
            task=cfg.task,
            variant=variant_label,
            seed=seed,
            psnr=psnr(recon, truth, cfg.psnr_peak),
            ssim=ssim(recon, truth, data_range=cfg.psnr_peak),
            data_residual=norm(op.apply(recon) - y),
            wall_time=time.perf_counter() - start,
        )
        run_dir.mkdir(parents=True, exist_ok=True)
        save_grid(run_dir / "recon.dcpg", recon)
        save_pgm(run_dir / "recon.pgm", recon)
        trace.write_csv(run_dir / "trace.csv")
        trace.write_spectral_csv(run_dir / "spectral.csv")
        write_config(run_dir / "config.resolved", cfg)
        (run_dir / "error.txt").unlink(missing_ok=True)  # left by an earlier failed run
        return row
    except Exception as exc:  # keep the remaining rows running
        row = MetricRow(cfg.task, variant_label, seed, float("nan"), float("nan"),
                        float("nan"), time.perf_counter() - start,
                        status=f"error: {type(exc).__name__}: {exc}")
        with contextlib.suppress(OSError):  # the status line still records the failure
            _write_error(run_dir, row, exc)
        return row


def _run_dir(cfg: ExperimentConfig, variant_label: str, seed: int) -> Path:
    dirname = variant_label.replace("=", "-").replace(",", "_")
    return Path(cfg.out_dir) / f"{cfg.task}_{dirname}_seed{seed}"


def _write_error(run_dir: Path, row: MetricRow, exc: Exception) -> None:
    """error.txt: which row failed, at which iteration if known, and the traceback."""
    header = [f"task: {row.task}", f"variant: {row.variant}", f"seed: {row.seed}"]
    if isinstance(exc, SolverStepError):
        header.append(f"iteration: {exc.k}")
    header.append(f"status: {row.status}")
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "error.txt").write_text("\n".join(header) + "\n\n"
                                       + "".join(traceback.format_exception(exc)))


def run_experiment(cfg: ExperimentConfig) -> list[MetricRow]:
    """Execute the full (variant x seed) grid and write summary CSVs."""
    labels, seeds = zip(*itertools.product(cfg.variants, cfg.seeds))
    if cfg.workers > 1 and len(labels) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(run_row, [cfg] * len(labels), labels, seeds))
    else:
        rows = list(map(run_row, [cfg] * len(labels), labels, seeds))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", rows)
    write_table(out / "runlog.csv", ("task", "variant", "seed", "status", "wall_time"),
                ([r.task, r.variant, r.seed, r.status, f"{r.wall_time:.3f}"] for r in rows))
    write_config(out / "config.resolved", cfg)
    return rows


def write_metrics_csv(path, rows: list[MetricRow]) -> None:
    """Deterministic metric table: no timing columns, repr'd floats."""
    write_table(path, _METRIC_COLUMNS,
                ([getattr(row, col) for col in _METRIC_COLUMNS] for row in rows))


def ablate(cfg: ExperimentConfig) -> list[MetricRow]:
    """Run the 2x2 coupling/injection grid used for the component ablation."""
    return run_experiment(dataclasses.replace(cfg, variants=ABLATION_VARIANTS))


def mean_psnr(rows: list[MetricRow]) -> dict[str, float]:
    """{variant: mean PSNR of its ok rows}, in first-seen order; a variant
    with no ok row is left out."""
    by_variant: dict[str, list[float]] = {}
    for row in rows:
        if row.status == "ok":
            by_variant.setdefault(row.variant, []).append(row.psnr)
    return {variant: float(np.mean(values)) for variant, values in by_variant.items()}


def sweep_nfe(cfg: ExperimentConfig, step_counts) -> dict[int, list[MetricRow]]:
    """Compute-budget sweep: {K: rows} of the memoryless baseline and the full
    method run at each outer-step count K, each budget an ordinary experiment
    in `<out_dir>/steps{K}`. Every budget's config is built, and so checked,
    before the first budget runs."""
    if len(set(step_counts)) < len(step_counts):
        raise ValueError(f"step_counts repeats a budget: {tuple(step_counts)}")
    out = Path(cfg.out_dir)
    configs = {k: dataclasses.replace(cfg, steps=k, variants=(MEMORYLESS, FULL_METHOD),
                                      out_dir=str(out / f"steps{k}")) for k in step_counts}
    return {k: run_experiment(budget_cfg) for k, budget_cfg in configs.items()}
