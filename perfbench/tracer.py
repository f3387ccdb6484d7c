"""In-memory span tracing of the dcpnp layers, installed from outside the library.

The tracer replaces public functions and methods of the `dcpnp` modules with
wrappers that record one span per call: name, start, end, parent span and
reconstruction id. Names start with the layer they belong to
(`operators.apply`, `fidelity.prox`, ...). Spans stay in memory until the
benchmark writes them out at the end of a run.

`solver` binds `prox_data_consistency`, `homogenize`, `naive_inject` and
`psnr` as names in its own module, and `experiment` binds `run`, `psnr`,
`ssim`, `save_grid`, `save_pgm`, `build_operator` and friends in its own, so
those names are replaced where they are looked up, not where they are
defined. Operator and denoiser methods are replaced on their classes.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# (module attribute, span name) replaced in the module namespace
_FUNCTIONS = {
    "solver": (
        ("run", "solver.run"),
        ("prox_data_consistency", "fidelity.prox"),
        ("homogenize", "spectral.homogenize"),
        ("naive_inject", "spectral.naive_inject"),
        ("psnr", "metrics.psnr"),
    ),
    "experiment": (
        ("build_operator", "operators.build"),
        ("simulate_measurements", "experiment.measure"),
        ("run", "solver.run"),
        ("psnr", "metrics.psnr"),
        ("ssim", "metrics.ssim"),
        ("save_grid", "experiment.write"),
        ("save_pgm", "experiment.write"),
        ("write_config", "experiment.write"),
        ("write_metrics_csv", "experiment.write"),
    ),
}

OUTSIDE = "outside"  # rec tag of spans that belong to no reconstruction

LAYERS = ("operators", "fidelity", "spectral", "priors", "solver", "metrics", "experiment")


class Tracer:
    """Records nested spans of one thread; `rec` tags the current reconstruction."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, rec]
        self._stack: list[int] = []
        self.rec = OUTSIDE
        self.cg_iterations = 0
        self.cg_converged = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.rec]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _replace(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self, dcpnp) -> None:
        """Wrap the layer boundaries of an imported `dcpnp` package."""
        for module_name, pairs in _FUNCTIONS.items():
            module = getattr(dcpnp, module_name)
            for attr, name in pairs:
                hook = self._count_cg if name == "fidelity.prox" else None
                self._replace(module, attr, name, hook)
        row = dcpnp.experiment.run_row
        self._undo.append((dcpnp.experiment, "run_row", row))
        dcpnp.experiment.run_row = self._tag_row(self.wrap("experiment.row", row))
        for attr in ("write_csv", "write_spectral_csv"):
            self._replace(dcpnp.solver.IterationTrace, attr, "experiment.write")
        self._replace(dcpnp.priors.Denoiser, "denoise", "priors.denoise")
        for cls in vars(dcpnp.operators).values():
            if (isinstance(cls, type) and issubclass(cls, dcpnp.operators.LinearOperator)
                    and cls is not dcpnp.operators.LinearOperator):
                for attr in ("apply", "adjoint"):
                    if attr in vars(cls):
                        self._replace(cls, attr, f"operators.{attr}")

    def _tag_row(self, fn):
        @functools.wraps(fn)
        def tagged(cfg, variant_label, seed, *args, **kwargs):
            outer, self.rec = self.rec, f"{variant_label}/seed{seed}"
            try:
                return fn(cfg, variant_label, seed, *args, **kwargs)
            finally:
                self.rec = outer

        return tagged

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_cg(self, result) -> None:
        self.cg_iterations += result.iterations
        self.cg_converged += bool(result.converged)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, rec) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "rec": rec}) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer counts, busy and self times from the recorded spans.

    `root` names the spans that are whole reconstructions (`solver.run` for
    direct solves, `experiment.row` for grid rows); busy and self times count
    only spans inside a reconstruction, so each layer's `self_share` is its
    share of the traced reconstruction time. Build and measurement times are
    medians over every span, set-up outside reconstructions included.
    """
    spans = tracer.spans
    own = _self_times(spans)
    inside = [rec != OUTSIDE for _, _, _, _, rec in spans]

    def durations(name):
        return [end - start for (n, start, end, _, _), keep in zip(spans, inside)
                if n == name and keep]

    def all_durations(name):
        return [end - start for n, start, end, _, _ in spans if n == name]

    def busy(*names):
        return float(sum(sum(durations(n)) for n in names))

    def median_ms(name):
        values = durations(name)
        return float(np.median(values)) * 1e3 if values else 0.0

    def median_s(name):
        values = all_durations(name)
        return float(np.median(values)) if values else 0.0

    solve_total = busy(root)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), keep, t in zip(spans, inside, own):
        if keep:
            layer_self[name.split(".", 1)[0]] += t

    prox_calls = len(durations("fidelity.prox"))
    out = {
        "operators.apply_calls": len(durations("operators.apply")),
        "operators.adjoint_calls": len(durations("operators.adjoint")),
        "operators.apply_ms_p50": median_ms("operators.apply"),
        "operators.adjoint_ms_p50": median_ms("operators.adjoint"),
        "operators.busy_s": busy("operators.apply", "operators.adjoint"),
        "operators.build_s": median_s("operators.build"),
        "fidelity.calls": prox_calls,
        "fidelity.busy_s": busy("fidelity.prox"),
        "fidelity.self_s": layer_self["fidelity"],
        "fidelity.cg_iterations": tracer.cg_iterations,
        "fidelity.cg_converged_frac": tracer.cg_converged / prox_calls if prox_calls else 0.0,
        "priors.denoise_calls": len(durations("priors.denoise")),
        "priors.denoise_ms_p50": median_ms("priors.denoise"),
        "priors.busy_s": busy("priors.denoise"),
        "spectral.homogenize_calls": len(durations("spectral.homogenize")),
        "spectral.homogenize_ms_p50": median_ms("spectral.homogenize"),
        "spectral.busy_s": busy("spectral.homogenize", "spectral.naive_inject"),
        "solver.busy_s": busy("solver.run"),
        "solver.self_s": layer_self["solver"],
        "metrics.busy_s": busy("metrics.psnr", "metrics.ssim"),
        "experiment.artifact_write_s": busy("experiment.write"),
        "experiment.measure_s": median_s("experiment.measure"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / solve_total if solve_total else 0.0
    return out
