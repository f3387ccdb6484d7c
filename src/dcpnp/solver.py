"""Outer dual-coupled plug-and-play iteration and its ablation variants.

One iteration: (1) data-consistency solve pulled toward z - u (closed form
where the operator has one, conjugate gradients otherwise), (2) optional
dual shift v = x + u and noise injection (spectral homogenization, naive
white noise, or nothing), (3) denoiser call at the scheduled noise level,
(4) dual accumulation u += x - z. Switching the dual shift off and the
injection off recovers the memoryless half-quadratic splitting baseline.

`certify_fixed_point` drives `run` at a constant noise level, without
injection, on convex instances with the exact Gaussian-prior denoiser,
where the fixed point is known in closed form, and reports
consensus/stationarity residuals (dual on) or the systematic offset from
the true minimizer (dual off).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .fidelity import CgConfig, prox_data_consistency
from .grid_core import channels, from_channels, make_rng, write_table
from .metrics import psnr
from .operators import DenseOperator, LinearOperator
from .priors import Denoiser, GaussianPriorDenoiser, NoiseSchedule
from .reductions import norm
from .spectral import ShConfig, SpectralReport, homogenize, naive_inject

DIVERGENCE_LIMIT = 1e12

# the certificates' base penalty and constant noise level
CERTIFY_LAM, CERTIFY_SIGMA = 1.0, 0.5


class SolverStepError(RuntimeError):
    """A sub-step failed; remembers the outer iteration index."""

    def __init__(self, k: int, original: Exception | str):
        super().__init__(f"iteration {k}: {original}")
        self.k = k


class SolverDivergence(SolverStepError):
    """State norm exploded at iteration k; carries the trace collected so far."""

    def __init__(self, k: int, message: str, trace: "IterationTrace"):
        super().__init__(k, message)
        self.trace = trace


@dataclass(frozen=True)
class VariantSpec:
    """Ablation switchboard: dual coupling on/off x injection mode."""

    dual_coupling: bool = True
    injection: str = "sh"  # "sh" | "naive" | "none"

    def __post_init__(self):
        if self.injection not in ("sh", "naive", "none"):
            raise ValueError(f"unknown injection mode {self.injection!r}")

    @property
    def label(self) -> str:
        return f"dual={'on' if self.dual_coupling else 'off'},inject={self.injection}"

    @classmethod
    def from_label(cls, label: str) -> "VariantSpec":
        """The variant whose `label` is `label`, one of `VARIANT_LABELS`."""
        if label not in _VARIANTS:
            raise ValueError(f"unknown variant {label!r}; the variants are "
                             f"{'; '.join(VARIANT_LABELS)}")
        return _VARIANTS[label]


_VARIANTS = {v.label: v for v in (VariantSpec(dual, injection) for dual in (True, False)
                                  for injection in ("sh", "naive", "none"))}
VARIANT_LABELS = tuple(_VARIANTS)


@dataclass
class SolverState:
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray


@dataclass
class IterationRecord:
    """One outer iteration, one `trace.csv` row; the fields are its columns.

    `data_residual` is ||Ax - y|| of the data-step output x, not of the
    prior iterate z that `run` returns: the `data_residual` of
    `metrics.csv` is that of z, and the two can order variants oppositely.
    """

    k: int
    sigma: float
    lam: float
    cg_iterations: int
    cg_converged: bool
    cg_residual: float | None  # None when the step was solved exactly
    data_residual: float
    consensus_residual: float
    dual_norm: float
    psnr: float | None = None
    injected_energy: float | None = None
    flatness_before: float | None = None
    flatness_after: float | None = None
    peak_to_floor: float | None = None


@dataclass
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    TRACE_COLUMNS = tuple(f.name for f in fields(IterationRecord))
    SPECTRAL_COLUMNS = (
        "k", "sigma", "injected_energy", "flatness_before", "flatness_after",
        "peak_to_floor",
    )

    def _write(self, path, columns) -> None:
        write_table(path, columns, ([getattr(r, col) for col in columns] for r in self.records))

    def write_csv(self, path) -> None:
        self._write(path, self.TRACE_COLUMNS)

    def write_spectral_csv(self, path) -> None:
        self._write(path, self.SPECTRAL_COLUMNS)


def initialize(
    op: LinearOperator,
    y: np.ndarray,
    rng: np.random.Generator,
    init_noise_std: float = 1.0,
) -> SolverState:
    """Back-projected start, white-noise prior iterate, zero dual."""
    x0 = op.adjoint(y)
    if op.is_complex or np.iscomplexobj(x0):
        x0 = x0.astype(np.complex128)
    if init_noise_std < 0:
        raise ValueError(f"init_noise_std must be nonnegative, got {init_noise_std}")
    z0 = from_channels([init_noise_std * rng.standard_normal(op.domain_shape)
                        for _ in channels(x0)])
    u0 = np.zeros_like(z0)
    return SolverState(x=x0, z=z0, u=u0)


def dual_update(state: SolverState) -> SolverState:
    """Accumulate the primal residual into the scaled dual: u += x - z."""
    return replace(state, u=state.u + (state.x - state.z))


def _check_state_finite(state: SolverState, trace: IterationTrace) -> None:
    """Raise SolverDivergence if x, z or u blew up; u's norm is the last record's."""
    record = trace.records[-1]
    for name, size in (("x", norm(state.x)), ("z", norm(state.z)), ("u", record.dual_norm)):
        if not math.isfinite(size) or size > DIVERGENCE_LIMIT:
            raise SolverDivergence(record.k, f"state {name} diverged (norm {size:.3e})", trace)


def run(
    op: LinearOperator,
    y: np.ndarray,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    variant: VariantSpec,
    cg: CgConfig,
    sh: ShConfig,
    rng: np.random.Generator,
    ground_truth: np.ndarray | None = None,
    psnr_peak: float = 2.0,
    on_iteration=None,
) -> tuple[np.ndarray, IterationTrace]:
    """Run the full outer loop and return the final prior iterate plus trace.

    The CG penalty is rescheduled per iteration as cg.lam / sigma_k^2, so
    `cg.lam` plays the role of the base penalty coefficient. `on_iteration`,
    when given, is called as on_iteration(k, state) after each dual update;
    a truthy return ends the loop after that iteration.
    """
    state = initialize(op, y, rng, init_noise_std=sched.sigma_max)
    trace = IterationTrace()
    for k in range(sched.steps):
        sigma = sched.sigma(k)
        t = sched.timestep(k)
        lam = cg.lam / sigma**2
        try:
            cg_res = prox_data_consistency(op, y, state.z, state.u, replace(cg, lam=lam))
            x = cg_res.x
            v = x + state.u if variant.dual_coupling else x
            report: SpectralReport | None = None
            if variant.injection == "sh":
                v_tilde, report = homogenize(v, state.z, sigma, sh, rng)
            elif variant.injection == "naive":
                v_tilde = naive_inject(v, sigma, rng)
            else:
                v_tilde = v
            z = denoiser.denoise(v_tilde, sigma, t)
            state = SolverState(x=x, z=z, u=state.u)
            if variant.dual_coupling:
                state = dual_update(state)
        except Exception as exc:  # attach the iteration index for diagnosis
            raise SolverStepError(k, exc) from exc

        record = IterationRecord(
            k=k,
            sigma=sigma,
            lam=lam,
            cg_iterations=cg_res.iterations,
            cg_converged=cg_res.converged,
            cg_residual=cg_res.residual_norms[-1] if cg_res.residual_norms else None,
            data_residual=norm(op.apply(x) - y),
            consensus_residual=norm(x - z),
            dual_norm=norm(state.u),
            psnr=psnr(z, ground_truth, psnr_peak) if ground_truth is not None else None,
            **(asdict(report) if report is not None else {}),
        )
        trace.records.append(record)
        _check_state_finite(state, trace)
        if on_iteration is not None and on_iteration(k, state):
            break
    return state.z, trace


# --- fixed-point certification ------------------------------------------------


@dataclass
class FixedPointCertificate:
    """Stationary-noise convergence evidence on one convex instance.

    For dual-on runs `consensus` and `stationarity` should vanish and
    `error_vs_optimum` measures the distance to the closed-form minimizer of
    the effective objective. For dual-off runs `error_vs_optimum` is the
    systematic bias and `prediction_error` checks the iterate against the
    closed-form biased fixed point.
    """

    converged: bool
    consensus: float
    stationarity: float
    dual_balance: float
    error_vs_optimum: float
    prediction_error: float | None
    x: np.ndarray


def _dense_normal_solve(op: LinearOperator, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form (A'A + lam I)^-1 rhs; dense operators solve exactly,
    anything else goes through the data-consistency step: the operator's own
    closed form where it has one, else CG pushed to machine precision."""
    if isinstance(op, DenseOperator):
        a = op.matrix
        gram = a.T @ a + lam * np.eye(a.shape[1])
        return np.linalg.solve(gram, rhs.ravel()).reshape(op.domain_shape)
    zero_u = np.zeros(op.domain_shape)
    n = op.domain_shape[0] * op.domain_shape[1]
    cfg = CgConfig(max_iters=max(10 * n, 1000), tol=1e-14, lam=lam)
    # (A'A + lam I) x = rhs is the data-consistency prox at y = 0, z = rhs / lam
    return prox_data_consistency(op, np.zeros(op.range_shape), rhs / lam, zero_u, cfg).x


def certify_fixed_point(
    op: LinearOperator,
    y: np.ndarray,
    denoiser: GaussianPriorDenoiser,
    dual_coupling: bool,
    tol: float,
    max_iters: int,
) -> FixedPointCertificate:
    """Run `run` at the constant noise level sigma = 0.5, with base penalty
    lam = 1, to convergence and certify it.

    Requires the Gaussian-prior denoiser, whose proximal identity makes the
    effective objective  ||Ax-y||^2 + lam_eff ||x-mu0||^2  explicit with
    lam_eff = lam sigma^2 / tau^2; the dual-off scheme instead settles at
    the closed-form biased point with shrinkage lam sigma^2/(tau^2+sigma^2).
    """
    if not isinstance(denoiser, GaussianPriorDenoiser):
        raise ValueError("certification requires the gaussian-prior denoiser")
    lam, sigma = CERTIFY_LAM, CERTIFY_SIGMA
    tau = denoiser.tau
    mu0 = np.broadcast_to(denoiser.mu0, op.domain_shape).astype(
        np.result_type(denoiser.mu0, np.float64))
    lam_eff = lam * sigma**2 / tau**2

    aty = op.adjoint(y)
    optimum = _dense_normal_solve(op, aty + lam_eff * mu0, lam_eff)

    last: SolverState | None = None
    converged = False

    def stop(k: int, state: SolverState) -> bool:
        nonlocal last, converged
        if dual_coupling:
            converged = float(np.linalg.norm(state.x - state.z)) <= 0.1 * tol
        elif last is not None:
            # the consensus gap never vanishes here (that is the bias); the
            # fixed point is reached when the iterates stop moving
            moved = np.linalg.norm(state.x - last.x) + np.linalg.norm(state.z - last.z)
            converged = bool(moved <= 0.01 * tol)
        last = state
        return converged

    # a constant schedule holds sigma fixed; run's penalty is cg.lam / sigma^2
    n = op.domain_shape[0] * op.domain_shape[1]
    run(op, y, denoiser, NoiseSchedule(sigma, sigma, max_iters),
        VariantSpec(dual_coupling, "none"), CgConfig(max(200, 10 * n), 1e-13, lam * sigma**2),
        ShConfig(), make_rng(0), on_iteration=stop)
    x, z, u = last.x, last.z, last.u

    grad_f = op.adjoint(op.apply(x) - y)
    consensus = float(np.linalg.norm(x - z))
    stationarity = float(np.linalg.norm(grad_f + lam_eff * (x - mu0)))
    dual_balance = float(np.linalg.norm(grad_f + lam * u))
    error = float(np.linalg.norm(x - optimum))

    prediction_error = None
    if not dual_coupling:
        shrink = lam * sigma**2 / (tau**2 + sigma**2)
        predicted = _dense_normal_solve(op, aty + shrink * mu0, shrink)
        prediction_error = float(np.linalg.norm(x - predicted))

    return FixedPointCertificate(
        converged=converged,
        consensus=consensus,
        stationarity=stationarity,
        dual_balance=dual_balance,
        error_vs_optimum=error,
        prediction_error=prediction_error,
        x=x,
    )


def certification_instance(seed: int, n: int = 16):
    """Convex instance (op, y, denoiser) drawn from make_rng(seed): an n x n
    Gaussian operator scaled by 1/sqrt(n), clean measurements of a Gaussian
    truth, and the Gaussian-prior denoiser (tau = 1) around a random mean."""
    rng = make_rng(seed)
    op = DenseOperator(rng.standard_normal((n, n)) / math.sqrt(n))
    y = op.apply(rng.standard_normal((n, 1)))
    return op, y, GaussianPriorDenoiser(rng.standard_normal((n, 1)), tau=1.0)


def certify_pair(
    op: LinearOperator,
    y: np.ndarray,
    denoiser: GaussianPriorDenoiser,
    tol: float,
    max_iters: int,
) -> tuple[FixedPointCertificate, FixedPointCertificate, float]:
    """Dual-on and dual-off certificates of one instance at lam = 1, sigma = 0.5,
    plus the dual-off bias over the dual-on error (how much the dual removes)."""
    on, off = (certify_fixed_point(op, y, denoiser, dual_coupling=dual, tol=tol,
                                   max_iters=max_iters)
               for dual in (True, False))
    return on, off, off.error_vs_optimum / max(on.error_vs_optimum, 1e-300)
