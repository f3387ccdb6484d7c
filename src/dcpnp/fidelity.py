"""Proximal data-consistency step: an exact solve where the operator has
one, conjugate gradients everywhere else.

Minimizes ||Ax - y||^2 + lam * ||x - (z - u)||^2. An operator whose
`prox_solve` has a closed form answers directly: the masked Fourier (MRI)
operator, for lam > 0, with one FFT and one inverse FFT; CG spent five
FFTs there and always converged in its first step. Such a step reports
`iterations=0`, `converged=True` and no residual norms. Every other
operator (Radon, dense, identity), and lam = 0, goes through the
regularized normal equations (A'A + lam I) x = A'y + lam (z - u),
warm-started from z - u. Plain CG, no preconditioner: the fixed iteration
budgets are part of the controlled solver comparison and must not be
perturbed.

CG's inner products and norms come from `reductions`, which sums them in
one fixed order on a single BLAS thread: results do not depend on the BLAS
thread count, and no BLAS worker wakes up to spin on the CPUs the threaded
Radon matvec needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOperator
from .reductions import inner, norm


@dataclass(frozen=True)
class CgConfig:
    """CG budget and penalty for one data-consistency solve."""

    max_iters: int = 20
    tol: float = 1e-10
    lam: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.lam < 0:
            raise ValueError("penalty must be nonnegative")


@dataclass
class CgResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float] = field(default_factory=list)


def prox_data_consistency(
    op: LinearOperator,
    y: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    cfg: CgConfig,
) -> CgResult:
    """Solve the penalized least-squares subproblem, exactly where the
    operator offers a closed form, else to the CG stopping rule.

    CG stops once the normal-equation gradient norm drops below tol * ||b||
    (slightly stricter than a bare relative-residual test, so a converged
    status certifies the first-order optimality bound) or the iteration
    budget runs out. With lam = 0 on a rank-deficient operator the solve can
    legitimately exhaust the budget; that is reported via `converged`, not
    raised.
    """
    for name, grid in (("y", y), ("z", z), ("u", u)):
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"non-finite values in {name}")
    if z.shape != op.domain_shape or u.shape != op.domain_shape:
        raise ValueError("z and u must live in the operator domain")
    if y.shape != op.range_shape:
        raise ValueError("y must live in the operator range")

    lam = cfg.lam
    warm = z - u
    exact = op.prox_solve(y, warm, lam)
    if exact is not None:
        return CgResult(x=exact, converged=True, iterations=0)

    def normal(v: np.ndarray) -> np.ndarray:
        return op.adjoint(op.apply(v)) + lam * v

    b = op.adjoint(y) + lam * warm
    b_norm = norm(b)
    threshold = 0.5 * cfg.tol * b_norm

    x = warm.copy()
    r = b - normal(x)
    p = r.copy()
    rs = inner(r, r)
    history = [float(np.sqrt(rs))]
    converged = history[0] <= threshold
    iters = 0
    while not converged and iters < cfg.max_iters:
        np_p = normal(p)
        curvature = inner(p, np_p)
        if curvature <= 0.0:
            break  # numerical breakdown; report non-converged
        alpha = rs / curvature
        x = x + alpha * p
        r = r - alpha * np_p
        rs_next = inner(r, r)
        history.append(float(np.sqrt(rs_next)))
        iters += 1
        if history[-1] <= threshold:
            converged = True
            break
        p = r + (rs_next / rs) * p
        rs = rs_next
    return CgResult(x=x, converged=converged, iterations=iters, residual_norms=history)
