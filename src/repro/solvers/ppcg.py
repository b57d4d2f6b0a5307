"""Polynomially Preconditioned CG (TeaLeaf's tl_use_ppcg).

CG whose preconditioner is a fixed number of Chebyshev smoothing steps —
TeaLeaf's communication-avoiding option.  The polynomial application is
SPD for any inner step count, so outer CG theory holds.

There is no PPCG solver here, only that preconditioner and two
constructors: :func:`ppcg_solve` is :func:`~repro.solvers.cg.cg_solve`
with the polynomial for ``M``, and :func:`protected_ppcg_run` hands the
one protected CG recurrence a polynomial over the *engine's* SpMV.  The
polynomial runs as an opaque preconditioner on plain working arrays
(see :mod:`repro.solvers.cg`), while each of its inner SpMVs still
advances, and is verified on, the matrix check schedule.
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult, as_operator
from repro.solvers.cg import _cg_recurrence, cg_solve
from repro.solvers.chebyshev import estimate_eigenvalue_bounds
from repro.solvers.toolkit import ProtectedIteration


class _ChebyshevPolyPreconditioner:
    """Applies x ~= A^-1 r with `steps` Chebyshev iterations from zero."""

    def __init__(self, matvec, eig_min: float, eig_max: float, steps: int):
        self.matvec = matvec
        self.theta = (eig_max + eig_min) / 2.0
        self.delta = (eig_max - eig_min) / 2.0
        self.sigma = self.theta / self.delta
        self.steps = steps

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        x = np.zeros_like(rhs)
        r = rhs.copy()
        rho = 1.0 / self.sigma
        d = r / self.theta
        for _ in range(self.steps):
            x += d
            r = rhs - self.matvec(x)
            rho_new = 1.0 / (2.0 * self.sigma - rho)
            d = rho_new * rho * d + (2.0 * rho_new / self.delta) * r
            rho = rho_new
        return x


def ppcg_solve(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    inner_steps: int = 4,
    eig_bounds: tuple[float, float] | None = None,
) -> SolverResult:
    """PPCG: :func:`cg_solve` with a Chebyshev-polynomial preconditioner."""
    op = as_operator(A)
    if eig_bounds is None:
        eig_bounds = estimate_eigenvalue_bounds(op)
    M = _ChebyshevPolyPreconditioner(op.matvec, *eig_bounds, inner_steps)
    result = cg_solve(op, b, x0, eps=eps, max_iters=max_iters, preconditioner=M)
    result.info.update(inner_steps=inner_steps, eig_bounds=eig_bounds)
    return result


def protected_ppcg_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    inner_steps: int = 4,
    eig_bounds: tuple[float, float] | None = None,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected PPCG: protected CG with the polynomial for ``M``.

    ``eig_bounds`` may be omitted; they are then estimated from verified
    storage, as TeaLeaf bootstraps them.
    """
    ctx = ProtectedIteration(
        matrix, engine=engine, vector_scheme=vector_scheme, session=session,
    )
    if eig_bounds is None:
        eig_bounds = estimate_eigenvalue_bounds(ctx.verified_operator())
    M = _ChebyshevPolyPreconditioner(ctx.spmv, *eig_bounds, inner_steps)
    return _cg_recurrence(
        ctx, b, x0, M, eps=eps, max_iters=max_iters,
        inner_steps=inner_steps, eig_bounds=eig_bounds,
    )
