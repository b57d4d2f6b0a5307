"""Polynomially Preconditioned CG (TeaLeaf's tl_use_ppcg).

CG whose preconditioner is a fixed number of Chebyshev smoothing steps —
TeaLeaf's communication-avoiding option.  The polynomial application is
SPD for any inner step count, so outer CG theory holds.

:func:`protected_ppcg_run` is the ABFT variant: the outer iteration's
matrix and state vectors are protected and scheduled through the
:class:`~repro.protect.engine.DeferredVerificationEngine`, while the
polynomial preconditioner runs sandboxed on plain working arrays (its
input is a verified read and its output is committed through the engine,
the "opaque preconditioner" treatment) with every inner SpMV still
counted against the matrix check schedule.
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.solvers.base import LinearOperator, SolverResult, as_operator
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
    """PPCG: outer CG with a Chebyshev-polynomial preconditioner."""
    op = as_operator(A)
    if eig_bounds is None:
        eig_bounds = estimate_eigenvalue_bounds(op)
    eig_min, eig_max = eig_bounds
    M = _ChebyshevPolyPreconditioner(op.matvec, eig_min, eig_max, inner_steps)

    x = np.zeros(op.n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - op.matvec(x)
    z = M.apply(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    norms = [float(np.linalg.norm(r))]
    converged = norms[0] ** 2 < eps
    it = 0
    while not converged and it < max_iters:
        w = op.matvec(p)
        pw = float(np.dot(p, w))
        if pw == 0.0:
            break
        alpha = rz / pw
        x += alpha * p
        r -= alpha * w
        norms.append(float(np.linalg.norm(r)))
        it += 1
        if norms[-1] ** 2 < eps:
            converged = True
            break
        z = M.apply(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolverResult(
        x=x, iterations=it, converged=converged, residual_norms=norms,
        info={"inner_steps": inner_steps, "eig_bounds": eig_bounds},
    )


def protected_ppcg_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    inner_steps: int = 4,
    eig_bounds: tuple[float, float] | None = None,
    policy: CheckPolicy | None = None,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected PPCG driven by the deferred-verification engine.

    The outer state vectors (x, r, p) are ABFT-protected; the Chebyshev
    polynomial is applied to plain working arrays, but each of its inner
    SpMVs goes through the engine so the matrix schedule (full check or
    range check per access) still covers the preconditioner's traffic.
    """
    # The context force-verifies the matrix before anything decodes it:
    # the eigenvalue estimate tunes the Chebyshev polynomial for the
    # whole solve, so it must not be poisoned by a correctable flip the
    # forced check would have fixed.
    ctx = ProtectedIteration(
        matrix, policy=policy, engine=engine, vector_scheme=vector_scheme,
        session=session,
    )
    if eig_bounds is None:
        # Estimate over just-verified clean views — no whole-matrix
        # to_csr() decode, the estimate only needs matvec.  Fused solves
        # defer the up-front sweep, so force it before decoding here.
        ctx.ensure_verified()
        eig_bounds = estimate_eigenvalue_bounds(
            LinearOperator(matrix.matvec_unchecked, matrix.n_rows, matrix.diagonal)
        )
    eig_min, eig_max = eig_bounds
    M = _ChebyshevPolyPreconditioner(ctx.spmv, eig_min, eig_max, inner_steps)
    x = ctx.wrap(np.zeros(ctx.n) if x0 is None else x0, "x")
    r0 = b - ctx.initial_spmv(ctx.read(x))
    z0 = M.apply(r0)
    r = ctx.wrap(r0, "r")
    p = ctx.wrap(z0, "p")
    rz = float(np.dot(r0, z0))
    norms = [float(np.linalg.norm(r0))]
    converged = norms[0] ** 2 < eps
    it = 0
    ctx.maybe_checkpoint(it)
    while True:
        try:
            while not converged and it < max_iters:
                ctx.begin_iteration()
                p_val = ctx.read(p)
                w = ctx.spmv(p_val)
                pw = float(np.dot(p_val, w))
                if pw == 0.0:
                    break
                alpha = rz / pw
                x = ctx.write(x, ctx.read(x) + alpha * p_val)
                r_val = ctx.read(r) - alpha * w
                r = ctx.write(r, r_val)
                norms.append(float(np.linalg.norm(r_val)))
                it += 1
                if norms[-1] ** 2 < eps:
                    converged = True
                    break
                z = M.apply(r_val)
                rz_new = float(np.dot(r_val, z))
                p = ctx.write(p, z + (rz_new / rz) * p_val)
                rz = rz_new
                ctx.maybe_checkpoint(it)

            x_final = ctx.value_of(x)
            ctx.finish()
            break
        except ctx.RECOVERABLE as exc:
            saved = ctx.recover(exc)
            if saved is not None:
                it = int(saved["it"])
            # Restart from the authoritative iterate: true residual,
            # fresh preconditioned search direction.
            r_val = b - ctx.spmv(ctx.read(x))
            z = M.apply(r_val)
            r = ctx.write(r, r_val)
            p = ctx.write(p, z)
            rz = float(np.dot(r_val, z))
            norms.append(float(np.linalg.norm(r_val)))
            converged = norms[-1] ** 2 < eps
    return SolverResult(
        x=x_final, iterations=it, converged=converged, residual_norms=norms,
        info=ctx.info(inner_steps=inner_steps, eig_bounds=eig_bounds),
    )
