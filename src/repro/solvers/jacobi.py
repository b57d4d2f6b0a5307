"""Jacobi iteration (TeaLeaf's tl_use_jacobi).

Slowly convergent but embarrassingly parallel; kept as the paper's host
application offers it as an alternative solver and because its different
kernel mix (no dot products in the hot loop) exercises a different ABFT
cost profile in the ablation benchmarks.

:func:`protected_jacobi_run` is the engine-threaded ABFT variant: the
matrix schedule covers every sweep's SpMV, the x/r state vectors live in
protected containers with decode-free cached reads and dirty-window
buffered stores, and the diagonal is decoded once from the matrix's
cached clean views instead of per sweep.
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult, as_operator
from repro.solvers.toolkit import ProtectedIteration


def jacobi_solve(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    check_every: int = 10,
) -> SolverResult:
    """Solve ``A x = b`` by damped-free Jacobi sweeps.

    ``x_{k+1} = x_k + D^-1 (b - A x_k)``.  The residual norm is evaluated
    every ``check_every`` sweeps (it costs an extra SpMV-equivalent).
    """
    op = as_operator(A)
    d_inv = 1.0 / op.diagonal()
    x = np.zeros(op.n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - op.matvec(x)
    norms = [float(np.linalg.norm(r))]
    converged = norms[0] ** 2 < eps
    it = 0
    while not converged and it < max_iters:
        x += d_inv * r
        it += 1
        r = b - op.matvec(x)
        if it % check_every == 0 or it == max_iters:
            norms.append(float(np.linalg.norm(r)))
            if norms[-1] ** 2 < eps:
                converged = True
    return SolverResult(x=x, iterations=it, converged=converged, residual_norms=norms)


def protected_jacobi_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    check_every: int = 10,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected Jacobi driven by the deferred-verification engine.

    Mirrors :func:`jacobi_solve` step for step (same update recurrence,
    same ``check_every`` residual cadence) so iteration counts match the
    plain solver up to the mantissa-LSB noise, with the x/r state under
    ``vector_scheme`` and every SpMV counted against the matrix schedule.
    """
    ctx = ProtectedIteration(
        matrix, engine=engine, vector_scheme=vector_scheme, session=session,
    )
    # The whole solve iterates against this one decoded diagonal, so it
    # is read from verified storage (a fused schedule defers the sweep).
    d_inv = 1.0 / ctx.verified_operator().diagonal()
    x = ctx.wrap(np.zeros(ctx.n) if x0 is None else x0, "x")
    r_val = b - ctx.initial_spmv(ctx.read(x))
    r = ctx.wrap(r_val, "r")
    norms = [float(np.linalg.norm(r_val))]
    converged = norms[0] ** 2 < eps
    it = 0
    ctx.maybe_checkpoint(it)

    def loop():
        nonlocal x, r, it, converged
        while not converged and it < max_iters:
            ctx.begin_iteration()
            x_val = ctx.read(x) + d_inv * ctx.read(r)
            x = ctx.write(x, x_val)
            it += 1
            r_val = b - ctx.spmv(x_val)
            r = ctx.write(r, r_val)
            if it % check_every == 0 or it == max_iters:
                norms.append(float(np.linalg.norm(r_val)))
                if norms[-1] ** 2 < eps:
                    converged = True
            ctx.maybe_checkpoint(it)
        return x

    def restart(saved):
        # Jacobi is memoryless: the true residual of the repaired /
        # rolled-back x is the whole restart.
        nonlocal r, it, converged
        if saved is not None:
            it = int(saved["it"])
        r_val = b - ctx.spmv(ctx.read(x))
        r = ctx.write(r, r_val)
        norms.append(float(np.linalg.norm(r_val)))
        converged = norms[-1] ** 2 < eps

    x_final = ctx.run(loop, restart)
    return SolverResult(
        x=x_final, iterations=it, converged=converged,
        residual_norms=norms, info=ctx.info(),
    )
