"""Conjugate Gradient — the paper's solver of record (TeaLeaf's tl_use_cg).

Two drivers:

* :func:`cg_solve` — textbook (optionally preconditioned) CG over any
  :class:`~repro.solvers.base.LinearOperator`: the reference the bitwise
  tests compare against, and the path for non-CSR operators and
  ``preconditioner=``;
* :func:`protected_cg_run` — the pipeline every CG on CSR storage runs
  through, whatever the codec: the matrix is a
  :class:`~repro.protect.matrix.ProtectedCSRMatrix` verified per the
  check policy before each SpMV, and the solver state vectors (x, r, p)
  live in :class:`~repro.protect.vector.ProtectedVector` containers.
  All protected traffic flows through a
  :class:`~repro.protect.engine.DeferredVerificationEngine` via the
  shared :class:`~repro.solvers.toolkit.ProtectedIteration` context:
  reads are cached decode-free views, writes are (optionally
  dirty-window buffered) whole-codeword commits, and integrity checks
  run on the policy's amortised schedule with a mandatory end-of-step
  sweep.  Under :meth:`ProtectionConfig.off()
  <repro.protect.config.ProtectionConfig.off>` every one of those is a
  passthrough and the run is bitwise :func:`cg_solve` — the unprotected
  baseline is this loop with a null codec, not a second solver.

The protected variant also keeps the CG *alpha/beta* scalars out of
protected storage, exactly as the kernels in the paper do (scalars live
in registers).
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.solvers.base import SolverResult, as_operator
from repro.solvers.preconditioner import IdentityPreconditioner
from repro.solvers.toolkit import ProtectedIteration


def cg_solve(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    preconditioner=None,
) -> SolverResult:
    """Solve ``A x = b`` for SPD ``A`` by (preconditioned) CG.

    Convergence criterion matches TeaLeaf's: stop when the *squared*
    residual 2-norm drops below ``eps``.
    """
    op = as_operator(A)
    M = preconditioner or IdentityPreconditioner()
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
        z = M.apply(r)
        rz_new = float(np.dot(r, z))
        norms.append(float(np.linalg.norm(r)))
        it += 1
        if norms[-1] ** 2 < eps:
            converged = True
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolverResult(x=x, iterations=it, converged=converged, residual_norms=norms)


def protected_cg_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    policy: CheckPolicy | None = None,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected CG: ABFT matrix + (optionally) ABFT state vectors.

    Parameters
    ----------
    policy:
        Per-region check schedule; defaults to a full check before every
        SpMV and a vector check every iteration.  ``interval > 1`` (and
        ``vector_interval > 1``) amortises the checks across iterations
        via the deferred-verification engine.
    vector_scheme:
        Scheme for the solver's dense vectors, or ``None`` to leave the
        vectors unprotected (the Fig. 4-8 configurations protect only the
        matrix; Fig. 9 adds the vectors).
    engine:
        Supply a pre-built :class:`DeferredVerificationEngine` (e.g. to
        share a schedule across solves); its policy then drives the
        whole solve, so ``policy`` must be left ``None`` or be the same
        object.
    session:
        The owning :class:`~repro.protect.session.ProtectionSession`,
        when the mandatory end-of-step sweep is scheduled by the caller
        instead of this solve.

    Returns the result with ``info`` carrying the policy counters; the
    end-of-step sweep (mandatory when the policy defers checks or
    buffers writes) is included before returning unless a session owns
    the schedule.
    """
    ctx = ProtectedIteration(
        matrix, policy=policy, engine=engine, vector_scheme=vector_scheme,
        session=session,
    )
    engine = ctx.engine
    x = ctx.wrap(np.zeros(ctx.n) if x0 is None else x0, "x")
    r0 = b - ctx.initial_spmv(ctx.read(x))
    r = ctx.wrap(r0, "r")
    p = ctx.wrap(r0, "p")
    rr = float(np.dot(ctx.read(r), ctx.read(r)))
    norms = [float(np.sqrt(rr))]
    converged = rr < eps
    it = 0
    ctx.maybe_checkpoint(it)
    while True:
        try:
            while not converged and it < max_iters:
                ctx.begin_iteration()
                p_val = ctx.read(p)
                w = ctx.spmv(p_val, out=ctx.spmv_out())
                pw = float(np.dot(p_val, w))
                if pw == 0.0:
                    break
                alpha = rr / pw
                x = ctx.write(x, ctx.read(x) + alpha * p_val)
                r_val = ctx.read(r) - alpha * w
                r = ctx.write(r, r_val)
                rr_new = float(np.dot(r_val, r_val))
                norms.append(float(np.sqrt(rr_new)))
                it += 1
                if rr_new < eps:
                    converged = True
                    break
                p = ctx.write(p, r_val + (rr_new / rr) * p_val)
                rr = rr_new
                ctx.maybe_checkpoint(it)

            # Mandatory end-of-step sweep when checks were deferred
            # (§VI.A.2); a session defers it to its own end_step().
            x_final = ctx.value_of(x)
            ctx.finish()
            break
        except ctx.RECOVERABLE as exc:
            saved = ctx.recover(exc)  # repairs state; raises if recovery is off
            if saved is not None:
                it = int(saved["it"])
            # Restart the recurrence from the authoritative iterate: the
            # rolled-back / repaired x defines the true residual, so any
            # recurrence drift the corruption caused is discarded.
            r_val = b - ctx.spmv(ctx.read(x))
            r = ctx.write(r, r_val)
            p = ctx.write(p, r_val)
            rr = float(np.dot(r_val, r_val))
            norms.append(float(np.sqrt(rr)))
            converged = rr < eps
    return SolverResult(
        x=x_final, iterations=it, converged=converged,
        residual_norms=norms, info=ctx.info(),
    )
