"""Conjugate Gradient — the paper's solver of record (TeaLeaf's tl_use_cg).

* :func:`cg_solve` — textbook (optionally preconditioned) CG over any
  :class:`~repro.solvers.base.LinearOperator`: the reference the bitwise
  tests compare against, and the path for operators that are not CSR
  storage;
* :func:`protected_cg_run` — what every CG on CSR storage runs through,
  whatever the codec and whatever the preconditioner.  The matrix is a
  :class:`~repro.protect.matrix.ProtectedCSRMatrix`, the state vectors
  (x, r, p) live in :class:`~repro.protect.vector.ProtectedVector`
  containers, and all protected traffic flows through the engine via
  the shared :class:`~repro.solvers.toolkit.ProtectedIteration`
  context: cached decode-free reads, (dirty-window buffered)
  whole-codeword commits, checks on the policy's amortised schedule
  with a mandatory end-of-step sweep.  Under
  :meth:`~repro.protect.config.ProtectionConfig.off` each of those is a
  passthrough and the run is bitwise :func:`cg_solve` — the unprotected
  baseline is this loop with a null codec, not a second solver.

There is one single-RHS recurrence, :func:`_cg_recurrence`, and the
preconditioner ``M`` is data to it (anything with ``.apply(r)``;
``None`` is plain CG).  ``M`` is *opaque* in the sense of Elliott /
Hoemmen / Mueller (arXiv:1404.5552): its input is derived from verified
reads, its output ``z`` enters protected storage only through the
engine's commit of ``p``, and nothing it keeps is trusted across
iterations.  :func:`~repro.solvers.ppcg.protected_ppcg_run` is the same
recurrence with a Chebyshev polynomial for ``M``.  The *alpha/beta*
scalars stay out of protected storage, as in the paper's kernels
(scalars live in registers).
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult, as_operator
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
    x = np.zeros(op.n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - op.matvec(x)
    z = r if preconditioner is None else preconditioner.apply(r)
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
        z = r if preconditioner is None else preconditioner.apply(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolverResult(x=x, iterations=it, converged=converged, residual_norms=norms)


def _cg_recurrence(
    ctx: ProtectedIteration,
    b: np.ndarray,
    x0: np.ndarray | None,
    M,
    *,
    eps: float,
    max_iters: int,
    **info,
) -> SolverResult:
    """The single-RHS (preconditioned) CG body, on an already-built context.

    ``M is None`` is plain CG: ``z`` is ``r`` and ``r.z`` the squared
    residual norm the convergence test computed anyway.  ``info`` is
    merged into the result's counter block.
    """

    def direction(r_val, rr):
        """``(z, r.z)`` for a residual whose squared norm is ``rr``."""
        if M is None:
            return r_val, rr
        z = M.apply(r_val)
        return z, float(np.dot(r_val, z))

    x = ctx.wrap(np.zeros(ctx.n) if x0 is None else x0, "x")
    r_val = b - ctx.initial_spmv(ctx.read(x))
    r = ctx.wrap(r_val, "r")
    # Plain CG measures its seed residual as stored (reserved mantissa
    # bits masked); a preconditioner is fed the working array, and the
    # seed norm then comes from the same array.
    rr = (float(np.dot(ctx.read(r), ctx.read(r))) if M is None
          else float(np.dot(r_val, r_val)))
    z, rz = direction(r_val, rr)
    p = ctx.wrap(z, "p")
    norms = [float(np.sqrt(rr))]
    converged = rr < eps
    it = 0
    ctx.maybe_checkpoint(it)

    def loop():
        nonlocal x, r, p, rz, it, converged
        while not converged and it < max_iters:
            ctx.begin_iteration()
            p_val = ctx.read(p)
            w = ctx.spmv(p_val, out=ctx.spmv_out())
            pw = float(np.dot(p_val, w))
            if pw == 0.0:
                break
            alpha = rz / pw
            x = ctx.write(x, ctx.read(x) + alpha * p_val)
            r_val = ctx.read(r) - alpha * w
            r = ctx.write(r, r_val)
            rr = float(np.dot(r_val, r_val))
            norms.append(float(np.sqrt(rr)))
            it += 1
            if rr < eps:
                converged = True
                break
            z, rz_new = direction(r_val, rr)
            p = ctx.write(p, z + (rz_new / rz) * p_val)
            rz = rz_new
            ctx.maybe_checkpoint(it)
        return x

    def restart(saved):
        # The rolled-back / repaired x defines the true residual, so any
        # recurrence drift the corruption caused is discarded.
        nonlocal r, p, rz, it, converged
        if saved is not None:
            it = int(saved["it"])
        r_val = b - ctx.spmv(ctx.read(x))
        rr = float(np.dot(r_val, r_val))
        z, rz = direction(r_val, rr)
        r = ctx.write(r, r_val)
        p = ctx.write(p, z)
        norms.append(float(np.sqrt(rr)))
        converged = rr < eps

    x_final = ctx.run(loop, restart)
    return SolverResult(
        x=x_final, iterations=it, converged=converged,
        residual_norms=norms, info=ctx.info(**info),
    )


def protected_cg_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    preconditioner=None,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected CG: ABFT matrix + (optionally) ABFT state vectors.

    Parameters
    ----------
    preconditioner:
        Anything with ``.apply(r)`` (e.g. a
        :class:`~repro.solvers.preconditioner.JacobiPreconditioner`), run
        as opaque — see the module docstring.  ``None`` is plain CG.
    vector_scheme:
        Scheme for the solver's dense vectors, or ``None`` to leave the
        vectors unprotected (the Fig. 4-8 configurations protect only the
        matrix; Fig. 9 adds the vectors).
    engine:
        The :class:`DeferredVerificationEngine` whose policy schedules
        the solve's checks; defaults to a full check before every SpMV
        and a vector check every iteration.  ``interval > 1`` (and
        ``vector_interval > 1``) amortises the checks across iterations.
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
        matrix, engine=engine, vector_scheme=vector_scheme, session=session,
    )
    return _cg_recurrence(ctx, b, x0, preconditioner, eps=eps, max_iters=max_iters)
