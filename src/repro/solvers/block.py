"""Blocked multi-RHS CG: amortize verification and dispatch across columns.

A server batch of compatible jobs — same matrix, same method, same
protection — is ``k`` independent linear systems sharing one operator.
Running them as ``k`` sequential solves pays the fixed per-iteration
costs ``k`` times: every kernel dispatch, every SECDED codeword screen,
every scheduled check.  Blocking the right-hand sides into one
``(k, n)`` iterate pays each of those once per iteration and amortizes
it across all ``k`` columns — the classic ABFT block-operation argument
(Bosilca et al., arXiv:0806.3121) applied to the paper's protected
solver stack:

* the matrix product is the same rank-polymorphic fused SpMV the
  single-RHS solve uses
  (:meth:`~repro.protect.matrix.ProtectedCSRMatrix.spmv_verified` over a
  ``(k, n)`` operand): each ``(value, colidx)`` codeword chunk is
  syndromed **once** and its decoded element feeds all ``k`` gathers;
* the solver state lives in
  :class:`~repro.protect.vector.ProtectedBlockVector` stores — one
  dirty-window schedule, one cache populate, one scheduled check per
  iterate regardless of ``k``;
* the CG recurrence carries per-column ``alpha``/``beta`` scalars and a
  convergence mask, so finished columns freeze (their rows are copied
  verbatim — never scaled by a zero step, which would flip ``-0.0`` to
  ``+0.0``) while stragglers keep iterating.

Column parity, precisely: with group-1 vector schemes (``sed``,
``secded64`` — all presets) column ``j`` of a blocked solve is **bitwise
identical** to the corresponding single-RHS solve under a fresh engine,
because every per-column operation reuses the single-RHS arithmetic
exactly — contiguous-row ``np.dot`` for the scalars, elementwise
broadcast updates for the axpys, the same left-to-right row reduction
inside the blocked SpMV, and one engine access per iteration so the due
pattern matches.  Grouped vector schemes (``secded128``, ``crc32c``)
keep full protection but build codewords that straddle column
boundaries when ``n`` is not a multiple of the group — a documented
deviation (results still match; only the codeword partition differs).

The unprotected blocked solve is this same runner under the null codec
(:meth:`~repro.protect.config.ProtectionConfig.off`), so its columns are
bitwise :func:`~repro.solvers.cg.cg_solve` too.  The single-RHS
recurrence (:func:`~repro.solvers.cg.protected_cg_run`) stays a separate
body: at ``k = 1`` the per-column masking here costs ~1.2x on a
cache-resident system, so :func:`repro.solve` picks the body from the
rank of ``b``.  Only that body takes a preconditioner: a blocked ``b``
with ``preconditioner=`` runs :func:`_sequential_block`, like every
other method kwarg.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult
from repro.solvers.toolkit import ProtectedIteration


@dataclasses.dataclass
class BlockResult:
    """The result of one blocked multi-RHS solve.

    ``x`` is ``(n, k)`` — column ``j`` solves against column ``j`` of
    the right-hand-side block.  ``iterations``/``converged`` are
    per-column arrays and ``residual_norms`` one history list per
    column.  :meth:`column` re-packages any column as a standalone
    :class:`~repro.solvers.base.SolverResult`.
    """

    x: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual_norms: list
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def k(self) -> int:
        """The block width (number of right-hand sides)."""
        return self.x.shape[1]

    def column(self, j: int) -> SolverResult:
        """Column ``j`` as a standalone single-RHS solver result."""
        return SolverResult(
            x=np.ascontiguousarray(self.x[:, j]),
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            residual_norms=list(self.residual_norms[j]),
            info=dict(self.info),
        )


def _per_column(value, k: int, name: str) -> np.ndarray:
    """Normalize a scalar-or-length-``k`` parameter to a float64 array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(k, float(arr))
    if arr.shape != (k,):
        raise ConfigurationError(
            f"{name} must be a scalar or a length-{k} sequence, "
            f"got shape {arr.shape}"
        )
    return arr.copy()


def _block_rhs(B: np.ndarray) -> np.ndarray:
    """Validate and transpose a public ``(n, k)`` RHS block to ``(k, n)``."""
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[1] == 0:
        raise ConfigurationError(
            "blocked solves expect a 2-D (n, k) right-hand-side block "
            f"with k >= 1, got shape {B.shape}"
        )
    return np.ascontiguousarray(B.T)


def _block_x0(X0, k: int, n: int) -> np.ndarray:
    """The ``(k, n)`` initial iterate block (zeros when ``X0`` is None)."""
    if X0 is None:
        return np.zeros((k, n), dtype=np.float64)
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.shape != (n, k):
        raise ConfigurationError(
            f"x0 block must have shape ({n}, {k}), got {X0.shape}"
        )
    return np.ascontiguousarray(X0.T)


def protected_block_cg_run(
    matrix: ProtectedCSRMatrix,
    B: np.ndarray,
    X0: np.ndarray | None = None,
    *,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    vector_scheme: str | None = "secded64",
    engine=None,
    session=None,
) -> BlockResult:
    """Blocked CG over a ``(n, k)`` block: one verification schedule for k systems.

    Column ``j`` replicates :func:`~repro.solvers.cg.protected_cg_run`
    bitwise (under a fresh engine with a group-1 vector scheme, or the
    null codec): the blocked iterate makes exactly one engine matrix
    access per iteration — the same due pattern as a solo solve — and a
    due access runs the fused kernel over the whole block, verifying
    every codeword once for all ``k`` products.  ``eps``/``max_iters``
    may be scalars or length-``k`` sequences for per-column targets.
    Frozen (converged or broken-down) columns have their rows
    of ``x``/``r``/``p`` carried verbatim through each commit while the
    stragglers iterate.  DUE recovery mirrors the single-RHS runner:
    repair/rollback through the context, then restart the recurrence for
    *all* columns from the authoritative iterate block.
    """
    Bt = _block_rhs(B)
    k = Bt.shape[0]
    eps_c = _per_column(eps, k, "eps")
    mi_c = _per_column(max_iters, k, "max_iters").astype(np.int64)
    ctx = ProtectedIteration(
        matrix, engine=engine, vector_scheme=vector_scheme, session=session,
    )
    n = ctx.n
    X = ctx.wrap(_block_x0(X0, k, n), "x")
    R0 = Bt - ctx.initial_spmv(ctx.read(X))
    R = ctx.wrap(R0, "r")
    P = ctx.wrap(R0, "p")
    Rv = ctx.read(R)
    rr = np.array([float(np.dot(Rv[j], Rv[j])) for j in range(k)])
    norms = [[float(np.sqrt(rr[j]))] for j in range(k)]
    converged = rr < eps_c
    broken = np.zeros(k, dtype=bool)
    iters = np.zeros(k, dtype=np.int64)
    step = 0
    ctx.maybe_checkpoint(step, iters=[int(v) for v in iters])

    def loop():
        nonlocal X, R, P, step
        while (active := ~converged & ~broken & (iters < mi_c)).any():
            ctx.begin_iteration()
            idx = np.flatnonzero(active)
            P_val = ctx.read(P)
            W = ctx.spmv(P_val, out=ctx.spmv_out((k,)))
            pw = np.zeros(k)
            for j in idx:
                pw[j] = float(np.dot(P_val[j], W[j]))
            dead = idx[pw[idx] == 0.0]
            if dead.size:
                broken[dead] = True
                idx = idx[pw[idx] != 0.0]
            if idx.size == 0:
                continue
            alpha = rr[idx] / pw[idx]
            Xv = ctx.read(X)
            Rv = ctx.read(R)
            if idx.size == k:
                X_new = Xv + alpha[:, None] * P_val
                R_new = Rv - alpha[:, None] * W
            else:
                # Frozen columns are copied verbatim — never scaled by a
                # zero step, which would rewrite -0.0 as +0.0.
                X_new = np.array(Xv)
                X_new[idx] = Xv[idx] + alpha[:, None] * P_val[idx]
                R_new = np.array(Rv)
                R_new[idx] = Rv[idx] - alpha[:, None] * W[idx]
            X = ctx.write(X, X_new)
            R = ctx.write(R, R_new)
            step += 1
            cont = []
            rr_new = np.zeros(k)
            for j in idx:
                rr_new[j] = float(np.dot(R_new[j], R_new[j]))
                norms[j].append(float(np.sqrt(rr_new[j])))
                iters[j] += 1
                if rr_new[j] < eps_c[j]:
                    converged[j] = True
                else:
                    cont.append(int(j))
            if cont:
                cidx = np.asarray(cont)
                beta = rr_new[cidx] / rr[cidx]
                if cidx.size == k:
                    P_new = R_new + beta[:, None] * P_val
                else:
                    P_new = np.array(P_val)
                    P_new[cidx] = R_new[cidx] + beta[:, None] * P_val[cidx]
                P = ctx.write(P, P_new)
                rr[cidx] = rr_new[cidx]
            ctx.maybe_checkpoint(step, iters=[int(v) for v in iters])
        return X

    def restart(saved):
        # Every column restarts from the authoritative iterate block,
        # exactly as the single-RHS runner restarts from x.
        nonlocal R, P, step
        if saved is not None:
            step = int(saved["it"])
            iters[:] = saved.get("iters", iters)
        R_val = Bt - ctx.spmv(ctx.read(X))
        R = ctx.write(R, R_val)
        P = ctx.write(P, R_val)
        broken[:] = False
        for j in range(k):
            rr[j] = float(np.dot(R_val[j], R_val[j]))
            norms[j].append(float(np.sqrt(rr[j])))
        converged[:] = rr < eps_c

    X_final = ctx.run(loop, restart)
    return BlockResult(
        x=np.ascontiguousarray(X_final.T),
        iterations=iters,
        converged=converged,
        residual_norms=norms,
        info=ctx.info(block_width=k),
    )


def _sequential_block(
    A, B, X0=None, *, method="cg", protection=None,
    eps=1e-15, max_iters=10_000, **kwargs,
) -> BlockResult:
    """The per-column fallback: ``k`` single-RHS solves, assembled as a block.

    Used when the method has no blocked runner, method-specific kwargs
    (``preconditioner=`` included) are in play, or the operator is not
    CSR storage.  Results are
    definitionally identical to solo solves.
    """
    from repro.solvers.registry import solve as _solve

    B = _block_rhs(B).T
    k = B.shape[1]
    eps_c = _per_column(eps, k, "eps")
    mi_c = _per_column(max_iters, k, "max_iters").astype(np.int64)
    X0 = None if X0 is None else np.asarray(X0, dtype=np.float64)
    columns = []
    for j in range(k):
        x0j = None if X0 is None else X0[:, j]
        columns.append(_solve(
            A, B[:, j], x0j, method=method, protection=protection,
            eps=float(eps_c[j]), max_iters=int(mi_c[j]), **kwargs,
        ))
    return _block_from_columns(columns)


def _block_from_columns(columns: list[SolverResult]) -> BlockResult:
    """Assemble per-column solver results into one :class:`BlockResult`."""
    return BlockResult(
        x=np.ascontiguousarray(np.stack([c.x for c in columns], axis=1)),
        iterations=np.array([c.iterations for c in columns], dtype=np.int64),
        converged=np.array([c.converged for c in columns], dtype=bool),
        residual_norms=[list(c.residual_norms) for c in columns],
        info={
            "block_width": len(columns),
            "sequential_fallback": True,
            "columns": [dict(c.info) for c in columns],
        },
    )
