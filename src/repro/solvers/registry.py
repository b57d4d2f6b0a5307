"""The unified solver registry and the top-level ``repro.solve`` entry point.

The paper's §VIII remark — that the right long-term home for these
techniques is the solver-library level — becomes concrete here: every
solver method registers a *plain* runner and an engine-threaded
*protected* runner under one name, and :func:`solve` dispatches on
``method=`` + ``protection=`` so the caller never touches per-solver
protection plumbing:

    import repro
    res = repro.solve(A, b, method="jacobi",
                      protection=repro.ProtectionConfig.deferred(window=16))

``protection`` accepts:

* ``None`` (or a disabled config) — the unprotected baseline: for CG on
  CSR storage the *same* runner under the null codec
  (:meth:`ProtectionConfig.off`), for everything else the plain solver;
* a :class:`~repro.protect.config.ProtectionConfig` — the matrix is
  wrapped per the config and a fresh deferred-verification engine runs
  the solve;
* a :class:`~repro.protect.session.ProtectionSession` — the session's
  long-lived engine runs the solve and keeps its dirty windows open
  across the solve boundary (the cross-time-step mode).

Runner signatures are uniform: ``plain(A, b, x0, *, eps, max_iters,
**kw)`` and ``protected(pmat, b, x0, *, eps, max_iters, policy=None,
vector_scheme=..., engine=None, session=None, **kw)``; method-specific
extras (``preconditioner``, ``inner_steps``, ``eig_min``...) pass
through ``**kw``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.csr.matrix import CSRMatrix
from repro.errors import ConfigurationError
from repro.protect.config import ProtectionConfig
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.session import ProtectionSession
from repro.solvers.base import SolverResult, as_operator
from repro.solvers.block import _sequential_block, protected_block_cg_run
from repro.solvers.cg import cg_solve, protected_cg_run
from repro.solvers.chebyshev import (
    chebyshev_solve,
    estimate_eigenvalue_bounds,
    protected_chebyshev_run,
)
from repro.solvers.jacobi import jacobi_solve, protected_jacobi_run
from repro.solvers.ppcg import ppcg_solve, protected_ppcg_run


@dataclasses.dataclass(frozen=True)
class SolverMethod:
    """One registered solver: a plain and an engine-threaded runner."""

    name: str
    plain: Callable[..., SolverResult]
    protected: Callable[..., SolverResult]
    description: str = ""


_METHODS: dict[str, SolverMethod] = {}


def register_method(
    name: str,
    plain: Callable[..., SolverResult],
    protected: Callable[..., SolverResult],
    description: str = "",
) -> SolverMethod:
    """Add (or replace) a method in the registry and return its record."""
    method = SolverMethod(name=name, plain=plain, protected=protected,
                          description=description)
    _METHODS[name] = method
    return method


def get_method(name: str) -> SolverMethod:
    """Look a method up by name, with a helpful error for typos."""
    try:
        return _METHODS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown solver method {name!r}; choose from {sorted(_METHODS)}"
        ) from None


def available_methods() -> tuple[str, ...]:
    """The registered method names, sorted."""
    return tuple(sorted(_METHODS))


def run_plain(runner: SolverMethod, A, b, x0=None, *,
              eps: float = 1e-15, max_iters: int = 10_000, **kwargs) -> SolverResult:
    """The plain runners: every method but CG, and CG on what the null
    codec cannot wrap (non-CSR operators, ``preconditioner=``).

    A pre-wrapped protected matrix is decoded so the plain runner always
    sees CSR storage.
    """
    if isinstance(A, ProtectedCSRMatrix):
        A = A.to_csr()
    return runner.plain(A, b, x0, eps=eps, max_iters=max_iters, **kwargs)


def _plain_chebyshev(A, b, x0=None, *, eps=1e-15, max_iters=10_000,
                     eig_min=None, eig_max=None, **kwargs) -> SolverResult:
    """Chebyshev with TeaLeaf's bound bootstrap when none are supplied."""
    if eig_min is None or eig_max is None:
        eig_min, eig_max = estimate_eigenvalue_bounds(as_operator(A))
    return chebyshev_solve(A, b, x0, eig_min=eig_min, eig_max=eig_max,
                           eps=eps, max_iters=max_iters, **kwargs)


register_method("cg", cg_solve, protected_cg_run,
                "conjugate gradient (TeaLeaf tl_use_cg)")
register_method("ppcg", ppcg_solve, protected_ppcg_run,
                "polynomially preconditioned CG (tl_use_ppcg)")
register_method("jacobi", jacobi_solve, protected_jacobi_run,
                "Jacobi sweeps (tl_use_jacobi)")
register_method("chebyshev", _plain_chebyshev, protected_chebyshev_run,
                "Chebyshev semi-iteration (tl_use_chebyshev)")


def solve(
    A,
    b,
    x0=None,
    *,
    method: str = "cg",
    protection: ProtectionConfig | ProtectionSession | None = None,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    distributed: int | None = None,
    **kwargs,
):
    """Solve ``A x = b`` with any registered method under any protection.

    The one routing function: normalise ``protection`` to a config (and
    maybe a session), pick the engine (the session's, or a fresh one),
    pick the runner from the rank of ``b``.  ``ProtectionSession.solve``
    forwards here.

    Parameters
    ----------
    A:
        A :class:`~repro.csr.matrix.CSRMatrix` (or any operator, for the
        unprotected path).  A pre-wrapped
        :class:`~repro.protect.matrix.ProtectedCSRMatrix` is used as-is.
    b:
        The right-hand side.  A 2-D ``(n, k)`` block runs one blocked
        CG (:func:`~repro.solvers.block.protected_block_cg_run`), which
        amortises verification and dispatch across the ``k`` columns and
        returns a :class:`~repro.solvers.block.BlockResult`; methods
        without a blocked runner, and method-specific kwargs, fall back
        to ``k`` sequential solves with identical per-column results.
    protection:
        ``None`` (or a disabled config) for the unprotected baseline, a
        :class:`ProtectionConfig` for a one-shot protected solve, or a
        :class:`ProtectionSession` to run under a shared cross-solve
        engine.  Unprotected CG on CSR storage is not a second solver:
        it runs the same runners under the null codec
        (:meth:`ProtectionConfig.off`), bitwise equal to
        :func:`~repro.solvers.cg.cg_solve`; other methods, non-CSR
        operators and ``preconditioner=`` take the plain runners.
    distributed:
        Shard the solve across this many worker processes via
        :func:`repro.dist.solve.distributed_solve` (CG only; any
        ``protection`` config then applies per shard and its recovery
        policy also governs shard-death respawns).  ``None``/``0`` stays
        single-process.
    kwargs:
        Method-specific extras (``preconditioner``, ``inner_steps``,
        ``eig_bounds``, ``eig_min``/``eig_max``, ``check_every``;
        ``kill_plan``/``round_timeout`` for distributed solves).
    """
    blocked = b is not None and np.ndim(b) == 2
    if distributed:
        if blocked:
            raise ConfigurationError(
                "distributed solves take a single right-hand side; solve "
                "the block's columns separately or drop distributed="
            )
        if isinstance(protection, ProtectionSession):
            raise ConfigurationError(
                "distributed solves take a ProtectionConfig (or None); a "
                "ProtectionSession's engine cannot span shard processes"
            )
        from repro.dist.solve import distributed_solve

        return distributed_solve(
            A, b, x0, n_shards=int(distributed), method=method,
            protection=protection, eps=eps, max_iters=max_iters, **kwargs,
        )
    session = protection if isinstance(protection, ProtectionSession) else None
    config = session.config if session is not None else protection
    if config is None or not config.enabled:
        # Unprotected: CG on CSR storage runs the same runners under the
        # null codec; anything else takes the method's plain runner.
        session = None
        null_codec = (method == "cg" and not kwargs
                      and isinstance(A, (CSRMatrix, ProtectedCSRMatrix)))
        config = ProtectionConfig.off() if null_codec else None
    if blocked and (method != "cg" or kwargs or config is None):
        return _sequential_block(A, b, x0, method=method, protection=protection,
                                 eps=eps, max_iters=max_iters, **kwargs)
    if config is None:
        return run_plain(get_method(method), A, b, x0, eps=eps,
                         max_iters=max_iters, **kwargs)
    runner = protected_block_cg_run if blocked else get_method(method).protected
    if session is not None:
        return session.run(runner, A, b, x0, eps=eps, max_iters=max_iters,
                           **kwargs)
    if config.enabled or isinstance(A, ProtectedCSRMatrix):
        pmat = config.wrap_matrix(A)
    else:
        # Nothing writes through this solve-local wrap (no injection, no
        # re-encode), so the null codec may share the caller's arrays.
        pmat = ProtectedCSRMatrix._alias(A)
    return runner(
        pmat, b, x0, eps=eps, max_iters=max_iters,
        engine=config.engine(), vector_scheme=config.vector_scheme, **kwargs,
    )
