"""The unified solver registry and the top-level ``repro.solve`` entry point.

The paper's §VIII remark — that the right long-term home for these
techniques is the solver-library level — becomes concrete here: every
solver method registers under one name, and :func:`solve` dispatches on
``method=`` + ``protection=`` so the caller never touches per-solver
protection plumbing:

    import repro
    res = repro.solve(A, b, method="jacobi",
                      protection=repro.ProtectionConfig.deferred(window=16))

There is one routing rule: **on CSR storage every method runs its one
engine-threaded body** (``SolverMethod.protected``), whatever
``protection`` is —

* ``None`` (or a disabled config) — the unprotected baseline is that
  body under the null codec (:meth:`ProtectionConfig.off`), bitwise
  equal to the method's textbook function;
* a :class:`~repro.protect.config.ProtectionConfig` — the matrix is
  wrapped per the config and a fresh deferred-verification engine runs
  the solve;
* a :class:`~repro.protect.session.ProtectionSession` — the session's
  long-lived engine runs the solve and keeps its dirty windows open
  across the solve boundary (the cross-time-step mode).  A session over
  a disabled config owns an ``off()`` engine, so it is the baseline
  too.

The textbook ``*_solve`` function (``SolverMethod.plain``) is what the
bitwise tests compare against, and what runs for an operator that is
not CSR storage (nothing to wrap, so unprotected only).

Runner signatures are uniform: ``plain(A, b, x0, *, eps, max_iters,
**kw)`` and ``protected(pmat, b, x0, *, eps, max_iters,
vector_scheme=..., engine=None, session=None, **kw)``; method-specific
extras (``preconditioner``, ``inner_steps``, ``eig_min``...) pass
through ``**kw`` to either.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections.abc import Callable

import numpy as np

from repro.csr.matrix import CSRMatrix
from repro.errors import ConfigurationError
from repro.protect.config import ProtectionConfig, _solve_config, _wrap_for_solve
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.session import ProtectionSession
from repro.solvers.base import SolverResult
from repro.solvers.block import _sequential_block, protected_block_cg_run
from repro.solvers.cg import cg_solve, protected_cg_run
from repro.solvers.chebyshev import chebyshev_solve, protected_chebyshev_run
from repro.solvers.jacobi import jacobi_solve, protected_jacobi_run
from repro.solvers.ppcg import ppcg_solve, protected_ppcg_run


@dataclasses.dataclass(frozen=True)
class SolverMethod:
    """One registered solver: the textbook function and the engine-threaded body."""

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


register_method("cg", cg_solve, protected_cg_run,
                "conjugate gradient (TeaLeaf tl_use_cg)")
register_method("ppcg", ppcg_solve, protected_ppcg_run,
                "polynomially preconditioned CG (tl_use_ppcg)")
register_method("jacobi", jacobi_solve, protected_jacobi_run,
                "Jacobi sweeps (tl_use_jacobi)")
register_method("chebyshev", chebyshev_solve, protected_chebyshev_run,
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
    maybe a session; unprotected is :meth:`ProtectionConfig.off`), pick
    the engine (the session's, or a fresh one), pick the body from the
    rank of ``b``.  ``ProtectionSession.solve`` forwards here.

    Parameters
    ----------
    A:
        A :class:`~repro.csr.matrix.CSRMatrix`; a pre-wrapped
        :class:`~repro.protect.matrix.ProtectedCSRMatrix` is used as-is.
        Any other operator (``matvec`` + ``shape``) runs the method's
        textbook function, unprotected only.
    b:
        The right-hand side.  A 2-D ``(n, k)`` block runs one blocked
        CG (:func:`~repro.solvers.block.protected_block_cg_run`), which
        amortises verification and dispatch across the ``k`` columns and
        returns a :class:`~repro.solvers.block.BlockResult`; methods
        without a blocked runner, and method-specific kwargs
        (``preconditioner=`` included), fall back to ``k`` sequential
        solves with identical per-column results.
    protection:
        ``None`` (or a disabled config) for the unprotected baseline, a
        :class:`ProtectionConfig` for a one-shot protected solve, or a
        :class:`ProtectionSession` to run under a shared cross-solve
        engine — see the module docstring for the one routing rule.
    distributed:
        Shard the solve across this many worker processes via
        :func:`repro.dist.solve.distributed_solve` (unpreconditioned CG
        only; any ``protection`` config then applies per shard and its
        recovery policy also governs shard-death respawns).
        ``None``/``0`` stays single-process.
    kwargs:
        Method-specific extras (``preconditioner`` — honoured under
        every ``protection``, see :mod:`repro.solvers.cg` for the
        opaque-preconditioner contract — ``inner_steps``,
        ``eig_bounds``, ``eig_min``/``eig_max``, ``check_every``;
        ``kill_plan``/``hang_plan``/``round_timeout`` for distributed
        solves).
    """
    blocked = b is not None and np.ndim(b) == 2
    if distributed:
        from repro.dist.solve import distributed_solve

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
        unsupported = sorted(
            set(kwargs) - set(inspect.signature(distributed_solve).parameters)
        )
        if unsupported:
            raise ConfigurationError(
                f"distributed solves do not support {', '.join(unsupported)}=; "
                "drop it or drop distributed="
            )
        return distributed_solve(
            A, b, x0, n_shards=int(distributed), method=method,
            protection=protection, eps=eps, max_iters=max_iters, **kwargs,
        )
    if isinstance(protection, ProtectionSession):
        session, config = protection, protection.config
    else:
        session, config = None, _solve_config(protection)
    on_csr = isinstance(A, (CSRMatrix, ProtectedCSRMatrix))
    if config.enabled and not on_csr:
        raise ConfigurationError(
            f"protection wraps CSR storage; a {type(A).__name__} operator "
            "can only be solved unprotected"
        )
    if blocked and (method != "cg" or kwargs or not on_csr):
        return _sequential_block(A, b, x0, method=method, protection=protection,
                                 eps=eps, max_iters=max_iters, **kwargs)
    if not on_csr:
        return get_method(method).plain(A, b, x0, eps=eps, max_iters=max_iters,
                                        **kwargs)
    runner = protected_block_cg_run if blocked else get_method(method).protected
    if session is not None:
        return session.run(runner, A, b, x0, eps=eps, max_iters=max_iters,
                           **kwargs)
    return runner(
        _wrap_for_solve(config, A), b, x0, eps=eps, max_iters=max_iters,
        engine=config.engine(), vector_scheme=config.vector_scheme, **kwargs,
    )
