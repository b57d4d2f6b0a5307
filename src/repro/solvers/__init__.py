"""Sparse linear solvers (paper §V).

The paper evaluates ABFT inside TeaLeaf's CG solve; TeaLeaf itself ships
CG, Jacobi, Chebyshev and PPCG, and the paper notes the techniques "could
be used with other solver methods" — so all four are provided, each as
one engine-threaded body that runs under any protection (the null codec
when unprotected) beside the textbook function the tests compare it
against, registered under one name in :mod:`repro.solvers.registry` and
dispatched by :func:`repro.solve`.  PPCG is the CG body with a Chebyshev
polynomial for its preconditioner.
"""

from repro.solvers.base import SolverResult, LinearOperator, as_operator
from repro.solvers.block import BlockResult, protected_block_cg_run
from repro.solvers.cg import cg_solve, protected_cg_run
from repro.solvers.jacobi import jacobi_solve, protected_jacobi_run
from repro.solvers.chebyshev import (
    chebyshev_solve,
    estimate_eigenvalue_bounds,
    protected_chebyshev_run,
)
from repro.solvers.ppcg import ppcg_solve, protected_ppcg_run
from repro.solvers.preconditioner import JacobiPreconditioner
from repro.solvers.toolkit import ProtectedIteration
from repro.solvers.registry import (
    SolverMethod,
    available_methods,
    get_method,
    register_method,
    solve,
)

__all__ = [
    "SolverResult",
    "LinearOperator",
    "as_operator",
    "BlockResult",
    "protected_block_cg_run",
    "cg_solve",
    "protected_cg_run",
    "jacobi_solve",
    "protected_jacobi_run",
    "chebyshev_solve",
    "estimate_eigenvalue_bounds",
    "protected_chebyshev_run",
    "ppcg_solve",
    "protected_ppcg_run",
    "JacobiPreconditioner",
    "ProtectedIteration",
    "SolverMethod",
    "available_methods",
    "get_method",
    "register_method",
    "solve",
]
