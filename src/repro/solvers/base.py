"""Solver plumbing: operator protocol and result records."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.csr.matrix import CSRMatrix


class LinearOperator:
    """Minimal operator interface every solver consumes.

    Wraps anything exposing ``matvec`` (CSRMatrix, ProtectedCSRMatrix via
    :class:`~repro.protect.operator.ProtectedOperator`, scipy operators in
    tests).
    """

    def __init__(self, matvec, n: int, diagonal=None):
        self._matvec = matvec
        self.n = int(n)
        self._diagonal = diagonal

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator: return ``A @ x``."""
        return self._matvec(x)

    def diagonal(self) -> np.ndarray:
        """The operator's main diagonal (for Jacobi-style preconditioning)."""
        if self._diagonal is None:
            raise NotImplementedError("operator has no diagonal accessor")
        return self._diagonal() if callable(self._diagonal) else self._diagonal


def as_operator(obj) -> LinearOperator:
    """Coerce a matrix-like object into a :class:`LinearOperator`."""
    if isinstance(obj, LinearOperator):
        return obj
    if isinstance(obj, CSRMatrix):
        return LinearOperator(obj.matvec, obj.n_rows, obj.diagonal)
    if hasattr(obj, "matvec") and hasattr(obj, "shape"):
        diag = getattr(obj, "diagonal", None)
        return LinearOperator(obj.matvec, obj.shape[0], diag)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


@dataclasses.dataclass
class SolverResult:
    """Outcome of one linear solve.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Iterations actually performed.
    converged:
        True when the residual criterion was met within the budget.
    residual_norms:
        2-norm residual history, ``residual_norms[0]`` is the initial one.
    info:
        Solver-specific extras (eigenvalue estimates, check counters, ...).
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def final_residual(self) -> float:
        """The last residual norm the solve recorded."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")
