"""Preconditioners (TeaLeaf's tl_preconditioner_type): Jacobi; ``None`` is the identity."""

from __future__ import annotations

import numpy as np


class JacobiPreconditioner:
    """Diagonal scaling ``M^-1 r = r / diag(A)``.

    TeaLeaf's ``tl_preconditioner_type=jac_diag``; cheap and effective on
    the diagonally dominant conduction operator.
    """

    def __init__(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64)
        if np.any(diagonal == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self._inv = 1.0 / diagonal

    @classmethod
    def from_operator(cls, A) -> "JacobiPreconditioner":
        """Build the preconditioner from an operator's diagonal."""
        return cls(A.diagonal())

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: return ``M^{-1} r``."""
        return r * self._inv
