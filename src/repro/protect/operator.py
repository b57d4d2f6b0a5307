"""ProtectedOperator: any solver, protected.

The paper notes its techniques "could be used with other solver methods"
and that the right long-term home is the solver-library level (PETSc /
Trilinos, §VIII).  This adapter is that idea in miniature: it exposes a
protected matrix as a plain :class:`~repro.solvers.base.LinearOperator`
whose every ``matvec`` is a product scheduled by a
:class:`~repro.protect.engine.DeferredVerificationEngine` — so Jacobi,
Chebyshev, PPCG, scipy's solvers, anything operator-based, becomes
ABFT-protected without touching its code.
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.solvers.base import LinearOperator


class ProtectedOperator(LinearOperator):
    """An engine-checked matvec view over a protected CSR matrix.

    Parameters
    ----------
    matrix:
        The :class:`ProtectedCSRMatrix`.
    policy:
        Check policy; defaults to a full check before every SpMV.  Due
        products verify the matrix; the others gather through its
        bounds-validated index snapshot, as every solver's do.
    """

    def __init__(self, matrix: ProtectedCSRMatrix, policy: CheckPolicy | None = None):
        self.matrix = matrix
        self.engine = DeferredVerificationEngine(policy)
        self.policy = self.engine.policy
        self.engine.register(matrix, "matrix")
        # The matrix caches the decoded diagonal (and invalidates it
        # when a check corrects storage), so Jacobi-preconditioned
        # setups pay no full to_csr() decode per call.
        super().__init__(self._checked_matvec, matrix.shape[0], matrix.diagonal)

    def _checked_matvec(self, x: np.ndarray) -> np.ndarray:
        return self.engine.spmv(self.matrix, x)

    def end_of_step(self) -> None:
        """Run the mandatory end-of-step sweep when checks were deferred."""
        self.engine.finalize()

    @property
    def shape(self) -> tuple[int, int]:
        """The operator's ``(n_rows, n_cols)``."""
        return self.matrix.shape

    def to_scipy(self):
        """A :class:`scipy.sparse.linalg.LinearOperator` view.

        Lets scipy's iterative solvers (`cg`, `gmres`, ...) run over
        ABFT-protected storage — the paper's "implement at the library
        level" future-work direction.
        """
        from scipy.sparse.linalg import LinearOperator as SciPyOperator

        return SciPyOperator(
            shape=self.shape, matvec=self._checked_matvec, dtype=np.float64
        )
