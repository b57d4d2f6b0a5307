"""The CSR container.

Mirrors the paper's data-structure description verbatim: an ``m x n``
sparse matrix is three dense vectors —

* ``values``  (paper's *v*): float64, length nnz, row-major non-zeros;
* ``colidx``  (paper's *y*): uint32 column index per non-zero;
* ``rowptr``  (paper's *x*): uint32, length m+1, index into ``values`` of
  each row's first non-zero.

32-bit indices are deliberate: the unused top bits are exactly where the
ABFT schemes hide their redundancy, and they cap the supported problem
sizes the same way the paper describes (§V.B).
"""

from __future__ import annotations

import numpy as np

from repro.csr.spmv import _gather_scratch, _row_blocks, spmv
from repro.csr.validate import validate_structure


class CSRMatrix:
    """A plain (unprotected) CSR matrix over float64/uint32 storage.

    Parameters are taken by reference when their dtypes already match, so
    protected wrappers can alias the same memory.
    """

    __slots__ = ("values", "colidx", "rowptr", "shape", "_scratch")

    def __init__(self, values, colidx, rowptr, shape, *, validate: bool = True):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.colidx = np.ascontiguousarray(colidx, dtype=np.uint32)
        self.rowptr = np.ascontiguousarray(rowptr, dtype=np.uint32)
        self.shape = (int(shape[0]), int(shape[1]))
        self._scratch = None
        if validate:
            validate_structure(self.values, self.colidx, self.rowptr, self.shape)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.values.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row (int64)."""
        ptr = self.rowptr.astype(np.int64)
        return ptr[1:] - ptr[:-1]

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``.

        Runs :func:`~repro.csr.spmv.spmv` through per-matrix persistent
        scratch (widened indices, row lengths and a row-block gather
        buffer), so repeated products allocate nothing proportional to
        the matrix beyond the row starts of the blocks ``reduceat`` sums
        (rows of mixed width, or of width outside 3..8) — solver inner
        loops stay off the allocator, whose large-block behaviour
        otherwise dominates (and destabilises) the product's run time.
        The stored indices are re-widened and re-range-checked on every
        call, and the row plan is kept with a copy of the row pointer it
        was derived from and re-derived whenever ``rowptr`` no longer
        equals that copy, so mutating ``colidx``/``rowptr`` between
        products stays safe.
        """
        if self._scratch is None:
            self._scratch = [
                np.empty(self.nnz, dtype=np.int64),
                np.empty(self.rowptr.size, dtype=np.int64),
                np.empty(self.n_rows, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                None,  # the row plan ...
                None,  # ... and the rowptr it was derived from
            ]
        col64, ptr64, lengths, gather, plan, plan_ptr = self._scratch
        np.copyto(col64, self.colidx, casting="same_kind")
        if col64.size and int(col64.max()) >= self.n_cols:
            raise IndexError(
                f"column index out of range for {self.n_cols} columns"
            )
        if plan is None or not np.array_equal(self.rowptr, plan_ptr):
            np.copyto(ptr64, self.rowptr, casting="same_kind")
            np.subtract(ptr64[1:], ptr64[:-1], out=lengths)
            plan = self._scratch[4] = _row_blocks(ptr64, self.nnz, lengths)
            self._scratch[5] = self.rowptr.copy()
        gather = self._scratch[3] = _gather_scratch(
            plan, np.shape(x)[:-1], gather
        )
        return spmv(
            self.values, col64, ptr64, x, self.n_rows, out=out,
            gather=gather, plan=plan,
        )

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal, accumulating duplicate entries.

        Duplicates matter: the 5-point operator clamps out-of-domain
        neighbours onto existing columns (with zero coefficients), so a
        boundary row can store several entries in its diagonal column.
        """
        ptr = self.rowptr.astype(np.int64)
        row_of = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(ptr))
        on_diag = self.colidx.astype(np.int64) == row_of
        diag = np.zeros(min(self.shape), dtype=np.float64)
        np.add.at(diag, row_of[on_diag], self.values[on_diag])
        return diag

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (tests / tiny matrices only)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        ptr = self.rowptr.astype(np.int64)
        for i in range(self.n_rows):
            seg = slice(ptr[i], ptr[i + 1])
            # += (not assignment): duplicates accumulate like scipy's CSR.
            np.add.at(dense[i], self.colidx[seg].astype(np.int64), self.values[seg])
        return dense

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_array` (used as a test oracle)."""
        import scipy.sparse as sp

        return sp.csr_array(
            (self.values.copy(), self.colidx.astype(np.int64), self.rowptr.astype(np.int64)),
            shape=self.shape,
        )

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.values.copy(),
            self.colidx.copy(),
            self.rowptr.copy(),
            self.shape,
            validate=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
