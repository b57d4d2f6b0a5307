"""Reference SpMV kernels.

One product path: :func:`spmv` — general CSR via ``np.add.reduceat``
(any row lengths, any operand rank: a vector or a block of right-hand
sides), finishing through :func:`reduce_rows`, the row reduction the
protected matrices' plain and verify-in-SpMV products share, so every
product in the package is bitwise the same arithmetic.  It is pure
gather-multiply-reduce over the three CSR vectors.

:func:`row_dot` is the scalar per-row oracle the tests hold it to.
"""

from __future__ import annotations

import math

import numpy as np


def reduce_rows(
    products: np.ndarray,
    rowptr: np.ndarray,
    out: np.ndarray,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Row-segment sums of per-element ``(..., nnz)`` ``products`` into ``out``.

    The one reduction every SpMV variant shares — the plain kernel, the
    scratch-buffered kernel and the fused verify-in-SpMV kernels all
    finish through this helper, so their results are bitwise identical
    by construction (``np.add.reduceat`` sums each segment left to
    right, matching a scalar per-row loop exactly).  The reduction runs
    along the last axis, so row ``j`` of a ``(k, nnz)`` block reduces
    exactly as the 1-D call on ``products[j]`` would.  Handles empty
    rows (where ``reduceat`` alone would mis-assign segments) by masking
    them after the reduction.

    ``lengths`` is an optional caller-owned int64 scratch of size
    ``n_rows``; with it, the all-rows-nonempty fast path allocates
    nothing (the protected matrices pass their persistent buffer).
    """
    starts = rowptr[:-1]
    if lengths is None:
        lengths = rowptr[1:] - starts
    else:
        np.subtract(rowptr[1:], starts, out=lengths)
    if int(lengths.min(initial=1)) > 0:
        np.add.reduceat(products, starts, axis=-1, out=out)
    else:
        # reduceat with repeated offsets returns products[start] for empty
        # rows; compute on the compacted rows then scatter back.
        nonempty = lengths > 0
        out[:] = 0.0
        out[..., nonempty] = np.add.reduceat(products, starts[nonempty], axis=-1)
    return out


def spmv(
    values: np.ndarray,
    colidx: np.ndarray,
    rowptr: np.ndarray,
    x: np.ndarray,
    n_rows: int,
    out: np.ndarray | None = None,
    products: np.ndarray | None = None,
    gather: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """General CSR product over an ``(..., n_cols)`` operand.

    A 1-D ``x`` is the matrix-vector product; a ``(k, n_cols)`` block
    holds one right-hand side per *row* (each system's vector a
    contiguous slab) and yields ``(k, n_rows)`` in the same layout.  The
    operand's leading shape only sizes the scratch: row ``j`` of a
    blocked result is bitwise identical to the 1-D call on ``x[j]`` —
    the gather/multiply is the same elementwise arithmetic and the
    reduction goes through :func:`reduce_rows`.

    ``products`` (``(..., nnz)`` float64), ``gather`` (flat float64, one
    chunk per leading element) and ``lengths`` (n_rows-sized int64) are
    optional caller-owned scratch buffers: with them, the gather and
    multiply run chunk-by-chunk into them and the product allocates
    nothing proportional to the matrix (the protected matrices pass
    their persistent buffers so engine-mediated SpMVs are
    allocation-free after warm-up).  The result is bitwise identical
    either way.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    lead = x.shape[:-1]
    if out is None:
        out = np.zeros(lead + (n_rows,), dtype=np.float64)
    if values.size == 0:
        out[:] = 0.0
        return out
    # Callers holding pre-converted snapshots (the protected matrices'
    # clean views) pass int64 indices straight through; only narrower
    # stored indices pay the widening copy.
    if colidx.dtype != np.int64:
        colidx = colidx.astype(np.int64)
    if rowptr.dtype != np.int64:
        rowptr = rowptr.astype(np.int64)
    if products is None or gather is None:
        products = values * x[..., colidx]
    else:
        k = math.prod(lead)
        chunk = gather.size // k
        for lo in range(0, values.size, chunk):
            hi = min(lo + chunk, values.size)
            # A contiguous view of the flat scratch keeps the axis=-1
            # take on NumPy's non-buffering path at every rank.
            g = gather[: k * (hi - lo)].reshape(lead + (hi - lo,))
            # mode="clip" skips numpy's internal bounce buffer; callers
            # pass validated (bounds-checked) snapshot indices here.
            np.take(x, colidx[lo:hi], axis=-1, out=g, mode="clip")
            np.multiply(values[lo:hi], g, out=products[..., lo:hi])
        products = products[..., : values.size]
    return reduce_rows(products, rowptr, out, lengths=lengths)


def row_dot(
    values: np.ndarray,
    colidx: np.ndarray,
    rowptr: np.ndarray,
    row: int,
    x: np.ndarray,
) -> float:
    """Single-row dot product (used by tests and the scalar oracle)."""
    ptr = rowptr.astype(np.int64)
    seg = slice(ptr[row], ptr[row + 1])
    return float(np.dot(values[seg], x[colidx[seg].astype(np.int64)]))
