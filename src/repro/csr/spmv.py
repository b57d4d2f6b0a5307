"""Reference SpMV kernels.

One product path: :func:`spmv` — general CSR over any operand rank (a
vector or a block of right-hand sides), run block by block over a row
plan from :func:`_row_blocks`.  Every product in the package goes
through it — the plain matrix, the protected matrices' non-due products
and their verified (due) products — so every product is bitwise the
same arithmetic.  Its docstring states the summation order once;
:func:`row_dot` is the scalar oracle that computes that order in plain
Python floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.ecc.secded_kernels import CHUNK


class _RowPlan(NamedTuple):
    """Row blocks of about :data:`CHUNK` non-zeros, plus the widest block.

    ``blocks`` holds ``(r0, r1, lo, hi, width, starts, nonempty)`` per
    block: rows ``[r0, r1)`` own elements ``[lo, hi)``.  ``width > 0``
    marks a block whose rows all hold ``width`` (3..8) entries —
    ``starts``/``nonempty`` are then ``None``.  Any other block carries
    its rows' block-relative ``starts`` for ``np.add.reduceat`` and, when
    some of its rows are empty, the ``nonempty`` row mask those starts
    belong to.  ``span`` is the largest ``hi - lo`` — the gather scratch
    one leading row of the operand needs.
    """

    blocks: tuple
    span: int


def _row_blocks(
    rowptr: np.ndarray, nnz: int, lengths: np.ndarray | None = None
) -> _RowPlan:
    """The row plan :func:`spmv` runs on, from an int64 row pointer.

    Block boundaries fall on the last row start at or below each
    multiple of :data:`CHUNK` non-zeros, so a block holds at most
    ``CHUNK`` entries plus the tail of one row.  ``lengths`` is the
    optional precomputed ``rowptr[1:] - rowptr[:-1]``.

    The last non-empty row always ends at ``nnz`` — where
    ``np.add.reduceat`` ends the last segment whatever the row pointer
    says — so a row pointer whose final entry disagrees with ``nnz``
    reduces exactly as a whole-array ``reduceat`` would.
    """
    n_rows = rowptr.size - 1
    if n_rows <= 0:
        return _RowPlan((), 0)
    if int(rowptr[-1]) != nnz:
        filled = np.flatnonzero(np.diff(rowptr))
        if filled.size:
            rowptr = rowptr.copy()
            rowptr[filled[-1] + 1:] = nnz
        lengths = None
    if lengths is None:
        lengths = rowptr[1:] - rowptr[:-1]
    first, last = int(rowptr[0]), int(rowptr[-1])
    cuts = np.searchsorted(
        rowptr, np.arange(first + CHUNK, last, CHUNK), side="right"
    ) - 1
    bounds = np.concatenate(([0], cuts, [n_rows]))
    # Non-decreasing already: drop repeats (a row spanning several cuts)
    # without np.unique, whose sort kernels cost a megabyte of RSS.
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]
    r0s = bounds[:-1]
    lo_w = np.minimum.reduceat(lengths, r0s)
    hi_w = np.maximum.reduceat(lengths, r0s)
    blocks = []
    span = 0
    for b, (r0, r1) in enumerate(zip(r0s.tolist(), bounds[1:].tolist())):
        lo, hi = int(rowptr[r0]), int(rowptr[r1])
        span = max(span, hi - lo)
        width = int(lo_w[b])
        if hi == lo or (width == hi_w[b] and 3 <= width <= 8):
            blocks.append((r0, r1, lo, hi, width, None, None))
            continue
        starts = rowptr[r0:r1] - lo
        nonempty = None
        if width == 0:
            nonempty = lengths[r0:r1] > 0
            starts = starts[nonempty]
        blocks.append((r0, r1, lo, hi, 0, starts, nonempty))
    return _RowPlan(tuple(blocks), span)


def _sum_columns(q: np.ndarray, out: np.ndarray) -> None:
    """Row sums of ``(..., m, w)`` products, ``3 <= w <= 8``, in
    ``np.add.reduceat``'s order: ``q0 + (((q1 + q2) + q3) + ...)``."""
    np.add(q[..., 1], q[..., 2], out=out)
    for j in range(3, q.shape[-1]):
        np.add(out, q[..., j], out=out)
    np.add(q[..., 0], out, out=out)


def _gather_scratch(plan: _RowPlan, lead: tuple, buf: np.ndarray) -> np.ndarray:
    """``buf`` when it holds the gather :func:`spmv` needs for an operand
    of leading shape ``lead`` on ``plan`` — ``plan.span`` entries per
    leading row — else a fresh buffer that does (callers keep it)."""
    need = math.prod(lead) * plan.span
    return buf if buf.size >= need else np.empty(need, dtype=np.float64)


def spmv(
    values: np.ndarray,
    colidx: np.ndarray,
    rowptr: np.ndarray,
    x: np.ndarray,
    n_rows: int,
    out: np.ndarray | None = None,
    gather: np.ndarray | None = None,
    plan: _RowPlan | None = None,
) -> np.ndarray:
    """General CSR product over an ``(..., n_cols)`` operand.

    A 1-D ``x`` is the matrix-vector product; a ``(k, n_cols)`` block
    holds one right-hand side per *row* (each system's vector a
    contiguous slab) and yields ``(k, n_rows)`` in the same layout.  The
    operand's leading shape only sizes the scratch: row ``j`` of a
    blocked result is bitwise identical to the 1-D call on ``x[j]``.

    The product runs over the row blocks of ``plan`` (derived from
    ``rowptr`` when not given): gather ``x`` and multiply by the values
    into block-sized scratch, then reduce each row.  The summation order
    is ``np.add.reduceat``'s, whichever way a block is reduced: a row
    ``a0 .. a(w-1)`` sums as ``a0 + S(a1 .. a(w-1))``, where ``S`` is
    numpy's pairwise sum — left to right from ``-0.0`` below eight
    terms, so ``a0 + (((a1 + a2) + a3) + a4)`` for five entries, and
    eight running accumulators (then the leftover terms one by one)
    from eight terms on, halving above 128.  A block whose rows all have
    the same width ``3 <= w <= 8`` (a tail summed left to right) reduces
    with whole-column adds over its ``(..., m, w)`` view in exactly that
    order; every other block runs ``np.add.reduceat`` itself, empty rows
    set to zero.  ``out`` may share memory with ``x``: the operand is
    then copied first, since the blocks write ``out`` while later blocks
    still gather from ``x``.

    ``gather`` is optional caller-owned flat float64 scratch of at least
    ``plan.span`` entries per leading row of ``x``; with it the product
    allocates nothing proportional to the matrix.  Callers that pass it
    vouch for ``colidx`` (the gather clips instead of range-checking);
    without it, an out-of-range index raises :class:`IndexError`.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    lead = x.shape[:-1]
    if out is None:
        out = np.empty(lead + (n_rows,), dtype=np.float64)
    elif np.may_share_memory(out, x):
        x = x.copy()
    # Callers holding pre-converted snapshots (the protected matrices'
    # clean views) pass int64 indices straight through; only narrower
    # stored indices pay the widening copy.
    if colidx.dtype != np.int64:
        colidx = colidx.astype(np.int64)
    if rowptr.dtype != np.int64:
        rowptr = rowptr.astype(np.int64)
    if plan is None:
        plan = _row_blocks(rowptr, values.size)
    k = math.prod(lead)
    if gather is None:
        if colidx.size and int(colidx.max()) >= x.shape[-1]:
            raise IndexError(
                f"column index out of range for {x.shape[-1]} columns"
            )
        gather = np.empty(k * plan.span, dtype=np.float64)
    for r0, r1, lo, hi, width, starts, nonempty in plan.blocks:
        o = out[..., r0:r1]
        if hi == lo:
            o[...] = 0.0
            continue
        # A contiguous view of the flat scratch keeps the axis=-1 take on
        # NumPy's non-buffering path at every rank; mode="clip" skips its
        # internal bounce buffer (the indices are in range, see above).
        g = gather[: k * (hi - lo)].reshape(lead + (hi - lo,))
        np.take(x, colidx[lo:hi], axis=-1, out=g, mode="clip")
        np.multiply(values[lo:hi], g, out=g)
        if width:
            _sum_columns(g.reshape(lead + (r1 - r0, width)), o)
        elif nonempty is None:
            np.add.reduceat(g, starts, axis=-1, out=o)
        else:
            o[...] = 0.0
            o[..., nonempty] = np.add.reduceat(g, starts, axis=-1)
    return out


def _pairwise_sum(terms: list[float]) -> float:
    """numpy's pairwise float64 sum, term for term (see :func:`spmv`)."""
    n = len(terms)
    if n < 8:
        total = -0.0
        for t in terms:
            total += t
        return total
    if n <= 128:
        acc = terms[:8]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                acc[j] += terms[i + j]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for t in terms[i:]:
            total += t
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def row_dot(
    values: np.ndarray,
    colidx: np.ndarray,
    rowptr: np.ndarray,
    row: int,
    x: np.ndarray,
) -> float:
    """One row of the product in plain Python floats — the scalar oracle.

    Sums in :func:`spmv`'s order, so it agrees with it bit for bit.
    """
    lo, hi = int(rowptr[row]), int(rowptr[row + 1])
    terms = [float(values[i]) * float(x[int(colidx[i])]) for i in range(lo, hi)]
    # A one-entry row comes back exact: t + -0.0 is t, signed zeros too.
    return terms[0] + _pairwise_sum(terms[1:]) if terms else 0.0
