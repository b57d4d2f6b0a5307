"""Optional numba backend: jitted SECDED + SpMV kernels.

Importing this module never fails — :data:`HAS_NUMBA` records whether
numba is usable and :func:`make_backend` raises ``ImportError`` when it
is not, which the registry in :mod:`repro.backends` turns into a clean
fallback to the default NumPy backend.

The kernels are deliberately line-for-line transcriptions of the fused
NumPy semantics (same masks, same decode rules), so the numpy↔numba
parity tests can compare them bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the container path
    numba = None
    HAS_NUMBA = False


if HAS_NUMBA:  # pragma: no cover - compiled/exercised only with numba

    @numba.njit(cache=True, inline="always")
    def _parity64(x):
        x ^= x >> np.uint64(32)
        x ^= x >> np.uint64(16)
        x ^= x >> np.uint64(8)
        x ^= x >> np.uint64(4)
        x ^= x >> np.uint64(2)
        x ^= x >> np.uint64(1)
        return np.uint8(x & np.uint64(1))

    @numba.njit(cache=True, parallel=True)
    def _syndrome(lanes, full_masks, all_mask, syn, parity):
        n, n_lanes = lanes.shape
        m = full_masks.shape[0]
        for i in numba.prange(n):
            s = np.uint16(0)
            for j in range(m):
                fold = np.uint64(0)
                for lane in range(n_lanes):
                    fold ^= lanes[i, lane] & full_masks[j, lane]
                s |= np.uint16(_parity64(fold)) << np.uint16(j)
            syn[i] = s
            fold = np.uint64(0)
            for lane in range(n_lanes):
                fold ^= lanes[i, lane] & all_mask[lane]
            parity[i] = _parity64(fold)

    @numba.njit(cache=True, parallel=True)
    def _scan(lanes, full_masks, all_mask):
        n, n_lanes = lanes.shape
        m = full_masks.shape[0]
        bad = 0
        for i in numba.prange(n):
            s = np.uint16(0)
            for j in range(m):
                fold = np.uint64(0)
                for lane in range(n_lanes):
                    fold ^= lanes[i, lane] & full_masks[j, lane]
                s |= np.uint16(_parity64(fold)) << np.uint16(j)
            fold = np.uint64(0)
            for lane in range(n_lanes):
                fold ^= lanes[i, lane] & all_mask[lane]
            if s != np.uint16(0) or _parity64(fold) != np.uint8(0):
                bad += 1
        return bad

    @numba.njit(cache=True, parallel=True)
    def _encode(lanes, data_masks, all_mask, check_mask, slots, parity_slot):
        n, n_lanes = lanes.shape
        m = data_masks.shape[0]
        for i in numba.prange(n):
            for lane in range(n_lanes):
                lanes[i, lane] &= ~check_mask[lane]
            for j in range(m):
                fold = np.uint64(0)
                for lane in range(n_lanes):
                    fold ^= lanes[i, lane] & data_masks[j, lane]
                bit = np.uint64(_parity64(fold))
                slot = slots[j]
                lanes[i, slot // 64] |= bit << np.uint64(slot % 64)
            fold = np.uint64(0)
            for lane in range(n_lanes):
                fold ^= lanes[i, lane] & all_mask[lane]
            bit = np.uint64(_parity64(fold))
            lanes[i, parity_slot // 64] |= bit << np.uint64(parity_slot % 64)

    @numba.njit(cache=True, parallel=True)
    def _spmv(values, colidx, rowptr, x, out):
        for row in numba.prange(out.size):
            acc = 0.0
            for k in range(rowptr[row], rowptr[row + 1]):
                acc += values[k] * x[colidx[k]]
            out[row] = acc

    @numba.njit(cache=True, parallel=True)
    def _spmv_block(values, colidx, rowptr, X, out):
        k = X.shape[0]
        for row in numba.prange(out.shape[1]):
            for j in range(k):
                acc = 0.0
                for p in range(rowptr[row], rowptr[row + 1]):
                    acc += values[p] * X[j, colidx[p]]
                out[j, row] = acc

    @numba.njit(cache=True, parallel=True)
    def _fused_gather_verify_block(
        values, vwords, colidx, X, full_masks, all_mask,
        index_mask, n_cols, col64, products, chunk, bad_counts,
    ):
        nnz = values.size
        m = full_masks.shape[0]
        k = X.shape[0]
        for c in numba.prange(bad_counts.size):
            lo = c * chunk
            hi = min(lo + chunk, nnz)
            bad = 0
            for i in range(lo, hi):
                v = vwords[i]
                y = np.uint64(colidx[i])
                s = np.uint16(0)
                for j in range(m):
                    fold = (v & full_masks[j, 0]) ^ (y & full_masks[j, 1])
                    s |= np.uint16(_parity64(fold)) << np.uint16(j)
                fold = (v & all_mask[0]) ^ (y & all_mask[1])
                if s != np.uint16(0) or _parity64(fold) != np.uint8(0):
                    bad += 1
                    continue
                col = np.int64(y & index_mask)
                if col >= n_cols:
                    bad += 1
                    continue
                col64[i] = col
                # One syndrome per element, k products off it.
                for j in range(k):
                    products[j, i] = values[i] * X[j, col]
            bad_counts[c] = bad

    @numba.njit(cache=True, parallel=True)
    def _fused_gather_verify(
        values, vwords, colidx, x, full_masks, all_mask,
        index_mask, n_cols, col64, products, chunk, bad_counts,
    ):
        nnz = values.size
        m = full_masks.shape[0]
        for c in numba.prange(bad_counts.size):
            lo = c * chunk
            hi = min(lo + chunk, nnz)
            bad = 0
            for i in range(lo, hi):
                v = vwords[i]
                y = np.uint64(colidx[i])
                s = np.uint16(0)
                for j in range(m):
                    fold = (v & full_masks[j, 0]) ^ (y & full_masks[j, 1])
                    s |= np.uint16(_parity64(fold)) << np.uint16(j)
                fold = (v & all_mask[0]) ^ (y & all_mask[1])
                if s != np.uint16(0) or _parity64(fold) != np.uint8(0):
                    bad += 1
                    continue
                col = np.int64(y & index_mask)
                if col >= n_cols:
                    bad += 1
                    continue
                col64[i] = col
                products[i] = values[i] * x[col]
            bad_counts[c] = bad


class NumbaBackend(KernelBackend):
    """Jitted kernels; only constructible when numba imports.

    The SpMV and fused-verify methods take an operand of any rank like
    every backend; behind them sit two jitted bodies each (a scalar
    per-row loop and its per-(row, rhs) blocked form), picked by the
    operand's rank because the loop nests differ.
    """

    name = "numba"
    available = HAS_NUMBA
    supports_fused_verify = HAS_NUMBA

    def __init__(self):  # pragma: no cover - needs numba
        if not HAS_NUMBA:
            raise ImportError("numba is not installed")

    # pragma's below: the container image has no numba, so these bodies
    # are exercised only on hosts that do.
    def syndrome_into(self, code, lanes, syn, parity):  # pragma: no cover
        _syndrome(lanes, code._full_masks, code._all_mask, syn, parity)

    def scan(self, code, lanes):  # pragma: no cover
        return int(_scan(lanes, code._full_masks, code._all_mask))

    def encode(self, code, lanes):  # pragma: no cover
        slots = np.asarray(code.syndrome_slots, dtype=np.int64)
        _encode(lanes, code._data_masks, code._all_mask, code._check_mask,
                slots, code.parity_slot)

    def spmv(self, values, colidx, rowptr, x, n_rows,
             out=None, products=None, gather=None,
             lengths=None):  # pragma: no cover
        # The jitted loops accumulate per row (and per right-hand side),
        # so the products/gather/lengths scratch buffers are unnecessary
        # and ignored.
        x = np.ascontiguousarray(x, dtype=np.float64)
        if out is None:
            out = np.empty(x.shape[:-1] + (n_rows,), dtype=np.float64)
        kernel = _spmv if x.ndim == 1 else _spmv_block
        kernel(values, np.asarray(colidx, dtype=np.int64),
               np.asarray(rowptr, dtype=np.int64), x, out)
        return out

    def fused_gather_verify(
        self, code, values, colidx, x, index_mask, n_cols, col64, products, gather
    ):  # pragma: no cover
        chunk = code.scratch.chunk
        n_chunks = max(1, -(-values.size // chunk))
        bad_counts = np.zeros(n_chunks, dtype=np.int64)
        kernel = _fused_gather_verify if x.ndim == 1 else _fused_gather_verify_block
        kernel(
            values, values.view(np.uint64), colidx, x,
            code._full_masks, code._all_mask,
            np.uint64(index_mask), np.int64(n_cols),
            col64, products, np.int64(chunk), bad_counts,
        )
        return [
            (c * chunk, min(c * chunk + chunk, values.size))
            for c in np.flatnonzero(bad_counts)
        ]


def make_backend() -> NumbaBackend:
    """Build the numba backend, raising ``ImportError`` when unusable."""
    return NumbaBackend()
