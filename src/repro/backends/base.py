"""The kernel-backend contract shared by every verification backend.

The protection stack spends essentially all of its time in three kernel
families — the CSR sparse matrix-vector product, the SECDED syndrome
pass and the SECDED encode pass.  A :class:`KernelBackend` supplies all
three behind one interface so the registry in :mod:`repro.backends` can
swap implementations (fused NumPy, numba, ...) without the data
structures knowing which one is active.

Backend methods never allocate arrays proportional to the codeword count
on the clean path: callers pass preallocated outputs and each
:class:`~repro.ecc.hamming.SECDEDCode` carries a persistent
:class:`SyndromeScratch` with the cache-blocked chunk buffers the
kernels work through.
"""

from __future__ import annotations

import numpy as np

#: Codewords per cache block.  16384 codewords of two uint64 lanes is
#: 256 KiB — the chunk plus its scratch stays resident in L2 while the
#: ~m+1 mask/fold/popcount passes run over it.
CHUNK = 16384


class SyndromeScratch:
    """Preallocated chunk buffers for the fused syndrome/encode passes.

    One instance lives on each :class:`~repro.ecc.hamming.SECDEDCode`
    (those are process-wide singletons, see :mod:`repro.ecc.profiles`),
    so the buffers are allocated once per code and reused by every check
    of every protected structure bound to that code.  Not thread-safe —
    neither is the rest of the protection stack.
    """

    def __init__(self, chunk: int = CHUNK):
        self.chunk = int(chunk)
        self.fold = np.empty(self.chunk, dtype=np.uint64)
        self.tmp = np.empty(self.chunk, dtype=np.uint64)
        self.pc8 = np.empty(self.chunk, dtype=np.uint8)
        self.pc16 = np.empty(self.chunk, dtype=np.uint16)
        self.syn = np.empty(self.chunk, dtype=np.uint16)
        # Fused verify-in-SpMV scratch: the widened colidx lane under
        # syndrome/decode for one chunk.
        self.lane = np.empty(self.chunk, dtype=np.uint64)
        # Aggregate-screen scratch: the grid row/column XOR aggregates of
        # one chunk (see numpy_fused's clean-path screen).  Sized for a
        # chunk reduced over 32 columns plus the tail, at up to 8 lanes.
        self.screen = np.empty((self.chunk // 32 + 64) * 8, dtype=np.uint64)


class KernelBackend:
    """Abstract kernel set; concrete backends override every method.

    SECDED kernels receive the bound :class:`SECDEDCode` (for its masks,
    slots and persistent scratch) plus an ``(N, L)`` uint64 lane array.
    The SpMV kernel mirrors :func:`repro.csr.spmv.spmv` — any operand
    rank — and must accept pre-converted ``int64`` index arrays without
    copying them.
    """

    #: Registry name; concrete backends override.
    name = "abstract"

    #: True when the backend is importable/usable in this process.
    available = True

    #: True when the backend implements :meth:`fused_gather_verify`, the
    #: single-pass verify-in-SpMV primitive.  Backends without it still
    #: work — the protected matrices fall back to check-then-multiply.
    supports_fused_verify = False

    def syndrome_into(self, code, lanes, syn, parity) -> None:
        """Fill ``syn`` (uint16) and ``parity`` (uint8) per codeword."""
        raise NotImplementedError

    def scan(self, code, lanes) -> int:
        """Number of codewords with a nonzero syndrome or parity.

        The clean-path screen: allocates nothing proportional to the
        codeword count, so a full check of an intact structure is pure
        compute over the persistent buffers.
        """
        raise NotImplementedError

    def encode(self, code, lanes) -> None:
        """Recompute the redundancy slots of every codeword in place."""
        raise NotImplementedError

    def spmv(
        self, values, colidx, rowptr, x, n_rows,
        out=None, products=None, gather=None, lengths=None,
    ):
        """General CSR product (see :func:`repro.csr.spmv.spmv`).

        ``x`` is ``(..., n_cols)`` — a vector, or a block with one
        right-hand side per row — and the result ``(..., n_rows)``; row
        ``j`` of a blocked result must be bitwise identical to the 1-D
        call on ``x[j]``.  ``products``/``gather``/``lengths`` are
        optional caller-owned scratch buffers (``(..., nnz)`` float64 /
        flat float64, one chunk per leading element / n_rows-sized
        int64); backends that gather or reduce through temporaries use
        them to keep the inner loop allocation-free.  Compiled backends
        whose loops are scalar may ignore them.
        """
        raise NotImplementedError

    def fused_gather_verify(
        self, code, values, colidx, x, index_mask, n_cols, col64, products, gather
    ):
        """Verify one-element codewords while gathering the SpMV operands.

        The verify-in-SpMV primitive: per cache-blocked chunk of the
        ``(values, colidx)`` lane pair, compute the SECDED syndrome,
        decode the column index (``colidx & index_mask``), bounds-check
        it against ``n_cols``, gather ``x`` through it and multiply —
        filling ``col64[:nnz]`` and ``products[..., :nnz]`` in the same
        pass that screens the codewords.  ``x`` is ``(..., n_cols)``:
        each chunk is screened **once** and its decoded indices gather
        every leading row of the operand (through contiguous views of
        the flat ``gather`` scratch), so the verification cost of one
        product buys all of a block's.  Chunks containing a nonzero
        syndrome or an out-of-range index are *not* gathered; their
        ``[lo, hi)`` codeword windows are returned for the caller to
        re-check (and correct) through the container's scalar cold path
        before retrying.  Returns ``[]`` when everything was clean.

        Only meaningful for schemes whose codeword is a single
        ``(value, colidx)`` element pair (secded64); callers gate on
        :attr:`supports_fused_verify` plus the scheme.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"
