"""Cache-blocked, ``out=``-threaded SECDED kernels over lane-packed codewords.

The original SECDED hot path computed every syndrome bit with
``parity64(np.bitwise_xor.reduce(lanes & mask, axis=-1))`` — each of the
``m + 1`` passes allocated an ``(N, L)`` masked temporary plus two
``(N,)`` reductions and streamed the whole lane array from DRAM again.
These kernels run the same mathematics chunk-by-chunk: a block of
codewords is pulled through the cache once and all ``m + 1``
mask/fold/popcount passes run over it with every intermediate landing in
the code's persistent :class:`SyndromeScratch`.  No temporary
proportional to the codeword count is ever allocated.

The clean-path screens go one step further: because syndromes are
GF(2)-linear, a chunk can be XOR-reduced over a ``(rows, 32)`` grid and
only the ``rows + 32`` aggregate codewords syndromed (two reduction
passes plus ~3% of the per-element mask work).  An intact chunk never
fires the screen; a chunk that fires for any reason falls back to the
exact per-element passes.  The screen is not exact: see
:func:`_chunk_screen` for the precise detection bound.

Every kernel receives the bound :class:`~repro.ecc.hamming.SECDEDCode`
(for its masks, slots and persistent scratch) plus an ``(N, L)`` uint64
lane array.
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
        # one chunk (see _chunk_screen).  Sized for a chunk reduced over
        # 32 columns plus the tail, at up to 8 lanes.
        self.screen = np.empty((self.chunk // 32 + 64) * 8, dtype=np.uint64)


def _fold_masked(chunk, masks, n, scratch):
    """XOR-fold ``chunk & masks`` across lanes into ``scratch.fold[:n]``."""
    fold = scratch.fold[:n]
    np.bitwise_and(chunk[:, 0], masks[0], out=fold)
    for lane in range(1, chunk.shape[1]):
        tmp = scratch.tmp[:n]
        np.bitwise_and(chunk[:, lane], masks[lane], out=tmp)
        np.bitwise_xor(fold, tmp, out=fold)
    return fold


def _parity_of_fold(fold, n, scratch):
    """Per-element parity of ``fold`` into ``scratch.pc8[:n]``."""
    pc = scratch.pc8[:n]
    np.bitwise_count(fold, out=pc)
    np.bitwise_and(pc, np.uint8(1), out=pc)
    return pc


def _chunk_syndrome(code, chunk, n, scratch):
    """Syndrome (into ``scratch.syn[:n]``) and parity (``scratch.pc8[:n]``).

    The parity pass runs last so ``scratch.pc8`` still holds the overall
    parity when this returns.
    """
    syn = scratch.syn[:n]
    syn[:] = 0
    for j in range(code.n_syndrome_bits):
        fold = _fold_masked(chunk, code._full_masks[j], n, scratch)
        pc = _parity_of_fold(fold, n, scratch)
        p16 = scratch.pc16[:n]
        np.copyto(p16, pc, casting="unsafe")
        np.left_shift(p16, np.uint16(j), out=p16)
        np.bitwise_or(syn, p16, out=syn)
    fold = _fold_masked(chunk, code._all_mask, n, scratch)
    pc = _parity_of_fold(fold, n, scratch)
    return syn, pc


#: Columns of the aggregate-screen grid.  A chunk is viewed as a
#: ``(rows, 32)`` grid of codewords and XOR-reduced along both axes;
#: the syndrome passes then run over ``rows + 32`` aggregate codewords
#: instead of the whole chunk (~3% of the per-element work).
_SCREEN_COLS = 32


def _screen_shape(n: int) -> tuple[int, int, int]:
    """Grid rows, tail length and aggregate count for an ``n``-codeword chunk."""
    rows = n // _SCREEN_COLS
    rem = n - rows * _SCREEN_COLS
    return rows, rem, (rows + _SCREEN_COLS if rows else 0) + rem


def _screen_clean(code, agg, k, scratch) -> bool:
    """True when every aggregate codeword has zero syndrome and parity."""
    syn, pc = _chunk_syndrome(code, agg, k, scratch)
    return not (int(np.count_nonzero(syn)) or int(np.count_nonzero(pc)))


def _screen_lane(lane1d, rows, agg_col, scratch):
    """Row/column aggregates of one contiguous lane into an ``agg`` column.

    ``lane1d`` (length ``rows * 32``, contiguous) is viewed as the
    ``(rows, 32)`` screen grid and XOR-reduced along both axes.  Both
    reductions are first-or-last-axis ``ufunc.reduce`` calls over a
    contiguous grid into contiguous scratch — the only forms NumPy runs
    through its non-buffering (allocation-free) inner reduce loop; a
    middle-axis reduce, a strided ``out=`` or a strided-half halving all
    fall into the buffered iterator and allocate a ~64 KiB bounce buffer
    per call.
    """
    grid = lane1d.reshape(rows, _SCREEN_COLS)
    ragg = scratch.tmp[:rows]
    np.bitwise_xor.reduce(grid, axis=1, out=ragg)
    agg_col[:rows] = ragg
    cagg = scratch.tmp[rows : rows + _SCREEN_COLS]
    np.bitwise_xor.reduce(grid, axis=0, out=cagg)
    agg_col[rows : rows + _SCREEN_COLS] = cagg


def _chunk_screen(code, block, n, scratch) -> bool:
    """Aggregate clean-chunk screen over an ``(n, L)`` lane block.

    Syndromes are GF(2)-linear, so the XOR of any subset of *clean*
    codewords is itself a zero-syndrome, zero-parity word — an intact
    chunk never fires the screen, and the ``rows + 32`` grid aggregates
    cost ~3% of the per-element syndrome passes they stand in for.

    Detection bound: any one or two flipped bits anywhere in the chunk
    (16 384 codewords) fire the screen — two flips in one codeword meet
    SECDED's double-error detection inside that codeword's row
    aggregate, and flips in different codewords land in different grid
    rows or different grid columns (or the exactly-screened tail), each
    aggregate seeing a single nonzero-syndrome flip.  Beyond two flips
    the screen is weaker than per-codeword SECDED: flips that cancel in
    *every* row and column aggregate escape, even at one flip per
    codeword (e.g. one bit position flipped on the four corners of a
    grid-aligned rectangle — four individually correctable codewords
    that the screen reports clean).  A chunk that fires falls back to
    the exact per-element passes.
    """
    lanes = block.shape[1]
    rows, rem, k = _screen_shape(n)
    if k == 0:
        return True
    if k * lanes > scratch.screen.size:  # very wide codewords: exact path
        return False
    agg = scratch.screen[: k * lanes].reshape(k, lanes)
    span = rows * _SCREEN_COLS
    pos = 0
    if rows:
        lanebuf = scratch.fold[:span]
        for lane in range(lanes):
            np.copyto(lanebuf, block[:span, lane])
            _screen_lane(lanebuf, rows, agg[:, lane], scratch)
        pos = rows + _SCREEN_COLS
    if rem:
        agg[pos:] = block[span:]
    return _screen_clean(code, agg, k, scratch)


def _chunk_screen_split(code, a, b, n, scratch) -> bool:
    """The :func:`_chunk_screen` screen over split one-element lanes.

    ``a``/``b`` are the storage arrays themselves (values viewed as
    uint64, widened colidx), so the fused SpMV path never packs an
    ``(n, 2)`` lane buffer.  Same guarantee as the packed screen.
    """
    rows, rem, k = _screen_shape(n)
    if k == 0:
        return True
    agg = scratch.screen[: k * 2].reshape(k, 2)
    span = rows * _SCREEN_COLS
    pos = 0
    if rows:
        _screen_lane(a[:span], rows, agg[:, 0], scratch)
        _screen_lane(b[:span], rows, agg[:, 1], scratch)
        pos = rows + _SCREEN_COLS
    if rem:
        agg[pos:, 0] = a[span:]
        agg[pos:, 1] = b[span:]
    return _screen_clean(code, agg, k, scratch)


def syndrome_into(code, lanes, syn, parity) -> None:
    """Fill ``syn`` (uint16) and ``parity`` (uint8) per codeword."""
    scratch = code.scratch
    n_total = lanes.shape[0]
    for lo in range(0, n_total, scratch.chunk):
        hi = min(lo + scratch.chunk, n_total)
        n = hi - lo
        syn_c, pc = _chunk_syndrome(code, lanes[lo:hi], n, scratch)
        syn[lo:hi] = syn_c
        parity[lo:hi] = pc


def scan(code, lanes) -> int:
    """Number of codewords with a nonzero syndrome or parity.

    The clean-path screen: allocates nothing proportional to the
    codeword count, so a full check of an intact structure is pure
    compute over the persistent buffers.
    """
    scratch = code.scratch
    n_total = lanes.shape[0]
    bad = 0
    for lo in range(0, n_total, scratch.chunk):
        hi = min(lo + scratch.chunk, n_total)
        n = hi - lo
        # Clean chunks (the overwhelmingly common case) are fully
        # screened by their grid aggregates; only a chunk that fires
        # pays the per-element syndrome passes for the exact count.
        if _chunk_screen(code, lanes[lo:hi], n, scratch):
            continue
        syn_c, pc = _chunk_syndrome(code, lanes[lo:hi], n, scratch)
        # Fold the overall parity into the syndrome word so one
        # count_nonzero sees both corruption signals.
        p16 = scratch.pc16[:n]
        np.copyto(p16, pc, casting="unsafe")
        np.left_shift(p16, np.uint16(15), out=p16)
        np.bitwise_or(syn_c, p16, out=syn_c)
        bad += int(np.count_nonzero(syn_c))
    return bad


def encode(code, lanes) -> None:
    """Recompute the redundancy slots of every codeword in place."""
    scratch = code.scratch
    n_total = lanes.shape[0]
    for lo in range(0, n_total, scratch.chunk):
        hi = min(lo + scratch.chunk, n_total)
        n = hi - lo
        chunk = lanes[lo:hi]
        np.bitwise_and(chunk, ~code._check_mask, out=chunk)
        for j in range(code.n_syndrome_bits):
            fold = _fold_masked(chunk, code._data_masks[j], n, scratch)
            pc = _parity_of_fold(fold, n, scratch)
            _set_bit(chunk, code.syndrome_slots[j], pc, n, scratch)
        fold = _fold_masked(chunk, code._all_mask, n, scratch)
        pc = _parity_of_fold(fold, n, scratch)
        _set_bit(chunk, code.parity_slot, pc, n, scratch)


def _set_bit(chunk, position, bit_values, n, scratch) -> None:
    lane, bit = divmod(int(position), 64)
    word = scratch.tmp[:n]
    np.copyto(word, bit_values, casting="unsafe")
    np.left_shift(word, np.uint64(bit), out=word)
    np.bitwise_or(chunk[:, lane], word, out=chunk[:, lane])
