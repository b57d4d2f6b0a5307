"""Cache-blocked, ``out=``-threaded SECDED kernels over lane-packed codewords.

Every syndrome is one *stacked* pass.  A code's ``m`` syndrome masks and
its overall-parity mask form one ``(m + 1, L)`` block of check rows
(``SECDEDCode._check_rows``).  A block of ``n`` codewords is syndromed by
broadcasting each lane down the ``m + 1`` rows, masking it with that
lane's rows, XOR-folding the lanes and taking one popcount parity: a
``(m + 1, n)`` bit block from ``3L + 1`` NumPy calls, whatever ``m`` is
(:func:`_stacked_bits`).  Bit ``(j, i)`` is still the parity of
``word_i & mask_j``; only the call count changed — the per-bit passes
this replaced paid about ``m(2L + 4) + 2L + 2`` calls (62 for a
two-lane code), a fixed cost that dominated every check of a small
structure.

A screen's aggregates are one stacked block, the exact path runs a
chunk in quarter-chunk blocks, and every ufunc operand is a contiguous
``(m + 1, n)`` view of the code's persistent :class:`SyndromeScratch`.
That is what keeps the pass allocation-free: a broadcast or strided
operand sends NumPy through its buffered iterator, which allocates a
bounce buffer of up to 64 KiB per call.  The broadcasts happen in
``np.copyto``, which never buffers.  No temporary proportional to the
codeword count is ever allocated.

The clean-path screens run the pass over far fewer codewords: because
syndromes are GF(2)-linear, a chunk can be XOR-reduced over a
``(rows, 32)`` grid and only the ``rows + 32`` aggregate codewords
syndromed (two reduction passes plus one stacked block).  An intact
chunk never fires the screen; a chunk that fires for any reason falls
back to the exact per-element pass, block by block.  The screen is not
exact: see :func:`_chunk_screen` for the precise detection bound.

:func:`encode` keeps one mask/fold/popcount pass per check bit over
whole chunks: stacked, it is faster on small arrays but slower on large
ones, where the ``m + 1`` fold streams no longer fit in cache.

Every kernel receives the bound :class:`~repro.ecc.hamming.SECDEDCode`
(for its masks, slots and persistent scratch) plus an ``(N, L)`` uint64
lane array.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Codewords per cache block.  16384 codewords of two uint64 lanes is
#: 256 KiB — the chunk plus its scratch stays resident in L2 while the
#: encode's ~m+1 mask/fold/popcount passes run over it.
CHUNK = 16384

#: Codewords per stacked-syndrome block on the exact path, which runs
#: a chunk as four blocks.  Blocks of only a screen's width (at most
#: ``CHUNK // 32 + 63`` aggregates) made the exact pass 1.6-2.6x slower
#: — the per-call cost is paid once per block — and larger ones were
#: no faster.
_BLOCK = CHUNK // 4


class SyndromeScratch:
    """Preallocated buffers for the stacked syndrome and per-bit encode passes.

    One instance lives on each :class:`~repro.ecc.hamming.SECDEDCode`
    (those are process-wide singletons, see :mod:`repro.ecc.profiles`),
    so the buffers are allocated once per code and reused by every check
    of every protected structure bound to that code.  The encode and
    screen buffers are chunk-sized.  The stacked pass's buffers grow to
    the widest block it has run at — ``m + 1`` rows by a screen's
    aggregates, or by :data:`_BLOCK` codewords once the exact path has
    run — so a process that only ever screens clean structures never
    holds the exact path's wider blocks.  Not thread-safe — neither is
    the rest of the protection stack.
    """

    def __init__(self, chunk: int = CHUNK):
        self.chunk = int(chunk)
        # Encode's per-bit fold and parity.
        self.fold = np.empty(self.chunk, dtype=np.uint64)
        self.tmp = np.empty(self.chunk, dtype=np.uint64)
        self.pc8 = np.empty(self.chunk, dtype=np.uint8)
        # Fused verify-in-SpMV scratch: the widened colidx lane under
        # syndrome/decode for one chunk.
        self.lane = np.empty(self.chunk, dtype=np.uint64)
        # Aggregate-screen scratch: the grid row/column XOR aggregates of
        # one chunk (see _chunk_screen).  Sized for a chunk reduced over
        # 32 columns plus the tail, at up to 8 lanes.
        self.screen = np.empty((self.chunk // 32 + 64) * 8, dtype=np.uint64)
        # Stacked-pass scratch: flat buffers viewed as contiguous
        # (m + 1, n) blocks (see _stacked_views).
        self._grow(0, 0)

    def _grow(self, n_lanes: int, size: int) -> None:
        """(Re)allocate the stacked-pass buffers for ``size`` entries each."""
        self.acc = np.empty(size, dtype=np.uint64)
        self.word = np.empty(size, dtype=np.uint64)
        self.bits = np.empty(size, dtype=np.uint8)
        self.wide = np.empty(size, dtype=np.uint16)
        self.shifts = np.empty(size, dtype=np.uint16)
        self.masks = np.empty((n_lanes, size), dtype=np.uint64)
        #: The block views of the last width the pass ran at.
        self.views = None


class _StackedViews(NamedTuple):
    """A :class:`SyndromeScratch`'s buffers as ``(m + 1, n)`` blocks."""

    n: int
    acc: np.ndarray
    word: np.ndarray
    bits: np.ndarray
    wide: np.ndarray     # (m, n): syndrome rows widened for packing
    shifts: np.ndarray   # (m, n): row j holds j
    masks: tuple         # per lane: its check rows tiled across n


def _stacked_views(code, n, scratch) -> _StackedViews:
    """The pass's scratch views at width ``n``, rebuilt when ``n`` changes.

    A rebuild grows the buffers if ``n`` is wider than any block before,
    then tiles each lane's check rows (and each syndrome row's shift)
    across ``n`` codewords.  A structure's repeated screens and the
    exact path's full blocks keep hitting the width they last used.
    """
    views = scratch.views
    if views is not None and views.n == n:
        return views
    rows = code._check_rows.shape[0]
    if rows * n > scratch.acc.size:
        scratch._grow(code.n_lanes, rows * n)

    def block(buf, k=rows):
        return buf[: k * n].reshape(k, n)

    shifts = block(scratch.shifts, rows - 1)
    np.copyto(shifts, np.arange(rows - 1, dtype=np.uint16)[:, None])
    masks = tuple(block(tile) for tile in scratch.masks)
    for lane, tile in enumerate(masks):
        np.copyto(tile, code._check_rows[:, lane, None])
    scratch.views = _StackedViews(
        n, block(scratch.acc), block(scratch.word), block(scratch.bits),
        block(scratch.wide, rows - 1), shifts, masks,
    )
    return scratch.views


def _stacked_bits(code, block, n, scratch):
    """Every check-row parity of an ``(n, L)`` lane block, in one pass.

    Returns a ``(m + 1, n)`` uint8 view of ``scratch.bits``: row ``j < m``
    holds syndrome bit ``j`` of each codeword, row ``m`` its overall
    parity.
    """
    v = _stacked_views(code, n, scratch)
    acc, word = v.acc, v.word
    for lane, masks in enumerate(v.masks):
        dst = word if lane else acc
        np.copyto(dst, block[:, lane])  # the lane, broadcast down the rows
        np.bitwise_and(dst, masks, out=dst)
        if lane:
            np.bitwise_xor(acc, word, out=acc)
    np.bitwise_count(acc, out=v.bits)
    np.bitwise_and(v.bits, np.uint8(1), out=v.bits)
    return v.bits


def _block_bounds(n_total: int, step: int):
    """``(lo, hi)`` windows of at most ``step`` codewords covering ``n_total``."""
    for lo in range(0, n_total, step):
        yield lo, min(lo + step, n_total)


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
    return not np.count_nonzero(_stacked_bits(code, agg, k, scratch))


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
    """Fill ``syn`` (uint16) and ``parity`` (uint8) per codeword.

    Block by block, the stacked rows are packed back into words:
    syndrome row ``j`` is widened, shifted left by ``j`` and OR-reduced
    into ``syn``; the last row is the overall parity.
    """
    scratch = code.scratch
    m = code.n_syndrome_bits
    for lo, hi in _block_bounds(lanes.shape[0], _BLOCK):
        bits = _stacked_bits(code, lanes[lo:hi], hi - lo, scratch)
        v = scratch.views  # the block views that pass ran on
        np.copyto(v.wide, bits[:m])
        np.left_shift(v.wide, v.shifts, out=v.wide)
        np.bitwise_or.reduce(v.wide, axis=0, out=syn[lo:hi])
        np.copyto(parity[lo:hi], bits[m])


def scan(code, lanes) -> int:
    """Number of codewords with a nonzero syndrome or parity.

    The clean-path screen: allocates nothing proportional to the
    codeword count, so a full check of an intact structure is pure
    compute over the persistent buffers.
    """
    scratch = code.scratch
    bad = 0
    for lo, hi in _block_bounds(lanes.shape[0], scratch.chunk):
        # Clean chunks (the overwhelmingly common case) are fully
        # screened by their grid aggregates; only a chunk that fires
        # pays the per-element pass for the exact count.
        if _chunk_screen(code, lanes[lo:hi], hi - lo, scratch):
            continue
        for blo, bhi in _block_bounds(hi - lo, _BLOCK):
            n = bhi - blo
            bits = _stacked_bits(code, lanes[lo + blo : lo + bhi], n, scratch)
            # A codeword is corrupted when any of its rows is set.
            flags = scratch.pc8[:n]
            np.bitwise_or.reduce(bits, axis=0, out=flags)
            bad += int(np.count_nonzero(flags))
    return bad


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


def encode(code, lanes) -> None:
    """Recompute the redundancy slots of every codeword in place.

    One mask/fold/popcount pass per check bit over whole chunks (see the
    module docstring for why encode is not stacked).
    """
    scratch = code.scratch
    for lo, hi in _block_bounds(lanes.shape[0], scratch.chunk):
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
