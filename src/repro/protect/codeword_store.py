"""One codeword store: a protected container is a row of a layout × code table.

The paper has one idea — hide a code's check bits in the spare bits of a
structure, ``group`` elements to a codeword (Figs. 1–3) — applied to
several structures and four codes.  This module is that idea, once:

* a **layout** maps a region's raw arrays to ``(N, L)`` uint64 codeword
  lanes and writes repaired lanes back: :class:`WordLanes` (doubles and
  64-bit words) and :class:`SplitLanes` (SED's field-per-lane form)
  view storage in place — no copy; :class:`U32Lanes`,
  :class:`ElementLanes` and :class:`RowLanes` each refill one
  persistent buffer allocated at construction, so no check materialises
  an array proportional to the structure;
* a **code** (:class:`~repro.ecc.base.LaneCode`) owns the relation
  between data and check bits;
* :data:`CODEWORD_TABLE` names both for every ``(structure, scheme)``,
  with the group size, the reserved bits (hence the size limit and the
  decode mask) and the tail row;
* :class:`CodewordStore` owns the rest: the grouped-prefix + tail
  partition, codeword windows, write-back of corrected codewords only,
  compact clean reports and index-limit validation.

**The tail rule, stated once.**  ``len % group`` leftover elements are
protected one element per codeword, exactly as by the structure's
one-element row named in ``Row.tail``: SED in the element's own parity
slot for row pointers, vectors and COO pairs, the single-element
SECDED(96, 88) for CSR element pairs.  Coverage has no
holes; the paper does not say how non-multiple lengths are handled, so
this is a documented deviation.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.bits.packing import pack_u32_lanes, unpack_u32_lanes
from repro.ecc import profiles as _P
from repro.ecc.base import CheckReport, LaneCode
from repro.ecc.crc_correct import max_errors_for_mode
from repro.errors import ConfigurationError

_U32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


# -- Layouts: raw arrays <-> codeword lanes ---------------------------------
class _InPlace:
    """Lanes that alias storage: encodes and corrections land directly."""

    buffer = None

    def write_back(self, a, lanes, which=None, only=None) -> None:
        """Nothing to do: the lanes are the storage."""


class WordLanes(_InPlace):
    """``group`` consecutive 64-bit words per codeword: a reshape of storage.

    The zero-copy layout of vectors (through their uint64 view) and of
    the 64-bit row pointer.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], group: int):
        (self.words,) = arrays
        self.group = group

    def lanes(self, a: int, b: int) -> np.ndarray:
        """Lanes of codewords ``[a, b)`` — a view of storage."""
        return self.words[a * self.group : b * self.group].reshape(-1, self.group)


class SplitLanes(_InPlace):
    """One element per codeword, each field its own lane: the arrays themselves.

    What the SED rows use: parity folds lane by lane
    (:class:`~repro.ecc.sed.SEDCode`), so a ``(value, index)`` element
    is checked on its own arrays at their own widths, with no lane array.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], group: int):
        self.arrays = arrays

    def lanes(self, a: int, b: int) -> tuple[np.ndarray, ...]:
        """Split lanes of codewords ``[a, b)`` — views of storage."""
        return tuple(array[a:b] for array in self.arrays)


class U32Lanes:
    """``group`` consecutive uint32 entries per codeword, two to a lane."""

    def __init__(self, arrays: tuple[np.ndarray, ...], group: int):
        (self.raw,) = arrays
        self.group = group
        self.buffer = np.empty((self.raw.size // group, (group + 1) // 2), np.uint64)

    def lanes(self, a: int, b: int) -> np.ndarray:
        """Refill and return the buffer rows of codewords ``[a, b)``."""
        g = self.group
        return pack_u32_lanes(self.raw[a * g : b * g], g, out=self.buffer[a:b])

    def write_back(self, a, lanes, which=None, only=None) -> None:
        """Store ``lanes`` (or just its rows ``which``) back into the entries."""
        rows = slice(None) if which is None else which
        entries = self.raw.reshape(-1, self.group)[a : a + len(lanes)]
        entries[rows] = unpack_u32_lanes(lanes[rows], self.group).reshape(-1, self.group)


def _interleaved(group: int):
    """CSR lanes: ``value_k, index_k`` for each element of the codeword."""
    return [lane for k in range(group) for lane in (((0, k), None), ((1, k), None))]


def _blocked(group: int):
    """COO lanes: the values, then ``row_k | col_k << 32`` per element."""
    return ([((0, k), None) for k in range(group)]
            + [((1, k), (2, k)) for k in range(group)])


class ElementLanes:
    """``group`` sparse-matrix elements per codeword.

    ``arrays`` are the element fields (the values as their uint64 view,
    then the index arrays); ``spec`` lists, per lane, which field of
    which element of the codeword fills its low word and — for two
    32-bit indices sharing a lane — its high half.  A lone 32-bit index
    is zero-extended; that padding is outside every code's positions.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], group: int, spec=_interleaved):
        self.arrays = arrays
        self.group = group
        self.spec = spec(group)
        self.buffer = np.empty((arrays[0].size // group, len(self.spec)), np.uint64)

    def _field(self, field: tuple[int, int], a: int, b: int) -> np.ndarray:
        """Field ``(array, k)`` of codewords ``[a, b)``: a strided view of storage."""
        i, k = field
        return self.arrays[i][a * self.group + k : b * self.group : self.group]

    def lanes(self, a: int, b: int) -> np.ndarray:
        """Refill and return the buffer rows of codewords ``[a, b)``."""
        out = self.buffer[a:b]
        for j, (low, high) in enumerate(self.spec):
            np.copyto(out[:, j], self._field(low, a, b), casting="same_kind")
            if high:
                out[:, j] |= self._field(high, a, b).astype(np.uint64) << _32
        return out

    def write_back(self, a, lanes, which=None, only=None) -> None:
        """Store rows ``which`` (default all) of lanes ``only`` (default all) back."""
        rows = slice(None) if which is None else which
        b = a + len(lanes)
        for j, (low, high) in enumerate(self.spec):
            if only is not None and j not in only:
                continue  # an encode changes only the lanes carrying check bits
            word = lanes[rows, j]
            # A 32-bit field takes the low half, which is all a lone index has.
            self._field(low, a, b)[rows] = word & _U32 if high else word
            if high:
                self._field(high, a, b)[rows] = word >> _32


COOLanes = functools.partial(ElementLanes, spec=_blocked)


class RowLanes:
    """Whole CSR rows of one length per codeword (the CRC32C row scheme).

    Lanes are the row's ``length`` values, then its column indices
    (32-bit indices two to a lane), so the codeword's byte order is the
    block-wise stream the paper's row CRC covers.  Rows of one length
    are scattered through the matrix; ``starts`` are their offsets.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], starts: np.ndarray, length: int):
        self.vwords, self.colidx = arrays
        self.starts = starts.astype(np.int64)
        self.length = length
        self._offsets = np.arange(length)
        self._packed = self.colidx.dtype == np.uint32
        self._padded = 2 * ((length + 1) // 2)
        n_lanes = length + (self._padded // 2 if self._packed else length)
        self.buffer = np.zeros((self.starts.size, n_lanes), np.uint64)

    def lanes(self, a: int, b: int) -> np.ndarray:
        """Gather rows ``[a, b)`` of this length into the buffer."""
        out = self.buffer[a:b]
        elems = self.starts[a:b, None] + self._offsets
        out[:, : self.length] = self.vwords[elems]
        if self._packed:
            entries = np.zeros((b - a, self._padded), np.uint32)
            entries[:, : self.length] = self.colidx[elems]
            pack_u32_lanes(entries.reshape(-1), self._padded, out=out[:, self.length :])
        else:
            out[:, self.length :] = self.colidx[elems]
        return out

    def write_back(self, a, lanes, which=None, only=None) -> None:
        """Scatter lanes (or just its rows ``which``) back into the rows."""
        rows = slice(None) if which is None else which
        elems = (self.starts[a : a + len(lanes), None] + self._offsets)[rows]
        if only is None or min(only) < self.length:  # else the values are unchanged
            self.vwords[elems] = lanes[rows, : self.length]
        entries = lanes[rows, self.length :]
        if self._packed:
            entries = unpack_u32_lanes(entries, self._padded)
            entries = entries.reshape(-1, self._padded)[:, : self.length]
        self.colidx[elems] = entries


# -- The table --------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Row:
    """One ``(structure, scheme)`` cell: how it is laid out and coded."""

    structure: str
    scheme: str | None
    #: Layout class, built as ``layout(arrays, group)``.
    layout: Callable | None
    #: Elements per codeword; 0 = one codeword per matrix row.
    group: int
    #: ``(crc_mode, row_length) -> LaneCode`` for the grouped codewords.
    code: Callable | None
    #: Redundancy bits reserved in each index field (top bits) or, for
    #: vectors, in each double (mantissa LSBs).
    reserved: tuple[int, ...]
    #: Scheme of the structure's one-element row that protects the
    #: ``len % group`` leftover elements, one codeword each.
    tail: str | None = None
    #: True when the reserved bits are mantissa LSBs, which cap precision
    #: rather than magnitude: no value limit applies.
    lsb: bool = False

    def limit(self, bits: int, field: int = 0) -> int:
        """Largest value a ``bits``-wide index field may hold (paper §VI.A).

        Redundancy is stolen from the field's top bits, so protecting data
        caps the matrix size; the same number is the field's decode mask.
        """
        return (1 << (bits - self.reserved[field])) - 1

    @property
    def tail_reserved(self) -> int:
        """Bits the tail row reserves in its one element."""
        return codeword_row(self.structure, self.tail).reserved[0] if self.tail else 0


def _fixed(factory: Callable, *args) -> Callable:
    """A code that depends on neither the CRC mode nor a row length."""
    return lambda mode, length: factory(*args)


_ROWS = [
    # CSR (value, uint32 column) elements — Fig. 1.
    Row("csr_elements", None, None, 1, None, (0,)),
    Row("csr_elements", "sed", SplitLanes, 1, _fixed(_P.sed_code, 96, 95), (1,)),
    Row("csr_elements", "secded64", ElementLanes, 1, _fixed(_P.csr_element_secded), (8,)),
    Row("csr_elements", "secded128", ElementLanes, 2,
        _fixed(_P.csr_element_pair_secded128), (8,), tail="secded64"),
    Row("csr_elements", "crc32c", RowLanes, 0,
        lambda mode, length: _P.csr_row_crc32c(length, mode), (8,)),
    # CSR row pointer, uint32 entries — Fig. 2.
    Row("row_pointer", None, None, 1, None, (0,)),
    Row("row_pointer", "sed", SplitLanes, 1, _fixed(_P.sed_code, 32, 31), (1,)),
    Row("row_pointer", "secded64", U32Lanes, 2, _fixed(_P.rowptr_secded64), (4,), tail="sed"),
    Row("row_pointer", "secded128", U32Lanes, 4, _fixed(_P.rowptr_secded128), (4,), tail="sed"),
    Row("row_pointer", "crc32c", U32Lanes, 8,
        lambda mode, length: _P.rowptr_crc32c(mode), (4,), tail="sed"),
    # Dense float64 vectors, redundancy in mantissa LSBs — Fig. 3.
    Row("vector", "sed", WordLanes, 1, _fixed(_P.sed_code, 64, 0), (1,), lsb=True),
    Row("vector", "secded64", WordLanes, 1, _fixed(_P.vector_secded64), (8,), lsb=True),
    Row("vector", "secded128", WordLanes, 2, _fixed(_P.vector_secded128), (5,),
        tail="sed", lsb=True),
    Row("vector", "crc32c", WordLanes, 4,
        lambda mode, length: _P.vector_crc32c(mode), (8,), tail="sed", lsb=True),
    # 64-bit-index CSR — the paper's §V.B extension note.
    Row("csr_elements64", "sed", SplitLanes, 1, _fixed(_P.sed_code, 128, 127), (1,)),
    Row("csr_elements64", "secded", ElementLanes, 1, _fixed(_P.csr64_element_secded), (9,)),
    Row("csr_elements64", "crc32c", RowLanes, 0,
        lambda mode, length: _P.csr64_row_crc32c(length, mode), (8,)),
    Row("row_pointer64", "sed", WordLanes, 1, _fixed(_P.sed_code, 64, 63), (1,)),
    Row("row_pointer64", "secded", WordLanes, 1, _fixed(_P.u64_top_secded), (8,)),
    Row("row_pointer64", "crc32c", WordLanes, 4,
        lambda mode, length: _P.rowptr64_crc32c(mode), (8,), tail="sed"),
    # COO (value, uint32 row, uint32 column) elements — prior work [13].
    Row("coo_elements", "sed", SplitLanes, 1, _fixed(_P.coo_split_sed), (1, 0)),
    Row("coo_elements", "secded128", COOLanes, 1, _fixed(_P.coo_element_secded128), (8, 8)),
    Row("coo_elements", "crc32c", COOLanes, 2,
        lambda mode, length: _P.coo_pair_crc32c(mode), (8, 8), tail="sed"),
]

#: ``(structure, scheme) -> Row`` — the one scheme table.  Scheme
#: ``None`` is a structure's null row: no codewords, nothing reserved.
CODEWORD_TABLE: dict[tuple[str, str | None], Row] = {
    (row.structure, row.scheme): row for row in _ROWS
}


def schemes(structure: str) -> list[str]:
    """A structure's scheme names, in the order the paper's figures list them."""
    return [s for (name, s) in CODEWORD_TABLE if name == structure and s is not None]


def codeword_row(structure: str, scheme: str | None) -> Row:
    """Look up a table row; unknown schemes raise with the choices."""
    try:
        return CODEWORD_TABLE[structure, scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown {structure} scheme {scheme!r}; choose from {schemes(structure)}"
        ) from None


# -- The store --------------------------------------------------------------
class Segment(NamedTuple):
    """Codewords sharing one layout and code; local codeword ``k`` is ``ids[k]``."""

    #: A ``range`` for the grouped prefix and for the tail, a sorted
    #: array for the (scattered) rows of one length.
    ids: range | np.ndarray
    layout: _InPlace | U32Lanes | ElementLanes | RowLanes
    code: LaneCode


class CodewordStore:
    """The codewords of one protected region, under one table row.

    ``arrays`` are the region's raw arrays as the row's layout expects
    them — float64 values as their uint64 view, then the index arrays.
    The store keeps views: encodes and corrections write through to the
    caller's arrays, and flips injected there are what it checks.
    ``crc_mode`` is the CRC32C operating point (``"2EC3ED"``,
    ``"1EC4ED"``, ``"5ED"``); ``rowptr`` the trusted row offsets of the
    one-codeword-per-row layout.  Every index field's *values* are
    validated against the row's limit: a value using a reserved bit
    would be silently rewritten by the encode.
    """

    def __init__(self, structure: str, scheme: str | None,
                 arrays: tuple[np.ndarray, ...], crc_mode: str = "2EC3ED",
                 rowptr: np.ndarray | None = None):
        self.row = row = codeword_row(structure, scheme)
        max_errors_for_mode(crc_mode, True)  # reject an unknown mode on every row
        for field, array in enumerate(arrays[-len(row.reserved):]):
            limit = row.limit(8 * array.itemsize, field)
            if row.reserved[field] and not row.lsb and array.size and array.max() > limit:
                raise ConfigurationError(
                    f"{structure} index field {field}: value {array.max()} "
                    f"exceeds the scheme limit {limit}"
                )
        self.segments: list[Segment] = []
        if row.group == 0:
            lengths = np.diff(rowptr.astype(np.int64))
            if lengths.size and int(lengths.min()) < 4:
                raise ConfigurationError(
                    "crc32c row protection needs >= 4 non-zeros per row "
                    f"(found a row with {int(lengths.min())})"
                )
            for length in np.unique(lengths):
                rows = np.flatnonzero(lengths == length)
                self.segments.append(Segment(
                    rows, row.layout(arrays, rowptr[rows], int(length)),
                    row.code(crc_mode, int(length))))
        elif row.layout is not None:  # the null row has no codewords
            g = row.group
            n_main, n_tail = divmod(arrays[0].size, g)
            main = tuple(a[: n_main * g] for a in arrays)
            self.segments.append(Segment(
                range(n_main), row.layout(main, g), row.code(crc_mode, None)))
            if n_tail:
                tail_row = codeword_row(structure, row.tail)
                tail = tuple(a[n_main * g :] for a in arrays)
                self.segments.append(Segment(
                    range(n_main, n_main + n_tail),
                    tail_row.layout(tail, 1), tail_row.code(crc_mode, None)))
        #: Number of ECC codewords covering the region.
        self.n_codewords = sum(len(segment.ids) for segment in self.segments)

    # ------------------------------------------------------------------
    def _each(self, window: tuple[int, int] | None) -> tuple[int, list[tuple]]:
        """The window's size and ``(layout, code, a, b, where)`` per segment in it.

        ``[a, b)`` are segment-local codewords, ``where`` their positions
        in the window.  ``None`` is the whole region; a ``(lo, hi)``
        outside ``[0, n_codewords]`` raises ``ValueError``.
        """
        lo, hi = (0, self.n_codewords) if window is None else map(int, window)
        if not 0 <= lo <= hi <= self.n_codewords:
            raise ValueError(f"window {window!r} out of range for {self.n_codewords} codewords")
        parts = []
        for ids, layout, code in self.segments:
            if isinstance(ids, range):
                first, last = max(lo, ids.start), min(hi, ids.stop)
                a, b, where = first - ids.start, last - ids.start, slice(first - lo, last - lo)
            else:
                a, b = np.searchsorted(ids, (lo, hi))
                where = ids[a:b] - lo
            if a < b:
                parts.append((layout, code, a, b, where))
        return hi - lo, parts

    def encode(self, window: tuple[int, int] | None = None) -> None:
        """(Re)compute the redundancy of the codewords in ``window``."""
        for layout, code, a, b, _ in self._each(window)[1]:
            lanes = layout.lanes(a, b)
            code.encode(lanes)
            layout.write_back(a, lanes, only=code.check_lanes)

    def scan(self) -> int:
        """Number of corrupted codewords, without per-codeword results."""
        return sum(code.scan(layout.lanes(a, b))
                   for layout, code, a, b, _ in self._each(None)[1])

    def detect(self, window: tuple[int, int] | None = None) -> np.ndarray:
        """Boolean corrupted-flag per codeword; never modifies storage."""
        n, parts = self._each(window)
        flags = np.zeros(n, dtype=bool)
        for layout, code, a, b, where in parts:
            flags[where] = code.detect(layout.lanes(a, b))
        return flags

    def check(self, correct: bool = True,
              window: tuple[int, int] | None = None) -> CheckReport:
        """Integrity check of ``window``; corrects in place when possible.

        The report covers only the window's codewords, indexed from its
        start (callers shift with :meth:`CheckReport.with_offset`).
        Clean data returns the compact all-OK report; only corrected
        codewords are written back to storage.
        """
        n, parts = self._each(window)
        status = None
        for layout, code, a, b, where in parts:
            lanes = layout.lanes(a, b)
            report = code.check_and_correct(lanes) if correct else code.detect_report(lanes)
            if not report.clean:
                layout.write_back(a, lanes, which=report.corrected_indices())
                if status is None:
                    status = np.zeros(n, dtype=np.uint8)
                status[where] = report.status
        return CheckReport.all_ok(n) if status is None else CheckReport(status=status)


class CodewordRegion:
    """What every matrix-region container is: raw arrays plus a ``_store``.

    Subclasses own the arrays (the fault-injection surface) and their
    decode; the codeword operations are the store's.
    """

    _store: CodewordStore

    @property
    def n_codewords(self) -> int:
        """Number of ECC codewords covering this container."""
        return self._store.n_codewords

    def encode(self) -> None:
        """(Re)compute all redundancy from the current stored data bits."""
        self._store.encode()

    def detect(self) -> np.ndarray:
        """Boolean corrupted-flag per codeword; never corrects."""
        return self._store.detect()

    def check(
        self, correct: bool = True, window: tuple[int, int] | None = None
    ) -> CheckReport:
        """Integrity check; corrects in place when possible.

        ``window`` restricts the check to the codeword range ``[lo, hi)``
        (the engine's round-robin stripes); the report then covers only
        those codewords.  Clean data returns a compact all-OK report.
        """
        return self._store.check(correct, window)
