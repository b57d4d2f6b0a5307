"""Protected dense float64 vectors (paper §VI.B, Fig. 3).

Doubles have no spare bits, so redundancy is hidden in the
least-significant mantissa bits and **masked to zero whenever a value is
used for computation** — the paper's framework rule that bounds the
injected noise (relative error < 2^-44 for 8 reserved bits).

Scheme layouts:

========  =====  ==================  =============================
scheme    group  reserved LSBs/elem  codeword
========  =====  ==================  =============================
sed        1     1                   one double, parity in bit 0
secded64   1     8                   one double, 8 check bits
secded128  2     5                   two doubles, 9 check bits (+1 zero)
crc32c     4     8                   four doubles, CRC32C split 8/8/8/8
========  =====  ==================  =============================

A tail of ``len(v) % group`` elements falls back to per-element SED
(parity in bit 0) so coverage has no holes; this is a documented
deviation — the paper never states how non-multiple lengths are handled.

Writes are whole-codeword ``store`` operations: the solver computes on
plain working arrays and commits complete codewords, which is exactly the
paper's read/write-buffering strategy for avoiding read-modify-writes.
``store`` additionally supports *dirty windows*: a windowed store
re-encodes only the codeword lanes the window touches, and a deferred
store buffers the new values in the plain cache and re-encodes the
accumulated dirty window in one batch at :meth:`flush` — the
deferred-verification engine's write-buffering mode.  Reads between
scheduled checks come from :meth:`view`, a cached plain-``float64`` view
that costs nothing once populated.
"""

from __future__ import annotations

import numpy as np

from repro.bits.float_bits import f64_to_u64
from repro.ecc.base import CheckReport
from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.protect.codeword_store import CodewordStore


class ProtectedVector:
    """A float64 vector with embedded software ECC.

    Parameters
    ----------
    values:
        Initial contents.  Copied; the reserved mantissa LSBs of the copy
        are overwritten with redundancy.
    scheme:
        One of ``"sed"``, ``"secded64"``, ``"secded128"``, ``"crc32c"``.
    """

    def __init__(self, values: np.ndarray, scheme: str = "secded64",
                 crc_mode: str = "2EC3ED"):
        self.scheme = scheme
        self.crc_mode = crc_mode
        self.raw = np.array(values, dtype=np.float64, copy=True)
        if self.raw.ndim != 1:
            raise ConfigurationError("ProtectedVector expects a 1-D array")
        # The store checks and encodes the uint64 view in place: no lane copy.
        self._store = CodewordStore("vector", scheme, (f64_to_u64(self.raw),), crc_mode)
        row = self._store.row
        #: Mantissa LSBs reserved per grouped element.
        self.reserved_bits = row.reserved[0]
        #: Elements per codeword.
        self.group = row.group
        self._n_grouped = (self.raw.size // self.group) * self.group
        # Decode masks: reserved LSBs to zero (the tail reserves its own).
        self._data_mask = ~np.uint64((1 << self.reserved_bits) - 1)
        self._tail_mask = ~np.uint64((1 << row.tail_reserved) - 1)
        self._cache: np.ndarray | None = None
        self._cache_ro: np.ndarray | None = None
        self._dirty: tuple[int, int] | None = None
        self._store.encode()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.raw.size

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the iterate the flat codeword store holds."""
        return self.raw.shape

    @property
    def n_codewords(self) -> int:
        """Grouped codewords plus per-element SED tail codewords."""
        return self._store.n_codewords

    @property
    def tail_size(self) -> int:
        """Number of entries in the final, partial codeword group."""
        return self.raw.size - self._n_grouped

    @property
    def dirty_window(self) -> tuple[int, int] | None:
        """Element range ``[lo, hi)`` buffered but not yet re-encoded."""
        return self._dirty

    # -- read path ------------------------------------------------------
    def values(self, out: np.ndarray | None = None) -> np.ndarray:
        """Computation-ready copy: reserved LSBs masked to zero.

        While a deferred write is buffered (``dirty_window`` is set) the
        cache is the authoritative content, so its values are returned
        verbatim (they have not been rounded into codewords yet).
        """
        if out is None:
            out = np.empty_like(self.raw)
        if self._dirty is not None:
            np.copyto(out, self._cache)
            return out
        self._decode_into(out, 0, self.raw.size)
        return out

    def view(self) -> np.ndarray:
        """Read-only cached plain view — the decode-free read path.

        The cache is verified once when populated (see
        :meth:`_ensure_cache`) and kept in sync by
        :meth:`store`/:meth:`flush`; between those points it is *not*
        re-verified (the deferred-verification engine schedules the
        checks).  Corrections applied by :meth:`check` invalidate it via
        :meth:`invalidate_cache`.
        """
        self._ensure_cache()
        return self._cache_ro

    def invalidate_cache(self) -> None:
        """Drop the cached plain view (e.g. after an in-place correction)."""
        if self._dirty is not None:
            raise RuntimeError("cannot invalidate the cache with a dirty window pending")
        self._cache = None
        self._cache_ro = None

    # -- write path ------------------------------------------------------
    def store(
        self,
        new_values: np.ndarray,
        window: tuple[int, int] | None = None,
        defer: bool = False,
    ) -> None:
        """Overwrite values and re-encode (no read-modify-write).

        Parameters
        ----------
        window:
            ``(lo, hi)`` element range to overwrite.  ``new_values`` may
            be the window slice (length ``hi - lo``) or a full-length
            vector from which the slice is taken.  Only the codeword
            lanes covering the window are re-encoded; ``None`` keeps the
            whole-vector encode as the fallback.
        defer:
            Buffer the write in the plain cache and merely widen the
            dirty window; the actual re-encode happens at :meth:`flush`.
        """
        new_values = np.asarray(new_values, dtype=np.float64)
        if window is None:
            lo, hi = 0, self.raw.size
            if new_values.shape != self.raw.shape:
                raise ValueError("store() requires a same-length vector")
        else:
            lo, hi = int(window[0]), int(window[1])
            if not (0 <= lo <= hi <= self.raw.size):
                raise ValueError(f"window {window!r} out of range for size {self.raw.size}")
            if new_values.size == self.raw.size:
                new_values = new_values[lo:hi]
            elif new_values.size != hi - lo:
                raise ValueError("store() window slice has the wrong length")
        if defer:
            self._ensure_cache(trusted=window is None)
            self._cache[lo:hi] = new_values
            self._mark_dirty(lo, hi)
            return
        if self._dirty is not None:
            self.flush()
        if window is None:
            np.copyto(self.raw, new_values)
            self._store.encode()
        else:
            self._guard_partial_lanes(lo, hi)
            self.raw[lo:hi] = new_values
            lo, hi = self._encode_window(lo, hi)
        if self._cache is not None:
            self._refresh_cache_slice(lo, hi)

    def flush(self) -> tuple[int, int] | None:
        """Commit the buffered dirty window: re-encode only those lanes.

        Returns the lane-aligned element range that was re-encoded, or
        ``None`` when nothing was dirty.  Raw storage inside the window
        is overwritten from the cache (any bit flip that landed there
        held dead data); storage outside stays untouched, so flips there
        remain detectable by the next check.
        """
        if self._dirty is None:
            return None
        lo, hi = self._align_window(*self._dirty)
        self._dirty = None
        self.raw[lo:hi] = self._cache[lo:hi]
        self._encode_window(lo, hi)
        self._refresh_cache_slice(lo, hi)
        return (lo, hi)

    def rebuild_from_cache(self) -> bool:
        """Re-encode raw storage from the authoritative plain cache.

        The recovery path for raw-storage corruption: reads are served
        from the cache (populated under verification and refreshed by
        every committed store), so a flip that lands in stored bits is
        never consumed by compute — rewriting storage from the cache
        restores exactly the content the solver has been working with,
        including any still-buffered dirty window.  Returns False when
        no cache exists (nothing authoritative to rebuild from).
        """
        if self._cache is None:
            return False
        self._dirty = None
        np.copyto(self.raw, self._cache)
        self._store.encode()
        self._refresh_cache_slice(0, self.raw.size)
        return True

    # -- integrity -------------------------------------------------------
    def detect(self) -> np.ndarray:
        """Boolean corrupted-flag per codeword, without correction.

        A pending dirty window is flushed first so the verdict describes
        the vector's logical content, not a stale snapshot.
        """
        self.flush()
        return self._store.detect()

    def check(self, correct: bool = True) -> CheckReport:
        """Full integrity check; single-bit errors repaired when possible.

        In-place corrections invalidate the cached plain view so the next
        :meth:`view` observes the repaired values.
        """
        self.flush()
        report = self._store.check(correct)
        if self._cache is not None and report.n_corrected:
            self._cache = None
            self._cache_ro = None
        return report

    # ------------------------------------------------------------------
    def _ensure_cache(self, trusted: bool = False) -> None:
        """Populate the plain cache from storage, verifying lineage first.

        Once populated, the cache is served decode-free and committed
        back to storage by :meth:`flush`, so corrupted stored data must
        never seed it silently — detection here is what stops a flip
        from being laundered into a fresh valid codeword by a later
        deferred partial-window commit.  ``trusted=True`` skips the
        verification when the caller is about to overwrite the entire
        cache anyway.
        """
        if self._cache is not None:
            return
        if not trusted and self._store.scan():
            raise DetectedUncorrectableError(
                "vector", np.flatnonzero(self._store.detect())[:8].tolist()
            )
        self._cache = self.values()
        self._cache_ro = self._cache.view()
        self._cache_ro.flags.writeable = False

    def _guard_partial_lanes(self, lo: int, hi: int) -> None:
        """Refuse to re-bless unverified lane-mates of a partial write.

        A windowed store re-encodes whole codeword lanes; elements of a
        boundary lane the window does not overwrite contribute their
        current stored bits to the fresh checkword, which would convert
        a flip already sitting there into a valid codeword.  Those lanes
        are detect-checked first; corruption anywhere in them raises
        (conservatively — even a flip in the part being overwritten).
        """
        # A lane is partially written when a window edge falls inside it;
        # single-element lanes (and the 1-wide tail) never are.
        g = self.group
        lanes = {e // g for e in (lo, hi) if e % g and e < self._n_grouped}
        bad = sorted(k for k in lanes if self._store.detect((k, k + 1))[0])
        if bad:
            raise DetectedUncorrectableError("vector", bad)

    def _mark_dirty(self, lo: int, hi: int) -> None:
        if self._dirty is None:
            self._dirty = (lo, hi)
        else:
            self._dirty = (min(self._dirty[0], lo), max(self._dirty[1], hi))

    def _align_window(self, lo: int, hi: int) -> tuple[int, int]:
        """Expand an element range to codeword-lane boundaries.

        Tail elements are 1-wide SED codewords, so only the grouped
        prefix needs alignment.
        """
        g = self.group
        if lo < self._n_grouped:
            lo = (lo // g) * g
        if hi <= self._n_grouped:
            hi = -(-hi // g) * g
        return lo, hi

    def _codeword_of(self, element: int) -> int:
        """Codeword index of a lane-aligned element (tail: one each)."""
        if element <= self._n_grouped:
            return element // self.group
        return self._n_grouped // self.group + element - self._n_grouped

    def _encode_window(self, lo: int, hi: int) -> tuple[int, int]:
        """Re-encode the codeword lanes covering elements ``[lo, hi)``."""
        lo, hi = self._align_window(lo, hi)
        self._store.encode((self._codeword_of(lo), self._codeword_of(hi)))
        return lo, hi

    def _decode_into(self, out: np.ndarray, lo: int, hi: int) -> None:
        """The masked decode of ``raw[lo:hi]``, into the same slice of ``out``."""
        words, out_words = f64_to_u64(self.raw), f64_to_u64(out)
        split = min(max(lo, self._n_grouped), hi)
        np.bitwise_and(words[lo:split], self._data_mask, out=out_words[lo:split])
        np.bitwise_and(words[split:hi], self._tail_mask, out=out_words[split:hi])

    def _refresh_cache_slice(self, lo: int, hi: int) -> None:
        """Mirror the masked decode of ``raw[lo:hi]`` into the cache."""
        if self._cache is not None:
            self._decode_into(self._cache, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProtectedVector(n={self.raw.size}, scheme={self.scheme!r})"


class ProtectedBlockVector(ProtectedVector):
    """A column-blocked ``(k, n)`` solver iterate behind one flat codeword store.

    Blocked multi-RHS solves carry ``k`` systems' worth of each CG
    iterate.  Protecting them as one flat vector of ``k * n`` elements
    keeps every ProtectedVector mechanism — the single dirty-window
    schedule, the verified plain cache, the engine's read/write
    accounting — shared across all ``k`` columns, which is exactly the
    amortization the blocked path exists for (one flush, one check, one
    cache populate per iterate instead of ``k``).

    The block rows are the systems (C-contiguous ``(k, n)``), so row
    ``j``'s elements are a contiguous slab of the flat store.  With
    group-1 schemes (``sed``, ``secded64``) every element is its own
    codeword and each row's protected content is bit-identical to a
    standalone :class:`ProtectedVector` over that row.  Grouped schemes
    (``secded128``, ``crc32c``) build codewords that straddle row
    boundaries when ``n`` is not a multiple of the group — still fully
    protected, but the codeword partition differs from ``k`` standalone
    vectors (a documented deviation; detection/correction strength is
    unchanged).
    """

    def __init__(self, values: np.ndarray, scheme: str = "secded64",
                 crc_mode: str = "2EC3ED"):
        block = np.ascontiguousarray(values, dtype=np.float64)
        if block.ndim != 2:
            raise ConfigurationError("ProtectedBlockVector expects a 2-D array")
        self.block_shape = block.shape
        super().__init__(block.reshape(-1), scheme, crc_mode)

    @property
    def shape(self) -> tuple[int, ...]:
        """The ``(k, n)`` shape of the blocked iterate."""
        return self.block_shape

    def view(self) -> np.ndarray:
        """The cached read-only plain view, shaped ``(k, n)``."""
        return super().view().reshape(self.block_shape)

    def store(self, new_values: np.ndarray,
              window: tuple[int, int] | None = None, defer: bool = False) -> None:
        """Commit a ``(k, n)`` iterate (or a flat ``window`` of it)."""
        super().store(np.asarray(new_values).reshape(-1), window=window, defer=defer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtectedBlockVector(shape={self.block_shape}, "
            f"scheme={self.scheme!r})"
        )
