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
from repro.bits.popcount import parity64
from repro.ecc.base import CheckReport, CodewordStatus
from repro.ecc.crc32c import crc32c_batch
from repro.ecc.crc_correct import corrector_for, max_errors_for_mode
from repro.ecc.profiles import vector_secded64, vector_secded128
from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.protect.base import GROUPS, VECTOR_SCHEMES

_ONE = np.uint64(1)


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
        if scheme not in VECTOR_SCHEMES:
            raise ConfigurationError(
                f"unknown vector scheme {scheme!r}; choose from {sorted(VECTOR_SCHEMES)}"
            )
        self.scheme = scheme
        self.crc_mode = crc_mode
        max_errors_for_mode(crc_mode, True)  # validate eagerly
        self.reserved_bits = VECTOR_SCHEMES[scheme]
        self.group = GROUPS["vector"][scheme]
        self.raw = np.array(values, dtype=np.float64, copy=True)
        if self.raw.ndim != 1:
            raise ConfigurationError("ProtectedVector expects a 1-D array")
        self._n_grouped = (self.raw.size // self.group) * self.group
        self._cache: np.ndarray | None = None
        self._cache_ro: np.ndarray | None = None
        self._dirty: tuple[int, int] | None = None
        self._encode_all()

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
        return self._n_grouped // self.group + (self.raw.size - self._n_grouped)

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
        words = f64_to_u64(self.raw)
        out_words = f64_to_u64(out)
        np.bitwise_and(words, self._data_mask_word(), out=out_words)
        if self.tail_size:
            tail = f64_to_u64(self.raw[self._n_grouped :])
            out_words[self._n_grouped :] = tail & ~_ONE
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
            self._encode_all()
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
        self._encode_all()
        self._refresh_cache_slice(0, self.raw.size)
        return True

    # -- integrity -------------------------------------------------------
    def detect(self) -> np.ndarray:
        """Boolean corrupted-flag per codeword, without correction.

        A pending dirty window is flushed first so the verdict describes
        the vector's logical content, not a stale snapshot.
        """
        self.flush()
        return self._detect_raw()

    def check(self, correct: bool = True) -> CheckReport:
        """Full integrity check; single-bit errors repaired when possible.

        In-place corrections invalidate the cached plain view so the next
        :meth:`view` observes the repaired values.
        """
        self.flush()
        report = self._check_impl(correct)
        if self._cache is not None and report.n_corrected:
            self._cache = None
            self._cache_ro = None
        return report

    def _check_impl(self, correct: bool) -> CheckReport:
        if not correct:
            if self._scan_raw() == 0:
                return CheckReport.all_ok(self.n_codewords)
            return CheckReport.from_flags(self._detect_raw())
        main = self._check_main()
        if not self.tail_size:
            return main
        tail_flags = parity64(f64_to_u64(self.raw[self._n_grouped :]))
        if main._status is None and not tail_flags.any():
            return CheckReport.all_ok(self.n_codewords)
        tail_status = np.where(
            tail_flags.astype(bool),
            np.uint8(CodewordStatus.UNCORRECTABLE),
            np.uint8(CodewordStatus.OK),
        )
        return CheckReport(status=np.concatenate([main.status, tail_status]))

    def _scan_raw(self) -> int:
        """Corrupted-codeword count over raw storage, allocation-free.

        The SECDED schemes run the backend's fused scan over the in-place
        lane view; SED/CRC fall back to the flag pass (their vectors are
        not the allocation-sensitive hot path).
        """
        if self.scheme == "secded64":
            bad = vector_secded64().scan(self._grouped_lanes()) if self._n_grouped else 0
        elif self.scheme == "secded128":
            bad = vector_secded128().scan(self._grouped_lanes()) if self._n_grouped else 0
        else:
            return int(np.count_nonzero(self._detect_raw()))
        if self.tail_size:
            bad += int(np.count_nonzero(parity64(f64_to_u64(self.raw[self._n_grouped :]))))
        return bad

    # ------------------------------------------------------------------
    def _data_mask_word(self) -> np.uint64:
        return np.uint64(~np.uint64((1 << self.reserved_bits) - 1))

    def _grouped_lanes(self) -> np.ndarray:
        """In-place uint64 lane view over the grouped prefix."""
        words = f64_to_u64(self.raw)
        return words[: self._n_grouped].reshape(-1, self.group)

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
        if not trusted and self._scan_raw():
            flags = self._detect_raw()
            raise DetectedUncorrectableError(
                "vector", np.flatnonzero(flags)[:8].tolist()
            )
        self._cache = self.values()
        self._cache_ro = self._cache.view()
        self._cache_ro.flags.writeable = False

    def _detect_raw(self) -> np.ndarray:
        """Per-codeword corrupted flags over raw storage (no flush)."""
        main = self._detect_main()
        if not self.tail_size:
            return main
        tail = parity64(f64_to_u64(self.raw[self._n_grouped :])).astype(bool)
        return np.concatenate([main, tail])

    def _guard_partial_lanes(self, lo: int, hi: int) -> None:
        """Refuse to re-bless unverified lane-mates of a partial write.

        A windowed store re-encodes whole codeword lanes; elements of a
        boundary lane the window does not overwrite contribute their
        current stored bits to the fresh checkword, which would convert
        a flip already sitting there into a valid codeword.  Those lanes
        are detect-checked first; corruption anywhere in them raises
        (conservatively — even a flip in the part being overwritten).
        """
        if self.group == 1:
            return  # single-element lanes are always fully overwritten
        alo, ahi = self._align_window(lo, hi)
        boundaries = []
        if alo < lo:
            boundaries.append(alo)
        if hi < self._n_grouped and ahi > hi:
            last = ahi - self.group
            if last not in boundaries:
                boundaries.append(last)
        bad = []
        words = f64_to_u64(self.raw)
        for start in boundaries:
            lane = words[start : start + self.group].reshape(1, self.group)
            if self._detect_lanes(lane):
                bad.append(start // self.group)
        if bad:
            raise DetectedUncorrectableError("vector", bad)

    def _detect_lanes(self, lanes: np.ndarray) -> bool:
        if self.scheme == "sed":
            return bool(parity64(lanes[:, 0]).any())
        if self.scheme == "secded64":
            return bool(vector_secded64().detect(lanes).any())
        if self.scheme == "secded128":
            return bool(vector_secded128().detect(lanes).any())
        return bool((self._crc_diff(lanes) != 0).any())

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

    def _encode_window(self, lo: int, hi: int) -> tuple[int, int]:
        """Re-encode the codeword lanes covering elements ``[lo, hi)``."""
        lo, hi = self._align_window(lo, hi)
        ghi = min(hi, self._n_grouped)
        if lo < ghi:
            words = f64_to_u64(self.raw)
            self._encode_lanes(words[lo:ghi].reshape(-1, self.group))
        tlo = max(lo, self._n_grouped)
        if tlo < hi:
            tail = f64_to_u64(self.raw[tlo:hi])
            np.bitwise_and(tail, ~_ONE, out=tail)
            tail |= parity64(tail).astype(np.uint64)
        return lo, hi

    def _encode_all(self) -> None:
        if self.raw.size:
            self._encode_window(0, self.raw.size)

    def _encode_lanes(self, lanes: np.ndarray) -> None:
        if self.scheme == "sed":
            np.bitwise_and(lanes, ~_ONE, out=lanes)
            p = parity64(lanes[:, 0]).astype(np.uint64)
            lanes[:, 0] |= p
        elif self.scheme == "secded64":
            vector_secded64().encode(lanes)
        elif self.scheme == "secded128":
            vector_secded128().encode(lanes)
        else:  # crc32c
            self._encode_crc(lanes)

    def _refresh_cache_slice(self, lo: int, hi: int) -> None:
        """Mirror the masked decode of ``raw[lo:hi]`` into the cache."""
        if self._cache is None:
            return
        words = f64_to_u64(self.raw)
        cache_words = f64_to_u64(self._cache)
        ghi = min(hi, self._n_grouped)
        if lo < ghi:
            cache_words[lo:ghi] = words[lo:ghi] & self._data_mask_word()
        tlo = max(lo, self._n_grouped)
        if tlo < hi:
            cache_words[tlo:hi] = words[tlo:hi] & ~_ONE

    # -- scheme internals --------------------------------------------------
    def _detect_main(self) -> np.ndarray:
        if not self._n_grouped:
            return np.zeros(0, dtype=bool)
        lanes = self._grouped_lanes()
        if self.scheme == "sed":
            return parity64(lanes[:, 0]).astype(bool)
        if self.scheme == "secded64":
            return vector_secded64().detect(lanes)
        if self.scheme == "secded128":
            return vector_secded128().detect(lanes)
        return self._crc_diff(lanes) != 0

    def _check_main(self) -> CheckReport:
        lanes = self._grouped_lanes() if self._n_grouped else np.zeros((0, 1), np.uint64)
        if self.scheme == "sed":
            flags = parity64(lanes[:, 0]) if self._n_grouped else np.zeros(0, np.uint8)
            status = np.where(
                flags.astype(bool),
                np.uint8(CodewordStatus.UNCORRECTABLE),
                np.uint8(CodewordStatus.OK),
            )
            return CheckReport(status=status)
        if self.scheme == "secded64":
            return vector_secded64().check_and_correct(lanes)
        if self.scheme == "secded128":
            return vector_secded128().check_and_correct(lanes)
        return self._check_crc(lanes)

    # CRC32C over groups of four doubles: the stream is the 32 bytes of
    # the group with byte 0 (the 8 reserved LSBs) of each double zeroed;
    # CRC byte j is stored in byte 0 of double j.
    def _group_bytes(self, lanes: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(lanes).view(np.uint8).reshape(-1, 8 * self.group)
        stream = raw.copy()
        stream[:, 0::8] = 0
        return stream

    def _stored_crc(self, lanes: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(lanes).view(np.uint8).reshape(-1, 8 * self.group)
        stored = np.zeros(raw.shape[0], dtype=np.uint32)
        for j in range(4):
            stored |= raw[:, 8 * j].astype(np.uint32) << np.uint32(8 * j)
        return stored

    def _encode_crc(self, lanes: np.ndarray) -> None:
        crc = crc32c_batch(self._group_bytes(lanes))
        byte_mask = ~np.uint64(0xFF)
        for j in range(4):
            chunk = ((crc >> np.uint32(8 * j)) & np.uint32(0xFF)).astype(np.uint64)
            lanes[:, j] = (lanes[:, j] & byte_mask) | chunk

    def _crc_diff(self, lanes: np.ndarray) -> np.ndarray:
        return crc32c_batch(self._group_bytes(lanes)) ^ self._stored_crc(lanes)

    def _check_crc(self, lanes: np.ndarray) -> CheckReport:
        diff = self._crc_diff(lanes)
        status = np.zeros(lanes.shape[0], dtype=np.uint8)
        bad = np.flatnonzero(diff)
        if bad.size:
            corrector = corrector_for(8 * self.group)
            max_errors = max_errors_for_mode(self.crc_mode, corrector.hd6)
            if max_errors == 0:  # 5ED: detection-only operating point
                status[bad] = CodewordStatus.UNCORRECTABLE
                return CheckReport(status=status)
            for g in bad:
                located = corrector.locate(int(diff[g]), max_errors=max_errors)
                # Stream bits 0..7 of each double are always zero, so a
                # located "flip" there cannot exist in memory: reject the
                # whole localisation before touching anything.
                if located is None or any(
                    bit < corrector.n_data_bits and (bit % 64) < 8 for bit in located
                ):
                    status[g] = CodewordStatus.UNCORRECTABLE
                    continue
                for bit in located:
                    if bit < corrector.n_data_bits:
                        elem, b = divmod(bit, 64)
                        lanes[g, elem] ^= _ONE << np.uint64(b)
                    else:
                        j = bit - corrector.n_data_bits
                        lanes[g, j // 8] ^= _ONE << np.uint64(j % 8)
                status[g] = CodewordStatus.CORRECTED
        return CheckReport(status=status)

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
