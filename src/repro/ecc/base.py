"""Shared result types and the lane-code protocol for integrity checks."""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.bits.packing import bits_to_lane_masks
from repro.errors import ConfigurationError


class CodewordStatus(enum.IntEnum):
    """Per-codeword outcome of an integrity check.

    Integer-valued so whole-array status vectors stay NumPy-friendly.
    """

    #: Codeword passed the check.
    OK = 0
    #: Error found and corrected in place (DCE).
    CORRECTED = 1
    #: Error found, not correctable (DUE).
    UNCORRECTABLE = 2


class CheckReport:
    """Aggregate result of checking an array of codewords.

    Two storage forms share one interface:

    * the general form carries a ``uint8`` array of
      :class:`CodewordStatus` values, one per codeword;
    * the *compact clean* form (:meth:`all_ok`) records only the
      codeword count — the scheduled-check hot path produces this when a
      fused scan finds nothing wrong, so a clean verification allocates
      nothing proportional to the structure.  Accessing :attr:`status`
      on a compact report materialises the zeros lazily.
    """

    def __init__(self, status: np.ndarray | None = None, *,
                 n_codewords: int | None = None, index_offset: int = 0):
        if status is None and n_codewords is None:
            raise ValueError("CheckReport needs a status array or a codeword count")
        self._status = status
        self._n = int(status.size if status is not None else n_codewords)
        #: Added to reported codeword indices — a windowed (stripe) check
        #: computes window-relative status but must report absolute
        #: positions (see with_offset).
        self.index_offset = int(index_offset)

    @classmethod
    def all_ok(cls, n_codewords: int) -> "CheckReport":
        """The compact every-codeword-passed report."""
        return cls(n_codewords=n_codewords)

    @classmethod
    def from_flags(cls, flags: np.ndarray) -> "CheckReport":
        """Detection-only report from per-codeword corrupted flags.

        Clean flags collapse to the compact form; corrupted codewords
        are UNCORRECTABLE (detection without correction).
        """
        if not flags.any():
            return cls.all_ok(flags.size)
        return cls(
            status=np.where(
                flags,
                np.uint8(CodewordStatus.UNCORRECTABLE),
                np.uint8(CodewordStatus.OK),
            )
        )

    @classmethod
    def concat(cls, parts: list["CheckReport"]) -> "CheckReport":
        """Concatenate segment reports, staying compact when all are."""
        if len(parts) == 1:
            return parts[0]
        if all(p._status is None for p in parts):
            return cls.all_ok(sum(p.n_codewords for p in parts))
        return cls(status=np.concatenate([p.status for p in parts]))

    @property
    def n_codewords(self) -> int:
        return self._n

    @property
    def status(self) -> np.ndarray:
        """Per-codeword status; materialised on demand for clean reports."""
        if self._status is None:
            self._status = np.zeros(self._n, dtype=np.uint8)
        return self._status

    @property
    def n_corrected(self) -> int:
        if self._status is None:
            return 0
        return int(np.count_nonzero(self._status == CodewordStatus.CORRECTED))

    @property
    def n_uncorrectable(self) -> int:
        if self._status is None:
            return 0
        return int(np.count_nonzero(self._status == CodewordStatus.UNCORRECTABLE))

    @property
    def clean(self) -> bool:
        """True when every codeword passed without intervention."""
        if self._status is None:
            return True
        return bool(np.all(self._status == CodewordStatus.OK))

    @property
    def ok(self) -> bool:
        """True when the data is now trustworthy (clean or fully corrected)."""
        return self.n_uncorrectable == 0

    def with_offset(self, offset: int) -> "CheckReport":
        """This report with indices shifted to absolute codeword positions.

        Containers apply their own corrections against window-relative
        indices *before* this wrapper, so only outward-facing reports
        (errors, campaign accounting) carry the offset.
        """
        if offset == 0:
            return self
        return CheckReport(
            status=self._status, n_codewords=self._n,
            index_offset=self.index_offset + offset,
        )

    def uncorrectable_indices(self) -> np.ndarray:
        if self._status is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self._status == CodewordStatus.UNCORRECTABLE) + self.index_offset

    def corrected_indices(self) -> np.ndarray:
        if self._status is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self._status == CodewordStatus.CORRECTED) + self.index_offset

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Element-wise worst-case merge of two reports over the same codewords."""
        if self._status is None:
            return other
        if other._status is None:
            return self
        return CheckReport(status=np.maximum(self.status, other.status))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckReport(n={self._n}, corrected={self.n_corrected}, "
            f"uncorrectable={self.n_uncorrectable})"
        )


class LaneCode:
    """A code bound to a physical bit layout over ``(N, L)`` uint64 lanes.

    The one protocol every protected container speaks: a code is built
    from ``(n_lanes, codeword_positions, check_positions)`` — which bits
    of an ``L``-lane word it covers and which of those hold redundancy —
    and answers ``encode`` / ``scan`` / ``detect`` / ``detect_report`` /
    ``check_and_correct`` on a lane array, in place.  *Where* the lanes
    come from (a column index's top byte, a mantissa's low bits) is the
    layout's business (:mod:`repro.protect.codeword_store`); bits outside
    ``codeword_positions`` (struct padding) are neither read nor written.

    Subclasses: :class:`~repro.ecc.sed.SEDCode`,
    :class:`~repro.ecc.hamming.SECDEDCode`,
    :class:`~repro.ecc.crc_code.CRC32CCode`.
    """

    #: The guarantee per codeword: every pattern of up to ``corrects``
    #: flips is repaired bitwise, every pattern of up to ``detects``
    #: flips is reported (never a clean report over changed bits).
    corrects = 0
    detects = 0

    def __init__(self, n_lanes: int, codeword_positions: Sequence[int],
                 check_positions: Sequence[int], name: str):
        self.name = name
        self.n_lanes = int(n_lanes)
        self.positions = sorted(int(p) for p in codeword_positions)
        if len(set(self.positions)) != len(self.positions):
            raise ConfigurationError(f"{name}: duplicate codeword positions")
        #: Redundancy slots, in the order the code fills them.
        self.check_positions = [int(p) for p in check_positions]
        if len(set(self.check_positions)) != len(self.check_positions):
            raise ConfigurationError(f"{name}: duplicate check positions")
        covered = set(self.positions)
        for p in self.check_positions:
            if p not in covered:
                raise ConfigurationError(f"{name}: check position {p} not in codeword")
        self._all_mask = bits_to_lane_masks(self.positions, self.n_lanes)
        self._check_mask = bits_to_lane_masks(self.check_positions, self.n_lanes)
        #: Lanes that carry redundancy — the only ones an encode changes.
        self.check_lanes = sorted({p >> 6 for p in self.check_positions})

    def detect_report(self, lanes: np.ndarray) -> CheckReport:
        """Detection-only :class:`CheckReport`; compact when clean.

        The shared shape of every ``check(correct=False)``: corrupted
        codewords come back UNCORRECTABLE, nothing is modified.
        """
        return CheckReport.from_flags(self.detect(lanes))

    def _as_lanes(self, lanes: np.ndarray) -> np.ndarray:
        lanes = np.asarray(lanes, dtype=np.uint64)
        if lanes.ndim == 1:
            lanes = lanes.reshape(-1, self.n_lanes)
        if lanes.shape[-1] != self.n_lanes:
            raise ValueError(
                f"{self.name}: expected {self.n_lanes} lanes, got {lanes.shape[-1]}"
            )
        return lanes
