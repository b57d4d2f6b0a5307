"""CRC32C as a lane code: one checksum per codeword, with correction.

The stream a codeword's CRC covers is *the codeword's own bytes with the
check slots zeroed*, in ascending bit order; the 32 checksum bits live in
``check_positions`` (bit ``j`` of the CRC in slot ``j``).  That one rule
is every CRC layout of the paper: four top bytes of a CSR row's first
four column indices, eight row-pointer top nibbles, the low mantissa
byte of four doubles — only the bit-position map differs.

Correction is the syndrome-signature search of
:mod:`repro.ecc.crc_correct`; this class owns the only locate-and-repair
loop in the library.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.ecc.base import CheckReport, CodewordStatus, LaneCode
from repro.ecc.crc32c import crc32c_batch
from repro.ecc.crc_correct import corrector_for, max_errors_for_mode
from repro.errors import ConfigurationError


class CRC32CCode(LaneCode):
    """CRC32C over a byte-aligned lane layout, run in one nECmED mode.

    Parameters
    ----------
    n_lanes, codeword_positions, check_positions:
        As for every :class:`~repro.ecc.base.LaneCode`; the codeword must
        be a whole-byte prefix of the lanes and offer exactly 32 check slots.
    mode:
        ``"2EC3ED"`` (correct two flips, detect three), ``"1EC4ED"`` or
        ``"5ED"`` (pure detection) — the ``n + m = 5`` trade-off HD = 6
        allows.  Outside the HD-6 length window correction is capped at
        one flip.
    """

    def __init__(self, n_lanes: int, codeword_positions: Sequence[int],
                 check_positions: Sequence[int], *, mode: str = "2EC3ED",
                 name: str = "crc32c"):
        super().__init__(n_lanes, codeword_positions, check_positions, name)
        if len(self.check_positions) != 32:
            raise ConfigurationError(f"{name}: CRC32C needs exactly 32 check slots")
        #: The stream is the first ``n_bytes`` bytes of the lanes.
        self.n_bytes, ragged = divmod(len(self.positions), 8)
        if ragged or self.positions != list(range(8 * self.n_bytes)):
            raise ConfigurationError(f"{name}: codeword must be a whole-byte prefix of its lanes")
        self._corrector = corrector_for(self.n_bytes)
        self.corrects = max_errors_for_mode(mode, self._corrector.hd6)
        self.detects = (5 if self._corrector.hd6 else 3) - self.corrects
        self._check_set = frozenset(self.check_positions)
        # Checksum bits move in contiguous runs of check positions within
        # a lane: (lane, bit offset in lane, width mask, bit offset in the CRC).
        self._runs = []
        for _, run in itertools.groupby(
                enumerate(self.check_positions), lambda jp: (jp[1] - jp[0], jp[1] >> 6)):
            run = list(run)
            at, first = run[0]
            self._runs.append((first >> 6, np.uint64(first & 63),
                               np.uint64((1 << len(run)) - 1), np.uint64(at)))

    def _computed(self, lanes: np.ndarray) -> np.ndarray:
        """CRC of each codeword's stream (check slots read as zero)."""
        masked = np.bitwise_and(lanes, ~self._check_mask, order="C")
        stream = masked.view(np.uint8).reshape(lanes.shape[0], 8 * self.n_lanes)
        return crc32c_batch(stream[:, : self.n_bytes])

    def _diff(self, lanes: np.ndarray) -> np.ndarray:
        """Computed XOR stored checksum per codeword; zero = intact."""
        lanes = self._as_lanes(lanes)
        stored = np.zeros(lanes.shape[0], dtype=np.uint64)
        for lane, shift, width, at in self._runs:
            stored |= ((lanes[:, lane] >> shift) & width) << at
        return self._computed(lanes) ^ stored.astype(np.uint32)

    def encode(self, lanes: np.ndarray) -> np.ndarray:
        """Recompute and embed every codeword's checksum, in place."""
        lanes = self._as_lanes(lanes)
        crc = self._computed(lanes).astype(np.uint64)
        lanes &= ~self._check_mask
        for lane, shift, width, at in self._runs:
            lanes[:, lane] |= ((crc >> at) & width) << shift
        return lanes

    def scan(self, lanes: np.ndarray) -> int:
        """Number of corrupted codewords."""
        return int(np.count_nonzero(self._diff(lanes)))

    def detect(self, lanes: np.ndarray) -> np.ndarray:
        """Boolean "corrupted" flag per codeword (no correction attempted)."""
        return self._diff(lanes) != 0

    def check_and_correct(self, lanes: np.ndarray) -> CheckReport:
        """Check every codeword, repairing up to ``corrects`` flips in place."""
        lanes = self._as_lanes(lanes)
        diff = self._diff(lanes)
        bad = np.flatnonzero(diff)
        if not bad.size:
            return CheckReport.all_ok(lanes.shape[0])
        status = np.zeros(lanes.shape[0], dtype=np.uint8)
        status[bad] = CodewordStatus.UNCORRECTABLE
        if self.corrects == 0:  # 5ED: detection-only operating point
            return CheckReport(status=status)
        n_data_bits = self._corrector.n_data_bits
        for g in bad:
            located = self._corrector.locate(int(diff[g]), max_errors=self.corrects)
            # A check slot reads as zero in the stream, so a "flip" located
            # there through the stream cannot exist in memory: reject the
            # whole localisation before touching anything.
            if located is None or any(bit in self._check_set for bit in located):
                continue
            for bit in located:  # stream bit = lane bit; then the stored CRC's bits
                pos = bit if bit < n_data_bits else self.check_positions[bit - n_data_bits]
                lanes[g, pos >> 6] ^= np.uint64(1) << np.uint64(pos & 63)
            status[g] = CodewordStatus.CORRECTED
        return CheckReport(status=status)
