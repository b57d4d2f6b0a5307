"""Generic shortened *extended Hamming* (SECDED) codes over lane-packed words.

The paper uses SECDED in four physical layouts (check bits in the top byte
of a column index, in the top nibbles of two/four row-pointer entries, in
the mantissa LSBs of one/two doubles).  Rather than hand-rolling four
codecs, this module constructs a systematic SECDED code for *any* layout:

* ``codeword_positions`` — the physical bits participating in the code
  (e.g. bits 0..95 of a (value, index) pair; the zero-extension padding of
  the index is excluded);
* ``check_positions`` — the physical bits available for redundancy
  (e.g. the index's top byte).

Construction (classic systematic form):

* each of the ``m`` syndrome bits gets column ``1 << j`` of the parity
  check matrix; data bits get the remaining non-power-of-two nonzero
  ``m``-bit columns in increasing order;
* a final overall-parity bit extends the Hamming distance from 3 to 4,
  i.e. *single error correct, double error detect*;
* if the layout offers more redundancy slots than the code needs
  (``len(check_positions) > m + 1``), the surplus slots are demoted to
  ordinary (constant-zero, but fully protected) data bits — this is how
  the paper's "9 bits per 128" budget maps onto 128-bit physical
  codewords.

Decoding a received word ``r``:

======================  =========================================
overall parity of ``r``  syndrome ``s``        verdict
======================  =========================================
0                        0                     clean
1                        0                     flip in the parity bit itself
1                        ``1 << j``            flip in syndrome bit ``j``
1                        a data column         flip in that data bit → correct
1                        anything else         ≥3 flips → uncorrectable
0                        nonzero               double flip → uncorrectable
======================  =========================================

All hot paths are vectorised.  The ``m`` syndrome masks and the
overall-parity mask are stacked into one ``(m + 1, L)`` block of check
rows, and a check computes every syndrome bit and the parity of a block
of codewords in one pass over an ``(N, L)`` uint64 array: ``3L + 1``
NumPy calls per block, whatever ``m`` is.  The passes are the kernels
of :mod:`repro.ecc.secded_kernels`, run through the code's persistent
:class:`~repro.ecc.secded_kernels.SyndromeScratch`, cache-blocked and
``out=``-threaded so a full check allocates no temporary proportional
to the codeword count; :meth:`SECDEDCode.scan` is the clean-path screen
that answers "anything corrupted?" with zero large allocations at all.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bits.packing import bits_to_lane_masks
from repro.ecc import secded_kernels
from repro.ecc.base import CheckReport, CodewordStatus, LaneCode
from repro.errors import ConfigurationError

_ONE = np.uint64(1)


def _min_syndrome_bits(n_total: int) -> int:
    """Smallest m with enough distinct columns for an n_total-bit codeword.

    Needs ``2**m - 1 - m`` non-power-of-two columns for the data bits,
    where ``n_data = n_total - m - 1``; that reduces to ``2**m >= n_total``.
    """
    m = 1
    while (1 << m) < n_total:
        m += 1
    return m


class SECDEDCode(LaneCode):
    """A shortened extended Hamming code bound to a physical bit layout.

    Parameters
    ----------
    n_lanes:
        Number of 64-bit lanes per codeword.
    codeword_positions:
        Physical bit positions (``0 <= p < 64 * n_lanes``) covered by the
        code.  Positions outside this set (e.g. struct padding) are
        ignored entirely.
    check_positions:
        Subset of ``codeword_positions`` reserved for redundancy.  Must
        provide at least ``m + 1`` slots.
    min_syndrome_bits:
        Lower bound on ``m``; used by the 128-bit profiles to reproduce
        the paper's 9-bit budget exactly.
    name:
        Human-readable label used in reprs and error messages.
    """

    corrects, detects = 1, 2

    def __init__(
        self,
        n_lanes: int,
        codeword_positions: Sequence[int],
        check_positions: Sequence[int],
        *,
        min_syndrome_bits: int = 0,
        name: str = "secded",
    ):
        super().__init__(n_lanes, codeword_positions, check_positions, name)
        positions, check = self.positions, self.check_positions
        n_total = len(positions)
        m = max(_min_syndrome_bits(n_total), int(min_syndrome_bits))
        if len(check) < m + 1:
            raise ConfigurationError(
                f"{name}: layout offers {len(check)} redundancy slots but the "
                f"code needs {m + 1} for a {n_total}-bit codeword"
            )
        self.n_syndrome_bits = m
        self.syndrome_slots = check[:m]
        self.parity_slot = check[m]
        # Surplus redundancy slots become protected constant-zero data bits.
        surplus = set(check[m + 1 :])
        reserved = set(self.syndrome_slots) | {self.parity_slot}
        self.data_positions = [p for p in positions if p not in reserved]
        self.n_data_bits = len(self.data_positions)
        self.n_codeword_bits = n_total
        self.surplus_slots = sorted(surplus)

        max_data = (1 << m) - 1 - m
        if self.n_data_bits > max_data:
            raise ConfigurationError(
                f"{name}: {self.n_data_bits} data bits exceed the {max_data} "
                f"addressable by {m} syndrome bits"
            )

        # Assign non-power-of-two columns to data bits in increasing order.
        columns = []
        c = 1
        while len(columns) < self.n_data_bits:
            c += 1
            if c & (c - 1):  # not a power of two
                columns.append(c)
        self._data_columns = columns

        # Per-syndrome-bit masks over data positions, and with the check
        # bit itself included (used when checking a stored codeword).
        self._data_masks = np.zeros((m, self.n_lanes), dtype=np.uint64)
        self._full_masks = np.zeros((m, self.n_lanes), dtype=np.uint64)
        for j in range(m):
            members = [
                p for p, col in zip(self.data_positions, columns) if (col >> j) & 1
            ]
            self._data_masks[j] = bits_to_lane_masks(members, self.n_lanes)
            self._full_masks[j] = self._data_masks[j] | bits_to_lane_masks(
                [self.syndrome_slots[j]], self.n_lanes
            )

        # Syndrome value -> physical bit position (or -1 = invalid).
        table = np.full(1 << m, -1, dtype=np.int32)
        table[0] = self.parity_slot
        for j, slot in enumerate(self.syndrome_slots):
            table[1 << j] = slot
        for p, col in zip(self.data_positions, columns):
            table[col] = p
        self._decode_table = table

        # The stacked check rows: the m syndrome masks, then the
        # overall-parity mask — one (m + 1, L) block the kernels run
        # every syndrome through in a single pass.
        self._check_rows = np.vstack([self._full_masks, self._all_mask[None, :]])

        #: Persistent chunk buffers for the SECDED kernels.  Codes are
        #: process-wide singletons (see repro.ecc.profiles), so this is
        #: allocated once per layout and reused by every check.
        self.scratch = secded_kernels.SyndromeScratch()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SECDEDCode({self.name}: ({self.n_codeword_bits},{self.n_data_bits}) "
            f"+ {self.n_syndrome_bits}+1 check bits over {self.n_lanes} lanes)"
        )

    # ------------------------------------------------------------------
    def encode(self, lanes: np.ndarray) -> np.ndarray:
        """Fill the redundancy slots of each codeword, in place.

        Any previous content of the check slots (including surplus slots,
        which are forced to zero) is discarded.
        """
        lanes = self._as_lanes(lanes)
        secded_kernels.encode(self, lanes)
        return lanes

    def syndrome(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(syndrome, overall_parity)`` arrays for stored codewords.

        Allocates the two result arrays; use :meth:`syndrome_into` (or
        the :meth:`scan` screen) on paths that must not.
        """
        lanes = self._as_lanes(lanes)
        n = lanes.shape[0]
        syn = np.empty(n, dtype=np.uint16)
        ptot = np.empty(n, dtype=np.uint8)
        secded_kernels.syndrome_into(self, lanes, syn, ptot)
        return syn, ptot

    def syndrome_into(self, lanes: np.ndarray, syn: np.ndarray,
                      parity: np.ndarray) -> None:
        """Fused syndrome pass into caller-owned ``uint16``/``uint8`` outputs."""
        secded_kernels.syndrome_into(self, self._as_lanes(lanes), syn, parity)

    def scan(self, lanes: np.ndarray) -> int:
        """Number of corrupted codewords, allocation-free.

        The screen every check runs first: an intact structure is fully
        verified without materialising per-codeword results, and only a
        nonzero answer pays for the detailed (allocating) decode.
        """
        return secded_kernels.scan(self, self._as_lanes(lanes))

    def detect(self, lanes: np.ndarray) -> np.ndarray:
        """Boolean "corrupted" flag per codeword (no correction attempted)."""
        syn, ptot = self.syndrome(lanes)
        return (syn != 0) | (ptot != 0)

    def detect_report(self, lanes: np.ndarray) -> CheckReport:
        """Detection-only :class:`CheckReport`: scan screen, then flags.

        The shared clean-path shape for every ``check(correct=False)``:
        an intact lane array costs one allocation-free scan and returns
        the compact all-OK report.
        """
        lanes = self._as_lanes(lanes)
        if self.scan(lanes) == 0:
            return CheckReport.all_ok(lanes.shape[0])
        return CheckReport.from_flags(self.detect(lanes))

    def check_and_correct(self, lanes: np.ndarray) -> CheckReport:
        """Check every codeword, repairing single-bit flips in place.

        Clean codeword arrays (the overwhelmingly common case) take the
        fused scan fast path and return a compact all-OK report.
        """
        lanes = self._as_lanes(lanes)
        if self.scan(lanes) == 0:
            return CheckReport.all_ok(lanes.shape[0])
        syn, ptot = self.syndrome(lanes)
        status = np.zeros(lanes.shape[0], dtype=np.uint8)

        single = ptot == 1
        if np.any(single):
            idx = np.flatnonzero(single)
            pos = self._decode_table[syn[idx]]
            valid = pos >= 0
            fix_idx = idx[valid]
            fix_pos = pos[valid]
            if fix_idx.size:
                flat = lanes.reshape(-1)
                lane_of = fix_pos >> 6
                bit_of = (fix_pos & 63).astype(np.uint64)
                flat[fix_idx * self.n_lanes + lane_of] ^= _ONE << bit_of
                status[fix_idx] = CodewordStatus.CORRECTED
            status[idx[~valid]] = CodewordStatus.UNCORRECTABLE

        double = (ptot == 0) & (syn != 0)
        status[double] = CodewordStatus.UNCORRECTABLE
        return CheckReport(status=status)
