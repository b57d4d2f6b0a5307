"""Single Error Detection — one parity bit per codeword (paper §IV).

SED gives a minimum Hamming distance of 2: every odd number of bit flips
is detected, every even number is missed, nothing is correctable.  It is
by far the cheapest scheme (one popcount per codeword) which is why the
paper finds it attractive on almost every platform.

:class:`SEDCode` is layout-agnostic like its SECDED and CRC siblings:
placement of the parity bit — top bit of a column index, LSB of a
mantissa — is the ``check_positions`` it is built with.  Parity folds
lane by lane, so besides an ``(N, L)`` lane array it accepts *split
lanes* — a tuple of ``L`` 1-D unsigned arrays, zero-extended — and a
``(value, index)`` element is checked on its own two arrays, at their
own widths, with no lane array at all.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bits.popcount import parity64
from repro.ecc.base import CheckReport, LaneCode
from repro.errors import ConfigurationError


class SEDCode(LaneCode):
    """Even parity over ``codeword_positions``, stored in one check slot."""

    corrects, detects = 0, 1

    def __init__(self, n_lanes: int, codeword_positions: Sequence[int],
                 check_positions: Sequence[int], *, name: str = "sed"):
        super().__init__(n_lanes, codeword_positions, check_positions, name)
        if len(self.check_positions) != 1:
            raise ConfigurationError(f"{name}: SED stores exactly one parity bit")
        self.parity_slot = self.check_positions[0]

    def _columns(self, lanes) -> Sequence[np.ndarray]:
        """One 1-D array per lane: split lanes as given, else the array's columns."""
        if isinstance(lanes, tuple):
            return lanes
        lanes = self._as_lanes(lanes)
        return [lanes[:, j] for j in range(self.n_lanes)]

    def parity(self, lanes) -> np.ndarray:
        """Total parity of each stored codeword (uint8; 0 = intact)."""
        total = None
        for column, mask in zip(self._columns(lanes), self._all_mask):
            # Padding is masked out; a lane covered to its stored width skips that.
            width = (1 << (8 * column.itemsize)) - 1
            if int(mask) & width != width:
                column = column & column.dtype.type(int(mask) & width)
            total = parity64(column) if total is None else total ^ parity64(column)
        return total

    def encode(self, lanes):
        """Set the parity slot so every codeword has even parity, in place."""
        lane, bit = divmod(self.parity_slot, 64)
        column = self._columns(lanes)[lane]
        slot = column.dtype.type(1) << column.dtype.type(bit)
        column &= ~slot
        column |= self.parity(lanes).astype(column.dtype) << column.dtype.type(bit)
        return lanes

    def scan(self, lanes) -> int:
        """Number of corrupted codewords."""
        return int(np.count_nonzero(self.parity(lanes)))

    def detect(self, lanes) -> np.ndarray:
        """Boolean "corrupted" flag per codeword: odd parity = odd flips."""
        return self.parity(lanes).astype(bool)

    def check_and_correct(self, lanes) -> CheckReport:
        """Parity locates nothing: a detection is always UNCORRECTABLE."""
        return self.detect_report(lanes)
