"""Protection of the CSR row-pointer vector (paper §VI.A.1, Fig. 2).

The paper's novel piece: prior ABFT work left the row pointer (*x* vector)
exposed.  Each 32-bit entry is at most ``nnz``, so its top bits are free:

========== ====== ================== ========================
scheme      group  bits/entry stolen  max representable value
========== ====== ================== ========================
sed          1     1 (bit 31)         2**31 - 1
secded64     2     4 (bits 28..31)    2**28 - 1
secded128    4     4                  2**28 - 1
crc32c       8     4                  2**28 - 1
========== ====== ================== ========================

Multi-entry codewords amortise the redundancy ("our new scheme allows us
to split the redundancy bits between 2, 4 and 8 elements").  A tail of
``len % group`` entries falls back to per-entry SED in the top bit — the
other reserved bits of a tail entry are zero and covered by that parity.

These are the ``row_pointer`` rows of
:data:`~repro.protect.codeword_store.CODEWORD_TABLE`.  The CRC32C stream
is the group's 32 bytes with every top nibble read as zero; checksum
nibble ``e`` (crc bits ``4e..4e+3``) is stored in entry ``e``'s top
nibble.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import CheckReport
from repro.protect.codeword_store import CodewordRegion, CodewordStore


class ProtectedRowPointer(CodewordRegion):
    """The protected row-pointer (*x*) vector of a CSR matrix.

    ``raw`` is the container's own copy of the entries, redundancy
    embedded.  Scheme ``None`` is the null row: no codewords, nothing
    reserved.
    """

    _structure = "row_pointer"
    _dtype = np.uint32

    def __init__(self, rowptr: np.ndarray, scheme: str | None = "secded64",
                 crc_mode: str = "2EC3ED"):
        self.scheme = scheme
        self.crc_mode = crc_mode
        self.raw = np.ascontiguousarray(rowptr, dtype=self._dtype).copy()
        self._store = CodewordStore(self._structure, scheme, (self.raw,), crc_mode)
        row = self._store.row
        #: Entries per codeword.
        self.group = row.group
        self._n_grouped = (self.raw.size // self.group) * self.group
        bits = 8 * self.raw.itemsize
        #: Bit mask of the row-pointer bits that hold data rather than ECC.
        self.entry_mask = self._dtype(row.limit(bits))
        self._tail_mask = self._dtype((1 << (bits - row.tail_reserved)) - 1)
        self.encode()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.raw.size

    @property
    def tail_size(self) -> int:
        """Number of entries in the final, partial codeword group."""
        return self.raw.size - self._n_grouped

    def clean(self, out: np.ndarray | None = None) -> np.ndarray:
        """Row-pointer values with redundancy stripped (``out`` may be wider)."""
        if out is None:
            out = np.empty_like(self.raw)
        np.bitwise_and(self.raw, self.entry_mask, out=out)
        if self.tail_size:
            out[self._n_grouped :] = self.raw[self._n_grouped :] & self._tail_mask
        return out

    def clean64(self, out: np.ndarray) -> np.ndarray:
        """Redundancy-stripped values widened into a caller-owned int64 array.

        The decode-free SpMV path keeps a persistent pre-converted index
        snapshot; this fills it in one mask-and-widen pass, without
        intermediate temporaries.
        """
        return self.clean(out)

    def verify_and_clean64(
        self, out: np.ndarray, correct: bool = True
    ) -> CheckReport:
        """Check the whole container, then decode into ``out`` if trustworthy.

        The fused SpMV's row-pointer step: the row pointer is tiny next
        to the element lanes (``group`` entries per codeword), so
        "fusing" it means one sweep check immediately followed by the
        widened decode the product consumes — skipping the decode when
        the check found uncorrectable damage.  Returns the check report;
        ``out`` is only valid when ``report.ok``.
        """
        report = self.check(correct=correct)
        if report.ok:
            self.clean64(out)
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.raw.size}, scheme={self.scheme!r})"
