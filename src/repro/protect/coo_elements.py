"""Protection of COO elements (the prior-work format, [13]).

A COO element is 128 bits — ``(value float64, row uint32, col uint32)``
— with *two* spare top-bit regions.  Three schemes:

========== ====================== ============================ ============
scheme      codeword               redundancy placement         dim limit
========== ====================== ============================ ============
sed         one element (128 b)    row-index bit 31             2**31 - 1 rows
secded128   one element (128 b)    9 of both indices' top bytes 2**24 - 1 both
crc32c      two elements (256 b)   all four top bytes           2**24 - 1 both
========== ====================== ============================ ============

(SECDED64 does not apply: a 128-bit codeword needs 9 check bits and COO
has no 96-bit framing; the per-element SECDED128 is the natural fit —
this matches prior work treating COO elements as single codewords.)

These are the ``coo_elements`` rows of
:data:`~repro.protect.codeword_store.CODEWORD_TABLE`.  CRC32C stream
layout per pair: 16 value bytes, then the four index words (row0, col0,
row1, col1) with their top bytes read as zero; checksum byte ``j`` lives
in the top byte of the ``j``-th index word of the pair.  An odd trailing
element falls back to SED.
"""

from __future__ import annotations

import numpy as np

from repro.bits.float_bits import f64_to_u64
from repro.ecc.base import CheckReport
from repro.errors import ConfigurationError
from repro.protect.codeword_store import CodewordRegion, CodewordStore


class ProtectedCOOElements(CodewordRegion):
    """Protected ``(values, rowidx, colidx)`` triplets of a COO matrix."""

    def __init__(
        self,
        values: np.ndarray,
        rowidx: np.ndarray,
        colidx: np.ndarray,
        shape: tuple[int, int],
        scheme: str = "secded128",
        crc_mode: str = "2EC3ED",
    ):
        self.scheme = scheme
        self.crc_mode = crc_mode
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.rowidx = np.ascontiguousarray(rowidx, dtype=np.uint32)
        self.colidx = np.ascontiguousarray(colidx, dtype=np.uint32)
        self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = self.values.size
        self._store = CodewordStore(
            "coo_elements", scheme,
            (f64_to_u64(self.values), self.rowidx, self.colidx), crc_mode,
        )
        limits = self._store.row.limit(32, 0), self._store.row.limit(32, 1)
        if self.shape[0] > limits[0] or self.shape[1] > limits[1]:
            raise ConfigurationError(
                f"{scheme}: shape {self.shape} exceeds limits {limits}"
            )
        #: Bit masks of the index bits that hold data rather than ECC.
        self.row_mask, self.col_mask = np.uint32(limits[0]), np.uint32(limits[1])
        self.encode()

    # ------------------------------------------------------------------
    def rowidx_clean(self) -> np.ndarray:
        """Row indices with the embedded ECC bits masked off."""
        return self.rowidx & self.row_mask

    def colidx_clean(self) -> np.ndarray:
        """Column indices with the embedded ECC bits masked off."""
        return self.colidx & self.col_mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtectedCOOElements(nnz={self.nnz}, scheme={self.scheme!r}, "
            f"codewords={self.n_codewords})"
        )


class ProtectedCOOMatrix:
    """A COO matrix with fully protected triplets.

    API mirrors :class:`~repro.protect.matrix.ProtectedCSRMatrix` so the
    protected kernels and campaigns can treat both formats uniformly.
    """

    def __init__(self, matrix, scheme: str = "secded128", crc_mode: str = "2EC3ED"):
        self.shape = matrix.shape
        self.elements = ProtectedCOOElements(
            matrix.values.copy(),
            matrix.rowidx.copy(),
            matrix.colidx.copy(),
            matrix.shape,
            scheme,
            crc_mode,
        )

    @property
    def values(self) -> np.ndarray:
        """The stored element values (raw storage, ECC bits included)."""
        return self.elements.values

    @property
    def rowidx(self) -> np.ndarray:
        """The stored row indices (raw storage, ECC bits included)."""
        return self.elements.rowidx

    @property
    def colidx(self) -> np.ndarray:
        """The stored column indices (raw storage, ECC bits included)."""
        return self.elements.colidx

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return self.elements.nnz

    def check_all(self, correct: bool = True) -> dict[str, CheckReport]:
        """Run a full check over every protected region; reports keyed by region."""
        return {"coo_elements": self.elements.check(correct=correct)}

    def detect_any(self) -> bool:
        """True when any codeword currently carries a detectable upset."""
        return bool(self.elements.detect().any())

    def bounds_check(self) -> None:
        """Raise :class:`BoundsViolationError` when a clean index exceeds the shape."""
        from repro.errors import BoundsViolationError

        rows = self.elements.rowidx_clean()
        cols = self.elements.colidx_clean()
        if rows.size and int(rows.max()) >= self.shape[0]:
            raise BoundsViolationError("coo_elements")
        if cols.size and int(cols.max()) >= self.shape[1]:
            raise BoundsViolationError("coo_elements")

    def matvec_unchecked(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """SpMV over the clean views with no integrity checks (caller schedules them)."""
        if out is None:
            out = np.zeros(self.shape[0], dtype=np.float64)
        else:
            out[:] = 0.0
        np.add.at(
            out,
            self.elements.rowidx_clean().astype(np.int64),
            self.elements.values * x[self.elements.colidx_clean().astype(np.int64)],
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtectedCOOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"scheme={self.elements.scheme!r})"
        )
