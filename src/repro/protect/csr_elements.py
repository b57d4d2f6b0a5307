"""Protection of CSR ``(value, column index)`` elements (paper §VI.A, Fig. 1).

Each CSR element is a 96-bit structure: the float64 non-zero paired with
its uint32 column index.  Redundancy lives in the *unused top bits of the
index*, so the float values keep full precision and no extra storage is
required — at the cost of a column-count limit:

========== ===================== ========================== ===========
scheme      codeword              redundancy placement       max columns
========== ===================== ========================== ===========
sed         one element (96 b)    index bit 31               2**31 - 1
secded64    one element (96 b)    index bits 24..31          2**24 - 1
secded128   two elements (192 b)  both index top bytes       2**24 - 1
crc32c      one matrix row        top bytes of the row's     2**24 - 1
                                  first four indices
========== ===================== ========================== ===========

These are the ``csr_elements`` rows of
:data:`~repro.protect.codeword_store.CODEWORD_TABLE`; the container owns
the raw arrays and the index decode, the
:class:`~repro.protect.codeword_store.CodewordStore` everything about
codewords.  The CRC32C stream per row of ``L`` elements is block-wise:
the ``8L`` value bytes, then the ``4L`` index bytes with the four
checksum bytes read as zero; rows are processed grouped by length, one
batched CRC per group — the NumPy stand-in for the paper's SIMD/GPU
parallel CRC.
"""

from __future__ import annotations

import numpy as np

from repro.bits.float_bits import f64_to_u64
from repro.ecc.hamming import SECDEDCode
from repro.errors import ConfigurationError
from repro.protect.codeword_store import CodewordRegion, CodewordStore


class ProtectedCSRElements(CodewordRegion):
    """The protected ``(values, colidx)`` pair of a CSR matrix.

    Owns (aliases) the two arrays; ``colidx`` carries embedded redundancy
    after construction and must be read through :meth:`colidx_clean`.
    ``values`` is never altered by encoding (only by corrections).
    Scheme ``None`` is the null row: no codewords, nothing reserved.
    """

    _structure = "csr_elements"
    _index_dtype = np.uint32

    def __init__(
        self,
        values: np.ndarray,
        colidx: np.ndarray,
        rowptr: np.ndarray,
        n_cols: int,
        scheme: str | None = "secded64",
        crc_mode: str = "2EC3ED",
    ):
        self.scheme = scheme
        self.crc_mode = crc_mode
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.colidx = np.ascontiguousarray(colidx, dtype=self._index_dtype)
        self.rowptr = np.ascontiguousarray(rowptr, dtype=self._index_dtype)
        self.n_cols = int(n_cols)
        self.nnz = self.values.size
        self._store = CodewordStore(
            self._structure, scheme, (f64_to_u64(self.values), self.colidx),
            crc_mode, rowptr=self.rowptr,
        )
        row = self._store.row
        limit = row.limit(8 * self.colidx.itemsize)
        if self.n_cols > limit:
            raise ConfigurationError(
                f"{scheme}: matrix has {self.n_cols} columns, limit is {limit}"
            )
        #: Mask selecting the *data* bits of a stored column index.
        self.index_mask = self._index_dtype(limit)
        # Verify-in-SpMV consumes elements, so it can only screen a
        # codeword on the element's own gather traffic when the codeword
        # is exactly one element — and only SECDED has a syndrome kernel.
        code = self._store.segments[0].code if row.layout and row.group == 1 else None
        self._fused_code = code if isinstance(code, SECDEDCode) else None
        self.encode()

    # ------------------------------------------------------------------
    def fused_code(self):
        """The per-element SECDED code when this container is fusible.

        A non-``None`` return means every ``(value, colidx)`` element is
        covered by exactly one SECDED codeword, so a kernel streaming
        elements for a product can compute syndromes on the same
        traffic.  Schemes whose codeword spans two elements or a whole
        row, and SED's parity-only codeword, return ``None`` and take
        the verify-then-multiply fallback.
        """
        return self._fused_code

    def colidx_clean(self, out: np.ndarray | None = None) -> np.ndarray:
        """Column indices with redundancy stripped (safe to gather with)."""
        if out is None:
            return self.colidx & self.index_mask
        np.bitwise_and(self.colidx, self.index_mask, out=out)
        return out

    def colidx_clean64(self, out: np.ndarray) -> np.ndarray:
        """Cleaned indices widened into a caller-owned int64 array.

        Fills the persistent pre-converted gather index the decode-free
        SpMV path consumes in one mask-and-widen pass, with no
        intermediate temporaries.
        """
        return self.colidx_clean(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nnz={self.nnz}, scheme={self.scheme!r}, "
            f"codewords={self.n_codewords})"
        )
