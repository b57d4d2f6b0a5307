"""64-bit-index CSR protection (the paper's §V.B extension note).

"In many production solvers, the matrix dimensions may be larger than
2**32 - 1, warranting the need for 64-bit integer indices; our 32-bit
integer techniques are easily extended for this scenario."  This module
is that extension:

* **elements** — ``(value float64, col uint64)`` = 128-bit codewords;
  SED in the index top bit (columns <= 2**63 - 1), SECDED in the top 9
  bits (columns <= 2**55 - 1), CRC32C per row in the top byte of each of
  the first four indices (columns <= 2**56 - 1, rows >= 4 nnz);
* **row pointer** — uint64 entries, checked in place; SED per entry (top
  bit), SECDED per entry in the top byte (nnz <= 2**56 - 1), CRC32C over
  groups of four entries (one byte each).

Only the index dtype and the table rows (``csr_elements64`` /
``row_pointer64`` in
:data:`~repro.protect.codeword_store.CODEWORD_TABLE`) change relative to
the 32-bit containers, which is exactly the "easily extended" claim.
"""

from __future__ import annotations

import numpy as np

from repro.protect.csr_elements import ProtectedCSRElements
from repro.protect.row_pointer import ProtectedRowPointer


class ProtectedCSRElements64(ProtectedCSRElements):
    """Protected (values, colidx64) pairs with uint64 column indices."""

    _structure = "csr_elements64"
    _index_dtype = np.uint64

    def __init__(self, values: np.ndarray, colidx: np.ndarray, rowptr: np.ndarray,
                 n_cols: int, scheme: str = "secded", crc_mode: str = "2EC3ED"):
        super().__init__(values, colidx, rowptr, n_cols, scheme, crc_mode)


class ProtectedRowPointer64(ProtectedRowPointer):
    """Protected uint64 row-pointer vector."""

    _structure = "row_pointer64"
    _dtype = np.uint64

    def __init__(self, rowptr: np.ndarray, scheme: str = "secded",
                 crc_mode: str = "2EC3ED"):
        super().__init__(rowptr, scheme, crc_mode)
