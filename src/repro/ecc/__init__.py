"""Error detecting and correcting codes (paper §IV).

Three code families, each a :class:`~repro.ecc.base.LaneCode` built from
``(n_lanes, codeword_positions, check_positions)`` and answering
``encode / scan / detect / detect_report / check_and_correct`` on
lane-packed codewords:

* :class:`~repro.ecc.sed.SEDCode` — single-error-detect parity (HD 2);
* :class:`~repro.ecc.hamming.SECDEDCode` — shortened extended Hamming
  SECDED (HD 4);
* :class:`~repro.ecc.crc_code.CRC32CCode` — the Castagnoli CRC
  (:mod:`repro.ecc.crc32c`; HD 6 for codewords of 178..5243 bits), with
  syndrome-signature correction from :mod:`repro.ecc.crc_correct`;

instantiated for every storage layout in :mod:`repro.ecc.profiles`.
"""

from repro.ecc.base import CheckReport, CodewordStatus, LaneCode
from repro.ecc.sed import SEDCode
from repro.ecc.hamming import SECDEDCode
from repro.ecc.crc_code import CRC32CCode
from repro.ecc.profiles import (
    csr_element_secded,
    rowptr_secded64,
    rowptr_secded128,
    vector_secded64,
    vector_secded128,
)
from repro.ecc.crc32c import (
    crc32c,
    crc32c_bitwise,
    crc32c_table,
    crc32c_slicing16,
    crc32c_batch,
)
from repro.ecc.crc_correct import CRCCorrector

__all__ = [
    "CheckReport",
    "CodewordStatus",
    "LaneCode",
    "SEDCode",
    "SECDEDCode",
    "CRC32CCode",
    "csr_element_secded",
    "rowptr_secded64",
    "rowptr_secded128",
    "vector_secded64",
    "vector_secded128",
    "crc32c",
    "crc32c_bitwise",
    "crc32c_table",
    "crc32c_slicing16",
    "crc32c_batch",
    "CRCCorrector",
]
