"""Concrete code layouts used by the paper (Figs. 1-3).

Each factory returns a lane code (:class:`~repro.ecc.sed.SEDCode`,
:class:`~repro.ecc.hamming.SECDEDCode` or
:class:`~repro.ecc.crc_code.CRC32CCode`) bound to the physical bit
layout of one protected structure; codes are cached process-wide
singletons.  The redundancy budgets follow the paper exactly:

* **SED** — one parity bit per codeword;
* **SECDED64** — 8 check bits per 64-bit codeword;
* **SECDED128** — 9 check bits per 128-bit codeword (the remaining
  reserved slots are protected constant-zero bits);
* the CSR element code is the (96, 88) fit: 64 value bits + 24 index bits
  protected by the index's top byte;
* **CRC32C** — 32 checksum bits split over the reserved bits of the
  codeword's elements, first element first.
"""

from __future__ import annotations

import functools

from repro.ecc.crc_code import CRC32CCode
from repro.ecc.hamming import SECDEDCode
from repro.ecc.sed import SEDCode


@functools.lru_cache(maxsize=None)
def sed_code(n_bits: int, parity_slot: int) -> SEDCode:
    """SED over the first ``n_bits`` of a codeword, parity in ``parity_slot``.

    Every SED layout of the paper is this with two numbers: a 96-bit CSR
    element with parity in index bit 31 (slot 95), a 32-bit row-pointer
    entry (slot 31), a double with parity in mantissa bit 0, ...
    """
    return SEDCode(-(-n_bits // 64), range(n_bits), [parity_slot],
                   name=f"sed({n_bits},{n_bits - 1})")


@functools.lru_cache(maxsize=None)
def coo_split_sed() -> SEDCode:
    """SED over one COO element on split lanes: value, row index, column index.

    Parity in row-index bit 31; each 32-bit index is its own
    (zero-extended) lane, so the element is checked with no packing.
    """
    return SEDCode(3, [*range(96), *range(128, 160)], [95], name="coo-split-sed")


def _reserved(fields, lo: int, hi: int) -> list[int]:
    """Bits ``lo..hi-1`` of each field, given the fields' bit offsets."""
    return [base + bit for base in fields for bit in range(lo, hi)]


@functools.lru_cache(maxsize=None)
def vector_crc32c(mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over four doubles; CRC byte ``j`` in the low byte of double ``j``."""
    return CRC32CCode(4, range(256), _reserved(range(0, 256, 64), 0, 8),
                      mode=mode, name="vector-crc32c")


@functools.lru_cache(maxsize=None)
def rowptr_crc32c(mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over eight row-pointer entries; nibble ``e`` in entry ``e``'s top nibble."""
    return CRC32CCode(4, range(256), _reserved(range(0, 256, 32), 28, 32),
                      mode=mode, name="rowptr-crc32c")


@functools.lru_cache(maxsize=None)
def rowptr64_crc32c(mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over four uint64 row-pointer entries, one byte in each top byte."""
    return CRC32CCode(4, range(256), _reserved(range(0, 256, 64), 56, 64),
                      mode=mode, name="rowptr64-crc32c")


@functools.lru_cache(maxsize=None)
def coo_pair_crc32c(mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over two COO elements.

    Lanes: value0, value1, ``row0 | col0 << 32``, ``row1 | col1 << 32``;
    CRC byte ``j`` in the top byte of the ``j``-th index word.
    """
    return CRC32CCode(4, range(256), _reserved(range(128, 256, 32), 24, 32),
                      mode=mode, name="coo-pair-crc32c")


@functools.lru_cache(maxsize=256)
def csr_row_crc32c(length: int, mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over one CSR row of ``length`` 96-bit elements (Fig. 1c).

    Lanes: the ``length`` values, then the column indices packed two to
    a lane — so the stream is the ``8L`` value bytes followed by the
    ``4L`` index bytes.  CRC byte ``j`` sits in the top byte of the
    row's ``j``-th index; top bytes of indices 4..L-1 are carried raw in
    the stream (zero for any in-limit matrix) so flips there are covered.
    """
    return CRC32CCode(
        length + (length + 1) // 2, range(96 * length),
        _reserved(range(64 * length, 64 * length + 128, 32), 24, 32),
        mode=mode, name=f"csr-row{length}-crc32c",
    )


@functools.lru_cache(maxsize=256)
def csr64_row_crc32c(length: int, mode: str = "2EC3ED") -> CRC32CCode:
    """CRC32C over one CSR row with uint64 column indices.

    Lanes: the ``length`` values, then the ``length`` indices; CRC byte
    ``j`` in the top byte of the row's ``j``-th index.
    """
    return CRC32CCode(
        2 * length, range(128 * length),
        _reserved(range(64 * length, 64 * length + 256, 64), 56, 64),
        mode=mode, name=f"csr64-row{length}-crc32c",
    )


@functools.lru_cache(maxsize=None)
def csr_element_secded() -> SECDEDCode:
    """SECDED over one 96-bit CSR element (Fig. 1b).

    Lane 0 = the float64 value, lane 1 = the uint32 column index
    (zero-extended; padding bits 96..127 excluded).  Check bits live in
    the top byte of the index (bits 88..95), limiting matrices to
    ``2**24 - 1`` columns.
    """
    return SECDEDCode(
        n_lanes=2,
        codeword_positions=range(96),
        check_positions=range(88, 96),
        name="csr-element-secded(96,88)",
    )


@functools.lru_cache(maxsize=None)
def csr_element_pair_secded128() -> SECDEDCode:
    """SECDED128 over two consecutive CSR elements.

    Codeword = 192 bits (two 96-bit elements across four lanes:
    value0, index0, value1, index1), redundancy in the two index top
    bytes (16 slots): 9 check bits — the paper's SECDED128 budget — plus
    7 protected constant-zero bits.
    """
    positions = (
        list(range(0, 64))          # value 0
        + list(range(64, 96))       # index 0
        + list(range(128, 192))     # value 1
        + list(range(192, 224))     # index 1
    )
    return SECDEDCode(
        n_lanes=4,
        codeword_positions=positions,
        check_positions=list(range(88, 96)) + list(range(216, 224)),
        min_syndrome_bits=8,
        name="csr-element-pair-secded128",
    )


@functools.lru_cache(maxsize=None)
def coo_element_secded128() -> SECDEDCode:
    """SECDED128 over one 128-bit COO element (row, col, value).

    Lane 0 = the float64 value, lane 1 = ``row | col << 32``.  Redundancy
    in both indices' top bytes (16 slots, 9 used), limiting both matrix
    dimensions to ``2**24 - 1``.
    """
    return SECDEDCode(
        n_lanes=2,
        codeword_positions=range(128),
        check_positions=list(range(88, 96)) + list(range(120, 128)),
        min_syndrome_bits=8,
        name="coo-element-secded128",
    )


@functools.lru_cache(maxsize=None)
def csr64_element_secded() -> SECDEDCode:
    """SECDED over a 64-bit-index CSR element (value + uint64 column).

    The paper's §V.B extension note: production solvers beyond 2**32
    columns use 64-bit indices.  The 128-bit codeword needs 9 check bits,
    stored in the index's top 9 bits -> columns <= 2**55 - 1.
    """
    return SECDEDCode(
        n_lanes=2,
        codeword_positions=range(128),
        check_positions=range(119, 128),
        min_syndrome_bits=8,
        name="csr64-element-secded",
    )


@functools.lru_cache(maxsize=None)
def u64_top_secded() -> SECDEDCode:
    """SECDED over one uint64 with redundancy in its top byte.

    Used for 64-bit row pointers: values <= 2**56 - 1 leave the top byte
    free, and a 64-bit codeword needs exactly 8 check bits.
    """
    return SECDEDCode(
        n_lanes=1,
        codeword_positions=range(64),
        check_positions=range(56, 64),
        min_syndrome_bits=7,
        name="u64-top-secded",
    )


@functools.lru_cache(maxsize=None)
def rowptr_secded64() -> SECDEDCode:
    """SECDED64 over two consecutive row-pointer entries (Fig. 2b).

    Codeword = 64 bits (two uint32 entries), redundancy in the top nibble
    of each entry (bits 28..31 and 60..63), limiting the matrix to
    ``2**28 - 1`` non-zeros.  ``min_syndrome_bits=7`` pins the classic
    8-bit SECDED64 budget.
    """
    return SECDEDCode(
        n_lanes=1,
        codeword_positions=range(64),
        check_positions=[28, 29, 30, 31, 60, 61, 62, 63],
        min_syndrome_bits=7,
        name="rowptr-secded64",
    )


@functools.lru_cache(maxsize=None)
def rowptr_secded128() -> SECDEDCode:
    """SECDED128 over four consecutive row-pointer entries.

    Codeword = 128 bits (four uint32 entries), 16 reserved top-nibble
    slots of which 9 hold check bits (the paper's SECDED128 budget) and 7
    are protected constant-zero bits.
    """
    reserved = [28, 29, 30, 31, 60, 61, 62, 63, 92, 93, 94, 95, 124, 125, 126, 127]
    return SECDEDCode(
        n_lanes=2,
        codeword_positions=range(128),
        check_positions=reserved,
        min_syndrome_bits=8,
        name="rowptr-secded128",
    )


@functools.lru_cache(maxsize=None)
def vector_secded64() -> SECDEDCode:
    """SECDED64 over a single double (Fig. 3b): 8 mantissa LSBs reserved."""
    return SECDEDCode(
        n_lanes=1,
        codeword_positions=range(64),
        check_positions=range(8),
        min_syndrome_bits=7,
        name="vector-secded64",
    )


@functools.lru_cache(maxsize=None)
def vector_secded128() -> SECDEDCode:
    """SECDED128 over two doubles: 5 mantissa LSBs reserved in each.

    10 reserved slots, 9 check bits + 1 protected constant-zero bit.
    """
    return SECDEDCode(
        n_lanes=2,
        codeword_positions=range(128),
        check_positions=[0, 1, 2, 3, 4, 64, 65, 66, 67, 68],
        min_syndrome_bits=8,
        name="vector-secded128",
    )
