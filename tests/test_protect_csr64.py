"""64-bit-index CSR protection tests (§V.B extension)."""

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.errors import ConfigurationError
from repro.protect import ProtectedCSRElements64, ProtectedRowPointer64

ELEMENT_SCHEMES = ["sed", "secded", "crc32c"]
ROWPTR_SCHEMES = ["sed", "secded", "crc32c"]


def make64(nx=6, ny=5, seed=0, col_offset=0):
    """A TeaLeaf operator recast with uint64 indices (optionally shifted
    beyond the 32-bit range to prove the extension is real)."""
    rng = np.random.default_rng(seed)
    op = five_point_operator(
        nx, ny, rng.uniform(0.5, 2.0, (ny, nx)), rng.uniform(0.5, 2.0, (ny, nx)), 0.3
    )
    colidx = op.colidx.astype(np.uint64) + np.uint64(col_offset)
    rowptr = op.rowptr.astype(np.uint64)
    n_cols = op.n_cols + col_offset
    return op.values.copy(), colidx, rowptr, n_cols


@pytest.mark.parametrize("scheme", ELEMENT_SCHEMES)
class TestElements64:
    def test_clean_after_encode(self, scheme):
        values, colidx, rowptr, n_cols = make64()
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, scheme)
        assert not prot.detect().any()
        assert prot.check().clean

    def test_beyond_32bit_columns(self, scheme):
        """The whole point: column indices above 2**32."""
        offset = 2**40
        values, colidx, rowptr, n_cols = make64(col_offset=offset)
        pristine = colidx.copy()  # the container aliases and encodes in place
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, scheme)
        assert not prot.detect().any()
        assert np.array_equal(prot.colidx_clean(), pristine)

    def test_value_flip_detected(self, scheme):
        values, colidx, rowptr, n_cols = make64()
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, scheme)
        f64_to_u64(prot.values)[9] ^= np.uint64(1) << np.uint64(50)
        assert prot.detect().any()

    def test_index_flip_detected(self, scheme):
        values, colidx, rowptr, n_cols = make64(col_offset=2**40)
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, scheme)
        prot.colidx[9] ^= np.uint64(1) << np.uint64(40)
        assert prot.detect().any()


@pytest.mark.parametrize("scheme", ["secded", "crc32c"])
class TestElements64Correction:
    def test_single_flip_corrected(self, scheme):
        values, colidx, rowptr, n_cols = make64(col_offset=2**40)
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, scheme)
        vals0, idx0 = prot.values.copy(), prot.colidx.copy()
        for elem, bit in [(0, 3), (20, 63), (100, 41)]:
            f64_to_u64(prot.values)[elem] ^= np.uint64(1) << np.uint64(bit)
            report = prot.check()
            assert report.n_corrected == 1, (elem, bit)
            assert np.array_equal(prot.values, vals0)
        prot.colidx[33] ^= np.uint64(1) << np.uint64(17)
        assert prot.check().n_corrected == 1
        assert np.array_equal(prot.colidx, idx0)

    def test_crc_two_flips_in_row(self, scheme):
        if scheme != "crc32c":
            pytest.skip("pair correction is a CRC property")
        values, colidx, rowptr, n_cols = make64()
        prot = ProtectedCSRElements64(values, colidx, rowptr, n_cols, "crc32c")
        vals0 = prot.values.copy()
        f64_to_u64(prot.values)[10] ^= np.uint64(1) << np.uint64(5)
        f64_to_u64(prot.values)[12] ^= np.uint64(1) << np.uint64(9)
        report = prot.check()
        assert report.n_corrected == 1
        assert np.array_equal(prot.values, vals0)


class TestElements64Limits:
    def test_secded_column_limit(self):
        values = np.ones(4)
        colidx = np.full(4, (1 << 55), dtype=np.uint64)
        rowptr = np.array([0, 4], np.uint64)
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements64(values, colidx, rowptr, (1 << 55) + 1, "secded")

    def test_crc_needs_four_per_row(self):
        values = np.ones(2)
        colidx = np.zeros(2, np.uint64)
        rowptr = np.array([0, 2], np.uint64)
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements64(values, colidx, rowptr, 4, "crc32c")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements64(
                np.ones(1), np.zeros(1, np.uint64), np.array([0, 1], np.uint64),
                4, "secded128",
            )


@pytest.mark.parametrize("scheme", ROWPTR_SCHEMES)
class TestRowPointer64:
    def test_clean_roundtrip(self, scheme):
        ptr = (np.arange(65, dtype=np.uint64) * 5) + np.uint64(2**40)
        ptr[0] = 0
        prot = ProtectedRowPointer64(ptr, scheme)
        assert not prot.detect().any()
        assert np.array_equal(prot.clean(), ptr)

    def test_flip_detected(self, scheme):
        ptr = np.arange(64, dtype=np.uint64) * 5
        prot = ProtectedRowPointer64(ptr, scheme)
        prot.raw[10] ^= np.uint64(1) << np.uint64(33)
        assert prot.detect().any()

    def test_original_not_aliased(self, scheme):
        ptr = np.arange(64, dtype=np.uint64) * 5
        snap = ptr.copy()
        ProtectedRowPointer64(ptr, scheme)
        assert np.array_equal(ptr, snap)


@pytest.mark.parametrize("scheme", ["secded", "crc32c"])
class TestRowPointer64Correction:
    def test_single_flip_corrected(self, scheme):
        ptr = (np.arange(64, dtype=np.uint64) * 7) + np.uint64(2**45)
        ptr[0] = 0
        prot = ProtectedRowPointer64(ptr, scheme)
        raw0 = prot.raw.copy()
        for entry, bit in [(0, 0), (13, 47), (63, 55)]:
            prot.raw[entry] ^= np.uint64(1) << np.uint64(bit)
            report = prot.check()
            assert report.n_corrected == 1, (entry, bit)
            assert np.array_equal(prot.raw, raw0)

    def test_tail_sed_fallback(self, scheme):
        if scheme != "crc32c":
            pytest.skip("secded here is per-entry: no tail")
        ptr = np.arange(10, dtype=np.uint64)  # 10 % 4 = 2-entry tail
        prot = ProtectedRowPointer64(ptr, "crc32c")
        assert prot.tail_size == 2
        prot.raw[9] ^= np.uint64(1) << np.uint64(8)
        report = prot.check()
        assert report.n_uncorrectable == 1

    def test_value_limit(self, scheme):
        with pytest.raises(ConfigurationError):
            ProtectedRowPointer64(np.array([1 << 56], np.uint64), scheme)
