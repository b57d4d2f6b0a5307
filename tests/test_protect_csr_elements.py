"""ProtectedCSRElements tests across all four Fig.-1 schemes."""

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.errors import ConfigurationError
from repro.protect import ProtectedCSRElements
from repro.protect.codeword_store import schemes

SCHEMES = schemes("csr_elements")


def make_protected(scheme, nx=6, ny=5, seed=0):
    rng = np.random.default_rng(seed)
    op = five_point_operator(nx, ny, rng.uniform(0.5, 2.0, (ny, nx)),
                             rng.uniform(0.5, 2.0, (ny, nx)), 0.3)
    prot = ProtectedCSRElements(
        op.values.copy(), op.colidx.copy(), op.rowptr, op.n_cols, scheme
    )
    return prot, op


def flip_value_bit(prot, element, bit):
    f64_to_u64(prot.values)[element] ^= np.uint64(1) << np.uint64(bit)


def flip_index_bit(prot, element, bit):
    prot.colidx[element] ^= np.uint32(1) << np.uint32(bit)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestPerScheme:
    def test_clean_after_encode(self, scheme):
        prot, _ = make_protected(scheme)
        assert not prot.detect().any()
        assert prot.check().clean

    def test_values_unchanged_by_encoding(self, scheme):
        """Redundancy lives in index bits only: full float precision kept."""
        prot, op = make_protected(scheme)
        assert np.array_equal(prot.values, op.values)

    def test_clean_indices_match_original(self, scheme):
        prot, op = make_protected(scheme)
        assert np.array_equal(prot.colidx_clean(), op.colidx)

    def test_value_bit_flip_detected(self, scheme):
        prot, _ = make_protected(scheme)
        flip_value_bit(prot, 7, 40)
        assert prot.detect().any()

    def test_index_data_bit_flip_detected(self, scheme):
        prot, _ = make_protected(scheme)
        flip_index_bit(prot, 7, 3)
        assert prot.detect().any()

    def test_redundancy_bit_flip_detected(self, scheme):
        """Flips in the embedded ECC bits themselves are also caught."""
        prot, _ = make_protected(scheme)
        bit = 31 if scheme == "sed" else 28
        flip_index_bit(prot, 2, bit)
        assert prot.detect().any()

    def test_detect_does_not_modify(self, scheme):
        prot, _ = make_protected(scheme)
        flip_value_bit(prot, 3, 10)
        vals = prot.values.copy()
        idxs = prot.colidx.copy()
        prot.detect()
        assert np.array_equal(prot.values, vals)
        assert np.array_equal(prot.colidx, idxs)


@pytest.mark.parametrize("scheme", ["secded64", "secded128", "crc32c"])
class TestCorrection:
    def test_value_flip_corrected(self, scheme):
        prot, op = make_protected(scheme)
        vals0, idxs0 = prot.values.copy(), prot.colidx.copy()
        flip_value_bit(prot, 11, 52)
        report = prot.check()
        assert report.n_corrected == 1
        assert report.n_uncorrectable == 0
        assert np.array_equal(prot.values, vals0)
        assert np.array_equal(prot.colidx, idxs0)

    def test_index_flip_corrected(self, scheme):
        prot, _ = make_protected(scheme)
        vals0, idxs0 = prot.values.copy(), prot.colidx.copy()
        flip_index_bit(prot, 23, 5)
        report = prot.check()
        assert report.n_corrected == 1
        assert np.array_equal(prot.values, vals0)
        assert np.array_equal(prot.colidx, idxs0)

    def test_many_separate_codewords_corrected(self, scheme):
        prot, _ = make_protected(scheme, nx=8, ny=8)
        vals0, idxs0 = prot.values.copy(), prot.colidx.copy()
        # One flip per row -> always distinct codewords for every scheme.
        for row, bit in [(0, 1), (10, 33), (20, 60), (40, 17)]:
            flip_value_bit(prot, 5 * row + 2, bit)
        report = prot.check()
        assert report.n_corrected == 4
        assert np.array_equal(prot.values, vals0)
        assert np.array_equal(prot.colidx, idxs0)


class TestSED:
    def test_sed_detects_but_cannot_correct(self):
        prot, _ = make_protected("sed")
        flip_value_bit(prot, 0, 0)
        report = prot.check()
        assert report.n_uncorrectable == 1
        assert report.n_corrected == 0

    def test_sed_misses_double_flip(self):
        prot, _ = make_protected("sed")
        flip_value_bit(prot, 0, 10)
        flip_index_bit(prot, 0, 3)
        assert not prot.detect().any()

    def test_sed_parity_spans_value_and_index(self):
        """The 96-bit codeword couples value and index bits."""
        prot, _ = make_protected("sed")
        flip_index_bit(prot, 4, 14)
        flags = prot.detect()
        assert flags[4] and flags.sum() == 1


class TestSECDED128Pairing:
    def test_codeword_count_pairs(self):
        prot, op = make_protected("secded128")
        assert prot.n_codewords == (op.nnz + 1) // 2

    def test_pair_partner_flip_localised(self):
        prot, _ = make_protected("secded128")
        flip_value_bit(prot, 1, 9)  # second element of pair 0
        flags = prot.detect()
        assert flags[0] and flags.sum() == 1

    def test_double_flip_across_pair_detected(self):
        prot, _ = make_protected("secded128")
        flip_value_bit(prot, 0, 7)
        flip_value_bit(prot, 1, 9)
        report = prot.check()
        assert report.n_uncorrectable == 1

    def test_odd_tail_element_protected(self):
        # 5-point operator has 5 nnz/row; 5*odd rows -> odd nnz.
        prot, op = make_protected("secded128", nx=3, ny=3)
        assert op.nnz % 2 == 1
        vals0 = prot.values.copy()
        flip_value_bit(prot, op.nnz - 1, 30)
        report = prot.check()
        assert report.n_corrected == 1
        assert np.array_equal(prot.values, vals0)


class TestCRC32C:
    def test_codeword_per_row(self):
        prot, op = make_protected("crc32c")
        assert prot.n_codewords == op.n_rows

    def test_two_flips_in_row_corrected(self):
        prot, _ = make_protected("crc32c")
        vals0, idxs0 = prot.values.copy(), prot.colidx.copy()
        flip_value_bit(prot, 10, 20)  # row 2
        flip_index_bit(prot, 12, 8)   # row 2 as well
        report = prot.check()
        assert report.n_corrected == 1
        assert np.array_equal(prot.values, vals0)
        assert np.array_equal(prot.colidx, idxs0)

    def test_five_flips_detected(self):
        """HD=6: up to 5 flips in a row codeword are never silent."""
        rng = np.random.default_rng(12)
        for trial in range(10):
            prot, _ = make_protected("crc32c", seed=trial)
            for _ in range(5):
                flip_value_bit(prot, int(rng.integers(5, 10)), int(rng.integers(0, 64)))
            assert prot.detect().any()

    def test_checksum_byte_flip_corrected(self):
        prot, _ = make_protected("crc32c")
        idxs0 = prot.colidx.copy()
        flip_index_bit(prot, 5, 26)  # top byte of row 1's first element
        report = prot.check()
        assert report.n_corrected == 1
        assert np.array_equal(prot.colidx, idxs0)

    def test_rejects_rows_shorter_than_four(self):
        values = np.ones(3)
        colidx = np.array([0, 1, 2], np.uint32)
        rowptr = np.array([0, 3], np.uint32)
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements(values, colidx, rowptr, 3, "crc32c")

    def test_ragged_rows_grouped_by_length(self):
        """Rows of different lengths each get a correct CRC."""
        rng = np.random.default_rng(13)
        lengths = [4, 6, 4, 5, 7, 4]
        rowptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.uint32)
        nnz = int(rowptr[-1])
        values = rng.standard_normal(nnz)
        colidx = rng.integers(0, 100, nnz).astype(np.uint32)
        prot = ProtectedCSRElements(values, colidx, rowptr, 100, "crc32c")
        assert not prot.detect().any()
        flip_value_bit(prot, int(rowptr[4]) + 2, 17)  # inside the 7-long row
        flags = prot.detect()
        assert flags[4] and flags.sum() == 1
        assert prot.check().n_corrected == 1


class TestLimits:
    def test_sed_column_limit(self):
        values = np.ones(1)
        colidx = np.array([2**31 - 1], np.uint32)
        rowptr = np.array([0, 1], np.uint32)
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements(values, colidx, rowptr, 2**31, "sed")

    def test_secded_column_limit(self):
        values = np.ones(1)
        colidx = np.array([2**24], np.uint32)
        rowptr = np.array([0, 1], np.uint32)
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements(values, colidx, rowptr, 2**24 + 1, "secded64")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ProtectedCSRElements(np.ones(1), np.zeros(1, np.uint32),
                                 np.array([0, 1], np.uint32), 1, "parity3")
