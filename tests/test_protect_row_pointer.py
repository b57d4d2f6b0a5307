"""ProtectedRowPointer tests across all Fig.-2 schemes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.protect import ProtectedRowPointer
from repro.protect.codeword_store import codeword_row, schemes

SCHEMES = schemes("row_pointer")


def make_rowptr(n_rows=40, width=5):
    return (np.arange(n_rows + 1, dtype=np.uint64) * width).astype(np.uint32)


def flip(prot, entry, bit):
    prot.raw[entry] ^= np.uint32(1) << np.uint32(bit)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestPerScheme:
    def test_clean_after_encode(self, scheme):
        prot = ProtectedRowPointer(make_rowptr(), scheme)
        assert not prot.detect().any()
        assert prot.check().clean

    def test_clean_values_roundtrip(self, scheme):
        ptr = make_rowptr()
        prot = ProtectedRowPointer(ptr, scheme)
        assert np.array_equal(prot.clean(), ptr)

    def test_data_bit_flip_detected(self, scheme):
        prot = ProtectedRowPointer(make_rowptr(), scheme)
        flip(prot, 9, 3)
        assert prot.detect().any()

    def test_redundancy_bit_flip_detected(self, scheme):
        prot = ProtectedRowPointer(make_rowptr(), scheme)
        bit = 31 if scheme == "sed" else 29
        flip(prot, 4, bit)
        assert prot.detect().any()

    def test_original_not_aliased(self, scheme):
        ptr = make_rowptr()
        before = ptr.copy()
        ProtectedRowPointer(ptr, scheme)
        assert np.array_equal(ptr, before)

    def test_flag_localised_to_codeword(self, scheme):
        prot = ProtectedRowPointer(make_rowptr(63), scheme)  # 64 entries
        flip(prot, 13, 7)
        flags = prot.detect()
        group = codeword_row("row_pointer", scheme).group
        assert flags[13 // group]
        assert flags.sum() == 1


@pytest.mark.parametrize("scheme", ["secded64", "secded128", "crc32c"])
class TestCorrection:
    def test_single_flip_corrected(self, scheme):
        ptr = make_rowptr(63)
        prot = ProtectedRowPointer(ptr, scheme)
        raw0 = prot.raw.copy()
        for entry, bit in [(0, 0), (17, 13), (40, 27), (63, 5)]:
            flip(prot, entry, bit)
            report = prot.check()
            assert report.n_corrected == 1, (entry, bit)
            assert np.array_equal(prot.raw, raw0)
            assert np.array_equal(prot.clean(), ptr)

    def test_double_flip_same_codeword_handling(self, scheme):
        prot = ProtectedRowPointer(make_rowptr(63), scheme)
        raw0 = prot.raw.copy()
        flip(prot, 0, 3)
        flip(prot, 1, 9)  # same codeword for every grouped scheme
        report = prot.check()
        if scheme == "crc32c":
            # HD=6 window: two flips are corrected.
            assert report.n_corrected == 1
            assert np.array_equal(prot.raw, raw0)
        else:
            assert report.n_uncorrectable == 1


class TestSED:
    def test_cannot_correct(self):
        prot = ProtectedRowPointer(make_rowptr(), "sed")
        flip(prot, 3, 3)
        report = prot.check()
        assert report.n_uncorrectable == 1

    def test_per_entry_codewords(self):
        prot = ProtectedRowPointer(make_rowptr(10), "sed")
        assert prot.n_codewords == 11


class TestTails:
    @pytest.mark.parametrize("scheme", ["secded64", "secded128", "crc32c"])
    def test_tail_is_sed_protected(self, scheme):
        group = codeword_row("row_pointer", scheme).group
        n_entries = 4 * group + (group - 1)  # force a maximal tail
        ptr = (np.arange(n_entries, dtype=np.uint64) * 3).astype(np.uint32)
        prot = ProtectedRowPointer(ptr, scheme)
        assert prot.tail_size == group - 1
        assert not prot.detect().any()
        assert np.array_equal(prot.clean(), ptr)
        flip(prot, n_entries - 1, 8)
        flags = prot.detect()
        assert flags[-1]
        report = prot.check()
        assert report.n_uncorrectable == 1  # SED tail: detect only

    def test_rowptr_plus_one_entries(self):
        """Typical CSR: n_rows+1 entries rarely divides the group size."""
        for n_rows in (7, 30, 63, 64, 101):
            prot = ProtectedRowPointer(make_rowptr(n_rows), "crc32c")
            assert not prot.detect().any()


class TestLimits:
    def test_sed_value_limit(self):
        with pytest.raises(ConfigurationError):
            ProtectedRowPointer(np.array([0, 2**31], np.uint32), "sed")

    def test_nibble_value_limit(self):
        with pytest.raises(ConfigurationError):
            ProtectedRowPointer(np.array([0, 2**28], np.uint32), "secded64")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ProtectedRowPointer(make_rowptr(), "ecc")

    def test_limit_boundary_accepted(self):
        prot = ProtectedRowPointer(
            np.array([0, 2**28 - 1], np.uint32), "secded64"
        )
        assert int(prot.clean()[1]) == 2**28 - 1
