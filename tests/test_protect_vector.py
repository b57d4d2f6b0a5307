"""ProtectedVector tests: masking invariants, detection/correction per scheme."""

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.errors import ConfigurationError
from repro.protect import ProtectedVector
from repro.protect.codeword_store import codeword_row, schemes

SCHEMES = schemes("vector")


def flip_bit(vec: ProtectedVector, element: int, bit: int) -> None:
    words = f64_to_u64(vec.raw)
    words[element] ^= np.uint64(1) << np.uint64(bit)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestPerScheme:
    def test_clean_after_encode(self, scheme):
        rng = np.random.default_rng(0)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        assert not vec.detect().any()
        assert vec.check().clean

    def test_masking_noise_is_bounded(self, scheme):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, 64)
        vec = ProtectedVector(x, scheme)
        rel = np.abs(vec.values() - x) / np.abs(x)
        # Worst case: 8 reserved bits of a 52-bit mantissa.
        assert rel.max() < 2.0**-43

    def test_values_idempotent_after_store(self, scheme):
        """store(values()) must not drift: masked bits are already zero."""
        rng = np.random.default_rng(2)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        first = vec.values()
        vec.store(first)
        assert np.array_equal(vec.values(), first)

    def test_single_bit_flip_detected(self, scheme):
        rng = np.random.default_rng(3)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        flip_bit(vec, 10, 40)
        assert vec.detect().any()

    def test_detection_flags_right_codeword(self, scheme):
        rng = np.random.default_rng(4)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        flip_bit(vec, 17, 33)
        flags = vec.detect()
        group = codeword_row("vector", scheme).group
        assert flags[17 // group]
        assert flags.sum() == 1

    def test_check_without_correct_flags_only(self, scheme):
        rng = np.random.default_rng(5)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        flip_bit(vec, 5, 50)
        snapshot = vec.raw.copy()
        report = vec.check(correct=False)
        assert not report.ok
        assert np.array_equal(vec.raw, snapshot)


@pytest.mark.parametrize("scheme", ["secded64", "secded128", "crc32c"])
class TestCorrection:
    def test_single_flip_corrected_exactly(self, scheme):
        rng = np.random.default_rng(6)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        original = vec.raw.copy()
        for element, bit in [(0, 0), (13, 7), (31, 29), (63, 63)]:
            flip_bit(vec, element, bit)
            report = vec.check()
            assert report.n_corrected == 1, (element, bit)
            assert report.n_uncorrectable == 0
            assert np.array_equal(vec.raw, original)

    def test_flips_in_different_codewords_all_corrected(self, scheme):
        rng = np.random.default_rng(7)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        original = vec.raw.copy()
        group = codeword_row("vector", scheme).group
        elements = [0, group, 2 * group, 3 * group]
        for k, element in enumerate(elements):
            flip_bit(vec, element, 20 + k)
        report = vec.check()
        assert report.n_corrected == len(elements)
        assert np.array_equal(vec.raw, original)


class TestSchemeSpecifics:
    def test_sed_single_flip_not_correctable(self):
        vec = ProtectedVector(np.ones(8), "sed")
        flip_bit(vec, 0, 10)
        report = vec.check()
        assert report.n_uncorrectable == 1

    def test_sed_double_flip_in_codeword_missed(self):
        """Documented SED hole: even numbers of flips are invisible."""
        vec = ProtectedVector(np.ones(8), "sed")
        flip_bit(vec, 0, 10)
        flip_bit(vec, 0, 11)
        assert not vec.detect().any()

    def test_secded_double_flip_detected_not_corrected(self):
        rng = np.random.default_rng(8)
        vec = ProtectedVector(rng.standard_normal(16), "secded64")
        flip_bit(vec, 3, 10)
        flip_bit(vec, 3, 44)
        report = vec.check()
        assert report.n_uncorrectable == 1
        assert report.n_corrected == 0

    def test_crc_two_flips_corrected(self):
        """HD=6 at this length: CRC32C runs as 2EC."""
        rng = np.random.default_rng(9)
        vec = ProtectedVector(rng.standard_normal(16), "crc32c")
        original = vec.raw.copy()
        flip_bit(vec, 0, 20)
        flip_bit(vec, 2, 50)  # same 4-element codeword
        report = vec.check()
        assert report.n_corrected == 1
        assert np.array_equal(vec.raw, original)

    def test_crc_three_flips_detected(self):
        rng = np.random.default_rng(10)
        vec = ProtectedVector(rng.standard_normal(16), "crc32c")
        for bit in (20, 33, 50):
            flip_bit(vec, 1, bit)
        report = vec.check()
        assert report.n_uncorrectable == 1

    def test_reserved_bits_documented(self):
        assert ProtectedVector(np.ones(8), "sed").reserved_bits == 1
        assert ProtectedVector(np.ones(8), "secded64").reserved_bits == 8
        assert ProtectedVector(np.ones(8), "secded128").reserved_bits == 5
        assert ProtectedVector(np.ones(8), "crc32c").reserved_bits == 8


class TestTails:
    @pytest.mark.parametrize("scheme,extra", [("secded128", 1), ("crc32c", 3)])
    def test_tail_elements_sed_protected(self, scheme, extra):
        group = codeword_row("vector", scheme).group
        n = 4 * group + extra
        rng = np.random.default_rng(11)
        vec = ProtectedVector(rng.standard_normal(n), scheme)
        assert vec.tail_size == extra
        assert not vec.detect().any()
        flip_bit(vec, n - 1, 30)
        flags = vec.detect()
        assert flags[-1]
        report = vec.check()
        assert report.n_uncorrectable == 1  # SED tail cannot correct

    def test_codeword_count(self):
        vec = ProtectedVector(np.ones(11), "crc32c")
        assert vec.n_codewords == 2 + 3


class TestAPI:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ProtectedVector(np.ones(4), "chipkill")

    def test_requires_1d(self):
        with pytest.raises(ConfigurationError):
            ProtectedVector(np.ones((2, 2)), "sed")

    def test_store_shape_mismatch(self):
        vec = ProtectedVector(np.ones(4), "sed")
        with pytest.raises(ValueError):
            vec.store(np.ones(5))

    def test_does_not_alias_input(self):
        x = np.ones(8)
        vec = ProtectedVector(x, "secded64")
        assert np.array_equal(x, np.ones(8))  # input unchanged
        vec.raw[0] = 7.0
        assert x[0] == 1.0

    def test_values_out_parameter(self):
        vec = ProtectedVector(np.arange(8.0), "secded64")
        out = np.empty(8)
        res = vec.values(out=out)
        assert res is out
