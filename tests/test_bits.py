"""Unit tests for the bit-manipulation substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bits import (
    MANTISSA_BITS,
    bits_to_lane_masks,
    extract_mantissa_lsbs,
    f64_to_u64,
    fold_parity,
    insert_mantissa_lsbs,
    mask_mantissa_lsbs,
    pack_u32_lanes,
    parity64,
    parity_lanes,
    popcount64,
    u64_to_f64,
    unpack_u32_lanes,
)

u64s = hnp.arrays(np.uint64, st.integers(1, 64),
                  elements=st.integers(0, 2**64 - 1))


class TestFloatBits:
    def test_view_roundtrip_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(257)
        assert np.array_equal(u64_to_f64(f64_to_u64(x)), x)

    def test_view_does_not_copy(self):
        x = np.zeros(4)
        w = f64_to_u64(x)
        w[0] = np.uint64(0x3FF0000000000000)  # bits of 1.0
        assert x[0] == 1.0

    def test_known_bit_pattern(self):
        assert f64_to_u64(np.array([1.0]))[0] == np.uint64(0x3FF0000000000000)
        assert f64_to_u64(np.array([2.0]))[0] == np.uint64(0x4000000000000000)

    @pytest.mark.parametrize("n_bits", [1, 5, 8, 52])
    def test_mask_zeroes_only_lsbs(self, n_bits):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        masked = mask_mantissa_lsbs(x, n_bits)
        words = f64_to_u64(masked)
        assert np.all(words & np.uint64((1 << n_bits) - 1) == 0)
        # upper bits untouched
        hi = np.uint64(~np.uint64((1 << n_bits) - 1))
        assert np.array_equal(words & hi, f64_to_u64(x) & hi)

    def test_mask_zero_bits_is_identity_no_copy(self):
        x = np.ones(3)
        assert mask_mantissa_lsbs(x, 0) is x

    def test_mask_relative_error_is_tiny(self):
        # 8 LSBs of a 52-bit mantissa: relative error < 2**-44.
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, 1000)
        masked = mask_mantissa_lsbs(x, 8)
        rel = np.abs(masked - x) / np.abs(x)
        assert rel.max() < 2.0**-44

    def test_insert_extract_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        payload = rng.integers(0, 256, 64).astype(np.uint64)
        insert_mantissa_lsbs(x, payload, 8)
        assert np.array_equal(extract_mantissa_lsbs(x, 8), payload)

    def test_insert_rejects_oversized_payload(self):
        x = np.ones(2)
        with pytest.raises(ValueError):
            insert_mantissa_lsbs(x, np.array([256], dtype=np.uint64), 8)

    def test_bit_range_validation(self):
        x = np.ones(2)
        with pytest.raises(ValueError):
            mask_mantissa_lsbs(x, MANTISSA_BITS + 1)
        with pytest.raises(ValueError):
            extract_mantissa_lsbs(x, 0)


class TestPopcount:
    def test_popcount_known_values(self):
        w = np.array([0, 1, 3, 0xFF, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(popcount64(w), [0, 1, 2, 8, 64])

    @given(u64s)
    @settings(max_examples=50, deadline=None)
    def test_parity_matches_python(self, w):
        expected = [bin(int(x)).count("1") & 1 for x in w]
        assert np.array_equal(parity64(w), expected)

    def test_parity_lanes_equals_concat_parity(self):
        rng = np.random.default_rng(4)
        lanes = rng.integers(0, 2**63, (20, 3)).astype(np.uint64)
        got = parity_lanes(lanes)
        expected = [
            (sum(bin(int(x)).count("1") for x in row) & 1) for row in lanes
        ]
        assert np.array_equal(got, expected)

    def test_fold_parity_is_xor_reduce(self):
        lanes = np.array([[1, 2, 4], [7, 7, 7]], dtype=np.uint64)
        assert np.array_equal(fold_parity(lanes), [7, 7])


class TestPacking:
    @pytest.mark.parametrize("group", [1, 2, 4, 8])
    def test_u32_roundtrip(self, group):
        rng = np.random.default_rng(6)
        entries = rng.integers(0, 2**28, 8 * group).astype(np.uint32)
        lanes = pack_u32_lanes(entries, group)
        assert lanes.shape == (8, (group + 1) // 2)
        assert np.array_equal(unpack_u32_lanes(lanes, group), entries)

    def test_u32_bit_placement(self):
        lanes = pack_u32_lanes(np.array([1, 2], dtype=np.uint32), 2)
        assert lanes[0, 0] == np.uint64(1) | (np.uint64(2) << np.uint64(32))

    def test_u32_divisibility_check(self):
        with pytest.raises(ValueError):
            pack_u32_lanes(np.zeros(3, np.uint32), 2)

    def test_bits_to_lane_masks(self):
        masks = bits_to_lane_masks([0, 63, 64, 95], 2)
        assert masks[0] == np.uint64(1) | (np.uint64(1) << np.uint64(63))
        assert masks[1] == np.uint64(1) | (np.uint64(1) << np.uint64(31))

    def test_bits_to_lane_masks_out_of_range(self):
        with pytest.raises(ValueError):
            bits_to_lane_masks([128], 2)
