"""Randomised-layout fuzzing of the SECDED engine and core invariants.

The concrete profiles are tested exhaustively elsewhere; here hypothesis
builds *arbitrary* layouts (random codeword subsets, random check-slot
placement, 1-4 lanes) and asserts the SECDED contract holds for all of
them — the engine's generality is what makes the COO/64-bit extensions
one-liners.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.crc32c import crc32c_table, crc32c_zero_operator, TABLE
from repro.ecc.hamming import SECDEDCode, _min_syndrome_bits
from repro.errors import ConfigurationError, Outcome
from repro.protect.codeword_store import codeword_row, schemes


@st.composite
def random_layouts(draw):
    """(n_lanes, codeword positions, check positions) with a valid budget."""
    n_lanes = draw(st.integers(1, 3))
    n_bits = 64 * n_lanes
    size = draw(st.integers(16, min(n_bits, 140)))
    positions = draw(
        st.lists(st.integers(0, n_bits - 1), min_size=size, max_size=size,
                 unique=True)
    )
    m = _min_syndrome_bits(len(positions))
    n_check = draw(st.integers(m + 1, min(m + 4, len(positions) - 1)))
    check = draw(st.permutations(positions))[:n_check]
    return n_lanes, sorted(positions), check


@given(random_layouts(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_layout_secded_contract(layout, seed):
    """Encode->clean; any single flip corrected; any double flip flagged."""
    n_lanes, positions, check = layout
    code = SECDEDCode(n_lanes, positions, check, name="fuzz")
    rng = np.random.default_rng(seed)
    lanes = rng.integers(0, 2**63, (1, n_lanes)).astype(np.uint64)
    keep = np.zeros(n_lanes, dtype=np.uint64)
    for p in code.data_positions:
        keep[p // 64] |= np.uint64(1) << np.uint64(p % 64)
    lanes &= keep
    code.encode(lanes)
    assert not code.detect(lanes).any()
    original = lanes.copy()

    covered = code.data_positions + code.syndrome_slots + [code.parity_slot]
    pos = covered[int(rng.integers(0, len(covered)))]
    lanes[0, pos // 64] ^= np.uint64(1) << np.uint64(pos % 64)
    report = code.check_and_correct(lanes)
    assert report.n_corrected == 1
    assert np.array_equal(lanes, original)

    a, b = rng.choice(len(covered), size=2, replace=False)
    for p in (covered[a], covered[b]):
        lanes[0, p // 64] ^= np.uint64(1) << np.uint64(p % 64)
    report = code.check_and_correct(lanes)
    assert report.n_uncorrectable == 1


class TestMinSyndromeBits:
    @pytest.mark.parametrize("n_total,expected", [
        (2, 1), (3, 2), (4, 2), (5, 3), (64, 6), (65, 7), (96, 7),
        (128, 7), (129, 8),
    ])
    def test_values(self, n_total, expected):
        assert _min_syndrome_bits(n_total) == expected

    def test_budget_identity(self):
        """2**m >= n_total guarantees enough non-power-of-two columns."""
        for n_total in range(2, 300):
            m = _min_syndrome_bits(n_total)
            assert (1 << m) - 1 - m >= n_total - m - 1


class TestCRCZeroOperator:
    def test_matches_appending_zeros(self):
        data = b"hello world"
        # Raw-register arithmetic: crc_raw(data || 0^k) == Z^k(crc_raw(data)).
        raw = crc32c_table(data) ^ 0xFFFFFFFF  # undo xorout
        advanced = crc32c_zero_operator(raw, 5)
        direct = crc32c_table(data + bytes(5)) ^ 0xFFFFFFFF
        assert advanced == direct

    def test_vector_form(self):
        states = np.array([0, 1, 0xFFFFFFFF], dtype=np.uint32)
        out = crc32c_zero_operator(states, 3)
        for i, s in enumerate(states):
            assert out[i] == crc32c_zero_operator(int(s), 3)

    def test_table_is_linear(self):
        """CRC tables are GF(2)-linear: T[a^b] = T[a]^T[b]."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(0, 256, 2)
            assert TABLE[a ^ b] == TABLE[a] ^ TABLE[b]
        assert TABLE[0] == 0


class TestRegistry:
    """The one scheme table (repro.protect.codeword_store)."""

    def test_figure_order_matches_paper(self):
        for structure in ("csr_elements", "row_pointer", "vector"):
            assert schemes(structure) == ["sed", "secded64", "secded128", "crc32c"]

    def test_scheme_metadata(self):
        def code(scheme, mode="2EC3ED"):
            return codeword_row("vector", scheme).code(mode, None)

        assert code("sed").corrects == 0
        assert code("secded64").corrects == 1
        assert code("crc32c", "5ED").detects == 5
        assert codeword_row("csr_elements", None).reserved == (0,)

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(ConfigurationError, match="crc32c"):
            codeword_row("vector", "reed-solomon")


class TestOutcomeTaxonomy:
    def test_sdc_classification(self):
        assert Outcome.SILENT.is_sdc
        assert Outcome.MISCORRECTED.is_sdc
        assert not Outcome.CORRECTED.is_sdc
        assert not Outcome.DETECTED.is_sdc

    def test_detected_classification(self):
        assert Outcome.CORRECTED.is_detected
        assert Outcome.DETECTED.is_detected
        assert Outcome.BOUNDS.is_detected
        assert not Outcome.SILENT.is_detected
        assert not Outcome.CLEAN.is_detected
