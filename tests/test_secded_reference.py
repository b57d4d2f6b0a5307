"""A bit-by-bit reference oracle for the stacked SECDED syndrome pass.

The kernels in :mod:`repro.ecc.secded_kernels` compute every syndrome
bit and the overall parity of a block of codewords from the code's
stacked mask rows in one pass.  The oracle here never looks at a mask:
it rebuilds each codeword's syndrome from the code's construction —
every set data bit at ``data_positions[i]`` contributes its column
``_data_columns[i]``, a set syndrome slot ``syndrome_slots[j]``
contributes ``1 << j``, and the overall parity is the parity of every
covered bit.  Against it, for every SECDED profile and for hypothesis
random layouts (check slots scattered over the lanes in any order, so a
pass that assumed one lane's slots were adjacent mask rows fails):

* ``syndrome``, ``scan``, ``detect`` and ``check_and_correct`` agree
  with the oracle on clean words, on every single flip and every
  same-codeword double flip of a few codewords, and on arrays whose
  sizes straddle the screen grid (32 columns), one chunk's screen
  aggregates (544), the stacked block (4 096) and the chunk (16 384);
* the ``_chunk_screen`` / ``_chunk_screen_split`` verdicts equal the
  oracle applied to the grid aggregates the screen is defined over.
"""

import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import profiles
from repro.ecc.base import CodewordStatus
from repro.ecc.hamming import SECDEDCode, _min_syndrome_bits
from repro.ecc.secded_kernels import (
    CHUNK,
    _BLOCK,
    _SCREEN_COLS,
    _chunk_screen,
    _chunk_screen_split,
)

_ONE = np.uint64(1)

#: Around the screen grid width, one chunk's aggregate count, the
#: stacked block and the chunk.
SIZES = [1, 31, 32, 33, 544, 545, 576, 577, _BLOCK, _BLOCK + 1, CHUNK, CHUNK + 1]

PROFILES = {
    name: factory
    for name, factory in inspect.getmembers(profiles, callable)
    if inspect.signature(factory).return_annotation in (SECDEDCode, "SECDEDCode")
}


def test_every_secded_profile_is_covered():
    assert len(PROFILES) == 9
    for factory in PROFILES.values():
        assert isinstance(factory(), SECDEDCode)


# ----------------------------------------------------------------------
# The oracle: construction only, no masks.
def _bit(lanes, position):
    """Bit ``position`` of every codeword, as a uint16 0/1 vector."""
    word = lanes[:, position >> 6] >> np.uint64(position & 63)
    return (word & _ONE).astype(np.uint16)


def oracle_syndrome(code, lanes):
    """``(syndrome, parity)`` of each codeword, one bit at a time."""
    n = lanes.shape[0]
    syn = np.zeros(n, dtype=np.uint16)
    for position, column in zip(code.data_positions, code._data_columns):
        syn ^= _bit(lanes, position) * np.uint16(column)
    for j, slot in enumerate(code.syndrome_slots):
        syn ^= _bit(lanes, slot) << np.uint16(j)
    parity = np.zeros(n, dtype=np.uint16)
    for position in code.positions:
        parity ^= _bit(lanes, position)
    return syn, parity.astype(np.uint8)


def oracle_positions(code):
    """Single-error syndrome -> the bit it points at, from the construction."""
    table = {0: code.parity_slot}
    for j, slot in enumerate(code.syndrome_slots):
        table[1 << j] = slot
    for position, column in zip(code.data_positions, code._data_columns):
        table[column] = position
    return table


def oracle_correct(code, lanes):
    """The status and corrected lanes ``check_and_correct`` must produce."""
    syn, parity = oracle_syndrome(code, lanes)
    fixed = lanes.copy()
    status = np.zeros(lanes.shape[0], dtype=np.uint8)
    table = oracle_positions(code)
    for i in np.flatnonzero((syn != 0) | (parity != 0)):
        position = table.get(int(syn[i])) if parity[i] else None
        if position is None:
            status[i] = CodewordStatus.UNCORRECTABLE
        else:
            fixed[i, position >> 6] ^= _ONE << np.uint64(position & 63)
            status[i] = CodewordStatus.CORRECTED
    return status, fixed


def oracle_screen_clean(code, lanes):
    """The screen's verdict by its definition: every grid aggregate clean.

    The first ``rows * 32`` codewords form a ``(rows, 32)`` grid whose
    row and column XOR aggregates stand in for them; the tail codewords
    stand for themselves.
    """
    n = lanes.shape[0]
    rows = n // _SCREEN_COLS
    grid = lanes[: rows * _SCREEN_COLS].reshape(rows, _SCREEN_COLS, code.n_lanes)
    parts = [lanes[rows * _SCREEN_COLS:]]
    if rows:
        parts += [np.bitwise_xor.reduce(grid, axis=1),
                  np.bitwise_xor.reduce(grid, axis=0)]
    agg = np.concatenate(parts)
    syn, parity = oracle_syndrome(code, agg)
    return not (syn.any() or parity.any())


# ----------------------------------------------------------------------
def encoded(code, n, seed):
    rng = np.random.default_rng(seed)
    lanes = rng.integers(0, 2**63, (n, code.n_lanes), dtype=np.uint64)
    lanes &= code._all_mask  # zero the padding outside the codeword
    code.encode(lanes)
    return lanes


def flip(lanes, row, position):
    lanes[row, position >> 6] ^= _ONE << np.uint64(position & 63)


def assert_matches_oracle(code, lanes):
    """Every read path of the code agrees with the oracle on ``lanes``."""
    want_syn, want_parity = oracle_syndrome(code, lanes)
    syn, parity = code.syndrome(lanes)
    np.testing.assert_array_equal(syn, want_syn)
    np.testing.assert_array_equal(parity, want_parity)
    flags = (want_syn != 0) | (want_parity != 0)
    np.testing.assert_array_equal(code.detect(lanes), flags)
    assert code.scan(lanes) == int(flags.sum())
    status, fixed = oracle_correct(code, lanes)
    work = lanes.copy()
    report = code.check_and_correct(work)
    np.testing.assert_array_equal(report.status, status)
    np.testing.assert_array_equal(work, fixed)


def assert_screens_match_oracle(code, lanes):
    """Both screen paths give the oracle's verdict on ``lanes``."""
    n = lanes.shape[0]
    want = oracle_screen_clean(code, lanes)
    assert _chunk_screen(code, lanes, n, code.scratch) is want
    if code.n_lanes == 2:
        a = np.ascontiguousarray(lanes[:, 0])
        b = np.ascontiguousarray(lanes[:, 1])
        assert _chunk_screen_split(code, a, b, n, code.scratch) is want


def all_flips(code, word):
    """``word`` once per single flip, then once per same-codeword double flip."""
    singles = list(code.positions)
    pairs = list(combinations(code.positions, 2))
    lanes = np.repeat(word[None, :], len(singles) + len(pairs), axis=0)
    for row, position in enumerate(singles):
        flip(lanes, row, position)
    for row, (p, q) in enumerate(pairs, start=len(singles)):
        flip(lanes, row, p)
        flip(lanes, row, q)
    return lanes, len(singles)


def check_every_flip(code, word):
    """Single flips correct back to ``word``; double flips are DUEs."""
    lanes, n_single = all_flips(code, word)
    assert_matches_oracle(code, lanes)
    work = lanes.copy()
    report = code.check_and_correct(work)
    assert (report.status[:n_single] == CodewordStatus.CORRECTED).all()
    assert (report.status[n_single:] == CodewordStatus.UNCORRECTABLE).all()
    np.testing.assert_array_equal(work[:n_single], np.repeat(word[None, :], n_single, 0))
    # One flipped codeword among clean ones: the screen fires for each.
    for row in range(0, lanes.shape[0], 97):
        block = np.repeat(word[None, :], 67, axis=0)
        block[40] = lanes[row]
        assert_screens_match_oracle(code, block)
        assert not oracle_screen_clean(code, block)


def scattered_flips(code, lanes, seed):
    """Flip bits at block and grid boundaries, singly and in pairs."""
    n = lanes.shape[0]
    rng = np.random.default_rng(seed)
    edges = (31, 575, 576, _BLOCK - 1, _BLOCK)
    rows = sorted({0, n - 1, int(rng.integers(n))} | {min(e, n - 1) for e in edges})
    for k, row in enumerate(rows):
        positions = rng.choice(code.positions, size=1 + k % 2, replace=False)
        for position in positions:
            flip(lanes, row, int(position))


# ----------------------------------------------------------------------
profile_codes = pytest.mark.parametrize("name", sorted(PROFILES))


@profile_codes
def test_every_single_and_double_flip_matches_the_oracle(name):
    code = PROFILES[name]()
    words = encoded(code, 3, seed=1)
    for word in words:
        check_every_flip(code, word)


@profile_codes
@pytest.mark.parametrize("n", SIZES)
def test_block_sizes_match_the_oracle(name, n):
    code = PROFILES[name]()
    lanes = encoded(code, n, seed=n)
    assert_matches_oracle(code, lanes)
    assert_screens_match_oracle(code, lanes)
    assert oracle_screen_clean(code, lanes)
    scattered_flips(code, lanes, seed=n)
    assert_matches_oracle(code, lanes)
    assert_screens_match_oracle(code, lanes)


# ----------------------------------------------------------------------
@st.composite
def random_layouts(draw):
    """(n_lanes, codeword positions, check positions) with a valid budget.

    Check slots are a random permutation of the codeword, so they land
    in any lane, in any order, never adjacent by construction.
    """
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
@settings(max_examples=25, deadline=None)
def test_random_layout_flips_match_the_oracle(layout, seed):
    n_lanes, positions, check = layout
    code = SECDEDCode(n_lanes, positions, check, name="reference")
    check_every_flip(code, encoded(code, 1, seed)[0])


@given(random_layouts(), st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_layout_block_sizes_match_the_oracle(layout, n, seed):
    n_lanes, positions, check = layout
    code = SECDEDCode(n_lanes, positions, check, name="reference")
    lanes = encoded(code, n, seed)
    assert_screens_match_oracle(code, lanes)
    scattered_flips(code, lanes, seed)
    assert_matches_oracle(code, lanes)
    assert_screens_match_oracle(code, lanes)
