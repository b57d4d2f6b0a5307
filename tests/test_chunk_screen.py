"""Exhaustive flip table for the GF(2) chunk screen in front of every SECDED check.

Both the packed-lane ``scan`` (behind every ``check``) and the fused
verify-in-SpMV product first ask a grid-aggregate screen
(:mod:`repro.ecc.secded_kernels`) whether a chunk is clean; only a chunk
that fires pays the exact per-codeword syndromes.  A screen that stays
quiet on a corrupted chunk hides the damage from detection *and*
correction, so its detection bound is pinned here:

* a 67-codeword chunk — a ``(2, 32)`` screen grid plus a 3-codeword
  exactly-screened tail — under ``csr_element_secded`` and
  ``vector_secded128``, through the packed screen (``_chunk_screen``)
  and the split-lane screen of the fused product (``_chunk_screen_split``);
* every single flip, every within-codeword bit pair (one grid and one
  tail codeword), every codeword pair flipping one of six bits spread
  over both lanes and the check slots, and every codeword pair with one
  fixed distinct-bit pair must fire — and each class's case count is
  asserted, so a shrunk enumeration fails as loudly as a miss;
* clean chunks of 1, 31, 32, 33, 67 and ``CHUNK`` codewords never fire;
* the known escape beyond two flips (four correctable flips on the
  corners of a grid-aligned rectangle) is a strict xfail.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr.build import five_point_operator
from repro.ecc.profiles import csr_element_secded, vector_secded128
from repro.ecc.secded_kernels import (
    CHUNK,
    _chunk_screen,
    _chunk_screen_split,
    _screen_shape,
)
from repro.protect.matrix import ProtectedCSRMatrix

N = 67
GRID_CW, TAIL_CW = 40, 65  # one codeword inside the grid, one in the tail

CODES = {"csr_element_secded": csr_element_secded, "vector_secded128": vector_secded128}
PATHS = ["packed", "split"]

#: Cases per class and code; a change here must be a deliberate one.
EXPECTED_CASES = {
    "csr_element_secded": {"single": 6432, "within": 9120, "same_bit": 13266,
                           "distinct_bit": 2211},
    "vector_secded128": {"single": 8576, "within": 16256, "same_bit": 13266,
                         "distinct_bit": 2211},
}

_BIT = [np.uint64(1) << np.uint64(b) for b in range(64)]

cells = pytest.mark.parametrize("path", PATHS)
codes = pytest.mark.parametrize("code_name", sorted(CODES))


class Chunk:
    """One encoded chunk behind one screen path, flipped in place."""

    def __init__(self, code, path, n=N, seed=0):
        rng = np.random.default_rng(seed)
        lanes = rng.integers(0, 2**63, (n, code.n_lanes), dtype=np.uint64)
        lanes &= code._all_mask  # zero the padding outside the codeword
        code.encode(lanes)
        self.code, self.path, self.n = code, path, n
        self.packed = lanes
        self.split = (np.ascontiguousarray(lanes[:, 0]),
                      np.ascontiguousarray(lanes[:, 1]))
        # Flips land in whichever storage the path screens.
        self._lanes = (lanes[:, 0], lanes[:, 1]) if path == "packed" else self.split

    def _flip(self, flips):
        for codeword, bit in flips:
            self._lanes[bit >> 6][codeword] ^= _BIT[bit & 63]

    def fires(self, flips=()):
        """Apply ``(codeword, bit)`` flips, screen, undo; True when it fires."""
        self._flip(flips)
        try:
            scratch = self.code.scratch
            if self.path == "packed":
                clean = _chunk_screen(self.code, self.packed, self.n, scratch)
            else:
                clean = _chunk_screen_split(self.code, *self.split, self.n, scratch)
        finally:
            self._flip(flips)
        return not clean


def spread_bits(code):
    """Six bits: both ends of each lane's data bits, a syndrome slot, parity."""
    lane0 = [p for p in code.data_positions if p < 64]
    lane1 = [p for p in code.data_positions if p >= 64]
    bits = sorted({lane0[0], lane0[-1], lane1[0], lane1[-1],
                   code.syndrome_slots[0], code.parity_slot})
    assert len(bits) == 6
    return bits


def run_class(code_name, path, cases, label):
    chunk = Chunk(CODES[code_name](), path)
    count, misses = 0, []
    for flips in cases(chunk.code):
        count += 1
        if not chunk.fires(flips):
            misses.append(flips)
    assert misses == [], f"{label}: {len(misses)} escapes, first {misses[:4]}"
    assert count == EXPECTED_CASES[code_name][label]


def test_chunk_geometry():
    """67 codewords really are a (2, 32) grid plus a 3-codeword tail."""
    assert _screen_shape(N) == (2, 3, 2 + 32 + 3)
    assert GRID_CW < 2 * 32 <= TAIL_CW < N


@codes
@cells
def test_every_single_flip_fires(code_name, path):
    def cases(code):
        for codeword in range(N):
            for bit in code.positions:
                yield ((codeword, bit),)

    run_class(code_name, path, cases, "single")


@codes
@cells
def test_every_within_codeword_pair_fires(code_name, path):
    def cases(code):
        for codeword in (GRID_CW, TAIL_CW):
            for p, q in combinations(code.positions, 2):
                yield ((codeword, p), (codeword, q))

    run_class(code_name, path, cases, "within")


@codes
@cells
def test_every_codeword_pair_with_one_bit_fires(code_name, path):
    def cases(code):
        for bit in spread_bits(code):
            for i, j in combinations(range(N), 2):
                yield ((i, bit), (j, bit))

    run_class(code_name, path, cases, "same_bit")


@codes
@cells
def test_every_codeword_pair_with_distinct_bits_fires(code_name, path):
    def cases(code):
        bits = spread_bits(code)
        p, q = bits[0], bits[-1]
        for i, j in combinations(range(N), 2):
            yield ((i, p), (j, q))

    run_class(code_name, path, cases, "distinct_bit")


@codes
@cells
@pytest.mark.parametrize("n", [1, 31, 32, 33, N, CHUNK])
def test_clean_chunk_never_fires(code_name, path, n):
    assert not Chunk(CODES[code_name](), path, n=n, seed=n).fires()


@pytest.mark.xfail(strict=True, reason=(
    "known screen escape: one bit flipped in codewords 0, 1, 32 and 33 "
    "cancels in every row and column aggregate of the (rows, 32) grid, so "
    "the chunk screens clean and none of the four individually correctable "
    "flips is corrected or even detected"
))
def test_rectangle_of_single_flips_is_corrected():
    n = 48
    rng = np.random.default_rng(3)
    matrix = five_point_operator(n, n, rng.uniform(0.5, 2.0, (n, n)),
                                 rng.uniform(0.5, 2.0, (n, n)), 0.25)
    pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
    assert pmat.nnz <= CHUNK  # one chunk: codewords 0, 1, 32, 33 share a grid
    x = np.random.default_rng(4).standard_normal(matrix.n_cols)
    clean = pmat.to_csr().matvec(x)
    for codeword in (0, 1, 32, 33):
        f64_to_u64(pmat.values)[codeword] ^= np.uint64(1) << np.uint64(40)
    y, reports = pmat.spmv_verified(x)
    assert reports["csr_elements"].n_corrected == 4
    assert np.array_equal(y, clean)
