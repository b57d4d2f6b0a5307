"""One SpMV kernel, bit for bit.

* :func:`repro.csr.spmv.spmv` (row blocks, column adds for uniform
  blocks, ``reduceat`` for the rest) is bitwise the whole-array
  ``np.add.reduceat`` formulation it replaced, on any row structure and
  at any operand rank — signed zeros included;
* :func:`repro.csr.spmv.row_dot` computes that order in plain Python
  floats, long (pairwise-summed) rows included;
* every product route in the package — ``CSRMatrix.matvec``,
  ``matvec_unchecked``, ``spmv_verified`` under each element scheme and
  the engine's due and non-due products — returns the same bits, on
  clean storage and after a flip the check corrected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.float_bits import f64_to_u64
from repro.csr import CSRMatrix, csr_from_coo, row_dot, spmv
from repro.ecc.secded_kernels import CHUNK
from repro.harness.overhead import tealeaf_like_matrix
from repro.protect import ProtectedCSRMatrix, ProtectionConfig


def whole_array_reduceat(values, colidx, rowptr, x, n_rows):
    """The pre-row-block product: one ``reduceat`` over every element."""
    x = np.asarray(x, dtype=np.float64)
    ptr = rowptr.astype(np.int64)
    starts = ptr[:-1]
    lengths = ptr[1:] - starts
    out = np.zeros(x.shape[:-1] + (n_rows,))
    if values.size == 0:
        return out
    products = values * x[..., colidx.astype(np.int64)]
    if lengths.min(initial=1) > 0:
        np.add.reduceat(products, starts, axis=-1, out=out)
    else:
        nonempty = lengths > 0
        out[..., nonempty] = np.add.reduceat(products, starts[nonempty], axis=-1)
    return out


def matrix_from_lengths(lengths, n_cols, seed):
    """A CSR matrix with the given row lengths; some values are ±0."""
    rng = np.random.default_rng(seed)
    rowptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.uint32)
    nnz = int(rowptr[-1])
    values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-6, 7, nnz)
    zeros = rng.random(nnz)
    values[zeros < 0.05] = -0.0
    values[(zeros >= 0.05) & (zeros < 0.08)] = 0.0
    colidx = rng.integers(0, n_cols, nnz).astype(np.uint32)
    return CSRMatrix(values, colidx, rowptr, (len(lengths), n_cols))


def operand(n_cols, lead, seed):
    x = np.random.default_rng(seed + 1).standard_normal(lead + (n_cols,))
    x[..., ::7] = -0.0
    return x


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Runs of equal row widths: short runs mix widths inside one block, long
# ones fill whole blocks or straddle a CHUNK boundary.
runs = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 9), st.integers(10, 40)),
        st.one_of(st.integers(1, 8), st.integers(500, 4000)),
    ),
    min_size=1,
    max_size=6,
)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        runs=runs,
        lead=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_whole_array_reduceat(self, runs, lead, seed):
        lengths = np.concatenate(
            [np.full(min(count, 40_000 // max(width, 1)), width) for width, count in runs]
        )
        A = matrix_from_lengths(lengths, n_cols=97, seed=seed)
        x = operand(A.n_cols, lead, seed)
        expect = whole_array_reduceat(A.values, A.colidx, A.rowptr, x, A.n_rows)
        assert same_bits(spmv(A.values, A.colidx, A.rowptr, x, A.n_rows), expect)
        assert same_bits(A.matvec(x), expect)

    @pytest.mark.parametrize("width", range(1, 12))
    def test_uniform_run_straddling_blocks(self, width):
        """One width throughout, long enough for several row blocks whose
        boundaries fall inside the run."""
        A = matrix_from_lengths(np.full(3 * CHUNK // width + 5, width), 50, width)
        for lead in ((), (2,)):
            x = operand(A.n_cols, lead, width)
            expect = whole_array_reduceat(A.values, A.colidx, A.rowptr, x, A.n_rows)
            assert same_bits(A.matvec(x), expect)

    def test_row_pointer_short_of_nnz_reduces_like_reduceat(self):
        """``reduceat`` ends the last non-empty row at the array's end, not
        at ``rowptr[-1]``; the row blocks keep that."""
        A = matrix_from_lengths([3, 0, 4, 2, 0], 9, 1)
        rowptr = A.rowptr.copy()
        rowptr[-2:] = 7  # rows 3 and 4 now empty; row 2 really ends at 9
        x = operand(A.n_cols, (), 1)
        expect = whole_array_reduceat(A.values, A.colidx, rowptr, x, A.n_rows)
        assert same_bits(spmv(A.values, A.colidx, rowptr, x, A.n_rows), expect)

    def test_out_of_range_index_raises_without_scratch(self):
        A = matrix_from_lengths([2, 3], 4, 0)
        colidx = A.colidx.copy()
        colidx[1] = 4
        with pytest.raises(IndexError):
            spmv(A.values, colidx, A.rowptr, np.ones(4), A.n_rows)

    def test_out_sharing_memory_with_x(self):
        """Blocks write ``out`` while later blocks still gather from ``x``;
        an ``out`` that aliases the operand must not corrupt the product."""
        n = 3 * CHUNK // 5
        A = matrix_from_lengths(np.full(n, 5), n, 2)
        for lead in ((), (2,)):
            x = operand(n, lead, 2)
            expect = spmv(A.values, A.colidx, A.rowptr, x, n)
            assert same_bits(spmv(A.values, A.colidx, A.rowptr, x, n, out=x), expect)
            x = operand(n, lead, 2)
            assert same_bits(A.matvec(x, out=x), expect)

    @pytest.mark.parametrize("lengths", [
        [0, 1, 2, 5, 8, 9, 10, 17, 40],
        [129, 300, 1000, 0, 7],
    ])
    def test_row_dot_is_the_kernel_order(self, lengths):
        A = matrix_from_lengths(lengths, 60, len(lengths))
        x = operand(A.n_cols, (), 3)
        y = A.matvec(x)
        for row in range(A.n_rows):
            got = np.float64(row_dot(A.values, A.colidx, A.rowptr, row, x))
            assert got.tobytes() == y[row].tobytes()


# ---------------------------------------------------------------------------
def tridiagonal(n=200):
    rows = np.repeat(np.arange(n), 3)
    cols = rows + np.tile([-1, 0, 1], n)
    keep = (cols >= 0) & (cols < n)
    rng = np.random.default_rng(2)
    return csr_from_coo(rows[keep], cols[keep], rng.standard_normal(keep.sum()), (n, n))


def mixed_with_empty_rows():
    lengths = np.random.default_rng(4).integers(0, 16, 700)
    lengths[::9] = 0
    return matrix_from_lengths(lengths, 700, 4)


MATRICES = {
    "stencil": lambda: tealeaf_like_matrix(64),
    "tridiagonal": tridiagonal,
    "mixed": mixed_with_empty_rows,
}
CORRECTING = ("secded64", "secded128", "crc32c")
CASES = [
    (name, scheme, damage)
    for name in MATRICES
    for scheme in ("secded64", "sed", "secded128", "crc32c")
    for damage in (None, "value", "index")
    if scheme != "crc32c" or name == "stencil"  # crc32c refuses short rows
    if damage is None or scheme in CORRECTING  # sed cannot correct a flip
]


def flip(pmat, where):
    """One single-bit flip in a stored value or column index."""
    if where == "value":
        f64_to_u64(pmat.values)[41] ^= np.uint64(1) << np.uint64(33)
    else:
        pmat.colidx[41] ^= np.uint32(1) << np.uint32(2)


class TestRoutes:
    @pytest.mark.parametrize("name, scheme, damage", CASES)
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_every_route_same_bits(self, name, scheme, damage, lead):
        A = MATRICES[name]()
        x = operand(A.n_cols, lead, 5)
        expect = whole_array_reduceat(A.values, A.colidx, A.rowptr, x, A.n_rows)
        assert same_bits(A.matvec(x), expect)

        def protected():
            pmat = ProtectedCSRMatrix(A, scheme, scheme)
            if damage:
                flip(pmat, damage)
            return pmat

        # verify-in-SpMV (fused under secded64), then the snapshot it left
        pmat = protected()
        y, reports = pmat.spmv_verified(x)
        assert all(r.ok for r in reports.values())
        assert reports["csr_elements"].n_corrected == (1 if damage else 0)
        assert same_bits(y, expect)
        assert same_bits(pmat.matvec_unchecked(x), expect)

        # the engine: access 0 is due, access 1 rides the snapshot
        pmat = protected()
        engine = ProtectionConfig(
            element_scheme=scheme, rowptr_scheme=scheme, interval=2
        ).engine()
        assert same_bits(engine.spmv(pmat, x), expect)
        assert same_bits(engine.spmv(pmat, x), expect)
        assert engine.stats.full_checks == 1
        assert engine.stats.corrected == (1 if damage else 0)
        if not damage:
            assert same_bits(protected().matvec_unchecked(x), expect)
