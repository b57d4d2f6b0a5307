"""CSR substrate tests, using scipy.sparse as the oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr import (
    CSRMatrix,
    csr_from_coo,
    csr_from_dense,
    csr_from_scipy,
    five_point_operator,
    row_dot,
    spmv,
)


def random_csr(rng, m=20, n=16, density=0.2):
    mat = sp.random(m, n, density=density, random_state=rng, format="csr")
    mat.sort_indices()
    return csr_from_scipy(mat), mat


class TestConstruction:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((7, 9))
        dense[dense < 0.4] = 0.0
        mat = csr_from_dense(dense)
        assert np.array_equal(mat.to_dense(), dense)

    def test_from_dense_keep_zeros(self):
        dense = np.zeros((3, 3))
        mat = csr_from_dense(dense, keep_zeros=True)
        assert mat.nnz == 9
        assert np.array_equal(mat.to_dense(), dense)

    def test_from_coo_sorts_rows(self):
        mat = csr_from_coo([1, 0, 1], [0, 2, 1], [5.0, 1.0, 2.0], (2, 3))
        assert np.array_equal(mat.rowptr, [0, 1, 3])
        assert np.array_equal(mat.colidx, [2, 0, 1])
        assert np.array_equal(mat.values, [1.0, 5.0, 2.0])

    def test_from_coo_out_of_range(self):
        with pytest.raises(ValueError):
            csr_from_coo([0], [5], [1.0], (1, 3))
        with pytest.raises(ValueError):
            csr_from_coo([2], [0], [1.0], (1, 3))

    def test_validation_rejects_bad_rowptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(2), np.zeros(2, np.uint32), np.array([0, 2, 1], np.uint32), (2, 2))
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(2), np.zeros(2, np.uint32), np.array([1, 1, 2], np.uint32), (2, 2))

    def test_validation_rejects_bad_colidx(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(1), np.array([9], np.uint32), np.array([0, 1], np.uint32), (1, 3))

    def test_scipy_roundtrip(self):
        rng = np.random.default_rng(1)
        ours, theirs = random_csr(rng)
        assert np.allclose(ours.to_scipy().toarray(), theirs.toarray())


class TestSpMV:
    def test_matches_scipy_random(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            ours, theirs = random_csr(np.random.default_rng(seed), m=31, n=27)
            x = rng.standard_normal(27)
            assert np.allclose(ours.matvec(x), theirs @ x)

    def test_handles_empty_rows(self):
        dense = np.zeros((5, 4))
        dense[0, 1] = 2.0
        dense[3, 2] = -1.0
        mat = csr_from_dense(dense)
        x = np.arange(4.0)
        assert np.allclose(mat.matvec(x), dense @ x)

    def test_all_empty_matrix(self):
        mat = csr_from_dense(np.zeros((4, 4)))
        assert np.allclose(mat.matvec(np.ones(4)), 0.0)

    def test_rowptr_mutated_between_products_matches_fresh_matrix(self):
        # The row plan is cached against a copy of the row pointer: a
        # product after an in-place rowptr edit must not run the old plan.
        rng = np.random.default_rng(5)
        lengths = rng.integers(0, 10, size=64)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.uint32)
        nnz = int(ptr[-1])
        mat = CSRMatrix(rng.standard_normal(nnz),
                        rng.integers(0, 64, size=nnz).astype(np.uint32),
                        ptr, (64, 64))
        x = rng.standard_normal(64)
        before = mat.matvec(x).copy()
        row = int(np.flatnonzero(lengths)[5])
        mat.rowptr[row + 1] -= 1  # its last entry moves to the next row
        fresh = CSRMatrix(mat.values.copy(), mat.colidx.copy(),
                          mat.rowptr.copy(), mat.shape)
        after = mat.matvec(x)
        assert after.tobytes() == fresh.matvec(x).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_row_plan_is_derived_once_across_products(self, monkeypatch):
        from repro.csr import matrix as csr_matrix

        calls = []
        derive = csr_matrix._row_blocks
        monkeypatch.setattr(csr_matrix, "_row_blocks",
                            lambda *a: calls.append(1) or derive(*a))
        rng = np.random.default_rng(6)
        mat, _ = random_csr(rng, m=40, n=40)
        x = rng.standard_normal(40)
        first = mat.matvec(x)
        for _ in range(4):
            assert mat.matvec(x).tobytes() == first.tobytes()
        assert len(calls) == 1
        mat.rowptr[1:] = mat.rowptr[1:]  # rewritten, not changed
        mat.matvec(x)
        assert len(calls) == 1

    def test_out_parameter(self):
        mat = csr_from_dense(np.eye(3))
        out = np.empty(3)
        res = mat.matvec(np.array([1.0, 2.0, 3.0]), out=out)
        assert res is out
        assert np.allclose(out, [1, 2, 3])

    def test_row_dot_matches(self):
        rng = np.random.default_rng(4)
        ours, _ = random_csr(rng, m=10, n=10)
        x = rng.standard_normal(10)
        full = spmv(ours.values, ours.colidx, ours.rowptr, x, ours.n_rows)
        for row in range(10):
            got = row_dot(ours.values, ours.colidx, ours.rowptr, row, x)
            assert np.float64(got).tobytes() == full[row].tobytes()


class TestFivePointOperator:
    def test_five_entries_every_row(self):
        op = five_point_operator(4, 3, np.ones((3, 4)), np.ones((3, 4)), 0.1)
        assert np.all(op.row_lengths() == 5)
        assert op.nnz == 5 * 12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        kx = rng.uniform(0.5, 2.0, (4, 5))
        ky = rng.uniform(0.5, 2.0, (4, 5))
        op = five_point_operator(5, 4, kx, ky, 0.25)
        dense = op.to_dense()
        assert np.allclose(dense, dense.T)

    def test_positive_definite(self):
        rng = np.random.default_rng(6)
        kx = rng.uniform(0.5, 2.0, (6, 6))
        ky = rng.uniform(0.5, 2.0, (6, 6))
        op = five_point_operator(6, 6, kx, ky, 0.5)
        eigvals = np.linalg.eigvalsh(op.to_dense())
        assert eigvals.min() > 0

    def test_row_sums_identity_for_interior(self):
        """L has zero row sums, so (I + dt L) rows sum to 1."""
        op = five_point_operator(5, 5, np.ones((5, 5)), np.ones((5, 5)), 0.7)
        sums = op.to_dense().sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_boundary_zero_coefficients_in_range(self):
        op = five_point_operator(3, 3, np.ones((3, 3)), np.ones((3, 3)), 0.1)
        assert int(op.colidx.max()) < 9  # clamped indices stay in range
        # Corner row 0: south and west slots are zero-coefficient.
        assert op.values[0] == 0.0 and op.values[1] == 0.0

    def test_matches_dense_laplacian(self):
        """Against an independently assembled dense operator."""
        nx, ny, c = 4, 3, 0.2
        op = five_point_operator(nx, ny, np.ones((ny, nx)), np.ones((ny, nx)), c)
        n = nx * ny
        dense = np.zeros((n, n))
        for j in range(ny):
            for i in range(nx):
                r = j * nx + i
                for dj, di in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                    jj, ii = j + dj, i + di
                    if 0 <= jj < ny and 0 <= ii < nx:
                        dense[r, jj * nx + ii] -= c
                        dense[r, r] += c
                dense[r, r] += 1.0
        assert np.allclose(op.to_dense(), dense)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            five_point_operator(3, 3, np.ones((2, 3)), np.ones((3, 3)), 0.1)


class TestMatrixHelpers:
    def test_diagonal(self):
        dense = np.diag([1.0, 2.0, 3.0])
        dense[0, 2] = 5.0
        mat = csr_from_dense(dense)
        assert np.array_equal(mat.diagonal(), [1.0, 2.0, 3.0])

    def test_row_lengths(self):
        mat = csr_from_dense(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(mat.row_lengths(), [2, 0, 1])

    def test_copy_is_independent(self):
        mat = csr_from_dense(np.eye(2))
        dup = mat.copy()
        dup.values[0] = 99.0
        assert mat.values[0] == 1.0


@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_five_point_spmv_matches_scipy(nx, ny, seed):
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.1, 3.0, (ny, nx))
    ky = rng.uniform(0.1, 3.0, (ny, nx))
    op = five_point_operator(nx, ny, kx, ky, 0.4)
    x = rng.standard_normal(nx * ny)
    assert np.allclose(op.matvec(x), op.to_scipy() @ x)
