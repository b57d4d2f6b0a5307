"""Tests for the extension surface: ProtectedOperator (any solver
protected), Matrix Market I/O, CRC nECmED modes, scipy interop, CLI."""

import io

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import csr_from_dense, five_point_operator
from repro.csr.io import read_matrix_market, write_matrix_market
from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.protect import (
    CheckPolicy,
    ProtectedCSRMatrix,
    ProtectedOperator,
    ProtectedVector,
)
from repro.protect.csr_elements import ProtectedCSRElements
from repro.solvers import cg_solve, chebyshev_solve, jacobi_solve, ppcg_solve
from repro.solvers.chebyshev import estimate_eigenvalue_bounds


def make_system(nx=8, ny=7, seed=0):
    rng = np.random.default_rng(seed)
    A = five_point_operator(
        nx, ny, rng.uniform(0.5, 2.0, (ny, nx)), rng.uniform(0.5, 2.0, (ny, nx)), 0.4
    )
    x_true = rng.standard_normal(nx * ny)
    return A, A.matvec(x_true), x_true


class TestProtectedOperator:
    def test_cg_via_operator(self):
        A, b, x_true = make_system()
        op = ProtectedOperator(ProtectedCSRMatrix(A, "secded64", "secded64"))
        res = cg_solve(op, b, eps=1e-24)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_jacobi_via_operator(self):
        A, b, x_true = make_system()
        op = ProtectedOperator(ProtectedCSRMatrix(A, "secded64", "secded64"))
        res = jacobi_solve(op, b, eps=1e-24, max_iters=5000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_chebyshev_via_operator(self):
        A, b, x_true = make_system()
        lo, hi = estimate_eigenvalue_bounds(A, iters=40)
        op = ProtectedOperator(ProtectedCSRMatrix(A, "crc32c", "crc32c"))
        res = chebyshev_solve(op, b, eig_min=lo, eig_max=hi,
                              eps=1e-24, max_iters=3000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_ppcg_via_operator(self):
        A, b, x_true = make_system()
        bounds = estimate_eigenvalue_bounds(A, iters=40)
        op = ProtectedOperator(ProtectedCSRMatrix(A, "secded64", "sed"))
        res = ppcg_solve(op, b, eps=1e-24, eig_bounds=bounds)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_operator_corrects_in_flight(self):
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        policy = CheckPolicy(interval=1, correct=True)
        op = ProtectedOperator(pmat, policy)
        f64_to_u64(pmat.values)[12] ^= np.uint64(1) << np.uint64(41)
        res = cg_solve(op, b, eps=1e-24)
        assert policy.stats.corrected == 1
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_operator_raises_on_sed_due(self):
        A, b, _ = make_system()
        pmat = ProtectedCSRMatrix(A, "sed", "sed")
        op = ProtectedOperator(pmat)
        pmat.values[0] = 42.0
        with pytest.raises(DetectedUncorrectableError):
            cg_solve(op, b, eps=1e-24)

    def test_scipy_interop(self):
        scipy_linalg = pytest.importorskip("scipy.sparse.linalg")
        A, b, x_true = make_system()
        op = ProtectedOperator(ProtectedCSRMatrix(A, "secded64", "secded64"))
        x, info = scipy_linalg.cg(op.to_scipy(), b, rtol=1e-12)
        assert info == 0
        assert np.allclose(x, x_true, atol=1e-6)

    def test_end_of_step_sweep(self):
        A, b, _ = make_system()
        policy = CheckPolicy(interval=50, correct=False)
        op = ProtectedOperator(ProtectedCSRMatrix(A, "secded64", "sed"), policy)
        cg_solve(op, b, eps=1e-24)
        checks_before = policy.stats.full_checks
        op.end_of_step()
        assert policy.stats.full_checks == checks_before + 1


class TestOperatorIndexFlipAdversary:
    """A column-index flip pushed out of range right after a due product.

    Between checks the operator gathers through the bounds-validated
    index snapshot, so the flipped index is never read; the next due
    access (or the end-of-step sweep) is where the flip surfaces.
    """

    N = 16  # 256 columns: flipping bit 8 of any stored index overflows it
    BIT = np.uint32(1) << np.uint32(8)

    def setup(self, scheme, fused):
        A = five_point_operator(
            self.N, self.N, np.ones((self.N, self.N)), np.ones((self.N, self.N)), 0.3
        )
        pmat = ProtectedCSRMatrix(A, scheme, scheme)
        op = ProtectedOperator(pmat, CheckPolicy(interval=8, fused_verify=fused))
        x = np.random.default_rng(9).standard_normal(A.n_cols)
        y0 = op.matvec(x).copy()  # access 0: due
        pmat.colidx[37] ^= self.BIT
        assert int(pmat.colidx[37]) & pmat.elements.index_mask >= A.n_cols
        return op, x, y0

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("scheme", ["sed", "secded64"])
    def test_next_due_access_catches_flip(self, scheme, fused):
        op, x, y0 = self.setup(scheme, fused)
        for _ in range(7):  # accesses 1..7: not due
            assert op.matvec(x).tobytes() == y0.tobytes()
        if scheme == "sed":
            with pytest.raises(DetectedUncorrectableError):
                op.matvec(x)  # access 8: due
        else:
            assert op.matvec(x).tobytes() == y0.tobytes()
            assert op.policy.stats.corrected == 1
            assert op.matrix.check_all()["csr_elements"].clean

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("scheme", ["sed", "secded64"])
    @pytest.mark.parametrize("nondue", range(1, 8))
    def test_end_of_step_never_returns_clean(self, scheme, fused, nondue):
        op, x, y0 = self.setup(scheme, fused)
        for _ in range(nondue):
            assert op.matvec(x).tobytes() == y0.tobytes()
        if scheme == "sed":
            with pytest.raises(DetectedUncorrectableError):
                op.end_of_step()
        else:
            op.end_of_step()
            assert op.policy.stats.corrected == 1
            assert op.matrix.check_all()["csr_elements"].clean


class TestMatrixMarketIO:
    def test_roundtrip(self):
        A, _, _ = make_system()
        buf = io.StringIO()
        write_matrix_market(A, buf)
        back = read_matrix_market(buf.getvalue())
        assert back.shape == A.shape
        assert np.allclose(back.to_dense(), A.to_dense())

    def test_read_symmetric(self):
        text = """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
2 1 1.0
2 2 5.0
"""
        mat = read_matrix_market(text)
        dense = mat.to_dense()
        assert np.allclose(dense, [[4.0, 1.0], [1.0, 5.0]])

    def test_read_pattern(self):
        text = """%%MatrixMarket matrix coordinate pattern general
2 3 2
1 2
2 3
"""
        mat = read_matrix_market(text)
        assert mat.to_dense()[0, 1] == 1.0
        assert mat.to_dense()[1, 2] == 1.0

    def test_comments_and_blank_lines_skipped(self):
        text = """%%MatrixMarket matrix coordinate real general
% a comment

2 2 1
1 1 3.5
"""
        assert read_matrix_market(text).to_dense()[0, 0] == 3.5

    def test_bad_banner(self):
        with pytest.raises(ValueError):
            read_matrix_market("%%NotMatrixMarket nope\n1 1 0\n")

    def test_unsupported_layout(self):
        with pytest.raises(ValueError):
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n1.0\n")

    def test_truncated_data(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        with pytest.raises(ValueError):
            read_matrix_market(text)

    def test_file_roundtrip(self, tmp_path):
        A = csr_from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
        path = tmp_path / "m.mtx"
        write_matrix_market(A, path)
        back = read_matrix_market(path)
        assert np.allclose(back.to_dense(), A.to_dense())

    def test_protected_load_pipeline(self):
        """The downstream story: load .mtx -> protect -> solve."""
        rng = np.random.default_rng(3)
        dense = np.diag(rng.uniform(2.0, 4.0, 12))
        dense[0, 1] = dense[1, 0] = 0.3
        A = csr_from_dense(dense)
        buf = io.StringIO()
        write_matrix_market(A, buf)
        loaded = read_matrix_market(buf.getvalue())
        op = ProtectedOperator(ProtectedCSRMatrix(loaded, "secded64", "secded64"))
        b = rng.standard_normal(12)
        res = cg_solve(op, b, eps=1e-24)
        assert res.converged


class TestCRCModes:
    def _elements(self, mode):
        rng = np.random.default_rng(4)
        op = five_point_operator(
            6, 5, rng.uniform(0.5, 2.0, (5, 6)), rng.uniform(0.5, 2.0, (5, 6)), 0.3
        )
        return ProtectedCSRElements(
            op.values.copy(), op.colidx.copy(), op.rowptr, op.n_cols,
            "crc32c", crc_mode=mode,
        )

    def test_5ed_detects_only(self):
        prot = self._elements("5ED")
        f64_to_u64(prot.values)[7] ^= np.uint64(1) << np.uint64(20)
        report = prot.check()
        assert report.n_uncorrectable == 1
        assert report.n_corrected == 0

    def test_1ec4ed_corrects_one_not_two(self):
        prot = self._elements("1EC4ED")
        vals0 = prot.values.copy()
        f64_to_u64(prot.values)[7] ^= np.uint64(1) << np.uint64(20)
        assert prot.check().n_corrected == 1
        assert np.array_equal(prot.values, vals0)
        f64_to_u64(prot.values)[7] ^= np.uint64(1) << np.uint64(20)
        f64_to_u64(prot.values)[8] ^= np.uint64(1) << np.uint64(30)
        report = prot.check()
        assert report.n_uncorrectable == 1

    def test_2ec3ed_corrects_two(self):
        prot = self._elements("2EC3ED")
        vals0 = prot.values.copy()
        f64_to_u64(prot.values)[7] ^= np.uint64(1) << np.uint64(20)
        f64_to_u64(prot.values)[8] ^= np.uint64(1) << np.uint64(30)
        assert prot.check().n_corrected == 1
        assert np.array_equal(prot.values, vals0)

    def test_vector_mode(self):
        rng = np.random.default_rng(5)
        vec = ProtectedVector(rng.standard_normal(16), "crc32c", crc_mode="5ED")
        f64_to_u64(vec.raw)[2] ^= np.uint64(1) << np.uint64(30)
        report = vec.check()
        assert report.n_uncorrectable == 1

    def test_invalid_mode(self):
        with pytest.raises((ValueError, ConfigurationError)):
            ProtectedVector(np.ones(8), "crc32c", crc_mode="9EC")


class TestCLI:
    def test_anchors_command(self, capsys):
        from repro.__main__ import main

        assert main(["anchors"]) == 0
        out = capsys.readouterr().out
        assert "broadwell" in out and "0.300" in out

    def test_tealeaf_command(self, capsys):
        from repro.__main__ import main

        assert main(["tealeaf", "--grid", "16", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "field summary" in out

    def test_tealeaf_protected_command(self, capsys):
        from repro.__main__ import main

        assert main([
            "tealeaf", "--grid", "16", "--steps", "1", "--protect",
            "--scheme", "sed", "--interval", "4",
        ]) == 0
        assert "field summary" in capsys.readouterr().out

    def test_campaign_command(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "--preset", "guarantee-matrix", "--trials", "10",
                     "--schemes", "sed", "secded64"]) == 0
        out = capsys.readouterr().out
        # A fault campaign is a sweep preset: the rendered grid carries
        # per-scheme sdc columns.
        assert "sdc=" in out and "secded64" in out and "Guarantee matrix" in out
