"""Solver tests: CG, Jacobi, Chebyshev, PPCG against direct solutions."""

import numpy as np
import pytest

from repro.csr import csr_from_dense, five_point_operator
from repro.solvers import (
    JacobiPreconditioner,
    LinearOperator,
    as_operator,
    cg_solve,
    chebyshev_solve,
    estimate_eigenvalue_bounds,
    jacobi_solve,
    ppcg_solve,
    protected_cg_run,
)
from repro.protect import CheckPolicy, DeferredVerificationEngine, ProtectedCSRMatrix


def make_system(nx=8, ny=7, seed=0):
    rng = np.random.default_rng(seed)
    A = five_point_operator(
        nx, ny, rng.uniform(0.5, 2.0, (ny, nx)), rng.uniform(0.5, 2.0, (ny, nx)), 0.4
    )
    x_true = rng.standard_normal(nx * ny)
    b = A.matvec(x_true)
    return A, b, x_true


class TestCG:
    def test_solves_spd_system(self):
        A, b, x_true = make_system()
        res = cg_solve(A, b, eps=1e-24)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-9)

    def test_residual_monotone_overall(self):
        A, b, _ = make_system()
        res = cg_solve(A, b, eps=1e-24)
        # CG residuals can oscillate locally but must shrink overall.
        assert res.residual_norms[-1] < 1e-3 * res.residual_norms[0]

    def test_max_iters_respected(self):
        A, b, _ = make_system()
        res = cg_solve(A, b, eps=1e-30, max_iters=3)
        assert res.iterations == 3
        assert not res.converged

    def test_warm_start(self):
        A, b, x_true = make_system()
        res = cg_solve(A, b, x0=x_true)
        assert res.converged
        assert res.iterations == 0

    def test_jacobi_preconditioner_reduces_iterations(self):
        rng = np.random.default_rng(1)
        # Badly scaled diagonal makes plain CG crawl.
        scale = np.exp(rng.uniform(0, 6, 40))
        dense = np.diag(scale) + 0.01 * np.ones((40, 40))
        A = csr_from_dense(dense)
        b = rng.standard_normal(40)
        plain = cg_solve(A, b, eps=1e-20, max_iters=500)
        precond = cg_solve(
            A, b, eps=1e-20, max_iters=500,
            preconditioner=JacobiPreconditioner.from_operator(as_operator(A)),
        )
        assert precond.iterations < plain.iterations

    def test_operator_protocol(self):
        A, b, x_true = make_system()
        op = LinearOperator(A.matvec, A.n_rows, A.diagonal)
        res = cg_solve(op, b, eps=1e-24)
        assert np.allclose(res.x, x_true, atol=1e-9)

    def test_as_operator_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_operator(42)


class TestJacobi:
    def test_converges_on_dominant_system(self):
        A, b, x_true = make_system()
        res = jacobi_solve(A, b, eps=1e-24, max_iters=5000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_slower_than_cg(self):
        A, b, _ = make_system()
        cg_iters = cg_solve(A, b, eps=1e-20).iterations
        jac_iters = jacobi_solve(A, b, eps=1e-20, max_iters=5000).iterations
        assert jac_iters > cg_iters


class TestChebyshev:
    def test_eigenvalue_bounds_bracket_spectrum(self):
        A, _, _ = make_system(6, 6)
        lo, hi = estimate_eigenvalue_bounds(A, iters=36)
        eigs = np.linalg.eigvalsh(A.to_dense())
        assert lo <= eigs[0] * 1.01
        assert hi >= eigs[-1] * 0.99

    def test_converges_with_good_bounds(self):
        A, b, x_true = make_system()
        eigs = np.linalg.eigvalsh(A.to_dense())
        res = chebyshev_solve(
            A, b, eig_min=eigs[0] * 0.95, eig_max=eigs[-1] * 1.05,
            eps=1e-24, max_iters=2000,
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_rejects_bad_bounds(self):
        A, b, _ = make_system()
        with pytest.raises(ValueError):
            chebyshev_solve(A, b, eig_min=2.0, eig_max=1.0)


class TestPPCG:
    def test_converges(self):
        A, b, x_true = make_system()
        res = ppcg_solve(A, b, eps=1e-24)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_fewer_outer_iterations_than_cg(self):
        A, b, _ = make_system(12, 12, seed=3)
        cg_iters = cg_solve(A, b, eps=1e-20).iterations
        ppcg_iters = ppcg_solve(A, b, eps=1e-20, inner_steps=6).iterations
        assert ppcg_iters < cg_iters


class TestProtectedCG:
    @pytest.mark.parametrize("vector_scheme", [None, "sed", "secded64", "crc32c"])
    def test_matches_plain_cg_solution(self, vector_scheme):
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        res = protected_cg_run(
            pmat, b, eps=1e-24, vector_scheme=vector_scheme
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_iteration_overhead_below_one_percent(self):
        """Paper: LSB noise costs < 1% extra iterations."""
        A, b, _ = make_system(16, 16, seed=5)
        plain = cg_solve(A, b, eps=1e-24)
        prot = protected_cg_run(
            ProtectedCSRMatrix(A, "secded64", "secded64"),
            b, eps=1e-24, vector_scheme="secded64",
        )
        assert prot.iterations <= int(np.ceil(plain.iterations * 1.01)) + 1

    def test_check_interval_reduces_full_checks(self):
        A, b, _ = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        policy = CheckPolicy(interval=8, correct=False)
        res = protected_cg_run(pmat, b, eps=1e-24, engine=DeferredVerificationEngine(policy),
                               vector_scheme=None)
        assert res.info["bounds_checks"] > res.info["full_checks"]

    def test_end_of_step_sweep_counted(self):
        A, b, _ = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        policy = CheckPolicy(interval=1000, correct=False)
        res = protected_cg_run(pmat, b, eps=1e-24, engine=DeferredVerificationEngine(policy),
                               vector_scheme=None)
        # Initial forced check + final mandatory sweep at minimum.
        assert res.info["full_checks"] >= 2

    def test_element_only_protection(self):
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, "crc32c", None)
        res = protected_cg_run(pmat, b, eps=1e-24, vector_scheme=None)
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_rowptr_only_protection(self):
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, None, "crc32c")
        res = protected_cg_run(pmat, b, eps=1e-24, vector_scheme=None)
        assert np.allclose(res.x, x_true, atol=1e-7)
