"""Engine-threaded protected Jacobi, Chebyshev and PPCG.

Jacobi and Chebyshev run through the same ProtectedIteration toolkit as
CG (ISSUE 2 satellite).  Contract: solutions match the plain
counterparts on the TeaLeaf-like matrix, injected single-bit flips are
detected/corrected per scheme, and the policy counters land in
``result.info`` exactly like CG's.  PPCG *is* CG — the one recurrence
with a Chebyshev polynomial for its preconditioner (ISSUE 16) — pinned
bitwise against the hand-copied PPCG body it replaced.
"""

import hashlib

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.errors import DetectedUncorrectableError
from repro.harness.overhead import tealeaf_like_matrix
from repro.protect import (
    CheckPolicy,
    DeferredVerificationEngine,
    ProtectedCSRMatrix,
    ProtectionConfig,
)
from repro.solvers import (
    chebyshev_solve,
    estimate_eigenvalue_bounds,
    jacobi_solve,
    protected_chebyshev_run,
    protected_jacobi_run,
    protected_ppcg_run,
)

CG_INFO_KEYS = {
    "full_checks", "bounds_checks", "vector_checks", "cached_reads",
    "deferred_stores", "dirty_flushes", "corrected", "vector_scheme",
}


@pytest.fixture(scope="module")
def system():
    matrix = tealeaf_like_matrix(8, seed=11)  # 64 unknowns, TeaLeaf layout
    rng = np.random.default_rng(12)
    x_true = rng.standard_normal(matrix.n_cols)
    return matrix, matrix.matvec(x_true), x_true


class TestProtectedJacobi:
    def test_matches_plain_jacobi(self, system):
        matrix, b, x_true = system
        plain = jacobi_solve(matrix, b, eps=1e-24, max_iters=20_000)
        prot = protected_jacobi_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-24, max_iters=20_000, vector_scheme="secded64",
        )
        assert prot.converged
        assert np.allclose(prot.x, x_true, atol=1e-8)
        assert prot.iterations == plain.iterations
        assert len(prot.residual_norms) == len(plain.residual_norms)

    @pytest.mark.parametrize("interval", [8, 32])
    def test_deferred_schedule(self, system, interval):
        matrix, b, x_true = system
        res = protected_jacobi_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-24, max_iters=20_000,
            engine=DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False)),
            vector_scheme="secded64",
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.info["deferred_stores"] > 0
        assert res.info["bounds_checks"] > res.info["full_checks"]

    def test_counters_land_in_info_like_cg(self, system):
        matrix, b, _ = system
        res = protected_jacobi_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-18, max_iters=20_000, vector_scheme="secded64",
        )
        assert CG_INFO_KEYS <= set(res.info)
        assert res.info["full_checks"] > 0
        assert res.info["vector_checks"] > 0
        assert res.info["cached_reads"] > 0

    def test_matrix_only_protection(self, system):
        matrix, b, x_true = system
        res = protected_jacobi_run(
            ProtectedCSRMatrix(matrix, "crc32c", "crc32c"),
            b, eps=1e-24, max_iters=20_000, vector_scheme=None,
        )
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.info["vector_checks"] == 0

    def test_secded_flip_corrected_mid_solve(self, system):
        matrix, b, x_true = system
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        f64_to_u64(pmat.values)[17] ^= np.uint64(1) << np.uint64(33)
        res = protected_jacobi_run(
            pmat, b, eps=1e-24, max_iters=20_000, vector_scheme="secded64",
        )
        assert res.info["corrected"] >= 1
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_sed_flip_detected_not_silent(self, system):
        matrix, b, _ = system
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        f64_to_u64(pmat.values)[5] ^= np.uint64(1) << np.uint64(21)
        with pytest.raises(DetectedUncorrectableError):
            protected_jacobi_run(
                pmat, b, eps=1e-24, max_iters=20_000, vector_scheme=None,
            )

    def test_sed_flip_detected_under_deferral(self, system):
        """A flip present before a deferred solve surfaces no later than
        the end-of-step sweep."""
        matrix, b, _ = system
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        pmat.colidx[3] ^= np.uint32(1) << np.uint32(2)
        with pytest.raises(DetectedUncorrectableError):
            protected_jacobi_run(
                pmat, b, eps=1e-24, max_iters=20_000,
                engine=DeferredVerificationEngine(CheckPolicy(interval=16, correct=False)),
                vector_scheme="secded64",
            )


class TestProtectedChebyshev:
    def test_matches_plain_chebyshev(self, system):
        matrix, b, x_true = system
        lo, hi = estimate_eigenvalue_bounds(matrix)
        plain = chebyshev_solve(matrix, b, eig_min=lo, eig_max=hi,
                                eps=1e-24, max_iters=20_000)
        prot = protected_chebyshev_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eig_min=lo, eig_max=hi, eps=1e-24, max_iters=20_000,
            vector_scheme="secded64",
        )
        assert prot.converged
        assert np.allclose(prot.x, x_true, atol=1e-8)
        assert abs(prot.iterations - plain.iterations) <= 1

    def test_bounds_estimated_when_missing(self, system):
        matrix, b, x_true = system
        res = protected_chebyshev_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-24, max_iters=20_000, vector_scheme="secded64",
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert 0 < res.info["eig_min"] < res.info["eig_max"]

    def test_rejects_bad_bounds(self, system):
        matrix, b, _ = system
        with pytest.raises(ValueError):
            protected_chebyshev_run(
                ProtectedCSRMatrix(matrix, "secded64", "secded64"),
                b, eig_min=2.0, eig_max=1.0,
            )

    @pytest.mark.parametrize("interval", [8, 32])
    def test_deferred_schedule(self, system, interval):
        matrix, b, x_true = system
        res = protected_chebyshev_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-24, max_iters=20_000,
            engine=DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False)),
            vector_scheme="secded64",
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.info["deferred_stores"] > 0
        assert res.info["bounds_checks"] > res.info["full_checks"]

    def test_counters_land_in_info_like_cg(self, system):
        matrix, b, _ = system
        res = protected_chebyshev_run(
            ProtectedCSRMatrix(matrix, "secded64", "secded64"),
            b, eps=1e-18, max_iters=20_000, vector_scheme="secded64",
        )
        assert CG_INFO_KEYS <= set(res.info)
        assert res.info["full_checks"] > 0
        assert res.info["vector_checks"] > 0

    def test_secded_flip_corrected_mid_solve(self, system):
        matrix, b, x_true = system
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        f64_to_u64(pmat.values)[40] ^= np.uint64(1) << np.uint64(28)
        res = protected_chebyshev_run(
            pmat, b, eps=1e-24, max_iters=20_000, vector_scheme="secded64",
        )
        assert res.info["corrected"] >= 1
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_sed_flip_detected_not_silent(self, system):
        matrix, b, _ = system
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        f64_to_u64(pmat.values)[9] ^= np.uint64(1) << np.uint64(44)
        with pytest.raises(DetectedUncorrectableError):
            protected_chebyshev_run(
                pmat, b, eps=1e-24, max_iters=20_000, vector_scheme=None,
            )


class TestCachedDiagonal:
    def test_diagonal_matches_decoded(self, system):
        matrix, _, _ = system
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        assert np.allclose(pmat.diagonal(), matrix.diagonal())

    def test_diagonal_cached_between_checks(self, system):
        matrix, _, _ = system
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        first = pmat.diagonal()
        assert pmat.diagonal() is first  # no re-decode
        pmat.check_all()
        # A clean check changes no storage, so the cache survives it...
        assert pmat.diagonal() is first
        f64_to_u64(pmat.values)[0] ^= np.uint64(1) << np.uint64(50)
        pmat.check_all(correct=True)
        # ...while a correcting check invalidates it with the clean views.
        assert pmat.diagonal() is not first

    def test_operator_diagonal_no_longer_decodes_whole_matrix(self, system):
        """The ProtectedOperator diagonal callback rides the matrix cache
        (and sees corrections applied by a later check)."""
        from repro.protect.operator import ProtectedOperator

        matrix, _, _ = system
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        op = ProtectedOperator(pmat)
        d1 = op.diagonal()
        assert d1 is pmat.diagonal()  # shared cache, not a fresh to_csr()
        # Flip a diagonal-relevant value bit; a correcting check must
        # refresh what the operator hands out.
        f64_to_u64(pmat.values)[0] ^= np.uint64(1) << np.uint64(50)
        pmat.check_all(correct=True)
        assert np.allclose(op.diagonal(), matrix.diagonal())


# ---------------------------------------------------------------------------
# PPCG is CG + a polynomial preconditioner (ISSUE 16).  The table below
# was generated at the parent commit (5647303), where protected_ppcg_run
# was its own hand-copied recurrence; the one CG recurrence fed the
# polynomial as ``M`` must reproduce it bitwise — the iterate, the
# iteration count, the whole residual history and every matrix-side and
# vector-side counter.  (A preconditioned solve measures its seed
# residual on the working array, exactly as the old PPCG body did, so
# not even CG's own seed read-back — vector_checks +1 / cached_reads +2 —
# shows up as a delta.)  fused_verify is pinned so the REPRO_FUSED_VERIFY=0
# ablation run reads the same counters.
#
# (grid, config, inner_steps, eps): (x digest, iterations, history digest,
#   full_checks, fused_products, sweeps_skipped, corrected, vector_checks,
#   cached_reads)
PPCG_GOLDEN = {
    (6, 'paper_default', 2, 1e-12): ('35cd804e9438debd', 7, '5fcf364049296d98', 23, 22, 0, 0, 22, 22),
    (6, 'paper_default', 2, 1e-24): ('4299c6594f1dedda', 13, 'd0e517a21888891e', 41, 40, 0, 0, 40, 40),
    (6, 'paper_default', 4, 1e-12): ('a81566585a797801', 4, '44c2708472615bcb', 22, 21, 0, 0, 13, 13),
    (6, 'paper_default', 4, 1e-24): ('b53216bcc5ffb730', 7, '0c7a1d12d851b8bc', 37, 36, 0, 0, 22, 22),
    (6, 'deferred16', 2, 1e-12): ('ac17946ee0186c54', 7, 'ed7c09c71ce7e936', 4, 2, 0, 0, 4, 22),
    (6, 'deferred16', 2, 1e-24): ('a211ebc29dfcdd05', 13, '2a25b8c954799c4e', 5, 3, 0, 0, 4, 40),
    (6, 'deferred16', 4, 1e-12): ('dea362a845ba7e03', 4, 'f552e5bd8a288875', 4, 2, 0, 0, 4, 13),
    (6, 'deferred16', 4, 1e-24): ('d4fb532b2dae6bc7', 7, 'f0621b0e57ebad7d', 5, 3, 0, 0, 4, 22),
    (6, 'off', 2, 1e-12): ('a7292fc1efc9447a', 7, '402521bb96800c25', 0, 0, 0, 0, 0, 0),
    (6, 'off', 2, 1e-24): ('ee435e037e9d292c', 13, '8c7d04c0ca3d8d60', 0, 0, 0, 0, 0, 0),
    (6, 'off', 4, 1e-12): ('0e98d13517518d85', 4, 'cbc06c490ad4dd36', 0, 0, 0, 0, 0, 0),
    (6, 'off', 4, 1e-24): ('365d4a26f703024a', 7, '1e83a806b66838ae', 0, 0, 0, 0, 0, 0),
    (10, 'paper_default', 2, 1e-12): ('2a9e6ec4582bf163', 8, 'b4124b7c0a50584f', 26, 25, 0, 0, 25, 25),
    (10, 'paper_default', 2, 1e-24): ('3e9f728573d8eb61', 14, '56c014913c3e231d', 44, 43, 0, 0, 43, 43),
    (10, 'paper_default', 4, 1e-12): ('8c62fa0151779e1e', 5, '73989db0713cef48', 27, 26, 0, 0, 16, 16),
    (10, 'paper_default', 4, 1e-24): ('cb9ffeccfa56068f', 8, 'ceb7ab6e3f56060b', 42, 41, 0, 0, 25, 25),
    (10, 'deferred16', 2, 1e-12): ('2abb60ac59a7b6c0', 8, 'd81357acbe68f5e8', 4, 2, 0, 0, 4, 25),
    (10, 'deferred16', 2, 1e-24): ('770c85d673c9e878', 14, '995180589e2d899e', 5, 3, 0, 0, 4, 43),
    (10, 'deferred16', 4, 1e-12): ('199ca037c6626945', 5, 'e1b069f03f1b2660', 4, 2, 0, 0, 4, 16),
    (10, 'deferred16', 4, 1e-24): ('d4e996abf0fb738c', 8, '339662194bd9de83', 5, 3, 0, 0, 4, 25),
    (10, 'off', 2, 1e-12): ('d1a7b650d0d2fd9f', 8, '35e31075b3675611', 0, 0, 0, 0, 0, 0),
    (10, 'off', 2, 1e-24): ('7672dae0de1369d4', 14, 'a224fd1e72d36179', 0, 0, 0, 0, 0, 0),
    (10, 'off', 4, 1e-12): ('a99cec48cad3ff51', 5, '3f7cb017286fc14c', 0, 0, 0, 0, 0, 0),
    (10, 'off', 4, 1e-24): ('10fdff285f7d5f05', 8, '2d8c9f3491633580', 0, 0, 0, 0, 0, 0),
    (16, 'paper_default', 2, 1e-12): ('4f63b30b71c401e8', 8, '83197e8abda46b52', 26, 25, 0, 0, 25, 25),
    (16, 'paper_default', 2, 1e-24): ('328a300c211cb698', 15, '0389859edb7ba811', 47, 46, 0, 0, 46, 46),
    (16, 'paper_default', 4, 1e-12): ('28b2b4919dcfcef9', 5, 'dc33b2af7b4ea8be', 27, 26, 0, 0, 16, 16),
    (16, 'paper_default', 4, 1e-24): ('7eb344655d9d0930', 8, '572e7ed767a8037f', 42, 41, 0, 0, 25, 25),
    (16, 'deferred16', 2, 1e-12): ('8eae87921faef21b', 8, 'b567b4472d7a104b', 4, 2, 0, 0, 4, 25),
    (16, 'deferred16', 2, 1e-24): ('8aaeb162090ea098', 15, 'ff796d413b1cc401', 5, 3, 0, 0, 4, 46),
    (16, 'deferred16', 4, 1e-12): ('f5c22eab43486c3f', 5, '1ddfeb94e13d324f', 4, 2, 0, 0, 4, 16),
    (16, 'deferred16', 4, 1e-24): ('f62cb92559e05a40', 8, '67f205bb0e857221', 5, 3, 0, 0, 4, 25),
    (16, 'off', 2, 1e-12): ('3f0ebd3d962cff9d', 8, '82eb1a49f0a1fdad', 0, 0, 0, 0, 0, 0),
    (16, 'off', 2, 1e-24): ('22bf5174889ca20d', 15, '78653ec176a68d0e', 0, 0, 0, 0, 0, 0),
    (16, 'off', 4, 1e-12): ('2b6ba3528ca59bb5', 5, '4d6012e8b263d29a', 0, 0, 0, 0, 0, 0),
    (16, 'off', 4, 1e-24): ('642a7952f4ef3445', 8, 'e0ee354406e2eb26', 0, 0, 0, 0, 0, 0),
    (24, 'paper_default', 2, 1e-12): ('60f7030249864a6b', 8, '0272b6173febf3fc', 26, 25, 0, 0, 25, 25),
    (24, 'paper_default', 2, 1e-24): ('6fafe723571aaf3c', 15, 'a405762a7837c343', 47, 46, 0, 0, 46, 46),
    (24, 'paper_default', 4, 1e-12): ('24cb0d5a9fe57626', 5, '08897a6195e3530c', 27, 26, 0, 0, 16, 16),
    (24, 'paper_default', 4, 1e-24): ('e591da2f4bb6d17e', 8, '37a906c64303a2e7', 42, 41, 0, 0, 25, 25),
    (24, 'deferred16', 2, 1e-12): ('6c9a6d702a4597db', 8, 'd103585e74b004d4', 4, 2, 0, 0, 4, 25),
    (24, 'deferred16', 2, 1e-24): ('c42f3cffbadc745a', 15, '1217307e04858bb4', 5, 3, 0, 0, 4, 46),
    (24, 'deferred16', 4, 1e-12): ('c8c306b55deeea1a', 5, '94b417768b064c6d', 4, 2, 0, 0, 4, 16),
    (24, 'deferred16', 4, 1e-24): ('8bddd010e45efc70', 8, '16424e65888e0341', 5, 3, 0, 0, 4, 25),
    (24, 'off', 2, 1e-12): ('9bce13370f028842', 8, 'fd86c0abacc9337c', 0, 0, 0, 0, 0, 0),
    (24, 'off', 2, 1e-24): ('4e44b5561f310a1b', 15, 'f40a3a91362812d2', 0, 0, 0, 0, 0, 0),
    (24, 'off', 4, 1e-12): ('85629dad13f6227f', 5, '8ebce00860a08981', 0, 0, 0, 0, 0, 0),
    (24, 'off', 4, 1e-24): ('7a80e77b6aa59668', 8, 'ca97fb84245e81f7', 0, 0, 0, 0, 0, 0),
}

PPCG_CONFIGS = {
    "paper_default": lambda: ProtectionConfig.paper_default().replace(fused_verify=True),
    "deferred16": lambda: ProtectionConfig.deferred(16).replace(fused_verify=True),
    "off": ProtectionConfig.off,
}


def _digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case", PPCG_GOLDEN, ids=lambda c: "-".join(map(str, c)))
def test_ppcg_is_bitwise_the_parent_commits_ppcg(case):
    grid, config, inner_steps, eps = case
    A = tealeaf_like_matrix(grid, seed=grid)
    b = A.matvec(np.random.default_rng(grid + 1).standard_normal(A.n_cols))
    cfg = PPCG_CONFIGS[config]()
    res = protected_ppcg_run(
        cfg.wrap_matrix(A), b, eps=eps, inner_steps=inner_steps,
        engine=cfg.engine(), vector_scheme=cfg.vector_scheme,
    )
    info = res.info
    assert res.converged
    assert (
        _digest(res.x), res.iterations, _digest(res.residual_norms),
        info["full_checks"], info["fused_products"], info["sweeps_skipped"],
        info["corrected"], info["vector_checks"], info["cached_reads"],
    ) == PPCG_GOLDEN[case]
