"""Verify-in-SpMV fused kernel: parity, coverage accounting, allocation.

The contracts pinned here:

* ``spmv_verified`` is **bitwise identical** to decode-then-SpMV for
  every element scheme — on clean storage, after a correctable flip it
  repaired mid-product, and in its non-fused fallback;
* an uncorrectable codeword surfaces exactly like a sweep's: ``y is
  None`` with the failure in the report, and a
  :class:`DetectedUncorrectableError` out of the engine path;
* the end-of-step sweep verifies exactly the complement of fused
  coverage — matrices whose *last* access was a due fused product are
  skipped (counted in ``stats.sweeps_skipped``), while any trailing
  non-due access clears coverage so the sweep runs and nothing that was
  consumed unverified escapes;
* the fused product allocates nothing proportional to ``nnz`` once the
  persistent buffers are warm;
* ``ProtectionConfig.fused_verify`` resolves None -> on, honours
  ``REPRO_FUSED_VERIFY=0``, and a fused solve converges bit-identically
  to the classic schedule.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr.build import five_point_operator
from repro.errors import BoundsViolationError, DetectedUncorrectableError
from repro.protect.config import ProtectionConfig
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers import JacobiPreconditioner, get_method

MATRIX_SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


def make_matrix(n=12, seed=3):
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.5, 2.0, (n, n))
    ky = rng.uniform(0.5, 2.0, (n, n))
    return five_point_operator(n, n, kx, ky, 0.25)


def make_system(n=10, seed=3):
    rng = np.random.default_rng(seed)
    A = five_point_operator(
        n, n, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n)), 0.4
    )
    x_true = rng.standard_normal(A.n_rows)
    return A, A.matvec(x_true), x_true


def reference_product(pmat, x):
    """Decode-then-SpMV ground truth through the same kernel plumbing."""
    return pmat.to_csr().matvec(x)


class TestBitwiseParity:
    @pytest.mark.parametrize("scheme", MATRIX_SCHEMES)
    def test_clean_storage_matches_decode_then_spmv(self, scheme):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
        x = np.random.default_rng(7).standard_normal(matrix.n_cols)
        y, reports = pmat.spmv_verified(x)
        assert reports["row_pointer"].ok and reports["csr_elements"].ok
        assert np.array_equal(y, reference_product(pmat, x))
        assert np.array_equal(y, matrix.matvec(x))

    @pytest.mark.parametrize("scheme", ["secded64", "secded128", "crc32c"])
    def test_correctable_flip_mid_product_is_repaired(self, scheme):
        """A single-bit value flip is corrected on the product's traffic
        and the result is bitwise the clean product."""
        matrix = make_matrix(seed=5)
        pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
        x = np.random.default_rng(11).standard_normal(matrix.n_cols)
        clean = reference_product(pmat, x)
        f64_to_u64(pmat.values)[17] ^= np.uint64(1) << np.uint64(40)
        y, reports = pmat.spmv_verified(x)
        assert reports["csr_elements"].n_corrected == 1
        assert reports["csr_elements"].ok
        assert np.array_equal(y, clean)
        # storage itself was repaired, not just the product
        assert np.array_equal(reference_product(pmat, x), clean)

    def test_correctable_index_flip_regathers_window(self):
        """A flipped column index must be corrected *before* the gather —
        the cold path refills the decoded window from repaired storage."""
        matrix = make_matrix(seed=9)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        x = np.random.default_rng(13).standard_normal(matrix.n_cols)
        clean = reference_product(pmat, x)
        pmat.colidx[23] ^= np.uint32(1) << np.uint32(3)
        y, reports = pmat.spmv_verified(x)
        assert reports["csr_elements"].n_corrected == 1
        assert np.array_equal(y, clean)

    @pytest.mark.parametrize("scheme", ["secded64", "secded128"])
    def test_uncorrectable_yields_none_and_bad_report(self, scheme):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
        f64_to_u64(pmat.values)[7] ^= np.uint64(0b101) << np.uint64(30)
        y, reports = pmat.spmv_verified(np.ones(matrix.n_cols))
        assert y is None
        assert not reports["csr_elements"].ok
        assert reports["csr_elements"].n_uncorrectable >= 1

    def test_rowptr_corruption_is_checked_first(self):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        x = np.ones(matrix.n_cols)
        clean = reference_product(pmat, x)
        pmat.rowptr_protected.raw[3] ^= np.uint32(1) << np.uint32(2)
        y, reports = pmat.spmv_verified(x)
        assert reports["row_pointer"].n_corrected == 1
        assert np.array_equal(y, clean)

    def test_fallback_without_backend_matches(self):
        """The fused product on secded64 matches its two-pass equivalent —
        ``check_all()`` then ``matvec_unchecked`` — bit for bit, reports
        included."""
        matrix = make_matrix()
        x = np.random.default_rng(3).standard_normal(matrix.n_cols)
        fused = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        plain = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        assert fused.supports_fused_verify()
        y_fused, fused_reports = fused.spmv_verified(x)
        reports = plain.check_all()
        y_plain = plain.matvec_unchecked(x)
        for region, report in reports.items():
            assert report.ok and fused_reports[region].ok
            assert report.n_codewords == fused_reports[region].n_codewords
        assert np.array_equal(y_fused, y_plain)

    @pytest.mark.parametrize("correct", [True, False])
    def test_valid_codeword_with_out_of_range_index_raises(self, correct):
        """A codeword re-encoded around an out-of-range index checks clean
        but fails the window's bounds check — with or without correction
        the flagged window is re-decoded and the range-check DUE raised,
        never a product through the stale snapshot."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        pmat.colidx[23] = np.uint32(pmat.n_cols)
        pmat.elements.encode()
        assert pmat.elements.check(correct=False).ok
        with pytest.raises(BoundsViolationError):
            pmat.spmv_verified(np.ones(pmat.n_cols), correct=correct)

    def test_snapshot_refreshed_on_fused_success(self):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        pmat.invalidate_clean_views()
        pmat.spmv_verified(np.ones(pmat.n_cols))
        assert pmat._views_valid


class TestCoverageAccounting:
    def fused_engine(self, interval=4, **kw):
        config = ProtectionConfig(
            element_scheme="secded64", rowptr_scheme="secded64",
            interval=interval, fused_verify=True, **kw,
        )
        return config.engine()

    def test_due_access_counts_fused_product_and_full_check(self):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        engine = self.fused_engine(interval=2)
        x = np.ones(pmat.n_cols)
        for _ in range(4):
            engine.spmv(pmat, x)
        # accesses 0 and 2 are due -> fused; 1 and 3 ride the snapshot
        assert engine.stats.fused_products == 2
        assert engine.stats.full_checks == 2
        assert engine.stats.stripe_checks == 0
        assert engine.stats.bounds_checks == 2

    def test_finalize_skips_swept_matrix_when_covered(self):
        """Last access was a due fused product -> the sweep is redundant
        and is skipped, with the skip accounted."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        engine = self.fused_engine(interval=2)
        engine.spmv(pmat, np.ones(pmat.n_cols))  # access 0: due, fused, covered
        before = engine.stats.full_checks
        engine.finalize()
        assert engine.stats.sweeps_skipped == 1
        assert engine.stats.full_checks == before

    def test_trailing_nondue_access_clears_coverage(self):
        """Anything consumed unverified after the last fused product puts
        the sweep back — the exact complement contract."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        engine = self.fused_engine(interval=2)
        x = np.ones(pmat.n_cols)
        engine.spmv(pmat, x)  # access 0: due, fused -> covered
        engine.spmv(pmat, x)  # access 1: non-due -> coverage cleared
        before = engine.stats.full_checks
        engine.finalize()
        assert engine.stats.sweeps_skipped == 0
        assert engine.stats.full_checks == before + 1

    def test_sdc_guard_flip_consumed_by_nondue_access_is_caught(self):
        """A flip injected after the fused product and then consumed by a
        non-due access must not escape the step: coverage was cleared, so
        the end-of-step sweep runs and detects it."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        engine = self.fused_engine(interval=2, correct=False)
        x = np.ones(pmat.n_cols)
        engine.spmv(pmat, x)  # due, fused, covered
        f64_to_u64(pmat.values)[11] ^= np.uint64(1) << np.uint64(13)
        engine.spmv(pmat, x)  # non-due: consumes the flipped value
        with pytest.raises(DetectedUncorrectableError):
            engine.finalize()

    def test_uncovered_scheme_still_sweeps(self):
        """Non-fusible schemes never earn coverage even with the knob on."""
        pmat = ProtectedCSRMatrix(make_matrix(), "sed", "sed")
        engine = self.fused_engine(interval=2, correct=False)
        engine.spmv(pmat, np.ones(pmat.n_cols))
        f64_to_u64(pmat.values)[11] ^= np.uint64(1) << np.uint64(13)
        with pytest.raises(DetectedUncorrectableError):
            engine.finalize()
        assert engine.stats.fused_products == 0

    def test_engine_fused_due_detects_uncorrectable(self):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        engine = self.fused_engine(interval=1, correct=False)
        f64_to_u64(pmat.values)[7] ^= np.uint64(0b11) << np.uint64(25)
        with pytest.raises(DetectedUncorrectableError):
            engine.spmv(pmat, np.ones(pmat.n_cols))


class TestConfigResolution:
    def test_none_resolves_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_VERIFY", raising=False)
        assert ProtectionConfig().resolved_fused_verify() is True

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "0")
        assert ProtectionConfig().resolved_fused_verify() is False
        # explicit True overrides the environment
        assert ProtectionConfig(fused_verify=True).resolved_fused_verify() is True

    def test_explicit_false_sticks(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_VERIFY", raising=False)
        config = ProtectionConfig(fused_verify=False)
        assert config.resolved_fused_verify() is False
        assert config.policy().fused_verify is False

    def test_policy_receives_resolved_value(self):
        assert ProtectionConfig(fused_verify=True).policy().fused_verify is True

    def test_serve_spec_round_trip(self):
        import dataclasses

        from repro.serve.jobs import protection_from_spec

        config = ProtectionConfig(fused_verify=True)
        spec = dataclasses.asdict(config)
        assert spec["fused_verify"] is True
        assert protection_from_spec(spec) == config


class TestSolverIntegration:
    def test_fused_solve_matches_classic_bitwise(self):
        A, b, x_true = make_system()
        runs = {}
        for fused in (False, True):
            config = ProtectionConfig(
                element_scheme="secded64", rowptr_scheme="secded64",
                vector_scheme="secded64", interval=16, correct=False,
                fused_verify=fused,
            )
            pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
            result = get_method("cg").protected(pmat, b, engine=config.engine())
            runs[fused] = result
        assert runs[True].iterations == runs[False].iterations
        assert np.array_equal(runs[True].x, runs[False].x)
        assert runs[True].info["fused_products"] > 0
        assert runs[False].info["fused_products"] == 0
        assert np.allclose(runs[True].x, x_true, atol=1e-7)

    @pytest.mark.parametrize("method", ["cg", "jacobi", "chebyshev", "ppcg", "cg+jacobi"])
    def test_every_protected_method_converges_fused(self, method):
        A, b, x_true = make_system()
        method, _, preconditioned = method.partition("+")
        extras = ({"preconditioner": JacobiPreconditioner(A.diagonal())}
                  if preconditioned else {})
        config = ProtectionConfig(
            element_scheme="secded64", rowptr_scheme="secded64",
            vector_scheme="secded64", interval=8, fused_verify=True,
        )
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        result = get_method(method).protected(
            pmat, b, engine=config.engine(), max_iters=20_000, **extras,
        )
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)
        assert result.info["fused_products"] > 0


class TestAllocationBounds:
    def test_fused_product_is_allocation_free_when_warm(self):
        """After the first product warms the persistent buffers, a fused
        verified product with a caller-held ``out`` allocates no
        nnz-proportional temporaries."""
        matrix = make_matrix(n=40)  # nnz ~ 7800; chunk-sized noise is fine
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        x = np.random.default_rng(0).standard_normal(matrix.n_cols)
        out = np.empty(pmat.n_rows)
        pmat.spmv_verified(x, out=out)  # warm everything
        tracemalloc.start()
        for _ in range(3):
            y, reports = pmat.spmv_verified(x, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert y is out and reports["csr_elements"].ok
        # 8 bytes/nnz would be one nnz-sized temporary; stay well under.
        assert peak < pmat.nnz * 8 / 2, f"peak {peak} bytes"

    def test_engine_nondue_product_is_allocation_free_with_out(self):
        pmat = ProtectedCSRMatrix(make_matrix(n=40), "secded64", "secded64")
        config = ProtectionConfig(
            element_scheme="secded64", rowptr_scheme="secded64",
            interval=64, fused_verify=True,
        )
        engine = config.engine()
        # A vector, then a block: the operand's rank only sizes scratch.
        for lead in ((), (4,)):
            x = np.random.default_rng(1).standard_normal(lead + (pmat.n_cols,))
            out = np.empty(lead + (pmat.n_rows,))
            engine.policy.reset()
            engine.spmv(pmat, x, out=out)  # due: warms fused buffers
            engine.spmv(pmat, x, out=out)  # non-due: warms snapshot path
            tracemalloc.start()
            for _ in range(3):
                engine.spmv(pmat, x, out=out)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < pmat.nnz * 8 / 2, f"{lead}: peak {peak} bytes"
