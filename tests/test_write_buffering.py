"""Write-buffering semantics (paper §VI.C) and cross-region scenarios.

The §VI.C claim: committing whole codewords per write (a) needs exactly
one ECC calculation per write, (b) never needs a read-modify-write, and
(c) avoids races because no two writers share a codeword.  These tests
pin the observable halves of that contract: stores are oblivious to the
previous stored state, and partial-codeword information never leaks.
"""

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.errors import DetectedUncorrectableError
from repro.protect import (
    CheckPolicy,
    DeferredVerificationEngine,
    ProtectedCSRMatrix,
    ProtectedVector,
)


class TestStoreIsStateOblivious:
    @pytest.mark.parametrize("scheme", ["sed", "secded64", "secded128", "crc32c"])
    def test_store_result_independent_of_previous_content(self, scheme):
        """store(v) produces identical stored bits regardless of history —
        the no-read-modify-write property."""
        rng = np.random.default_rng(0)
        target = rng.standard_normal(64)
        a = ProtectedVector(rng.standard_normal(64), scheme)
        b = ProtectedVector(np.zeros(64), scheme)
        a.store(target)
        b.store(target)
        assert np.array_equal(f64_to_u64(a.raw), f64_to_u64(b.raw))

    @pytest.mark.parametrize("scheme", ["secded64", "crc32c"])
    def test_store_overwrites_corruption(self, scheme):
        """A full-codeword write needs no valid previous state: storing
        over corrupted memory yields a clean codeword."""
        rng = np.random.default_rng(1)
        vec = ProtectedVector(rng.standard_normal(64), scheme)
        f64_to_u64(vec.raw)[5] ^= np.uint64(1) << np.uint64(30)  # corrupt
        vec.store(rng.standard_normal(64))  # write without reading
        assert not vec.detect().any()


class TestCrossRegionScenarios:
    def test_simultaneous_faults_in_all_regions(self):
        rng = np.random.default_rng(2)
        A = five_point_operator(
            8, 8, rng.uniform(0.5, 2.0, (8, 8)), rng.uniform(0.5, 2.0, (8, 8)), 0.3
        )
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        f64_to_u64(pmat.values)[3] ^= np.uint64(1) << np.uint64(12)
        pmat.colidx[40] ^= np.uint32(1) << np.uint32(4)
        pmat.rowptr[7] ^= np.uint32(1) << np.uint32(2)
        reports = pmat.check_all()
        total = sum(r.n_corrected for r in reports.values())
        assert total == 3
        assert not pmat.detect_any()

    def test_spmv_with_corrupt_vector_and_matrix(self):
        rng = np.random.default_rng(3)
        A = five_point_operator(
            8, 8, rng.uniform(0.5, 2.0, (8, 8)), rng.uniform(0.5, 2.0, (8, 8)), 0.3
        )
        x = rng.standard_normal(A.n_cols)
        expected = A.matvec(x)
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        px = ProtectedVector(x, "secded64")
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=True))
        engine.read(px)  # the operand's cache is populated and verified
        f64_to_u64(pmat.values)[10] ^= np.uint64(1) << np.uint64(3)
        f64_to_u64(px.raw)[10] ^= np.uint64(1) << np.uint64(3)
        got = engine.spmv(pmat, px)
        assert np.allclose(got, expected, rtol=1e-12)
        assert engine.stats.corrected == 1  # the matrix flip, at the due access
        # The vector flip was never consumed (reads come from the cache);
        # the next scheduled vector check corrects it.
        engine.begin_iteration()
        assert engine.stats.corrected == 2
        assert px.check().clean

    def test_mixed_schemes_mixed_outcomes(self):
        """SED rowptr (detect-only) + SECDED elements (correcting)."""
        rng = np.random.default_rng(4)
        A = five_point_operator(
            8, 8, rng.uniform(0.5, 2.0, (8, 8)), rng.uniform(0.5, 2.0, (8, 8)), 0.3
        )
        pmat = ProtectedCSRMatrix(A, "secded64", "sed")
        f64_to_u64(pmat.values)[3] ^= np.uint64(1) << np.uint64(12)
        pmat.rowptr[7] ^= np.uint32(1) << np.uint32(2)
        reports = pmat.check_all()
        assert reports["csr_elements"].n_corrected == 1
        assert reports["row_pointer"].n_uncorrectable == 1

    def test_axpy_chain_keeps_vectors_clean(self):
        rng = np.random.default_rng(5)
        x = ProtectedVector(rng.standard_normal(32), "crc32c")
        y = ProtectedVector(rng.standard_normal(32), "crc32c")
        engine = DeferredVerificationEngine()
        for alpha in (0.5, -1.25, 3.0):
            engine.write(y, alpha * engine.read(x) + engine.read(y))
            assert y.check().clean

    def test_due_aborts_before_bad_data_used(self):
        """SpMV must raise before producing results from corrupt indices."""
        rng = np.random.default_rng(6)
        A = five_point_operator(
            8, 8, rng.uniform(0.5, 2.0, (8, 8)), rng.uniform(0.5, 2.0, (8, 8)), 0.3
        )
        pmat = ProtectedCSRMatrix(A, "sed", "sed")
        pmat.colidx[0] ^= np.uint32(1) << np.uint32(2)
        engine = DeferredVerificationEngine(CheckPolicy(interval=1))
        with pytest.raises(DetectedUncorrectableError):
            engine.spmv(pmat, np.ones(A.n_cols))
