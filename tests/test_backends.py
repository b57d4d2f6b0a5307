"""Chunked-kernel parity, allocation bounds, striping, snapshot validation.

Three contracts pinned here:

* the chunked SECDED kernels compute bit-identical syndromes/encodes to
  the direct (unchunked) formulas, and the unchecked product is the
  reference CSR SpMV;
* a full SECDED matrix check allocates no temporaries proportional to
  nnz — the persistent lane buffers and scratch do the work;
* striped verification detects an injected flip within
  ``interval * n_stripes`` matrix accesses, for every scheme.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.bits.popcount import parity64
from repro.csr.build import five_point_operator
from repro.csr.spmv import spmv
from repro.ecc.profiles import csr_element_secded, vector_secded128
from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.protect.config import ProtectionConfig
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.protect.vector import ProtectedVector


def make_matrix(n=12, seed=3):
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.5, 2.0, (n, n))
    ky = rng.uniform(0.5, 2.0, (n, n))
    return five_point_operator(n, n, kx, ky, 0.25)


def encoded_lanes(code, n=257, seed=0):
    rng = np.random.default_rng(seed)
    lanes = rng.integers(0, 2**63, (n, code.n_lanes), dtype=np.uint64)
    lanes &= code._all_mask  # zero the padding outside the codeword
    code.encode(lanes)
    return lanes


class TestFusedKernelParity:
    """The chunked kernels equal the direct formulas, bit for bit."""

    @pytest.mark.parametrize("factory", [csr_element_secded, vector_secded128])
    def test_syndrome_matches_direct_formula(self, factory):
        code = factory()
        lanes = encoded_lanes(code, n=3 * code.scratch.chunk // 2 + 7)
        # Corrupt a scattering of codewords so syndromes are nonzero too.
        lanes[5, 0] ^= np.uint64(1) << np.uint64(33)
        lanes[-1, code.n_lanes - 1] ^= np.uint64(1)
        syn, ptot = code.syndrome(lanes)
        m = code.n_syndrome_bits
        expect_syn = np.zeros(lanes.shape[0], dtype=np.uint16)
        for j in range(m):
            sj = parity64(np.bitwise_xor.reduce(lanes & code._full_masks[j], axis=-1))
            expect_syn |= sj.astype(np.uint16) << np.uint16(j)
        expect_p = parity64(np.bitwise_xor.reduce(lanes & code._all_mask, axis=-1))
        assert np.array_equal(syn, expect_syn)
        assert np.array_equal(ptot, expect_p)

    @pytest.mark.parametrize("factory", [csr_element_secded, vector_secded128])
    def test_scan_counts_exactly_the_detect_flags(self, factory):
        code = factory()
        lanes = encoded_lanes(code, n=501, seed=7)
        assert code.scan(lanes) == 0
        rng = np.random.default_rng(8)
        hits = rng.choice(501, size=9, replace=False)
        for i in hits:
            lanes[i, 0] ^= np.uint64(1) << np.uint64(rng.integers(0, 60))
        assert code.scan(lanes) == int(code.detect(lanes).sum())

    def test_encode_spans_chunk_boundaries(self):
        code = csr_element_secded()
        chunk = code.scratch.chunk
        lanes = encoded_lanes(code, n=chunk + 3, seed=11)
        assert code.scan(lanes) == 0  # valid across the chunk seam

    def test_backend_spmv_matches_reference(self):
        """The unchecked protected product is the reference CSR SpMV over
        the decoded arrays, for the null codec and for secded64."""
        matrix = make_matrix()
        x = np.random.default_rng(5).standard_normal(matrix.n_cols)
        for scheme in (None, "secded64"):
            pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
            dec = pmat.to_csr()
            expect = spmv(dec.values, dec.colidx, dec.rowptr, x, dec.n_rows)
            assert np.array_equal(pmat.matvec_unchecked(x), expect)


class TestAllocationFreeChecks:
    def test_persistent_lane_buffer_identity(self):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")

        def buffer(region):
            return region._store.segments[0].layout.buffer

        pmat.check_all(correct=False)
        buf1 = buffer(pmat.elements)
        assert buf1 is not None
        pmat.check_all(correct=False)
        assert buffer(pmat.elements) is buf1
        rp1 = buffer(pmat.rowptr_protected)
        pmat.check_all(correct=True)
        assert buffer(pmat.rowptr_protected) is rp1
        assert buffer(pmat.elements) is buf1

    def test_clean_matrix_check_allocates_no_nnz_temporaries(self):
        """The acceptance bound: a full SECDED check is allocation-free.

        After one warm-up check (which builds the persistent buffers),
        every later clean check may allocate only O(chunk)-sized
        scratch — far below the nnz-proportional arrays the old path
        materialised per check.
        """
        pmat = ProtectedCSRMatrix(make_matrix(n=48), "secded64", "secded64")
        nnz_bytes = pmat.nnz * 16  # the old (nnz, 2)-uint64 temporary
        pmat.check_all(correct=False)  # warm: builds lane buffers
        pmat.clean_views()
        tracemalloc.start()
        pmat.check_all(correct=False)
        pmat.clean_views()  # snapshot refresh is in-place too
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert pmat.nnz > 10_000  # the bound below must be meaningful
        assert peak < nnz_bytes / 8

    def test_warm_stacked_checks_allocate_no_bounce_buffers(self):
        """A warm vector check and a warm row-pointer check stay small.

        The stacked syndrome pass broadcasts only through ``np.copyto``;
        a ufunc handed a broadcast or strided operand would allocate a
        bounce buffer per call, several kilobytes even at these sizes.
        """
        n = 2304
        vec = ProtectedVector(np.linspace(0.0, 1.0, n), "secded64")
        pmat = ProtectedCSRMatrix(make_matrix(n=48), "secded64", "secded64")
        assert pmat.rowptr.size == n + 1
        for check in (vec.check, pmat.rowptr_protected.check):
            check()
            check()
            tracemalloc.start()
            for _ in range(3):
                report = check()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert report.ok
            assert peak < n * 8 / 2, f"peak {peak} bytes"

    def test_clean_vector_check_is_compact(self):
        vec = ProtectedVector(np.linspace(0.0, 1.0, 1024), "secded64")
        report = vec.check(correct=False)
        assert report._status is None  # compact all-OK form
        assert report.ok and report.n_codewords == 1024
        # materialises lazily, and correctly
        assert report.status.shape == (1024,)
        assert not report.status.any()


MATRIX_SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


class TestStripedVerification:
    @pytest.mark.parametrize("scheme", MATRIX_SCHEMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flip_detected_within_interval_times_stripes(self, scheme, seed):
        """Property: full coverage every interval * n_stripes accesses."""
        interval, n_stripes = 3, 4
        matrix = make_matrix(seed=seed)
        pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
        config = ProtectionConfig(
            element_scheme=scheme, rowptr_scheme=scheme,
            interval=interval, correct=False, stripes=n_stripes,
            fused_verify=False,  # this test exercises the striped sweep path
        )
        engine = config.engine()
        x = np.ones(matrix.n_cols)
        engine.spmv(pmat, x)  # access 0 checks stripe 0, clean
        rng = np.random.default_rng(seed + 100)
        flip_at = int(rng.integers(0, pmat.nnz))
        f64_to_u64(pmat.values)[flip_at] ^= np.uint64(1) << np.uint64(21)
        detected = None
        for access in range(1, interval * n_stripes + 1):
            try:
                engine.spmv(pmat, x)
            except DetectedUncorrectableError:
                detected = access
                break
        assert detected is not None
        assert detected <= interval * n_stripes
        assert engine.stats.stripe_checks > 0

    def test_stripe_reports_carry_absolute_indices(self):
        """A flip in a late stripe is reported at its real codeword index."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        n_stripes = 4
        target = pmat.nnz - 2  # lands in the last stripe
        # double flip -> uncorrectable under secded64
        f64_to_u64(pmat.values)[target] ^= np.uint64(0b11) << np.uint64(30)
        k = (target * n_stripes) // pmat.nnz
        report = pmat.check_stripe(k, n_stripes, correct=False)["csr_elements"]
        assert report.uncorrectable_indices().tolist() == [target]

    def test_stripe_union_covers_every_codeword(self):
        """check_stripe over a full rotation equals one check_all."""
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        n_stripes = 5
        total = {"csr_elements": 0, "row_pointer": 0}
        for k in range(n_stripes):
            reports = pmat.check_stripe(k, n_stripes, correct=False)
            for region, report in reports.items():
                total[region] += report.n_codewords
        assert total["csr_elements"] == pmat.elements.n_codewords
        assert total["row_pointer"] == pmat.rowptr_protected.n_codewords

    @pytest.mark.parametrize("scheme", MATRIX_SCHEMES)
    def test_stripe_rotation_localises_rowptr_flip(self, scheme):
        """A row-pointer flip is caught by exactly one stripe of the rotation."""
        pmat = ProtectedCSRMatrix(make_matrix(), scheme, scheme)
        pmat.rowptr_protected.raw[7] ^= np.uint32(1) << np.uint32(5)
        n_stripes = 3
        bad_stripes = [
            k for k in range(n_stripes)
            if not pmat.check_stripe(k, n_stripes, correct=False)["row_pointer"].ok
        ]
        assert len(bad_stripes) == 1

    def test_finalize_sweep_is_always_full(self):
        """The end-of-step sweep ignores striping: nothing escapes it."""
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        config = ProtectionConfig(
            element_scheme="secded64", rowptr_scheme="secded64",
            interval=1000, correct=False, stripes=8,
            fused_verify=False,  # fused coverage would legitimately skip it
        )
        engine = config.engine()
        engine.spmv(pmat, np.ones(matrix.n_cols))
        f64_to_u64(pmat.values)[11] ^= np.uint64(1) << np.uint64(13)
        with pytest.raises(DetectedUncorrectableError):
            engine.finalize()

    def test_eager_kernel_path_honours_stripes(self):
        """The every-access schedule (``interval=1``) rotates through stripes.

        A due access verifies one stripe, so a flip is caught within one
        rotation; a forced sweep is always full.
        """
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        engine = DeferredVerificationEngine(
            CheckPolicy(interval=1, correct=False, stripes=4)
        )
        x = np.ones(matrix.n_cols)
        for _ in range(8):  # two full rotations of due accesses
            engine.spmv(pmat, x)
        assert engine.stats.stripe_checks == 8
        assert engine.stats.full_checks == 0
        f64_to_u64(pmat.values)[5] ^= np.uint64(1) << np.uint64(9)
        with pytest.raises(DetectedUncorrectableError):
            for _ in range(4):  # at most one rotation until the stripe hits
                engine.spmv(pmat, x)
        with pytest.raises(DetectedUncorrectableError):
            engine.verify_matrix(pmat)  # a forced sweep is always full
        assert engine.stats.full_checks == 1

    def test_policy_rejects_bad_stripes(self):
        with pytest.raises(ValueError):
            CheckPolicy(stripes=0)
        with pytest.raises(ConfigurationError):
            ProtectionConfig(stripes=0)


class TestSnapshotValidation:
    def test_nondue_access_skips_decode_but_stays_guarded(self):
        """Non-due SpMVs gather via the validated snapshot: same results,
        bounds_checks now counts snapshot-guarded accesses."""
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        policy = CheckPolicy(interval=4, correct=False)
        engine = ProtectionConfig.deferred(window=4).engine()
        engine.policy = policy
        x = np.random.default_rng(2).standard_normal(matrix.n_cols)
        expect = matrix.matvec(x)
        for _ in range(6):
            assert np.allclose(engine.spmv(pmat, x), expect)
        assert policy.stats.bounds_checks == 4  # accesses 1..3, 5

    def test_out_of_range_index_raises_at_snapshot_rebuild(self):
        """The documented exception-surface change: a raw out-of-range
        index surfaces as BoundsViolationError when the snapshot is next
        populated, not on intermediate snapshot-guarded accesses."""
        from repro.errors import BoundsViolationError

        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, None, None)  # unprotected regions
        x = np.ones(matrix.n_cols)
        pmat.matvec_unchecked(x)
        pmat.colidx[3] = np.uint32(10_000)  # way past n_cols
        pmat.matvec_unchecked(x)  # cached snapshot: no raise, no fault
        pmat.invalidate_clean_views()
        with pytest.raises(BoundsViolationError):
            pmat.matvec_unchecked(x)
