"""ProtectedCSRMatrix, CheckPolicy and engine-scheduled products."""

import itertools

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.csr.matrix import CSRMatrix
from repro.csr.spmv import _row_blocks
from repro.errors import BoundsViolationError, DetectedUncorrectableError
from repro.protect import (
    CheckPolicy,
    DeferredVerificationEngine,
    ProtectedCSRMatrix,
    ProtectedVector,
)
from repro.protect import matrix as matrix_module

ELEMENT = ["sed", "secded64", "secded128", "crc32c"]
ROWPTR = ["sed", "secded64", "secded128", "crc32c"]


def make_matrix(nx=6, ny=5, seed=0):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        nx, ny, rng.uniform(0.5, 2.0, (ny, nx)), rng.uniform(0.5, 2.0, (ny, nx)), 0.3
    )


class TestCombinations:
    @pytest.mark.parametrize("es,rs", list(itertools.product(ELEMENT, ROWPTR)))
    def test_all_mixes_spmv_exact(self, es, rs):
        """Every element x rowptr mix reproduces the unprotected SpMV bit-exactly."""
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, es, rs)
        x = np.random.default_rng(1).standard_normal(op.n_cols)
        assert np.array_equal(prot.matvec_unchecked(x), op.matvec(x))

    def test_to_csr_roundtrip(self):
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, "secded64", "crc32c")
        back = prot.to_csr()
        assert np.array_equal(back.values, op.values)
        assert np.array_equal(back.colidx, op.colidx)
        assert np.array_equal(back.rowptr, op.rowptr)

    def test_source_matrix_untouched(self):
        op = make_matrix()
        vals0, idx0, ptr0 = op.values.copy(), op.colidx.copy(), op.rowptr.copy()
        ProtectedCSRMatrix(op, "crc32c", "crc32c")
        assert np.array_equal(op.values, vals0)
        assert np.array_equal(op.colidx, idx0)
        assert np.array_equal(op.rowptr, ptr0)


class TestChecks:
    def test_check_all_clean(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        reports = prot.check_all()
        assert reports["csr_elements"].clean
        assert reports["row_pointer"].clean
        assert not prot.detect_any()

    def test_element_corruption_detected_and_corrected(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        f64_to_u64(prot.values)[10] ^= np.uint64(1) << np.uint64(30)
        assert prot.detect_any()
        reports = prot.check_all()
        assert reports["csr_elements"].n_corrected == 1
        assert not prot.detect_any()

    def test_rowptr_corruption_detected(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        prot.rowptr[4] ^= np.uint32(4)
        reports = prot.check_all()
        assert reports["row_pointer"].n_corrected == 1

    def test_verify_matrix_raises_with_region_name(self):
        prot = ProtectedCSRMatrix(make_matrix(), "sed", "sed")
        engine = DeferredVerificationEngine()
        engine.register(prot, "matrix")
        prot.values[3] = 99.0  # SED detects, cannot correct
        with pytest.raises(DetectedUncorrectableError) as err:
            engine.verify_matrix(prot)
        assert err.value.region == "matrix:csr_elements"

    def test_bounds_check_passes_clean(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        prot.bounds_check()  # no raise

    def test_bounds_check_catches_huge_colidx(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        prot.colidx[7] = (prot.colidx[7] & np.uint32(0xFF000000)) | np.uint32(
            0x00FFFFFF
        )
        with pytest.raises(BoundsViolationError):
            prot.bounds_check()

    def test_bounds_check_catches_rowptr_overflow(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        prot.rowptr[3] = np.uint32(0x0FFFFFFF)
        with pytest.raises(BoundsViolationError):
            prot.bounds_check()

    def test_bounds_check_catches_non_monotone_rowptr(self):
        prot = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        clean = prot.rowptr_protected.clean()
        prot.rowptr[5] = clean[7]
        prot.rowptr[7] = clean[5]
        with pytest.raises(BoundsViolationError):
            prot.bounds_check()


class TestPolicy:
    def test_interval_one_checks_every_access(self):
        policy = CheckPolicy(interval=1)
        assert all(policy.should_check() for _ in range(5))

    def test_interval_n_pattern(self):
        policy = CheckPolicy(interval=4)
        pattern = [policy.should_check() for _ in range(9)]
        assert pattern == [True, False, False, False, True, False, False, False, True]

    def test_interval_zero_never_checks(self):
        policy = CheckPolicy(interval=0)
        assert not any(policy.should_check() for _ in range(5))
        assert not policy.end_of_step()

    def test_end_of_step_required_only_with_deferral(self):
        assert not CheckPolicy(interval=1).end_of_step()
        assert CheckPolicy(interval=8).end_of_step()

    def test_reset_restarts_phase(self):
        policy = CheckPolicy(interval=3)
        policy.should_check()
        policy.should_check()
        policy.reset()
        assert policy.should_check()

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckPolicy(interval=-1)


class TestKernels:
    def test_spmv_counts_checks(self):
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, "secded64", "secded64")
        engine = DeferredVerificationEngine(CheckPolicy(interval=2))
        x = np.ones(op.n_cols)
        for _ in range(6):
            engine.spmv(prot, x)
        assert engine.stats.full_checks == 3
        assert engine.stats.bounds_checks == 3

    def test_spmv_corrects_and_matches(self):
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, "secded64", "secded64")
        x = np.random.default_rng(2).standard_normal(op.n_cols)
        expected = op.matvec(x)
        f64_to_u64(prot.values)[8] ^= np.uint64(1) << np.uint64(44)
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=True))
        got = engine.spmv(prot, x)
        assert np.array_equal(got, expected)
        assert engine.stats.corrected == 1

    def test_spmv_raises_on_due(self):
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, "sed", "sed")
        prot.values[0] = 123.0
        engine = DeferredVerificationEngine(CheckPolicy(interval=1))
        with pytest.raises(DetectedUncorrectableError):
            engine.spmv(prot, np.ones(op.n_cols))

    def test_spmv_with_protected_vector(self):
        op = make_matrix()
        prot = ProtectedCSRMatrix(op, "secded64", "secded64")
        xv = np.random.default_rng(3).standard_normal(op.n_cols)
        px = ProtectedVector(xv, "secded64")
        got = DeferredVerificationEngine().spmv(prot, px)
        assert np.allclose(got, op.matvec(xv), rtol=1e-12)

    def test_protected_dot_and_axpy(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        pa = ProtectedVector(a, "secded64")
        pb = ProtectedVector(b, "secded64")
        engine = DeferredVerificationEngine()
        # Decode-free operands, whole-codeword commit of the result.
        got = np.dot(engine.read(pa), engine.read(pb))
        assert got == np.dot(pa.values(), pb.values())
        expected = 2.5 * pa.values() + pb.values()
        engine.write(pb, 2.5 * engine.read(pa) + engine.read(pb))
        # Stored result is the masked version of `expected`.
        assert np.allclose(pb.values(), expected, rtol=1e-12)
        assert pb.check().clean

    def test_axpy_raises_on_corrupt_input(self):
        pa = ProtectedVector(np.ones(8), "sed")
        pb = ProtectedVector(np.ones(8), "sed")
        engine = DeferredVerificationEngine()
        engine.read(pa)  # populates (and verifies) the plain cache
        f64_to_u64(pa.raw)[2] ^= np.uint64(1) << np.uint64(20)
        # Reads are served from the cache, so the flip is never consumed;
        # it sits in raw storage until the next scheduled check finds it.
        engine.write(pb, 1.0 * engine.read(pa) + engine.read(pb))
        assert np.array_equal(pb.values(), np.full(8, 2.0))
        with pytest.raises(DetectedUncorrectableError):
            engine.begin_iteration()


def regrouped(matrix):
    """``matrix`` with rows 3 and 4 regrouped: same arrays and nnz, but
    the first entry of row 4 moves to the end of row 3."""
    rowptr = matrix.rowptr.copy()
    rowptr[4] += 1
    return CSRMatrix(matrix.values.copy(), matrix.colidx.copy(), rowptr, matrix.shape)


class TestRowPlanReuse:
    """A due product re-derives the row plan only when the row pointer moved."""

    @pytest.fixture
    def plans(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _row_blocks(*args, **kwargs)

        monkeypatch.setattr(matrix_module, "_row_blocks", counting)
        return calls

    def test_repeated_due_products_derive_the_plan_once(self, plans):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        x = np.random.default_rng(2).standard_normal(pmat.n_cols)
        for _ in range(4):
            y, reports = pmat.spmv_verified(x)
            assert all(r.ok for r in reports.values())
        pmat.check_all()
        pmat.invalidate_clean_views()
        pmat.matvec_unchecked(x)
        assert len(plans) == 1

    def test_reencode_with_a_new_row_pointer_rederives(self, plans):
        source = make_matrix()
        other = regrouped(source)
        assert other.nnz == source.nnz
        assert not np.array_equal(other.rowptr, source.rowptr)
        pmat = ProtectedCSRMatrix(source, "secded64", "secded64")
        x = np.random.default_rng(3).standard_normal(pmat.n_cols)
        pmat.spmv_verified(x)
        pmat.reencode_from(other)
        y, _ = pmat.spmv_verified(x)
        assert len(plans) == 2
        fresh, _ = ProtectedCSRMatrix(other, "secded64", "secded64").spmv_verified(x)
        assert y.tobytes() == fresh.tobytes()
        assert y.tobytes() == other.matvec(x).tobytes()

    def test_corrected_row_pointer_flip_keeps_the_clean_product(self, plans):
        pmat = ProtectedCSRMatrix(make_matrix(), "secded64", "secded64")
        x = np.random.default_rng(4).standard_normal(pmat.n_cols)
        clean, _ = pmat.spmv_verified(x)
        clean = clean.copy()
        pmat.rowptr[7] ^= np.uint32(1 << 2)
        y, reports = pmat.spmv_verified(x)
        assert reports["row_pointer"].n_corrected == 1
        assert y.tobytes() == clean.tobytes()
        assert len(plans) == 1
