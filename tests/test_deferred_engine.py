"""Deferred-verification engine: dirty windows, amortised checks, guarantees.

The engine's contract (ISSUE 1): dirty-window stores re-encode exactly
the lanes they touch; reads between scheduled checks are decode-free
cached views; and a bit flip injected during a deferral window is still
detected (or corrected) at the next scheduled check — never silently
consumed past the end-of-step sweep.
"""

import dataclasses

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
from repro.solvers.cg import protected_cg_run
from repro.solvers.ppcg import ppcg_solve, protected_ppcg_run

SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


def make_matrix(n=8, seed=2):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        n, n, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n)), 0.3
    )


class TestPolicyScheduler:
    def test_vector_interval_defaults_to_matrix_interval(self):
        assert CheckPolicy(interval=8).vector_interval == 8
        assert CheckPolicy(interval=1).vector_interval == 1
        # Matrix checks off is a baseline mode; vectors keep their checks.
        assert CheckPolicy(interval=0).vector_interval == 1

    def test_defer_writes_follows_vector_interval(self):
        assert not CheckPolicy(interval=1).defer_writes
        assert CheckPolicy(interval=8).defer_writes
        assert not CheckPolicy(interval=8, defer_writes=False).defer_writes
        assert CheckPolicy(interval=1, defer_writes=True).defer_writes

    def test_vector_check_cadence(self):
        policy = CheckPolicy(interval=1, vector_interval=3)
        pattern = [policy.vector_check_due() for _ in range(7)]
        assert pattern == [True, False, False, True, False, False, True]

    def test_independent_counters(self):
        policy = CheckPolicy(interval=2, vector_interval=3)
        assert policy.should_check() and policy.vector_check_due()
        assert not policy.should_check()
        assert not policy.vector_check_due()
        policy.reset()
        assert policy.should_check() and policy.vector_check_due()

    def test_end_of_step_with_any_deferral(self):
        assert not CheckPolicy(interval=1).end_of_step()
        assert CheckPolicy(interval=8).end_of_step()
        assert CheckPolicy(interval=1, vector_interval=4).end_of_step()
        assert CheckPolicy(interval=1, defer_writes=True).end_of_step()

    def test_stats_reset_covers_new_counters(self):
        policy = CheckPolicy()
        policy.stats.cached_reads = 5
        policy.stats.dirty_flushes = 2
        policy.stats.reset()
        assert policy.stats.cached_reads == 0
        assert policy.stats.dirty_flushes == 0


class TestDirtyWindowStore:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [64, 67])
    def test_windowed_store_matches_reference(self, scheme, n):
        """Re-encoding only the window's lanes yields the same bits as a
        fresh whole-vector encode of the same contents."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal(n)
        new = rng.standard_normal(n)
        vec = ProtectedVector(base, scheme)
        vec.store(new, window=(3, 9))
        ref_vals = base.copy()
        ref_vals[3:9] = new[3:9]
        ref = ProtectedVector(ref_vals, scheme)
        assert np.array_equal(f64_to_u64(vec.raw), f64_to_u64(ref.raw))
        assert vec.check().clean

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_deferred_store_flush_is_bitwise_equal_to_eager(self, scheme):
        rng = np.random.default_rng(1)
        base, new = rng.standard_normal(67), rng.standard_normal(67)
        eager = ProtectedVector(base, scheme)
        eager.store(new)
        deferred = ProtectedVector(base, scheme)
        deferred.store(new, defer=True)
        assert deferred.dirty_window == (0, 67)
        # The buffered values are readable decode-free before the flush.
        assert np.array_equal(deferred.view(), new)
        assert np.array_equal(deferred.values(), new)
        deferred.flush()
        assert deferred.dirty_window is None
        assert np.array_equal(f64_to_u64(deferred.raw), f64_to_u64(eager.raw))

    @pytest.mark.parametrize("scheme", ["secded128", "crc32c"])
    def test_deferred_windows_accumulate(self, scheme):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(32)
        vec = ProtectedVector(base, scheme)
        vec.store(np.ones(3), window=(2, 5), defer=True)
        vec.store(np.full(4, 2.0), window=(9, 13), defer=True)
        assert vec.dirty_window == (2, 13)
        vec.flush()
        expected = base.copy()
        expected[2:5] = 1.0
        expected[9:13] = 2.0
        assert np.allclose(vec.values(), expected, atol=1e-12)
        assert vec.check().clean

    @pytest.mark.parametrize("scheme", ["secded64", "crc32c"])
    def test_tail_window_store(self, scheme):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(67)  # tail of 67 % group elements
        vec = ProtectedVector(base, scheme)
        vec.store(np.full(3, 7.0), window=(64, 67))
        assert vec.check().clean
        assert np.allclose(vec.values()[64:], 7.0, atol=1e-12)

    def test_check_flushes_pending_window(self):
        vec = ProtectedVector(np.zeros(16), "secded64")
        vec.store(np.ones(16), defer=True)
        assert vec.check().clean          # flushed, encoded, verified
        assert vec.dirty_window is None
        assert np.allclose(vec.values(), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        ("scheme", "flip_idx", "window"),
        [("secded128", 1, (0, 1)), ("crc32c", 3, (0, 2))],
    )
    def test_partial_window_store_cannot_launder_lane_mate_flip(
        self, scheme, flip_idx, window
    ):
        """A flip in an unwritten lane-mate must not be re-blessed into a
        valid codeword by a partial-window re-encode (eager or deferred)."""
        vec = ProtectedVector(np.zeros(8), scheme)
        f64_to_u64(vec.raw)[flip_idx] ^= np.uint64(1) << np.uint64(40)
        with pytest.raises(DetectedUncorrectableError):
            vec.store(np.ones(window[1] - window[0]), window=window)
        vec2 = ProtectedVector(np.zeros(8), scheme)
        f64_to_u64(vec2.raw)[flip_idx] ^= np.uint64(1) << np.uint64(40)
        with pytest.raises(DetectedUncorrectableError):
            vec2.store(np.ones(window[1] - window[0]), window=window, defer=True)

    def test_cache_population_verifies_lineage(self):
        """view() must not silently seed the trusted cache from corrupted
        storage — detection happens at population time."""
        vec = ProtectedVector(np.zeros(16), "secded64")
        f64_to_u64(vec.raw)[3] ^= np.uint64(1) << np.uint64(40)
        with pytest.raises(DetectedUncorrectableError):
            vec.view()

    def test_flip_inside_dirty_window_is_dead_storage(self):
        """A flip landing in a lane the buffered write will overwrite is
        harmless: flush commits the authoritative cached values."""
        vec = ProtectedVector(np.zeros(16), "secded64")
        vec.store(np.ones(16), defer=True)
        f64_to_u64(vec.raw)[4] ^= np.uint64(1) << np.uint64(40)
        vec.flush()
        assert vec.check().clean
        assert np.allclose(vec.values(), 1.0, atol=1e-12)


class TestMidWindowDetection:
    def test_vector_flip_detected_at_next_scheduled_check(self):
        """Reads keep serving the cached view mid-window, but the next
        scheduled check must surface the corruption."""
        policy = CheckPolicy(interval=1, correct=False, vector_interval=4)
        engine = DeferredVerificationEngine(policy)
        vec = engine.register(ProtectedVector(np.ones(32), "secded64"), "r")
        assert engine.begin_iteration()  # iteration 0: check round runs clean
        engine.read(vec)
        f64_to_u64(vec.raw)[7] ^= np.uint64(1) << np.uint64(30)  # mid-window flip
        fired = []
        with pytest.raises(DetectedUncorrectableError):
            for _ in range(4):  # iterations 1..3 defer, iteration 4 checks
                fired.append(engine.begin_iteration())
                engine.read(vec)
        assert fired == [False, False, False]

    def test_vector_due_carries_the_engine_counters(self):
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
        vec = engine.register(ProtectedVector(np.ones(32), "secded64"), "r")
        engine.begin_iteration()
        f64_to_u64(vec.raw)[7] ^= np.uint64(1) << np.uint64(30)
        with pytest.raises(DetectedUncorrectableError) as caught:
            engine.verify_vector(vec)
        assert caught.value.counters["vector_checks"] == engine.stats.vector_checks
        assert caught.value.counters == dataclasses.asdict(engine.stats)

    def test_vector_flip_corrected_at_next_scheduled_check(self):
        policy = CheckPolicy(interval=1, correct=True, vector_interval=4)
        engine = DeferredVerificationEngine(policy)
        original = np.ones(32)
        vec = engine.register(ProtectedVector(original, "secded64"), "r")
        engine.begin_iteration()
        clean_view = engine.read(vec).copy()
        f64_to_u64(vec.raw)[7] ^= np.uint64(1) << np.uint64(30)
        for _ in range(3):
            engine.begin_iteration()
            engine.read(vec)
        assert engine.begin_iteration()  # scheduled check corrects in place
        assert policy.stats.corrected == 1
        assert np.array_equal(engine.read(vec), clean_view)

    def test_matrix_flip_detected_at_next_scheduled_check(self):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")  # detect-only schemes
        policy = CheckPolicy(interval=4, correct=False)
        engine = DeferredVerificationEngine(policy)
        x = np.ones(matrix.n_cols)
        engine.spmv(pmat, x)  # access 0: full check, clean
        f64_to_u64(pmat.values)[3] ^= np.uint64(1) << np.uint64(12)
        engine.spmv(pmat, x)  # accesses 1..3: range checks only
        engine.spmv(pmat, x)
        engine.spmv(pmat, x)
        with pytest.raises(DetectedUncorrectableError):
            engine.spmv(pmat, x)  # access 4: scheduled full check fires
        assert policy.stats.bounds_checks == 3

    def test_finalize_sweep_catches_flip_after_last_check(self):
        policy = CheckPolicy(interval=1, correct=False, vector_interval=100)
        engine = DeferredVerificationEngine(policy)
        vec = engine.register(ProtectedVector(np.ones(32), "secded64"), "x")
        engine.begin_iteration()
        engine.read(vec)
        f64_to_u64(vec.raw)[5] ^= np.uint64(1) << np.uint64(25)
        with pytest.raises(DetectedUncorrectableError):
            engine.finalize()

    def test_unread_vectors_skip_scheduled_checks(self):
        policy = CheckPolicy(interval=1, vector_interval=1)
        engine = DeferredVerificationEngine(policy)
        engine.register(ProtectedVector(np.ones(8), "secded64"), "idle")
        read_vec = engine.register(ProtectedVector(np.ones(8), "secded64"), "hot")
        engine.begin_iteration()
        assert policy.stats.vector_checks == 0  # nothing read yet
        engine.read(read_vec)
        engine.begin_iteration()
        assert policy.stats.vector_checks == 1  # only the consumed region


class TestFusedKernels:
    def test_fused_dot_axpy_match_plain(self):
        rng = np.random.default_rng(5)
        a_vals, b_vals = rng.standard_normal(48), rng.standard_normal(48)
        engine = DeferredVerificationEngine(CheckPolicy(interval=8))
        a = ProtectedVector(a_vals, "secded64")
        b = ProtectedVector(b_vals, "secded64")
        got = float(np.dot(engine.read(a), engine.read(b)))
        assert got == pytest.approx(float(np.dot(a.values(), b.values())), rel=1e-15)
        engine.write(b, 2.0 * engine.read(a) + engine.read(b))
        assert np.allclose(b.values(), 2.0 * a.values() + b_vals, atol=1e-9)
        assert b.dirty_window is not None  # write was buffered, not re-encoded
        assert engine.stats.deferred_stores == 1
        assert engine.stats.cached_reads >= 4

    def test_fused_spmv_raises_due_from_engine_schedule(self):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
        pmat.colidx[0] ^= np.uint32(1) << np.uint32(2)
        with pytest.raises(DetectedUncorrectableError):
            engine.spmv(pmat, np.ones(matrix.n_cols))

    def test_vector_operand_flip_caught_at_next_scheduled_check(self):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        vec = ProtectedVector(np.ones(matrix.n_cols), "sed")
        engine = DeferredVerificationEngine(CheckPolicy(interval=2, correct=False))
        expected = engine.spmv(pmat, vec).copy()  # populates the operand's cache
        f64_to_u64(vec.raw)[3] ^= np.uint64(1) << np.uint64(20)
        # Products read the verified cache, never the flipped storage...
        assert np.array_equal(engine.spmv(pmat, vec), expected)
        # ...and the vector's next scheduled check (iteration 0) finds it.
        with pytest.raises(DetectedUncorrectableError) as err:
            engine.begin_iteration()
        assert err.value.region == "vector0"


class TestDeferredSolvers:
    def make_system(self, n=10, seed=7):
        matrix = make_matrix(n, seed)
        rng = np.random.default_rng(seed + 1)
        x_true = rng.standard_normal(matrix.n_cols)
        return matrix, matrix.matvec(x_true), x_true

    @pytest.mark.parametrize("interval", [2, 8, 32])
    def test_deferred_cg_matches_plain_solution(self, interval):
        matrix, b, x_true = self.make_system()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        res = protected_cg_run(
            pmat, b, eps=1e-24,
            engine=DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False)),
            vector_scheme="secded64",
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert res.info["dirty_flushes"] > 0
        assert res.info["deferred_stores"] > res.info["vector_checks"]
        if interval >= 8:
            assert res.info["bounds_checks"] > res.info["full_checks"]

    def test_deferred_cg_iteration_count_matches_eager(self):
        matrix, b, _ = self.make_system(12, seed=9)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        eager = protected_cg_run(pmat, b, eps=1e-24, vector_scheme="secded64")
        deferred = protected_cg_run(
            pmat, b, eps=1e-24,
            engine=DeferredVerificationEngine(CheckPolicy(interval=16, correct=False)),
            vector_scheme="secded64",
        )
        assert abs(deferred.iterations - eager.iterations) <= 1

    def test_deferred_cg_detects_preexisting_vector_corruption(self):
        """End-to-end: corruption that appears mid-solve in a protected
        state vector is flagged by a scheduled check, not returned."""
        matrix, b, _ = self.make_system()
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        pmat.colidx[1] ^= np.uint32(1) << np.uint32(3)
        with pytest.raises(DetectedUncorrectableError):
            protected_cg_run(
                pmat, b, eps=1e-24,
                engine=DeferredVerificationEngine(CheckPolicy(interval=8, correct=False)),
                vector_scheme="secded64",
            )

    def test_protected_ppcg_matches_plain(self):
        matrix, b, x_true = self.make_system(12, seed=11)
        plain = ppcg_solve(matrix, b, eps=1e-24, inner_steps=4)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        prot = protected_ppcg_run(
            pmat, b, eps=1e-24, inner_steps=4, vector_scheme="secded64",
        )
        assert prot.converged
        assert np.allclose(prot.x, x_true, atol=1e-7)
        assert abs(prot.iterations - plain.iterations) <= 2

    def test_protected_ppcg_deferred_schedule(self):
        matrix, b, x_true = self.make_system(12, seed=13)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        res = protected_ppcg_run(
            pmat, b, eps=1e-24, inner_steps=4,
            engine=DeferredVerificationEngine(CheckPolicy(interval=16, correct=False)),
            vector_scheme="secded64",
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert res.info["bounds_checks"] > res.info["full_checks"]

    def test_deferred_cg_unprotected_vectors_still_schedules_matrix(self):
        matrix, b, x_true = self.make_system()
        pmat = ProtectedCSRMatrix(matrix, "crc32c", "crc32c")
        res = protected_cg_run(
            pmat, b, eps=1e-24,
            engine=DeferredVerificationEngine(CheckPolicy(interval=8, correct=False)),
            vector_scheme=None,
        )
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert res.info["vector_checks"] == 0
        assert res.info["bounds_checks"] > 0


class TestEngineBookkeeping:
    def test_supplied_engine_policy_drives_solve_and_info(self):
        """A caller-built engine's policy must own scheduling AND stats."""
        matrix = make_matrix()
        rng = np.random.default_rng(21)
        b = matrix.matvec(rng.standard_normal(matrix.n_cols))
        policy = CheckPolicy(interval=16, correct=False)
        engine = DeferredVerificationEngine(policy)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        res = protected_cg_run(
            pmat, b, eps=1e-24, vector_scheme="secded64", engine=engine
        )
        assert res.converged
        assert res.info["full_checks"] == policy.stats.full_checks > 0
        assert res.info["bounds_checks"] == policy.stats.bounds_checks > 0
        # Transient state vectors are released so a shared engine does
        # not accumulate dead registrations across solves.
        assert len(engine._vectors) == 0
        assert len(engine._matrices) == 1

    def test_register_rejects_unknown_regions(self):
        from repro.errors import ConfigurationError

        engine = DeferredVerificationEngine()
        with pytest.raises(ConfigurationError):
            engine.register(np.zeros(4))

    def test_cached_view_shares_storage_across_reads(self):
        engine = DeferredVerificationEngine(CheckPolicy(interval=4))
        vec = ProtectedVector(np.ones(16), "secded64")
        first = engine.read(vec)
        second = engine.read(vec)
        assert first is second
        assert not first.flags.writeable

    def test_matrix_clean_views_persistent_across_checks(self):
        """The snapshot buffers are allocated once and refilled in place."""
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        colidx1, rowptr1 = pmat.clean_views()
        colidx2, rowptr2 = pmat.clean_views()
        assert colidx1 is colidx2 and rowptr1 is rowptr2
        assert colidx1.dtype == np.int64 and rowptr1.dtype == np.int64
        pmat.check_all()
        colidx3, _ = pmat.clean_views()
        assert colidx3 is colidx1  # persistent buffer, not a fresh decode

    def test_clean_views_refreshed_after_correction(self):
        """A corrected index flip must reach the refilled snapshot."""
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        before = pmat.clean_views()[0].copy()
        pmat.colidx[3] ^= np.uint32(1) << np.uint32(2)
        pmat.check_all(correct=True)  # repairs the flip in storage
        after = pmat.clean_views()[0]
        assert np.array_equal(after, before)
