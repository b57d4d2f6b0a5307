"""The unified protection API: ProtectionConfig, ProtectionSession, repro.solve.

ISSUE 2's contract: one frozen config is the single source of truth,
``repro.solve`` threads every registered method through the deferred
engine, and a session keeps one engine (and its dirty windows) alive
across solves and TeaLeaf time-steps.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.csr import five_point_operator
from repro.bits.float_bits import f64_to_u64
from repro.errors import (
    BoundsViolationError,
    ConfigurationError,
    DetectedUncorrectableError,
)
from repro.protect import (
    CheckPolicy,
    DeferredVerificationEngine,
    ProtectedCSRMatrix,
    ProtectionConfig,
    ProtectionSession,
)
from repro.solvers import (
    JacobiPreconditioner,
    LinearOperator,
    available_methods,
    cg_solve,
    get_method,
    solve,
)

METHODS = ("cg", "ppcg", "jacobi", "chebyshev")


def make_system(n=10, seed=3):
    rng = np.random.default_rng(seed)
    A = five_point_operator(
        n, n, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n)), 0.4
    )
    x_true = rng.standard_normal(A.n_rows)
    return A, A.matvec(x_true), x_true


class TestProtectionConfig:
    def test_paper_default_preset(self):
        config = ProtectionConfig.paper_default()
        assert config.element_scheme == "secded64"
        assert config.rowptr_scheme == "secded64"
        assert config.vector_scheme == "secded64"
        assert config.interval == 1 and config.correct
        assert config.enabled and config.protects_matrix and config.protects_vectors

    def test_off_preset(self):
        config = ProtectionConfig.off()
        assert not config.enabled
        assert not config.protects_matrix and not config.protects_vectors

    def test_deferred_preset_follows_paper_rule(self):
        config = ProtectionConfig.deferred(window=16)
        assert config.interval == 16
        assert config.correct is False  # deferral => detection-only
        policy = config.policy()
        assert policy.interval == 16
        assert policy.vector_interval == 16
        assert policy.defer_writes is True

    def test_deferred_rejects_zero_window(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig.deferred(window=0)

    def test_matrix_only_preset(self):
        config = ProtectionConfig.matrix_only("crc32c", interval=8, correct=False)
        assert config.protects_matrix and not config.protects_vectors
        assert config.element_scheme == "crc32c"

    def test_rejects_unknown_schemes(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(element_scheme="md5")
        with pytest.raises(ConfigurationError):
            ProtectionConfig(rowptr_scheme="md5")
        with pytest.raises(ConfigurationError):
            ProtectionConfig(vector_scheme="md5")

    def test_rejects_negative_intervals(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(interval=-1)
        with pytest.raises(ConfigurationError):
            ProtectionConfig(vector_interval=-2)

    def test_frozen_and_hashable(self):
        config = ProtectionConfig.paper_default()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.interval = 5
        assert len({config, ProtectionConfig.paper_default()}) == 1

    def test_replace_revalidates(self):
        config = ProtectionConfig.paper_default()
        assert config.replace(interval=8).interval == 8
        with pytest.raises(ConfigurationError):
            config.replace(element_scheme="nope")

    def test_factories_mint_fresh_objects(self):
        config = ProtectionConfig.deferred(window=4)
        assert config.policy() is not config.policy()
        engine = config.engine()
        assert isinstance(engine, DeferredVerificationEngine)
        assert engine.policy.interval == 4

    def test_wrap_matrix_idempotent_on_protected(self):
        A, _, _ = make_system(6)
        config = ProtectionConfig.paper_default()
        pmat = ProtectedCSRMatrix(A, "sed", "sed")
        assert config.wrap_matrix(pmat) is pmat
        wrapped = config.wrap_matrix(A)
        assert isinstance(wrapped, ProtectedCSRMatrix)
        assert wrapped.elements.scheme == "secded64"


class TestRegistry:
    def test_all_four_methods_registered(self):
        assert set(available_methods()) == set(METHODS)
        assert set(repro.available_methods()) == set(METHODS)

    def test_unknown_method_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="multigrid"):
            get_method("multigrid")
        with pytest.raises(ValueError):  # ConfigurationError is a ValueError
            solve(None, None, method="multigrid")

    @pytest.mark.parametrize("method", METHODS)
    def test_plain_solve_matches_truth(self, method):
        A, b, x_true = make_system()
        res = repro.solve(A, b, method=method, eps=1e-24, max_iters=20_000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    @pytest.mark.parametrize("method", METHODS)
    def test_deferred_protected_solve_all_methods(self, method):
        """The acceptance criterion: engine-threaded vector protection
        for every method under ProtectionConfig.deferred(window=16)."""
        A, b, x_true = make_system()
        res = repro.solve(
            A, b, method=method, eps=1e-24, max_iters=20_000,
            protection=ProtectionConfig.deferred(window=16),
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert res.info["vector_scheme"] == "secded64"
        assert res.info["deferred_stores"] > 0
        assert res.info["cached_reads"] > 0
        assert res.info["bounds_checks"] > res.info["full_checks"]

    @pytest.mark.parametrize("method", METHODS)
    def test_paper_default_protected_solve_all_methods(self, method):
        A, b, x_true = make_system()
        res = repro.solve(
            A, b, method=method, eps=1e-24, max_iters=20_000,
            protection=ProtectionConfig.paper_default(),
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert res.info["full_checks"] > 0

    def test_disabled_config_runs_plain(self):
        A, b, x_true = make_system()
        res = solve(A, b, protection=ProtectionConfig.off(), eps=1e-24)
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.info["full_checks"] == 0 and res.info["vector_checks"] == 0

    @pytest.mark.parametrize("protection", [None, ProtectionConfig.off()],
                             ids=["none", "off"])
    def test_unprotected_cg_is_the_one_pipeline_under_the_null_codec(
            self, protection, monkeypatch):
        """No protection is ``off()`` through ProtectedIteration and
        engine.spmv — and still bitwise the textbook ``cg_solve``."""
        A, b, _ = make_system()
        products = []
        spmv = DeferredVerificationEngine.spmv
        monkeypatch.setattr(
            DeferredVerificationEngine, "spmv",
            lambda self, matrix, x, out=None: (
                products.append(np.ndim(x)) or spmv(self, matrix, x, out=out)),
        )
        ref = cg_solve(A, b, eps=1e-24)
        res = solve(A, b, protection=protection, eps=1e-24)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.iterations == ref.iterations
        assert res.residual_norms == ref.residual_norms
        assert products == [1] * ref.iterations
        B = np.stack([b, 2.0 * b[::-1]], axis=1)
        products.clear()
        block = solve(A, B, protection=protection, eps=1e-24)
        for j in range(2):
            assert block.x[:, j].tobytes() == cg_solve(A, B[:, j], eps=1e-24).x.tobytes()
        assert products == [2] * int(block.iterations.max())

    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
    @pytest.mark.parametrize("damage", ["colidx", "rowptr_range", "rowptr_order"])
    def test_null_codec_validates_indices_before_any_gather(
            self, damage, k, monkeypatch):
        """The kernels gather with ``np.take(mode="clip")``: the
        once-per-population snapshot validation is all that stands
        between a bad index and a silently wrong answer, and it must run
        on the ``off()`` wrap exactly as on a protected one."""
        from repro.csr.matrix import CSRMatrix

        A, b, _ = make_system()
        colidx, rowptr = A.colidx.copy(), A.rowptr.copy()
        if damage == "colidx":
            colidx[7] = A.n_cols
        elif damage == "rowptr_range":
            rowptr[-1] = A.nnz + 1
        else:
            rowptr[4], rowptr[5] = rowptr[5], rowptr[4]
        bad = CSRMatrix(A.values, colidx, rowptr, A.shape, validate=False)
        monkeypatch.setattr(np, "take", lambda *a, **kw: pytest.fail("gathered"))
        rhs = b if k is None else np.stack([b] * k, axis=1)
        with pytest.raises(BoundsViolationError):
            solve(bad, rhs, eps=1e-24)

    @pytest.mark.parametrize("schemes", [(None, None), (None, "sed"),
                                         ("secded64", None)],
                             ids=["off", "rowptr-only", "elements-only"])
    def test_public_wrap_never_shares_the_callers_arrays(self, schemes):
        """Fault harnesses inject in place into a wrapped matrix; only
        ``repro.solve``'s own solve-local null wrap may alias."""
        A, _, _ = make_system()
        for pmat in (ProtectedCSRMatrix(A, *schemes),
                     ProtectionConfig.off().wrap_matrix(A)):
            for stored, source in ((pmat.values, A.values),
                                   (pmat.colidx, A.colidx),
                                   (pmat.rowptr, A.rowptr)):
                assert not np.shares_memory(stored, source)

    def test_protected_matrix_decoded_for_plain_solve(self):
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        res = solve(pmat, b, protection=None, eps=1e-24)
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_prewrapped_matrix_not_reencoded(self):
        """Campaigns hand over injected matrices; wrap must be identity."""
        A, b, _ = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        config = ProtectionConfig.paper_default()
        assert config.wrap_matrix(pmat) is pmat

    def test_method_specific_kwargs_pass_through(self):
        A, b, x_true = make_system()
        res = solve(A, b, method="ppcg", inner_steps=6, eps=1e-24)
        assert res.info["inner_steps"] == 6
        res = solve(A, b, method="jacobi", check_every=5, eps=1e-24,
                    max_iters=20_000)
        assert np.allclose(res.x, x_true, atol=1e-8)


class TestRouting:
    """The one routing rule of ``repro.solve``, as a table.

    On CSR storage (bare or pre-wrapped) every method runs its
    engine-threaded body — under the null codec when unprotected; any
    other operator runs the textbook function and cannot be protected;
    a 2-D ``b`` runs the blocked body for plain CG and per-column
    solves for everything else.  Which body ran is read off ``info``.
    """

    PROTECTIONS = {
        "none": lambda: None,
        "off": ProtectionConfig.off,
        "config": lambda: ProtectionConfig.deferred(window=16),
        "session": lambda: ProtectionSession(ProtectionConfig.deferred(window=16)),
    }
    OPERANDS = {
        "csr": lambda A: A,
        "prewrapped": lambda A: ProtectedCSRMatrix(A, "secded64", "secded64"),
        "operator": lambda A: LinearOperator(A.matvec, A.n_rows, A.diagonal),
    }

    @staticmethod
    def body(info) -> str:
        if info.get("sequential_fallback"):
            (column,) = {TestRouting.body(c) for c in info["columns"]}
            return f"columns[{column}]"
        if "full_checks" not in info:
            return "textbook"
        codec = "null" if info["vector_scheme"] is None else "protected"
        return f"{'blocked' if 'block_width' in info else 'engine'}:{codec}"

    @staticmethod
    def expected(method, protection, operand, rank, kwargs=False) -> str | None:
        protected = protection in ("config", "session")
        if operand == "operator":
            if protected:
                return None  # nothing to wrap: a ConfigurationError
            single = "textbook"
        else:
            single = "engine:protected" if protected else "engine:null"
        if rank == 1:
            return single
        if method == "cg" and operand != "operator" and not kwargs:
            return single.replace("engine", "blocked")
        return f"columns[{single}]"

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("operand", OPERANDS)
    @pytest.mark.parametrize("protection", PROTECTIONS)
    @pytest.mark.parametrize("method", METHODS)
    def test_routing_table(self, method, protection, operand, rank):
        A, b, _ = make_system(6)
        rhs = b if rank == 1 else np.stack([b, b[::-1]], axis=1)
        prot = self.PROTECTIONS[protection]()
        call = dict(method=method, protection=prot, eps=1e-12, max_iters=20_000)
        want = self.expected(method, protection, operand, rank)
        if want is None:
            with pytest.raises(ConfigurationError, match="CSR storage"):
                solve(self.OPERANDS[operand](A), rhs, **call)
            return
        res = solve(self.OPERANDS[operand](A), rhs, **call)
        assert np.all(res.converged)
        assert self.body(res.info) == want

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("protection", PROTECTIONS)
    def test_preconditioner_is_honoured_under_every_protection(self, protection, rank):
        """``preconditioner=`` used to crash the protected route; a
        blocked ``b`` keeps the per-column fallback."""
        A, b, _ = make_system(6)
        rhs = b if rank == 1 else np.stack([b, b[::-1]], axis=1)
        M = JacobiPreconditioner(A.diagonal())
        res = solve(A, rhs, protection=self.PROTECTIONS[protection](),
                    preconditioner=M, eps=1e-12)
        assert np.all(res.converged)
        assert self.body(res.info) == self.expected(
            "cg", protection, "csr", rank, kwargs=True)

    def test_distributed_names_the_kwarg_it_cannot_take(self):
        A, b, _ = make_system(6)
        with pytest.raises(ConfigurationError, match="preconditioner"):
            solve(A, b, distributed=2,
                  preconditioner=JacobiPreconditioner(A.diagonal()))

    @pytest.mark.parametrize("method", METHODS)
    def test_unprotected_method_is_bitwise_its_textbook_function(self, method):
        A, b, _ = make_system()
        ref = get_method(method).plain(A, b, eps=1e-20, max_iters=20_000)
        res = solve(A, b, method=method, eps=1e-20, max_iters=20_000)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.iterations == ref.iterations
        assert res.residual_norms == ref.residual_norms
        assert self.body(res.info) == "engine:null"


class TestPreconditionedCG:
    """Jacobi-preconditioned CG through the one protected recurrence."""

    @pytest.mark.parametrize("protection", [None, ProtectionConfig.off()],
                             ids=["none", "off"])
    def test_unprotected_is_bitwise_cg_solve_with_M(self, protection):
        A, b, _ = make_system()
        M = JacobiPreconditioner(A.diagonal())
        ref = cg_solve(A, b, eps=1e-24, preconditioner=M)
        res = solve(A, b, protection=protection, eps=1e-24, preconditioner=M)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.iterations == ref.iterations
        assert res.residual_norms == ref.residual_norms

    @pytest.mark.parametrize("make_config", [
        ProtectionConfig.paper_default, lambda: ProtectionConfig.deferred(16),
    ], ids=["paper_default", "deferred16"])
    def test_protected_converges_to_the_reference(self, make_config):
        A, b, _ = make_system()
        M = JacobiPreconditioner(A.diagonal())
        ref = cg_solve(A, b, eps=1e-24, preconditioner=M)
        res = solve(A, b, protection=make_config(), eps=1e-24, preconditioner=M)
        assert res.converged
        assert np.abs(res.x - ref.x).max() < 1e-8
        assert res.info["full_checks"] > 0
        assert res.info["vector_checks"] > 0
        # M pays off exactly as in the reference: within the mantissa-LSB
        # noise of the protected vectors, the same iteration count.
        assert abs(res.iterations - ref.iterations) <= 2

    def test_session_defers_the_sweep_to_end_step(self):
        A, b, x_true = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=128))
        res = session.solve(A, b, eps=1e-24,
                            preconditioner=JacobiPreconditioner(A.diagonal()))
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert session.pending_windows() > 0  # no per-solve finalize
        flushed = session.stats.dirty_flushes
        session.end_step()
        assert session.pending_windows() == 0
        assert session.stats.dirty_flushes > flushed


class TestProtectionSession:
    def test_due_out_of_solve_carries_the_engine_counters(self):
        """Two flips in one codeword mid-solve: the DUE the next fused
        check raises carries the engine's check counters at the raise."""
        A, b, _ = make_system(n=16)
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        pmat = session.wrap_matrix(A)
        iteration = iter(range(10**6))

        def flip_at_five():
            if next(iteration) == 5:
                f64_to_u64(pmat.values)[11] ^= np.uint64(0b11) << np.uint64(33)

        session.engine.add_iteration_hook(flip_at_five)
        with pytest.raises(DetectedUncorrectableError) as caught:
            repro.solve(pmat, b, protection=session, eps=1e-24)
        counters = caught.value.counters
        assert counters["full_checks"] >= 1
        assert counters["uncorrectable"] >= 1
        assert counters == dataclasses.asdict(session.stats)

    def test_one_engine_across_solves(self):
        A, b, x_true = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        engine = session.engine
        r1 = session.solve(A, b, eps=1e-24)
        r2 = session.solve(A, b, r1.x, method="cg", eps=1e-24)
        assert session.engine is engine
        assert np.allclose(r2.x, x_true, atol=1e-7)
        # Stats are cumulative across both solves.
        assert session.stats.cached_reads >= r1.info["cached_reads"]

    def test_dirty_windows_span_solve_boundary(self):
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=128))
        session.solve(A, b, eps=1e-24)
        # No per-solve finalize: buffered writes are still pending.
        assert session.pending_windows() > 0
        assert session.stats.deferred_stores > 0
        flushed_before = session.stats.dirty_flushes
        session.end_step()
        assert session.pending_windows() == 0
        assert session.stats.dirty_flushes > flushed_before
        assert session.steps_completed == 1

    def test_end_step_releases_transients(self):
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        session.solve(A, b, eps=1e-24)
        assert len(session.engine._vectors) > 0
        assert len(session.engine._matrices) == 1
        session.end_step()
        assert len(session.engine._vectors) == 0
        assert len(session.engine._matrices) == 0

    def test_prewrapped_matrices_released_per_step(self):
        """A long-running session looping over fresh pre-wrapped matrices
        must not accumulate them (no O(N^2) sweep work, no leak)."""
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        sweep_costs = []
        for _ in range(3):
            pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
            session.solve(pmat, b, eps=1e-24)
            assert len(session.engine._matrices) == 1  # only this step's
            before = session.stats.full_checks
            session.end_step()
            sweep_costs.append(session.stats.full_checks - before)
            assert len(session.engine._matrices) == 0
        # Each sweep checks one matrix, not every past one.
        assert sweep_costs[0] == sweep_costs[1] == sweep_costs[2]

    def test_reused_matrix_tracked_once_per_window(self):
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        r1 = session.solve(pmat, b, eps=1e-24)
        session.solve(pmat, b, r1.x, eps=1e-24)
        assert sum(region is pmat for region in session._transient) == 1
        session.end_step()
        # Re-registered on the next solve after release.
        session.solve(pmat, b, eps=1e-24)
        assert len(session.engine._matrices) == 1

    def test_session_solve_mixed_methods(self):
        A, b, x_true = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=8))
        for method in METHODS:
            res = session.solve(A, b, method=method, eps=1e-24, max_iters=20_000)
            assert res.converged
            assert np.allclose(res.x, x_true, atol=1e-7)
            session.end_step()
        assert session.steps_completed == len(METHODS)

    def test_disabled_session_runs_plain(self):
        """An off() session owns an engine that schedules nothing: the
        solve is bitwise the textbook CG and no counter moves."""
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.off())
        assert isinstance(session.engine, DeferredVerificationEngine)
        res = session.solve(A, b, eps=1e-24)
        assert res.x.tobytes() == cg_solve(A, b, eps=1e-24).x.tobytes()
        assert not any(dataclasses.asdict(session.stats).values())
        session.end_step()  # nothing to sweep, still counts the step
        assert session.steps_completed == 1

    def test_disabled_config_session_runs_as_off(self):
        """A disabled config is not always off(): this one keeps the
        default interval 1.  A session runs it as repro.solve does —
        under off(), so no check is scheduled."""
        A, b, _ = make_system()
        config = ProtectionConfig(element_scheme=None, rowptr_scheme=None,
                                  vector_scheme=None)
        assert config.interval == 1 and not config.enabled
        ref = solve(A, b, eps=1e-24, protection=config)
        res = ProtectionSession(config).solve(A, b, eps=1e-24)
        assert res.info["full_checks"] == ref.info["full_checks"] == 0
        assert res.x.tobytes() == ref.x.tobytes()

    def test_disabled_session_decodes_wrapped_matrix(self):
        """Parity with registry.solve: protection off + protected input."""
        A, b, x_true = make_system()
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        session = ProtectionSession(ProtectionConfig.off())
        res = session.solve(pmat, b, method="jacobi", eps=1e-24, max_iters=20_000)
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_info_counters_are_per_solve_not_cumulative(self):
        """A shared session engine must still yield per-solve info blocks;
        the cumulative totals live on session.stats."""
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.paper_default())
        r1 = session.solve(A, b, eps=1e-24)
        r2 = session.solve(A, b, r1.x, eps=1e-24)
        # Solve 2 warm-starts from the solution: far fewer checks than
        # solve 1, and nothing close to the running total.
        assert r2.info["full_checks"] < r1.info["full_checks"]
        assert session.stats.full_checks >= (
            r1.info["full_checks"] + r2.info["full_checks"]
        )

    def test_solve_dispatches_session_protection(self):
        A, b, x_true = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        res = solve(A, b, method="cg", protection=session, eps=1e-24)
        assert np.allclose(res.x, x_true, atol=1e-7)
        assert session.pending_windows() > 0  # session semantics applied

    def test_context_manager_sweeps_on_exit(self):
        A, b, _ = make_system()
        with ProtectionSession(ProtectionConfig.deferred(window=128)) as session:
            session.solve(A, b, eps=1e-24)
            assert session.pending_windows() > 0
        assert session.pending_windows() == 0
        assert session.steps_completed == 1

    def test_due_solve_releases_regions_so_retry_recovers(self):
        """The paper's recovery story on a session: a DUE solve must not
        poison later sweeps — re-encode, retry, end_step stays clean."""
        from repro.bits.float_bits import f64_to_u64
        from repro.errors import DetectedUncorrectableError

        A, b, x_true = make_system()
        session = ProtectionSession(
            ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                             vector_scheme="secded64", interval=8, correct=False)
        )
        bad = ProtectedCSRMatrix(A, "sed", "sed")
        f64_to_u64(bad.values)[11] ^= np.uint64(1) << np.uint64(19)
        with pytest.raises(DetectedUncorrectableError):
            session.solve(bad, b, eps=1e-24)
        # The corrupt matrix and the aborted solve's vectors are gone.
        assert len(session.engine._matrices) == 0
        assert len(session.engine._vectors) == 0
        retry = session.solve(A, b, eps=1e-24)  # re-encoded from pristine data
        assert np.allclose(retry.x, x_true, atol=1e-7)
        session.end_step()  # must not re-raise from the dead matrix

    def test_exit_sweeps_after_unrelated_exception(self):
        """An unrelated error must not drop the mandatory sweep owed to
        solves that already completed inside the context."""
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=128))
        with pytest.raises(ValueError):
            with session:
                session.solve(A, b, eps=1e-24)
                assert session.pending_windows() > 0
                session.solve(A, b, method="jacobbi")  # typo
        assert session.pending_windows() == 0  # swept on exit anyway
        assert session.stats.dirty_flushes > 0

    def test_exit_skips_sweep_on_integrity_error(self):
        from repro.bits.float_bits import f64_to_u64
        from repro.errors import DetectedUncorrectableError

        A, b, _ = make_system()
        session = ProtectionSession(
            ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                             vector_scheme=None, interval=1, correct=False)
        )
        bad = ProtectedCSRMatrix(A, "sed", "sed")
        f64_to_u64(bad.values)[3] ^= np.uint64(1) << np.uint64(9)
        with pytest.raises(DetectedUncorrectableError):
            with session:
                session.solve(bad, b, eps=1e-24)
        assert session.steps_completed == 0  # no sweep counted

    def test_due_at_end_step_does_not_poison_session(self):
        """A sweep that raises must still release the window's regions:
        the session stays usable for the re-encode-and-retry story."""
        from repro.bits.float_bits import f64_to_u64
        from repro.errors import DetectedUncorrectableError

        A, b, x_true = make_system()
        session = ProtectionSession(
            ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                             vector_scheme="secded64", interval=16, correct=False)
        )
        session.solve(A, b, eps=1e-24)
        pmat = next(r for r in session._transient
                    if isinstance(r, ProtectedCSRMatrix))
        f64_to_u64(pmat.values)[7] ^= np.uint64(1) << np.uint64(13)
        with pytest.raises(DetectedUncorrectableError):
            session.end_step()
        assert len(session.engine._matrices) == 0
        assert len(session.engine._vectors) == 0
        assert session.steps_completed == 0
        retry = session.solve(A, b, eps=1e-24)
        session.end_step()  # must not re-raise from the dead window
        assert np.allclose(retry.x, x_true, atol=1e-7)
        assert session.steps_completed == 1

    def test_due_mid_window_aborts_whole_window(self):
        """Corruption in a region tracked by an *earlier* solve of the
        same window releases everything — no stale region survives to
        poison later sweeps."""
        from repro.bits.float_bits import f64_to_u64
        from repro.errors import DetectedUncorrectableError

        A, b, x_true = make_system()
        session = ProtectionSession(
            ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                             vector_scheme=None, interval=8, correct=False)
        )
        pmat = ProtectedCSRMatrix(A, "sed", "sed")
        session.solve(pmat, b, eps=1e-24)
        f64_to_u64(pmat.values)[21] ^= np.uint64(1) << np.uint64(40)
        with pytest.raises(DetectedUncorrectableError):
            session.solve(pmat, b, eps=1e-24)  # up-front verify fires
        assert len(session._transient) == 0
        assert len(session.engine._matrices) == 0
        retry = session.solve(A, b, eps=1e-24)
        session.end_step()
        assert np.allclose(retry.x, x_true, atol=1e-7)

    def test_retire_step_bounds_window_accumulation(self):
        """retire_step verifies and releases finished regions so a long
        step window does not pile up dead matrices/vectors."""
        A, b, _ = make_system()
        session = ProtectionSession(ProtectionConfig.deferred(window=64))
        for _ in range(3):
            pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
            r = session.solve(pmat, b, eps=1e-24)
            session.retire_step()
            # The per-step matrix retires with a full check; only vectors
            # still carrying dirty windows stay registered.
            assert len(session.engine._matrices) == 0
            assert all(
                v.dirty_window is not None
                for _, v in session.engine._vectors.values()
            )
            b = r.x
        checks_before = session.stats.full_checks
        session.end_step()  # sweep covers only the surviving regions
        assert session.stats.full_checks == checks_before
        assert len(session.engine._vectors) == 0

    def test_session_checks_still_detect_corruption(self):
        """Deferral across solves must not weaken detection: a flip in a
        tracked region surfaces at the next scheduled check or sweep."""
        from repro.bits.float_bits import f64_to_u64
        from repro.errors import DetectedUncorrectableError

        A, b, _ = make_system()
        session = ProtectionSession(
            ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                             vector_scheme=None, interval=128, correct=False)
        )
        session.solve(A, b, eps=1e-24)
        pmat = session._transient[0]
        f64_to_u64(pmat.values)[7] ^= np.uint64(1) << np.uint64(13)
        with pytest.raises(DetectedUncorrectableError):
            session.end_step()


class TestSupportingPolicyPlumbing:
    def test_session_without_engine_uses_session_engine(self):
        """session= without engine= must ride the session's engine, not a
        silent throwaway that end_step() would never sweep."""
        A, b, _ = make_system(6)
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        session = ProtectionSession(ProtectionConfig.deferred(window=64))
        get_method("cg").protected(
            pmat, b, eps=1e-24, vector_scheme="secded64", session=session
        )
        assert len(session.engine._vectors) == 3  # x, r, p live on it
        session.end_step()
        assert len(session.engine._vectors) == 0

    def test_session_with_foreign_engine_rejected(self):
        A, b, x_true = make_system(6)
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        session = ProtectionSession(ProtectionConfig.deferred(window=16))
        with pytest.raises(ConfigurationError):
            get_method("cg").protected(
                pmat, b, engine=DeferredVerificationEngine(CheckPolicy()),
                session=session,
            )
        # A disabled session owns an off() engine, so it solves.
        res = get_method("cg").protected(
            pmat, b, eps=1e-24, session=ProtectionSession(ProtectionConfig.off()),
        )
        assert np.allclose(res.x, x_true, atol=1e-8)
