"""Checkpointed DUE recovery: the solve survives and still converges.

The acceptance bar (ISSUE 4): with ``recovery="rollback"`` or
``"repopulate"``, a CG solve under a Poisson fault process that triggers
at least one DUE completes and matches the unprotected reference
solution within solver tolerance; ``recovery="raise"`` (and no recovery
at all) preserves the historical exception surface.
"""

import numpy as np
import pytest

from repro.csr import five_point_operator
from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.faults import (
    FaultSpec,
    PoissonProcess,
    faulty_solve,
    inject_into_matrix,
    inject_into_vector,
)
from repro.faults.injector import Region
from repro.protect import ProtectionConfig, ProtectionSession
from repro.recover import CheckpointStore, RecoveryManager, RecoveryPolicy
from repro.solvers import JacobiPreconditioner, protected_block_cg_run
from repro.solvers.registry import get_method, solve

EPS = 1e-22
TOL = dict(rtol=1e-6, atol=1e-9)


def make_matrix(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        n, n, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n)), 0.3
    )


def make_problem(n=12, seed=0):
    matrix = make_matrix(n, seed)
    b = np.random.default_rng(seed + 100).standard_normal(matrix.n_rows)
    return matrix, b


def sed_config(recovery, **overrides):
    """Detection-only SED everywhere: every flip is a guaranteed DUE."""
    base = dict(
        element_scheme="sed", rowptr_scheme="sed", vector_scheme="sed",
        interval=4, correct=False, recovery=recovery,
    )
    base.update(overrides)
    return ProtectionConfig(**base)


def run_cg_with_hook(config, matrix, b, hook_factory, **kwargs):
    """Protected CG on a fresh engine with an iteration hook attached."""
    engine = config.engine()
    pmat = config.wrap_matrix(matrix)
    engine.add_iteration_hook(hook_factory(engine, pmat))
    return get_method("cg").protected(
        pmat, b, engine=engine, vector_scheme=config.vector_scheme, eps=EPS,
        **kwargs,
    )


def flip_matrix_value_at(iteration, element=7, bit=33):
    """Hook factory: one values-region flip at the given iteration."""
    def factory(engine, pmat):
        state = {"i": 0}

        def hook():
            if state["i"] == iteration:
                inject_into_matrix(pmat, Region.VALUES, [FaultSpec(element, bit)])
                pmat.invalidate_clean_views()
            state["i"] += 1

        return hook
    return factory


def flip_vector_at(iteration, name="r", element=5, bit=20):
    """Hook factory: one state-vector flip at the given iteration.

    Injecting at a check-due iteration means raw storage is live (the
    previous iteration's store already committed), so the flip is
    detected rather than landing in dead dirty-window storage.
    """
    def factory(engine, pmat):
        state = {"i": 0}

        def hook():
            if state["i"] == iteration:
                inject_into_vector(
                    engine.registered_vectors()[name], [FaultSpec(element, bit)]
                )
            state["i"] += 1

        return hook
    return factory


# ---------------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(strategy="retry-harder")

    def test_bad_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(checkpoint_interval=0)

    def test_config_accepts_string_shorthand(self):
        config = ProtectionConfig(recovery="rollback")
        assert isinstance(config.recovery, RecoveryPolicy)
        assert config.recovery.strategy == "rollback"
        assert config.recovery == RecoveryPolicy(strategy="rollback")

    def test_config_stays_hashable(self):
        a = ProtectionConfig(recovery="repopulate")
        b = ProtectionConfig(recovery=RecoveryPolicy(strategy="repopulate"))
        assert hash(a) == hash(b) and a == b

    def test_raise_strategy_builds_no_manager(self):
        assert ProtectionConfig(recovery="raise").engine().recovery is None
        assert ProtectionConfig(recovery=None).engine().recovery is None
        assert ProtectionConfig(recovery="rollback").engine().recovery is not None

    def test_resilient_preset(self):
        config = ProtectionConfig.resilient(window=8, strategy="repopulate")
        assert config.interval == 8
        assert config.recovery.strategy == "repopulate"


class TestCheckpointStore:
    def test_snapshot_copies_and_rolls(self):
        store = CheckpointStore()
        x = np.arange(4.0)
        store.snapshot({"x": x}, {"it": 3})
        x[:] = 0.0
        saved = store.latest()
        assert saved.scalars["it"] == 3
        np.testing.assert_array_equal(saved.vectors["x"], np.arange(4.0))
        store.snapshot({"x": x}, {"it": 5})
        assert store.latest().scalars["it"] == 5
        assert store.snapshots_taken == 2

    def test_begin_solve_clears(self):
        store = CheckpointStore()
        token = object()
        store.put_matrix_source(token, "src")
        store.snapshot({}, {"it": 0})
        store.begin_solve()
        assert store.matrix_source(token) is None
        assert store.latest() is None


# ---------------------------------------------------------------------------
class TestMidSolveRecovery:
    @pytest.mark.parametrize("strategy,preconditioned", [
        pytest.param("rollback", False, id="rollback"),
        pytest.param("repopulate", False, id="repopulate"),
        # The restart re-derives z = M r from the authoritative iterate.
        pytest.param("rollback", True, id="rollback-jacobi"),
        pytest.param("repopulate", True, id="repopulate-jacobi"),
    ])
    def test_matrix_flip_recovers_and_matches_reference(self, strategy, preconditioned):
        matrix, b = make_problem()
        reference = solve(matrix, b, method="cg", eps=EPS)
        kwargs = ({"preconditioner": JacobiPreconditioner(matrix.diagonal())}
                  if preconditioned else {})
        result = run_cg_with_hook(
            sed_config(strategy), matrix, b, flip_matrix_value_at(3), **kwargs
        )
        assert result.converged
        assert np.allclose(result.x, reference.x, **TOL)
        rec = result.info["recovery"]
        assert rec["strategy"] == strategy
        assert rec["matrix_reencodes"] >= 1
        assert rec["rollbacks" if strategy == "rollback" else "repopulates"] >= 1

    def test_vector_flip_repopulate_is_transparent(self):
        matrix, b = make_problem()
        reference = solve(matrix, b, method="cg", eps=EPS)
        config = sed_config("repopulate", defer_writes=False)
        result = run_cg_with_hook(config, matrix, b, flip_vector_at(8))
        assert result.converged
        assert np.allclose(result.x, reference.x, **TOL)
        rec = result.info["recovery"]
        # Engine-level repair: no solver escalation was needed.
        assert rec["vector_repairs"] >= 1
        assert rec["dues"] == 0

    def test_vector_flip_rollback_restores_checkpoint(self):
        matrix, b = make_problem()
        reference = solve(matrix, b, method="cg", eps=EPS)
        config = sed_config("rollback", defer_writes=False)
        result = run_cg_with_hook(config, matrix, b, flip_vector_at(8))
        assert result.converged
        assert np.allclose(result.x, reference.x, **TOL)
        assert result.info["recovery"]["rollbacks"] >= 1

    @pytest.mark.parametrize("method,strategy", [
        pytest.param("cg", "rollback", id="cg"),
        pytest.param("ppcg", "rollback", id="ppcg"),
        pytest.param("jacobi", "rollback", id="jacobi"),
        pytest.param("chebyshev", "rollback", id="chebyshev"),
        # Blocked CG over a 2-column b restarts every column together.
        pytest.param("block", "rollback", id="block-rollback"),
        pytest.param("block", "repopulate", id="block-repopulate"),
    ])
    def test_every_method_is_restartable(self, method, strategy):
        matrix, b = make_problem()
        blocked = method == "block"
        if blocked:
            b = np.stack([b, np.random.default_rng(7).standard_normal(b.size)],
                         axis=1)
        config = sed_config(strategy, interval=4)
        engine = config.engine()
        pmat = config.wrap_matrix(matrix)
        engine.add_iteration_hook(flip_matrix_value_at(3)(engine, pmat))
        runner = (protected_block_cg_run if blocked
                  else get_method(method).protected)
        result = runner(
            pmat, b, engine=engine, vector_scheme="sed",
            eps=1e-18, max_iters=4000,
        )
        columns = ([result.column(j) for j in range(result.k)] if blocked
                   else [result])
        rhs = b.T if blocked else [b]
        for col, b_col in zip(columns, rhs):
            reference = solve(matrix, b_col, method="cg" if blocked else method,
                              eps=1e-18, max_iters=4000)
            assert col.converged
            assert np.allclose(col.x, reference.x, rtol=1e-5, atol=1e-7)
        rec = result.info["recovery"]
        assert rec["rollbacks" if strategy == "rollback" else "repopulates"] >= 1

    @pytest.mark.parametrize("strategy", ["rollback", "repopulate"])
    def test_presolve_corruption_recovers_via_persistent_source(self, strategy):
        """Corruption injected *before* the solve is caught by the
        up-front forced check; with an application-held persistent
        source registered, the solve survives instead of unwinding."""
        matrix, b = make_problem()
        reference = solve(matrix, b, method="cg", eps=EPS)
        config = sed_config(strategy)
        pmat = config.wrap_matrix(matrix)
        pristine = pmat.to_csr()
        inject_into_matrix(pmat, Region.VALUES, [FaultSpec(7, 33)])
        engine = config.engine()
        engine.recovery.store.put_matrix_source(pmat, pristine, persistent=True)
        result = get_method("cg").protected(
            pmat, b, engine=engine, vector_scheme="sed", eps=EPS
        )
        assert result.converged
        assert np.allclose(result.x, reference.x, **TOL)
        assert result.info["recovery"]["recoveries"] >= 1
        assert result.info["recovery"]["matrix_reencodes"] >= 1

    def test_presolve_corruption_without_source_still_raises(self):
        matrix, b = make_problem()
        config = sed_config("rollback")
        pmat = config.wrap_matrix(matrix)
        inject_into_matrix(pmat, Region.VALUES, [FaultSpec(7, 33)])
        engine = config.engine()
        with pytest.raises(DetectedUncorrectableError):
            get_method("cg").protected(
                pmat, b, engine=engine, vector_scheme="sed", eps=EPS
            )
        # The granted-but-failed attempt must not count as a recovery.
        assert engine.recovery.stats.dues == 1
        assert engine.recovery.stats.total_recoveries == 0

    def test_solver_campaign_recovery_axis_engages_in_solve(self):
        """run_solver_campaign with recovery= must route pre-solve DUEs
        through the recovery layer (not the redo-the-solve fallback)."""
        from repro.faults import SingleBitFlip, run_solver_campaign
        from repro.recover.manager import RecoveryManager

        matrix, b = make_problem(10, seed=2)
        grants = {"n": 0}
        original = RecoveryManager.on_due

        def counting(self, exc):
            action = original(self, exc)
            grants["n"] += 1
            return action

        RecoveryManager.on_due = counting
        try:
            result = run_solver_campaign(
                matrix, b, "sed", "sed", Region.VALUES, SingleBitFlip(),
                n_trials=10, seed=0, recovery="rollback",
            )
        finally:
            RecoveryManager.on_due = original
        assert grants["n"] >= 1
        assert result.info["recovered"] >= 1
        assert result.sdc_rate == 0.0

    def test_raise_strategy_preserves_exception_surface(self):
        matrix, b = make_problem()
        with pytest.raises(DetectedUncorrectableError):
            run_cg_with_hook(
                sed_config("raise"), matrix, b, flip_matrix_value_at(3)
            )

    def test_no_recovery_preserves_exception_surface(self):
        matrix, b = make_problem()
        with pytest.raises(DetectedUncorrectableError):
            run_cg_with_hook(
                sed_config(None), matrix, b, flip_matrix_value_at(3)
            )

    def test_exhausted_budget_reraises(self):
        matrix, b = make_problem()
        config = sed_config(RecoveryPolicy(strategy="rollback", max_retries=0))
        with pytest.raises(DetectedUncorrectableError):
            run_cg_with_hook(config, matrix, b, flip_matrix_value_at(3))

    def test_budget_resets_per_solve(self):
        matrix, b = make_problem()
        config = sed_config(RecoveryPolicy(strategy="rollback", max_retries=1))
        engine = config.engine()
        for _ in range(3):  # each solve spends its own budget
            pmat = config.wrap_matrix(matrix)
            state = {"i": 0}

            def hook(pmat=pmat, state=state):
                if state["i"] == 3:
                    inject_into_matrix(pmat, Region.VALUES, [FaultSpec(7, 33)])
                    pmat.invalidate_clean_views()
                state["i"] += 1

            engine.add_iteration_hook(hook)
            result = get_method("cg").protected(
                pmat, b, engine=engine, vector_scheme="sed", eps=EPS
            )
            assert result.converged
            engine._iteration_hooks.clear()


# ---------------------------------------------------------------------------
class TestPoissonRecoveryAcceptance:
    """The ISSUE 4 acceptance test: survive a live Poisson process."""

    @pytest.mark.parametrize("strategy", ["rollback", "repopulate"])
    def test_cg_survives_poisson_dues_and_matches_reference(self, strategy):
        matrix, b = make_problem(10, seed=1)
        reference = solve(matrix, b, method="cg", eps=EPS)
        config = ProtectionConfig(
            element_scheme="sed", rowptr_scheme="sed", vector_scheme=None,
            interval=2, correct=False,
            recovery=RecoveryPolicy(strategy=strategy, max_retries=64,
                                    checkpoint_interval=4),
        )
        # SED detects but never corrects, so every hit is a DUE; scan
        # seeds until a run both injects and recovers at least once.
        for seed in range(20):
            process = PoissonProcess(2e-6, rng=np.random.default_rng(seed))
            report = faulty_solve(
                matrix, b, process, method="cg", config=config,
                eps=EPS, max_iters=3000,
            )
            if report.detected_uncorrectable >= 1:
                break
        assert report.detected_uncorrectable >= 1, "no DUE triggered; rate too low"
        assert report.recovered >= 1
        assert report.result is not None and report.result.converged
        assert np.allclose(report.result.x, reference.x, **TOL)
        assert report.silent_at_end == 0

    def test_raise_config_aborts_the_run(self):
        matrix, b = make_problem(10, seed=1)
        config = ProtectionConfig(
            element_scheme="sed", rowptr_scheme="sed", vector_scheme=None,
            interval=2, correct=False,
        )
        for seed in range(20):
            process = PoissonProcess(2e-6, rng=np.random.default_rng(seed))
            report = faulty_solve(
                matrix, b, process, method="cg", config=config,
                eps=EPS, max_iters=3000,
            )
            if report.result is None:
                break
        assert report.result is None
        assert report.recovery == "raise"
        assert report.recovered == 0


# ---------------------------------------------------------------------------
class TestSessionAndDriverRecovery:
    def test_session_exposes_manager_and_abort_step(self):
        matrix, b = make_problem()
        session = ProtectionSession(sed_config("rollback"))
        assert session.recovery is not None
        # A pre-corrupted matrix has no clean source: the DUE surfaces
        # from the up-front forced check, before recovery can engage.
        pmat = sed_config("rollback").wrap_matrix(matrix)
        inject_into_matrix(pmat, Region.VALUES, [FaultSpec(3, 40)])
        with pytest.raises(DetectedUncorrectableError):
            session.solve(pmat, b, method="cg", eps=EPS)
        session.abort_step()
        assert session.steps_completed == 0
        # Step-granularity recovery: fresh operator, same session.
        result = session.solve(matrix, b, method="cg", eps=EPS)
        session.end_step()
        assert result.converged
        assert session.steps_completed == 1

    def test_driver_step_retry_redoes_failed_step(self, monkeypatch):
        from repro.tealeaf.deck import Deck
        from repro.tealeaf.driver import TeaLeafDriver

        deck = Deck(x_cells=12, y_cells=12, end_step=2, tl_eps=1e-12,
                    tl_recovery="raise", tl_step_retries=1)
        config = deck.protection_config("sed", "sed", None)
        driver = TeaLeafDriver(deck, config)

        # Sabotage the first solve's matrix after wrapping: corrupt it
        # through the session's wrap so the solve dies exactly once.
        real_wrap = driver.session.wrap_matrix
        state = {"failures": 1}

        def sabotaged(matrix):
            pmat = real_wrap(matrix)
            if state["failures"]:
                state["failures"] -= 1
                inject_into_matrix(pmat, Region.VALUES, [FaultSpec(5, 35)])
            return pmat

        monkeypatch.setattr(driver.session, "wrap_matrix", sabotaged)
        summary = driver.run()
        assert driver.step_retries == 1
        assert summary.steps[0].info.get("step_retries") == 1
        assert all(step.converged for step in summary.steps)

    def test_driver_without_retries_still_raises(self, monkeypatch):
        from repro.tealeaf.deck import Deck
        from repro.tealeaf.driver import TeaLeafDriver

        deck = Deck(x_cells=12, y_cells=12, end_step=1, tl_eps=1e-12)
        driver = TeaLeafDriver(deck, ProtectionConfig(
            element_scheme="sed", rowptr_scheme="sed", correct=False,
        ))
        real_wrap = driver.session.wrap_matrix

        def sabotaged(matrix):
            pmat = real_wrap(matrix)
            inject_into_matrix(pmat, Region.VALUES, [FaultSpec(5, 35)])
            return pmat

        monkeypatch.setattr(driver.session, "wrap_matrix", sabotaged)
        with pytest.raises(DetectedUncorrectableError):
            driver.run()


# ---------------------------------------------------------------------------
class TestInSweepVectorRepair:
    """ISSUE 5 satellite: a vector DUE at the mandatory ``end_step()``
    sweep repopulates from the authoritative cache instead of aborting
    the window — for *any* escalating strategy, since the sweep runs
    outside every solver recurrence and a rollback target no longer
    exists there.  ``raise`` keeps the historical abort (driver
    step-retry is the fallback)."""

    @pytest.mark.parametrize("strategy", ["repopulate", "rollback"])
    def test_end_step_due_repairs_instead_of_aborting(self, strategy):
        matrix, b = make_problem()
        session = ProtectionSession(sed_config(strategy))
        result = session.solve(matrix, b, method="cg", eps=EPS)
        assert result.converged
        vectors = session.engine.registered_vectors()
        assert vectors, "the solve should leave protected state registered"
        name, vec = next(iter(vectors.items()))
        # Commit the pending window first: a flip *inside* a dirty
        # window hits dead storage and is legitimately harmless, so the
        # sweep-repair scenario needs committed codewords to corrupt.
        vec.flush()
        reference = vec.values().copy()
        inject_into_vector(vec, [FaultSpec(2, 21)])
        session.end_step()  # in-sweep repair: the window survives
        assert session.steps_completed == 1
        assert session.recovery.stats.vector_repairs == 1
        # Content-exact: the rebuild restored exactly what was computed.
        assert np.array_equal(vec.values(), reference)
        # The session stays usable; the next step is clean.
        next_result = session.solve(matrix, b, method="cg", eps=EPS)
        session.end_step()
        assert next_result.converged
        assert session.recovery.stats.vector_repairs == 1

    def test_end_step_due_still_raises_without_escalation(self):
        matrix, b = make_problem()
        session = ProtectionSession(sed_config("raise"))
        session.solve(matrix, b, method="cg", eps=EPS)
        vectors = session.engine.registered_vectors()
        _, vec = next(iter(vectors.items()))
        vec.flush()
        inject_into_vector(vec, [FaultSpec(2, 21)])
        with pytest.raises(DetectedUncorrectableError):
            session.end_step()

    def test_mid_solve_vector_check_does_not_use_sweep_repair(self):
        """Outside the sweep, rollback vector DUEs still escalate to the
        solver (checkpoint restore), not to the cache rebuild — the
        in-sweep path must not widen the mid-solve semantics."""
        from repro.protect import ProtectedVector

        config = sed_config("rollback")
        engine = config.engine()
        vec = ProtectedVector(np.arange(16.0), "sed")
        engine.read(vec)  # registers + populates the cache
        inject_into_vector(vec, [FaultSpec(1, 12)])
        with pytest.raises(DetectedUncorrectableError):
            engine.verify_vector(vec)
        assert engine.recovery.stats.vector_repairs == 0


# ---------------------------------------------------------------------------
class TestRecoveryPrimitives:
    def test_vector_rebuild_from_cache(self):
        from repro.protect import ProtectedVector

        vec = ProtectedVector(np.arange(32.0), "sed")
        assert not vec.rebuild_from_cache()  # no cache yet
        before = vec.view().copy()
        inject_into_vector(vec, [FaultSpec(3, 17)])
        assert vec.detect().any()
        assert vec.rebuild_from_cache()
        assert not vec.detect().any()
        np.testing.assert_array_equal(vec.view(), before)

    def test_matrix_reencode_from_restores_all_regions(self):
        from repro.protect import ProtectedCSRMatrix

        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "sed", "sed")
        pristine = pmat.to_csr()
        inject_into_matrix(pmat, Region.VALUES, [FaultSpec(2, 60)])
        inject_into_matrix(pmat, Region.COLIDX, [FaultSpec(4, 3)])
        inject_into_matrix(pmat, Region.ROWPTR, [FaultSpec(1, 2)])
        assert pmat.detect_any()
        pmat.reencode_from(pristine)
        assert not pmat.detect_any()
        decoded = pmat.to_csr()
        np.testing.assert_array_equal(decoded.values, pristine.values)
        np.testing.assert_array_equal(decoded.colidx, pristine.colidx)
        np.testing.assert_array_equal(decoded.rowptr, pristine.rowptr)

    def test_manager_counts_and_budget(self):
        manager = RecoveryManager(RecoveryPolicy(strategy="rollback", max_retries=1))
        exc = DetectedUncorrectableError("matrix")
        assert manager.on_due(exc) == "rollback"
        # Recoveries count only once the repair completes, so a granted
        # attempt that later fails never inflates the survival metrics.
        assert manager.stats.rollbacks == 0
        manager.note_recovered("rollback")
        with pytest.raises(DetectedUncorrectableError):
            manager.on_due(exc)
        assert manager.stats.dues == 2
        assert manager.stats.rollbacks == 1
        assert manager.stats.total_recoveries == 1
        assert manager.stats.retries_exhausted == 1
        manager.begin_solve()
        assert manager.on_due(exc) == "rollback"
