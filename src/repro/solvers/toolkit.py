"""Shared protected-iteration plumbing for engine-threaded solvers.

Every protected solver used to carry its own copy of the same three
closures — ``wrap`` (put a state vector under ECC and register it),
``read`` (decode-free cached view through the engine) and ``write``
(dirty-window buffered commit) — plus the same schedule-resolution,
finalize, recovery and counter-reporting boilerplate.
:class:`ProtectedIteration` is that plumbing extracted once, so a
protected solver body reads like its textbook counterpart:

    ctx = ProtectedIteration(matrix, engine=..., vector_scheme=...)
    x = ctx.wrap(x0, "x")
    ...
    def loop():                 # the recurrence, to convergence
        nonlocal x, it
        while it < max_iters:
            ctx.begin_iteration()
            w = ctx.spmv(ctx.read(p))
            x = ctx.write(x, ctx.read(x) + alpha * p_val)
            ...
            ctx.maybe_checkpoint(it)
        return x

    def restart(saved):         # after a recovered DUE
        nonlocal it
        if saved is not None:
            it = int(saved["it"])
        ...re-derive the recurrence from ctx.read(x)...

    x_final = ctx.run(loop, restart)
    return SolverResult(x=x_final, ..., info=ctx.info())

When a :class:`~repro.protect.session.ProtectionSession` owns the engine,
the context registers its transient state with the session instead of
finalizing/unregistering itself, so dirty windows and check phases span
solve (and TeaLeaf time-step) boundaries until ``session.end_step()``.

The context is also where solvers become *restartable*, in one place:
:meth:`ProtectedIteration.run`.  With an escalating
:class:`~repro.recover.policy.RecoveryPolicy` attached to the engine,
:meth:`ProtectedIteration.maybe_checkpoint` snapshots the live state
vectors on the policy's cadence and a DUE caught by ``run`` becomes
either a rollback (state restored from the checkpoint) or an in-place
repopulate (damaged containers rebuilt from pristine sources), after
which the body's ``restart`` re-seeds its recurrence from the
authoritative iterate.  Without recovery the DUE propagates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import BoundsViolationError, ConfigurationError
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.vector import ProtectedBlockVector, ProtectedVector
from repro.recover.policy import RECOVERABLE_ERRORS
from repro.solvers.base import LinearOperator


class ProtectedIteration:
    """The per-solve context every engine-threaded solver shares.

    Parameters
    ----------
    matrix:
        The :class:`ProtectedCSRMatrix` being solved against; registered
        with the engine and force-verified up front (when matrix checks
        are enabled) so nothing downstream consumes unverified storage.
    engine:
        The schedule: its policy drives checks and counts them.  Defaults
        to the session's engine, or else a fresh engine checking on every
        access.  Outside a session the policy's phase restarts here.
    vector_scheme:
        Scheme for the solver's dense state vectors, or ``None`` to run
        them unprotected (matrix-only configurations).
    session:
        When set, the owning :class:`ProtectionSession`: the context
        skips the per-solve finalize/unregister and hands its transient
        regions to the session for release at the next ``end_step()``.
    """

    def __init__(
        self,
        matrix: ProtectedCSRMatrix,
        *,
        engine: DeferredVerificationEngine | None = None,
        vector_scheme: str | None = "secded64",
        session=None,
    ):
        if session is not None:
            # Session mode defers the mandatory sweep to session.end_step(),
            # which finalizes *the session's* engine — running this solve on
            # any other engine would silently skip that sweep.
            engine = engine or session.engine
            if engine is not session.engine:
                raise ConfigurationError(
                    "session and engine disagree; pass the session's engine "
                    "or let it be derived from the session"
                )
        self.engine = engine or DeferredVerificationEngine()
        self.policy = self.engine.policy
        if session is None:
            self.policy.reset()
        self.matrix = matrix
        self.vector_scheme = vector_scheme
        self.protect_vectors = vector_scheme is not None
        self.session = session
        self._state: list[ProtectedVector] = []
        self._named_state: list[tuple[str, ProtectedVector]] = []
        self._spmv_out: np.ndarray | None = None
        #: True when due matrix checks run fused inside the engine's SpMVs.
        #: Requires both the policy knob and a matrix scheme that
        #: supports the fused kernel — non-fusible schemes (sed, crc32c,
        #: secded128) keep the classic schedule, including the up-front
        #: forced sweep below.
        self.fused = self.policy.fused_verify and matrix.supports_fused_verify()
        self.recovery = self.engine.recovery
        if self.recovery is not None:
            self.recovery.begin_solve()
        self.engine.register(matrix, "matrix")
        # Snapshot the (possibly session-cumulative) counters so info()
        # can report this solve's own work; taken before the up-front
        # forced check so that check is attributed to this solve.
        self._stats_at_start = dataclasses.replace(self.policy.stats)
        self._recovery_stats_at_start = (
            dataclasses.replace(self.recovery.stats)
            if self.recovery is not None else None
        )
        # Fused solves without recovery skip the up-front forced sweep:
        # the first due engine product (access 0) verifies every codeword
        # it consumes *before* anything derived from the matrix escapes,
        # so the sweep would only re-read storage the fused kernel is
        # about to verify anyway.  With recovery attached the sweep
        # stays — the pristine to_csr() source below must be decoded
        # from verified-clean storage.
        skip_init = (
            self.policy.interval != 0 and self.fused and self.recovery is None
        )
        self._init_check_skipped = skip_init
        try:
            if not skip_init and self.policy.interval != 0:
                self.engine.verify_matrix(matrix)
        except RECOVERABLE_ERRORS as exc:
            # Corruption that predates the solve.  Repairable only from
            # an application-held (persistent) source — the campaign's
            # own pristine copy — since no verified-clean decode of this
            # matrix exists yet; without one, the historical raise.
            if self.recovery is None:
                raise
            action = self.recovery.on_due(exc)  # spends a retry or re-raises
            if not self.recovery.repair_matrix(matrix):
                raise
            self.engine.verify_matrix(matrix)
            self.recovery.note_recovered(action)
        if self.recovery is not None:
            # The pristine source for repopulate/rollback, decoded right
            # after the forced verification so it is a verified-clean
            # copy of the solve-invariant matrix.
            self.recovery.store.put_matrix_source(matrix, matrix.to_csr())

    @property
    def n(self) -> int:
        """Problem size (number of unknowns)."""
        return self.matrix.n_rows

    # -- state-vector plumbing ------------------------------------------
    def wrap(self, values: np.ndarray, name: str):
        """Protect a state iterate (or copy it plain when vectors are off).

        A 1-D iterate goes behind a :class:`ProtectedVector`; a blocked
        ``(k, n)`` iterate behind one :class:`ProtectedBlockVector`, so
        all ``k`` columns share one dirty window, one scheduled check
        and one cache populate regardless of the block width.
        """
        values = np.asarray(values, dtype=np.float64)
        if not self.protect_vectors:
            return values.copy()
        store = ProtectedVector if values.ndim == 1 else ProtectedBlockVector
        vec = self.engine.register(store(values, self.vector_scheme), name)
        self._state.append(vec)
        self._named_state.append((name, vec))
        if self.session is not None:
            self.session.track(vec)
        return vec

    def read(self, container) -> np.ndarray:
        """Decode-free engine read in the iterate's own shape (identity
        for plain arrays)."""
        return self.engine.read(container) if self.protect_vectors else container

    def write(self, container, values: np.ndarray):
        """Commit through the engine's write mode; returns the container."""
        if not self.protect_vectors:
            return values
        self.engine.write(container, values)
        return container

    def value_of(self, container) -> np.ndarray:
        """The container's computation-ready values (final-result read)."""
        if not self.protect_vectors:
            return container
        return container.values().reshape(container.shape)

    # -- schedule hooks -------------------------------------------------
    def begin_iteration(self) -> None:
        """Per-iteration scheduling point: engine hooks + vector checks.

        Always reaches the engine so iteration hooks (live fault
        injection, progress callbacks) fire even in matrix-only solves;
        the engine itself skips vector scheduling when it tracks none.
        """
        self.engine.begin_iteration()

    def spmv(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ x`` on the context's matrix through the engine schedule.

        ``x`` is a vector or a ``(k, n)`` block, one right-hand side per
        row.
        """
        return self.engine.spmv(self.matrix, x, out=out)

    def spmv_out(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        """The context's persistent SpMV result buffer.

        For products whose result is consumed within the iteration (CG's
        ``w = A p``): pass as ``out=`` so the engine's inner loop never
        allocates.  ``lead`` is the operand's leading shape (``(k,)``
        for a blocked iterate); the buffer is reallocated only when it
        changes.  One buffer per context — don't use it for two
        overlapping products.
        """
        if self._spmv_out is None or self._spmv_out.shape[:-1] != lead:
            self._spmv_out = np.empty(lead + (self.n,), dtype=np.float64)
        return self._spmv_out

    def verified_operator(self) -> LinearOperator:
        """The matrix as a plain operator over verified-clean decode views.

        For what a solver reads outside the engine schedule and then
        keeps for the whole solve — the diagonal, the spectral bounds
        that tune a Chebyshev polynomial — which must never come from
        unverified storage.  Fused solves defer initial verification to
        their first due engine product, so the up-front sweep they
        skipped is forced here first (once).  Only matvec and the
        diagonal: no whole-matrix ``to_csr()`` decode.
        """
        if self._init_check_skipped:
            self._init_check_skipped = False
            self.engine.verify_matrix(self.matrix)
        matrix = self.matrix
        return LinearOperator(matrix.matvec_unchecked, matrix.n_rows, matrix.diagonal)

    def initial_spmv(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """The residual-seeding product ``A @ x0``, verification-aware.

        Fused solves route it through the engine so the very first
        matrix consumption is a verified (due) fused product — this is
        what lets the up-front forced sweep be skipped.  Non-fused
        solves keep the historical behaviour: the up-front sweep already
        verified storage, so the seed product is a plain
        ``matvec_unchecked`` that does not advance the check schedule.
        """
        if self.fused:
            return self.engine.spmv(self.matrix, x, out=out)
        return self.matrix.matvec_unchecked(x, out=out)

    def finish(self) -> None:
        """End-of-solve: the mandatory sweep, then release the transients.

        In session mode both are deferred to ``session.end_step()`` so
        dirty windows span the solve boundary.
        """
        if self.session is not None:
            return
        self.engine.finalize()
        for vec in self._state:
            self.engine.unregister(vec)

    # -- DUE recovery ---------------------------------------------------
    def run(self, loop, restart) -> np.ndarray:
        """Drive a solver body to its final iterate: the one recovery site.

        ``loop()`` iterates the body's recurrence to convergence (or its
        iteration budget) and returns the iterate's container; ``run``
        then reads the final values and calls :meth:`finish`, whose
        mandatory sweep (§VI.A.2) may itself detect damage.  An integrity
        error anywhere in that goes to :meth:`recover` — which re-raises
        unless the recovery policy repairs the state — and the restored
        checkpoint scalars (or ``None`` after an in-place repopulate) go
        to ``restart(saved)``, which re-seeds the recurrence from the
        authoritative iterate before ``loop()`` resumes.
        """
        while True:
            try:
                x_final = self.value_of(loop())
                self.finish()
                return x_final
            except RECOVERABLE_ERRORS as exc:
                restart(self.recover(exc))

    def maybe_checkpoint(self, it: int, **scalars) -> None:
        """Snapshot the live state for rollback, on the policy's cadence.

        No-op unless the engine carries a rollback recovery policy; a
        checkpoint is always taken at iteration 0 so a rollback target
        exists from the first DUE on.  Vector contents are read through
        :meth:`ProtectedVector.values`, which returns the buffered cache
        while a deferred write is pending — the checkpoint captures the
        solver's authoritative state, not a stale storage snapshot.
        """
        r = self.recovery
        if r is None or r.strategy != "rollback":
            return
        if it != 0 and it % r.policy.checkpoint_interval:
            return
        # values() allocates a fresh masked decode per vector — hand the
        # arrays to the store as-is (copy=False) rather than copying the
        # whole state a second time every checkpoint.
        vectors = {name: vec.values() for name, vec in self._named_state}
        r.store.snapshot(vectors, {"it": int(it), **scalars}, copy=False)

    def recover(self, exc: BaseException) -> dict | None:
        """Handle a caught integrity error per the recovery policy.

        Called by :meth:`run`, and by callers that own the restart
        themselves (a dist shard, whose coordinator restarts the
        recurrence).  Returns the checkpoint's scalar dict
        (``{"it": ..., ...}``) when
        state was rolled back — the solver resets its counters from it —
        or ``None`` when the damaged containers were repopulated in
        place and the solver should restart its recurrence from the
        *current* iterate.  Re-raises ``exc`` when recovery is disabled,
        the strategy is ``"raise"``, the retry budget is exhausted, or
        no repair path exists (no pristine source, no cache, no
        checkpoint).
        """
        if self.recovery is None:
            raise exc
        action = self.recovery.on_due(exc)  # spends one retry or raises
        self._repair_matrix(exc)
        if action == "rollback":
            saved = self.recovery.store.latest()
            if saved is not None and saved.vectors:
                for name, vec in self._named_state:
                    values = saved.vectors.get(name)
                    if values is not None:
                        vec.store(values)
                self.recovery.note_recovered(action)
                return dict(saved.scalars)
            # Matrix-only solve (nothing checkpointed): the repaired
            # matrix plus a recurrence restart is a full recovery, so
            # fall through to the repopulate behaviour.
        self._repair_vectors(exc)
        self.recovery.note_recovered(action)
        return None

    def _repair_matrix(self, exc: BaseException) -> None:
        """Rebuild the matrix from its pristine source if it is damaged."""
        matrix = self.matrix
        try:
            corrupted = matrix.detect_any()
            if not corrupted:
                # Codewords are fine but the error may have been a raw
                # index flip caught by the snapshot guard — revalidate.
                matrix.bounds_check()
                return
        except BoundsViolationError:
            corrupted = True
        if not self.recovery.repair_matrix(matrix):
            raise exc

    def _repair_vectors(self, exc: BaseException) -> None:
        """Repopulate damaged state vectors from cache or checkpoint."""
        saved = self.recovery.store.latest()
        for name, vec in self._named_state:
            if not vec.detect().any():
                continue
            if vec.rebuild_from_cache():
                continue
            values = saved.vectors.get(name) if saved is not None else None
            if values is None:
                raise exc
            vec.store(values)

    def info(self, **extra) -> dict:
        """The uniform counter block every protected solver reports.

        Counters are *this solve's own* (deltas against the start-of-solve
        snapshot), so a shared session engine still yields per-step
        numbers; the session-cumulative totals stay on ``session.stats``.
        Sweep work a session defers to ``end_step()`` lands after this
        report and is therefore only visible on the cumulative counters.
        """
        stats, base = self.policy.stats, self._stats_at_start
        out = {
            "full_checks": stats.full_checks - base.full_checks,
            "stripe_checks": stats.stripe_checks - base.stripe_checks,
            "bounds_checks": stats.bounds_checks - base.bounds_checks,
            "vector_checks": stats.vector_checks - base.vector_checks,
            "cached_reads": stats.cached_reads - base.cached_reads,
            "deferred_stores": stats.deferred_stores - base.deferred_stores,
            "dirty_flushes": stats.dirty_flushes - base.dirty_flushes,
            "corrected": stats.corrected - base.corrected,
            "fused_products": stats.fused_products - base.fused_products,
            "sweeps_skipped": stats.sweeps_skipped - base.sweeps_skipped,
            "vector_scheme": self.vector_scheme,
        }
        if self.recovery is not None:
            rs, rb = self.recovery.stats, self._recovery_stats_at_start
            out["recovery"] = {
                "strategy": self.recovery.strategy,
                "dues": rs.dues - rb.dues,
                "recoveries": rs.total_recoveries - rb.total_recoveries,
                "rollbacks": rs.rollbacks - rb.rollbacks,
                "repopulates": rs.repopulates - rb.repopulates,
                "vector_repairs": rs.vector_repairs - rb.vector_repairs,
                "matrix_reencodes": rs.matrix_reencodes - rb.matrix_reencodes,
            }
        out.update(extra)
        return out
