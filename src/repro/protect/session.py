"""`ProtectionSession`: one engine, many solves, cross-step dirty windows.

The deferred-verification engine amortises integrity work *within* one
solve; a session amortises it *across* solves.  TeaLeaf-style drivers
solve one linear system per time-step, and rebuilding the engine per step
forfeits the schedule's memory: every step restarts the check phase and
pays a mandatory sweep even when the window has barely opened.  A session
instead owns a single :class:`~repro.protect.engine.DeferredVerificationEngine`
for its whole lifetime:

* :meth:`solve` (``repro.solve(..., protection=session)``) wraps the
  matrix per the config, runs the registry's engine-threaded solver,
  and — crucially — *skips* the per-solve ``finalize``: dirty windows
  and check phases carry over into the next solve, so a window opened
  near the end of time-step *k* keeps accumulating through time-step
  *k+1*;
* :meth:`end_step` is the paper's mandatory end-of-time-step sweep
  (§VI.A.2): every dirty window is flushed, every region read since its
  last check is re-verified, the regions wrapped since the previous sweep
  are released, and the schedule phase restarts.

Callers decide the sweep cadence — after every step for the paper's
semantics, or every N steps for engine-scheduled driver windows that span
time-steps (the TeaLeaf driver's ``tl_step_window`` deck knob).
"""

from __future__ import annotations

import numpy as np

from repro.errors import BoundsViolationError, DetectedUncorrectableError
from repro.protect.config import ProtectionConfig, _solve_config, _wrap_for_solve
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import PolicyStats
from repro.protect.vector import ProtectedVector


class ProtectionSession:
    """Owns one engine across many solves; sweeps on :meth:`end_step`.

    Parameters
    ----------
    config:
        The :class:`ProtectionConfig` driving every solve in the session.
        Defaults to :meth:`ProtectionConfig.paper_default`.  A disabled
        config (no region carries redundancy) runs as
        :meth:`ProtectionConfig.off`, exactly as ``repro.solve`` runs it:
        the session still owns an engine, which schedules nothing.
    """

    def __init__(self, config: ProtectionConfig | None = None):
        self.config = _solve_config(
            config if config is not None else ProtectionConfig.paper_default()
        )
        self.engine = self.config.engine()
        self._transient: list = []
        self.steps_completed = 0

    # -- introspection --------------------------------------------------
    @property
    def policy(self):
        """The session-wide scheduler."""
        return self.engine.policy

    @property
    def stats(self) -> PolicyStats:
        """Cumulative policy counters across every solve so far."""
        return self.engine.policy.stats

    @property
    def recovery(self):
        """The session's :class:`~repro.recover.manager.RecoveryManager`.

        ``None`` when the config's recovery policy is absent /
        ``"raise"``.  Shared by every solve in the session; the retry
        budget resets per solve, the stats accumulate.
        """
        return self.engine.recovery

    def pending_windows(self) -> int:
        """Dirty windows currently open across the session's regions.

        Non-zero between :meth:`solve` and :meth:`end_step` is exactly the
        cross-step deferral in action: buffered writes from a finished
        solve that have not been re-encoded yet.
        """
        return sum(
            1
            for region in self._transient
            if isinstance(region, ProtectedVector) and region.dirty_window is not None
        )

    # -- region lifecycle -----------------------------------------------
    def track(self, region) -> None:
        """Mark a region for release at the next :meth:`end_step` (once)."""
        if all(existing is not region for existing in self._transient):
            self._transient.append(region)

    def wrap_matrix(self, matrix) -> ProtectedCSRMatrix:
        """Wrap a matrix for a solve under the config; track it for the sweep.

        Wrapping follows :func:`~repro.protect.config._wrap_for_solve`
        (encoded, passed through, or a no-copy null codec).  Pre-wrapped
        matrices are still tracked: the solve registers them with the
        long-lived engine, so without release at ``end_step`` a session
        looping over fresh matrices would sweep (and keep) every dead one
        forever.  A caller reusing one matrix across steps loses nothing —
        the next solve re-registers it.
        """
        pmat = _wrap_for_solve(self.config, matrix)
        self.track(pmat)
        return pmat

    # -- solving under the session --------------------------------------
    def solve(self, A, b: np.ndarray, x0: np.ndarray | None = None, *,
              method: str = "cg", eps: float = 1e-15, max_iters: int = 10_000,
              **kwargs):
        """``repro.solve(A, b, ..., protection=self)``.

        ``A`` may be a plain :class:`~repro.csr.matrix.CSRMatrix` (wrapped
        per the config) or an already-protected matrix; ``b`` a vector
        or a 2-D ``(n, k)`` block.  The solve's mandatory sweep is
        deferred to :meth:`end_step`, so the engine's dirty windows
        survive the solve boundary.
        """
        from repro.solvers.registry import solve

        return solve(A, b, x0, method=method, protection=self, eps=eps,
                     max_iters=max_iters, **kwargs)

    def run(self, runner, A, b, x0=None, **kwargs):
        """Run an engine-threaded ``runner`` on this session's engine.

        What the session adds to a solve: the matrix is wrapped (and
        tracked) per the config, the runner shares the long-lived engine
        and defers its sweep to :meth:`end_step`, and a solve aborted by
        an integrity error aborts the whole deferral window — *every*
        tracked region is released before re-raising, because once
        corruption is detected anywhere in the window the results
        produced since the last sweep are unverified and must be
        recomputed from pristine data.  Keeping any of them registered
        would poison every later sweep; releasing them lets the paper's
        recovery story (re-encode, retry, no checkpoint restart)
        continue on this session.
        """
        try:
            pmat = self.wrap_matrix(A)
            return runner(
                pmat, b, x0, engine=self.engine,
                vector_scheme=self.config.vector_scheme, session=self, **kwargs,
            )
        except (DetectedUncorrectableError, BoundsViolationError):
            self._release_all()
            raise

    def retire_step(self) -> None:
        """Verify-and-release the window's finished regions early.

        With sweeps deferred across steps (driver step windows), per-step
        regions would otherwise pile up until the window sweep: memory
        and sweep cost grow with the window length, and a late flip in
        long-dead storage could abort the run spuriously.  Retiring runs
        each finished region's full check *now* (the same detection
        guarantee, delivered earlier) and unregisters it; vectors with
        open dirty windows keep spanning the boundary until the sweep.
        """
        kept, retired = [], []
        for region in self._transient:
            if isinstance(region, ProtectedVector) and region.dirty_window is not None:
                kept.append(region)
            else:
                retired.append(region)
        self._transient = kept
        try:
            for region in retired:
                if isinstance(region, ProtectedCSRMatrix):
                    if self.engine.policy.interval != 0:
                        self.engine.verify_matrix(region)
                else:
                    self.engine.verify_vector(region)
        except (DetectedUncorrectableError, BoundsViolationError):
            self._release_all()
            raise
        finally:
            for region in retired:
                self.engine.unregister(region)

    def abort_step(self) -> None:
        """Reset the schedule after a failed solve, without counting a step.

        :meth:`solve` already released every tracked region when the
        integrity error unwound, so there is nothing left to sweep; what
        remains is restarting the check phase so a caller that recovers
        at *step* granularity (rebuild inputs from pristine state, redo
        the step — the TeaLeaf driver's mode) re-enters a clean window
        instead of inheriting the failed one's counters mid-phase.
        """
        self._release_all()
        self.engine.policy.reset()

    def end_step(self) -> None:
        """The mandatory sweep: flush, verify, release, restart the phase.

        The tracked regions are released even when the sweep detects
        uncorrectable damage — a DUE here ends the window either way,
        and keeping the dead regions registered would make every later
        sweep re-raise from storage nothing reads any more.
        """
        try:
            self.engine.finalize()
        finally:
            self._release_all()
            self.engine.policy.reset()
        self.steps_completed += 1

    def _release_all(self) -> None:
        for region in self._transient:
            self.engine.unregister(region)
        self._transient.clear()

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "ProtectionSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An in-flight integrity error already aborted the step (and
        # solve() released the failed regions); anything else — clean
        # exit or an unrelated exception — still owes the completed
        # solves their mandatory sweep, so earlier results the caller
        # keeps were verified per §VI.A.2.  A DUE raised here propagates
        # with the original exception chained.
        if exc_type is not None and issubclass(
            exc_type, (DetectedUncorrectableError, BoundsViolationError)
        ):
            return
        self.end_step()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtectionSession(config={self.config!r}, "
            f"steps_completed={self.steps_completed}, "
            f"pending_windows={self.pending_windows()})"
        )
