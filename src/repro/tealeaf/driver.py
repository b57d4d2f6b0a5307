"""The TeaLeaf time-step driver, plain or fully protected.

Each time-step solves ``(I + dt L) u_new = u_old`` with the deck-selected
solver.  The matrix does not change within a step — the property the
"less frequent checking" optimisation exploits — and is reassembled per
step (TeaLeaf reassembles when the conductivity field changes; for the
linear problem it is constant, but we keep the per-step assembly to match
the miniapp's structure and the paper's 5-step benchmark runs).

The driver owns one :class:`~repro.protect.session.ProtectionSession`
for the whole run — an :meth:`~repro.protect.config.ProtectionConfig.off`
session when unprotected: every step's solve — *any* deck solver, CG,
PPCG, Jacobi or Chebyshev, with or without vector protection — threads
through the session's long-lived deferred-verification engine, and the
mandatory end-of-step sweep runs every ``tl_step_window`` steps, so the
engine's dirty windows can span time-step boundaries (ROADMAP's
engine-scheduled driver windows).

Resilience is layered on two granularities:

* **in-solve** — the deck's ``tl_recovery`` knob arms the checkpointed
  recovery layer (:mod:`repro.recover`), so a DUE mid-solve rolls back
  or repopulates instead of unwinding;
* **per-step** — ``tl_step_retries > 0`` lets the driver redo a step
  whose solve still died: the operator is reassembled from field state
  (pristine by construction — ``u`` is only committed after a verified
  solve) and the session's window restarts via ``abort_step``.

With vector protection enabled, the temperature field itself lives in a
:class:`~repro.protect.vector.ProtectedVector` across the whole run and
each step's solution is committed through *row-windowed* stores
(``store(window=...)``, one grid row — a halo-exchange-sized strip — at
a time), so the windowed encode path runs at scale in the assembly/commit
loop rather than only in unit tests.

The old ``ProtectedOperator`` fallback for non-CG methods and its
"vector protection is only implemented for the CG solver" restriction
are gone.
"""

from __future__ import annotations

import dataclasses
import time

from repro.protect.config import ProtectionConfig, _solve_config
from repro.protect.session import ProtectionSession
from repro.protect.vector import ProtectedVector
from repro.recover.policy import RECOVERABLE_ERRORS
from repro.solvers.chebyshev import estimate_eigenvalue_bounds
from repro.solvers.registry import solve
from repro.tealeaf.assembly import build_operator
from repro.tealeaf.deck import Deck
from repro.tealeaf.state import TeaLeafState


@dataclasses.dataclass
class StepResult:
    """Per-time-step record."""

    step: int
    iterations: int
    residual: float
    converged: bool
    wall_time: float
    info: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RunSummary:
    """Whole-run record (the paper's measurement unit)."""

    steps: list[StepResult]
    field_summary: dict[str, float]
    wall_time: float

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.steps)


class TeaLeafDriver:
    """Runs a deck to completion, optionally under ABFT protection.

    Parameters
    ----------
    deck:
        The parsed TeaLeaf input deck (solver choice, grid, ``tl_*``
        engine knobs).
    protection:
        A :class:`ProtectionConfig`, or ``None`` for an unprotected run.
    """

    def __init__(self, deck: Deck, protection: ProtectionConfig | None = None):
        self.deck = deck
        self.state = TeaLeafState(deck)
        self.protection = protection
        self.session = ProtectionSession(_solve_config(protection))
        self._u_protected: ProtectedVector | None = None
        if self.session.config.protects_vectors:
            # The solved field is application state that persists across
            # steps — keep it under the same ECC scheme as the solver
            # vectors, committed by row-windowed stores.
            self._u_protected = ProtectedVector(
                self.state.u.ravel(), self.session.config.vector_scheme
            )
        self._eig_bounds = None
        self._steps_in_window = 0
        self.step_retries = 0

    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        t0 = time.perf_counter()
        steps = [self.step() for _ in range(self.deck.end_step)]
        self.finish()
        return RunSummary(
            steps=steps,
            field_summary=self.state.field_summary(),
            wall_time=time.perf_counter() - t0,
        )

    def step(self) -> StepResult:
        t0 = time.perf_counter()
        dt = self.deck.initial_timestep
        b = self._step_rhs()
        attempts = 0
        while True:
            matrix = build_operator(self.state, dt)
            kwargs = self._method_kwargs(matrix)
            try:
                result = solve(
                    matrix, b, b,
                    method=self.deck.solver,
                    protection=self.session,
                    eps=self.deck.tl_eps,
                    max_iters=self.deck.tl_max_iters,
                    **kwargs,
                )
                break
            except RECOVERABLE_ERRORS:
                # Step-granularity recovery: the session released the
                # failed window's regions when the error unwound; the
                # field state is pristine (only committed after verified
                # solves), so reassembling the operator and redoing the
                # step is a full recovery — if the deck allows it.
                attempts += 1
                if attempts > self.deck.tl_step_retries:
                    raise
                self.step_retries += 1
                self.session.abort_step()
                self._steps_in_window = 0
        self._steps_in_window += 1
        if self._steps_in_window >= max(self.deck.tl_step_window, 1):
            self.session.end_step()
            self._steps_in_window = 0
        else:
            # Window stays open: verify-and-release this step's finished
            # regions (the per-step matrix, flushed vectors) so memory and
            # sweep cost stay flat across the window; dirty vectors keep
            # spanning the boundary.
            self.session.retire_step()
        self._commit_temperature(result.x)
        self.state.step += 1
        self.state.time += dt
        info = dict(result.info, step_retries=attempts) if attempts else result.info
        return StepResult(
            step=self.state.step,
            iterations=result.iterations,
            residual=result.final_residual,
            converged=result.converged,
            wall_time=time.perf_counter() - t0,
            info=info,
        )

    def finish(self) -> None:
        """Close any window left open by ``tl_step_window > 1``.

        The mandatory sweep must not be skipped just because the run
        length does not divide the step window (§VI.A.2's "just in case
        N does not divide" rule, lifted to time-steps).  The protected
        temperature field gets its own end-of-run check: it is the
        run's *output*, so it must leave as a verified commit too.
        """
        if self._steps_in_window:
            self.session.end_step()
            self._steps_in_window = 0
        if self._u_protected is not None:
            self._u_protected.check(correct=self.protection.correct)

    # ------------------------------------------------------------------
    def _step_rhs(self):
        """This step's right-hand side: the (possibly protected) field."""
        if self._u_protected is not None:
            return self._u_protected.values()
        return self.state.u.ravel().copy()

    def _commit_temperature(self, x) -> None:
        """Commit a solved field, through row-windowed stores when protected.

        One ``store(window=...)`` per grid row — the halo-exchange-sized
        strip a distributed TeaLeaf would communicate — so only the
        codeword lanes each row touches are re-encoded and the windowed
        encode path is exercised at scale, every step.
        """
        if self._u_protected is not None:
            nx = self.deck.x_cells
            for j in range(self.deck.y_cells):
                lo = j * nx
                self._u_protected.store(x[lo:lo + nx], window=(lo, lo + nx))
            x = self._u_protected.values()
        self.state.update_from_temperature(x)

    # ------------------------------------------------------------------
    def _method_kwargs(self, matrix) -> dict:
        """Per-method extras: spectral bounds, estimated once per run."""
        if self.deck.solver == "chebyshev":
            if self._eig_bounds is None:
                self._eig_bounds = estimate_eigenvalue_bounds(matrix)
            lo, hi = self._eig_bounds
            return {"eig_min": lo, "eig_max": hi}
        if self.deck.solver == "ppcg":
            if self._eig_bounds is None:
                self._eig_bounds = estimate_eigenvalue_bounds(matrix)
            return {"eig_bounds": self._eig_bounds}
        return {}
