"""Continuous fault processes: MTBF-style Poisson injection over a run.

The exascale motivation is falling MTBF; this module models a memory
subject to a Poisson soft-error process (rate per bit per unit time, as
the DRAM field studies report) and drives injection *during* a solve —
between iterations, which is when real upsets strike — so the
deferred-checking semantics of §VI.A.2 (errors discovered up to N
iterations late, mandatory end-of-step sweep) can be observed end to end.

One driver, :func:`faulty_solve` — the registry-threaded harness: any
solver method, any :class:`~repro.protect.config.ProtectionConfig`
(including its ``recovery=`` strategy), faults injected through the
engine's iteration hook into the matrix *and* the live protected state
vectors.  This is what the resilience campaigns and the sharded executor
run.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import BoundsViolationError, DetectedUncorrectableError
from repro.faults.injector import Region, inject_into_matrix, inject_into_vector
from repro.faults.models import FaultSpec
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult


@dataclasses.dataclass
class PoissonProcess:
    """Homogeneous Poisson bit-flip process over a protected matrix.

    ``rate_per_bit`` is the upset probability per stored bit per exposure
    unit (one CG iteration here).  ``advance`` draws the number of events
    for an exposure window and returns concrete fault specs.
    """

    rate_per_bit: float
    rng: np.random.Generator = dataclasses.field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def advance(self, n_bits: int, exposure: float = 1.0) -> int:
        """Number of upsets in ``n_bits`` over ``exposure`` iterations."""
        lam = self.rate_per_bit * n_bits * exposure
        return int(self.rng.poisson(lam))

    def sample_region(
        self, matrix: ProtectedCSRMatrix, exposure: float = 1.0
    ) -> list[tuple[Region, FaultSpec]]:
        """Draw upsets across all three matrix regions, area-weighted."""
        regions = [
            (Region.VALUES, matrix.nnz, 64),
            (Region.COLIDX, matrix.nnz, 32),
            (Region.ROWPTR, matrix.rowptr.size, 32),
        ]
        events = []
        for region, n_elements, bits in regions:
            for _ in range(self.advance(n_elements * bits, exposure)):
                events.append(
                    (
                        region,
                        FaultSpec(
                            int(self.rng.integers(0, n_elements)),
                            int(self.rng.integers(0, bits)),
                        ),
                    )
                )
        return events

    def sample_vector(
        self, n_elements: int, exposure: float = 1.0, bits: int = 64
    ) -> list[FaultSpec]:
        """Draw upsets over one dense vector's stored doubles."""
        return [
            FaultSpec(
                int(self.rng.integers(0, n_elements)),
                int(self.rng.integers(0, bits)),
            )
            for _ in range(self.advance(n_elements * bits, exposure))
        ]


@dataclasses.dataclass
class FaultyRunReport:
    """What happened during a solve under continuous fault injection."""

    result: SolverResult | None
    injected: int
    corrected: int
    detected_uncorrectable: int
    bounds_trips: int
    silent_at_end: int
    #: Iterations at which at least one fault was injected.
    injection_iterations: list[int]
    #: In-solve recoveries the recovery layer performed (rollbacks +
    #: repopulates + transparent vector repairs); 0 without a recovery
    #: strategy.
    recovered: int = 0
    #: The recovery strategy that was in force.
    recovery: str = "raise"

    @property
    def all_accounted(self) -> bool:
        """True when no injected corruption survived undetected."""
        return self.silent_at_end == 0


def faulty_solve(
    matrix,
    b: np.ndarray,
    process: PoissonProcess,
    *,
    method: str = "cg",
    config=None,
    recovery=None,
    x0: np.ndarray | None = None,
    eps: float = 1e-16,
    max_iters: int = 500,
    vector_faults: bool = True,
) -> FaultyRunReport:
    """Any registry solver under a live fault process, with recovery.

    Faults are injected at iteration boundaries through the engine's
    iteration hook: matrix upsets are sampled area-weighted across all
    three CSR regions (and made live by invalidating the cached index
    snapshot, as a real storage upset would be), and — when
    ``vector_faults`` — the solve's registered protected state vectors
    take Poisson hits too.

    ``config`` is a :class:`~repro.protect.config.ProtectionConfig`
    (default: the paper's full protection); ``recovery`` overrides its
    recovery policy (a strategy name or
    :class:`~repro.recover.policy.RecoveryPolicy`).  With an escalating
    strategy, DUEs route through the checkpointed recovery layer and the
    run reports how many times it survived; with ``"raise"`` the first
    unrecovered DUE aborts the run (``result=None``), matching the
    historical surface.
    """
    from repro.protect.config import ProtectionConfig
    from repro.solvers.registry import get_method

    cfg = config if config is not None else ProtectionConfig.paper_default()
    if recovery is not None:
        cfg = cfg.replace(recovery=recovery)
    pmat = cfg.wrap_matrix(matrix)
    pristine = pmat.to_csr()
    engine = cfg.engine()

    state = {"iter": 0, "injected": 0}
    injection_iters: list[int] = []

    def _between_iterations() -> None:
        changed = 0
        events = process.sample_region(pmat)
        for region, spec in events:
            changed += inject_into_matrix(pmat, region, [spec])
        if events:
            # The SpMV consumes cached clean index views; drop them so
            # injected corruption is live in this iteration's compute.
            pmat.invalidate_clean_views()
        if vector_faults:
            for vec in engine.registered_vectors().values():
                changed += inject_into_vector(
                    vec, process.sample_vector(len(vec))
                )
        if changed:
            injection_iters.append(state["iter"])
        state["injected"] += changed
        state["iter"] += 1

    engine.add_iteration_hook(_between_iterations)

    runner = get_method(method)
    result = None
    dues = bounds_trips = 0
    try:
        result = runner.protected(
            pmat, b, x0, eps=eps, max_iters=max_iters,
            engine=engine, vector_scheme=cfg.vector_scheme,
        )
    except DetectedUncorrectableError:
        dues += 1
    except BoundsViolationError:
        bounds_trips += 1

    manager = engine.recovery
    recovered = 0
    strategy = "raise"
    if manager is not None:
        strategy = manager.strategy
        recovered = manager.stats.total_recoveries
        # Escalations (including the one that may have aborted the run)
        # plus transparent repairs are each one DUE detection; the
        # caught exception above was already counted by the manager.
        dues = manager.stats.dues + manager.stats.vector_repairs

    # Anything the checks and the recovery layer both missed shows up as
    # decoded matrix content that differs from pristine after the run's
    # mandatory sweep (vector state has no pristine reference — its
    # ground truth is the returned solution, which campaigns compare).
    silent = 0
    if result is not None:
        decoded = pmat.to_csr()
        if not (
            np.array_equal(decoded.values, pristine.values)
            and np.array_equal(decoded.colidx, pristine.colidx)
            and np.array_equal(decoded.rowptr, pristine.rowptr)
        ):
            silent = 1
    return FaultyRunReport(
        result=result,
        injected=state["injected"],
        corrected=engine.policy.stats.corrected,
        detected_uncorrectable=dues,
        bounds_trips=bounds_trips,
        silent_at_end=silent,
        injection_iterations=injection_iters,
        recovered=recovered,
        recovery=strategy,
    )
