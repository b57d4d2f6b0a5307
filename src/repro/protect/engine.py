"""Deferred-verification engine: dirty windows + amortised integrity checks.

Checking on every read and re-encoding on every write makes full
protection ~45x slower than the unprotected solve.  Hoemmen-style
selective reliability and the paper's own check-interval model
(§VI.A.2) both amortise that cost: integrity is verified once per
*window* of iterations instead of once per access, with cheap range
checks in between and one mandatory sweep at the end.  ``interval=1``
is the every-access mode.

The engine is the only code that schedules, accounts for or raises on
a matrix check — solvers, :class:`~repro.protect.operator.ProtectedOperator`
and the overhead harness all verify through it.  It owns that schedule
for a solve:

* **decode-free reads** — :meth:`read` returns the region's cached plain
  ``float64`` view (:meth:`ProtectedVector.view`), so dots and axpys run
  at NumPy speed between checks;
* **dirty-window writes** — :meth:`write` buffers stores in the cache
  and re-encodes only the accumulated dirty codeword window at the next
  scheduled check (``CheckPolicy.defer_writes``);
* **amortised verification** — :meth:`begin_iteration` and :meth:`spmv`
  consult the per-region :class:`~repro.protect.policy.CheckPolicy`
  schedule and verify only regions actually read since their last check;
* **mandatory sweep** — :meth:`finalize` flushes every dirty window and
  re-verifies everything whenever checks were deferred, so a bit flip
  injected mid-window is detected (or corrected) no later than the next
  scheduled check or the end-of-step sweep.

Detection guarantees, precisely: a flip in protected storage that lands
*outside* a dirty window is detected at the next scheduled check of that
region; a flip *inside* a dirty window hits dead storage (the buffered
cache is authoritative and overwrites it at flush) and is therefore
harmless.  Flips in the plain cache itself model compute-side upsets,
which embedded-ECC schemes never claimed to cover.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, DetectedUncorrectableError
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.protect.vector import ProtectedVector


class DeferredVerificationEngine:
    """Schedules integrity work for one protected solve.

    Regions (protected vectors and matrices) are registered up front or
    lazily on first use; reads and writes then flow through the engine,
    which batches verification per the policy's intervals.

    ``recovery`` attaches a :class:`~repro.recover.manager.RecoveryManager`:
    a vector check that finds uncorrectable damage first offers the
    manager a transparent repair (rebuild from the authoritative plain
    cache — sound because reads never consume raw storage) before
    raising; matrix damage always escalates, because deferred checking
    means SpMVs may already have consumed it and only the solver can
    restart its recurrence.
    """

    def __init__(self, policy: CheckPolicy | None = None, recovery=None):
        self.policy = policy or CheckPolicy(interval=1, correct=True)
        self.recovery = recovery
        self._vectors: dict[int, tuple[str, ProtectedVector]] = {}
        self._matrices: dict[int, tuple[str, ProtectedCSRMatrix]] = {}
        self._read_since_check: set[int] = set()
        self._stripe_cursor: dict[int, int] = {}
        self._iteration_hooks: list = []
        # Consumption-coverage accounting for fused verification: the
        # matrices whose *last* SpMV verified every codeword it consumed
        # (a due fused product), with nothing consumed unverified since.
        # Only those may skip the end-of-step sweep — a non-due access
        # consumes values live and immediately clears the claim.
        self._fused_cover: set[int] = set()

    @property
    def stats(self):
        """The engine's accumulated check/verification statistics."""
        return self.policy.stats

    # -- registration ---------------------------------------------------
    def register(self, region, name: str | None = None):
        """Track a :class:`ProtectedVector` or :class:`ProtectedCSRMatrix`."""
        if isinstance(region, ProtectedVector):
            self._vectors[id(region)] = (name or f"vector{len(self._vectors)}", region)
        elif isinstance(region, ProtectedCSRMatrix):
            self._matrices[id(region)] = (name or f"matrix{len(self._matrices)}", region)
        else:
            raise ConfigurationError(
                f"cannot register {type(region).__name__}; expected a protected region"
            )
        return region

    def unregister(self, region) -> None:
        """Stop tracking a region.

        Solvers sharing one engine across solves release their transient
        state vectors here so finalize sweeps and memory don't grow with
        every solve; unknown regions are ignored.
        """
        key = id(region)
        self._vectors.pop(key, None)
        self._matrices.pop(key, None)
        self._read_since_check.discard(key)
        self._stripe_cursor.pop(key, None)
        self._fused_cover.discard(key)

    def registered_vectors(self) -> dict[str, ProtectedVector]:
        """Name → vector mapping of the currently tracked dense regions.

        The live-injection harness (:mod:`repro.faults.process`) uses
        this to aim upsets at whatever state the current solve actually
        keeps in protected storage.
        """
        return {name: vector for name, vector in self._vectors.values()}

    def add_iteration_hook(self, hook) -> None:
        """Run ``hook()`` at every iteration boundary, before any checks.

        Iteration boundaries (:meth:`begin_iteration`) are where real
        upsets strike relative to the check schedule, so the fault
        process injects here; anything else that must observe the solve
        at iteration granularity (progress callbacks, adaptive policies)
        can attach the same way.
        """
        self._iteration_hooks.append(hook)

    # -- data path ------------------------------------------------------
    def read(self, vector: ProtectedVector) -> np.ndarray:
        """Decode-free read: the cached plain view, marked as consumed."""
        key = id(vector)
        if key not in self._vectors:
            self.register(vector)
        self._read_since_check.add(key)
        self.policy.stats.cached_reads += 1
        return vector.view()

    def write(
        self,
        vector: ProtectedVector,
        values: np.ndarray,
        window: tuple[int, int] | None = None,
    ) -> None:
        """Store through the policy's write mode (deferred or eager)."""
        if id(vector) not in self._vectors:
            self.register(vector)
        if self.policy.defer_writes:
            vector.store(values, window=window, defer=True)
            self.policy.stats.deferred_stores += 1
        else:
            vector.store(values, window=window)

    def spmv(
        self,
        matrix: ProtectedCSRMatrix,
        x: np.ndarray | ProtectedVector,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``A @ x`` with schedule-driven matrix verification.

        ``x`` is a vector or a ``(k, n)`` block of right-hand sides (one
        per row; blocked iterates read their protected block stores
        through :meth:`read` first).  The operand's rank changes nothing
        about scheduling: one product advances the matrix counter
        exactly once, so a blocked solve's due pattern matches a
        single-RHS solve's, and a due fused access screens every
        codeword once for all ``k`` gathers.

        Follows the paper's per-access model, amortised: every SpMV
        advances the matrix counter; a due access verifies the matrix
        (one round-robin stripe when ``policy.stripes > 1``, the whole
        matrix otherwise).  Non-due accesses gather through the
        bounds-validated snapshot the clean views maintain, so they pay
        no per-access index decode or range check at all — the paper's
        range-check guarantee (no out-of-bounds access, ever) holds
        because the snapshot was validated when it was populated.
        ``stats.bounds_checks`` counts these snapshot-guarded accesses.

        With ``policy.fused_verify``, a due access on a matrix whose
        scheme supports it instead runs the verify-in-SpMV
        kernel: it screens every codeword on the
        product's own gather traffic (no separate sweep pass, and no
        striping — full coverage costs nothing extra on this path) and
        the matrix earns *consumption coverage* toward skipping the
        end-of-step sweep; any non-due access clears that coverage,
        because it consumes stored values unverified.
        """
        key = id(matrix)
        if key not in self._matrices:
            self.register(matrix)
        if isinstance(x, ProtectedVector):
            x = self.read(x)
        self._read_since_check.add(key)
        if self.policy.should_check():
            if self.policy.fused_verify and matrix.supports_fused_verify():
                self._read_since_check.discard(key)
                self._stripe_cursor.pop(key, None)
                # One full check, whatever the operand's rank: a blocked
                # product verifies each codeword once for all its columns.
                y, reports = matrix.spmv_verified(x, out=out, correct=self.policy.correct)
                self.policy.stats.full_checks += 1
                self.policy.stats.fused_products += 1
                self._account(matrix, reports)
                self._fused_cover.add(key)
                return y
            if self.policy.stripes > 1:
                self._verify_stripe(matrix)
            else:
                self.verify_matrix(matrix)
        elif self.policy.interval:
            matrix.clean_views()  # populate + validate if stale; no-op otherwise
            self.policy.stats.bounds_checks += 1
            self._fused_cover.discard(key)
        return matrix.matvec_unchecked(x, out=out)

    # -- scheduled verification ----------------------------------------
    def begin_iteration(self) -> bool:
        """Per-iteration scheduling point for the dense vectors.

        Returns True when a vector check round ran this iteration.
        """
        for hook in self._iteration_hooks:
            hook()
        if not self._vectors or not self.policy.vector_check_due():
            return False
        self._check_vectors(only_read=True)
        return True

    def finalize(self) -> None:
        """Flush every dirty window; run the mandatory sweep if deferred.

        Called once at the end of the solve (§VI.A.2's end-of-time-step
        sweep).  Registered vectors are always flushed and re-verified so
        the returned solution is a checked commit; the matrices join the
        sweep whenever any checks were deferred.

        Vector checks here run *in-sweep* for the recovery layer: a DUE
        at this boundary has no solver recurrence left to escalate to,
        so any escalating strategy repairs the vector from its
        authoritative cache instead of aborting the window (see
        :meth:`~repro.recover.manager.RecoveryManager.repair_vector`).

        Under fused verification the sweep shrinks to the matrices *not*
        covered by a fused product: a matrix whose last access was a due
        fused SpMV had every consumed codeword verified in that very
        pass, so a flip landing afterwards was never consumed and cannot
        have tainted the returned solution — re-sweeping it buys nothing
        (counted in ``stats.sweeps_skipped``).  Any matrix with a
        non-due access since its last fused product lost that coverage
        and is swept as usual.
        """
        sweep = self.policy.end_of_step()
        self._check_vectors(only_read=False, in_sweep=True)
        if not sweep:
            return
        for key, (_, matrix) in self._matrices.items():
            if key in self._fused_cover:
                self.policy.stats.sweeps_skipped += 1
                self._read_since_check.discard(key)
                continue
            self.verify_matrix(matrix)

    def verify_matrix(self, matrix: ProtectedCSRMatrix) -> None:
        """Full matrix check now, raising on uncorrectable damage.

        Scheduled full checks, the end-of-step sweep and a solver's
        forced sweeps (up front, after a repair) all land here.
        """
        self._read_since_check.discard(id(matrix))
        self._stripe_cursor.pop(id(matrix), None)  # full check restarts rotation
        reports = matrix.check_all(correct=self.policy.correct)
        self.policy.stats.full_checks += 1
        self._account(matrix, reports)

    def _verify_stripe(self, matrix: ProtectedCSRMatrix) -> None:
        """Scheduled striped verification: one round-robin slice per due access."""
        key = id(matrix)
        k = self._stripe_cursor.get(key, 0)
        n = self.policy.stripes
        reports = matrix.check_stripe(k, n, correct=self.policy.correct)
        self.policy.stats.stripe_checks += 1
        self._account(matrix, reports)
        self._stripe_cursor[key] = (k + 1) % n

    def _account(self, matrix: ProtectedCSRMatrix, reports: dict) -> None:
        """Fold a matrix check's region reports into the counters; raise on a DUE.

        The one report → stats → raise step every matrix verification
        ends in, whether it ran as a sweep, a stripe or fused inside a
        product.  The error names the region as ``<matrix>:<region>``.
        """
        name = self._matrices.get(id(matrix), ("matrix", None))[0]
        stats = self.policy.stats
        for region, report in reports.items():
            stats.corrected += report.n_corrected
            stats.uncorrectable += report.n_uncorrectable
            if not report.ok:
                raise DetectedUncorrectableError(
                    f"{name}:{region}", report.uncorrectable_indices()[:8].tolist(),
                    counters=dataclasses.asdict(stats),
                )

    def verify_vector(self, vector: ProtectedVector) -> None:
        """Flush and fully check one vector now, raising on damage.

        The out-of-schedule twin of the per-round vector checks — used
        when a region retires from the schedule early (e.g. a session
        releasing a finished solve's state mid-window) so its last
        verification is never skipped.
        """
        name = self._vectors.get(id(vector), ("vector", None))[0]
        self._flush_vector(vector)
        self._check_vector(name, vector)

    def _check_vectors(self, only_read: bool, in_sweep: bool = False) -> None:
        for key, (name, vector) in self._vectors.items():
            self._flush_vector(vector)
            if only_read and key not in self._read_since_check:
                continue
            self._check_vector(name, vector, in_sweep=in_sweep)

    def _flush_vector(self, vector: ProtectedVector) -> None:
        if vector.dirty_window is not None:
            vector.flush()
            self.policy.stats.dirty_flushes += 1

    def _check_vector(self, name: str, vector: ProtectedVector,
                      in_sweep: bool = False) -> None:
        report = vector.check(correct=self.policy.correct)
        self.policy.stats.vector_checks += 1
        self.policy.stats.corrected += report.n_corrected
        self.policy.stats.uncorrectable += report.n_uncorrectable
        self._read_since_check.discard(id(vector))
        if report.ok:
            return
        # Recovery hook: raw-storage corruption is never consumed (reads
        # come from the cache), so a cache rebuild is content-exact and
        # the solve continues as if the flip never happened.  The repair
        # is only trusted after it passes a fresh check.
        if self.recovery is not None and self.recovery.repair_vector(
            name, vector, in_sweep=in_sweep
        ):
            report = vector.check(correct=self.policy.correct)
            self.policy.stats.vector_checks += 1
            if report.ok:
                self.recovery.note_vector_repaired()
                return
        raise DetectedUncorrectableError(
            name, report.uncorrectable_indices()[:8].tolist(),
            counters=dataclasses.asdict(self.policy.stats),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeferredVerificationEngine(vectors={len(self._vectors)}, "
            f"matrices={len(self._matrices)}, policy={self.policy!r})"
        )
