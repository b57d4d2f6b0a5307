"""Less-frequent correctness checking (paper §VI.A.2), per region.

The sparse matrix does not change during a CG solve, so an error detected
at iteration *k* was necessarily present since it appeared — checking
every *N* accesses instead of every access trades detection latency for
runtime.  Between full checks a cheap *range check* still guards every
index so a flipped bit can never fault the process, and one mandatory
full sweep runs at the end of each time-step so no error escapes.

The policy is a *per-region scheduler*: the matrix regions follow
``interval`` (counted per matrix access, as in the paper's Figs. 6-8)
while the dense solver vectors follow ``vector_interval`` (counted per
solver iteration).  When ``vector_interval > 1`` the engine additionally
defers re-encoding of written vectors (dirty-window write buffering, see
:mod:`repro.protect.engine`), controlled by ``defer_writes``.

The paper notes the trade-off: deferred checks forfeit correction (the
corruption may have been consumed up to N-1 times already), so interval
checking "should only be used with Error Detecting Codes" — the policy
therefore exposes ``correct`` so callers can run EDC-style.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class PolicyStats:
    """Counters for overhead accounting (reported by the benchmarks)."""

    full_checks: int = 0
    stripe_checks: int = 0
    bounds_checks: int = 0
    vector_checks: int = 0
    cached_reads: int = 0
    deferred_stores: int = 0
    dirty_flushes: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    #: Products whose due check ran fused inside the SpMV itself.
    fused_products: int = 0
    #: End-of-step matrix sweeps skipped because fused coverage was current.
    sweeps_skipped: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class CheckPolicy:
    """Decides, per region access, between a full check and a range check.

    Parameters
    ----------
    interval:
        Matrix schedule.  ``1`` checks on every access (the paper's
        default mode); ``N > 1`` checks on every N-th access with range
        checks between; ``0`` disables matrix integrity checks entirely
        (baseline).
    correct:
        Attempt in-place correction during full checks.  The paper
        recommends ``False`` (detection-only) whenever checks are
        deferred (``interval > 1``).
    vector_interval:
        Dense-vector schedule, counted per solver iteration.  Defaults to
        ``interval`` (or ``1`` when the matrix checks are disabled), so a
        single knob defers the whole solve uniformly.
    defer_writes:
        Buffer vector writes in the plain cache and re-encode dirty
        codeword windows only at scheduled checks.  Defaults to ``True``
        exactly when ``vector_interval > 1``.
    stripes:
        Striped matrix verification: each due matrix check verifies one
        of ``stripes`` round-robin codeword slices instead of the whole
        matrix, so full coverage takes ``interval * stripes`` accesses —
        a strict generalisation of the paper's interval model
        (``stripes=1`` is exactly §VI.A.2).  The end-of-step sweep is
        always a full check regardless.  The rotation cursor is the
        engine's, one per matrix.
    fused_verify:
        Run due matrix checks *inside* the SpMV (verify-in-SpMV): the
        kernel screens each codeword on the gather traffic the product
        already pays for, instead of a separate sweep pass before the
        multiply.  Detection guarantees are unchanged — every due access
        still verifies the same codewords — but the engine additionally
        tracks *consumption coverage*: when the last access of a step
        verified everything it consumed and nothing was consumed
        unverified afterwards, the end-of-step sweep skips the matrix
        regions (they are recorded in ``stats.sweeps_skipped``).
    """

    def __init__(
        self,
        interval: int = 1,
        correct: bool = True,
        vector_interval: int | None = None,
        defer_writes: bool | None = None,
        stripes: int = 1,
        fused_verify: bool = False,
    ):
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.interval = int(interval)
        self.stripes = int(stripes)
        self.correct = bool(correct)
        if vector_interval is None:
            vector_interval = self.interval if self.interval >= 1 else 1
        if vector_interval < 0:
            raise ValueError("vector_interval must be >= 0")
        self.vector_interval = int(vector_interval)
        if defer_writes is None:
            defer_writes = self.vector_interval > 1
        self.defer_writes = bool(defer_writes)
        self.fused_verify = bool(fused_verify)
        self._access = 0
        self._vector_access = 0
        self.stats = PolicyStats()

    def should_check(self) -> bool:
        """Advance the matrix access counter; True when a full check is due."""
        if self.interval == 0:
            return False
        due = (self._access % self.interval) == 0
        self._access += 1
        return due

    def vector_check_due(self) -> bool:
        """Advance the vector iteration counter; True when a check is due."""
        if self.vector_interval == 0:
            return False
        due = (self._vector_access % self.vector_interval) == 0
        self._vector_access += 1
        return due

    def end_of_step(self) -> bool:
        """True when a mandatory end-of-time-step sweep is required.

        Needed whenever intermediate accesses may have skipped checks or
        deferred re-encoding — "just in case N does not divide the number
        of iterations performed".
        """
        return (
            self.interval > 1
            or self.vector_interval > 1
            or self.defer_writes
            or self.stripes > 1
        )

    def reset(self) -> None:
        """Restart the access phase (e.g. at the beginning of a time-step)."""
        self._access = 0
        self._vector_access = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckPolicy(interval={self.interval}, correct={self.correct}, "
            f"vector_interval={self.vector_interval}, "
            f"defer_writes={self.defer_writes}, stripes={self.stripes}, "
            f"fused_verify={self.fused_verify})"
        )
