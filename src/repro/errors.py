"""Error taxonomy for the ABFT framework.

The paper classifies memory faults by how the protection system reacts:

* **DCE** — detectable *correctable* error: the scheme locates the flipped
  bit(s) and restores the original word.
* **DUE** — detectable *uncorrectable* error: the scheme knows corruption
  happened but cannot localise it; the application must recover by other
  means (e.g. checkpoint/restart, or — for the CG solve — restarting the
  iteration, which the paper highlights as an ABFT advantage).
* **SDC** — silent data corruption: the flip pattern exceeded the code's
  detection capability and went unnoticed (or triggered a miscorrection).

This module defines the exception types and outcome enumeration shared by
the ECC codecs, the protected containers and the fault-injection campaign
machinery.
"""

from __future__ import annotations

import enum


class ABFTError(Exception):
    """Base class for every error raised by the :mod:`repro` framework."""


class ConfigurationError(ABFTError, ValueError):
    """A protection scheme was configured with invalid parameters.

    Raised e.g. when a matrix exceeds the column/nnz limits imposed by
    re-purposing index bits (SED: ``2**31 - 1`` columns, SECDED/CRC32C:
    ``2**24 - 1`` columns), when a CRC32C row codeword would not have
    the four elements needed to store the 32 redundancy bits, or when
    the solver registry is asked for an unknown method/scheme.  Also a
    :class:`ValueError`: bad-configuration call sites predating the
    unified API catch that.
    """


class DetectedUncorrectableError(ABFTError):
    """A DUE: corruption detected but not correctable by the scheme.

    Attributes
    ----------
    region:
        Which protected structure reported the error (e.g. ``"csr_elements"``).
    indices:
        Codeword indices (within the region) that failed the check.
    counters:
        The raising engine's check counters at the detection (a dict of
        :class:`~repro.protect.policy.PolicyStats` fields), so a solve
        cut short by a DUE still reports how much verification ran;
        ``None`` when no engine raised it.
    """

    def __init__(self, region: str, indices=None, message: str | None = None,
                 counters: dict | None = None):
        self.region = region
        self.indices = indices
        self.counters = counters
        if message is None:
            message = f"uncorrectable corruption detected in region {region!r}"
            if indices is not None:
                message += f" at codeword indices {indices}"
        super().__init__(message)


class ShardDeathError(ABFTError):
    """A whole worker shard of a distributed solve died mid-computation.

    The fault model the bit-flip injector cannot express: process loss
    takes out a shard's matrix block, its state-vector slices and its
    protection domain in one event.  Raised by the
    :mod:`repro.dist` coordinator when a shard stops responding and the
    recovery policy is ``"raise"`` (or the respawn budget is exhausted);
    with an escalating policy the coordinator respawns the shard and
    re-encodes its block from the pristine partition instead.

    Attributes
    ----------
    shards:
        Indices of the shards that were lost.
    iteration:
        The distributed iteration during which the loss was detected.
    """

    def __init__(self, shards, iteration: int | None = None,
                 message: str | None = None):
        self.shards = tuple(shards)
        self.iteration = iteration
        if message is None:
            message = f"worker shard(s) {list(self.shards)} died"
            if iteration is not None:
                message += f" at distributed iteration {iteration}"
        super().__init__(message)


class BoundsViolationError(ABFTError):
    """An index range check failed.

    During iterations where the full integrity check is skipped
    (the "less frequent checking" optimisation, paper §VI.A.2) the kernels
    still validate that row-pointer values stay below ``nnz`` and column
    indices stay below ``n_cols`` so a flipped index bit can never cause
    an out-of-bounds access.
    """

    def __init__(self, region: str, message: str | None = None):
        self.region = region
        super().__init__(message or f"index bounds violation in region {region!r}")


class Outcome(enum.Enum):
    """Classification of one fault-injection experiment."""

    #: No error present / injected pattern was a no-op.
    CLEAN = "clean"
    #: Detected and corrected in place (DCE).
    CORRECTED = "corrected"
    #: Detected, not correctable (DUE).
    DETECTED = "detected"
    #: The check passed but the data differs from the original (SDC).
    SILENT = "silent"
    #: The scheme "corrected" to a *wrong* word (miscorrection → SDC).
    MISCORRECTED = "miscorrected"
    #: Range check caught the corruption before an OOB access (DUE-like).
    BOUNDS = "bounds"
    #: The checks missed it but the solver failed to converge — the
    #: residual exposed the corruption at the application level.  Not an
    #: SDC (nothing wrong was *trusted*), but not a scheme detection
    #: either; campaigns report it separately from SILENT.
    RESIDUAL = "residual"

    @property
    def is_sdc(self) -> bool:
        """True when the outcome leaves corrupted data undetected."""
        return self in (Outcome.SILENT, Outcome.MISCORRECTED)

    @property
    def is_detected(self) -> bool:
        """True when the application learned that corruption happened."""
        return self in (
            Outcome.CORRECTED, Outcome.DETECTED, Outcome.BOUNDS, Outcome.RESIDUAL
        )
