"""`ProtectionConfig`: the single source of truth for ABFT configuration.

The paper argues the right home for these techniques is the solver-library
level (§VIII); selective-reliability work (Bridges et al.) shows the win
comes from a *uniform* reliability interface over many solver methods.
Before this module existed the configuration surface was scattered across
``CheckPolicy`` kwargs, per-solver keyword arguments, a TeaLeaf-only
dataclass and raw scheme strings — five incompatible ways to say the
same thing.  ``ProtectionConfig`` replaces them all:

* **what** is protected — ``element_scheme`` / ``rowptr_scheme`` for the
  matrix regions, ``vector_scheme`` for the dense solver state;
* **when** it is verified — ``interval`` (per matrix access),
  ``vector_interval`` (per solver iteration), ``defer_writes``
  (dirty-window write buffering) and ``correct``, exactly the
  :class:`~repro.protect.policy.CheckPolicy` schedule knobs.

The config is frozen (hashable, safely shareable); ``.policy()`` and
``.engine()`` mint fresh scheduler objects from it, and the preset
constructors name the paper's operating points.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import ConfigurationError
from repro.protect.codeword_store import codeword_row
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.recover.manager import RecoveryManager
from repro.recover.policy import RecoveryPolicy


@dataclasses.dataclass(frozen=True)
class ProtectionConfig:
    """One immutable description of a full ABFT setup.

    Parameters
    ----------
    element_scheme / rowptr_scheme:
        ECC scheme for the CSR element pairs / row pointer, or ``None``
        to leave that region unprotected (the Fig. 4 vs Fig. 5 ablation).
    vector_scheme:
        Scheme for the dense solver state vectors, or ``None`` for the
        matrix-only configurations (Figs. 4-8; Fig. 9 adds the vectors).
    interval:
        Matrix full-check period, counted per SpMV access.  ``1`` checks
        every access (the paper's default), ``N > 1`` amortises via the
        deferred-verification engine, ``0`` disables matrix checks.
    vector_interval:
        Dense-vector check period per solver iteration; ``None`` follows
        ``interval``.
    defer_writes:
        Buffer vector stores in dirty windows until the next scheduled
        check; ``None`` means "exactly when ``vector_interval > 1``".
    correct:
        Attempt in-place correction at checks.  The paper recommends
        detection-only whenever checks are deferred.
    stripes:
        Striped matrix verification: each due matrix check covers one of
        ``stripes`` round-robin codeword slices, giving full coverage
        every ``interval * stripes`` accesses.  ``1`` (default) is the
        paper's whole-matrix interval check.
    fused_verify:
        Verify-in-SpMV: run due matrix checks *inside* the engine's
        matrix-vector products, screening each codeword on the gather
        traffic the product already pays for instead of a separate sweep
        pass (and letting the end-of-step sweep skip matrices whose last
        product verified everything it consumed).  ``None`` (default)
        resolves to on unless the ``REPRO_FUSED_VERIFY=0`` environment
        ablation disables it; schemes without a fused kernel fall back
        to verify-then-multiply with identical results and accounting.
    recovery:
        What happens when a DUE surfaces mid-solve: ``None`` (or the
        ``"raise"`` strategy) re-raises as always; a
        :class:`~repro.recover.policy.RecoveryPolicy` — or its string
        shorthand ``"repopulate"`` / ``"rollback"`` — routes the error
        through the checkpointed recovery layer so the solve survives
        (see :mod:`repro.recover`).
    """

    element_scheme: str | None = "secded64"
    rowptr_scheme: str | None = "secded64"
    vector_scheme: str | None = None
    interval: int = 1
    vector_interval: int | None = None
    defer_writes: bool | None = None
    correct: bool = True
    stripes: int = 1
    fused_verify: bool | None = None
    recovery: RecoveryPolicy | str | None = None

    def __post_init__(self):
        for structure, scheme in (("csr_elements", self.element_scheme),
                                  ("row_pointer", self.rowptr_scheme),
                                  ("vector", self.vector_scheme)):
            if scheme is not None:
                codeword_row(structure, scheme)  # raises, naming the choices
        if self.interval < 0:
            raise ConfigurationError("interval must be >= 0")
        if self.vector_interval is not None and self.vector_interval < 0:
            raise ConfigurationError("vector_interval must be >= 0")
        if self.stripes < 1:
            raise ConfigurationError("stripes must be >= 1")
        # Normalise the string shorthand so configs stay hashable and
        # comparisons ("rollback" vs RecoveryPolicy("rollback")) agree.
        object.__setattr__(self, "recovery", RecoveryPolicy.coerce(self.recovery))

    # -- presets --------------------------------------------------------
    @classmethod
    def off(cls) -> "ProtectionConfig":
        """No protection at all: the unprotected baseline.

        The null codec — :meth:`wrap_matrix` puts passthrough containers
        over a copy of the source arrays and the engine schedules
        nothing, so a CG under it is the protected pipeline with every
        codec step a no-op.  ``repro.solve`` runs ``protection=None``
        under this config, over a no-copy wrap of its own.
        """
        return cls(element_scheme=None, rowptr_scheme=None, vector_scheme=None,
                   interval=0)

    @classmethod
    def paper_default(cls, scheme: str = "secded64") -> "ProtectionConfig":
        """The paper's headline mode: full protection, check on every access."""
        return cls(element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=scheme,
                   interval=1, correct=True)

    @classmethod
    def deferred(cls, window: int = 16, scheme: str = "secded64",
                 stripes: int = 1) -> "ProtectionConfig":
        """Full protection through the deferred-verification engine.

        ``window`` is the check interval (matrix accesses and solver
        iterations share it); correction is off, as the paper recommends
        for interval checking ("should only be used with Error Detecting
        Codes").  ``stripes > 1`` further splits each due matrix check
        into round-robin slices (full coverage every
        ``window * stripes`` accesses).
        """
        if window < 1:
            raise ConfigurationError("deferred() needs a window >= 1")
        return cls(element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=scheme,
                   interval=int(window), correct=False, stripes=int(stripes))

    @classmethod
    def matrix_only(cls, scheme: str = "secded64", interval: int = 1,
                    correct: bool = True) -> "ProtectionConfig":
        """Figs. 4-8 configuration: matrix regions only, plain vectors."""
        return cls(element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=None,
                   interval=interval, correct=correct)

    @classmethod
    def resilient(cls, window: int = 16, scheme: str = "secded64",
                  strategy: str = "rollback", max_retries: int = 3,
                  checkpoint_interval: int = 8) -> "ProtectionConfig":
        """Full deferred protection that *survives* DUEs instead of dying.

        :meth:`deferred` plus a recovery policy: uncorrectable detections
        route through the checkpointed recovery layer (``strategy`` is
        ``"rollback"`` or ``"repopulate"``) and the solve converges
        anyway, which is the paper's end-to-end "fully protecting"
        claim.
        """
        return cls.deferred(window=window, scheme=scheme).replace(
            recovery=RecoveryPolicy(
                strategy=strategy, max_retries=max_retries,
                checkpoint_interval=checkpoint_interval,
            )
        )

    # -- derived views --------------------------------------------------
    @property
    def protects_matrix(self) -> bool:
        """True when any matrix region (elements or row pointer) carries ECC."""
        return self.element_scheme is not None or self.rowptr_scheme is not None

    @property
    def protects_vectors(self) -> bool:
        """True when solver state vectors carry ECC."""
        return self.vector_scheme is not None

    @property
    def enabled(self) -> bool:
        """True when any region carries redundancy."""
        return self.protects_matrix or self.protects_vectors

    def replace(self, **changes) -> "ProtectionConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    # -- factories ------------------------------------------------------
    def resolved_fused_verify(self) -> bool:
        """The effective fused-verify setting (``None`` → env-gated default).

        ``fused_verify=None`` means "on, unless the
        ``REPRO_FUSED_VERIFY=0`` ablation says otherwise"; explicit
        ``True``/``False`` always win over the environment.
        """
        if self.fused_verify is not None:
            return self.fused_verify
        return os.environ.get("REPRO_FUSED_VERIFY", "1") != "0"

    def policy(self) -> CheckPolicy:
        """A fresh :class:`CheckPolicy` carrying this config's schedule."""
        return CheckPolicy(
            interval=self.interval,
            correct=self.correct,
            vector_interval=self.vector_interval,
            defer_writes=self.defer_writes,
            stripes=self.stripes,
            fused_verify=self.resolved_fused_verify(),
        )

    def engine(self) -> DeferredVerificationEngine:
        """A fresh engine scheduled by :meth:`policy`.

        When the config carries an escalating recovery policy the engine
        gets its own :class:`~repro.recover.manager.RecoveryManager`;
        the ``"raise"`` strategy (and ``None``) keep the historical
        DUE-unwinds-the-solve surface with zero extra machinery.
        """
        manager = None
        if self.recovery is not None and self.recovery.escalates:
            manager = RecoveryManager(self.recovery)
        return DeferredVerificationEngine(self.policy(), recovery=manager)

    def wrap_matrix(self, matrix) -> ProtectedCSRMatrix:
        """Encode a CSR matrix per this config (idempotent on wrapped input).

        An already-:class:`ProtectedCSRMatrix` argument is returned
        unchanged — campaigns inject into a pre-wrapped matrix and then
        hand it to the registry, which must not re-encode (and thereby
        bless) the injected corruption.
        """
        if isinstance(matrix, ProtectedCSRMatrix):
            return matrix
        return ProtectedCSRMatrix(matrix, self.element_scheme, self.rowptr_scheme)


def _solve_config(config: ProtectionConfig | None) -> ProtectionConfig:
    """The config a solve under ``config`` runs: unprotected is :meth:`~ProtectionConfig.off`.

    ``None`` and every disabled config (no region carries redundancy)
    run as ``off()`` — interval 0, no recovery — whatever schedule or
    recovery policy the disabled config names.
    """
    if config is not None and config.enabled:
        return config
    return ProtectionConfig.off()


def _wrap_for_solve(config: ProtectionConfig, matrix) -> ProtectedCSRMatrix:
    """The matrix a solve under ``config`` runs against.

    An enabled config encodes a copy (:meth:`ProtectionConfig.wrap_matrix`)
    and an already-protected matrix passes through.  Otherwise the null
    codec *aliases* the caller's arrays: a disabled config solves under
    :func:`_solve_config`'s ``off()``, so nothing writes through the wrap
    (no recovery re-encode) and the baseline pays no nnz-sized copy.
    Callers that inject into the result call ``wrap_matrix`` instead.
    """
    if config.enabled or isinstance(matrix, ProtectedCSRMatrix):
        return config.wrap_matrix(matrix)
    return ProtectedCSRMatrix._alias(matrix)
