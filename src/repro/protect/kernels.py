"""Solver kernels over protected data structures.

TeaLeaf spends >98 % of its runtime in three kernels — the sparse
matrix-vector product, dot products and vector updates — so these are the
only places integrity checks are paid for.  The functions here wire the
check policy into each kernel:

* :func:`protected_spmv` — full check or range check on the matrix
  (per the policy), then a plain SpMV over the cleaned views;
* :func:`load_vector` — check-on-read of a protected vector operand:
  verify, mask, hand back computation-ready values.

Dot products and vector updates have no kernel of their own: solvers
compute on the plain views ``engine.read`` hands out and commit whole
codewords through ``engine.write`` (so no read-modify-write is ever
needed).  :func:`protected_spmv` takes the same optional
:class:`~repro.protect.engine.DeferredVerificationEngine`; with one, the
per-access check follows the engine's amortised schedule instead.

All kernels raise :class:`~repro.errors.DetectedUncorrectableError` when
a check finds damage it cannot repair — the application layer (e.g. the
CG driver) decides whether to restart, recompute or abort, which the
paper highlights as an ABFT advantage over hardware ECC.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DetectedUncorrectableError
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.protect.vector import ProtectedVector


def _account_reports(reports: dict, policy: CheckPolicy, name: str | None) -> None:
    """Fold region reports into the policy counters; raise on a DUE.

    The one report → stats → raise step every matrix verification ends
    in, whether it ran as a sweep or fused inside a product.
    """
    for region, report in reports.items():
        policy.stats.corrected += report.n_corrected
        policy.stats.uncorrectable += report.n_uncorrectable
        if not report.ok:
            region_name = f"{name}:{region}" if name else region
            raise DetectedUncorrectableError(
                region_name, report.uncorrectable_indices()[:8].tolist()
            )


def full_matrix_check(
    matrix: ProtectedCSRMatrix,
    policy: CheckPolicy,
    name: str | None = None,
    stripe: tuple[int, int] | None = None,
) -> None:
    """Matrix region check, accounted against the policy.

    The one place that runs ``check_all`` (or, for a scheduled striped
    verification, ``check_stripe``), folds the reports into the policy
    counters and raises on uncorrectable damage — shared by the
    per-access :func:`verify_matrix` path and the engine's scheduled
    checks (which pass the registered region ``name`` for the error).
    """
    if stripe is None:
        reports = matrix.check_all(correct=policy.correct)
        policy.stats.full_checks += 1
    else:
        reports = matrix.check_stripe(stripe[0], stripe[1], correct=policy.correct)
        policy.stats.stripe_checks += 1
    _account_reports(reports, policy, name)


def fused_matrix_spmv(
    matrix: ProtectedCSRMatrix,
    x: np.ndarray,
    policy: CheckPolicy,
    name: str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """A due SpMV whose matrix check runs fused inside the product.

    The verify-in-SpMV counterpart of :func:`full_matrix_check` followed
    by ``matvec_unchecked``: every codeword of every region is verified
    on the gather traffic the product pays for anyway
    (:meth:`~repro.protect.matrix.ProtectedCSRMatrix.spmv_verified`),
    with identical accounting — the access counts as a full check plus a
    ``fused_products`` tick, whatever the operand's rank (a blocked
    product verifies each codeword once for all its right-hand sides) —
    and the same raise-on-uncorrectable contract.
    """
    y, reports = matrix.spmv_verified(x, out=out, correct=policy.correct)
    policy.stats.full_checks += 1
    policy.stats.fused_products += 1
    _account_reports(reports, policy, name)
    return y


def verify_matrix(
    matrix: ProtectedCSRMatrix, policy: CheckPolicy | None, *, force: bool = False
) -> None:
    """Run the policy-selected matrix verification (full, stripe or range check).

    ``policy.stripes > 1`` rotates scheduled checks through codeword
    stripes exactly as the engine does (``force=True`` — the mandatory
    end-of-step sweep — is always a full check).
    """
    if policy is None:
        policy = CheckPolicy(interval=1, correct=True)
    if force:
        full_matrix_check(matrix, policy)
    elif policy.should_check():
        # Containers without stripe support (e.g. the COO wrapper) take
        # the full check on every due access — strictly more coverage.
        if policy.stripes > 1 and hasattr(matrix, "check_stripe"):
            full_matrix_check(
                matrix, policy, stripe=(policy.next_stripe(), policy.stripes)
            )
        else:
            full_matrix_check(matrix, policy)
    elif policy.interval:
        matrix.bounds_check()
        policy.stats.bounds_checks += 1


def protected_spmv(
    matrix: ProtectedCSRMatrix,
    x: np.ndarray | ProtectedVector,
    policy: CheckPolicy | None = None,
    out: np.ndarray | None = None,
    engine=None,
) -> np.ndarray:
    """``A @ x`` with policy-driven matrix verification.

    ``x`` may be a plain array (already masked/trusted) or a
    :class:`ProtectedVector`, which is checked and masked first.  With an
    ``engine`` the verification follows its amortised schedule instead.
    """
    if engine is not None:
        return engine.spmv(matrix, x, out=out)
    verify_matrix(matrix, policy)
    if isinstance(x, ProtectedVector):
        x = load_vector(x)
    return matrix.matvec_unchecked(x, out=out)


def load_vector(vector: ProtectedVector, *, correct: bool = True) -> np.ndarray:
    """Check a protected vector and return masked, compute-ready values."""
    report = vector.check(correct=correct)
    if not report.ok:
        raise DetectedUncorrectableError(
            "vector", report.uncorrectable_indices()[:8].tolist()
        )
    return vector.values()
