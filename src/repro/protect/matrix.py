"""Whole-matrix protection: CSR elements + row pointer combined.

The paper evaluates element and row-pointer schemes independently
(Figs. 4 and 5) and then notes they "can be mixed together to fully
protect the whole matrix, with the overhead being approximately equal to
the sum of the overheads of the two techniques".
:class:`ProtectedCSRMatrix` is that composition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.csr.matrix import CSRMatrix
from repro.csr.spmv import reduce_rows, spmv
from repro.ecc.base import CheckReport
from repro.ecc.secded_kernels import CHUNK, _chunk_screen_split
from repro.errors import BoundsViolationError
from repro.protect.csr_elements import ProtectedCSRElements
from repro.protect.row_pointer import ProtectedRowPointer


def _fused_gather_verify(
    code, values, colidx, x, index_mask, n_cols, col64, products, gather
):
    """Single-pass syndrome + decode + gather + multiply over one-element codewords.

    The verify-in-SpMV primitive behind
    :meth:`ProtectedCSRMatrix.spmv_verified`.  Per cache-blocked chunk:
    widen the stored colidx lane once into the scratch, run the
    grid-aggregate screen (:func:`~repro.ecc.secded_kernels._chunk_screen_split`)
    over the (value word, widened index) pairs, and — when the chunk
    screens clean — strip the redundancy bits (``colidx & index_mask``),
    bounds-check against ``n_cols``, gather ``x`` and multiply into
    ``products``, filling ``col64[:nnz]`` on the way, all through
    persistent buffers.  The screen, decode and bounds check never look
    at the operand, so one pass covers every leading row of ``x``; clean
    chunks gather through a contiguous ``(..., n)`` view of the flat
    ``gather`` scratch (contiguity keeps ``np.take(..., axis=-1, out=)``
    on its non-buffering path) and broadcast-multiply into
    ``products[..., lo:hi]``.  Dirty or out-of-range chunks are skipped
    and returned as ``[lo, hi)`` windows for the container's scalar
    correction path (which re-screens them with exact per-element
    syndromes); ``[]`` means everything was clean.
    """
    scratch = code.scratch
    vwords = values.view(np.uint64)
    nnz = values.size
    lead = x.shape[:-1]
    k = math.prod(lead)
    mask64 = np.uint64(index_mask)
    bad: list[tuple[int, int]] = []
    for lo in range(0, nnz, scratch.chunk):
        hi = min(lo + scratch.chunk, nnz)
        n = hi - lo
        lane = scratch.lane[:n]
        np.copyto(lane, colidx[lo:hi], casting="same_kind")
        if not _chunk_screen_split(code, vwords[lo:hi], lane, n, scratch):
            bad.append((lo, hi))
            continue
        col = col64[lo:hi]
        np.bitwise_and(lane, mask64, out=lane)
        np.copyto(col, lane, casting="same_kind")
        if int(col.max(initial=0)) >= n_cols:
            bad.append((lo, hi))
            continue
        g = gather[: k * n].reshape(lead + (n,))
        # mode="clip" skips numpy's internal bounce buffer; the
        # max() screen above already guarantees in-range indices.
        np.take(x, col, axis=-1, out=g, mode="clip")
        np.multiply(values[lo:hi], g, out=products[..., lo:hi])
    return bad


class ProtectedCSRMatrix:
    """A CSR matrix whose three vectors all carry embedded ECC.

    Parameters
    ----------
    matrix:
        Source :class:`~repro.csr.matrix.CSRMatrix`; its arrays are copied
        so the original stays pristine (fault-injection campaigns rely on
        comparing against it).
    element_scheme / rowptr_scheme:
        Any of ``sed``, ``secded64``, ``secded128``, ``crc32c`` — mixed
        freely, as in the paper — or ``None`` to leave that region
        without redundancy (the table's null row over its own copy).
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        element_scheme: str | None = "secded64",
        rowptr_scheme: str | None = "secded64",
    ):
        rowptr = ProtectedRowPointer(matrix.rowptr, rowptr_scheme)
        elements = ProtectedCSRElements(
            matrix.values.copy(),
            matrix.colidx.copy(),
            rowptr.clean(),  # trusted structure at build time
            matrix.shape[1],
            element_scheme,
        )
        self._adopt(matrix.shape, elements, rowptr)

    @classmethod
    def _alias(cls, matrix: CSRMatrix) -> "ProtectedCSRMatrix":
        """The null codec over the caller's own element arrays — no copy.

        What an unprotected solve runs on (see
        :func:`repro.protect.config._wrap_for_solve`): both regions
        are null rows and the elements *alias* ``matrix`` (the row
        pointer container keeps its own ``n_rows + 1`` entries), so the
        baseline runs the same kernels and runners at no nnz-sized
        memory cost.  Private because the no-copy is only sound for a
        wrap nothing writes through (no injection, no re-encode);
        everything else goes through the copying constructor.
        """
        pmat = cls.__new__(cls)
        pmat._adopt(
            matrix.shape,
            ProtectedCSRElements(matrix.values, matrix.colidx, matrix.rowptr,
                                 matrix.shape[1], None),
            ProtectedRowPointer(matrix.rowptr, None),
        )
        return pmat

    def _adopt(self, shape, elements, rowptr_protected) -> None:
        """Take the two region containers and start with cold caches."""
        self.shape = shape
        self.elements = elements
        self.rowptr_protected = rowptr_protected
        # Persistent pre-converted SpMV index snapshot: int64 copies of
        # the cleaned colidx/rowptr, validated once when (re)populated
        # and then consumed by every SpMV without re-decoding or
        # re-converting (see clean_views).
        self._col64: np.ndarray | None = None
        self._ptr64: np.ndarray | None = None
        self._ptr_diff: np.ndarray | None = None
        self._views_valid = False
        self._diagonal: np.ndarray | None = None
        # Persistent SpMV product scratch: per-element products plus one
        # cache-block gather buffer per leading element of the operand,
        # so every engine-mediated product (fused or not) runs
        # allocation-free after warm-up.  One flat pair sized for the
        # widest operand seen; each leading shape gets cached views of it.
        self._products: np.ndarray | None = None
        self._gather: np.ndarray | None = None
        self._scratch_views: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._row_lengths: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The stored element values (raw storage, ECC bits included)."""
        return self.elements.values

    @property
    def colidx(self) -> np.ndarray:
        """Stored (redundancy-carrying) column indices."""
        return self.elements.colidx

    @property
    def rowptr(self) -> np.ndarray:
        """Stored (redundancy-carrying) row pointer."""
        return self.rowptr_protected.raw

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return self.elements.nnz

    @property
    def n_rows(self) -> int:
        """Number of matrix rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of matrix columns."""
        return self.shape[1]

    # ------------------------------------------------------------------
    def check_all(self, correct: bool = True) -> dict[str, CheckReport]:
        """Integrity-check every region; returns per-region reports.

        When a correction landed, the cached index snapshot (and the
        diagonal derived from it) is marked stale so the next SpMV
        re-populates it from the corrected stored arrays — into the same
        persistent buffers, so nothing nnz-sized is allocated.  A clean
        (or detection-only) check leaves the validated snapshot in
        place: storage did not change, so neither did its decode.
        """
        reports = {
            "csr_elements": self.elements.check(correct=correct),
            "row_pointer": self.rowptr_protected.check(correct=correct),
        }
        if any(r.n_corrected for r in reports.values()):
            self._views_valid = False
            self._diagonal = None
        return reports

    def check_stripe(
        self, stripe: int, n_stripes: int, correct: bool = True
    ) -> dict[str, CheckReport]:
        """Verify stripe ``stripe`` of ``n_stripes`` of every region.

        Each region's codeword space is cut into ``n_stripes`` equal
        round-robin slices; a scheduled check verifies one slice, so full
        coverage takes ``n_stripes`` due accesses (the engine's
        ``interval × n_stripes`` detection bound).  The index snapshot is
        only invalidated when a correction actually landed.
        """
        if not 0 <= stripe < n_stripes:
            raise ValueError(f"stripe {stripe} outside 0..{n_stripes - 1}")
        reports = {}
        for name, region in (
            ("csr_elements", self.elements),
            ("row_pointer", self.rowptr_protected),
        ):
            n = region.n_codewords
            lo = (stripe * n) // n_stripes
            hi = ((stripe + 1) * n) // n_stripes
            # Containers correct against window-relative indices; reports
            # leave here carrying absolute codeword positions.
            reports[name] = region.check(correct=correct, window=(lo, hi)).with_offset(lo)
        if any(r.n_corrected for r in reports.values()):
            self._views_valid = False
            self._diagonal = None
        return reports

    def detect_any(self) -> bool:
        """Cheapest question: is anything corrupted right now?"""
        return bool(self.elements.detect().any() or self.rowptr_protected.detect().any())

    def bounds_check(self) -> None:
        """The paper's range checks for skipped-integrity iterations.

        Row-pointer values must stay below nnz and column indices below
        the column count so a flipped index can never cause an
        out-of-bounds access (§VI.A.2).  Raises
        :class:`~repro.errors.BoundsViolationError` on violation.

        Implemented as a forced refresh of the validated index snapshot,
        so this and the engine's snapshot guard enforce exactly the same
        invariants (one copy of the safety-critical check) and the
        freshly-decoded indices immediately serve the next SpMV.
        """
        self._views_valid = False
        self.clean_views()

    # ------------------------------------------------------------------
    def clean_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode-free SpMV structure: the validated ``(colidx, rowptr)`` snapshot.

        The snapshot is a pair of *persistent* pre-converted ``int64``
        buffers, refilled in place whenever a check may have corrected
        the stored arrays (or :meth:`invalidate_clean_views` ran) and
        **bounds-validated once at population** — so non-due SpMV
        accesses skip both the index decode and the per-access range
        check entirely.  Between checks the SpMV runs over the
        last-validated snapshot at plain-NumPy speed; the value array is
        always used live, so value corruption stays observable.

        Exception surface (the §VI.A.2 range-check rule, amortised): a
        stored-index flip that lands mid-window can no longer raise
        :class:`~repro.errors.BoundsViolationError` from an intermediate
        access — the snapshot it gathers through is immutable and
        already validated.  The flip is surfaced at the next scheduled
        integrity check, or here (as ``BoundsViolationError``) when the
        snapshot is next rebuilt.
        """
        if not self._views_valid:
            self._snapshot_buffers()
            self.elements.colidx_clean64(self._col64)
            self.rowptr_protected.clean64(self._ptr64)
            self._validate_snapshot()
            self._views_valid = True
        return self._col64, self._ptr64

    def _snapshot_buffers(self) -> None:
        """Allocate the persistent snapshot buffers on first use."""
        if self._col64 is None:
            self._col64 = np.empty(self.nnz, dtype=np.int64)
            self._ptr64 = np.empty(self.rowptr_protected.raw.size, dtype=np.int64)
            self._ptr_diff = np.empty(max(self._ptr64.size - 1, 0), dtype=np.int64)

    def _validate_rowptr(self) -> None:
        """Range and monotonicity check of the decoded row pointer."""
        ptr = self._ptr64
        if int(ptr.max(initial=0)) > self.nnz:
            raise BoundsViolationError("row_pointer")
        if ptr.size > 1:
            np.subtract(ptr[1:], ptr[:-1], out=self._ptr_diff)
            if int(self._ptr_diff.min()) < 0:
                raise BoundsViolationError("row_pointer")

    def _validate_snapshot(self) -> None:
        """The once-per-population range check guarding the snapshot."""
        self._validate_rowptr()
        col = self._col64
        if col.size and int(col.max()) >= self.n_cols:
            raise BoundsViolationError("csr_elements")

    def invalidate_clean_views(self) -> None:
        """Mark the cached index snapshot stale (e.g. after re-encoding)."""
        self._views_valid = False
        self._diagonal = None

    def diagonal(self) -> np.ndarray:
        """The decoded main diagonal, cached between integrity checks.

        Built by :meth:`CSRMatrix.diagonal` over a zero-copy view of the
        cached clean indices (no whole-matrix ``to_csr`` decode) and
        invalidated alongside them whenever a check may have corrected
        the stored arrays.
        """
        if self._diagonal is None:
            colidx, rowptr = self.clean_views()
            view = CSRMatrix(
                self.elements.values, colidx, rowptr, self.shape, validate=False
            )
            self._diagonal = view.diagonal()
        return self._diagonal

    def _spmv_scratch(self, lead: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The persistent ``(products, gather)`` scratch for one operand shape.

        ``lead`` is the operand's leading shape (``()`` for a vector,
        ``(k,)`` for a block of right-hand sides): ``products`` is
        ``lead + (nnz,)`` and ``gather`` flat, one cache-block chunk per
        leading element — per-chunk contiguous views of it keep
        ``np.take(..., axis=-1, out=)`` on NumPy's non-buffering path.
        Both are views of one flat pair that only ever grows (to the
        widest operand seen), so a session alternating solo and blocked
        solves on one matrix — serve's blocked group, then the
        job-by-job rest — reallocates nothing on the switch, and every
        solve runs allocation-free after warm-up.
        """
        views = self._scratch_views.get(lead)
        if views is None:
            k = math.prod(lead)
            chunk = min(CHUNK, max(self.nnz, 1))
            if self._gather is None or self._gather.size < k * chunk:
                self._products = np.empty(k * self.nnz, dtype=np.float64)
                self._gather = np.empty(k * chunk, dtype=np.float64)
                self._scratch_views.clear()
            views = self._scratch_views[lead] = (
                self._products[: k * self.nnz].reshape(lead + (self.nnz,)),
                self._gather[: k * chunk],
            )
        if self._row_lengths is None:
            self._row_lengths = np.empty(self.n_rows, dtype=np.int64)
        return views

    def matvec_unchecked(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """SpMV on the validated snapshot without any integrity verification.

        ``x`` is ``(..., n_cols)`` — a vector, or a block with one
        right-hand side per row; row ``j`` of a blocked result is
        bitwise identical to the 1-D call on ``x[j]`` (same gather
        arithmetic, same left-to-right row reduction).  The
        gather/multiply of :func:`repro.csr.spmv.spmv` runs through the
        matrix's persistent product scratch, so the inner loop allocates
        nothing once ``out`` is supplied.
        """
        colidx, rowptr = self.clean_views()
        products, gather = self._spmv_scratch(np.shape(x)[:-1])
        return spmv(
            self.elements.values,
            colidx,
            rowptr,
            x,
            self.n_rows,
            out=out,
            products=products,
            gather=gather,
            lengths=self._row_lengths,
        )

    def supports_fused_verify(self) -> bool:
        """True when :meth:`spmv_verified` has a genuine single-pass path.

        Requires an element scheme whose codeword is one
        ``(value, colidx)`` pair (secded64).  Other schemes still accept
        :meth:`spmv_verified` — they verify then multiply through the
        same persistent buffers — but there is nothing to fuse at the
        codeword level.
        """
        return self.elements.fused_code() is not None

    def spmv_verified(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        correct: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, CheckReport]]:
        """Verify-in-SpMV: check every codeword on the product's own traffic.

        Returns ``(y, reports)`` where ``reports`` maps region name to
        its :class:`~repro.ecc.base.CheckReport`, exactly like
        :meth:`check_all` — but the element verification happened *inside*
        the matrix-vector product: per cache-blocked chunk the kernel
        computes syndromes over the ``(value, index)`` lanes it is about
        to consume, decodes the clean indices, gathers and multiplies in
        the same pass.  Chunks that screen dirty detour through the
        container's correcting cold path and are re-gathered; an
        uncorrectable codeword yields ``y is None`` with the failure in
        the report (the engine raises on it).

        ``x`` is ``(..., n_cols)``.  For a ``(k, n_cols)`` block each
        codeword chunk is syndromed **once**, then gathered and
        multiplied against all ``k`` right-hand sides — the verification
        cost of one product buys ``k`` verified products — and row ``j``
        of the result is bitwise identical to the 1-D call on ``x[j]``
        (same screen decisions, same gather arithmetic, same row
        reduction).

        On success the validated index snapshot is refreshed as a side
        effect (the fused pass decoded and bounds-checked every index),
        so follow-up non-due products reuse it with zero extra work.

        Falls back to verify-then-multiply over the same persistent
        buffers when :meth:`supports_fused_verify` is false for this
        scheme — same results, same reports, two passes instead of one.
        """
        if not self.supports_fused_verify():
            rp_report = self.rowptr_protected.check(correct=correct)
            reports = {"row_pointer": rp_report}
            if not rp_report.ok:
                return None, reports
            el_report = self.elements.check(correct=correct)
            reports["csr_elements"] = el_report
            if rp_report.n_corrected or el_report.n_corrected:
                self.invalidate_clean_views()
            if not el_report.ok:
                return None, reports
            return self.matvec_unchecked(x, out=out), reports

        el = self.elements
        x = np.ascontiguousarray(x, dtype=np.float64)
        lead = x.shape[:-1]
        products, gather = self._spmv_scratch(lead)
        self._snapshot_buffers()
        rp_report = self.rowptr_protected.verify_and_clean64(
            self._ptr64, correct=correct
        )
        reports = {"row_pointer": rp_report}
        if not rp_report.ok:
            self.invalidate_clean_views()
            return None, reports
        if rp_report.n_corrected:
            self._diagonal = None
        self._validate_rowptr()

        bad = _fused_gather_verify(
            el.fused_code(), el.values, el.colidx, x,
            el.index_mask, self.n_cols, self._col64, products, gather,
        )
        reports["csr_elements"] = self._fused_cold_path(bad, x, products, correct)
        if not reports["csr_elements"].ok:
            self.invalidate_clean_views()
            return None, reports
        # Every index was decoded from verified storage and bounds-checked
        # chunk by chunk: the snapshot this pass filled is the validated one.
        self._views_valid = True
        if out is None:
            out = np.empty(lead + (self.n_rows,), dtype=np.float64)
        return reduce_rows(
            products, self._ptr64, out, lengths=self._row_lengths
        ), reports

    def _fused_cold_path(
        self,
        bad: list[tuple[int, int]],
        x: np.ndarray,
        products: np.ndarray,
        correct: bool,
    ) -> CheckReport:
        """Re-check, correct and re-gather the windows a fused pass flagged.

        The fused kernel skips dirty (or out-of-range) chunks wholesale;
        here each flagged ``[lo, hi)`` window goes through the
        container's scalar correction path, and — when it comes back
        trustworthy — its slice of the decoded-index/product buffers is
        refilled from the corrected storage (one broadcast multiply per
        window covers every leading row of ``x``).  Returns the
        whole-container element report (compact all-OK when nothing was
        flagged).
        """
        el = self.elements
        if not bad:
            return CheckReport.all_ok(el.n_codewords)
        self._diagonal = None
        parts: list[CheckReport] = []
        pos = 0
        imask = np.int64(el.index_mask)
        for lo, hi in bad:
            if lo > pos:
                parts.append(CheckReport.all_ok(lo - pos))
            window_report = el.check(correct=correct, window=(lo, hi))
            parts.append(window_report)
            pos = hi
            if not (correct and window_report.ok):
                continue
            col = self._col64[lo:hi]
            np.copyto(col, el.colidx[lo:hi], casting="same_kind")
            np.bitwise_and(col, imask, out=col)
            if col.size and (int(col.max()) >= self.n_cols or int(col.min()) < 0):
                # Corruption aliased to a clean-looking codeword with an
                # out-of-range index: surface it as the range-check DUE.
                raise BoundsViolationError("csr_elements")
            np.multiply(el.values[lo:hi], x[..., col], out=products[..., lo:hi])
        if pos < el.n_codewords:
            parts.append(CheckReport.all_ok(el.n_codewords - pos))
        return CheckReport.concat(parts)

    def reencode_from(self, source: CSRMatrix) -> None:
        """Rebuild stored data *and* redundancy from a pristine source.

        The ABFT recovery primitive: after a DUE the application owns a
        clean copy of the (solve-invariant) matrix and can restore the
        protected storage from it without any checkpoint/restart —
        values and indices are overwritten, the schemes' check bits are
        re-derived, and the cached index snapshot is invalidated so the
        next SpMV re-validates against the repaired storage.
        """
        np.copyto(self.values, source.values)
        np.copyto(self.colidx, source.colidx)
        self.elements.encode()
        np.copyto(self.rowptr, source.rowptr)
        self.rowptr_protected.encode()
        self.invalidate_clean_views()

    def to_csr(self) -> CSRMatrix:
        """Decode to a plain CSR matrix (cleaned indices, same values)."""
        return CSRMatrix(
            self.elements.values.copy(),
            self.elements.colidx_clean(),
            self.rowptr_protected.clean(),
            self.shape,
            validate=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtectedCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"elements={self.elements.scheme!r}, rowptr={self.rowptr_protected.scheme!r})"
        )
