"""Whole-matrix protection: CSR elements + row pointer combined.

The paper evaluates element and row-pointer schemes independently
(Figs. 4 and 5) and then notes they "can be mixed together to fully
protect the whole matrix, with the overhead being approximately equal to
the sum of the overheads of the two techniques".
:class:`ProtectedCSRMatrix` is that composition.
"""

from __future__ import annotations

import numpy as np

from repro.csr.matrix import CSRMatrix
from repro.csr.spmv import _gather_scratch, _row_blocks, spmv
from repro.ecc.base import CheckReport
from repro.ecc.secded_kernels import _chunk_screen_split
from repro.errors import BoundsViolationError
from repro.protect.csr_elements import ProtectedCSRElements
from repro.protect.row_pointer import ProtectedRowPointer


def _fused_verify(code, values, colidx, index_mask, n_cols, col64):
    """Single-pass syndrome + decode + bounds check over one-element codewords.

    The verify half of :meth:`ProtectedCSRMatrix.spmv_verified`.  Per
    cache-blocked chunk: widen the stored colidx lane once into the
    scratch, run the grid-aggregate screen
    (:func:`~repro.ecc.secded_kernels._chunk_screen_split`) over the
    (value word, widened index) pairs, and — when the chunk screens
    clean — strip the redundancy bits (``colidx & index_mask``) into
    ``col64[lo:hi]`` and bounds-check them against ``n_cols``.  The pass
    never looks at the operand: the product then gathers through the
    snapshot it has filled.  Dirty or out-of-range chunks are skipped
    and returned as ``[lo, hi)`` windows for the container's scalar
    correction path (which re-screens them with exact per-element
    syndromes); ``[]`` means everything was clean.
    """
    scratch = code.scratch
    vwords = values.view(np.uint64)
    nnz = values.size
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
        # The product's row plan and a copy of the stored row pointer it
        # was derived from; a (re)population re-derives it only when the
        # stored row pointer changed.
        self._plan = None
        self._plan_raw: np.ndarray | None = None
        self._views_valid = False
        self._diagonal: np.ndarray | None = None
        # Persistent SpMV gather scratch, one row block per leading
        # element of the operand (grown to the widest operand seen), so
        # every engine-mediated product runs allocation-free after warm-up.
        self._gather = np.empty(0, dtype=np.float64)

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
            self._plan_rows()
            self._views_valid = True
        return self._col64, self._ptr64

    def _snapshot_buffers(self) -> None:
        """Allocate the persistent snapshot buffers on first use."""
        if self._col64 is None:
            self._col64 = np.empty(self.nnz, dtype=np.int64)
            self._ptr64 = np.empty(self.rowptr_protected.raw.size, dtype=np.int64)
            self._ptr_diff = np.empty(max(self._ptr64.size - 1, 0), dtype=np.int64)
            self._plan_raw = np.empty_like(self.rowptr_protected.raw)

    def _validate_rowptr(self) -> None:
        """Range and monotonicity check of the decoded row pointer."""
        ptr = self._ptr64
        if int(ptr.max(initial=0)) > self.nnz:
            raise BoundsViolationError("row_pointer")
        if ptr.size > 1:
            np.subtract(ptr[1:], ptr[:-1], out=self._ptr_diff)
            if int(self._ptr_diff.min()) < 0:
                raise BoundsViolationError("row_pointer")

    def _plan_rows(self) -> None:
        """Derive the product's row plan from the validated row pointer.

        Every due product refills ``_ptr64`` from verified storage, which
        almost always leaves the stored row pointer exactly as it was
        when the current plan was derived: the plan is re-derived only
        when it is not.  The comparison is on the stored words, half the
        size of ``_ptr64``; they decode deterministically, so equal
        storage means an equal decoded row pointer.
        """
        raw = self.rowptr_protected.raw
        if self._plan is not None and np.array_equal(raw, self._plan_raw):
            return
        self._plan = _row_blocks(self._ptr64, self.nnz, self._ptr_diff)
        np.copyto(self._plan_raw, raw)

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

    def _spmv_scratch(self, lead: tuple[int, ...]) -> np.ndarray:
        """The persistent gather scratch for one operand shape.

        ``lead`` is the operand's leading shape (``()`` for a vector,
        ``(k,)`` for a block of right-hand sides); the scratch holds one
        row block of the plan (``span`` entries) per leading element,
        and :func:`repro.csr.spmv.spmv` gathers and multiplies each
        block into a contiguous view of it.  Nothing is nnz-sized.  The
        flat buffer only ever grows (to the widest operand seen), so a
        session alternating solo and blocked solves on one matrix —
        serve's blocked group, then the job-by-job rest — reallocates
        nothing on the switch, and every solve runs allocation-free
        after warm-up.
        """
        self._gather = _gather_scratch(self._plan, lead, self._gather)
        return self._gather

    def matvec_unchecked(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """SpMV on the validated snapshot without any integrity verification.

        ``x`` is ``(..., n_cols)`` — a vector, or a block with one
        right-hand side per row; row ``j`` of a blocked result is
        bitwise identical to the 1-D call on ``x[j]``.  Runs
        :func:`repro.csr.spmv.spmv` over the snapshot's row plan and
        the matrix's persistent gather scratch, so the inner loop
        allocates nothing once ``out`` is supplied.
        """
        colidx, rowptr = self.clean_views()
        return spmv(
            self.elements.values,
            colidx,
            rowptr,
            x,
            self.n_rows,
            out=out,
            gather=self._spmv_scratch(np.shape(x)[:-1]),
            plan=self._plan,
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
        :meth:`check_all` — but the element verification is part of the
        product: one pass per cache-blocked chunk computes syndromes over
        the ``(value, index)`` lanes the product is about to consume and
        decodes and bounds-checks the clean indices into the index
        snapshot (re-deriving the row plan only if the freshly verified
        row pointer differs from the one it was built from).  Chunks
        that screen dirty detour through the container's correcting
        cold path, which refills their slice of the snapshot from
        corrected storage; an uncorrectable codeword
        yields ``y is None`` with the failure in the report (the engine
        raises on it).  Once every chunk has passed, the product is
        :meth:`matvec_unchecked` through the snapshot just validated — the
        same kernel as every non-due product, in the same call, so no
        value is consumed between its check and its use.

        ``x`` is ``(..., n_cols)``.  For a ``(k, n_cols)`` block each
        codeword chunk is syndromed **once** for all ``k`` right-hand
        sides — the verification cost of one product buys ``k`` verified
        products — and row ``j`` of the result is bitwise identical to
        the 1-D call on ``x[j]``.

        On success the validated snapshot stays in place, so follow-up
        non-due products reuse it with zero extra work.

        Falls back to verify-then-multiply over the same kernel when
        :meth:`supports_fused_verify` is false for this scheme — same
        results, same reports, a whole-container check instead of the
        chunk screen.
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
        self._snapshot_buffers()
        # The pass below refills the snapshot in place; it is the
        # validated one again only once every check has passed.
        self._views_valid = False
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
        self._plan_rows()

        bad = _fused_verify(
            el.fused_code(), el.values, el.colidx,
            el.index_mask, self.n_cols, self._col64,
        )
        reports["csr_elements"] = self._fused_cold_path(bad, correct)
        if not reports["csr_elements"].ok:
            self.invalidate_clean_views()
            return None, reports
        # Every index was decoded from verified storage and bounds-checked
        # chunk by chunk: the snapshot this pass filled is the validated one.
        self._views_valid = True
        return self.matvec_unchecked(x, out=out), reports

    def _fused_cold_path(
        self, bad: list[tuple[int, int]], correct: bool
    ) -> CheckReport:
        """Re-check, correct and re-decode the windows a fused pass flagged.

        The fused pass skips dirty (or out-of-range) chunks wholesale;
        here each flagged ``[lo, hi)`` window goes through the
        container's scalar correction path, and — when it comes back
        trustworthy — its slice of the index snapshot is refilled from
        the corrected storage and bounds-checked.  Returns the
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
            if not window_report.ok:
                continue
            col = self._col64[lo:hi]
            np.copyto(col, el.colidx[lo:hi], casting="same_kind")
            np.bitwise_and(col, imask, out=col)
            if col.size and (int(col.max()) >= self.n_cols or int(col.min()) < 0):
                # Corruption aliased to a clean-looking codeword with an
                # out-of-range index: surface it as the range-check DUE.
                raise BoundsViolationError("csr_elements")
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
