"""Layer probes and the guarantee probe.

A layer probe times one public function of one layer on the workload's
own matrix.  Each probe resolves its target by name when it starts: if a
later change has removed the callable the probe reports 0 with a
``missing`` note and nothing else fails — end-to-end metrics never depend
on anything resolved here.
"""

from __future__ import annotations

import numpy as np

import repro
from harness import WINDOW, median, sample
from repro import ProtectionConfig
from repro.errors import DetectedUncorrectableError
from tracing import resolve

#: Per-probe sampling: at least this many repetitions, then until the
#: time slice is used up.
MIN_REPS = 5


def _need(checker, metric: str, *paths: str) -> bool:
    """True when every ``module:Class.attr`` the probe calls still exists."""
    gone = [path for path in paths if resolve(path) is None]
    if gone:
        checker.note(f"{metric}: missing {', '.join(gone)}; reported as 0")
    return not gone


def layer_probes(checker, A, grid: int, dt: float, budget_s: float) -> dict:
    """Time each layer's public functions on ``A``; returns metric -> value."""
    from repro.csr.build import five_point_operator
    from repro.protect.vector import ProtectedVector

    slice_s = budget_s / 9
    rng = np.random.default_rng(7)
    n = A.n_rows
    x = rng.standard_normal(n)
    out = np.empty(n)
    metrics = {}

    def ms(fn) -> float:
        return 1e3 * median(sample(fn, min_reps=MIN_REPS, budget_s=slice_s))

    metrics["csr.matvec_ms"] = 0.0
    if _need(checker, "csr.matvec_ms", "repro.csr.matrix:CSRMatrix.matvec"):
        metrics["csr.matvec_ms"] = ms(lambda: A.matvec(x, out=out))

    kx = rng.uniform(0.5, 2.0, (grid, grid))
    ky = rng.uniform(0.5, 2.0, (grid, grid))
    metrics["csr.build_ms"] = ms(lambda: five_point_operator(grid, grid, kx, ky, dt))

    deferred = ProtectionConfig.deferred(WINDOW)
    metrics["protect.encode_ms"] = ms(lambda: deferred.wrap_matrix(A))
    pmat = deferred.wrap_matrix(A)

    metrics["backends.verify_mcw_per_s"] = 0.0
    if _need(checker, "backends.verify_mcw_per_s",
             "repro.protect.matrix:ProtectedCSRMatrix.check_all"):
        seconds = median(sample(lambda: pmat.check_all(correct=False),
                                min_reps=MIN_REPS, budget_s=slice_s))
        # One codeword per stored element and one per row-pointer entry.
        metrics["backends.verify_mcw_per_s"] = (A.nnz + n + 1) / seconds / 1e6

    engine_path = "repro.protect.engine:DeferredVerificationEngine."
    for metric, interval in (("protect.spmv_due_ms", 1),
                             ("protect.spmv_nondue_ms", 10**9)):
        metrics[metric] = 0.0
        if _need(checker, metric, engine_path + "spmv"):
            engine = ProtectionConfig(interval=interval).engine()
            # sample() warms with one call, which uses up access 0 — the
            # only due access of the interval=10**9 engine.
            metrics[metric] = ms(lambda: engine.spmv(pmat, x, out=out))

    for metric in ("protect.vec_write_ms", "protect.vec_verify_ms"):
        metrics[metric] = 0.0
    if _need(checker, "protect.vec_write_ms / protect.vec_verify_ms",
             engine_path + "write", engine_path + "verify_vector"):
        engine = deferred.engine()
        vec = engine.register(ProtectedVector(x, "secded64"), "probe")
        writes = sample(lambda: engine.write(vec, x), min_reps=MIN_REPS,
                        budget_s=slice_s)

        def write_then_verify():
            engine.write(vec, x)
            engine.verify_vector(vec)

        both = sample(write_then_verify, min_reps=MIN_REPS, budget_s=slice_s)
        metrics["protect.vec_write_ms"] = 1e3 * median(writes)
        metrics["protect.vec_verify_ms"] = 1e3 * max(median(both) - median(writes), 0.0)

    metrics["protect.finalize_ms"] = 0.0
    if _need(checker, "protect.finalize_ms", engine_path + "finalize",
             engine_path + "spmv", engine_path + "write"):
        engine = deferred.engine()
        engine.register(pmat, "matrix")
        vectors = [engine.register(ProtectedVector(x, "secded64"), name)
                   for name in ("x", "r", "p")]

        def dirty():
            engine.spmv(pmat, x, out=out)
            engine.spmv(pmat, x, out=out)  # non-due: the sweep owes the matrix
            for vec in vectors:
                engine.write(vec, x)

        def dirty_then_finalize():
            dirty()
            engine.finalize()

        prep = median(sample(dirty, min_reps=MIN_REPS, budget_s=slice_s / 2))
        both = median(sample(dirty_then_finalize, min_reps=MIN_REPS,
                             budget_s=slice_s / 2))
        metrics["protect.finalize_ms"] = 1e3 * max(both - prep, 0.0)
    return metrics


def guarantee_probe(checker, A, b, eps: float, iters: int = 24) -> None:
    """SECDED's promise, end to end: correct 1 flip, detect 2, never lie.

    One flipped bit of a stored value must come back ``corrected >= 1``
    with the clean solve's x bit for bit; two flipped bits in one
    codeword must raise :class:`DetectedUncorrectableError`.  ``iters``
    caps the solves — the promise is about what the checks do to the
    stored matrix, not about convergence.
    """
    from repro.faults.injector import Region, inject_into_matrix
    from repro.faults.models import FaultSpec

    eager = ProtectionConfig.paper_default()
    element = A.nnz // 2

    def solve(faults):
        pmat = eager.wrap_matrix(A)
        changed = inject_into_matrix(pmat, Region.VALUES, faults)
        if changed != len(faults):
            raise RuntimeError(f"injected {changed} of {len(faults)} flips")
        return repro.solve(pmat, b, eps=eps, max_iters=iters, protection=eager)

    try:
        clean = solve([])
        one = solve([FaultSpec(element, 40)])
        ok = (one.info.get("corrected", 0) >= 1
              and np.array_equal(one.x, clean.x))
        if checker.op(ok, f"guarantee probe: 1 flip gave corrected="
                          f"{one.info.get('corrected')}, x bitwise equal="
                          f"{np.array_equal(one.x, clean.x)}"):
            checker.note("guarantee probe: 1 flip corrected, x bitwise the clean x")
    except Exception as exc:  # the probe must fail the run, not crash it
        checker.op(False, f"guarantee probe: 1 flip raised {exc!r}")
    try:
        two = solve([FaultSpec(element, 40), FaultSpec(element, 17)])
        checker.op(False, "guarantee probe: 2 flips in one codeword returned "
                          f"silently (corrected={two.info.get('corrected')})")
    except DetectedUncorrectableError:
        checker.op(True)
        checker.note("guarantee probe: 2 flips in one codeword detected, no answer")
    except Exception as exc:
        checker.op(False, f"guarantee probe: 2 flips raised {exc!r}")
