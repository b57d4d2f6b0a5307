"""T1 block — blocked multi-RHS solves vs sequential per-column solves.

ISSUE 10's amortisation claim, measured: a batch of ``k`` compatible
protected solves served as ONE blocked CG (per-iteration verification,
kernel dispatch and engine bookkeeping paid once for the whole block)
against the same batch served as ``k`` sequential single-RHS solves
(an explicit loop of solo ``repro.solve`` calls, one per column).

The matrix is deliberately a quarter of the headline ``BENCH_N`` grid:
the blocked path's win is the fixed per-iteration cost, so the
dispatch-bound sizes the serving layer actually batches at (hundreds to
a few thousand rows per solve) are where the contract lives.  At very
large ``n`` the ``k``-fold element work dominates both paths and the
ratio tends to the flops floor; the report prints the per-column
amortisation either way.

The ``t1-block`` group is gated by ``benchmarks/compare.py`` against the
committed ``BENCH_t1.json`` baseline at 20 %.
"""

from __future__ import annotations

import numpy as np

from _common import BENCH_N, write_report
from repro.harness.overhead import tealeaf_like_matrix
from repro.protect.config import ProtectionConfig
from repro.solvers.registry import solve

#: Dispatch-bound grid: a quarter of the headline size (48 -> n = 2304
#: at the default BENCH_N of 192), the regime batched serving lives in.
BLOCK_GRID = max(32, BENCH_N // 4)
MAX_ITERS = 40
_results: dict[str, float] = {}


def _matrix():
    return tealeaf_like_matrix(BLOCK_GRID)


def _rhs(k: int) -> np.ndarray:
    return np.random.default_rng(13).standard_normal((BLOCK_GRID ** 2, k))


def _protection():
    return ProtectionConfig.deferred(window=16)


def _sequential(A, B, **kwargs):
    """The baseline: every column of ``B`` as its own solo solve."""
    return [solve(A, B[:, j], eps=1e-12, max_iters=MAX_ITERS, **kwargs)
            for j in range(B.shape[1])]


def _bench(benchmark, run, label: str):
    benchmark.group = "t1-block"
    benchmark.pedantic(run, iterations=1, rounds=5, warmup_rounds=1)
    _results[label] = benchmark.stats["mean"]


def test_block_protected_single(benchmark):
    """The k=1 floor every ratio below is read against."""
    A = _matrix()
    b = _rhs(1)[:, 0]
    _bench(benchmark,
           lambda: solve(A, b, protection=_protection(),
                         eps=1e-12, max_iters=MAX_ITERS),
           "protected-single")


def test_block_protected_k4_blocked(benchmark):
    A = _matrix()
    B = _rhs(4)
    _bench(benchmark,
           lambda: solve(A, B, protection=_protection(),
                         eps=1e-12, max_iters=MAX_ITERS),
           "protected-k4-blocked")


def test_block_protected_k4_sequential(benchmark):
    A = _matrix()
    B = _rhs(4)
    _bench(benchmark, lambda: _sequential(A, B, protection=_protection()),
           "protected-k4-sequential")


def test_block_protected_k16_blocked(benchmark):
    A = _matrix()
    B = _rhs(16)
    _bench(benchmark,
           lambda: solve(A, B, protection=_protection(),
                         eps=1e-12, max_iters=MAX_ITERS),
           "protected-k16-blocked")


def test_block_protected_k16_sequential(benchmark):
    A = _matrix()
    B = _rhs(16)
    _bench(benchmark, lambda: _sequential(A, B, protection=_protection()),
           "protected-k16-sequential")


def test_block_plain_k16_blocked(benchmark):
    A = _matrix()
    B = _rhs(16)
    _bench(benchmark,
           lambda: solve(A, B, eps=1e-12, max_iters=MAX_ITERS),
           "plain-k16-blocked")


def test_block_plain_k16_sequential(benchmark):
    A = _matrix()
    B = _rhs(16)
    _bench(benchmark, lambda: _sequential(A, B), "plain-k16-sequential")


def test_block_report(benchmark):
    """Assemble the amortisation table from the timings above.

    The hard claim asserted here: serving 16 protected systems as one
    blocked solve beats serving them sequentially.  (The blocked-vs-
    baseline regression gate itself is ``benchmarks/compare.py``.)
    """
    benchmark.group = "t1-block-report"
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    need = {"protected-single", "protected-k16-blocked",
            "protected-k16-sequential"}
    if not need.issubset(_results):  # ran standalone / filtered
        return
    single = _results["protected-single"]
    lines = [
        f"T1 block: blocked multi-RHS amortisation "
        f"(grid {BLOCK_GRID}, n={BLOCK_GRID ** 2}, {MAX_ITERS} CG iters, "
        f"deferred window 16, sequential = k solo solves)",
        f"  protected single solve      : {single * 1e3:8.2f} ms",
    ]
    for k in (4, 16):
        blocked = _results.get(f"protected-k{k}-blocked")
        seq = _results.get(f"protected-k{k}-sequential")
        if blocked is None or seq is None:
            continue
        lines.append(
            f"  protected k={k:<2d} blocked      : {blocked * 1e3:8.2f} ms "
            f"({blocked / single:5.2f}x single, {blocked / k / single:5.2f}x "
            f"per column; sequential {seq * 1e3:8.2f} ms -> "
            f"{seq / blocked:4.2f}x speedup)"
        )
    pb = _results.get("plain-k16-blocked")
    ps = _results.get("plain-k16-sequential")
    if pb is not None and ps is not None:
        lines.append(
            f"  unprotected k=16 blocked    : {pb * 1e3:8.2f} ms "
            f"(sequential {ps * 1e3:8.2f} ms -> {ps / pb:4.2f}x)"
        )
    write_report("t1_block", "\n".join(lines))
    assert _results["protected-k16-blocked"] < _results["protected-k16-sequential"], (
        "blocked k=16 protected solve should beat 16 sequential solves"
    )
