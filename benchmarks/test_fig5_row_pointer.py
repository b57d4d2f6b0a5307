"""Fig. 5 — execution-time overheads of row-pointer protection."""

import pytest

from _common import BENCH_N, write_report
from repro.harness.experiments import run_experiment
from repro.harness.report import format_table
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy

SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


def test_spmv_baseline(benchmark, bench_matrix, bench_x):
    benchmark.group = "fig5-rowptr-protection"
    benchmark(bench_matrix.matvec, bench_x)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_spmv_protected_rowptr(benchmark, bench_matrix, bench_x, scheme):
    benchmark.group = "fig5-rowptr-protection"
    pmat = ProtectedCSRMatrix(bench_matrix, None, scheme)

    def run():
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
        engine.spmv(pmat, bench_x)

    benchmark(run)


def test_fig5_report(benchmark):
    benchmark.group = "fig5-report"
    rows = benchmark.pedantic(
        run_experiment, args=("fig5",), kwargs={"n": BENCH_N, "repeats": 3},
        iterations=1, rounds=1,
    )
    write_report(
        "fig5",
        format_table(rows, "Fig. 5: row-pointer protection overhead (per scheme)"),
    )
