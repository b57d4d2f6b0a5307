"""Fig. 4 — execution-time overheads of CSR *element* protection.

The paper plots, per platform, the TeaLeaf runtime overhead of the four
element schemes.  Here each scheme's protected SpMV (check on every
access, as Fig. 4 measures) is a pytest-benchmark case against the
unprotected baseline; the paper-vs-model-vs-host table is written to
``benchmarks/results/fig4.txt``.
"""

import pytest

from _common import BENCH_N, write_report
from repro.harness.experiments import run_experiment
from repro.harness.report import format_table
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy

SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


def test_spmv_baseline(benchmark, bench_matrix, bench_x):
    benchmark.group = "fig4-element-protection"
    benchmark(bench_matrix.matvec, bench_x)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_spmv_protected_elements(benchmark, bench_matrix, bench_x, scheme):
    benchmark.group = "fig4-element-protection"
    pmat = ProtectedCSRMatrix(bench_matrix, scheme, None)

    def run():
        engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
        engine.spmv(pmat, bench_x)

    benchmark(run)


def test_fig4_report(benchmark):
    """Regenerates the Fig. 4 table (model for the 5 platforms + host)."""
    benchmark.group = "fig4-report"
    rows = benchmark.pedantic(
        run_experiment, args=("fig4",), kwargs={"n": BENCH_N, "repeats": 3},
        iterations=1, rounds=1,
    )
    write_report(
        "fig4",
        format_table(rows, "Fig. 4: CSR element protection overhead (per scheme)"),
    )
