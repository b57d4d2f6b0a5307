"""Fig. 6 — whole-matrix SED overhead vs check interval.

Paper platform: Intel Broadwell.  Checking every other iteration helps;
beyond that the index range checks set a ~4 % floor.
"""

import pytest

from _common import BENCH_N, write_report
from repro.harness.experiments import run_experiment
from repro.harness.report import format_interval_series
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy

INTERVALS = [1, 2, 4, 8, 16, 32, 64, 128]


@pytest.fixture(scope="module")
def protected(bench_matrix):
    return ProtectedCSRMatrix(bench_matrix, "sed", "sed")


@pytest.mark.parametrize("interval", INTERVALS)
def test_sed_whole_matrix_interval(benchmark, protected, bench_x, interval):
    benchmark.group = "fig6-sed-interval"
    engine = DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False))

    def run():
        for _ in range(16):
            engine.spmv(protected, bench_x)

    benchmark(run)


def test_fig6_report(benchmark):
    benchmark.group = "fig6-report"
    rows = benchmark.pedantic(
        run_experiment, args=("fig6",), kwargs={"n": BENCH_N, "repeats": 3},
        iterations=1, rounds=1,
    )
    write_report(
        "fig6",
        format_interval_series(
            rows, "Fig. 6: whole-matrix SED overhead vs check interval (Broadwell)"
        ),
    )
