"""Fig. 7 — whole-matrix SECDED64 overhead vs check interval.

Paper platform: Cavium ThunderX; the curve bottoms out at ~9 % where
range checking dominates.
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
    return ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")


@pytest.mark.parametrize("interval", INTERVALS)
def test_secded_whole_matrix_interval(benchmark, protected, bench_x, interval):
    benchmark.group = "fig7-secded-interval"
    engine = DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False))

    def run():
        for _ in range(16):
            engine.spmv(protected, bench_x)

    benchmark(run)


def test_fig7_report(benchmark):
    benchmark.group = "fig7-report"
    rows = benchmark.pedantic(
        run_experiment, args=("fig7",), kwargs={"n": BENCH_N, "repeats": 3},
        iterations=1, rounds=1,
    )
    write_report(
        "fig7",
        format_interval_series(
            rows, "Fig. 7: whole-matrix SECDED64 overhead vs check interval (ThunderX)"
        ),
    )
