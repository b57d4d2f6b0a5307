"""Fig. 8 — whole-matrix CRC32C overhead vs check interval.

Paper platform: NVIDIA GTX 1080 Ti (consumer, no hardware ECC), where
deferred checking takes CRC32C from 88 % down to 1 % — the paper's
headline for protecting consumer GPUs.
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
    return ProtectedCSRMatrix(bench_matrix, "crc32c", "crc32c")


@pytest.mark.parametrize("interval", INTERVALS)
def test_crc_whole_matrix_interval(benchmark, protected, bench_x, interval):
    benchmark.group = "fig8-crc-interval"
    engine = DeferredVerificationEngine(CheckPolicy(interval=interval, correct=False))

    def run():
        for _ in range(16):
            engine.spmv(protected, bench_x)

    benchmark(run)


def test_fig8_report(benchmark):
    benchmark.group = "fig8-report"
    rows = benchmark.pedantic(
        run_experiment, args=("fig8",), kwargs={"n": BENCH_N, "repeats": 3},
        iterations=1, rounds=1,
    )
    write_report(
        "fig8",
        format_interval_series(
            rows, "Fig. 8: whole-matrix CRC32C overhead vs check interval (GTX 1080 Ti)"
        ),
    )
