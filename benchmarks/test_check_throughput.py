"""Verification-pipeline throughput: codewords/sec for a full SECDED check.

The solver benchmarks in ``test_t1_combined.py`` gate the *end-to-end*
overhead; this module gates the verification pipeline itself, so a
regression in the fused syndrome kernels (a dropped ``out=``, a lost
persistent buffer, an accidental re-materialisation) is caught even when
solver noise would hide it.  The ``t1-check-throughput`` group is part
of ``benchmarks/compare.py``'s default gate, as is ``t1-fused-verify``
— the verify-in-SpMV kernel benchmarked against the two-pass
check-then-product schedule it replaces.
"""

import numpy as np

from _common import BENCH_N, write_report
from repro.protect.config import ProtectionConfig
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.vector import ProtectedVector
from repro.solvers.registry import solve


def test_secded_matrix_check_throughput(benchmark, bench_matrix):
    """Full secded64 matrix check (elements + row pointer), detect mode."""
    benchmark.group = "t1-check-throughput"
    pmat = ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")
    pmat.check_all(correct=False)  # warm the persistent lane buffers

    benchmark(lambda: pmat.check_all(correct=False))
    codewords = pmat.elements.n_codewords + pmat.rowptr_protected.n_codewords
    rate = codewords / benchmark.stats["mean"]
    benchmark.extra_info["codewords_per_sec"] = rate
    write_report(
        "check_throughput",
        "Verification throughput (full secded64 matrix check, "
        f"n={BENCH_N} deck)\n"
        f"  codewords per check     : {codewords}\n"
        f"  mean check time         : {benchmark.stats['mean'] * 1e3:.3f} ms\n"
        f"  codewords / second      : {rate:.3e}",
    )


def test_secded_matrix_check_and_correct_throughput(benchmark, bench_matrix):
    """The correcting variant exercised by eager (interval=1) schedules."""
    benchmark.group = "t1-check-throughput"
    pmat = ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")
    pmat.check_all(correct=True)

    benchmark(lambda: pmat.check_all(correct=True))


def test_secded_vector_check_throughput(benchmark, bench_matrix):
    """Clean-path protected-vector check (the per-iteration schedule unit)."""
    benchmark.group = "t1-check-throughput"
    vec = ProtectedVector(
        np.random.default_rng(23).standard_normal(bench_matrix.n_rows), "secded64"
    )
    vec.check(correct=False)

    benchmark(lambda: vec.check(correct=False))


def test_fused_verified_spmv_throughput(benchmark, bench_matrix, bench_x):
    """Verify-in-SpMV: full codeword coverage on the product's own traffic."""
    benchmark.group = "t1-fused-verify"
    pmat = ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")
    out = np.empty(pmat.n_rows)
    pmat.spmv_verified(bench_x, out=out)  # warm buffers

    benchmark(lambda: pmat.spmv_verified(bench_x, out=out))
    codewords = pmat.elements.n_codewords + pmat.rowptr_protected.n_codewords
    fused_mean = benchmark.stats["mean"]
    benchmark.extra_info["codewords_per_sec"] = codewords / fused_mean
    write_report(
        "fused_verify",
        "Verify-in-SpMV throughput (secded64 verified product, "
        f"n={BENCH_N} deck)\n"
        f"  codewords per product   : {codewords}\n"
        f"  mean fused product      : {fused_mean * 1e3:.3f} ms\n"
        f"  codewords / second      : {codewords / fused_mean:.3e}",
    )


def test_sweep_then_spmv_throughput(benchmark, bench_matrix, bench_x):
    """The two-pass equivalent the fused kernel replaces: full check, then
    the product over the just-validated snapshot."""
    benchmark.group = "t1-fused-verify"
    pmat = ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")
    out = np.empty(pmat.n_rows)
    pmat.check_all(correct=False)
    pmat.matvec_unchecked(bench_x, out=out)

    def run():
        pmat.check_all(correct=False)
        pmat.matvec_unchecked(bench_x, out=out)

    benchmark(run)


def test_full_protection_cg_secded_fused_off(benchmark, bench_matrix):
    """Deferred16 CG with the fused kernels disabled — the classic
    sweep schedule, kept benchmarked so the fused win stays visible."""
    benchmark.group = "t1-fused-verify"
    b = np.random.default_rng(13).standard_normal(bench_matrix.n_rows)
    pmat = ProtectedCSRMatrix(bench_matrix, "secded64", "secded64")
    config = ProtectionConfig.deferred(window=16).replace(fused_verify=False)

    def run():
        solve(pmat, b, method="cg", protection=config, eps=1e-12, max_iters=40)

    benchmark(run)
