"""Ablations of the design choices DESIGN.md calls out.

* batched row-parallel CRC32C vs the scalar Slicing-by-16 loop (the
  NumPy stand-in for the paper's SIMD/hardware acceleration argument);
* the general reduceat SpMV, the one product path;
* encode vs check cost per scheme (write-buffering rationale: encodes
  happen once per write, checks once per read).
"""

import numpy as np
import pytest

from repro.ecc.crc32c import crc32c_batch, crc32c_slicing16
from repro.csr.spmv import spmv
from repro.protect.vector import ProtectedVector

SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


@pytest.fixture(scope="module")
def row_bytes():
    rng = np.random.default_rng(31)
    return rng.integers(0, 256, (4096, 60)).astype(np.uint8)


def test_crc_batched(benchmark, row_bytes):
    benchmark.group = "ablation-crc-batching"
    benchmark(crc32c_batch, row_bytes)


def test_crc_scalar_loop(benchmark, row_bytes):
    benchmark.group = "ablation-crc-batching"
    rows = [row_bytes[i].tobytes() for i in range(256)]  # 16x fewer rows

    def run():
        for row in rows:
            crc32c_slicing16(row)

    benchmark(run)


def test_spmv_general_reduceat(benchmark, bench_matrix, bench_x):
    benchmark.group = "ablation-spmv-path"
    benchmark(
        spmv, bench_matrix.values, bench_matrix.colidx, bench_matrix.rowptr,
        bench_x, bench_matrix.n_rows,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_vector_encode_cost(benchmark, scheme):
    benchmark.group = "ablation-encode-vs-check"
    rng = np.random.default_rng(32)
    data = rng.standard_normal(65536)
    vec = ProtectedVector(data, scheme)
    benchmark(vec.store, data)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_vector_check_cost(benchmark, scheme):
    benchmark.group = "ablation-encode-vs-check"
    rng = np.random.default_rng(33)
    vec = ProtectedVector(rng.standard_normal(65536), scheme)
    benchmark(vec.check, False)
