"""CSR sparse matrix substrate (paper §V.B).

A from-scratch Compressed Sparse Row implementation with exactly the
memory layout the paper protects: a float64 value vector ``v`` (length
nnz), a uint32 column-index vector ``y`` (length nnz) and a uint32
row-pointer vector ``x`` (length m+1).
"""

from repro.csr.matrix import CSRMatrix
from repro.csr.build import (
    csr_from_coo,
    csr_from_dense,
    csr_from_scipy,
    five_point_operator,
)
from repro.csr.spmv import spmv, row_dot
from repro.csr.validate import validate_structure

__all__ = [
    "CSRMatrix",
    "csr_from_coo",
    "csr_from_dense",
    "csr_from_scipy",
    "five_point_operator",
    "spmv",
    "row_dot",
    "validate_structure",
]
