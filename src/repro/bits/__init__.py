"""Low-level bit manipulation substrate.

Everything in the ABFT framework ultimately reduces to XORs, popcounts and
masked bit moves over ``uint32``/``uint64`` NumPy arrays.  This package
keeps those primitives in one place so the ECC codecs stay readable.
"""

from repro.bits.float_bits import (
    f64_to_u64,
    u64_to_f64,
    mask_mantissa_lsbs,
    extract_mantissa_lsbs,
    insert_mantissa_lsbs,
    MANTISSA_BITS,
)
from repro.bits.popcount import popcount64, parity64, parity_lanes, fold_parity
from repro.bits.packing import (
    pack_u32_lanes,
    unpack_u32_lanes,
    bits_to_lane_masks,
)

__all__ = [
    "f64_to_u64",
    "u64_to_f64",
    "mask_mantissa_lsbs",
    "extract_mantissa_lsbs",
    "insert_mantissa_lsbs",
    "MANTISSA_BITS",
    "popcount64",
    "parity64",
    "parity_lanes",
    "fold_parity",
    "pack_u32_lanes",
    "unpack_u32_lanes",
    "bits_to_lane_masks",
]
