"""Vectorised population count and parity.

Parity is *the* primitive of every scheme here: SED is one parity, SECDED
is nine parities with different masks, CRC32C reduces to table lookups but
its correction path still folds parities of syndrome signatures.

Counting is :func:`numpy.bitwise_count` (NumPy >= 2.0), which lowers to
the POPCNT instruction.
"""

from __future__ import annotations

import numpy as np


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element number of set bits of an unsigned array (up to 64 bits wide).

    Narrower unsigned dtypes are counted at their own width — no
    widening copy — so a 32-bit index array costs a 32-bit pass.
    """
    words = np.asarray(words)
    if words.dtype.kind != "u":
        words = words.astype(np.uint64)
    return np.bitwise_count(words)


def parity64(words: np.ndarray) -> np.ndarray:
    """Per-element parity (popcount mod 2) of an unsigned array, as uint8."""
    return (popcount64(words) & np.uint8(1)).astype(np.uint8)


def parity_lanes(lanes: np.ndarray) -> np.ndarray:
    """Parity across the last axis of a lane-packed codeword array.

    ``lanes`` has shape ``(..., L)`` of uint64; the result has shape
    ``(...)`` and value ``parity(XOR of all lanes)`` — i.e. the parity of
    the whole multi-word codeword.
    """
    lanes = np.asarray(lanes, dtype=np.uint64)
    folded = fold_parity(lanes)
    return parity64(folded)


def fold_parity(lanes: np.ndarray) -> np.ndarray:
    """XOR-fold the last axis of a uint64 array into a single word.

    Parity is XOR-linear, so ``parity(concat(words)) == parity(xor(words))``;
    folding first keeps the popcount count independent of lane count.
    """
    lanes = np.asarray(lanes, dtype=np.uint64)
    if lanes.ndim == 0:
        return lanes
    return np.bitwise_xor.reduce(lanes, axis=-1)
