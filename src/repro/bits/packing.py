"""Lane packing: uniform (N, L)-uint64 codeword views.

Every protected structure in the paper is some mix of 64-bit doubles and
32-bit integers.  The ECC engine wants one representation, so we pack each
codeword into ``L`` little-endian 64-bit *lanes*:

* physical bit ``b`` of a codeword lives in lane ``b // 64``, bit ``b % 64``;
* a 32-bit integer occupying "entry slot" ``e`` of a codeword contributes
  bits ``64*(e//2) + 32*(e%2) + [0..31]``.

Packing never loses information and the inverse functions restore the
original arrays exactly, which the round-trip property tests exercise.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

import numpy as np

_U32 = np.uint64(0xFFFFFFFF)


def pack_u32_lanes(
    entries: np.ndarray, group: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack groups of ``group`` consecutive uint32 entries into codeword lanes.

    ``entries`` has length ``N * group``; the result has shape
    ``(N, ceil(group/2))``.  Entry ``e`` of a group occupies bits
    ``32*(e%2)..32*(e%2)+31`` of lane ``e//2``.  ``out`` refills a
    persistent lane buffer in place.

    Little-endian trick: a pair of consecutive uint32 entries *is* the
    byte layout of one uint64 lane, so the pack is a single reinterpret
    copy rather than ``group`` shift/or passes.
    """
    entries = np.asarray(entries, dtype=np.uint32)
    if group < 1:
        raise ValueError("group must be >= 1")
    if entries.size % group:
        raise ValueError(f"entry count {entries.size} not divisible by group {group}")
    n = entries.size // group
    n_lanes = (group + 1) // 2
    lanes = np.empty((n, n_lanes), dtype=np.uint64) if out is None else out
    if group % 2 == 0 and sys.byteorder == "little":
        # On little-endian hosts two consecutive uint32 entries already
        # have the lane's byte layout, so the pack is one reinterpret
        # copy; big-endian hosts take the endian-neutral shift loop.
        src = np.ascontiguousarray(entries).view(np.uint64).reshape(n, n_lanes)
        np.copyto(lanes, src)
        return lanes
    lanes[:] = 0
    grouped = entries.reshape(n, group)
    for e in range(group):
        lane = e // 2
        shift = np.uint64(32 * (e % 2))
        lanes[:, lane] |= grouped[:, e].astype(np.uint64) << shift
    return lanes


def unpack_u32_lanes(lanes: np.ndarray, group: int) -> np.ndarray:
    """Inverse of :func:`pack_u32_lanes`; returns a flat uint32 array."""
    lanes = np.asarray(lanes, dtype=np.uint64)
    n = lanes.shape[0]
    out = np.empty((n, group), dtype=np.uint32)
    for e in range(group):
        lane = e // 2
        shift = np.uint64(32 * (e % 2))
        out[:, e] = ((lanes[:, lane] >> shift) & _U32).astype(np.uint32)
    return out.reshape(-1)


def bits_to_lane_masks(positions: Iterable[int], n_lanes: int) -> np.ndarray:
    """Turn a set of physical bit positions into per-lane uint64 masks."""
    masks = np.zeros(n_lanes, dtype=np.uint64)
    for pos in positions:
        lane, bit = divmod(int(pos), 64)
        if not 0 <= lane < n_lanes:
            raise ValueError(f"bit position {pos} outside {n_lanes} lanes")
        masks[lane] |= np.uint64(1) << np.uint64(bit)
    return masks
