"""PIM-domain byte striping and domain transfer.

When the host copies a contiguous buffer to an entangled group, the DDR
bus spreads each 64-bit word across the group's 8 chips, one byte lane
per chip (Figure 1).  The UPMEM driver hides this by rearranging bytes
with vector shuffles -- the *domain transfer* (paper section II-B) -- so
that each PE receives whole words.  The rearrangement is exactly a byte
transpose between

* the **host domain**: ``k`` words of ``lanes`` bytes laid out
  contiguously, and
* the **PIM domain**: a ``(lanes, k)`` matrix whose row ``l`` holds byte
  ``l`` of every word and lives in PE ``l``'s bank.

We carry PIM-resident data as such *lane matrices* (numpy uint8 arrays
of shape ``(lanes, nbytes_per_lane)``).  A raw (domain-transfer-free)
host access sees the lane matrix as-is: byte-granular lane permutations
are cheap SIMD shuffles on it (cross-domain modulation), but words in a
single lane cannot be interpreted by the host without the transpose.
"""

from __future__ import annotations

import numpy as np

from ..errors import TransferError


def host_to_pim(host_bytes: np.ndarray, lanes: int) -> np.ndarray:
    """Domain-transfer a host-domain byte buffer into a lane matrix.

    Args:
        host_bytes: 1-D uint8 array, length a multiple of ``lanes``.
        lanes: Number of byte lanes (chips per rank).

    Returns:
        A ``(lanes, len(host_bytes) // lanes)`` uint8 array; row ``l``
        holds byte ``l`` of every ``lanes``-byte word.
    """
    buf = _as_bytes(host_bytes)
    if buf.size % lanes:
        raise TransferError(
            f"host buffer of {buf.size} bytes is not a multiple of {lanes} lanes")
    return np.ascontiguousarray(buf.reshape(-1, lanes).T)


def pim_to_host(lane_matrix: np.ndarray) -> np.ndarray:
    """Domain-transfer a lane matrix back to a host-domain byte buffer."""
    matrix = _as_matrix(lane_matrix)
    return np.ascontiguousarray(matrix.T).reshape(-1)


def _as_bytes(buf: np.ndarray) -> np.ndarray:
    arr = np.asarray(buf)
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise TransferError(
            f"expected 1-D uint8 host buffer, got {arr.dtype} ndim={arr.ndim}")
    return arr


def _as_matrix(lane_matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(lane_matrix)
    if arr.dtype != np.uint8 or arr.ndim != 2:
        raise TransferError(
            f"expected 2-D uint8 lane matrix, got {arr.dtype} ndim={arr.ndim}")
    return arr
