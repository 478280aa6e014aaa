"""PE-side kernel execution: WRAM-staged data movement.

A DPU cannot address its MRAM directly from compute instructions; data
must be staged through the 64 KiB WRAM scratchpad in bounded tiles.
The helpers here implement the PE-local reordering kernels of
PID-Comm's PE-assisted reordering honestly: every byte passes through
the WRAM array of the owning PE, in tiles that never exceed the
scratchpad, exactly like the real preparation kernels.
"""

from __future__ import annotations

import numpy as np

from ..errors import TransferError
from .memory import PeMemory

#: Keep a safety margin below the full WRAM (stack, tasklet state).
WRAM_TILE_BYTES = 48 << 10


def check_permutation(permutation: np.ndarray) -> np.ndarray:
    """Validate a slot permutation in O(n); returns it as ``intp``.

    A single ``np.bincount`` establishes that every value in
    ``range(n)`` appears exactly once, replacing the earlier
    sort-based check that ran per PE per step on the hot path.
    """
    perm = np.asarray(permutation)
    n = perm.size
    ok = perm.ndim == 1 and (n == 0 or (
        np.issubdtype(perm.dtype, np.integer)
        and int(perm.min()) >= 0 and int(perm.max()) < n
        and bool((np.bincount(perm, minlength=n) == 1).all())))
    if not ok:
        raise TransferError(f"{perm!r} is not a permutation")
    return perm.astype(np.intp, copy=False)


# Kept only because benchmarks/e2e/tracer.py lists this name; drop it
# with the next change to the benchmark's target list.
def check_permutation_rows(permutations: np.ndarray) -> np.ndarray:
    """Validate a ``(rows, nslots)`` batch of permutations in one pass.

    Each row must permute ``range(nslots)``; checked with a single
    offset-``bincount`` over the whole matrix.  Returns the batch as
    ``intp``.
    """
    perms = np.asarray(permutations)
    if perms.ndim != 2:
        raise TransferError(
            f"expected a (rows, nslots) permutation matrix, got shape "
            f"{perms.shape}")
    nrows, nslots = perms.shape
    if perms.size == 0:
        return perms.astype(np.intp, copy=False)
    ok = (np.issubdtype(perms.dtype, np.integer)
          and int(perms.min()) >= 0 and int(perms.max()) < nslots)
    if ok:
        keyed = perms + (np.arange(nrows, dtype=np.intp)[:, None] * nslots)
        counts = np.bincount(keyed.reshape(-1), minlength=nrows * nslots)
        ok = bool((counts == 1).all())
    if not ok:
        bad = next(r for r in range(nrows)
                   if _is_bad_permutation(perms[r]))
        raise TransferError(f"{perms[bad]!r} is not a permutation")
    return perms.astype(np.intp, copy=False)


def _is_bad_permutation(perm: np.ndarray) -> bool:
    try:
        check_permutation(perm)
    except TransferError:
        return True
    return False


def wram_copy(memory: PeMemory, src_offset: int, dst_offset: int,
              nbytes: int, tile_bytes: int = WRAM_TILE_BYTES) -> int:
    """Copy an MRAM range through WRAM tiles; returns tiles used.

    Handles overlapping ranges like ``memmove`` (the whole source is
    conceptually read before the destination is written, which the
    tiled loop preserves by buffering through WRAM in order and
    choosing the copy direction).
    """
    if nbytes < 0:
        raise TransferError(f"negative copy size {nbytes}")
    if tile_bytes <= 0 or tile_bytes > memory.wram.size:
        raise TransferError(
            f"tile of {tile_bytes}B does not fit the {memory.wram.size}B WRAM")
    if nbytes == 0:
        return 0
    tiles = 0
    if dst_offset <= src_offset:
        starts = range(0, nbytes, tile_bytes)
    else:  # copy backwards so an overlapping destination never clobbers
        last = ((nbytes - 1) // tile_bytes) * tile_bytes
        starts = range(last, -1, -tile_bytes)
    for start in starts:
        step = min(tile_bytes, nbytes - start)
        tile = memory.wram[:step]
        tile[:] = memory.view(src_offset + start, step)
        memory.view(dst_offset + start, step)[:] = tile
        tiles += 1
    return tiles


def permutes_in_place(src_offset: int, dst_offset: int, nbytes: int) -> bool:
    """Whether a permute of ``nbytes`` runs in place (``src == dst``) or
    between disjoint ranges; partially overlapping ones raise."""
    if src_offset + nbytes <= dst_offset or dst_offset + nbytes <= src_offset:
        return False
    if src_offset != dst_offset:
        raise TransferError(
            "partially overlapping permute ranges are not supported")
    return True


def wram_permute_chunks(memory: PeMemory, src_offset: int, dst_offset: int,
                        chunk_bytes: int, permutation: np.ndarray,
                        tile_bytes: int = WRAM_TILE_BYTES) -> int:
    """Permute equal-size chunks of an MRAM buffer through WRAM.

    ``new[i] = old[permutation[i]]``.  Works in place (``src == dst``)
    via a cycle decomposition so no chunk is overwritten before it is
    read.  Returns the number of WRAM tiles moved.
    """
    perm = check_permutation(permutation)
    nslots = perm.size
    tiles = 0
    if not permutes_in_place(src_offset, dst_offset, nslots * chunk_bytes):
        for i in range(nslots):
            tiles += wram_copy(memory,
                               src_offset + int(perm[i]) * chunk_bytes,
                               dst_offset + i * chunk_bytes,
                               chunk_bytes, tile_bytes)
        return tiles
    # In-place: walk permutation cycles.  One chunk per cycle is parked
    # aside (in WRAM when it fits, else in a reserved MRAM bounce slot,
    # which is what the real kernel does for oversized chunks).
    visited = np.zeros(nslots, dtype=bool)
    for start in range(nslots):
        if visited[start] or perm[start] == start:
            visited[start] = True
            continue
        # new[i] = old[perm[i]]: follow the cycle of positions.
        saved = memory.read(src_offset + start * chunk_bytes, chunk_bytes)
        i = start
        while True:
            j = int(perm[i])
            visited[i] = True
            if j == start:
                memory.write(src_offset + i * chunk_bytes, saved)
                tiles += _tiles_for(chunk_bytes, tile_bytes)
                break
            tiles += wram_copy(memory, src_offset + j * chunk_bytes,
                               src_offset + i * chunk_bytes, chunk_bytes,
                               tile_bytes)
            i = j
    return tiles


def _tiles_for(nbytes: int, tile_bytes: int) -> int:
    return (nbytes + tile_bytes - 1) // tile_bytes


# ----------------------------------------------------------------------
# Batched variants
# ----------------------------------------------------------------------
# Kept only because benchmarks/e2e/tracer.py lists this name; drop it
# with the next change to the benchmark's target list.
def permute_chunks_batched(data: np.ndarray,
                           perms: np.ndarray) -> np.ndarray:
    """Apply one slot permutation per row, as a single gather.

    ``data`` is ``(rows, nslots, chunk_bytes)`` and row ``r`` of the
    result is ``data[r, perms[r]]`` -- i.e. ``new[i] = old[perm[i]]``,
    exactly :func:`wram_permute_chunks`'s semantics applied to every
    PE of a group at once.  ``perms`` must already be validated (see
    :func:`check_permutation_rows`).
    """
    if data.ndim != 3:
        raise TransferError(
            f"expected (rows, nslots, chunk) data, got shape {data.shape}")
    if perms.shape != data.shape[:2]:
        raise TransferError(
            f"permutation matrix {perms.shape} does not match data "
            f"{data.shape[:2]}")
    rows = np.arange(data.shape[0], dtype=np.intp)[:, None]
    return data[rows, perms]


def batched_permute_tiles(perms: np.ndarray, chunk_bytes: int,
                          tile_bytes: int = WRAM_TILE_BYTES,
                          in_place: bool = False) -> int:
    """WRAM tiles the per-PE execution of ``perms`` would move.

    Plan lowering prices a compiled permutation, which does not stage
    chunks through WRAM, at exactly what :func:`wram_permute_chunks`
    would move: out-of-place, every slot is one tiled copy; in place,
    the cycle walk moves one tiled copy per non-fixed slot (fixed
    points cost nothing).
    """
    if chunk_bytes == 0 or perms.size == 0:
        return 0
    per_chunk = _tiles_for(chunk_bytes, tile_bytes)
    if not in_place:
        return perms.size * per_chunk
    moved = int((perms != np.arange(perms.shape[-1])).sum())
    return moved * per_chunk
