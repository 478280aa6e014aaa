"""Host-side vector-register data path (the AVX-512 modulation engine).

PID-Comm's host pass never lets a word leave one vector register
(in-register modulation): bursts are loaded 64 bytes at a time, lane
rotations are one- or two-source shuffles (``valignq`` /
``vpermi2q``-class), domain transfers are 8x8 byte transposes within a
register, and reductions are vertical SIMD adds.

This module executes the lane rotations *register-wise* on lane
matrices and counts their register ops (the plan steps count a domain
transfer's transposes per register), so the functional path moves data
exactly the way the real SIMD kernels do and the op counts can be
cross-checked against what the cost model charges (see
``tests/test_host_simd.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import TransferError

#: AVX-512 register width.
REGISTER_BYTES = 64
#: Lanes a single register covers (one entangled group's burst).
REGISTER_LANES = 8


@dataclass
class SimdCounter:
    """Counts of register operations performed by a host pass."""

    loads: int = 0
    stores: int = 0
    shuffles: int = 0
    transposes: int = 0

    def merge(self, other: "SimdCounter") -> None:
        """Accumulate another counter into this one."""
        self.loads += other.loads
        self.stores += other.stores
        self.shuffles += other.shuffles
        self.transposes += other.transposes


def _check_row(row: np.ndarray) -> tuple[int, int]:
    if row.ndim != 2 or row.dtype != np.uint8:
        raise TransferError(
            f"expected 2-D uint8 lane matrix, got {row.dtype} "
            f"ndim={row.ndim}")
    lanes, nbytes = row.shape
    if lanes % REGISTER_LANES and lanes < REGISTER_LANES:
        # Sub-register groups are fine (instances pack within one
        # register); only require the matrix to be rectangular.
        pass
    return lanes, nbytes


def rotate_lanes_registerwise(row: np.ndarray, amount: int,
                              counter: SimdCounter | None = None
                              ) -> np.ndarray:
    """Rotate lane rows down by ``amount``, one output register at a time.

    Equivalent to ``np.roll(row, amount, axis=0)`` but executed the way
    the SIMD kernel does: every output register gathers its 8 lanes
    from at most two source registers (one shuffle each when aligned,
    two otherwise).  Groups smaller than a register rotate inside one
    register with a single shuffle.
    """
    lanes, nbytes = _check_row(row)
    counter = counter if counter is not None else SimdCounter()
    out = np.empty_like(row)
    amount %= lanes
    lane_block = min(REGISTER_LANES, lanes)
    col_step = REGISTER_BYTES // lane_block
    for col in range(0, nbytes, col_step):
        width = min(col_step, nbytes - col)
        for block in range(0, lanes, lane_block):
            src_lanes = [(block + i - amount) % lanes
                         for i in range(min(lane_block, lanes - block))]
            source_regs = {l // lane_block for l in src_lanes}
            counter.loads += len(source_regs)
            counter.shuffles += len(source_regs)
            counter.stores += 1
            out[block:block + len(src_lanes), col:col + width] = \
                row[src_lanes, col:col + width]
    return out


@lru_cache(maxsize=None)
def _rotate_block_ops(lanes: int, amount: int) -> tuple[int, int]:
    """Per-column (source-register loads, register stores) of one rotate.

    :func:`rotate_lanes_registerwise`'s inner loop charges the same ops
    for every column, so the whole matrix costs ``ncols`` times these
    block sums; caching them lets plan lowering charge a rotation
    without walking the blocks again.
    """
    amount %= lanes
    lane_block = min(REGISTER_LANES, lanes)
    loads = 0
    stores = 0
    for block in range(0, lanes, lane_block):
        src_lanes = [(block + i - amount) % lanes
                     for i in range(min(lane_block, lanes - block))]
        loads += len({l // lane_block for l in src_lanes})
        stores += 1
    return loads, stores


def count_rotate_ops(lanes: int, nbytes: int, amount: int,
                     counter: SimdCounter) -> None:
    """Charge exactly what ``rotate_lanes_registerwise`` would, datalessly."""
    lane_block = min(REGISTER_LANES, lanes)
    col_step = REGISTER_BYTES // lane_block
    ncols = (nbytes + col_step - 1) // col_step
    loads, stores = _rotate_block_ops(lanes, amount)
    counter.loads += ncols * loads
    counter.shuffles += ncols * loads
    counter.stores += ncols * stores


@lru_cache(maxsize=None)
def _rotate_sweep_ops(lanes: int, nbytes: int,
                      nslots: int) -> tuple[int, int, int]:
    """(loads, shuffles, stores) of rotating slots ``0..nslots-1``."""
    probe = SimdCounter()
    for amount in range(nslots):
        count_rotate_ops(lanes, nbytes, amount, probe)
    return probe.loads, probe.shuffles, probe.stores


def charge_rotate_sweep(lanes: int, nbytes: int, nslots: int,
                        counter: SimdCounter) -> None:
    """Charge the full slot sweep (rotations ``0..nslots-1``) at once.

    This is the register-op bill of calling
    :func:`rotate_lanes_registerwise` on slots ``0..nslots-1``; plan
    lowering uses it to pre-price a compiled program's host pass
    without touching data.
    """
    loads, shuffles, stores = _rotate_sweep_ops(lanes, nbytes, nslots)
    counter.loads += loads
    counter.shuffles += shuffles
    counter.stores += stores


@lru_cache(maxsize=None)
def rotation_table(lanes: int, nslots: int) -> np.ndarray:
    """Read-only ``(lanes, nslots)`` source-lane table of the slot sweep.

    ``table[l, s] = (l - s) % lanes``: the source lane of slot ``s``'s
    rotation, the gather index compiled programs apply, shared
    (memoized) across calls and across compiled programs.
    """
    table = (np.arange(lanes, dtype=np.intp)[:, None]
             - np.arange(nslots, dtype=np.intp)[None, :]) % lanes
    table.setflags(write=False)
    return table


# Kept only because benchmarks/e2e/tracer.py lists this name; drop it
# with the next change to the benchmark's target list.
def rotate_all_slots(tensor: np.ndarray,
                     counter: SimdCounter | None = None) -> np.ndarray:
    """Every slot's lane rotation in one gather: slot ``s`` rolls by ``s``.

    ``tensor`` is a ``(lanes, nslots, chunk_bytes)`` uint8 array;
    ``out[l, s] = tensor[(l - s) % lanes, s]``.  This is the batched
    equivalent of calling :func:`rotate_lanes_registerwise` on each
    slot's ``(lanes, chunk_bytes)`` row with ``amount = s``; the
    counter is charged identically (cost parity is asserted by
    ``tests/test_backend_parity.py``).
    """
    if tensor.ndim != 3 or tensor.dtype != np.uint8:
        raise TransferError(
            f"expected 3-D uint8 slot tensor, got {tensor.dtype} "
            f"ndim={tensor.ndim}")
    lanes, nslots, _chunk = tensor.shape
    counter = counter if counter is not None else SimdCounter()
    charge_rotate_sweep(lanes, tensor.shape[2], nslots, counter)
    src = rotation_table(lanes, nslots)
    return tensor[src, np.arange(nslots)[None, :], :]


# Kept only because benchmarks/e2e/tracer.py lists this name; drop it
# with the next change to the benchmark's target list.
def fanout_all_slots(row: np.ndarray, nslots: int,
                     counter: SimdCounter | None = None) -> np.ndarray:
    """Stack ``nslots`` downward rotations of one lane row.

    ``out[l, s] = row[(l - s) % lanes]``: the batched equivalent of
    writing ``rotate_lanes_registerwise(row, s)`` per slot (the
    AllGather fan-out), with identical counter charges.  Returns a
    ``(lanes, nslots, row_bytes)`` array.
    """
    lanes, nbytes = _check_row(row)
    counter = counter if counter is not None else SimdCounter()
    charge_rotate_sweep(lanes, nbytes, nslots, counter)
    src = rotation_table(lanes, nslots)
    return row[src]
