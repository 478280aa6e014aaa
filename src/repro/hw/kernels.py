"""Structured DPU kernels: WRAM-tiled, instruction-counted compute.

Where :mod:`repro.hw.pe` covers pure data movement, this module models
*compute* kernels the way a DPU program runs them: stream MRAM operands
through WRAM tiles, apply the operation element-wise, stream results
back, and count instructions so modelled kernel time can be derived
from the same execution that produces the functional result.

Used by the PE-side reductions of the ring/tree topologies and
available to applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dtypes import DataType, ReduceOp
from ..errors import TransferError
from .memory import PeMemory
from .pe import WRAM_TILE_BYTES
from .timing import MachineParams

#: Modelled DPU instructions per element for a load-op-store triplet.
_INSTR_PER_ELEMENT = 4


def fold_slots(values: np.ndarray, op: ReduceOp,
               out: np.ndarray | None = None) -> np.ndarray:
    """Fold the slot axis of a ``(..., nslots, elems)`` value block.

    The shared reduce kernel of compiled replay: integer dtypes fold
    with one ``ufunc.reduce`` (fixed-width modular arithmetic is
    order-independent, so any fold order is bit-exact); floats keep the
    explicit left fold whose evaluation order matches the interpreted
    backends, so floating-point results stay bit-identical to the
    scalar oracle.  Pass ``out`` (shaped like ``values`` without the
    slot axis) to accumulate into preallocated scratch -- the ``out=``
    variant streamed replay uses so steady-state tiles allocate
    nothing.  ``out`` must not alias ``values``.
    """
    if values.dtype.kind in "iub":
        return op.reduce_axis(values, axis=-2, out=out)
    nslots = values.shape[-2]
    if out is None:
        acc = values[..., 0, :].copy()
    else:
        acc = out
        np.copyto(acc, values[..., 0, :])
    for s in range(1, nslots):
        acc = op.combine(acc, values[..., s, :], out=acc)
    return acc


@dataclass
class KernelStats:
    """Execution counters of one kernel run on one PE."""

    instructions: int = 0
    mram_read_bytes: int = 0
    mram_write_bytes: int = 0
    wram_tiles: int = 0

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another run's counters into this one."""
        self.instructions += other.instructions
        self.mram_read_bytes += other.mram_read_bytes
        self.mram_write_bytes += other.mram_write_bytes
        self.wram_tiles += other.wram_tiles

    def seconds(self, params: MachineParams) -> float:
        """Modelled time of this run (PEs execute in parallel)."""
        stream = (self.mram_read_bytes + self.mram_write_bytes) \
            / (params.pe_mram_gbps * 1e9)
        compute = self.instructions / params.pe_ops_per_sec
        return stream + compute


@dataclass(frozen=True)
class ElementwiseKernel:
    """``out[i] = op(a[i], b[i])``, streamed through WRAM tiles.

    The two operand tiles and the output tile share the WRAM, so the
    per-pass tile is a third of the usual staging size.
    """

    op: ReduceOp
    dtype: DataType

    def run(self, memory: PeMemory, a_offset: int, b_offset: int,
            out_offset: int, nbytes: int,
            tile_bytes: int = WRAM_TILE_BYTES // 3) -> KernelStats:
        """Execute on one PE; in-place (out == a or b) is allowed."""
        if nbytes % self.dtype.itemsize:
            raise TransferError(
                f"{nbytes}B is not a whole number of {self.dtype.name} "
                "elements")
        if tile_bytes < self.dtype.itemsize:
            raise TransferError(f"tile of {tile_bytes}B holds no element")
        stats = KernelStats()
        tile_bytes -= tile_bytes % self.dtype.itemsize
        for start in range(0, nbytes, tile_bytes):
            step = min(tile_bytes, nbytes - start)
            a = memory.read(a_offset + start, step).view(self.dtype.np_dtype)
            b = memory.read(b_offset + start, step).view(self.dtype.np_dtype)
            merged = self.op.combine(a, b)
            memory.write(out_offset + start,
                         np.ascontiguousarray(merged).view(np.uint8))
            elements = step // self.dtype.itemsize
            stats.instructions += _INSTR_PER_ELEMENT * elements
            stats.mram_read_bytes += 2 * step
            stats.mram_write_bytes += step
            stats.wram_tiles += 3
        return stats
