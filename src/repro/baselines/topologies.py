"""Ring- and tree-topology AllReduce on PIM-enabled DIMMs (Figure 23a).

These are the classic multi-hop algorithms used by GPU/CPU collective
libraries, transplanted onto the DIMMs with all of PID-Comm's data-path
optimizations applied (as the paper does for the comparison).  They
lose anyway:

* the **ring** needs ``2(N-1)`` host-mediated rounds, multiplying bus
  traffic and per-round launch overheads;
* the **tree** halves its active PE set every round, so later rounds
  leave most byte lanes of each burst idle -- it "wastes the available
  host-PIM bandwidth" exactly as section VIII-H describes.

Both are implemented functionally (verified against the golden
AllReduce) and analytically through the same plan machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.collectives.plan import CommPlan, ExecContext, Step
from ..core.collectives.steps import PeReorderStep, _bus_terms
from ..hw.kernels import ElementwiseKernel
from ..core.groups import CommGroup, slice_groups
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, ReduceOp, check_op_dtype
from ..errors import CollectiveError
from ..hw.system import DimmSystem
from ..hw.timing import CostLedger


@dataclass
class RingStep(Step):
    """One ring round: every PE ships one chunk to its +1 neighbour.

    With ``op`` set the receiver reduces the chunk into its buffer
    (reduce-scatter phase); without it the chunk is stored verbatim
    (allgather phase).  The chunk index rotates with the round counter
    ``t`` following the textbook ring schedule.
    """

    groups: Sequence[CommGroup]
    offset: int
    chunk_bytes: int
    round_t: int
    dtype: DataType
    op: ReduceOp | None
    #: MRAM offset where the host stages the incoming chunk before the
    #: receiving PE's reduction kernel merges it.
    staging_offset: int = 0

    def _send_index(self, rank: int, nslots: int) -> int:
        base = (rank - self.round_t) % nslots
        if self.op is None:
            # Allgather phase forwards the chunk completed in the RS
            # phase, which for rank i is chunk (i + 1) mod N.
            return (base + 1) % nslots
        return base

    def apply(self, ctx: ExecContext) -> None:
        for group in self.groups:
            n = group.size
            outgoing = []
            for rank, pe in enumerate(group.pe_ids):
                idx = self._send_index(rank, n)
                outgoing.append(ctx.system.memory(pe).read(
                    self.offset + idx * self.chunk_bytes, self.chunk_bytes))
            for rank, pe in enumerate(group.pe_ids):
                src_rank = (rank - 1) % n
                idx = self._send_index(src_rank, n)
                incoming = outgoing[src_rank]
                mem = ctx.system.memory(pe)
                slot = self.offset + idx * self.chunk_bytes
                if self.op is None:
                    mem.write(slot, incoming)
                else:
                    # Host stages the chunk; the DPU reduction kernel
                    # merges it tile-by-tile through WRAM.
                    mem.write(self.staging_offset, incoming)
                    kernel = ElementwiseKernel(self.op, self.dtype)
                    kernel.run(mem, self.staging_offset, slot, slot,
                               self.chunk_bytes)

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        moved = sum(g.size for g in self.groups) * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(2 * moved, channels, util))
        ledger.add("host_mod", params.mod_time(moved, "shuffle"))
        if self.op is not None:
            # The receiving PE reduces the staged chunk into its buffer.
            ledger.add("pe", params.pe_stream_time(self.chunk_bytes))
            ledger.add("pe", params.pe_compute_time(
                self.chunk_bytes / self.dtype.itemsize))
            ledger.add("launch", params.kernel_launch_s)
        ledger.add("launch", params.collective_launch_s)
        return ledger

    def describe(self) -> str:
        phase = "reduce" if self.op else "gather"
        return f"Ring[{phase}] t={self.round_t} chunk={self.chunk_bytes}B"


@dataclass
class TreePairStep(Step):
    """One tree round: pair (i, i + 2^r) exchanges a full buffer.

    Direction ``up`` reduces the partner's buffer into the lower PE;
    ``down`` pushes the finished buffer back out.  Only a shrinking
    subset of PEs participates, so the bus-lane utilization penalty is
    computed from the actual member set.
    """

    groups: Sequence[CommGroup]
    offset: int
    nbytes: int
    round_r: int
    dtype: DataType
    op: ReduceOp
    direction: str
    #: MRAM offset where the partner's buffer is staged for the merge.
    staging_offset: int = 0

    def _pairs(self, n: int) -> list[tuple[int, int]]:
        stride = 1 << self.round_r
        return [(i, i + stride) for i in range(0, n, stride * 2)]

    def apply(self, ctx: ExecContext) -> None:
        for group in self.groups:
            for low, high in self._pairs(group.size):
                pe_low = group.pe_ids[low]
                pe_high = group.pe_ids[high]
                if self.direction == "up":
                    partner = ctx.system.memory(pe_high).read(self.offset,
                                                              self.nbytes)
                    mem = ctx.system.memory(pe_low)
                    mem.write(self.staging_offset, partner)
                    kernel = ElementwiseKernel(self.op, self.dtype)
                    kernel.run(mem, self.staging_offset, self.offset,
                               self.offset, self.nbytes)
                else:
                    data = ctx.system.memory(pe_low).read(self.offset,
                                                          self.nbytes)
                    ctx.system.memory(pe_high).write(self.offset, data)

    def _active_pes(self) -> list[int]:
        active = []
        for group in self.groups:
            for low, high in self._pairs(group.size):
                active.append(group.pe_ids[low])
                active.append(group.pe_ids[high])
        return active

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        pairs = sum(len(self._pairs(g.size)) for g in self.groups)
        moved = pairs * self.nbytes
        geom = system.geometry
        active = self._active_pes()
        channels = geom.channels_used(active)
        util = geom.lane_utilization(active)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(2 * moved, channels, util))
        ledger.add("host_mod", params.mod_time(moved, "shuffle"))
        if self.direction == "up":
            ledger.add("pe", params.pe_stream_time(self.nbytes))
            ledger.add("pe", params.pe_compute_time(
                self.nbytes / self.dtype.itemsize))
            ledger.add("launch", params.kernel_launch_s)
        ledger.add("launch", params.collective_launch_s)
        return ledger

    def describe(self) -> str:
        return f"Tree[{self.direction}] r={self.round_r} {self.nbytes}B"


def ring_allreduce_plan(manager: HypercubeManager, dims: str | Sequence[int],
                        total_data_size: int, src_offset: int,
                        dst_offset: int, dtype: DataType,
                        op: ReduceOp) -> CommPlan:
    """Ring AllReduce: N-1 reduce rounds + N-1 gather rounds."""
    check_op_dtype(op, dtype)
    groups = slice_groups(manager, dims)
    n = groups[0].size
    if total_data_size % n or (total_data_size // n) % dtype.itemsize:
        raise CollectiveError(
            f"ring allreduce needs per-PE size divisible into {n} aligned "
            "chunks")
    chunk = total_data_size // n
    staging = manager.system.alloc(chunk)
    steps: list[Step] = [
        # Stage the working copy in dst (identity reorder = plain copy).
        PeReorderStep(groups, "identity", src_offset, dst_offset, chunk, n),
    ]
    for t in range(n - 1):
        steps.append(RingStep(groups, dst_offset, chunk, t, dtype, op,
                              staging_offset=staging))
    for t in range(n - 1):
        steps.append(RingStep(groups, dst_offset, chunk, t, dtype, None,
                              staging_offset=staging))
    return CommPlan("allreduce", steps, {
        "primitive": "allreduce", "topology": "ring",
        "instances": len(groups), "group_size": n,
        "per_pe_bytes": total_data_size,
        "out_bytes_per_pe": total_data_size})


def tree_allreduce_plan(manager: HypercubeManager, dims: str | Sequence[int],
                        total_data_size: int, src_offset: int,
                        dst_offset: int, dtype: DataType,
                        op: ReduceOp) -> CommPlan:
    """Tree AllReduce: log2(N) reduce rounds up, log2(N) broadcast down."""
    check_op_dtype(op, dtype)
    groups = slice_groups(manager, dims)
    n = groups[0].size
    if n & (n - 1):
        raise CollectiveError(f"tree allreduce needs a power-of-two group "
                              f"size, got {n}")
    if total_data_size % dtype.itemsize:
        raise CollectiveError("tree allreduce payload must hold whole elements")
    rounds = n.bit_length() - 1
    staging = manager.system.alloc(total_data_size)
    steps: list[Step] = [
        PeReorderStep(groups, "identity", src_offset, dst_offset,
                      total_data_size, 1),
    ]
    for r in range(rounds):
        steps.append(TreePairStep(groups, dst_offset, total_data_size, r,
                                  dtype, op, "up", staging_offset=staging))
    for r in reversed(range(rounds)):
        steps.append(TreePairStep(groups, dst_offset, total_data_size, r,
                                  dtype, op, "down",
                                  staging_offset=staging))
    return CommPlan("allreduce", steps, {
        "primitive": "allreduce", "topology": "tree",
        "instances": len(groups), "group_size": n,
        "per_pe_bytes": total_data_size,
        "out_bytes_per_pe": total_data_size})
