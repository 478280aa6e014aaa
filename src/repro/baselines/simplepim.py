"""The evaluation baseline: SimplePIM-style collectives + conventional flows.

The paper's baseline (section VIII-A) uses SimplePIM's implementations
for the primitives it supports (Broadcast, Scatter, Gather, AllReduce,
AllGather) and faithfully-implemented conventional versions of the rest
(AlltoAll, ReduceScatter, Reduce), all extended with the same
multi-dimensional hypercube for fairness.  We reproduce exactly that:

* AllGather  = Gather + Broadcast of the concatenation.  This leans on
  the driver's fast broadcast, which is why the 1-D baseline AllGather
  is already competitive (Figure 18) -- but with many instances (2-D
  cubes) each group needs its own broadcast payload and the advantage
  evaporates.
* AllReduce  = Gather + host-side reduction + Broadcast.
* Everything else takes the conventional pull/modulate/push flow.
"""

from __future__ import annotations

from typing import Sequence

from ..core.collectives import BASELINE, CommPlan
from ..core.collectives.planner import (
    plan_alltoall,
    plan_broadcast,
    plan_gather,
    plan_reduce,
    plan_reduce_scatter,
    plan_scatter,
)
from ..core.collectives.steps import (
    BroadcastStep,
    GatherToHostStep,
    HostReduceStep,
    LaunchStep,
)
from ..core.groups import slice_groups
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, ReduceOp, check_op_dtype
from ..errors import CollectiveError

#: Primitives each framework supports (Table I).
UPMEM_SDK_SUPPORTED = frozenset({"scatter", "gather", "broadcast"})
SIMPLEPIM_SUPPORTED = frozenset(
    {"broadcast", "scatter", "gather", "allreduce", "allgather"})
PIDCOMM_SUPPORTED = frozenset({
    "alltoall", "reduce_scatter", "allgather", "allreduce",
    "scatter", "gather", "reduce", "broadcast"})

_SP_AG_GATHERED = "simplepim.allgather.gathered"
_SP_AR_GATHERED = "simplepim.allreduce.gathered"


def sp_allgather(manager: HypercubeManager, dims: str | Sequence[int],
                 total_data_size: int, src_offset: int,
                 dst_offset: int, dtype: DataType) -> CommPlan:
    """SimplePIM AllGather: gather to host, broadcast the concatenation."""
    groups = slice_groups(manager, dims)
    n = groups[0].size
    if total_data_size % dtype.itemsize:
        raise CollectiveError("allgather chunk must hold whole elements")
    steps = [
        LaunchStep(count=2),
        GatherToHostStep(groups=groups, src_offset=src_offset,
                         chunk_bytes=total_data_size,
                         scratch_key=_SP_AG_GATHERED, mode="conventional"),
        BroadcastStep(groups=groups, dst_offset=dst_offset,
                      nbytes=n * total_data_size,
                      scratch_key=_SP_AG_GATHERED),
    ]
    return CommPlan("allgather", steps, {
        "primitive": "allgather", "instances": len(groups),
        "group_size": n, "config": "SimplePIM",
        "per_pe_bytes": total_data_size,
        "out_bytes_per_pe": n * total_data_size})


def sp_allreduce(manager: HypercubeManager, dims: str | Sequence[int],
                 total_data_size: int, src_offset: int, dst_offset: int,
                 dtype: DataType, op: ReduceOp) -> CommPlan:
    """SimplePIM AllReduce: gather, reduce on the host, broadcast."""
    check_op_dtype(op, dtype)
    groups = slice_groups(manager, dims)
    n = groups[0].size
    steps = [
        LaunchStep(count=2),
        GatherToHostStep(groups=groups, src_offset=src_offset,
                         chunk_bytes=total_data_size,
                         scratch_key=_SP_AR_GATHERED, mode="rearrange"),
        HostReduceStep(scratch_key=_SP_AR_GATHERED,
                       out_key="simplepim.allreduce.reduced",
                       dtype=dtype, op=op, vectors=n,
                       nbytes=total_data_size, instances=len(groups)),
        BroadcastStep(groups=groups, dst_offset=dst_offset,
                      nbytes=total_data_size,
                      scratch_key="simplepim.allreduce.reduced"),
    ]
    return CommPlan("allreduce", steps, {
        "primitive": "allreduce", "instances": len(groups),
        "group_size": n, "config": "SimplePIM",
        "per_pe_bytes": total_data_size,
        "out_bytes_per_pe": total_data_size})


def baseline_plan(primitive: str, manager: HypercubeManager,
                  dims: str | Sequence[int], total_data_size: int,
                  src_offset: int = 0, dst_offset: int = 0,
                  dtype: DataType | None = None,
                  op: ReduceOp | None = None) -> CommPlan:
    """Build the evaluation-baseline plan for any primitive.

    Dispatches to the SimplePIM implementation where one exists and to
    the conventional flow otherwise (with the ``BASELINE`` OptConfig).
    """
    from ..dtypes import INT64, SUM
    dtype = dtype or INT64
    op = op or SUM
    if primitive == "allgather":
        return sp_allgather(manager, dims, total_data_size, src_offset,
                            dst_offset, dtype)
    if primitive == "allreduce":
        return sp_allreduce(manager, dims, total_data_size, src_offset,
                            dst_offset, dtype, op)
    if primitive == "alltoall":
        return plan_alltoall(manager, dims, total_data_size, src_offset,
                             dst_offset, dtype, BASELINE)
    if primitive == "reduce_scatter":
        return plan_reduce_scatter(manager, dims, total_data_size,
                                   src_offset, dst_offset, dtype, op,
                                   BASELINE)
    if primitive == "gather":
        return plan_gather(manager, dims, total_data_size, src_offset,
                           dtype, BASELINE)
    if primitive == "scatter":
        return plan_scatter(manager, dims, total_data_size, dst_offset,
                            dtype, BASELINE)
    if primitive == "reduce":
        return plan_reduce(manager, dims, total_data_size, src_offset,
                           dtype, op, BASELINE)
    if primitive == "broadcast":
        return plan_broadcast(manager, dims, total_data_size, dst_offset,
                              dtype, BASELINE)
    raise CollectiveError(f"unknown primitive {primitive!r}")


def capability_table() -> list[dict[str, object]]:
    """Table I: which framework supports what (introspected)."""
    order = ("alltoall", "reduce_scatter", "allgather", "allreduce",
             "scatter", "gather", "reduce", "broadcast")
    rows = []
    for name, supported, multi, perf in (
        ("UPMEM SDK", UPMEM_SDK_SUPPORTED, False, "Not Optimized"),
        ("SimplePIM", SIMPLEPIM_SUPPORTED, False, "Not Optimized"),
        ("PID-Comm", PIDCOMM_SUPPORTED, True, "Optimized"),
    ):
        rows.append({
            "framework": name,
            "multi_instance": multi,
            "performance": perf,
            **{p: (p in supported) for p in order},
        })
    return rows
