"""Compile collective invocations into :class:`CommPlan` objects.

One planner per primitive.  Every planner accepts an
:class:`~repro.core.collectives.config.OptConfig`; with all techniques
off it emits the conventional host-mediated flow, otherwise the
three-stage PID-Comm flow with the host pass mode implied by the
enabled techniques.

Buffer conventions (bytes, per PE; ``N`` = communication-group size):

==============  =======================  ==========================
primitive       src buffer               dst buffer
==============  =======================  ==========================
alltoall        ``N*c`` (N chunks)       ``N*c``
reduce_scatter  ``N*c`` (N chunks)       ``c``
allgather       ``c``                    ``N*c``
allreduce       ``M`` (``M = N*c``)      ``M``
scatter         host: ``N*c``/instance   ``c``
gather          ``c``                    host: ``N*c``/instance
reduce          ``M``                    host: ``M``/instance
broadcast       host: ``M``/instance     ``M``
==============  =======================  ==========================

ReduceScatter and AllReduce permute the *source* buffer in place as
part of PE-assisted reordering, exactly like the real library's
preparation kernels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ...dtypes import DataType, ReduceOp, check_op_dtype
from ...errors import CollectiveError
from ..groups import CommGroup, slice_groups
from ..hypercube import HypercubeManager
from .config import OptConfig, FULL
from .plan import CommPlan
from .steps import (
    BroadcastStep,
    FanoutFromHostStep,
    FanoutStep,
    GatherToHostStep,
    HostGlobalExchangeStep,
    HostReduceStep,
    LaunchStep,
    PeReorderStep,
    ReduceExchangeStep,
    RotateExchangeStep,
    ScatterFromHostStep,
    Step,
)

#: Scratch keys used by multi-step plans.
AR_SCRATCH = "allreduce.reduced"
AG_SCRATCH = "allgather.gathered"
GATHER_SCRATCH = "gather.out"
REDUCE_SCRATCH = "reduce.out"


def _prepare(manager: HypercubeManager, dims: str | Sequence[int]
             ) -> tuple[tuple[CommGroup, ...], int]:
    groups = slice_groups(manager, dims)
    size = groups[0].size
    return groups, size


def _chunk_of(total_bytes: int, nslots: int, dtype: DataType,
              primitive: str) -> int:
    if total_bytes <= 0:
        raise CollectiveError(f"{primitive}: data size must be positive")
    if total_bytes % nslots:
        raise CollectiveError(
            f"{primitive}: per-PE size {total_bytes}B must divide into "
            f"{nslots} chunks (group size)")
    chunk = total_bytes // nslots
    if chunk % dtype.itemsize:
        raise CollectiveError(
            f"{primitive}: chunk of {chunk}B is not a whole number of "
            f"{dtype.name} elements")
    return chunk


def _pass_mode(config: OptConfig, arithmetic: bool, dtype: DataType) -> str:
    """Host pass mode implied by the enabled techniques (Table II)."""
    if config.cross_domain and (not arithmetic or dtype.cross_domain_reducible):
        return "crossdomain"
    if config.in_register:
        return "inregister"
    return "staged"


def _meta(primitive: str, groups: Sequence[CommGroup], config: OptConfig,
          per_pe_bytes: int, out_bytes: int) -> dict:
    size = groups[0].size
    return {
        "primitive": primitive,
        "instances": len(groups),
        "group_size": size,
        # Equal-size groups are the precondition for lowering steps
        # into shared-index-table program ops (hypercube slicing always
        # satisfies it; recorded for program/bench introspection).
        "uniform_groups": all(g.size == size for g in groups),
        "config": config.label,
        "per_pe_bytes": per_pe_bytes,
        "out_bytes_per_pe": out_bytes,
    }


# ----------------------------------------------------------------------
# Non-rooted primitives
# ----------------------------------------------------------------------
def plan_alltoall(manager: HypercubeManager, dims: str | Sequence[int],
                  total_data_size: int, src_offset: int, dst_offset: int,
                  dtype: DataType, config: OptConfig = FULL) -> CommPlan:
    """AlltoAll over the selected dimensions (Figure 7)."""
    groups, n = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, n, dtype, "alltoall")
    steps: list[Step] = [LaunchStep()]
    if not config.pe_reorder:
        steps.append(HostGlobalExchangeStep(
            groups=groups, primitive="alltoall", src_offset=src_offset,
            dst_offset=dst_offset, chunk_bytes=chunk, nslots_in=n,
            nslots_out=n, dtype=dtype))
    else:
        mode = _pass_mode(config, arithmetic=False, dtype=dtype)
        steps.append(PeReorderStep(groups, "rotate_left_rank", src_offset,
                                   dst_offset, chunk, n))
        steps.append(RotateExchangeStep(groups=groups, offset=dst_offset,
                                        chunk_bytes=chunk, nslots=n,
                                        mode=mode))
        steps.append(PeReorderStep(groups, "reflect_rank", dst_offset,
                                   dst_offset, chunk, n))
    return CommPlan("alltoall", steps,
                    _meta("alltoall", groups, config, total_data_size,
                          total_data_size))


def plan_allgather(manager: HypercubeManager, dims: str | Sequence[int],
                   total_data_size: int, src_offset: int, dst_offset: int,
                   dtype: DataType, config: OptConfig = FULL) -> CommPlan:
    """AllGather over the selected dimensions (Figure 8(a)).

    ``total_data_size`` is the per-PE *input* chunk size; every PE ends
    with ``group_size * total_data_size`` bytes at ``dst_offset``.
    """
    groups, n = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, 1, dtype, "allgather")
    steps: list[Step] = [LaunchStep()]
    if len(groups) == 1:
        # Single instance: every PE receives the identical concatenation,
        # so the driver's near-peak broadcast fast path applies (this is
        # why 1-D AllGather is a wash in Figure 18 -- both libraries
        # ride the same broadcast).
        steps.append(GatherToHostStep(
            groups=groups, src_offset=src_offset, chunk_bytes=chunk,
            scratch_key=AG_SCRATCH, mode="inregister"))
        steps.append(BroadcastStep(
            groups=groups, dst_offset=dst_offset, nbytes=n * chunk,
            scratch_key=AG_SCRATCH))
    elif not config.pe_reorder:
        steps.append(HostGlobalExchangeStep(
            groups=groups, primitive="allgather", src_offset=src_offset,
            dst_offset=dst_offset, chunk_bytes=chunk, nslots_in=1,
            nslots_out=n, dtype=dtype))
    else:
        mode = _pass_mode(config, arithmetic=False, dtype=dtype)
        steps.append(FanoutStep(groups=groups, src_offset=src_offset,
                                dst_offset=dst_offset, chunk_bytes=chunk,
                                mode=mode))
        steps.append(PeReorderStep(groups, "reflect_rank", dst_offset,
                                   dst_offset, chunk, n))
    return CommPlan("allgather", steps,
                    _meta("allgather", groups, config, total_data_size,
                          n * total_data_size))


def plan_reduce_scatter(manager: HypercubeManager, dims: str | Sequence[int],
                        total_data_size: int, src_offset: int,
                        dst_offset: int, dtype: DataType, op: ReduceOp,
                        config: OptConfig = FULL) -> CommPlan:
    """ReduceScatter over the selected dimensions (Figure 8(b))."""
    check_op_dtype(op, dtype)
    groups, n = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, n, dtype, "reduce_scatter")
    steps: list[Step] = [LaunchStep()]
    if not config.pe_reorder:
        steps.append(HostGlobalExchangeStep(
            groups=groups, primitive="reduce_scatter", src_offset=src_offset,
            dst_offset=dst_offset, chunk_bytes=chunk, nslots_in=n,
            nslots_out=1, dtype=dtype, op=op))
    else:
        mode = _pass_mode(config, arithmetic=True, dtype=dtype)
        steps.append(PeReorderStep(groups, "rotate_left_rank", src_offset,
                                   src_offset, chunk, n))
        steps.append(ReduceExchangeStep(
            groups=groups, src_offset=src_offset, chunk_bytes=chunk,
            nslots=n, dtype=dtype, op=op, mode=mode, dst_offset=dst_offset))
    return CommPlan("reduce_scatter", steps,
                    _meta("reduce_scatter", groups, config, total_data_size,
                          chunk))


def plan_allreduce(manager: HypercubeManager, dims: str | Sequence[int],
                   total_data_size: int, src_offset: int, dst_offset: int,
                   dtype: DataType, op: ReduceOp,
                   config: OptConfig = FULL) -> CommPlan:
    """AllReduce: fused ReduceScatter + AllGather (Figure 8(c)).

    Unlike ring libraries, the fused form converts the reduced data to
    the PIM domain once and fans it out with byte rotations instead of
    paying a second full collective.
    """
    check_op_dtype(op, dtype)
    groups, n = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, n, dtype, "allreduce")
    steps: list[Step] = [LaunchStep()]
    if not config.pe_reorder:
        steps.append(HostGlobalExchangeStep(
            groups=groups, primitive="allreduce", src_offset=src_offset,
            dst_offset=dst_offset, chunk_bytes=chunk, nslots_in=n,
            nslots_out=n, dtype=dtype, op=op))
    else:
        mode = _pass_mode(config, arithmetic=True, dtype=dtype)
        steps.append(PeReorderStep(groups, "rotate_left_rank", src_offset,
                                   src_offset, chunk, n))
        steps.append(ReduceExchangeStep(
            groups=groups, src_offset=src_offset, chunk_bytes=chunk,
            nslots=n, dtype=dtype, op=op, mode=mode, dst_offset=None,
            scratch_key=AR_SCRATCH))
        steps.append(FanoutFromHostStep(
            groups=groups, scratch_key=AR_SCRATCH, dst_offset=dst_offset,
            chunk_bytes=chunk, mode=mode))
        steps.append(PeReorderStep(groups, "reflect_rank", dst_offset,
                                   dst_offset, chunk, n))
    return CommPlan("allreduce", steps,
                    _meta("allreduce", groups, config, total_data_size,
                          total_data_size))


# ----------------------------------------------------------------------
# Rooted primitives (host as root)
# ----------------------------------------------------------------------
def plan_gather(manager: HypercubeManager, dims: str | Sequence[int],
                total_data_size: int, src_offset: int, dtype: DataType,
                config: OptConfig = FULL) -> CommPlan:
    """Gather each PE's chunk to the host (AllGather step 1 + DT)."""
    groups, _ = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, 1, dtype, "gather")
    mode = "inregister" if config.in_register else "conventional"
    steps: list[Step] = [
        LaunchStep(),
        GatherToHostStep(groups=groups, src_offset=src_offset,
                         chunk_bytes=chunk, scratch_key=GATHER_SCRATCH,
                         mode=mode),
    ]
    return CommPlan("gather", steps,
                    _meta("gather", groups, config, total_data_size, 0))


def plan_scatter(manager: HypercubeManager, dims: str | Sequence[int],
                 total_data_size: int, dst_offset: int, dtype: DataType,
                 payloads: Mapping[int, np.ndarray] | None = None,
                 config: OptConfig = FULL) -> CommPlan:
    """Scatter host chunks to the PEs (ReduceScatter steps 6-7).

    ``total_data_size`` is the per-PE chunk each member receives;
    ``payloads[instance]`` must hold ``group_size * total_data_size``
    bytes (may be omitted for analytic runs).
    """
    groups, _ = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, 1, dtype, "scatter")
    mode = "inregister" if config.in_register else "conventional"
    payload_dict = _payload_bytes(payloads)
    steps: list[Step] = [
        LaunchStep(),
        ScatterFromHostStep(groups=groups, dst_offset=dst_offset,
                            chunk_bytes=chunk, payloads=payload_dict,
                            mode=mode),
    ]
    return CommPlan("scatter", steps,
                    _meta("scatter", groups, config, 0, total_data_size))


def plan_reduce(manager: HypercubeManager, dims: str | Sequence[int],
                total_data_size: int, src_offset: int, dtype: DataType,
                op: ReduceOp, config: OptConfig = FULL) -> CommPlan:
    """Reduce all PEs' vectors to the host (ReduceScatter steps 1-5)."""
    check_op_dtype(op, dtype)
    groups, n = _prepare(manager, dims)
    chunk = _chunk_of(total_data_size, n, dtype, "reduce")
    steps: list[Step] = [LaunchStep()]
    if not config.pe_reorder:
        # Conventional: gather everything, reduce on the host alone.
        steps.append(GatherToHostStep(
            groups=groups, src_offset=src_offset,
            chunk_bytes=total_data_size, scratch_key="reduce.gathered",
            mode="conventional"))
        steps.append(HostReduceStep(
            scratch_key="reduce.gathered", out_key=REDUCE_SCRATCH,
            dtype=dtype, op=op, vectors=n,
            nbytes=total_data_size).with_instances(len(groups)))
    else:
        mode = _pass_mode(config, arithmetic=True, dtype=dtype)
        steps.append(PeReorderStep(groups, "rotate_left_rank", src_offset,
                                   src_offset, chunk, n))
        steps.append(ReduceExchangeStep(
            groups=groups, src_offset=src_offset, chunk_bytes=chunk,
            nslots=n, dtype=dtype, op=op, mode=mode, dst_offset=None,
            scratch_key=REDUCE_SCRATCH))
    return CommPlan("reduce", steps,
                    _meta("reduce", groups, config, total_data_size, 0))


def plan_broadcast(manager: HypercubeManager, dims: str | Sequence[int],
                   total_data_size: int, dst_offset: int, dtype: DataType,
                   payloads: Mapping[int, np.ndarray] | None = None,
                   config: OptConfig = FULL) -> CommPlan:
    """Broadcast host buffers to every member PE.

    Equal for all configs: the native driver broadcast already runs at
    near-peak bandwidth (one domain transfer serves all PEs).
    """
    groups, _ = _prepare(manager, dims)
    _chunk_of(total_data_size, 1, dtype, "broadcast")
    steps: list[Step] = [
        LaunchStep(),
        BroadcastStep(groups=groups, dst_offset=dst_offset,
                      nbytes=total_data_size,
                      payloads=_payload_bytes(payloads)),
    ]
    return CommPlan("broadcast", steps,
                    _meta("broadcast", groups, config, 0, total_data_size))


def _payload_bytes(payloads: Mapping[int, np.ndarray] | None
                   ) -> dict[int, np.ndarray] | None:
    if payloads is None:
        return None
    return {int(k): np.ascontiguousarray(v).reshape(-1).view(np.uint8)
            for k, v in payloads.items()}


#: The eight primitives, in the paper's Figure-10 order.
ALL_PRIMITIVES = (
    "alltoall", "reduce_scatter", "allgather", "allreduce",
    "scatter", "gather", "reduce", "broadcast",
)


def build_plan(primitive: str, manager: HypercubeManager,
               dims: str | Sequence[int], total_data_size: int,
               src_offset: int, dst_offset: int, dtype: DataType,
               op: ReduceOp, config: OptConfig = FULL) -> CommPlan:
    """Payload-free plan of one invocation of any primitive.

    The one place a primitive's name becomes its planner call (rooted
    primitives take one offset, arithmetic ones the reduce op).  The
    ``plan_*`` names are looked up when this runs, not captured in a
    table at import, so a planner re-bound in this module -- the
    benchmark tracer wraps them -- is the one that gets called.
    """
    m, size, src, dst = manager, total_data_size, src_offset, dst_offset
    if primitive == "alltoall":
        return plan_alltoall(m, dims, size, src, dst, dtype, config)
    if primitive == "allgather":
        return plan_allgather(m, dims, size, src, dst, dtype, config)
    if primitive == "reduce_scatter":
        return plan_reduce_scatter(m, dims, size, src, dst, dtype, op, config)
    if primitive == "allreduce":
        return plan_allreduce(m, dims, size, src, dst, dtype, op, config)
    if primitive == "gather":
        return plan_gather(m, dims, size, src, dtype, config)
    if primitive == "scatter":
        return plan_scatter(m, dims, size, dst, dtype, None, config)
    if primitive == "reduce":
        return plan_reduce(m, dims, size, src, dtype, op, config)
    if primitive == "broadcast":
        return plan_broadcast(m, dims, size, dst, dtype, None, config)
    raise CollectiveError(
        f"unknown primitive {primitive!r}; known: {ALL_PRIMITIVES}")
