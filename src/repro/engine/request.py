"""Collective requests: the one description every engine entry point uses.

A :class:`CommRequest` captures a single collective invocation the way
the :class:`~repro.engine.communicator.Communicator` methods would --
primitive name, dimension bitmap, byte size, keyword-only offsets and
payloads -- but as data, so requests can be built up front, batched,
and submitted together.  ``normalize`` resolves the string conveniences
(dtype/op names, dimension bitmaps) once, producing the hashable form
the plan cache and the scheduler work with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.collectives import ALL_PRIMITIVES, OptConfig
from ..core.groups import group_size, resolve_dims
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, ReduceOp, SUM, dtype_by_name, op_by_name
from ..errors import CollectiveError

#: Primitives whose plans embed a reduction operator.
ARITHMETIC_PRIMITIVES = frozenset({"reduce_scatter", "allreduce", "reduce"})
#: Primitives fed from per-instance host payloads.
PAYLOAD_PRIMITIVES = frozenset({"scatter", "broadcast"})
#: Primitives that permute their source buffer in place (PE-assisted
#: reordering runs its preparation kernel on the src region).
INPLACE_SRC_PRIMITIVES = frozenset({"reduce_scatter", "allreduce", "reduce"})


@dataclass
class CommRequest:
    """One collective invocation, as data.

    Args:
        primitive: One of :data:`~repro.core.collectives.ALL_PRIMITIVES`.
        comm_dimensions: Dimension bitmap (``"010"``) or index sequence.
        total_data_size: Bytes per PE, following the planner's buffer
            conventions (see ``core/collectives/planner.py``).
        src_offset/dst_offset: Per-PE MRAM offsets (keyword-only in the
            :class:`Communicator` methods; plain fields here).
        data_type: :class:`DataType` or name (``"int32"``).
        reduction_type: :class:`ReduceOp` or name; arithmetic
            primitives only.
        payloads: instance -> host array, for scatter/broadcast.
        config: Per-request :class:`OptConfig` override (None = the
            communicator's default).
        tag: Free-form label surfaced in traces and futures.
        tenant: Owning tenant id, stamped by the serving front-end
            (``repro.serving``).  Routes plan lookups through that
            tenant's plan-cache partition; None (direct session use)
            keeps the shared cache.
    """

    primitive: str
    comm_dimensions: str | Sequence[int]
    total_data_size: int
    src_offset: int = 0
    dst_offset: int = 0
    data_type: DataType | str = "int64"
    reduction_type: ReduceOp | str = "sum"
    payloads: Mapping[int, np.ndarray] | None = None
    config: OptConfig | None = None
    tag: str | None = None
    tenant: str | None = None

    def normalize(self, manager: HypercubeManager,
                  default_config: OptConfig,
                  backend: str = "scalar") -> "NormalizedRequest":
        """Resolve names/bitmaps against ``manager``; validate early.

        ``backend`` records the execution backend the session will run
        the plan on; it is folded into the cache key so scalar and
        vectorized sessions sharing a cache never alias plans.
        """
        if self.primitive not in ALL_PRIMITIVES:
            raise CollectiveError(
                f"unknown primitive {self.primitive!r}; "
                f"known: {ALL_PRIMITIVES}")
        dtype = (self.data_type if isinstance(self.data_type, DataType)
                 else dtype_by_name(self.data_type))
        op = (self.reduction_type
              if isinstance(self.reduction_type, ReduceOp)
              else op_by_name(self.reduction_type))
        if self.primitive not in ARITHMETIC_PRIMITIVES:
            op = SUM  # irrelevant; pin it so cache keys coalesce
        dims = resolve_dims(manager, self.comm_dimensions)
        return NormalizedRequest(
            primitive=self.primitive, dims=dims,
            total_data_size=int(self.total_data_size),
            src_offset=int(self.src_offset),
            dst_offset=int(self.dst_offset), dtype=dtype, op=op,
            config=self.config if self.config is not None else default_config,
            group_size=group_size(manager, dims),
            backend=backend,
            topology=manager.topology_signature(),
            payloads=self.payloads, tag=self.tag, tenant=self.tenant)


@dataclass
class NormalizedRequest:
    """A :class:`CommRequest` with every convenience resolved."""

    primitive: str
    dims: tuple[int, ...]
    total_data_size: int
    src_offset: int
    dst_offset: int
    dtype: DataType
    op: ReduceOp
    config: OptConfig
    group_size: int
    #: Execution backend the session runs this plan on.
    backend: str = "scalar"
    #: The manager's :meth:`topology_signature` at normalization time.
    #: Folded into the cache key so plans compiled for a degraded
    #: (remapped) cube never alias the healthy cube's plans.
    topology: Any = None
    payloads: Mapping[int, np.ndarray] | None = None
    tag: str | None = None
    #: Owning tenant id (serving front-end); selects the plan-cache
    #: partition the engine resolves this request through.
    tenant: str | None = None

    @functools.cached_property
    def plan_key(self) -> "PlanKey":
        """Cache key: everything that shapes the plan except payloads.

        Computed once per request: the engine asks for it on every
        cached call, and the request is never mutated.
        """
        op_name = (self.op.name if self.primitive in ARITHMETIC_PRIMITIVES
                   else None)
        return PlanKey(primitive=self.primitive, dims=self.dims,
                       total_data_size=self.total_data_size,
                       src_offset=self.src_offset,
                       dst_offset=self.dst_offset,
                       dtype=self.dtype.name, op=op_name,
                       variant=self.config, topology=self.topology,
                       backend=self.backend)

    def describe(self) -> str:
        """Short label for traces and futures."""
        dims = "".join(str(d) for d in self.dims)
        label = self.tag or self.primitive
        return f"{label}[d{dims}] {self.total_data_size}B"

    # ------------------------------------------------------------------
    # Buffer footprint (the scheduler's dependency currency)
    # ------------------------------------------------------------------
    def footprint(self) -> "Footprint":
        """Per-PE MRAM intervals this request reads and writes.

        Host-side buffers (gather outputs, scatter/broadcast payloads)
        are private to the request and never alias, so only PE memory
        matters.  In-place primitives report their src interval as both
        read and written (the PE-assisted preparation kernel permutes
        the source region).  Every op's writes are checked against it
        (``tests/test_containment.py``).  Computed once per request.
        """
        return self._footprint

    @functools.cached_property
    def _footprint(self) -> "Footprint":
        n = self.group_size
        size = self.total_data_size
        src = (self.src_offset, size)
        reads: list[tuple[int, int]] = []
        writes: list[tuple[int, int]] = []
        if self.primitive == "alltoall":
            reads, writes = [src], [(self.dst_offset, size)]
        elif self.primitive == "reduce_scatter":
            reads = [src]
            writes = [src, (self.dst_offset, size // n)]
        elif self.primitive == "allgather":
            reads, writes = [src], [(self.dst_offset, n * size)]
        elif self.primitive == "allreduce":
            reads = [src]
            writes = [src, (self.dst_offset, size)]
        elif self.primitive == "gather":
            reads = [src]
        elif self.primitive == "reduce":
            reads, writes = [src], [src]
        elif self.primitive == "scatter":
            writes = [(self.dst_offset, size)]
        elif self.primitive == "broadcast":
            writes = [(self.dst_offset, size)]
        return Footprint(reads=tuple(reads), writes=tuple(writes))


@dataclass(frozen=True)
class PlanKey:
    """Hashable identity of a compiled plan.

    ``variant`` distinguishes plan-shaping context beyond the request
    itself: the :class:`OptConfig` rung.  ``topology`` carries the
    manager's virtual -> physical mapping signature; degraded cubes
    (post rank failure) therefore key separately from healthy ones.
    """

    primitive: str
    dims: tuple[int, ...]
    total_data_size: int
    src_offset: int
    dst_offset: int
    dtype: str
    op: str | None
    variant: Any
    topology: Any = None
    #: Execution backend (``"scalar"``/``"vectorized"``); keyed so a
    #: cache shared across sessions never hands one backend's plan to
    #: the other.
    backend: str = "scalar"


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[0] + b[1] and b[0] < a[0] + a[1]


@dataclass(frozen=True)
class Footprint:
    """Read/write byte intervals, as ``(offset, nbytes)`` pairs."""

    reads: tuple[tuple[int, int], ...]
    writes: tuple[tuple[int, int], ...]

    def conflicts_with(self, other: "Footprint") -> bool:
        """True on any RAW / WAR / WAW hazard between the two."""
        for w in self.writes:
            for span in other.reads + other.writes:
                if _overlaps(w, span):
                    return True
        for w in other.writes:
            for span in self.reads:
                if _overlaps(w, span):
                    return True
        return False
