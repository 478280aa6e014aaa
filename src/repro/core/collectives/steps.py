"""Plan steps: the concrete dataflows of PID-Comm and the baselines.

Each step both executes (moving real bytes through the simulated DIMMs)
and declares its traffic (the bytes, operations and launches its
real-system counterpart spends, as priced terms).  The optimized steps
implement the paper's three-stage decomposition:

    PE-local permutation  ->  host lane pass  ->  PE-local permutation

where the host lane pass is, depending on the enabled techniques,

* ``"staged"``      -- domain transfer + host-memory staging + local
  modulation (PE-assisted reordering only, Figure 7(b));
* ``"inregister"``  -- domain transfer + in-register SIMD shifts, no
  host memory (Figure 7(c));
* ``"crossdomain"`` -- raw byte-lane shuffles on PIM-domain data, no
  domain transfer at all (Figure 7(d)).

Lane rotation correctness (derived in DESIGN.md): after every PE with
group rank ``a`` rotates its chunk array left by ``a``, slot ``s`` of
lane ``a`` holds the chunk destined for group rank ``(s + a) mod N``;
rolling the slot-``s`` lane row down by ``s`` therefore lands every
chunk in its destination lane, and a final reflection permutation
``new[p] = old[(rank - p) mod N]`` restores source order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ...dtypes import DataType, ReduceOp
from ...errors import CollectiveError, TransferError
from ...hw import domain
from ...hw.geometry import DimmGeometry
from ...hw.host import (
    REGISTER_BYTES,
    SimdCounter,
    charge_rotate_sweep,
    rotate_lanes_registerwise,
    rotation_table,
)
from ...hw.pe import WRAM_TILE_BYTES, batched_permute_tiles, permutes_in_place
from ...hw.timing import Term
from ..groups import CommGroup
from .. import reference
from .plan import ExecContext, Step
from .program import (
    BroadcastFillOp,
    FanoutScratchOp,
    GatherMoveOp,
    HostFoldOp,
    HostPullOp,
    HostPushOp,
    ProgramOp,
    ReduceFoldOp,
    fold_host_vectors,
    readonly_table,
    scaled_counter,
)

HOST_PASS_MODES = ("staged", "inregister", "crossdomain")

#: The conventional flow's primitives (``HostGlobalExchangeStep``),
#: and the host scratch its lowered AllReduce folds into.
_GLOBAL_MOVES = ("alltoall", "allgather")
_GLOBAL_FOLDS = ("reduce_scatter", "allreduce")
_GLOBAL_SCRATCH = "global_exchange.reduced"


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def slot_permutation_matrix(rule: str, nranks: int,
                            nslots: int) -> np.ndarray:
    """Slot permutations of group ranks ``0..nranks-1``: row ``r`` is
    the ``perm`` with ``new[i] = old[perm[i]]`` for the PE of rank ``r``.

    Memoized -- steady-state collectives reuse the identical
    permutations every call -- so the matrix is read-only.
    """
    ranks = np.arange(nranks)[:, None]
    idx = np.arange(nslots)[None, :]
    if rule == "identity":
        matrix = np.broadcast_to(idx, (nranks, nslots)).copy()
    elif rule == "rotate_left_rank":
        # new[s] = old[(s + rank) % n]
        matrix = (idx + ranks) % nslots
    elif rule == "reflect_rank":
        # new[p] = old[(rank - p) % n]
        matrix = (ranks - idx) % nslots
    else:
        raise CollectiveError(f"unknown slot permutation rule {rule!r}")
    matrix.setflags(write=False)
    return matrix


def union_pes(groups: Sequence[CommGroup]) -> list[int]:
    """All PEs participating across the instances, deduplicated."""
    seen: set[int] = set()
    for group in groups:
        seen.update(group.pe_ids)
    return sorted(seen)


def _uniform_group_size(groups: Sequence[CommGroup]) -> int:
    """The common group size: program ops share one index table across
    their groups (hypercube slicing only makes equal ones)."""
    sizes = {g.size for g in groups}
    if len(sizes) != 1:
        raise CollectiveError(
            f"no compiled form for group sizes {sorted(sizes)}: program "
            "ops need one or more equal-size groups")
    return sizes.pop()


def _concat_ids(groups: Sequence[CommGroup]) -> np.ndarray:
    """Rank-ordered PE ids of every group, concatenated (read-only)."""
    ids = np.concatenate(
        [np.asarray(g.pe_ids, dtype=np.intp) for g in groups])
    ids.setflags(write=False)
    return ids


def _group_id_arrays(groups: Sequence[CommGroup]) -> tuple[np.ndarray, ...]:
    """Per-group PE id arrays (read-only), for per-instance ops."""
    out = []
    for g in groups:
        ids = np.asarray(g.pe_ids, dtype=np.intp)
        ids.setflags(write=False)
        out.append(ids)
    return tuple(out)


@lru_cache(maxsize=None)
def _lane_identity_table(nranks: int, nslots: int) -> np.ndarray:
    """Read-only ``table[l, s] = l`` (a lane-preserving gather)."""
    return readonly_table(np.broadcast_to(
        np.arange(nranks, dtype=np.intp)[:, None], (nranks, nslots)))


@lru_cache(maxsize=None)
def _slot_sweep_table(nranks: int, nslots: int) -> np.ndarray:
    """Read-only ``table[l, s] = s`` (a slot-preserving gather)."""
    return readonly_table(np.broadcast_to(
        np.arange(nslots, dtype=np.intp)[None, :], (nranks, nslots)))


def _dt_registers(nbytes: int) -> int:
    """Registers one domain transfer of ``nbytes`` occupies."""
    return (nbytes + REGISTER_BYTES - 1) // REGISTER_BYTES


#: :func:`pe_span` by identity: a plan's steps share one group tuple, so
#: a hit hashes no member ids.  A new manager's equal groups fall back
#: to the value memo, :func:`_span`.
_SPANS: dict[tuple, tuple] = {}


def pe_span(geometry: DimmGeometry, groups: Sequence[CommGroup],
            ranks: tuple[int, ...] | None = None) -> tuple[int, int, float]:
    """``(PEs, channels, lane utilization)`` of the PE set a transfer
    over ``groups`` touches: every member, or ranks ``ranks`` of each
    (a tree round's thinning set)."""
    key = (id(groups), id(geometry), ranks)
    hit = _SPANS.get(key)
    if hit is None or hit[0] is not groups or hit[1] is not geometry:
        if len(_SPANS) >= 256:
            _SPANS.clear()
        hit = _SPANS[key] = (groups, geometry,
                             _span(geometry, tuple(groups), ranks))
    return hit[2]


@lru_cache(maxsize=256)
def _span(geometry: DimmGeometry, groups: tuple[CommGroup, ...],
          ranks: tuple[int, ...] | None) -> tuple[int, int, float]:
    pes = np.asarray(union_pes(groups) if ranks is None
                     else [g.pe_ids[r] for g in groups for r in ranks])
    return (pes.size, geometry.channels_used(pes),
            geometry.lane_utilization(pes))


#: Host staging passes and modulation rate of a rooted transfer's mode.
_ROOTED_MODES = {"inregister": (1, "mod_simd"),
                 "conventional": (2, "mod_local"),
                 "rearrange": (3, "mod_scalar")}


def _lane_pass(bus: Term, mod_bytes: int, mode: str) -> tuple[Term, ...]:
    """A pass moving ``bus``'s bytes and modulating ``mod_bytes``: DT modes
    transpose every byte moved; ``staged`` also stages it in host memory."""
    if mode == "crossdomain":
        return bus, Term("mod_shuffle", mod_bytes)
    if mode == "inregister":
        return bus, Term("dt", bus.amount), Term("mod_simd", mod_bytes)
    return (bus, Term("dt", bus.amount), Term("host_mem", 2 * bus.amount),
            Term("mod_local", mod_bytes))


def _rooted_traffic(geometry: DimmGeometry, groups: Sequence[CommGroup],
                    chunk_bytes: int, mode: str) -> tuple[Term, ...]:
    """One chunk per PE between MRAM and the host: the bus, one domain
    transfer, and the mode's staging passes and modulation."""
    pes, *lanes = pe_span(geometry, groups)
    total = pes * chunk_bytes
    passes, mod = _ROOTED_MODES[mode]
    return (Term("bus", total, *lanes), Term("dt", total),
            Term("host_mem", passes * total), Term(mod, total))


def _check_mode(mode: str) -> None:
    if mode not in HOST_PASS_MODES:
        raise CollectiveError(
            f"unknown host pass mode {mode!r}; known: {HOST_PASS_MODES}")


def _count_domain_transfer(ctx: ExecContext, nbytes: int) -> None:
    """Account the in-register transposes of a domain transfer.

    The simulator's lane matrices are already the element-aligned
    (post-DT) view, so the transform itself is a data no-op here; the
    register operations are still counted for the cost cross-check.
    """
    ctx.simd.transposes += _dt_registers(nbytes)


def _roundtrip_domain(row: np.ndarray) -> np.ndarray:
    """Domain-transfer a lane row to host domain and back.

    The data is unchanged (the transpose is an involution pair); the
    call exists so functional executions of DT-bearing modes exercise
    the real transpose code.
    """
    lanes = row.shape[0]
    return domain.host_to_pim(domain.pim_to_host(row), lanes)


# ----------------------------------------------------------------------
# PE-local reordering (the PR technique's PIM kernels)
# ----------------------------------------------------------------------
@dataclass
class PeReorderStep(Step):
    """Every member PE permutes its chunk array locally (in MRAM).

    The permutation is a rule parameterized by the PE's group rank, so
    the step stays O(1) in memory regardless of scale.
    """

    groups: Sequence[CommGroup]
    rule: str
    src_offset: int
    dst_offset: int
    chunk_bytes: int
    nslots: int

    def apply(self, ctx: ExecContext) -> None:
        injector = ctx.system.fault_injector
        if injector is not None:
            # A reorder is a real per-DPU kernel launch: it can hang.
            injector.guard_pes(ctx.system.geometry, union_pes(self.groups))
            injector.take_timeout("reorder kernel launch")
        for group in self.groups:
            perms = slot_permutation_matrix(self.rule, group.size,
                                            self.nslots)
            # Honest PE-side execution: every byte is staged through
            # the owning PE's WRAM in bounded tiles.
            ctx.wram_tiles += ctx.system.permute_chunks(
                group.pe_ids, self.src_offset, self.dst_offset,
                self.chunk_bytes, perms)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        pes = pe_span(geometry, self.groups)[0]
        return (Term("pe_stream", self.nslots * self.chunk_bytes, pes=pes),
                Term("kernel_launch", 1))

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        in_place = permutes_in_place(self.src_offset, self.dst_offset,
                                     self.nslots * self.chunk_bytes)
        perms = slot_permutation_matrix(self.rule, n, self.nslots)
        tiles = len(groups) * batched_permute_tiles(
            np.asarray(perms, dtype=np.intp), self.chunk_bytes,
            WRAM_TILE_BYTES, in_place=in_place)
        return [GatherMoveOp(
            ids=_concat_ids(groups), ngroups=len(groups),
            src_offset=self.src_offset, dst_offset=self.dst_offset,
            nslots_in=self.nslots, nslots_out=self.nslots,
            chunk_bytes=self.chunk_bytes,
            lane=_lane_identity_table(n, self.nslots),
            slot=readonly_table(perms),
            wram_tiles=tiles, labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"PeReorder[{self.rule}] {self.nslots}x{self.chunk_bytes}B "
                f"on {sum(g.size for g in self.groups)} PEs")


# ----------------------------------------------------------------------
# Host lane passes (the exchange cores of AA / AG / RS / AR)
# ----------------------------------------------------------------------
@dataclass
class RotateExchangeStep(Step):
    """AlltoAll exchange: per slot ``s``, roll the lane row down by ``s``.

    Reads and writes the same slot, so the pass streams through the
    host without growing state (in-register modulation); in ``staged``
    mode the same movement is charged as a host-memory round trip.
    """

    groups: Sequence[CommGroup]
    offset: int
    chunk_bytes: int
    nslots: int
    mode: str

    def __post_init__(self) -> None:
        _check_mode(self.mode)

    def apply(self, ctx: ExecContext) -> None:
        for group in self.groups:
            for s in range(self.nslots):
                slot_off = self.offset + s * self.chunk_bytes
                row = ctx.system.read_lanes(group.pe_ids, slot_off,
                                            self.chunk_bytes)
                rolled = rotate_lanes_registerwise(row, s, ctx.simd)
                if self.mode != "crossdomain":
                    # The lane matrix is the post-DT view; account the
                    # two transposes the DT-bearing modes perform.
                    _count_domain_transfer(ctx, 2 * row.size)
                    rolled = _roundtrip_domain(rolled)
                ctx.system.write_lanes(group.pe_ids, slot_off, rolled)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        pes, *lanes = pe_span(geometry, self.groups)
        total = pes * self.nslots * self.chunk_bytes
        return _lane_pass(Term("bus", 2 * total, *lanes), total, self.mode)

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        probe = SimdCounter()
        charge_rotate_sweep(n, self.chunk_bytes, self.nslots, probe)
        if self.mode != "crossdomain":
            probe.transposes += self.nslots * _dt_registers(
                2 * n * self.chunk_bytes)
        return [GatherMoveOp(
            ids=_concat_ids(groups), ngroups=len(groups),
            src_offset=self.offset, dst_offset=self.offset,
            nslots_in=self.nslots, nslots_out=self.nslots,
            chunk_bytes=self.chunk_bytes,
            lane=rotation_table(n, self.nslots),
            slot=_slot_sweep_table(n, self.nslots),
            simd=scaled_counter(probe, len(groups)),
            labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"RotateExchange[{self.mode}] {len(self.groups)} groups x "
                f"{self.nslots} slots x {self.chunk_bytes}B")


@dataclass
class FanoutStep(Step):
    """AllGather exchange: read each group's row once, write N rotations.

    After this step, slot ``s`` of group-rank ``q`` holds rank
    ``(q - s) mod N``'s chunk; a reflection PeReorder fixes the order.
    """

    groups: Sequence[CommGroup]
    src_offset: int
    dst_offset: int
    chunk_bytes: int
    mode: str

    def __post_init__(self) -> None:
        _check_mode(self.mode)

    def apply(self, ctx: ExecContext) -> None:
        for group in self.groups:
            row = ctx.system.read_lanes(group.pe_ids, self.src_offset,
                                        self.chunk_bytes)
            if self.mode != "crossdomain":
                _count_domain_transfer(
                    ctx, row.size * (1 + group.size))
                row = _roundtrip_domain(row)
            for s in range(group.size):
                rolled = rotate_lanes_registerwise(row, s, ctx.simd)
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset + s * self.chunk_bytes,
                    rolled)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        pes, *lanes = pe_span(geometry, self.groups)
        out_bytes = sum(g.size * g.size for g in self.groups) * self.chunk_bytes
        return _lane_pass(Term("bus", pes * self.chunk_bytes + out_bytes,
                               *lanes), out_bytes, self.mode)

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        probe = SimdCounter()
        if self.mode != "crossdomain":
            probe.transposes += _dt_registers(n * self.chunk_bytes * (1 + n))
        charge_rotate_sweep(n, self.chunk_bytes, n, probe)
        return [GatherMoveOp(
            ids=_concat_ids(groups), ngroups=len(groups),
            src_offset=self.src_offset, dst_offset=self.dst_offset,
            nslots_in=1, nslots_out=n, chunk_bytes=self.chunk_bytes,
            lane=rotation_table(n, n),
            slot=readonly_table(np.zeros((n, n), dtype=np.intp)),
            simd=scaled_counter(probe, len(groups)),
            labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"Fanout[{self.mode}] {len(self.groups)} groups x "
                f"{self.chunk_bytes}B")


@dataclass
class ReduceExchangeStep(Step):
    """ReduceScatter core: rotate rows into lane alignment, reduce
    vertically, then either write the reduced row back (ReduceScatter)
    or keep it in host scratch (Reduce / AllReduce phase 1).

    With PE-assisted reordering, lane ``q`` accumulates chunk ``q`` from
    every source across the ``N`` slot rows -- one vertical SIMD op per
    register, exactly the paper's in-register reduction.
    """

    groups: Sequence[CommGroup]
    src_offset: int
    chunk_bytes: int
    nslots: int
    dtype: DataType
    op: ReduceOp
    mode: str
    #: Write the reduced chunk to each PE at this offset (None = host keeps it).
    dst_offset: int | None = None
    #: Store per-instance reduced word matrices under this scratch key.
    scratch_key: str | None = None

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if self.mode == "crossdomain" and not self.dtype.cross_domain_reducible:
            raise CollectiveError(
                "cross-domain reduction needs 1-byte elements "
                f"(got {self.dtype.name})")
        if self.chunk_bytes % self.dtype.itemsize:
            raise CollectiveError(
                f"chunk of {self.chunk_bytes}B not divisible by "
                f"{self.dtype.name} itemsize")
        if self.dst_offset is None and self.scratch_key is None:
            raise CollectiveError(
                "reduce exchange must either write back or keep scratch")

    def apply(self, ctx: ExecContext) -> None:
        results = {}
        for group in self.groups:
            acc = self._reduce_group(ctx, group)
            if self.dst_offset is not None:
                raw = np.ascontiguousarray(acc).view(np.uint8)
                if self.mode != "crossdomain":
                    raw = _roundtrip_domain(raw)
                ctx.system.write_lanes(group.pe_ids, self.dst_offset, raw)
            if self.scratch_key is not None:
                results[group.instance] = acc
        if self.scratch_key is not None:
            ctx.scratch[self.scratch_key] = results

    def _reduce_group(self, ctx: ExecContext,
                      group: CommGroup) -> np.ndarray:
        """Per-slot read, rotate, left-fold accumulate."""
        acc: np.ndarray | None = None
        for s in range(self.nslots):
            row = ctx.system.read_lanes(
                group.pe_ids, self.src_offset + s * self.chunk_bytes,
                self.chunk_bytes)
            rolled = rotate_lanes_registerwise(row, s, ctx.simd)
            if self.mode != "crossdomain":
                _count_domain_transfer(ctx, rolled.size)
                rolled = _roundtrip_domain(rolled)
            values = rolled.view(self.dtype.np_dtype)
            acc = values.copy() if acc is None else self.op.combine(acc,
                                                                    values)
        assert acc is not None
        return acc

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        npes, *lanes = pe_span(geometry, self.groups)
        in_bytes = npes * self.nslots * self.chunk_bytes
        out_bytes = (npes * self.chunk_bytes
                     if self.dst_offset is not None else 0)
        terms = [Term("bus", in_bytes + out_bytes, *lanes)]
        if self.mode == "staged":
            terms += [Term("dt", in_bytes + out_bytes),
                      Term("host_mem", 2 * in_bytes + 2 * out_bytes),
                      Term("mod_local", in_bytes)]
        else:
            terms.append(Term("mod_shuffle", in_bytes))
            if self.mode == "inregister":
                terms.append(Term("dt", in_bytes + out_bytes))
        terms.append(Term("reduce_simd", in_bytes))
        if self.scratch_key is not None and self.mode == "staged":
            # Without in-register modulation the reduced rows must be
            # parked in host memory between the phases; with it they
            # stream straight into the fan-out (Figure 17: host memory
            # access is completely removed).
            terms.append(Term("host_mem", npes * self.chunk_bytes))
        return tuple(terms)

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        probe = SimdCounter()
        charge_rotate_sweep(n, self.chunk_bytes, self.nslots, probe)
        if self.mode != "crossdomain":
            probe.transposes += self.nslots * _dt_registers(
                n * self.chunk_bytes)
        return [ReduceFoldOp(
            ids=_concat_ids(groups), ngroups=len(groups),
            instances=tuple(g.instance for g in groups),
            src_offset=self.src_offset, chunk_bytes=self.chunk_bytes,
            nslots=self.nslots, dtype=self.dtype, op=self.op,
            lane=rotation_table(n, self.nslots),
            slot=_slot_sweep_table(n, self.nslots),
            dst_offset=self.dst_offset, scratch_key=self.scratch_key,
            simd=scaled_counter(probe, len(groups)),
            labels=(self.describe(),))]

    def describe(self) -> str:
        target = "host" if self.dst_offset is None else f"dst@{self.dst_offset}"
        return (f"ReduceExchange[{self.mode},{self.op}] "
                f"{len(self.groups)} groups -> {target}")


@dataclass
class FanoutFromHostStep(Step):
    """AllReduce phase 2: fan the host-resident reduced rows back out.

    One domain transfer converts the reduced data to PIM domain; the
    ``N`` per-slot writes are byte-rotations of that row (AllGather
    steps (7)-(9) of Figure 8(c)).
    """

    groups: Sequence[CommGroup]
    scratch_key: str
    dst_offset: int
    chunk_bytes: int
    mode: str

    def __post_init__(self) -> None:
        _check_mode(self.mode)

    def apply(self, ctx: ExecContext) -> None:
        results = ctx.host(self.scratch_key)
        for group in self.groups:
            acc = results[group.instance]
            row = np.ascontiguousarray(acc).view(np.uint8)
            if row.shape != (group.size, self.chunk_bytes):
                raise TransferError(
                    f"scratch row {row.shape} does not match group "
                    f"({group.size}, {self.chunk_bytes})")
            _count_domain_transfer(ctx, row.size)
            for s in range(group.size):
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset + s * self.chunk_bytes,
                    rotate_lanes_registerwise(row, s, ctx.simd))

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        pes, *lanes = pe_span(geometry, self.groups)
        out_bytes = sum(g.size * g.size for g in self.groups) * self.chunk_bytes
        terms = (Term("bus", out_bytes, *lanes),
                 Term("dt", pes * self.chunk_bytes))
        if self.mode != "staged":
            return terms + (Term("mod_shuffle", out_bytes),)
        return terms + (Term("mod_local", out_bytes),
                        Term("host_mem", 2 * out_bytes))

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        probe = SimdCounter()
        probe.transposes += _dt_registers(n * self.chunk_bytes)
        charge_rotate_sweep(n, self.chunk_bytes, n, probe)
        return [FanoutScratchOp(
            group_ids=_group_id_arrays(groups), ids=_concat_ids(groups),
            instances=tuple(g.instance for g in groups),
            scratch_key=self.scratch_key,
            lane=rotation_table(n, n), dst_offset=self.dst_offset,
            chunk_bytes=self.chunk_bytes, nslots_out=n,
            simd=scaled_counter(probe, len(groups)),
            labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"FanoutFromHost[{self.mode}] {len(self.groups)} groups x "
                f"{self.chunk_bytes}B")


# ----------------------------------------------------------------------
# Rooted primitives (host is always the root)
# ----------------------------------------------------------------------
@dataclass
class GatherToHostStep(Step):
    """Pull each PE's chunk to the host (domain transfer included).

    The per-instance host buffers (rank-order concatenations) land in
    ``ctx.scratch[scratch_key]`` as a dict ``instance -> uint8 array``.
    """

    groups: Sequence[CommGroup]
    src_offset: int
    chunk_bytes: int
    scratch_key: str
    #: "inregister" streams straight into the user buffer; "conventional"
    #: is the native-driver gather (one staging pass); "rearrange"
    #: additionally lays the data out for host processing with scalar
    #: code (what SimplePIM's AllReduce gather stage must do).
    mode: str = "inregister"

    def apply(self, ctx: ExecContext) -> None:
        results = {}
        for group in self.groups:
            row = ctx.system.read_lanes(group.pe_ids, self.src_offset,
                                        self.chunk_bytes)
            results[group.instance] = row.reshape(-1).copy()
        ctx.scratch[self.scratch_key] = results

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        return _rooted_traffic(geometry, self.groups, self.chunk_bytes,
                               self.mode)

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        return [HostPullOp(
            group_ids=_group_id_arrays(groups),
            instances=tuple(g.instance for g in groups),
            src_offset=self.src_offset, chunk_bytes=self.chunk_bytes,
            scratch_key=self.scratch_key, labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"GatherToHost[{self.mode}] {len(self.groups)} groups x "
                f"{self.chunk_bytes}B")


@dataclass
class ScatterFromHostStep(Step):
    """Push per-PE chunks from host buffers down to the PEs.

    Each instance's buffer holds ``size * chunk`` bytes (rank-order
    concatenation): the call's payload, or host scratch ``scratch_key``.
    """

    groups: Sequence[CommGroup]
    dst_offset: int
    chunk_bytes: int
    #: Read the buffers from host scratch (e.g. a prior gather) instead.
    scratch_key: str | None = None
    #: "inregister" streams registers down; "conventional" pre-arranges
    #: the per-PE layout in a staging buffer with scalar code.
    mode: str = "inregister"

    def apply(self, ctx: ExecContext) -> None:
        bufs = ctx.source(self.scratch_key, "scatter",
                          [(g.instance, g.size * self.chunk_bytes)
                           for g in self.groups])
        for group, buf in zip(self.groups, bufs):
            ctx.system.write_lanes(group.pe_ids, self.dst_offset,
                                   buf.reshape(group.size, self.chunk_bytes))

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        return _rooted_traffic(geometry, self.groups, self.chunk_bytes,
                               self.mode)

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        return [HostPushOp(
            group_ids=_group_id_arrays(groups),
            instances=tuple(g.instance for g in groups),
            dst_offset=self.dst_offset, chunk_bytes=self.chunk_bytes,
            source_key=self.scratch_key, labels=(self.describe(),))]

    def describe(self) -> str:
        return (f"ScatterFromHost[{self.mode}] {len(self.groups)} groups x "
                f"{self.chunk_bytes}B")


@dataclass
class BroadcastStep(Step):
    """Write one host buffer to every member PE.

    Broadcast needs a single domain transfer for the whole payload
    (the same PIM-domain image serves every PE), which is why the
    native driver's broadcast already runs at near-peak bus bandwidth
    (paper section VIII-B).
    """

    groups: Sequence[CommGroup]
    dst_offset: int
    nbytes: int
    scratch_key: str | None = None

    def apply(self, ctx: ExecContext) -> None:
        bufs = ctx.source(self.scratch_key, "broadcast",
                          [(g.instance, self.nbytes) for g in self.groups])
        for group, buf in zip(self.groups, bufs):
            # fill_lanes is the fault site: one checksummed delivery of
            # the shared image per group.
            ctx.system.fill_lanes(group.pe_ids, self.dst_offset, buf)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        npes, *lanes = pe_span(geometry, self.groups)
        if len(self.groups) == 1:
            # The driver's fast path: one domain-transferred image of the
            # payload serves every PE (why native broadcast is already
            # near peak bandwidth, section VIII-B).
            dt_bytes = self.nbytes
        else:
            # Per-group payloads differ, so the single-image trick does
            # not apply and each delivered copy pays its own transfer
            # (this is why the baseline AllGather loses its broadcast
            # advantage on 2-D cubes, section VIII-E).
            dt_bytes = self.nbytes * npes
        return (Term("bus", self.nbytes * npes, *lanes), Term("dt", dt_bytes),
                Term("host_mem", self.nbytes * len(self.groups)))

    def lower(self) -> list[ProgramOp]:
        groups = list(self.groups)
        return [BroadcastFillOp(
            group_ids=_group_id_arrays(groups),
            instances=tuple(g.instance for g in groups),
            dst_offset=self.dst_offset, nbytes=self.nbytes,
            source_key=self.scratch_key, labels=(self.describe(),))]

    def describe(self) -> str:
        return f"Broadcast {self.nbytes}B to {len(self.groups)} groups"


@dataclass
class HostReduceStep(Step):
    """Reduce host-resident per-PE vectors (baseline AllReduce path).

    Reads instance buffers shaped ``(N * nbytes,)`` from scratch,
    reduces the ``N`` vectors elementwise, stores the results under
    ``out_key``.  Charged at baseline (scalar/strided) rates because
    gathered data is not lane-aligned for vertical SIMD.
    """

    scratch_key: str
    out_key: str
    dtype: DataType
    op: ReduceOp
    vectors: int
    nbytes: int
    #: Instances reduced (the step holds no groups to count them by).
    instances: int = 1

    def apply(self, ctx: ExecContext) -> None:
        ctx.scratch[self.out_key] = fold_host_vectors(
            ctx.host(self.scratch_key), self.vectors, self.nbytes,
            self.dtype, self.op)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        total = self.vectors * self.nbytes * self.instances
        return Term("reduce_scalar", total), Term("host_mem", 2 * total)

    def lower(self) -> list[ProgramOp]:
        return [HostFoldOp(
            scratch_key=self.scratch_key, out_key=self.out_key,
            dtype=self.dtype, op=self.op, vectors=self.vectors,
            nbytes=self.nbytes, labels=(self.describe(),))]

    def describe(self) -> str:
        return f"HostReduce[{self.op}] {self.vectors} x {self.nbytes}B"


@dataclass
class LaunchStep(Step):
    """Fixed invocation overhead (host-side orchestration, sync)."""

    count: int = 1

    def apply(self, ctx: ExecContext) -> None:
        injector = ctx.system.fault_injector
        if injector is not None:
            injector.take_timeout("collective launch")

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        return (Term("collective_launch", self.count),)

    def lower(self) -> list[ProgramOp]:
        # Cost-only (the launch charge lives in the pre-priced ledger);
        # CommProgram.replay draws the launch timeout once per replay.
        return []

    def describe(self) -> str:
        return f"Launch x{self.count}"


# ----------------------------------------------------------------------
# Conventional (baseline) global host path
# ----------------------------------------------------------------------
@dataclass
class HostGlobalExchangeStep(Step):
    """The conventional flow of Figure 3(a)/7(a).

    Everything is pulled to the host with domain transfer, staged in
    host memory, globally re-arranged (and reduced, for arithmetic
    primitives) by the host alone, then pushed back with another domain
    transfer.  Interpreted, this delegates to the golden reference
    collectives, which is exactly what the conventional path computes;
    compiled, it lowers onto the movement and fold ops of the PID-Comm
    rungs (:meth:`lower`), priced by the same :meth:`traffic`.
    """

    groups: Sequence[CommGroup]
    primitive: str
    src_offset: int
    dst_offset: int
    chunk_bytes: int
    nslots_in: int
    nslots_out: int
    dtype: DataType
    op: ReduceOp | None = None

    def __post_init__(self) -> None:
        if self.primitive not in _GLOBAL_MOVES + _GLOBAL_FOLDS:
            raise CollectiveError(
                f"global exchange does not implement {self.primitive!r}")
        if self.primitive in _GLOBAL_FOLDS and self.op is None:
            raise CollectiveError(f"{self.primitive} needs a reduce op")

    def apply(self, ctx: ExecContext) -> None:
        in_bytes = self.nslots_in * self.chunk_bytes
        for group in self.groups:
            rows = ctx.system.read_lanes(group.pe_ids, self.src_offset,
                                         in_bytes)
            inputs = [row.view(self.dtype.np_dtype) for row in rows]
            ref = getattr(reference, self.primitive)
            outputs = (ref(inputs) if self.primitive in _GLOBAL_MOVES
                       else ref(inputs, self.op))
            out = np.stack(
                [np.ascontiguousarray(o).view(np.uint8) for o in outputs])
            ctx.system.write_lanes(group.pe_ids, self.dst_offset, out)

    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        npes, *lanes = pe_span(geometry, self.groups)
        in_bytes = npes * self.nslots_in * self.chunk_bytes
        out_bytes = npes * self.nslots_out * self.chunk_bytes
        fold = () if self.op is None else (Term("reduce_scalar", in_bytes),)
        return (Term("bus", in_bytes + out_bytes, *lanes),
                Term("dt", in_bytes + out_bytes),
                Term("host_mem", 2 * in_bytes + 2 * out_bytes),
                Term("mod_scalar", max(in_bytes, out_bytes)), *fold)

    def lower(self) -> list[ProgramOp]:
        """Rank ``s`` is lane ``s``: AlltoAll ``out[l, s] = in[s, l]``,
        AllGather ``out[l, s] = in[s, 0]``; ReduceScatter folds lane
        ``s``'s slot ``l`` over ``s``, AllReduce into host scratch, then
        fans it out (``out[l, p] = acc[p]``)."""
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        ids = _concat_ids(groups)
        labels = (self.describe(),)
        by_rank = _slot_sweep_table(n, n)
        if self.primitive in _GLOBAL_MOVES:
            slot = (_lane_identity_table(n, n) if self.primitive == "alltoall"
                    else readonly_table(np.zeros((n, n), dtype=np.intp)))
            return [GatherMoveOp(
                ids=ids, ngroups=len(groups), src_offset=self.src_offset,
                dst_offset=self.dst_offset, nslots_in=self.nslots_in,
                nslots_out=self.nslots_out, chunk_bytes=self.chunk_bytes,
                lane=by_rank, slot=slot, labels=labels)]
        instances = tuple(g.instance for g in groups)
        scatter = self.primitive == "reduce_scatter"
        ops: list[ProgramOp] = [ReduceFoldOp(
            ids=ids, ngroups=len(groups), instances=instances,
            src_offset=self.src_offset, chunk_bytes=self.chunk_bytes,
            nslots=n, dtype=self.dtype, op=self.op, lane=by_rank,
            slot=_lane_identity_table(n, n),
            dst_offset=self.dst_offset if scatter else None,
            scratch_key=None if scatter else _GLOBAL_SCRATCH,
            labels=labels)]
        if not scatter:
            ops.append(FanoutScratchOp(
                group_ids=_group_id_arrays(groups), ids=ids,
                instances=instances, scratch_key=_GLOBAL_SCRATCH,
                lane=by_rank, dst_offset=self.dst_offset,
                chunk_bytes=self.chunk_bytes, nslots_out=n, labels=labels))
        return ops

    def describe(self) -> str:
        return (f"HostGlobalExchange[{self.primitive}] "
                f"{len(self.groups)} groups, {self.nslots_in}->"
                f"{self.nslots_out} slots x {self.chunk_bytes}B")
