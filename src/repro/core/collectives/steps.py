"""Plan steps: the concrete dataflows of PID-Comm and the baselines.

Each step both executes (moving real bytes through the simulated DIMMs)
and prices itself (charging the cost categories its real-system
counterpart would occupy).  The optimized steps implement the paper's
three-stage decomposition:

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
    fanout_all_slots,
    rotate_all_slots,
    rotate_lanes_registerwise,
    rotation_table,
)
from ...hw.pe import WRAM_TILE_BYTES, batched_permute_tiles
from ...hw.system import DimmSystem
from ...hw.timing import CostLedger
from ..groups import CommGroup
from ..reference import (
    allgather as ref_allgather,
    allreduce as ref_allreduce,
    alltoall as ref_alltoall,
    reduce_scatter as ref_reduce_scatter,
)
from .plan import ExecContext, Step
from .program import (
    BroadcastFillOp,
    FanoutScratchOp,
    GatherMoveOp,
    HostPullOp,
    HostPushOp,
    ProgramOp,
    ReduceFoldOp,
    readonly_table,
    scaled_counter,
)

HOST_PASS_MODES = ("staged", "inregister", "crossdomain")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def slot_permutation(rule: str, rank: int, nslots: int) -> np.ndarray:
    """Slot permutation for a PE of group rank ``rank``.

    Returns ``perm`` such that ``new[i] = old[perm[i]]``.  Memoized on
    ``(rule, rank, nslots)`` -- steady-state collectives reuse the
    identical permutations every call -- so the returned array is
    read-only; copy before mutating.
    """
    idx = np.arange(nslots)
    if rule == "identity":
        perm = idx
    elif rule == "rotate_left_rank":
        # new[s] = old[(s + rank) % n]
        perm = (idx + rank) % nslots
    elif rule == "reflect_rank":
        # new[p] = old[(rank - p) % n]
        perm = (rank - idx) % nslots
    else:
        raise CollectiveError(f"unknown slot permutation rule {rule!r}")
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def slot_permutation_matrix(rule: str, nranks: int,
                            nslots: int) -> np.ndarray:
    """Stacked :func:`slot_permutation` rows for ranks ``0..nranks-1``.

    Memoized and read-only, like :func:`slot_permutation`.
    """
    ranks = np.arange(nranks)[:, None]
    idx = np.arange(nslots)[None, :]
    if rule == "identity":
        matrix = np.broadcast_to(idx, (nranks, nslots)).copy()
    elif rule == "rotate_left_rank":
        matrix = (idx + ranks) % nslots
    elif rule == "reflect_rank":
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


def _uniform_group_size(groups: Sequence[CommGroup]) -> int | None:
    """The common group size, or None when groups differ (no lowering)."""
    if not groups:
        return None
    size = groups[0].size
    if any(g.size != size for g in groups):
        return None
    return size


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


def _bus_terms(system: DimmSystem,
               groups: Sequence[CommGroup]) -> tuple[int, float]:
    """(channels used, lane utilization) for a transfer over ``groups``."""
    return _group_bus_terms(system.geometry, tuple(groups))


@lru_cache(maxsize=256)
def _group_bus_terms(geometry: DimmGeometry,
                     groups: tuple[CommGroup, ...]) -> tuple[int, float]:
    """:func:`_bus_terms` once per (geometry, group list): every step of
    a plan, and every plan over the same slicing, prices the same PEs."""
    pes = union_pes(groups)
    return geometry.channels_used(pes), geometry.lane_utilization(pes)


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
    ctx.simd.transposes += (nbytes + REGISTER_BYTES - 1) // REGISTER_BYTES


def _count_domain_transfer_per_slot(ctx: ExecContext, nbytes: int,
                                    nslots: int) -> None:
    """Batched form of ``nslots`` :func:`_count_domain_transfer` calls.

    The per-slot ceiling division must be preserved (``nslots`` small
    transposes charge more than one big one), so the vectorized steps
    stay charge-identical to the scalar per-slot loop.
    """
    ctx.simd.transposes += nslots * (
        (nbytes + REGISTER_BYTES - 1) // REGISTER_BYTES)


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
            # Scalar backend: honest PE-side execution, every byte
            # staged through the owning PE's WRAM in bounded tiles.
            # Vectorized backend: one batched gather for the whole
            # group, charged the identical tile count.
            ctx.wram_tiles += ctx.system.permute_chunks(
                group.pe_ids, self.src_offset, self.dst_offset,
                self.chunk_bytes, perms)

    def cost(self, system: DimmSystem) -> CostLedger:
        ledger = CostLedger()
        bytes_per_pe = self.nslots * self.chunk_bytes
        ledger.add("pe", system.params.pe_stream_time(bytes_per_pe))
        ledger.add("launch", system.params.kernel_launch_s)
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        if n is None:
            return None
        total = self.nslots * self.chunk_bytes
        overlapping = (self.src_offset < self.dst_offset + total
                       and self.dst_offset < self.src_offset + total)
        if overlapping and self.src_offset != self.dst_offset:
            return None  # the interpreted kernels reject this; keep it there
        perms = slot_permutation_matrix(self.rule, n, self.nslots)
        tiles = len(groups) * batched_permute_tiles(
            np.asarray(perms, dtype=np.intp), self.chunk_bytes,
            WRAM_TILE_BYTES, in_place=overlapping)
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
            if ctx.system.vectorized:
                total = self.nslots * self.chunk_bytes
                block = ctx.system.read_lanes(group.pe_ids, self.offset,
                                              total)
                rolled = rotate_all_slots(
                    block.reshape(group.size, self.nslots,
                                  self.chunk_bytes), ctx.simd)
                if self.mode != "crossdomain":
                    _count_domain_transfer_per_slot(
                        ctx, 2 * group.size * self.chunk_bytes,
                        self.nslots)
                ctx.system.write_lanes(group.pe_ids, self.offset,
                                       rolled.reshape(group.size, total))
                continue
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

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        total = sum(g.size for g in self.groups) * self.nslots * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(2 * total, channels, util))
        if self.mode == "crossdomain":
            ledger.add("host_mod", params.mod_time(total, "shuffle"))
        elif self.mode == "inregister":
            ledger.add("dt", params.dt_time(2 * total))
            ledger.add("host_mod", params.mod_time(total, "simd"))
        else:  # staged
            ledger.add("dt", params.dt_time(2 * total))
            ledger.add("host_mem", params.host_mem_time(4 * total))
            ledger.add("host_mod", params.mod_time(total, "local"))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        if n is None:
            return None
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
            if ctx.system.vectorized:
                fanned = fanout_all_slots(row, group.size, ctx.simd)
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset,
                    fanned.reshape(group.size,
                                   group.size * self.chunk_bytes))
                continue
            for s in range(group.size):
                rolled = rotate_lanes_registerwise(row, s, ctx.simd)
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset + s * self.chunk_bytes,
                    rolled)

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        in_bytes = sum(g.size for g in self.groups) * self.chunk_bytes
        out_bytes = sum(g.size * g.size for g in self.groups) * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(in_bytes + out_bytes, channels, util))
        if self.mode == "crossdomain":
            ledger.add("host_mod", params.mod_time(out_bytes, "shuffle"))
        elif self.mode == "inregister":
            ledger.add("dt", params.dt_time(in_bytes + out_bytes))
            ledger.add("host_mod", params.mod_time(out_bytes, "simd"))
        else:  # staged
            ledger.add("dt", params.dt_time(in_bytes + out_bytes))
            ledger.add("host_mem",
                       params.host_mem_time(2 * (in_bytes + out_bytes)))
            ledger.add("host_mod", params.mod_time(out_bytes, "local"))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        if n is None:
            return None
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
            if ctx.system.vectorized:
                acc = self._reduce_group_batched(ctx, group)
            else:
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
        """Scalar path: per-slot read, rotate, left-fold accumulate."""
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

    def _reduce_group_batched(self, ctx: ExecContext,
                              group: CommGroup) -> np.ndarray:
        """Vectorized path: one read + one rotation gather per group.

        The accumulation stays an explicit left fold over slots (not
        ``ufunc.reduce``) so floating-point results are bit-identical
        to the scalar path's combine order.
        """
        total = self.nslots * self.chunk_bytes
        block = ctx.system.read_lanes(group.pe_ids, self.src_offset,
                                      total)
        rolled = rotate_all_slots(
            block.reshape(group.size, self.nslots, self.chunk_bytes),
            ctx.simd)
        if self.mode != "crossdomain":
            _count_domain_transfer_per_slot(
                ctx, group.size * self.chunk_bytes, self.nslots)
        values = rolled.view(self.dtype.np_dtype)
        acc = values[:, 0].copy()
        for s in range(1, self.nslots):
            acc = self.op.combine(acc, values[:, s])
        return acc

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        in_bytes = sum(g.size for g in self.groups) * self.nslots * self.chunk_bytes
        out_bytes = (sum(g.size for g in self.groups) * self.chunk_bytes
                     if self.dst_offset is not None else 0)
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(in_bytes + out_bytes, channels, util))
        if self.mode == "crossdomain":
            ledger.add("host_mod", params.mod_time(in_bytes, "shuffle"))
            ledger.add("host_reduce", params.reduce_time(in_bytes, simd=True))
        elif self.mode == "inregister":
            ledger.add("host_mod", params.mod_time(in_bytes, "shuffle"))
            ledger.add("dt", params.dt_time(in_bytes + out_bytes))
            ledger.add("host_reduce", params.reduce_time(in_bytes, simd=True))
        else:  # staged
            ledger.add("dt", params.dt_time(in_bytes + out_bytes))
            ledger.add("host_mem",
                       params.host_mem_time(2 * in_bytes + 2 * out_bytes))
            ledger.add("host_mod", params.mod_time(in_bytes, "local"))
            ledger.add("host_reduce", params.reduce_time(in_bytes, simd=True))
        if self.scratch_key is not None and self.mode == "staged":
            # Without in-register modulation the reduced rows must be
            # parked in host memory between the phases; with it they
            # stream straight into the fan-out (Figure 17: host memory
            # access is completely removed).
            kept = sum(g.size for g in self.groups) * self.chunk_bytes
            ledger.add("host_mem", params.host_mem_time(kept))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        if n is None:
            return None
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
        results = ctx.scratch.get(self.scratch_key)
        if results is None:
            raise CollectiveError(
                f"no host scratch {self.scratch_key!r}; run the reduce "
                "exchange first")
        for group in self.groups:
            acc = results[group.instance]
            row = np.ascontiguousarray(acc).view(np.uint8)
            if row.shape != (group.size, self.chunk_bytes):
                raise TransferError(
                    f"scratch row {row.shape} does not match group "
                    f"({group.size}, {self.chunk_bytes})")
            _count_domain_transfer(ctx, row.size)
            if ctx.system.vectorized:
                fanned = fanout_all_slots(row, group.size, ctx.simd)
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset,
                    fanned.reshape(group.size,
                                   group.size * self.chunk_bytes))
                continue
            for s in range(group.size):
                ctx.system.write_lanes(
                    group.pe_ids, self.dst_offset + s * self.chunk_bytes,
                    rotate_lanes_registerwise(row, s, ctx.simd))

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        payload = sum(g.size for g in self.groups) * self.chunk_bytes
        out_bytes = sum(g.size * g.size for g in self.groups) * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(out_bytes, channels, util))
        ledger.add("dt", params.dt_time(payload))
        klass = "shuffle" if self.mode != "staged" else "local"
        ledger.add("host_mod", params.mod_time(out_bytes, klass))
        if self.mode == "staged":
            ledger.add("host_mem", params.host_mem_time(2 * out_bytes))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        groups = list(self.groups)
        n = _uniform_group_size(groups)
        if n is None:
            return None
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

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        total = sum(g.size for g in self.groups) * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(total, channels, util))
        ledger.add("dt", params.dt_time(total))
        if self.mode == "rearrange":
            ledger.add("host_mem", params.host_mem_time(3 * total))
            ledger.add("host_mod", params.mod_time(total, "scalar"))
        elif self.mode == "conventional":
            ledger.add("host_mem", params.host_mem_time(2 * total))
            ledger.add("host_mod", params.mod_time(total, "local"))
        else:
            ledger.add("host_mem", params.host_mem_time(total))
            ledger.add("host_mod", params.mod_time(total, "simd"))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
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

    ``payloads`` maps instance -> uint8 array of ``size * chunk`` bytes
    (rank-order concatenation).  In analytic mode payloads may be None.
    """

    groups: Sequence[CommGroup]
    dst_offset: int
    chunk_bytes: int
    payloads: dict[int, np.ndarray] | None = None
    #: Alternatively read payloads from host scratch (e.g. a prior gather).
    scratch_key: str | None = None
    #: "inregister" streams registers down; "conventional" pre-arranges
    #: the per-PE layout in a staging buffer with scalar code.
    mode: str = "inregister"

    def apply(self, ctx: ExecContext) -> None:
        payloads = self.payloads
        if payloads is None and self.scratch_key is not None:
            payloads = ctx.scratch.get(self.scratch_key)
        if payloads is None:
            raise CollectiveError(
                "functional scatter needs payloads or a scratch key")
        for group in self.groups:
            buf = np.asarray(payloads[group.instance], dtype=np.uint8)
            expected = group.size * self.chunk_bytes
            if buf.size != expected:
                raise TransferError(
                    f"scatter payload of {buf.size}B for instance "
                    f"{group.instance}, expected {expected}B")
            ctx.system.write_lanes(group.pe_ids, self.dst_offset,
                                   buf.reshape(group.size, self.chunk_bytes))

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        total = sum(g.size for g in self.groups) * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(total, channels, util))
        ledger.add("dt", params.dt_time(total))
        if self.mode == "conventional":
            ledger.add("host_mem", params.host_mem_time(2 * total))
            ledger.add("host_mod", params.mod_time(total, "local"))
        else:
            ledger.add("host_mem", params.host_mem_time(total))
            ledger.add("host_mod", params.mod_time(total, "simd"))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        if self.payloads is not None:
            # A payload-bound copy is transient (one call); only the
            # unbound template is worth compiling.
            return None
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
    payloads: dict[int, np.ndarray] | None = None
    scratch_key: str | None = None

    def apply(self, ctx: ExecContext) -> None:
        payloads = self.payloads
        if payloads is None and self.scratch_key is not None:
            payloads = ctx.scratch.get(self.scratch_key)
        if payloads is None:
            raise CollectiveError(
                "functional broadcast needs payloads or a scratch key")
        for group in self.groups:
            buf = np.asarray(payloads[group.instance], dtype=np.uint8)
            if buf.size != self.nbytes:
                raise TransferError(
                    f"broadcast payload of {buf.size}B, expected {self.nbytes}B")
            # fill_lanes is the fault site: one checksummed delivery of
            # the shared image per group.
            ctx.system.fill_lanes(group.pe_ids, self.dst_offset, buf)

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        npes = sum(g.size for g in self.groups)
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(self.nbytes * npes, channels, util))
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
        ledger.add("dt", params.dt_time(dt_bytes))
        ledger.add("host_mem",
                   params.host_mem_time(self.nbytes * len(self.groups)))
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
        if self.payloads is not None:
            return None
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

    def apply(self, ctx: ExecContext) -> None:
        buffers = ctx.scratch.get(self.scratch_key)
        if buffers is None:
            raise CollectiveError(f"no host scratch {self.scratch_key!r}")
        results = {}
        for instance, buf in buffers.items():
            stacked = np.asarray(buf, dtype=np.uint8).reshape(
                self.vectors, self.nbytes).view(self.dtype.np_dtype)
            results[instance] = np.ascontiguousarray(
                self.op.reduce_axis(stacked, axis=0)).view(np.uint8)
        ctx.scratch[self.out_key] = results

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        # One instance count is not known here; charge per stored bytes.
        total = self.vectors * self.nbytes * self._instances
        ledger = CostLedger()
        ledger.add("host_reduce", params.reduce_time(total, simd=False))
        ledger.add("host_mem", params.host_mem_time(2 * total))
        return ledger

    _instances: int = 1

    def with_instances(self, count: int) -> "HostReduceStep":
        """Record the instance count for pricing (builder convenience)."""
        self._instances = count
        return self

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

    def cost(self, system: DimmSystem) -> CostLedger:
        ledger = CostLedger()
        ledger.add("launch", self.count * system.params.collective_launch_s)
        return ledger

    def lower(self, system: DimmSystem) -> list[ProgramOp] | None:
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
    transfer.  Functionally this delegates to the golden reference
    collectives, which is exactly what the conventional path computes.
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

    _REFS = {
        "alltoall": lambda inputs, op: ref_alltoall(inputs),
        "allgather": lambda inputs, op: ref_allgather(inputs),
        "reduce_scatter": ref_reduce_scatter,
        "allreduce": ref_allreduce,
    }

    def __post_init__(self) -> None:
        if self.primitive not in self._REFS:
            raise CollectiveError(
                f"global exchange does not implement {self.primitive!r}")
        if self.primitive in ("reduce_scatter", "allreduce") and self.op is None:
            raise CollectiveError(f"{self.primitive} needs a reduce op")

    def apply(self, ctx: ExecContext) -> None:
        in_bytes = self.nslots_in * self.chunk_bytes
        for group in self.groups:
            rows = ctx.system.read_lanes(group.pe_ids, self.src_offset,
                                         in_bytes)
            inputs = [row.view(self.dtype.np_dtype) for row in rows]
            outputs = self._REFS[self.primitive](inputs, self.op)
            out = np.stack(
                [np.ascontiguousarray(o).view(np.uint8) for o in outputs])
            ctx.system.write_lanes(group.pe_ids, self.dst_offset, out)

    def cost(self, system: DimmSystem) -> CostLedger:
        params = system.params
        npes = sum(g.size for g in self.groups)
        in_bytes = npes * self.nslots_in * self.chunk_bytes
        out_bytes = npes * self.nslots_out * self.chunk_bytes
        channels, util = _bus_terms(system, self.groups)
        ledger = CostLedger()
        ledger.add("bus", params.bus_time(in_bytes + out_bytes, channels, util))
        ledger.add("dt", params.dt_time(in_bytes + out_bytes))
        ledger.add("host_mem",
                   params.host_mem_time(2 * in_bytes + 2 * out_bytes))
        ledger.add("host_mod",
                   params.mod_time(max(in_bytes, out_bytes), "scalar"))
        if self.op is not None:
            ledger.add("host_reduce", params.reduce_time(in_bytes, simd=False))
        return ledger

    def describe(self) -> str:
        return (f"HostGlobalExchange[{self.primitive}] "
                f"{len(self.groups)} groups, {self.nslots_in}->"
                f"{self.nslots_out} slots x {self.chunk_bytes}B")
