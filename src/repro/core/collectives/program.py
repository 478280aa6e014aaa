"""Compiled collective programs: lowered, fused, replayable plans.

A cached :class:`~repro.core.collectives.plan.CommPlan` is still
*interpreted*: every ``Step.apply`` re-derives slot permutations,
gather indices, group unions and lane offsets that are pure functions
of the plan key.  :func:`compile_plan` lowers the step list once into a
:class:`CommProgram` -- a short sequence of program ops, each holding

* the concatenated arena row ids of every group member,
* read-only fused ``(lane, slot)`` index tables (PeReorder ∘
  RotateExchange ∘ PeReorder composed into a single fancy index where
  legal, with the CM byte-rotation folded into the same map),
* pre-counted :class:`~repro.hw.host.SimdCounter` charges and WRAM
  tile totals, and
* a pre-priced :class:`~repro.hw.timing.CostLedger`,

so steady-state replay of a cache-hit plan is a handful of numpy
dispatches with zero index math, zero permutation validation, and zero
per-step Python re-derivation.  The arena side is fixed too: each op
declares its transfer regions once as an
:class:`~repro.hw.arena.ArenaBinding`, and
:meth:`~repro.hw.system.DimmSystem.bind` resolves them into windows
once per arena layout, so replay moves bytes through pre-resolved
views.  The interpreted path stays the oracle:
replay must produce bit-identical memory state, host outputs, ledgers,
SIMD counts and WRAM tiles (``tests/test_program.py``).

Two step kinds do not lower (``HostGlobalExchangeStep``,
``HostReduceStep`` -- the conventional-baseline host flows); they are
wrapped in a :class:`StepOp` fallback that calls ``apply`` unchanged,
so every plan compiles even when only partially lowered.

Fault injection lives below the ops: every byte a lowered op moves
goes through a ``DimmSystem`` transfer kernel, and each kernel is a
fault site (rank guard, drop with partial delivery, CRC
verify-before-commit); :meth:`CommProgram.replay` adds the launch
timeouts.  A fused op makes fewer transfers than the steps it absorbed,
so it draws fewer faults -- the same physics that makes it cheaper
(``docs/reliability.md``).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ...errors import CollectiveError, TransferError
from ...hw.arena import (
    ArenaBinding,
    BoundWindows,
    ScratchPool,
    flat_chunk_table,
    scan_chunk_classes,
    wide_dtype,
)
from ...hw.host import SimdCounter
from ...hw.kernels import fold_slots
from ...hw.system import DimmSystem
from ...hw.timing import ELIDABLE_CATEGORIES, CostLedger, MachineParams
from .plan import CommPlan, ExecContext, Step

#: Smallest per-op source block (bytes) the elision layer bothers to
#: fingerprint-scan.  Below this the scan's fixed Python dispatch costs
#: more than any possible transfer saving, so tiny ops always take the
#: plain replay path regardless of content.
ELIDE_MIN_SOURCE_BYTES = 1 << 14


def readonly_table(table: np.ndarray) -> np.ndarray:
    """Materialize an index table as a read-only contiguous intp array."""
    arr = np.ascontiguousarray(table, dtype=np.intp)
    if arr is table:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=8)
def _hash_mults(width: int) -> np.ndarray:
    """Per-column random odd multipliers for :func:`_row_reps` keys."""
    rng = np.random.default_rng(0x9E3779B97F4A7C15)
    mults = rng.integers(1, np.iinfo(np.uint64).max, width,
                         dtype=np.uint64) | np.uint64(1)
    mults.setflags(write=False)
    return mults


def _row_reps(mat: np.ndarray) -> np.ndarray:
    """First-occurrence representative of each distinct row of ``mat``.

    ``rep[r]`` is the lowest row index whose content equals row ``r``
    (``rep[r] == r`` for uniques) -- the bookkeeping
    ``np.unique(mat, axis=0)`` would give, at a fraction of its
    void-typed sort cost: rows are nominated by a wrapping uint64 dot
    with fixed random odd column multipliers and byte-verified against
    the nominated representative, so a hash collision demotes the row
    (and any row nominated behind it) to unique -- a missed elision,
    never a wrong alias.  ``mat`` must be C-contiguous with a 64-bit
    integer dtype.
    """
    rows = mat.shape[0]
    keys = (mat.view(np.uint64) * _hash_mults(mat.shape[1])).sum(
        axis=1, dtype=np.uint64)
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    head = np.ones(rows, dtype=bool)
    head[1:] = ks[1:] != ks[:-1]
    rep = np.empty(rows, dtype=np.intp)
    rep[order] = order[head][np.cumsum(head) - 1]
    cand = np.flatnonzero(rep != np.arange(rows))
    if cand.size:
        ok = (mat[cand] == mat[rep[cand]]).all(axis=1)
        rep[cand[~ok]] = cand[~ok]
    return rep


def band_ranges(rows: int, row_bytes: int,
                tile_bytes: int | None) -> list[tuple[int, int]]:
    """Output-row bands whose gathered tile fits ``tile_bytes``.

    Streamed replay tiles along the *output-row* axis: every op's
    gather is ``out[r, s] = in[lane(r, s), slot(r, s)]`` over
    independent output rows, so any partition of ``[0, rows)`` replays
    exactly -- each band applies its own slice of the index table once,
    keeping total index work identical to the untiled gather.  The
    band height is the largest number of ``row_bytes``-wide output
    rows fitting ``tile_bytes``, clamped to at least one row; the last
    band is shorter when the height does not divide ``rows`` evenly.
    ``tile_bytes`` None is one band covering every row.
    """
    if rows <= 0:
        return []
    if tile_bytes is None:
        return [(0, rows)]
    band = min(rows, max(1, tile_bytes // max(1, row_bytes)))
    return [(r0, min(r0 + band, rows)) for r0 in range(0, rows, band)]


def _per_group(group_ids: Sequence[np.ndarray], offset: int,
               nbytes: int) -> ArenaBinding:
    """Binding of a per-instance op: one region per group."""
    return ArenaBinding([(ids, offset, nbytes) for ids in group_ids])


def _run_bands(units: Sequence, pool: ScratchPool | None, workers,
               run_one: Callable[[ScratchPool | None, Any], None]) -> None:
    """Execute per-band work units serially or across a worker pool.

    ``workers`` is the engine's :class:`~repro.engine.parallel
    .WorkerPool` (duck-typed here so core never imports engine), or
    None for a serial loop; ``pool`` is None on an untiled replay.
    Parallel dispatch is safe because every unit writes a disjoint set
    of output rows (:func:`band_ranges` partitions the row axis) into
    already-materialized arena rows, and each worker gathers through
    its own private scratch pool.  Nested calls (a wave member
    replaying on a worker thread) run inline on that thread.
    """
    if workers is None or workers.workers <= 1 or len(units) <= 1 \
            or workers.in_worker:
        for unit in units:
            run_one(pool, unit)
        if workers is not None:
            workers.count_bands(len(units))
        return

    def task(unit):
        def run() -> None:
            run_one(workers.scratch(), unit)
            workers.count_bands(1)
        return run

    workers.run([task(unit) for unit in units])


def scaled_counter(counter: SimdCounter, factor: int) -> SimdCounter:
    """One group's SIMD charge multiplied across ``factor`` equal groups."""
    return SimdCounter(loads=counter.loads * factor,
                       stores=counter.stores * factor,
                       shuffles=counter.shuffles * factor,
                       transposes=counter.transposes * factor,
                       adds=counter.adds * factor)


def _merged(a: SimdCounter, b: SimdCounter) -> SimdCounter:
    out = SimdCounter()
    out.merge(a)
    out.merge(b)
    return out


class ProgramOp(abc.ABC):
    """One lowered (or fallback) stage of a compiled program.

    Every op has exactly one replay body, :meth:`execute`.  The banded
    ops (:class:`GatherMoveOp`, :class:`ReduceFoldOp`,
    :class:`FanoutScratchOp`) run it as a loop over output-row bands
    sized by ``ctx.tile_bytes``; an untiled replay (``tile_bytes``
    None) is the one-band case, so streamed and untiled replay share
    every line of it.
    """

    simd: SimdCounter
    wram_tiles: int
    labels: tuple[str, ...]

    @abc.abstractmethod
    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        """Replay this stage against ``ctx.system``."""

    def tile_count(self, tile_bytes: int) -> int:
        """Bands :meth:`execute` replays at this budget."""
        return 1

    def transfer_bytes(self) -> int:
        """Modelled bus/staging bytes this op moves (0 = unknown).

        Used by the elision layer to scale the ledger's transfer-bound
        categories by the fraction of bytes elisions removed; ops that
        cannot quantify their traffic (``StepOp`` fallbacks) report 0,
        which only ever *understates* the elision credit.
        """
        return 0

    def launch(self, injector) -> None:
        """Launch-timeout fault site of the PE kernel this op models.

        Only ops that absorbed a PE-local reorder charge WRAM tiles,
        i.e. launch a real per-DPU kernel that can hang; a fused op
        launches (and draws) once however many reorders it composed.
        """
        if self.wram_tiles:
            injector.take_timeout("reorder kernel launch")

    def _charge(self, ctx: ExecContext) -> None:
        ctx.simd.merge(self.simd)
        ctx.wram_tiles += self.wram_tiles

    def describe(self) -> str:
        """Op label built from the source steps it lowers/fuses."""
        inner = " + ".join(self.labels) if self.labels else ""
        return f"{type(self).__name__}({inner})"


class _BandedOp(ProgramOp):
    """An op whose replay body is a loop over output-row bands.

    An op that is not :meth:`_stream_safe` replays as one band at any
    budget, exact for the same reason a whole-op gather is.  Band lists
    are memoised per tile budget: steady-state replay derives none.
    """

    _band_memo: dict

    @abc.abstractmethod
    def _band_shape(self) -> tuple[int, int]:
        """``(output rows, bytes per output row)`` one band slices."""

    def _stream_safe(self) -> bool:
        return True

    def _bands(self, tile_bytes: int | None) -> list[tuple[int, int]]:
        bands = self._band_memo.get(tile_bytes)
        if bands is None:
            rows, row_bytes = self._band_shape()
            bands = band_ranges(rows, row_bytes,
                                tile_bytes if self._stream_safe() else None)
            self._band_memo[tile_bytes] = bands
        return bands

    def tile_count(self, tile_bytes: int) -> int:
        return len(self._bands(tile_bytes))


def _band_take(scratch: ScratchPool | None, source: np.ndarray,
               index: np.ndarray) -> np.ndarray:
    """``source[index]``, into a pool view when streaming.

    An untiled replay has no pool and allocates per op, as a whole-op
    gather always has; a plain fancy index is then the faster kernel.
    The pooled take is unbuffered (``mode="wrap"``): every index was
    range-checked when the op was built.
    """
    if scratch is None:
        return source[index]
    return np.take(source, index, out=scratch.pong(index.shape,
                                                   source.dtype),
                   mode="wrap")


def _band_gather(op, ctx: ExecContext, bound: BoundWindows,
                 nslots_in: int, nslots_out: int
                 ) -> Callable[[ScratchPool | None, int, int], np.ndarray]:
    """A table-driven op's band gather: ``take(scratch, r0, r1)``
    returns output rows ``[r0, r1)`` as a uint8 row matrix.

    The kernel follows from what the replay can observe.  An untiled
    replay (no pool) takes :meth:`DimmSystem.take_by_table` on the
    bound source window: one contiguous stage plus a chunk-wide take,
    faster than the arena-global stream table for a whole op
    (``docs/performance.md``).  A streamed replay gathers every band
    through the bound stream table straight from the arena, in one
    pass: a stream-safe op's bands into the pool's pong view (O(tile)
    memory), and the whole-op band of an op that cannot band (an
    in-place rewrite) into one transient array, so pong stays O(tile).
    """
    system = ctx.system
    row_bytes = nslots_out * op.chunk_bytes
    if ctx.pool is None:
        src = bound.window(0)

        def take_whole(scratch, r0, r1):
            block = system.take_by_table(
                op.ids, op.ngroups, op.src_offset, nslots_in,
                op.chunk_bytes, op.lane, op.slot, op.flat, src)
            return block.reshape(r1 - r0, row_bytes)
        return take_whole
    flat_table, width = bound.stream
    wide = wide_dtype(width)
    transient = not op._stream_safe()

    def take_flat(scratch, r0, r1):
        shape = (r1 - r0, flat_table.shape[1])
        out = np.empty(shape, wide) if transient else scratch.pong(shape, wide)
        system.take_band_flat(flat_table, width, r0, r1, out, op.ids)
        return out.view(np.uint8).reshape(r1 - r0, row_bytes)
    return take_flat


@dataclass
class _ElisionPlan:
    """One op's fingerprint-scan result, valid at any band budget.

    ``zero_row[r]`` -- output row ``r`` gathers only all-zero chunks;
    ``rep_row[r]`` -- lowest row in ``r``'s group whose gathered
    content is byte-identical (``rep_row[r] == r`` for uniques; zero
    rows all share one signature and are handled by the zero mask
    first).  ``table`` is the bound stream table the representatives
    gather through.
    """

    table: tuple[np.ndarray, int]
    zero_row: np.ndarray
    rep_row: np.ndarray


@dataclass
class GatherMoveOp(_BandedOp):
    """Pure data movement as one take-by-table gather + one put.

    Covers PeReorder, RotateExchange and Fanout steps, and any legal
    composition of adjacent ones (see :func:`_chainable`).  The fused
    ``out[l, s] = in[lane[l, s], slot[l, s]]`` tables are shared across
    all ``ngroups`` equal-size groups; ``ids`` is their rank-ordered
    concatenation.

    When the replay context carries ``elide=True`` (content-aware
    transfer elision, ``docs/performance.md``), the op first
    fingerprint-scans its source block
    (:func:`~repro.hw.arena.scan_chunk_classes`) and gathers only one
    representative per distinct output-row content class: all-zero rows
    become a single broadcast fill, duplicate rows an aliased host-side
    copy of their representative.  Every elision is byte-verified
    before aliasing, so results stay bit-identical to the interpreted
    oracle at any elision rate; ops whose source and destination
    regions overlap (``_stream_safe`` false) never elide.
    """

    ids: np.ndarray
    ngroups: int
    src_offset: int
    dst_offset: int
    nslots_in: int
    nslots_out: int
    chunk_bytes: int
    lane: np.ndarray
    slot: np.ndarray
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Flatten the table pair once at lowering time; replay then
        # gathers along a single pre-indexed axis (see arena docs).
        self.flat = flat_chunk_table(self.lane, self.slot, self.nslots_in)
        # Windows: 0 = source block, 1 = destination block.
        self._binding = ArenaBinding(
            [(self.ids, self.src_offset, self.nslots_in * self.chunk_bytes),
             (self.ids, self.dst_offset, self.nslots_out * self.chunk_bytes)],
            gather=(self.ids, self.ngroups, self.src_offset,
                    self.chunk_bytes, self.lane, self.slot))
        self._band_memo = {}
        self._rows_unique = None
        self._plan_cache = None

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        bands = self._bands(ctx.tile_bytes)
        if ctx.elide and self._elidable():
            plan, dst_clean = self._elision_plan(ctx)
            if plan is not None:
                self._execute_elided(ctx, plan, bands, dst_clean)
                return
        system = ctx.system
        bound = system.bind(self._binding, streamed=ctx.pool is not None)
        take = _band_gather(self, ctx, bound, self.nslots_in,
                            self.nslots_out)

        def run_band(scratch: ScratchPool | None,
                     band: tuple[int, int]) -> None:
            r0, r1 = band
            system.put_rows(self.ids[r0:r1], self.dst_offset,
                            take(scratch, r0, r1), bound.window(1, band))

        _run_bands(bands, ctx.pool, ctx.workers, run_band)
        self._charge(ctx)

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute_streamed = execute

    def transfer_bytes(self) -> int:
        return self.ids.size * (self.nslots_in + self.nslots_out) \
            * self.chunk_bytes

    def _elidable(self) -> bool:
        """Whether this op may take the fingerprint-guided path at all.

        Requires disjoint source/destination regions (elided writes
        land before a full gather would, so aliasing ops fall back to
        the plain replay -- same safety argument as streaming) and a
        source block big enough that scanning can ever pay.
        """
        return (self._stream_safe()
                and self.ids.size * self.nslots_in * self.chunk_bytes
                >= ELIDE_MIN_SOURCE_BYTES)

    def _table_rows_unique(self) -> bool:
        """Whether no two lanes gather the same slot sequence (static).

        Computed once per op from the fused table and cached.  With
        distinct table rows *and* no duplicate chunk classes, two live
        output rows can only share a content signature when every
        position where their tables differ is zero on both sides --
        possible, but not worth the per-replay signature hashing it
        takes to find, so those rows are left un-elided (zero rows are
        still caught by the zero mask).  Aliasing tables -- allgather's
        broadcast rows -- keep the full signature path.
        """
        cached = self._rows_unique
        if cached is None:
            reps = _row_reps(self.flat)
            cached = bool((reps == np.arange(reps.size)).all())
            self._rows_unique = cached
        return cached

    def _elision_plan(self, ctx: ExecContext
                      ) -> tuple[_ElisionPlan | None, bool]:
        """Cache-validated elision plan plus a destination-clean flag.

        The scan result is pure content fingerprinting, so it stays
        valid until some write may have touched the op's source
        interval; the arena's write log
        (:meth:`~repro.hw.system.DimmSystem.content_changed`) proves
        absence of such writes, and steady-state replay of an
        unchanged payload then reuses the cached plan without
        re-reading a single source byte.  The flag additionally
        reports that the *destination* interval saw no write since
        this op's own last eliding replay -- its zero rows still read
        zero, so even the verify-first zero fill can be skipped.  A
        failed validation or a changed arena falls back to a fresh
        scan.

        Cache hits charge ``chunks_scanned`` (the plan's content
        coverage, which elision-rate accounting and per-tenant
        attribution key on) but no ``scan_bytes`` -- nothing was
        re-read, so the ledger prices no scan time.
        """
        system = ctx.system
        # The plan's table is the bound stream table; a new arena
        # layout rebinds, so the table's identity keys the cache.  The
        # bind touches every source row (it may grow the arena) before
        # the scan window is taken.
        table = system.bind(self._binding, streamed=True).stream
        epoch = system.content_epoch()
        cached = self._plan_cache
        if (cached is not None
                and cached[0] is table
                and not system.content_changed(
                    cached[1], self.src_offset,
                    self.nslots_in * self.chunk_bytes)):
            _, _, plan, dst_epoch = cached
            dst_clean = (dst_epoch is not None
                         and not system.content_changed(
                             dst_epoch, self.dst_offset,
                             self.nslots_out * self.chunk_bytes))
            # Re-key at the current epoch: the source check above just
            # proved every epoch in between clean.
            self._plan_cache = (table, epoch, plan, dst_epoch)
            ctx.chunks_scanned += self.ids.size * self.nslots_in
            return plan, dst_clean
        plan = self._scan_plan(ctx, table)
        # The epoch is the pre-scan capture, so any write racing the
        # scan makes the very next validation fail (conservative).
        self._plan_cache = (table, epoch, plan, None)
        return plan, False

    def _scan_plan(self, ctx: ExecContext,
                   table: tuple[np.ndarray, int]) -> _ElisionPlan | None:
        """Scan the source block, derive per-output-row content classes.

        Returns None when no output row is elidable (the caller then
        takes the plain path); the scan's cost is charged to the
        context either way -- that *is* the dense-traffic overhead the
        ledger prices (and the sampled nomination inside
        :func:`~repro.hw.arena.scan_chunk_classes` keeps near zero).
        ``table`` is the bound stream table.
        """
        system = ctx.system
        n = self.ids.size
        lanes = n // self.ngroups
        src_bytes = self.nslots_in * self.chunk_bytes
        block = system.scan_view(self.ids, self.src_offset, src_bytes)
        chunks = block.reshape(self.ngroups, lanes, self.nslots_in,
                               self.chunk_bytes)
        zero, cls, scanned = scan_chunk_classes(chunks, self.ngroups)
        nch = lanes * self.nslots_in
        ctx.chunks_scanned += n * self.nslots_in
        ctx.scan_bytes += scanned
        has_zero = bool(zero.any())
        has_dups = cls is not None
        if not has_zero and not has_dups:
            return None  # dense content: scan paid, nothing to map
        arange = np.arange(n)
        zero_g = zero.reshape(self.ngroups, nch)
        if not has_dups and self._table_rows_unique():
            # No duplicate chunks and no aliasing lanes: only all-zero
            # rows can elide, and a boolean gather through the table
            # finds them without building signatures at all.
            zero_row = zero_g[:, self.flat].all(axis=2).reshape(n)
            if not zero_row.any():
                return None
            rep_row = arange
        else:
            # Map chunk classes through the gather table: an output
            # row's signature is the class vector of the chunks it
            # would gather, with zero chunks collapsed to -1 (all zero
            # content is equal regardless of which source chunk it
            # came from).  Class ids are group-global flat indices, so
            # equal signatures across groups cannot collide.
            if cls is None:
                cls = np.arange(zero.size, dtype=np.intp)
            cls[zero] = np.intp(-1)
            sig = np.ascontiguousarray(
                cls.reshape(self.ngroups, nch)[:, self.flat].reshape(
                    n, self.nslots_out))
            zero_row = (sig == np.intp(-1)).all(axis=1)
            rep_row = _row_reps(sig)
            if not zero_row.any() and (rep_row == arange).all():
                return None  # fully dense rows: scan paid, no savings
        return _ElisionPlan(table=table, zero_row=zero_row, rep_row=rep_row)

    def _gather_select(self, system: DimmSystem, plan: _ElisionPlan,
                       rows: np.ndarray,
                       scratch: ScratchPool | None) -> np.ndarray:
        """Gather only ``rows`` (representatives) as uint8 output rows."""
        flat_table, width = plan.table
        shape = (rows.size, flat_table.shape[1])
        out = (np.empty(shape, wide_dtype(width)) if scratch is None
               else scratch.pong(shape, wide_dtype(width)))
        if rows.size:
            system.take_select_flat(flat_table, width, rows, out, self.ids)
        return out.view(np.uint8).reshape(
            rows.size, self.nslots_out * self.chunk_bytes)

    def _stream_safe(self) -> bool:
        """Whether row-band tiling cannot read bytes a band wrote.

        Each band writes its rows' full destination region before
        later bands read their (arbitrarily cross-lane) sources, so
        streaming is exact only when the source and destination
        regions are disjoint; an in-place rewrite replays as one band.
        """
        src_end = self.src_offset + self.nslots_in * self.chunk_bytes
        dst_end = self.dst_offset + self.nslots_out * self.chunk_bytes
        return src_end <= self.dst_offset or dst_end <= self.src_offset

    def _band_shape(self) -> tuple[int, int]:
        return self.ids.size, self.nslots_out * self.chunk_bytes

    def _execute_elided(self, ctx: ExecContext, plan: _ElisionPlan,
                        bands: list[tuple[int, int]],
                        dst_clean: bool = False) -> None:
        """Elided replay: dedup stays band-local.

        Every band's work unit (fill rows, representative rows,
        duplicate rows plus their representative positions) is derived
        serially here before any band runs, so the partition -- and
        every counter -- is deterministic at any worker count, and
        band workers never touch shared context state.  A duplicate's
        representative is the first matching row *within its own
        band*, so a band never reads another band's gather output.
        With one band -- an untiled replay -- that is the op-global
        dedup: a live row's representative is the lowest row sharing
        its content, which is itself live and comes first.
        """
        system = ctx.system
        row_bytes = self.nslots_out * self.chunk_bytes
        units = []
        n_zero = n_dup = 0
        for r0, r1 in bands:
            zmask = plan.zero_row[r0:r1]
            live = np.flatnonzero(~zmask) + r0
            _, first, inv = np.unique(plan.rep_row[live],
                                      return_index=True,
                                      return_inverse=True)
            rep_local = live[first[inv.reshape(-1)]]
            repmask = rep_local == live
            reps = live[repmask]
            dups = live[~repmask]
            pos = np.searchsorted(reps, rep_local[~repmask])
            zrows = np.flatnonzero(zmask) + r0
            units.append((reps, dups, pos, zrows))
            n_zero += zrows.size
            n_dup += dups.size

        def run_band(scratch: ScratchPool | None, unit) -> None:
            reps, dups, pos, zrows = unit
            rep_bytes = self._gather_select(system, plan, reps, scratch)
            if reps.size:
                system.put_rows(self.ids[reps], self.dst_offset,
                                rep_bytes)
            if dups.size:
                system.put_rows(self.ids[dups], self.dst_offset,
                                rep_bytes[pos])
            if zrows.size and not dst_clean:
                system.zero_fill_lanes(self.ids[zrows], self.dst_offset,
                                       row_bytes)

        _run_bands(units, ctx.pool, ctx.workers, run_band)
        ctx.chunks_elided += (n_zero + n_dup) * self.nslots_out
        ctx.elided_bytes += (n_zero + n_dup) * row_bytes
        # Zero rows skip both bus directions (nothing gathered, the
        # fill image is one shared row); duplicate rows still pay the
        # destination write but skip the gather direction.
        ctx.saved_transfer_bytes += (2 * n_zero + n_dup) * row_bytes
        # Stamp the cache: dst now holds this plan's replay output.
        self._plan_cache = self._plan_cache[:3] + (system.content_epoch(),)
        self._charge(ctx)


@dataclass
class ReduceFoldOp(_BandedOp):
    """ReduceExchange lowered: one rotation gather + slot fold.

    Integer dtypes fold with one ``ufunc.reduce`` call (modular
    fixed-width arithmetic is order-independent, so any fold order is
    bit-exact); floats keep the explicit left fold whose order matches
    the interpreted backends, so floating-point results stay
    bit-identical to the scalar oracle.
    """

    ids: np.ndarray
    ngroups: int
    instances: tuple[int, ...]
    src_offset: int
    chunk_bytes: int
    nslots: int
    dtype: Any
    op: Any
    lane: np.ndarray
    slot: np.ndarray
    dst_offset: int | None = None
    scratch_key: str | None = None
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.flat = flat_chunk_table(self.lane, self.slot, self.nslots)
        # Windows: 0 = source block, 1 = destination chunk (if any).
        specs = [(self.ids, self.src_offset, self.nslots * self.chunk_bytes)]
        if self.dst_offset is not None:
            specs.append((self.ids, self.dst_offset, self.chunk_bytes))
        self._binding = ArenaBinding(
            specs, gather=(self.ids, self.ngroups, self.src_offset,
                           self.chunk_bytes, self.lane, self.slot))
        self._band_memo = {}

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        bands = self._bands(ctx.tile_bytes)
        np_dtype = self.dtype.np_dtype
        elems = self.chunk_bytes // self.dtype.itemsize
        # Host scratch escapes the replay (it backs reduce host
        # outputs), so it is genuinely new state per call -- the one
        # allocation streaming keeps, O(payload / nslots).  Bands fold
        # straight into it.
        full = (np.empty((self.ids.size, elems), dtype=np_dtype)
                if self.scratch_key is not None else None)
        system = ctx.system
        bound = system.bind(self._binding, streamed=ctx.pool is not None)
        take = _band_gather(self, ctx, bound, self.nslots, self.nslots)

        def run_band(scratch: ScratchPool | None,
                     rows: tuple[int, int]) -> None:
            r0, r1 = rows
            values = take(scratch, r0, r1).reshape(
                r1 - r0, self.nslots, self.chunk_bytes).view(np_dtype)
            if full is not None:
                out = full[r0:r1]
            elif scratch is not None:
                out = scratch.fold((r1 - r0, elems), np_dtype)
            else:
                out = None
            # Folds stay band-local (no cross-band arithmetic), so the
            # fold order -- and every float bit -- is identical at any
            # band count and worker count.
            acc = fold_slots(values, self.op, out=out)
            if self.dst_offset is not None:
                system.put_rows(self.ids[r0:r1], self.dst_offset,
                                acc.view(np.uint8), bound.window(1, rows))

        _run_bands(bands, ctx.pool, ctx.workers, run_band)
        if full is not None:
            shaped = full.reshape(self.ngroups, -1, elems)
            ctx.scratch[self.scratch_key] = {
                inst: shaped[g] for g, inst in enumerate(self.instances)}
        self._charge(ctx)

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute_streamed = execute

    def transfer_bytes(self) -> int:
        down = self.ids.size * self.chunk_bytes \
            if self.dst_offset is not None else 0
        return self.ids.size * self.nslots * self.chunk_bytes + down

    def _stream_safe(self) -> bool:
        """Banding safety for the fold's read-many/write-one overlap.

        A band's destination chunks must not alias any source slot a
        later band still reads (the rotation gather crosses lanes), so
        streaming is exact only when the destination chunk lies
        entirely outside the source block -- or when there is no MRAM
        destination at all (host-scratch-only reduces).
        """
        if self.dst_offset is None:
            return True
        src_end = self.src_offset + self.nslots * self.chunk_bytes
        dst_end = self.dst_offset + self.chunk_bytes
        return src_end <= self.dst_offset or dst_end <= self.src_offset

    def _band_shape(self) -> tuple[int, int]:
        return self.ids.size, self.nslots * self.chunk_bytes


@dataclass
class FanoutScratchOp(_BandedOp):
    """FanoutFromHost lowered: fan host-resident reduced rows back out.

    ``lane`` indexes rows of each instance's ``(lanes, chunk)`` scratch
    matrix; a trailing reflect PeReorder fuses into the same table
    (see :func:`_fuse`), which for AllReduce collapses the whole tail
    to ``out[l, p] = acc[p]``.
    """

    group_ids: tuple[np.ndarray, ...]
    ids: np.ndarray
    instances: tuple[int, ...]
    scratch_key: str
    lane: np.ndarray
    dst_offset: int
    chunk_bytes: int
    nslots_out: int
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # The pooled take is unbuffered, so its range check is here: a
        # lane must name a row of the (lanes, chunk) scratch matrix.
        lanes = self.lane.shape[0]
        if self.lane.size and (self.lane.min() < 0
                               or self.lane.max() >= lanes):
            raise TransferError(f"fanout lane outside [0, {lanes})")
        self._binding = _per_group(self.group_ids, self.dst_offset,
                                   self.nslots_out * self.chunk_bytes)
        self._band_memo = {}

    @property
    def ngroups(self) -> int:
        """Groups fanned out (one per instance)."""
        return len(self.group_ids)

    def transfer_bytes(self) -> int:
        return self.ids.size * self.nslots_out * self.chunk_bytes

    def _band_shape(self) -> tuple[int, int]:
        # Source rows live in host scratch, destination in MRAM --
        # banding is always safe here.  Bands slice one group's rows.
        return self.lane.shape[0], self.nslots_out * self.chunk_bytes

    def tile_count(self, tile_bytes: int) -> int:
        return len(self._bands(tile_bytes)) * len(self.group_ids)

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        results = ctx.scratch.get(self.scratch_key)
        if results is None:
            raise CollectiveError(
                f"no host scratch {self.scratch_key!r}; run the reduce "
                "exchange first")
        bands = self._bands(ctx.tile_bytes)
        lanes = self.lane.shape[0]
        row_bytes = self.nslots_out * self.chunk_bytes
        wide = wide_dtype(self.chunk_bytes)
        system = ctx.system
        bound = system.bind(self._binding)
        # (instance, band) units are all independent: instances write
        # different groups' rows, bands write disjoint rows of one
        # group, so the whole cross product fans out to the workers.
        units = []
        for g, (ids, inst) in enumerate(zip(self.group_ids,
                                            self.instances)):
            row = np.ascontiguousarray(results[inst]).view(np.uint8)
            if row.shape != (lanes, self.chunk_bytes):
                raise TransferError(
                    f"scratch row {row.shape} does not match group "
                    f"({lanes}, {self.chunk_bytes})")
            # The scratch matrix is contiguous, so each chunk is one
            # wide element regardless of alignment.
            chunks = row.view(wide).reshape(-1)
            units.extend((ids, chunks, band, bound.window(g, band))
                         for band in bands)

        def run_unit(scratch: ScratchPool | None, unit) -> None:
            ids, chunks, (r0, r1), window = unit
            fanned = _band_take(scratch, chunks, self.lane[r0:r1])
            system.put_rows(
                ids[r0:r1], self.dst_offset,
                fanned.view(np.uint8).reshape(r1 - r0, row_bytes), window)

        _run_bands(units, ctx.pool, ctx.workers, run_unit)
        self._charge(ctx)

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute_streamed = execute


@dataclass
class HostPullOp(ProgramOp):
    """GatherToHost lowered: per-instance lane reads into host scratch."""

    group_ids: tuple[np.ndarray, ...]
    instances: tuple[int, ...]
    src_offset: int
    chunk_bytes: int
    scratch_key: str
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._binding = _per_group(self.group_ids, self.src_offset,
                                   self.chunk_bytes)

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        results = {}
        system = ctx.system
        bound = system.bind(self._binding)
        for g, (ids, inst) in enumerate(zip(self.group_ids,
                                            self.instances)):
            block = system.take_rows(ids, self.src_offset,
                                     self.chunk_bytes, bound.window(g))
            results[inst] = block.reshape(-1)
        ctx.scratch[self.scratch_key] = results
        self._charge(ctx)

    def transfer_bytes(self) -> int:
        return sum(ids.size for ids in self.group_ids) * self.chunk_bytes


@dataclass
class HostPushOp(ProgramOp):
    """ScatterFromHost lowered: per-instance payload rows pushed down."""

    group_ids: tuple[np.ndarray, ...]
    instances: tuple[int, ...]
    dst_offset: int
    chunk_bytes: int
    source_key: str | None = None
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._binding = _per_group(self.group_ids, self.dst_offset,
                                   self.chunk_bytes)

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        source = payloads
        if source is None and self.source_key is not None:
            source = ctx.scratch.get(self.source_key)
        if source is None:
            raise CollectiveError(
                "functional scatter needs payloads or a scratch key")
        system = ctx.system
        bound = system.bind(self._binding)
        for g, (ids, inst) in enumerate(zip(self.group_ids,
                                            self.instances)):
            buf = np.asarray(source[inst], dtype=np.uint8)
            expected = ids.size * self.chunk_bytes
            if buf.size != expected:
                raise TransferError(
                    f"scatter payload of {buf.size}B for instance "
                    f"{inst}, expected {expected}B")
            system.put_rows(ids, self.dst_offset,
                            buf.reshape(ids.size, self.chunk_bytes),
                            bound.window(g))
        self._charge(ctx)

    def transfer_bytes(self) -> int:
        return sum(ids.size for ids in self.group_ids) * self.chunk_bytes


@dataclass
class BroadcastFillOp(ProgramOp):
    """BroadcastStep lowered: one fill (one guarded delivery) per instance."""

    group_ids: tuple[np.ndarray, ...]
    instances: tuple[int, ...]
    dst_offset: int
    nbytes: int
    source_key: str | None = None
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._binding = _per_group(self.group_ids, self.dst_offset,
                                   self.nbytes)

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        source = payloads
        if source is None and self.source_key is not None:
            source = ctx.scratch.get(self.source_key)
        if source is None:
            raise CollectiveError(
                "functional broadcast needs payloads or a scratch key")
        system = ctx.system
        bound = system.bind(self._binding)
        for g, (ids, inst) in enumerate(zip(self.group_ids,
                                            self.instances)):
            buf = np.asarray(source[inst], dtype=np.uint8)
            if buf.size != self.nbytes:
                raise TransferError(
                    f"broadcast payload of {buf.size}B, expected "
                    f"{self.nbytes}B")
            system.fill_lanes(ids, self.dst_offset, buf, bound.window(g))
        self._charge(ctx)

    def transfer_bytes(self) -> int:
        return sum(ids.size for ids in self.group_ids) * self.nbytes


@dataclass
class StepOp(ProgramOp):
    """Fallback: replay a step that has no lowering via ``apply``."""

    step: Step
    simd: SimdCounter = field(default_factory=SimdCounter)
    wram_tiles: int = 0
    labels: tuple[str, ...] = ()

    def execute(self, ctx: ExecContext,
                payloads: Mapping[int, np.ndarray] | None) -> None:
        self.step.apply(ctx)

    def describe(self) -> str:
        """Label of the wrapped (uncompiled) step."""
        return f"StepOp({self.step.describe()})"


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def _compose_tables(lane_a: np.ndarray, slot_a: np.ndarray,
                    lane_b: np.ndarray, slot_b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of ``b after a``: ``out[l,s] = in[lane[l,s], slot[l,s]]``.

    If ``mid = a(in)`` and ``out = b(mid)`` then ``out[l, s] =
    mid[lane_b[l,s], slot_b[l,s]] = in[lane_a[lane_b, slot_b],
    slot_a[lane_b, slot_b]]``.
    """
    return (readonly_table(lane_a[lane_b, slot_b]),
            readonly_table(slot_a[lane_b, slot_b]))


def _chainable(a: GatherMoveOp | FanoutScratchOp, b: GatherMoveOp) -> bool:
    """Whether ``a``'s output region is fully consumed-and-overwritten by ``b``.

    Fusing drops ``a``'s intermediate write, which is only invisible
    when ``b`` reads exactly that region (``a.dst == b.src``) and
    writes every byte of it back in place (``b.dst == b.src`` with
    equal in/out slot counts) -- then the final memory state is
    identical to the interpreted two-step execution.
    """
    return (a.dst_offset == b.src_offset == b.dst_offset
            and a.chunk_bytes == b.chunk_bytes
            and a.nslots_out == b.nslots_in == b.nslots_out
            and a.ngroups == b.ngroups
            and np.array_equal(a.ids, b.ids))


def _fuse_moves(a: GatherMoveOp, b: GatherMoveOp) -> GatherMoveOp:
    lane, slot = _compose_tables(a.lane, a.slot, b.lane, b.slot)
    return GatherMoveOp(
        ids=a.ids, ngroups=a.ngroups, src_offset=a.src_offset,
        dst_offset=b.dst_offset, nslots_in=a.nslots_in,
        nslots_out=b.nslots_out, chunk_bytes=a.chunk_bytes,
        lane=lane, slot=slot, simd=_merged(a.simd, b.simd),
        wram_tiles=a.wram_tiles + b.wram_tiles, labels=a.labels + b.labels)


def _fuse_fanout(a: FanoutScratchOp, b: GatherMoveOp) -> FanoutScratchOp:
    # a's lane table indexes scratch rows directly (no slot axis), so
    # composing with b only re-routes through b's (lane, slot) pair.
    lane = readonly_table(a.lane[b.lane, b.slot])
    return FanoutScratchOp(
        group_ids=a.group_ids, ids=a.ids, instances=a.instances,
        scratch_key=a.scratch_key, lane=lane, dst_offset=b.dst_offset,
        chunk_bytes=a.chunk_bytes, nslots_out=b.nslots_out,
        simd=_merged(a.simd, b.simd),
        wram_tiles=a.wram_tiles + b.wram_tiles, labels=a.labels + b.labels)


def _fuse(ops: list[ProgramOp]) -> list[ProgramOp]:
    """Greedy adjacent-pair fusion over the lowered op list."""
    fused: list[ProgramOp] = []
    for op in ops:
        prev = fused[-1] if fused else None
        if isinstance(op, GatherMoveOp) \
                and isinstance(prev, (GatherMoveOp, FanoutScratchOp)) \
                and _chainable(prev, op):
            fused[-1] = (_fuse_moves(prev, op)
                         if isinstance(prev, GatherMoveOp)
                         else _fuse_fanout(prev, op))
            continue
        fused.append(op)
    return fused


# ----------------------------------------------------------------------
# The program
# ----------------------------------------------------------------------
@dataclass
class CommProgram:
    """A compiled, fused, pre-priced execution program for one plan."""

    primitive: str
    plan: CommPlan
    ops: list[ProgramOp]
    total_steps: int
    lowered_steps: int
    fused_away: int
    _ledger: CostLedger
    _params: MachineParams

    @property
    def fully_lowered(self) -> bool:
        """True when no op falls back to interpreted ``Step.apply``."""
        return all(not isinstance(op, StepOp) for op in self.ops)

    def priced(self, system: DimmSystem) -> CostLedger:
        """The pre-priced ledger (a fresh copy), repriced only when the
        system's machine parameters changed since compilation."""
        if system.params is not self._params:
            self._ledger = self.plan.estimate(system)
            self._params = system.params
        return self._ledger.copy()

    def tile_counts(self, tile_bytes: int) -> list[int]:
        """Per-op band counts a replay at this budget runs (static)."""
        return [op.tile_count(tile_bytes) for op in self.ops]

    @property
    def transfer_bytes(self) -> int:
        """Total modelled transfer bytes across all ops (static)."""
        return sum(op.transfer_bytes() for op in self.ops)

    @property
    def scannable_bytes(self) -> int:
        """Source bytes an elided replay would fingerprint-scan.

        Static per program (independent of content), so the autotuner
        can price the scan overhead without running anything.
        """
        return sum(op.ids.size * op.nslots_in * op.chunk_bytes
                   for op in self.ops
                   if isinstance(op, GatherMoveOp) and op._elidable())

    @property
    def elidable_transfer_bytes(self) -> int:
        """Transfer bytes of ops the elision layer can act on at all.

        The best-case saving bound: content can never elide more than
        the elidable ops' full traffic, so when the scan cost exceeds
        this, scanning cannot pay regardless of sparsity.
        """
        return sum(op.transfer_bytes() for op in self.ops
                   if isinstance(op, GatherMoveOp) and op._elidable())

    def pipeline_depth(self, tile_bytes: int) -> int:
        """Software-pipeline depth: the deepest single op's tile count."""
        return max(self.tile_counts(tile_bytes), default=1)

    def replay(self, system: DimmSystem,
               payloads: Mapping[int, np.ndarray] | None = None, *,
               tile_bytes: int | None = None,
               pool: ScratchPool | None = None,
               workers=None,
               elide: bool = False) -> tuple[CostLedger, ExecContext]:
        """Execute the compiled ops; returns (ledger, context).

        Bit-identical to interpreting the source plan: same memory
        state, scratch outputs, SIMD counts and WRAM tiles -- at a
        fraction of the dispatch work.

        One loop runs every op's one replay body.  ``tile_bytes`` is
        the banded ops' output-row band budget: None is one band per
        op (untiled: allocates per op, no pool, no workers); a budget
        streams band by band through ``pool`` (fresh when None) in
        O(tile) working memory, and ``workers`` (an engine worker
        pool) may fan a streamed op's bands across host threads.
        Results are bit-identical at any budget and worker count.  The
        ledger is unpipelined: a streamed run's pipeline credit is a
        static function of the budget (:meth:`pipeline_depth`).

        Pass ``elide=True`` for content-aware transfer elision:
        movement ops fingerprint-scan their sources and skip the
        gather/put for all-zero and duplicate output rows,
        substituting a broadcast fill or an aliased copy of the
        byte-verified representative.  Results stay bit-identical at
        any elision rate; the returned ledger charges the scan to the
        ``elide`` category and scales the transfer-bound categories by
        the fraction of modelled bytes actually saved.
        """
        if tile_bytes is None:
            pool = workers = None
        elif tile_bytes <= 0:
            raise CollectiveError(
                f"tile_bytes must be positive, got {tile_bytes}")
        elif pool is None:
            pool = ScratchPool()
        ledger = self.priced(system)
        ctx = ExecContext(system=system, elide=elide, tile_bytes=tile_bytes,
                          pool=pool, workers=workers)
        injector = system.fault_injector
        if injector is not None:
            # The lowered-away LaunchStep's fault site.
            injector.take_timeout("collective launch")
        for op in self.ops:
            if pool is not None:
                pool.release()
            if injector is not None:
                op.launch(injector)
            op.execute(ctx, payloads)
        if pool is not None:
            ctx.peak_scratch_bytes = pool.peak_bytes
            if workers is not None:
                ctx.peak_scratch_bytes += workers.scratch_peak_bytes
        return self._elision_priced(ledger, ctx, system), ctx

    def _elision_priced(self, ledger: CostLedger, ctx: ExecContext,
                        system: DimmSystem) -> CostLedger:
        """Fold an elided replay's scan cost and transfer credit in.

        The scan is charged at ``MachineParams.scan_time`` over the
        bytes the hierarchical scan actually touched; the
        transfer-bound categories (:data:`ELIDABLE_CATEGORIES`) shrink
        by the measured fraction of modelled transfer bytes the
        elisions removed.  A replay with no scan work (``elide``
        off, dense content under the size floor) returns the ledger
        unchanged.
        """
        if not ctx.scan_bytes and not ctx.saved_transfer_bytes:
            return ledger
        scan_s = system.params.scan_time(ctx.scan_bytes)
        if scan_s > 0.0:
            ledger.add("elide", scan_s)
        if ctx.saved_transfer_bytes:
            total = self.transfer_bytes
            if total > 0:
                keep = 1.0 - min(1.0, ctx.saved_transfer_bytes / total)
                for cat in ELIDABLE_CATEGORIES:
                    if cat in ledger.seconds:
                        ledger.seconds[cat] *= keep
        return ledger

    def describe(self) -> str:
        """Multi-line program listing for debugging and docs."""
        lines = [f"CommProgram({self.primitive}, {len(self.ops)} ops from "
                 f"{self.total_steps} steps, "
                 f"{self.lowered_steps} lowered, {self.fused_away} fused)"]
        lines.extend(f"  {i}: {op.describe()}"
                     for i, op in enumerate(self.ops))
        return "\n".join(lines)


def compile_plan(plan: CommPlan, system: DimmSystem) -> CommProgram:
    """Lower a plan's steps into a :class:`CommProgram` and fuse them.

    Each step's ``lower(system)`` hook yields its program ops (or None
    for no lowering, in which case the step rides along as a
    :class:`StepOp`); a greedy pass then composes adjacent index-map
    ops wherever dropping the intermediate write is invisible.  The
    plan's analytic cost is priced once, here, so replay never calls
    ``estimate`` again.  The program depends on the plan alone: every
    schedule of the plan's rung replays the same program.
    """
    ops: list[ProgramOp] = []
    lowered = 0
    for step in plan.steps:
        step_ops = step.lower(system)
        if step_ops is None:
            ops.append(StepOp(step, labels=(step.describe(),)))
        else:
            lowered += 1
            ops.extend(step_ops)
    before = len(ops)
    ops = _fuse(ops)
    return CommProgram(
        primitive=plan.primitive, plan=plan, ops=ops,
        total_steps=len(plan.steps), lowered_steps=lowered,
        fused_away=before - len(ops), _ledger=plan.estimate(system),
        _params=system.params)
