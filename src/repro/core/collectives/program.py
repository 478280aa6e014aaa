"""Compiled collective programs: lowered, fused, replayable plans.

A cached :class:`~repro.core.collectives.plan.CommPlan` is still
*interpreted*: every ``Step.apply`` re-derives slot permutations,
gather indices, group unions and lane offsets that are pure functions
of the plan key.  :func:`compile_plan` lowers the step list once into a
:class:`CommProgram` -- a short sequence of program ops, each holding

* the concatenated arena row ids of every group member,
* read-only fused ``(lane, slot)`` index tables (PeReorder ∘
  RotateExchange ∘ PeReorder composed into a single fancy index where
  legal, with the CM byte-rotation folded into the same map), and
* pre-counted :class:`~repro.hw.host.SimdCounter` charges and WRAM
  tile totals,

so steady-state replay of a cache-hit plan is a handful of numpy
dispatches with zero index math, zero permutation validation, and zero
per-step Python re-derivation.  The arena side is fixed too: each op
declares the :class:`~repro.hw.arena.Region` s it reads and writes
once, and its binding, fault sites and write-log entry are all read
from them, as are the MRAM bytes its step's traffic must price
(:func:`traffic_mismatches`).  :meth:`~repro.hw.system.DimmSystem.bind`
resolves the binding once per arena layout, so replay moves bytes
through pre-resolved views, and every table-driven gather takes
straight from the arena through the op's bound stream table, with no
staging copy.  The interpreted path stays the oracle:
replay must produce bit-identical memory state, host outputs, ledgers,
SIMD counts and WRAM tiles (``tests/test_program.py``).

Every step a session plans lowers, the conventional-baseline host
flows included, so replay never calls ``Step.apply``; a step with no
compiled form makes :func:`compile_plan` raise ``CollectiveError``.

Fault injection sits at the op boundary: a banded op is one gather
and one put (per group) of the modelled machine however many bands it
moves in, so it logs its writes and draws those sites once, before any
band moves (:meth:`~repro.hw.system.DimmSystem.expose`), and its band
kernels never consult the injector; :meth:`CommProgram.replay` adds
the launch timeouts.  A fused op makes fewer transfers than the steps
it absorbed, so it draws fewer faults -- the same physics that makes
it cheaper (``docs/reliability.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ...errors import CollectiveError, TransferError
from ...hw.arena import (
    ArenaBinding,
    BoundWindows,
    Region,
    ScratchPool,
    flat_chunk_table,
    scan_zero_chunks,
    wide_dtype,
)
from ...hw.geometry import DimmGeometry
from ...hw.host import SimdCounter
from ...hw.kernels import fold_slots
from ...hw.system import DimmSystem
from ...hw.timing import ELIDABLE_CATEGORIES, CostLedger
from .plan import CommPlan, ExecContext

#: Smallest per-op source block (bytes) the elision layer bothers to
#: zero-scan.  Below this the scan's fixed Python dispatch costs
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


def _run_bands(units: Sequence, pool: ScratchPool | None, workers,
               run_one: Callable[[ScratchPool | None, Any], None]) -> None:
    """Execute per-band work units serially or across a worker pool.

    ``workers`` is the engine's :class:`~repro.engine.parallel
    .WorkerPool` (duck-typed here so core never imports engine), or
    None for a serial loop; ``pool`` is None on an untiled replay.
    Parallel dispatch is safe because every unit writes a disjoint set
    of output rows (:func:`band_ranges` partitions the row axis) into
    already-materialized arena rows, each worker gathers through its
    own private scratch pool, and no band draws a fault (the op drew
    its sites before any band ran).  Nested calls (a wave member
    replaying on a worker thread) run inline on that thread.

    Each unit releases its pool's views before it runs, so a pool's
    high-water mark is its largest single unit's views -- the same
    whichever thread a unit lands on.
    """
    if workers is None or workers.workers <= 1 or len(units) <= 1 \
            or workers.in_worker:
        for unit in units:
            if pool is not None:
                pool.release()
            run_one(pool, unit)
        if workers is not None:
            workers.count_bands(len(units))
        return

    def task(unit):
        def run() -> None:
            scratch = workers.scratch()
            scratch.release()
            run_one(scratch, unit)
            workers.count_bands(1)
        return run

    workers.run([task(unit) for unit in units])


def _prefix(bands: list[tuple[int, int]],
            limit: int | None) -> list[tuple[int, int]]:
    """``bands`` cut to output rows ``[0, limit)``; all when None."""
    if limit is None:
        return bands
    return [(r0, min(r1, limit)) for r0, r1 in bands if r0 < limit]


def _group_prefix(bands: list[tuple[int, int]], ngroups: int, rows: int,
                  limit: int | None) -> list:
    """``(group, band)`` units of ``ngroups`` groups of ``rows`` output
    rows each, cut to the op's rows ``[0, limit)`` (group-major)."""
    return [(g, band) for g in range(ngroups)
            for band in _prefix(bands, None if limit is None
                                else limit - g * rows)]


def _group_spans(r0: int, r1: int,
                 lanes: int) -> list[tuple[int, int, int, int]]:
    """Output rows ``[r0, r1)`` of ``lanes``-row groups as ``(g0, g1,
    l0, l1)`` rectangles, lanes ``[l0, l1)`` of groups ``[g0, g1)``.

    At most three, in row order: the tail of a first group the band
    splits, the whole groups, and the head of a last group it splits.
    """
    g0, l0 = divmod(r0, lanes)
    g1, l1 = divmod(r1, lanes)
    if g0 == g1:
        return [(g0, g0 + 1, l0, l1)] if l1 > l0 else []
    spans = []
    if l0:
        spans.append((g0, g0 + 1, l0, lanes))
        g0 += 1
    if g1 > g0:
        spans.append((g0, g1, 0, lanes))
    if l1:
        spans.append((g1, g1 + 1, 0, l1))
    return spans


def scaled_counter(counter: SimdCounter, factor: int) -> SimdCounter:
    """One group's SIMD charge multiplied across ``factor`` equal groups."""
    return SimdCounter(loads=counter.loads * factor,
                       stores=counter.stores * factor,
                       shuffles=counter.shuffles * factor,
                       transposes=counter.transposes * factor)


def _merged(a: SimdCounter, b: SimdCounter) -> SimdCounter:
    out = SimdCounter()
    out.merge(a)
    out.merge(b)
    return out


@dataclass
class ProgramOp(abc.ABC):
    """One lowered stage of a compiled program.

    Every op has exactly one replay body, :meth:`execute`.  The banded
    ops (:class:`GatherMoveOp`, :class:`ReduceFoldOp`,
    :class:`FanoutScratchOp`) run it as a loop over output-row bands
    sized by ``ctx.tile_bytes``; an untiled replay (``tile_bytes``
    None) is the one-band case, so streamed and untiled replay share
    every line of it.  Every op takes its pre-counted charges, and the
    labels of the steps it lowers, as keywords, and declares the MRAM
    regions it ``reads`` and ``writes`` once, when it is built.
    """

    simd: SimdCounter = field(default_factory=SimdCounter, kw_only=True)
    wram_tiles: int = field(default=0, kw_only=True)
    labels: tuple[str, ...] = field(default=(), kw_only=True)
    reads: tuple[Region, ...] = field(default=(), init=False, repr=False)
    writes: tuple[Region, ...] = field(default=(), init=False, repr=False)

    @abc.abstractmethod
    def execute(self, ctx: ExecContext) -> None:
        """Replay this stage against ``ctx.system``."""

    def tile_count(self, tile_bytes: int) -> int:
        """Bands :meth:`execute` replays at this budget."""
        return 1

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
    A stream-safe op's bands fan out to the workers, if any.
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


def _band_gather(op, ctx: ExecContext, bound: BoundWindows
                 ) -> Callable[[ScratchPool | None, int, int], np.ndarray]:
    """A table-driven op's band gather: ``take(scratch, r0, r1)``
    returns output rows ``[r0, r1)`` as a uint8 row matrix.

    Every replay gathers through the bound stream table straight from
    the arena, in one pass (:meth:`DimmSystem.take_band_flat`).  A band
    of a stream-safe op lands in the pool's pong view (O(tile) memory);
    every other gather -- an untiled replay, which has no pool, or the
    whole-op band of an op that cannot band (an in-place rewrite whose
    rows read across rows) -- lands in one transient array, so pong
    stays O(tile).
    """
    system = ctx.system
    table, width = bound.gather_table()
    wide = wide_dtype(width)
    cols = table.shape[1]
    transient = not op._stream_safe()

    def take(scratch, r0, r1):
        shape = (r1 - r0, cols)
        out = (np.empty(shape, wide) if scratch is None or transient
               else scratch.pong(shape, wide))
        system.take_band_flat(table, width, r0, r1, out)
        return out.view(np.uint8)
    return take


@dataclass
class _ElisionPlan:
    """One op's zero-scan result, valid at any band budget.

    ``zero_row[r]`` -- output row ``r`` gathers only all-zero chunks.
    ``table`` is the bound stream table the live rows gather through
    (:meth:`~repro.hw.arena.BoundWindows.gather_table`).
    """

    table: tuple[np.ndarray, int]
    zero_row: np.ndarray


@dataclass
class GatherMoveOp(_BandedOp):
    """Pure data movement as one stream-table gather + one put.

    Covers the PeReorder, RotateExchange, Fanout and conventional
    exchange steps, and legal compositions of them (:func:`_chainable`).
    The fused ``out[l, s] = in[lane[l, s], slot[l, s]]`` tables are
    shared across all ``ngroups`` equal-size groups; ``ids`` is their
    rank-ordered concatenation.

    When the replay context carries ``elide=True`` (content-aware
    transfer elision, ``docs/performance.md``), the op first
    zero-scans its source block
    (:func:`~repro.hw.arena.scan_zero_chunks`) and gathers only its
    live output rows: a row that would gather nothing but all-zero
    chunks becomes a zero fill instead.  The scan reads every byte it
    marks zero, so results stay bit-identical to the interpreted
    oracle at any elision rate; ops whose source and destination
    regions overlap never elide.

    An op whose regions overlap rewrites its source in place with the
    same band body: each band gathers all of its rows before it writes
    any, and it bands when it is row-local (:meth:`_stream_safe`), a
    property fixed here, when the op is built.
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

    def __post_init__(self) -> None:
        # The elision scan maps zero chunks to zero rows through the
        # flattened table pair, built on its first scan: most ops never
        # scan, and fusion drops the ones it absorbs.
        self._flat = None
        self.reads = (Region(self.ids, self.src_offset,
                             self.nslots_in * self.chunk_bytes),)
        self.writes = (Region(self.ids, self.dst_offset,
                              self.nslots_out * self.chunk_bytes),)
        (src,), (dst,) = self.reads, self.writes
        # One window, the destination block; the source is the gather.
        self._binding = ArenaBinding(self.writes, gather=(
            src, self.ngroups, self.chunk_bytes, self.lane, self.slot))
        self._disjoint = src.end <= dst.offset or dst.end <= src.offset
        # Output row r = g * lanes + l reads only source row r when
        # every lane gathers from itself and no PE holds two rows.
        lanes = self.ids.size // self.ngroups
        pes = np.sort(self.ids)
        self._row_local = (
            self.lane.shape[0] == lanes
            and bool((self.lane == np.arange(lanes)[:, None]).all())
            and bool((pes[1:] != pes[:-1]).all()))
        self._band_memo = {}
        self._plan_cache = None

    def execute(self, ctx: ExecContext) -> None:
        bands = self._bands(ctx.tile_bytes)
        plan = None
        if ctx.elide and self._elidable():
            plan, dst_clean = self._elision_plan(ctx)
        system = ctx.system
        bound = system.bind(self._binding)
        take = _band_gather(self, ctx, bound)

        def run_band(scratch: ScratchPool | None,
                     band: tuple[int, int]) -> None:
            r0, r1 = band
            system.put_rows(self.ids[r0:r1], self.dst_offset,
                            take(scratch, r0, r1), bound.window(0, band))

        def move(limit: int | None) -> None:
            if plan is not None and limit is None:
                self._execute_elided(ctx, plan, bands, dst_clean)
            else:
                # A dropped put's prefix moves through the plain body:
                # an elided row holds the bytes its plain gather would.
                _run_bands(_prefix(bands, limit), ctx.pool, ctx.workers,
                           run_band)

        # The gather takes the rows the put writes: one site size.
        system.expose(move, self.writes, self.writes[0])
        self._charge(ctx)

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute_streamed = execute

    def _elidable(self) -> bool:
        """Whether this op may take the zero-scan path at all.

        Requires disjoint source/destination regions (elided writes
        land before a full gather would, so aliasing ops -- row-local
        ones included -- fall back to the plain replay) and a source
        block big enough that scanning can ever pay.
        """
        return (self._disjoint
                and self.reads[0].total_bytes >= ELIDE_MIN_SOURCE_BYTES)

    def _elision_plan(self, ctx: ExecContext
                      ) -> tuple[_ElisionPlan | None, bool]:
        """Cache-validated elision plan plus a destination-clean flag.

        The scan result is a pure function of content, so it stays
        valid until some write may have touched the op's source
        interval; the arena's write log
        (:meth:`~repro.hw.system.DimmSystem.content_changed`) proves
        absence of such writes, and steady-state replay of an
        unchanged payload then reuses the cached plan without
        re-reading a single source byte.  The flag additionally
        reports that the *destination* interval saw no write since
        this op's own last eliding replay -- its zero rows still read
        zero, so the zero fill can be skipped.  A
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
        table = system.bind(self._binding).gather_table()
        epoch = system.content_epoch()
        cached = self._plan_cache
        (src,), (dst,) = self.reads, self.writes
        if (cached is not None
                and cached[0] is table
                and not system.content_changed(cached[1], src)):
            _, _, plan, dst_epoch = cached
            dst_clean = (dst_epoch is not None
                         and not system.content_changed(dst_epoch, dst))
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
        """Zero-scan the source block, derive the all-zero output rows.

        Returns None when no output row is elidable (the caller then
        takes the plain path); the scan's cost is charged to the
        context either way -- that *is* the dense-traffic overhead the
        ledger prices (and the sampled nomination inside
        :func:`~repro.hw.arena.scan_zero_chunks` keeps near zero).
        ``table`` is the bound stream table.
        """
        n = self.ids.size
        block = ctx.system.scan_view(self.reads[0])
        chunks = block.reshape(self.ngroups, n // self.ngroups,
                               self.nslots_in, self.chunk_bytes)
        zero, scanned = scan_zero_chunks(chunks)
        ctx.chunks_scanned += n * self.nslots_in
        ctx.scan_bytes += scanned
        if not zero.any():
            return None  # dense content: scan paid, nothing to map
        if self._flat is None:
            self._flat = flat_chunk_table(self.lane, self.slot,
                                          self.nslots_in)
        # A row elides when every chunk its table gathers is zero.
        zero_row = zero.reshape(self.ngroups, -1)[:, self._flat].all(
            axis=2).reshape(n)
        if not zero_row.any():
            return None
        return _ElisionPlan(table=table, zero_row=zero_row)

    def _gather_select(self, system: DimmSystem, plan: _ElisionPlan,
                       rows: np.ndarray,
                       scratch: ScratchPool | None) -> np.ndarray:
        """Gather only ``rows`` (the live ones) as uint8 output rows."""
        flat_table, width = plan.table
        shape = (rows.size, flat_table.shape[1])
        out = (np.empty(shape, wide_dtype(width)) if scratch is None
               else scratch.pong(shape, wide_dtype(width)))
        if rows.size:
            system.take_select_flat(flat_table, width, rows, out)
        return out.view(np.uint8).reshape(
            rows.size, self.nslots_out * self.chunk_bytes)

    def _stream_safe(self) -> bool:
        """Whether row-band tiling cannot read bytes a band wrote.

        Each band writes its rows' full destination region before
        later bands read their (arbitrarily cross-lane) sources, so
        streaming is exact when the source and destination regions are
        disjoint, or when the op is row-local (output row ``r`` reads
        only source row ``r``, as the PE-local reorder that opens
        ReduceScatter, AllReduce and Reduce does): then a band reads
        only its own rows, all before it writes them.  An in-place
        rewrite that reads across rows replays as one band.  Both
        properties are fixed when the op is built.
        """
        return self._disjoint or self._row_local

    def _band_shape(self) -> tuple[int, int]:
        return self.ids.size, self.nslots_out * self.chunk_bytes

    def _execute_elided(self, ctx: ExecContext, plan: _ElisionPlan,
                        bands: list[tuple[int, int]],
                        dst_clean: bool = False) -> None:
        """Elided replay: each band gathers its live rows and
        zero-fills its zero rows, unless ``dst_clean`` says they still
        read zero.  The counters are a function of the plan alone, so
        they are identical at any band budget and worker count."""
        system = ctx.system
        row_bytes = self.nslots_out * self.chunk_bytes

        def run_band(scratch: ScratchPool | None,
                     band: tuple[int, int]) -> None:
            r0, r1 = band
            zmask = plan.zero_row[r0:r1]
            live = np.flatnonzero(~zmask) + r0
            if live.size:
                system.put_rows(self.ids[live], self.dst_offset,
                                self._gather_select(system, plan, live,
                                                    scratch))
            zrows = np.flatnonzero(zmask) + r0
            if zrows.size and not dst_clean:
                system.zero_fill_lanes(self.ids[zrows], self.dst_offset,
                                       row_bytes)

        _run_bands(bands, ctx.pool, ctx.workers, run_band)
        n_zero = int(np.count_nonzero(plan.zero_row))
        ctx.chunks_elided += n_zero * self.nslots_out
        ctx.elided_bytes += n_zero * row_bytes
        # Zero rows skip both bus directions: nothing is gathered, and
        # the fill image is one shared row.
        ctx.saved_transfer_bytes += 2 * n_zero * row_bytes
        # Stamp the cache: dst now holds this plan's replay output.
        self._plan_cache = self._plan_cache[:3] + (system.content_epoch(),)


@dataclass
class ReduceFoldOp(_BandedOp):
    """ReduceExchange or the conventional fold: output row ``r = g *
    lanes + l`` folds ``in[lane[l, s], slot[l, s]]`` over ``s``.

    A *column* fold -- every output lane ``l`` folds source slot ``l``
    of every lane exactly once, in an integer or bool dtype -- reads
    its source straight from the arena: one ``ufunc.reduce`` over the
    lane axis of the source window per band (per group the band
    splits), with no stream table, no gather and no pong.  Fixed-width
    modular arithmetic is order-independent, so folding the lanes in
    row order rather than table order is bit-exact.  The property is
    fixed when the op is built.  The conventional ReduceScatter and
    AllReduce folds have it, and so does the PID-Comm fold once it
    reads through the rotate it absorbed (:func:`_fuse`).

    Every other fold gathers its slots through the bound stream table
    and folds them with :func:`~repro.hw.kernels.fold_slots`: integer
    dtypes with one ``ufunc.reduce`` call, floats with the explicit
    left fold whose order matches the interpreted backends, so
    floating-point results stay bit-identical to the scalar oracle.
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

    def __post_init__(self) -> None:
        self.reads = (Region(self.ids, self.src_offset,
                             self.nslots * self.chunk_bytes),)
        if self.dst_offset is not None:
            self.writes = (Region(self.ids, self.dst_offset,
                                  self.chunk_bytes),)
        lanes = self.ids.size // self.ngroups
        self._columns = (
            np.dtype(self.dtype.np_dtype).kind in "iub"
            and self.lane.shape == (lanes, lanes) == (lanes, self.nslots)
            and bool((self.slot == np.arange(lanes)[:, None]).all())
            and bool((np.sort(self.lane, axis=1)
                      == np.arange(lanes)).all()))
        # The destination chunk's window (if any), then: a column fold's
        # source window, or every other fold's stream-table gather.
        self._binding = (
            ArenaBinding(self.writes + self.reads) if self._columns
            else ArenaBinding(self.writes, gather=(
                self.reads[0], self.ngroups, self.chunk_bytes, self.lane,
                self.slot)))
        self._band_memo = {}

    def execute(self, ctx: ExecContext) -> None:
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
        bound = system.bind(self._binding)
        fold = (self._column_fold(bound, np_dtype, elems) if self._columns
                else self._gather_fold(ctx, bound, np_dtype))

        def run_band(scratch: ScratchPool | None,
                     rows: tuple[int, int]) -> None:
            r0, r1 = rows
            if full is not None:
                out = full[r0:r1]
            elif scratch is not None:
                out = scratch.fold((r1 - r0, elems), np_dtype)
            else:
                out = np.empty((r1 - r0, elems), np_dtype)
            # Folds stay band-local (no cross-band arithmetic), so the
            # fold order -- and every float bit -- is identical at any
            # band count and worker count.
            fold(scratch, r0, r1, out)
            if self.dst_offset is not None:
                system.put_rows(self.ids[r0:r1], self.dst_offset,
                                out.view(np.uint8), bound.window(0, rows))

        system.expose(
            lambda limit: _run_bands(_prefix(bands, limit), ctx.pool,
                                     ctx.workers, run_band),
            self.writes, self.reads[0])
        if full is not None:
            shaped = full.reshape(self.ngroups, -1, elems)
            ctx.scratch[self.scratch_key] = {
                inst: shaped[g] for g, inst in enumerate(self.instances)}
        self._charge(ctx)

    def _gather_fold(self, ctx: ExecContext, bound: BoundWindows, np_dtype):
        """``fold(scratch, r0, r1, out)``: gather the band's slots
        through the stream table, then fold them into ``out``."""
        take = _band_gather(self, ctx, bound)

        def fold(scratch, r0, r1, out):
            values = take(scratch, r0, r1).reshape(
                r1 - r0, self.nslots, self.chunk_bytes).view(np_dtype)
            fold_slots(values, self.op, out=out)
        return fold

    def _column_fold(self, bound: BoundWindows, np_dtype, elems: int):
        """``fold(scratch, r0, r1, out)``: reduce the source columns of
        the band's lanes straight out of the source window.

        A strided window is a zero-copy view; a row-indexed one copies
        only the columns the band folds.
        """
        source = bound.window(len(self.writes))
        lanes, chunk = self.ids.size // self.ngroups, self.chunk_bytes

        def fold(scratch, r0, r1, out):
            for g0, g1, l0, l1 in _group_spans(r0, r1, lanes):
                rows = slice(g0 * lanes, g1 * lanes)
                cols = slice(l0 * chunk, l1 * chunk)
                raw = (source.view[rows, cols] if source.rows is None
                       else source.view[source.rows[rows], cols])
                # (groups, output lanes, source lanes, elems): the
                # source lanes are the slot axis fold_slots reduces.
                block = raw.view(np_dtype).reshape(
                    g1 - g0, lanes, l1 - l0, elems).swapaxes(1, 2)
                at = g0 * lanes + l0 - r0
                fold_slots(block, self.op, out=out[
                    at:at + (g1 - g0) * (l1 - l0)].reshape(
                        g1 - g0, l1 - l0, elems))
        return fold

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute_streamed = execute

    def _stream_safe(self) -> bool:
        """Banding safety for the fold's read-many/write-one overlap.

        A band's destination chunks must not alias any source slot a
        later band still reads (the rotation gather crosses lanes), so
        streaming is exact only when the destination chunk lies
        entirely outside the source block -- or when there is no MRAM
        destination at all (host-scratch-only reduces).
        """
        if not self.writes:
            return True
        (src,), (dst,) = self.reads, self.writes
        return src.end <= dst.offset or dst.end <= src.offset

    def _band_shape(self) -> tuple[int, int]:
        return self.ids.size, self.nslots * self.chunk_bytes


@dataclass
class FanoutScratchOp(_BandedOp):
    """FanoutFromHost lowered: fan host-resident reduced rows back out.

    ``lane`` indexes rows of each instance's ``(lanes, chunk)`` scratch
    matrix: ``out[l, s] = acc[lane[l, s]]``.  Only a *fill* replays --
    ``lane[l, s] == s``, so every lane of a group receives the group's
    whole reduced vector, written to the group's rows with the arena's
    fill kernel (:meth:`~repro.hw.system.DimmSystem.fill_rows`).  The
    rotation table a FanoutFromHost step lowers to becomes that fill
    once the trailing reflect PeReorder fuses into it (see
    :func:`_fuse`); the conventional AllReduce lowers to it directly.
    :func:`compile_plan` refuses any other table.
    """

    group_ids: tuple[np.ndarray, ...]
    ids: np.ndarray
    instances: tuple[int, ...]
    scratch_key: str
    lane: np.ndarray
    dst_offset: int
    chunk_bytes: int
    nslots_out: int

    def __post_init__(self) -> None:
        # A lane must name a row of the (lanes, chunk) scratch matrix.
        lanes = self.lane.shape[0]
        if self.lane.size and (self.lane.min() < 0
                               or self.lane.max() >= lanes):
            raise TransferError(f"fanout lane outside [0, {lanes})")
        self._fills = (self.lane.shape == (lanes, lanes) and bool(
            (self.lane == np.arange(lanes)).all()))
        self.writes = tuple(
            Region(ids, self.dst_offset, self.nslots_out * self.chunk_bytes)
            for ids in self.group_ids)
        self._binding = ArenaBinding(self.writes)
        self._band_memo = {}

    @property
    def ngroups(self) -> int:
        """Groups fanned out (one per instance)."""
        return len(self.group_ids)

    def _band_shape(self) -> tuple[int, int]:
        # Source rows live in host scratch, destination in MRAM --
        # banding is always safe here.  Bands slice one group's rows.
        return self.lane.shape[0], self.nslots_out * self.chunk_bytes

    def tile_count(self, tile_bytes: int) -> int:
        return len(self._bands(tile_bytes)) * len(self.group_ids)

    def execute(self, ctx: ExecContext) -> None:
        results = ctx.host(self.scratch_key)
        bands = self._bands(ctx.tile_bytes)
        lanes = self.lane.shape[0]
        system = ctx.system
        bound = system.bind(self._binding)
        vectors = []
        for inst in self.instances:
            row = np.ascontiguousarray(results[inst]).view(np.uint8)
            if row.shape != (lanes, self.chunk_bytes):
                raise TransferError(
                    f"scratch row {row.shape} does not match group "
                    f"({lanes}, {self.chunk_bytes})")
            vectors.append(row.reshape(-1))

        def run_unit(scratch: ScratchPool | None, unit) -> None:
            g, band = unit
            system.fill_rows(self.group_ids[g][band[0]:band[1]],
                             self.dst_offset, vectors[g],
                             bound.window(g, band))

        # (instance, band) units are all independent: instances write
        # different groups' rows, bands write disjoint rows of one
        # group, so the whole cross product fans out to the workers.
        system.expose(
            lambda limit: _run_bands(
                _group_prefix(bands, len(vectors), lanes, limit), ctx.pool,
                ctx.workers, run_unit),
            self.writes)
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

    def __post_init__(self) -> None:
        self.reads = tuple(Region(ids, self.src_offset, self.chunk_bytes)
                           for ids in self.group_ids)
        self._binding = ArenaBinding(self.reads)

    def execute(self, ctx: ExecContext) -> None:
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


@dataclass
class HostPushOp(ProgramOp):
    """ScatterFromHost lowered: per-instance payload rows pushed down."""

    group_ids: tuple[np.ndarray, ...]
    instances: tuple[int, ...]
    dst_offset: int
    chunk_bytes: int
    source_key: str | None = None

    def __post_init__(self) -> None:
        self.writes = tuple(Region(ids, self.dst_offset, self.chunk_bytes)
                            for ids in self.group_ids)
        self._binding = ArenaBinding(self.writes)
        self._sizes = [(inst, region.total_bytes)
                       for region, inst in zip(self.writes, self.instances)]

    def execute(self, ctx: ExecContext) -> None:
        bufs = ctx.source(self.source_key, "scatter", self._sizes)
        rows = [buf.reshape(ids.size, self.chunk_bytes)
                for ids, buf in zip(self.group_ids, bufs)]
        system = ctx.system
        bound = system.bind(self._binding)

        def move(limit: int | None) -> None:
            lanes = len(self.group_ids[0])
            for g, band in _group_prefix([(0, lanes)], len(rows), lanes,
                                         limit):
                system.put_rows(self.group_ids[g][:band[1]],
                                self.dst_offset, rows[g][:band[1]],
                                bound.window(g, band))

        system.expose(move, self.writes)
        self._charge(ctx)


@dataclass
class BroadcastFillOp(ProgramOp):
    """BroadcastStep lowered: one fill (one guarded delivery) per
    instance, each drawing its own faults; the op logs its writes."""

    group_ids: tuple[np.ndarray, ...]
    instances: tuple[int, ...]
    dst_offset: int
    nbytes: int
    source_key: str | None = None

    def __post_init__(self) -> None:
        self.writes = tuple(Region(ids, self.dst_offset, self.nbytes)
                            for ids in self.group_ids)
        self._binding = ArenaBinding(self.writes)

    def execute(self, ctx: ExecContext) -> None:
        bufs = ctx.source(self.source_key, "broadcast",
                          [(inst, self.nbytes) for inst in self.instances])
        system = ctx.system
        bound = system.bind(self._binding)
        system.note_writes(self.writes)
        for g, (ids, buf) in enumerate(zip(self.group_ids, bufs)):
            system.fill_lanes(ids, self.dst_offset, buf, bound.window(g))
        self._charge(ctx)


@dataclass
class HostFoldOp(ProgramOp):
    """HostReduce lowered: fold host-scratch vectors into host scratch
    (:func:`fold_host_vectors`), the one op that touches no MRAM."""

    scratch_key: str
    out_key: str
    dtype: Any
    op: Any
    vectors: int
    nbytes: int

    def execute(self, ctx: ExecContext) -> None:
        ctx.scratch[self.out_key] = fold_host_vectors(
            ctx.host(self.scratch_key), self.vectors, self.nbytes,
            self.dtype, self.op)
        self._charge(ctx)


def fold_host_vectors(buffers: Mapping, vectors: int, nbytes: int,
                      dtype: Any, op: Any) -> dict:
    """Reduce each instance's ``vectors`` packed ``nbytes`` host vectors
    into one (the interpreter's ``HostReduceStep`` folds through it)."""
    out = {}
    for instance, buf in buffers.items():
        stacked = np.asarray(buf, dtype=np.uint8).reshape(
            vectors, nbytes).view(dtype.np_dtype)
        out[instance] = np.ascontiguousarray(
            op.reduce_axis(stacked, axis=0)).view(np.uint8)
    return out


class StepOp:
    """Never constructed: every step lowers to program ops."""

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    execute = ProgramOp.execute


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
    flat = lane_b * lane_a.shape[1] + slot_b
    return _taken(lane_a, flat), _taken(slot_a, flat)


def _taken(table: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Read-only ``table.ravel()[flat]``: one flat take, where a 2-D
    fancy index of a 256 x 256 table costs about 2.5x as long."""
    out = table.ravel().take(flat)
    out.setflags(write=False)
    return out


def _covers(writes: Sequence[Region], region: Region) -> bool:
    """Whether ``writes`` rewrite every byte of ``region``: each of its
    rows lies in one write that spans all of its columns."""
    rows = [w.rows for w in writes
            if w.offset <= region.offset and region.end <= w.end]
    return bool(rows) and bool(
        np.isin(region.rows, np.concatenate(rows)).all())


def _touches(regions: Sequence[Region], region: Region) -> bool:
    """Whether any of ``regions`` shares a byte with ``region``."""
    return any(r.offset < region.end and region.offset < r.end
               and bool(np.isin(r.rows, region.rows).any())
               for r in regions)


def _chainable(a: GatherMoveOp | FanoutScratchOp,
               b: GatherMoveOp | ReduceFoldOp,
               later: Sequence[ProgramOp]) -> bool:
    """Whether ``b`` may read through ``a``'s table, dropping ``a``.

    ``b`` must read exactly the chunks ``a`` writes, in ``a``'s row
    order, and ``a``'s writes must be dead once ``b`` has read them:
    ``b`` rewrites every byte of them (a chain of in-place moves, or a
    fan-out and its reflect), or the first of the ``later`` ops to touch
    them rewrites every byte before it reads any (the fan-out of an
    in-place AllReduce, over the rotate that opened it).  Then dropping
    ``a``'s write is invisible: the final memory state is identical to
    the interpreted execution.
    """
    written = Region(a.ids, a.dst_offset, a.nslots_out * a.chunk_bytes)
    (src,) = b.reads
    if not (src.offset == written.offset and src.nbytes == written.nbytes
            and a.chunk_bytes == b.chunk_bytes and a.ngroups == b.ngroups
            and np.array_equal(a.ids, b.ids)):
        return False
    if isinstance(b, ReduceFoldOp) and a.nslots_in != a.nslots_out:
        return False  # a fold has one slot count, source and table
    if _covers(b.writes, written):
        return True
    for op in later:
        if _touches(op.reads, written):
            return False
        if _covers(op.writes, written):
            return True
    return False


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
    lane = _taken(a.lane, b.lane * a.lane.shape[1] + b.slot)
    return FanoutScratchOp(
        group_ids=a.group_ids, ids=a.ids, instances=a.instances,
        scratch_key=a.scratch_key, lane=lane, dst_offset=b.dst_offset,
        chunk_bytes=a.chunk_bytes, nslots_out=b.nslots_out,
        simd=_merged(a.simd, b.simd),
        wram_tiles=a.wram_tiles + b.wram_tiles, labels=a.labels + b.labels)


def _fuse_fold(a: GatherMoveOp, b: ReduceFoldOp) -> ReduceFoldOp:
    lane, slot = _compose_tables(a.lane, a.slot, b.lane, b.slot)
    return ReduceFoldOp(
        ids=b.ids, ngroups=b.ngroups, instances=b.instances,
        src_offset=a.src_offset, chunk_bytes=b.chunk_bytes,
        nslots=b.nslots, dtype=b.dtype, op=b.op, lane=lane, slot=slot,
        dst_offset=b.dst_offset, scratch_key=b.scratch_key,
        simd=_merged(a.simd, b.simd),
        wram_tiles=a.wram_tiles + b.wram_tiles, labels=a.labels + b.labels)


#: ``(type(a), type(b))`` -> ``b`` reading through ``a``'s table.
_FUSIONS = {(GatherMoveOp, GatherMoveOp): _fuse_moves,
            (FanoutScratchOp, GatherMoveOp): _fuse_fanout,
            (GatherMoveOp, ReduceFoldOp): _fuse_fold}


def _fuse(ops: list[ProgramOp]) -> list[ProgramOp]:
    """Greedy adjacent-pair fusion over the lowered op list."""
    fused: list[ProgramOp] = []
    for k, op in enumerate(ops):
        prev = fused[-1] if fused else None
        through = _FUSIONS.get((type(prev), type(op)))
        if through is not None and _chainable(prev, op, ops[k + 1:]):
            fused[-1] = through(prev, op)
            continue
        fused.append(op)
    return fused


# ----------------------------------------------------------------------
# The program
# ----------------------------------------------------------------------
@dataclass
class CommProgram:
    """A compiled, fused execution program for one plan."""

    primitive: str
    plan: CommPlan
    ops: list[ProgramOp]
    total_steps: int
    fused_away: int

    def priced(self, system: DimmSystem) -> CostLedger:
        """The plan's ledger on ``system`` (a fresh copy of
        :meth:`CommPlan.estimate`'s memo)."""
        return self.plan.estimate(system)

    def tile_counts(self, tile_bytes: int) -> list[int]:
        """Per-op band counts a replay at this budget runs (static)."""
        return [op.tile_count(tile_bytes) for op in self.ops]

    def pipeline_depth(self, tile_bytes: int) -> int:
        """Software-pipeline depth: the deepest single op's tile count."""
        return max(self.tile_counts(tile_bytes), default=1)

    def replay(self, system: DimmSystem,
               payloads: Mapping[int, np.ndarray] | None = None, *,
               tile_bytes: int | None = None,
               pool: ScratchPool | None = None,
               workers=None,
               elide: bool = False) -> tuple[CostLedger, ExecContext]:
        """Execute the compiled ops, host pushes reading ``payloads``;
        returns (ledger, context).

        Bit-identical to interpreting the source plan: same memory
        state, scratch outputs, SIMD counts and WRAM tiles -- at a
        fraction of the dispatch work.

        One loop runs every op's one replay body.  ``tile_bytes`` is
        the banded ops' output-row band budget: None is one band per
        op (untiled: allocates per op, no pool, no workers); a budget
        streams band by band through ``pool`` (fresh when None) in
        O(tile) working memory, and ``workers`` (an engine worker
        pool) may fan a streamed op's bands across host threads.  The
        context's ``peak_scratch_bytes`` is this replay's high-water
        mark: the largest single band's views, whichever pool gathered
        it, so the mark is a function of the program and the budget
        and reads the same at any worker count and schedule.
        Results are bit-identical at any budget and worker count.  The
        ledger is unpipelined: a streamed run's pipeline credit is a
        static function of the budget (:meth:`pipeline_depth`).

        Pass ``elide=True`` for content-aware transfer elision:
        movement ops zero-scan their sources and skip the gather/put
        for output rows that would gather only all-zero chunks,
        zero-filling them instead.  Results stay bit-identical at any
        elision rate; the returned ledger charges the scan to the
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
        else:
            # A session's pool outlives the call; the peak is this one's.
            pool.peak_bytes = 0
            if workers is not None:
                workers.reset_scratch_peaks()
        ledger = self.priced(system)
        ctx = ExecContext(system=system, payloads=payloads, elide=elide,
                          tile_bytes=tile_bytes, pool=pool, workers=workers)
        injector = system.fault_injector
        if injector is not None:
            # The lowered-away LaunchStep's fault site.
            injector.take_timeout("collective launch")
        for op in self.ops:
            if injector is not None:
                op.launch(injector)
            op.execute(ctx)
        if pool is not None:
            ctx.peak_scratch_bytes = pool.peak_bytes
            if workers is not None:
                ctx.peak_scratch_bytes = max(ctx.peak_scratch_bytes,
                                             workers.scratch_peak_bytes)
        return self._elision_priced(ledger, ctx, system), ctx

    def _elision_priced(self, ledger: CostLedger, ctx: ExecContext,
                        system: DimmSystem) -> CostLedger:
        """Fold an elided replay's scan cost and transfer credit in.

        The scan is charged at ``MachineParams.scan_time`` over the
        bytes the hierarchical scan actually touched; the
        transfer-bound categories (:data:`ELIDABLE_CATEGORIES`) shrink
        by the measured fraction of the plan's priced bus bytes
        (:meth:`CommPlan.bus_bytes`) the elisions removed.  A replay
        with no scan work (``elide`` off, dense content under the size
        floor) returns the ledger unchanged.
        """
        if not ctx.scan_bytes and not ctx.saved_transfer_bytes:
            return ledger
        scan_s = system.params.scan_time(ctx.scan_bytes)
        if scan_s > 0.0:
            ledger.add("elide", scan_s)
        if ctx.saved_transfer_bytes:
            total = self.plan.bus_bytes(system)
            if total > 0:
                keep = 1.0 - min(1.0, ctx.saved_transfer_bytes / total)
                for cat in ELIDABLE_CATEGORIES:
                    if cat in ledger.seconds:
                        ledger.seconds[cat] *= keep
        return ledger

    def describe(self) -> str:
        """Multi-line program listing for debugging and docs."""
        lines = [f"CommProgram({self.primitive}, {len(self.ops)} ops from "
                 f"{self.total_steps} steps, {self.fused_away} fused)"]
        lines.extend(f"  {i}: {op.describe()}"
                     for i, op in enumerate(self.ops))
        return "\n".join(lines)


def traffic_mismatches(plan: CommPlan, geometry: DimmGeometry
                       ) -> list[tuple[str, float, int]]:
    """``(step, priced, moved)`` for each step of ``plan`` whose bus plus
    PE-stream bytes (a pass reads and writes each byte) differ from its
    lowered ops' region bytes; per step, as fusion drops regions."""
    mismatches = []
    for step in plan.steps:
        priced = sum(t.amount if t.rate == "bus" else 2 * t.amount * t.pes
                     for t in step.traffic(geometry)
                     if t.rate in ("bus", "pe_stream"))
        moved = sum(region.total_bytes for op in step.lower()
                    for region in op.reads + op.writes)
        if priced != moved:
            mismatches.append((step.describe(), priced, moved))
    return mismatches


def compile_plan(plan: CommPlan) -> CommProgram:
    """Lower a plan's steps into a :class:`CommProgram` and fuse them.

    Each step's ``lower()`` hook yields its program ops, or raises
    :class:`~repro.errors.CollectiveError` for a step with no compiled
    form; a greedy pass then composes adjacent index-map ops wherever
    dropping the intermediate write is invisible (:func:`_chainable`).
    A fan-out that fusion did not make a fill has no compiled form
    either.  Pricing stays with
    the plan (:meth:`CommProgram.priced` reads
    :meth:`CommPlan.estimate`'s memo), and a call's payloads reach the
    ops through the replay context, so the program depends on the plan
    alone: every machine, payload, tile budget and elision setting
    replays the same program.
    """
    ops = [op for step in plan.steps for op in step.lower()]
    fused = _fuse(ops)
    for op in fused:
        if isinstance(op, FanoutScratchOp) and not op._fills:
            raise CollectiveError(
                f"{op.describe()} has no compiled form: only a fan-out "
                "whose every lane receives the whole reduced vector "
                "replays")
    return CommProgram(
        primitive=plan.primitive, plan=plan, ops=fused,
        total_steps=len(plan.steps), fused_away=len(ops) - len(fused))
