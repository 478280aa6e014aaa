"""Streamed tiled replay: parity, scratch pool, pipeline pricing.

Streaming (``Communicator(stream_tile_bytes=...)``) replays compiled
programs band-by-band through one session-owned
:class:`~repro.hw.arena.ScratchPool` instead of materializing whole
payloads.  The acceptance bar mirrors compiled replay's: bit-identical
memory bytes, host outputs, SIMD counts and WRAM tiles against the
interpreter on either store (streamed replay itself runs on the
vectorized arena), for every primitive, including
tile budgets that divide nothing evenly -- plus the properties that
make streaming worth having: zero steady-state heap allocations, peak
scratch bounded by the tile budget, stream-table caches that survive
(and notice) arena reallocation, and ledgers priced under the
two-stage tile pipeline.
"""

import tracemalloc

import numpy as np
import pytest

from .helpers import fill_group_inputs, groups_of, make_manager

from repro import (
    Communicator,
    DimmGeometry,
    DimmSystem,
    FULL,
    HypercubeManager,
    SessionConfig,
)
from repro.core.collectives.plan import ExecContext
from repro.core.collectives.program import (
    GatherMoveOp,
    band_ranges,
    compile_plan,
)
from repro.core.groups import slice_groups
from repro.core.reference import alltoall as ref_alltoall
from repro.dtypes import FLOAT32, INT32, INT64, SUM
from repro.errors import CollectiveError
from repro.hw.arena import ScratchPool
from repro.hw.timing import (
    STREAM_HOST_STAGE,
    STREAM_PE_STAGE,
    CostLedger,
)

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPE = (4, 8)
BITMAP = "11"
CHUNK = 3


def _run(primitive, dtype, backend, execution, tile=None, seed=0, calls=2,
         workers=1):
    """Run ``calls`` identical collectives; returns (outputs, last result).

    The second call is the steady state under test (plan, program,
    stream tables and pool buffers all warm).  In-place primitives
    consume their source, so inputs are refilled per call from a
    per-call seed -- identical across execution modes.
    """
    manager = make_manager(SHAPE)
    system = manager.system
    comm = Communicator(manager, SessionConfig(config=FULL, backend=backend,
                        execution=execution, stream_tile_bytes=tile,
                        parallel_workers=workers))
    groups = groups_of(manager, BITMAP)
    n = groups[0].size
    item = dtype.itemsize

    if primitive in ("scatter", "broadcast"):
        rng = np.random.default_rng(seed)
        root_elems = n * CHUNK if primitive == "scatter" else CHUNK
        payloads = {g.instance: rng.integers(-99, 100, root_elems)
                    .astype(dtype.np_dtype) for g in groups}
        total = CHUNK * item
        dst = system.alloc(total)
        for _ in range(calls):
            result = getattr(comm, primitive)(
                BITMAP, total, dst_offset=dst, data_type=dtype,
                payloads=payloads)
        outputs = {g.instance: [system.read_elements(pe, dst, CHUNK, dtype)
                                for pe in g.pe_ids] for g in groups}
        return outputs, result

    elems = CHUNK if primitive == "allgather" else n * CHUNK
    total = elems * item
    src = system.alloc(total)
    out_elems = {"alltoall": elems, "reduce_scatter": CHUNK,
                 "allgather": n * CHUNK, "allreduce": elems,
                 "gather": None, "reduce": None}[primitive]
    kwargs = ({"reduction_type": SUM}
              if primitive in ("reduce_scatter", "allreduce", "reduce")
              else {})
    if out_elems is None:
        for call in range(calls):
            fill_group_inputs(system, groups, src, elems, dtype,
                              np.random.default_rng(seed + call))
            result = getattr(comm, primitive)(
                BITMAP, total, src_offset=src, data_type=dtype, **kwargs)
        outputs = {inst: [np.asarray(out).view(dtype.np_dtype).reshape(-1)]
                   for inst, out in result.host_outputs.items()}
        return outputs, result
    dst = system.alloc(out_elems * item)
    for call in range(calls):
        fill_group_inputs(system, groups, src, elems, dtype,
                          np.random.default_rng(seed + call))
        result = getattr(comm, primitive)(
            BITMAP, total, src_offset=src, dst_offset=dst, data_type=dtype,
            **kwargs)
    outputs = {g.instance: [system.read_elements(pe, dst, out_elems, dtype)
                            for pe in g.pe_ids] for g in groups}
    return outputs, result


def _assert_streamed_parity(primitive, dtype, reference, tile, seed=0,
                            workers=1):
    """Vectorized streamed replay against the interpreter on the
    ``reference`` store."""
    i_out, i_res = _run(primitive, dtype, reference, "interpreted",
                        seed=seed)
    s_out, s_res = _run(primitive, dtype, "vectorized", "compiled",
                        tile=tile, seed=seed, workers=workers)
    assert i_out.keys() == s_out.keys()
    for inst in i_out:
        for a, b in zip(i_out[inst], s_out[inst]):
            np.testing.assert_array_equal(a, b)
    assert i_res.simd == s_res.simd
    assert i_res.wram_tiles == s_res.wram_tiles
    assert s_res.execution == "streamed"
    assert s_res.tiles >= 1
    # Pipelining can only discount the shorter stage, never add cost.
    assert s_res.ledger.total <= i_res.ledger.total
    return s_res


class TestStreamedParity:
    @pytest.mark.parametrize("reference", ["scalar", "vectorized"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_every_primitive_matches_oracle(self, primitive, reference):
        _assert_streamed_parity(primitive, INT32, reference, tile=64)

    @pytest.mark.parametrize("tile", [17, 1000], ids=lambda t: f"tile{t}")
    @pytest.mark.parametrize("reference", ["scalar", "vectorized"])
    def test_uneven_tiles_match(self, reference, tile):
        # 17 bytes divides neither a chunk nor a row; 1000 leaves a
        # short last band.  Both must stay bit-exact.
        _assert_streamed_parity("alltoall", INT64, reference, tile=tile)
        _assert_streamed_parity("allreduce", INT32, reference, tile=tile)

    def test_float_fold_order_preserved(self):
        # The streamed reduce accumulator must fold slots in the same
        # left-to-right order as the interpreted oracle.
        _assert_streamed_parity("allreduce", FLOAT32, "vectorized",
                                tile=40, seed=7)
        _assert_streamed_parity("reduce", FLOAT32, "scalar", tile=40,
                                seed=7)

    def test_small_tile_streams_many_bands(self):
        _, result = _run("alltoall", INT32, "vectorized", "compiled",
                         tile=CHUNK * 4)
        assert result.tiles > 1
        assert result.peak_scratch_bytes > 0

    @staticmethod
    def _rebinding_alltoall(manager, tile, relayout):
        """Two bound AlltoAll replays with ``relayout(system)`` between;
        the second must match the reference on its fresh inputs."""
        system = manager.system
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            execution="compiled", stream_tile_bytes=tile))
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = system.alloc(total)
        dst = system.alloc(total)

        def call(seed):
            inputs = fill_group_inputs(system, groups, src, n * CHUNK,
                                       INT32, np.random.default_rng(seed))
            comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                          data_type=INT32)
            return inputs

        call(0)
        relayout(system)
        inputs = call(1)
        for group in groups:
            want = ref_alltoall(inputs[group.instance])
            for pe, expect in zip(group.pe_ids, want):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, n * CHUNK, INT32),
                    expect)

    @pytest.mark.parametrize("tile", [None, 64],
                             ids=["untiled", "tile64"])
    def test_stream_cache_survives_arena_swap(self, tile):
        # set_backend rebuilds the arena (fresh object, fresh rows); a
        # stale binding would move garbage, so the op's windows and
        # stream table must be rebound and the replay stay bit-exact.
        def swap(system):
            system.set_backend("scalar")
            system.set_backend("vectorized")   # fresh arena object

        self._rebinding_alltoall(make_manager(SHAPE), tile, swap)

    @pytest.mark.parametrize("tile", [None, 64],
                             ids=["untiled", "tile64"])
    def test_binding_survives_arena_growth(self, tile):
        # Same arena object, new backing array: touching a PE above the
        # cube's rows makes _ensure reallocate between two replays.
        system = DimmSystem(DimmGeometry(2, 2, 4, 4), mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=SHAPE)

        def grow(system):
            arena = system.arena
            data, top = arena._data, arena._base + arena._data.shape[0]
            assert top < system.num_pes
            system.materialize([top])
            assert arena._data is not data

        self._rebinding_alltoall(manager, tile, grow)


class TestEnginePolicy:
    def test_non_positive_tile_rejected(self):
        manager = make_manager(SHAPE)
        with pytest.raises(CollectiveError):
            Communicator(manager, SessionConfig(stream_tile_bytes=0))
        with pytest.raises(CollectiveError):
            Communicator(manager, SessionConfig(stream_tile_bytes=-4))

    def test_interpreted_mode_rejects_streaming(self):
        manager = make_manager(SHAPE)
        with pytest.raises(CollectiveError):
            Communicator(manager, SessionConfig(execution="interpreted",
                         stream_tile_bytes=64))

    def test_analytic_streamed_pricing_touches_nothing(self):
        # functional=False still prices the tile pipeline: the tile
        # plan is a pure function of the program's shapes.
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(functional=False,
                            backend="vectorized", execution="compiled",
                            stream_tile_bytes=64))
        result = comm.alltoall(BITMAP, 32 * CHUNK * 4, src_offset=0,
                               dst_offset=4096, data_type=INT32)
        plain = Communicator(make_manager(SHAPE), SessionConfig(functional=False,
                             backend="vectorized", execution="compiled"))
        untiled = plain.alltoall(BITMAP, 32 * CHUNK * 4, src_offset=0,
                                 dst_offset=4096, data_type=INT32)
        assert result.execution == "streamed"
        assert result.tiles >= 1
        assert result.ledger.total <= untiled.ledger.total
        assert manager.system.touched_pes == 0

    def test_stats_accumulate_tiles_and_peak(self):
        _, result = _run("alltoall", INT32, "vectorized", "compiled",
                         tile=32, calls=3)
        # calls landed on one Communicator inside _run, so rebuild the
        # same steady state here to inspect its stats object.
        manager = make_manager(SHAPE)
        system = manager.system
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            execution="compiled", stream_tile_bytes=32))
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = system.alloc(total)
        dst = system.alloc(total)
        for call in range(3):
            fill_group_inputs(system, groups, src, n * CHUNK, INT32,
                              np.random.default_rng(call))
            comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                          data_type=INT32)
        assert comm.stats.tiles_replayed == 3 * result.tiles
        assert comm.stats.peak_scratch_bytes == result.peak_scratch_bytes
        assert comm.stats.snapshot()["tiles_replayed"] == 3 * result.tiles
        report = comm.stats.report()
        assert f"tiles replayed  {3 * result.tiles}" in report
        assert f"peak scratch    {result.peak_scratch_bytes} B" in report


class TestZeroAllocationSteadyState:
    @staticmethod
    def _steady_alltoall(tile):
        """A warmed streamed AlltoAll of a 512 KiB payload at ``tile``;
        returns the largest block and the heap peak of one more call."""
        manager = make_manager(SHAPE)
        system = manager.system
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            execution="compiled", stream_tile_bytes=tile))
        n = 32
        per_pe = n * 64 * 8            # 16 KiB per PE, 512 KiB total
        src = system.alloc(per_pe)
        dst = system.alloc(per_pe)
        rng = np.random.default_rng(0)
        values = rng.integers(-99, 100, (n, per_pe // 8), dtype=np.int64)
        pe_ids = slice_groups(manager, BITMAP)[0].pe_ids
        system.scatter_elements(pe_ids, src, list(values), INT64)

        def call():
            return comm.alltoall(BITMAP, per_pe, src_offset=src,
                                 dst_offset=dst, data_type=INT64)

        call()
        warm = call()                   # steady state reached
        assert warm.execution == "streamed" and warm.tiles > 1
        tracemalloc.start()
        call()
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        largest = max((stat.size / stat.count
                       for stat in snapshot.statistics("lineno")),
                      default=0)
        return largest, peak

    def test_streamed_replay_allocates_no_buffers(self):
        # A 2 KiB tile budget.  In steady state every band reuses the
        # scratch pool, so tracemalloc must see no tile- or
        # payload-sized blocks -- only transient Python object headers.
        tile = 2048
        largest, peak = self._steady_alltoall(tile)
        assert largest < 1024, \
            f"steady-state replay allocated a {largest:.0f}B block"
        assert peak < tile * 16, \
            f"steady-state replay peaked at {peak}B of heap traffic"

    def test_large_tile_bands_are_unbuffered(self):
        # Every band is one 64 KiB tile.  A buffered take (numpy's
        # default mode="raise" gathers into a hidden temporary, then
        # copies it into ``out``) peaks at a whole tile, which the
        # 2 KiB case cannot see: its hidden buffer is one 16 KiB row.
        tile = 64 << 10
        largest, peak = self._steady_alltoall(tile)
        assert largest < 1024, \
            f"steady-state replay allocated a {largest:.0f}B block"
        assert peak < tile // 4, \
            f"steady-state replay peaked at {peak}B of heap traffic"

    #: The in-place op's output rows: one per PE, each the PE's whole
    #: ``n * CHUNK`` INT64 source block.
    ROWS, ROW_BYTES = 32, 32 * CHUNK * INT64.itemsize
    BUDGETS = {"one_row": ROW_BYTES, "odd": 3 * ROW_BYTES + 1,
               "whole": ROWS * ROW_BYTES}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("primitive", ["reduce_scatter", "allreduce"])
    def test_in_place_op_bands_through_pong(self, primitive, budget,
                                            workers, monkeypatch):
        # Both primitives open with an in-place PeReorder whose output
        # row r reads only source row r, so it bands like any other op:
        # every band through pong, at any budget and worker count, and
        # the result matches the oracle.
        tile = self.BUDGETS[budget]
        ran = []
        take_band_flat = DimmSystem.take_band_flat

        def spy(system, table, width, r0, r1, out):
            ran.append((id(table), r0, r1))
            return take_band_flat(system, table, width, r0, r1, out)

        monkeypatch.setattr(DimmSystem, "take_band_flat", spy)
        result = _assert_streamed_parity(primitive, INT64, "scalar", tile,
                                         workers=workers)
        first = compile_plan(result.plan).ops[0]
        assert first._band_shape() == (self.ROWS, self.ROW_BYTES)
        bands = band_ranges(self.ROWS, self.ROW_BYTES, tile)
        assert first.tile_count(tile) == len(bands)
        # _run makes two calls; each moves every band of the first op
        # (the first stream table gathered) once.
        table = ran[0][0]
        assert sorted((r0, r1) for t, r0, r1 in ran
                      if t == table) == sorted(bands * 2)
        # Pong plus a fold sliver, per scratch pool.
        assert 0 < result.peak_scratch_bytes <= 2 * tile * workers

    @pytest.mark.parametrize("lanes,one_band", [
        (np.arange(8), False),              # row r reads row r
        (np.arange(8)[::-1], True),         # row r reads row 7 - r
    ], ids=["row_local", "cross_row"])
    def test_only_cross_row_in_place_ops_stay_one_band(self, lanes,
                                                       one_band):
        # An in-place op whose rows read other rows cannot band: a band
        # would overwrite rows a later band still reads.  It replays as
        # one band, gathered into a transient array, so pong stays
        # untouched; a row-local one bands through pong.
        system = DimmSystem.small(backend="vectorized")
        ids = np.arange(8)
        lane = np.tile(lanes[:, None], (1, 2))
        slot = np.tile([1, 0], (8, 1))
        op = GatherMoveOp(ids=ids, ngroups=1, src_offset=0, dst_offset=0,
                          nslots_in=2, nslots_out=2, chunk_bytes=8,
                          lane=lane, slot=slot)
        data = np.random.default_rng(0).integers(0, 256, (8, 16), np.uint8)
        system.poke_rows(ids, 0, data)
        pool = ScratchPool()
        op.execute(ExecContext(system=system, tile_bytes=16, pool=pool))
        want = data.reshape(8, 2, 8)[lane, slot].reshape(8, 16)
        np.testing.assert_array_equal(system.peek_rows(ids, 0, 16), want)
        assert op.tile_count(16) == (1 if one_band else 8)
        assert pool.peak_bytes == (0 if one_band else 16)

    def test_streamed_reduce_scatter_peaks_near_two_tiles(self):
        # An 8 MiB ReduceScatter opens with an in-place op.  Banded
        # through pong, a warm call allocates no tile- or payload-sized
        # block; a whole-op band would allocate the payload every call.
        manager = make_manager(SHAPE, mram_bytes=1 << 20)
        system = manager.system
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            stream_tile_bytes=64 << 10))
        per_pe = 256 << 10
        n = 32
        src, dst = system.alloc(per_pe), system.alloc(per_pe // n)
        fill_group_inputs(system, groups_of(manager, BITMAP), src,
                          per_pe // 8, INT64, np.random.default_rng(0))

        def call():
            return comm.reduce_scatter(BITMAP, per_pe, src_offset=src,
                                       dst_offset=dst, data_type=INT64,
                                       reduction_type=SUM)

        call()
        warm = call()
        assert warm.execution == "streamed"
        assert n * per_pe >= 8 << 20
        tracemalloc.start()
        call()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 2 * (64 << 10), \
            f"a warm call peaked at {peak}B of heap traffic"


class TestSinglePassUntiledReplay:
    """Untiled replay is the one-band case down to the kernel: a whole
    op gathers through its stream table into one output array, with
    no payload-sized staging copy of the source block beside it.

    The price is the table itself, kept with the op's cached plan:
    ``8 / width`` bytes per gathered byte, where ``width`` is the
    element the arena is viewed in (the whole chunk when ``mram_bytes``
    and the offset are chunk multiples, else 8 bytes or fewer).  A
    512-byte chunk keeps a table of 1/64 the payload; a 384-byte one,
    viewed in 8-byte elements, keeps one the payload's size per gather
    op.  The heap peaks of both layouts, cold and warm, are compared
    with the former staging gather in EXPERIMENTS.md ("One gather
    kernel for every replay")."""

    # per-PE bytes -> (cold peak, warm peak) bounds, in payloads.
    # Aligned: the staging gather read 2.17/2.14 cold, 2.02/2.05 warm.
    # Unaligned: it read 2.23/2.17 cold and 2.03/2.06 warm; here the
    # cold call also builds the payload-sized tables.  A warm take
    # indexes with the binding's writeable table, so it copies no
    # table (np.take copies an index array that is not writeable,
    # which put the warm unaligned peak at 2.01/2.04 while the
    # binding kept its tables read-only); it reads 1.01/1.04.
    LAYOUTS = {"aligned": (32 * 512, 1.5, 1.25),
               "unaligned": (32 * 384, 4.5, 1.25)}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("primitive", ["alltoall", "allreduce"])
    def test_heap_peak_and_retained_tables(self, primitive, layout):
        per_pe, cold_bound, warm_bound = self.LAYOUTS[layout]
        manager = make_manager(SHAPE)
        system = manager.system
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            execution="compiled"))
        n = 32
        payload = n * per_pe
        src = system.alloc(per_pe)
        dst = system.alloc(per_pe)
        rng = np.random.default_rng(0)
        values = rng.integers(-99, 100, (n, per_pe // 8), dtype=np.int64)
        pe_ids = slice_groups(manager, BITMAP)[0].pe_ids
        system.scatter_elements(pe_ids, src, list(values), INT64)
        kwargs = {"reduction_type": SUM} if primitive == "allreduce" else {}

        def peak_of_one_call():
            tracemalloc.start()
            result = getattr(comm, primitive)(
                BITMAP, per_pe, src_offset=src, dst_offset=dst,
                data_type=INT64, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.execution == "compiled"
            return peak / payload

        cold = peak_of_one_call()
        peak_of_one_call()
        warm = peak_of_one_call()    # steady state: plan and tables warm
        assert cold <= cold_bound, f"cold call peaked at {cold:.2f}x"
        assert warm <= warm_bound, f"warm call peaked at {warm:.2f}x"

        program = next(iter(comm.cache._plans.values())).program
        streams = [op._binding.bound.stream for op in program.ops
                   if getattr(op, "_binding", None) is not None
                   and op._binding.gather is not None]
        assert streams
        for table, width in streams:
            # 8 / width table bytes per gathered byte, one gathered
            # byte per payload byte.
            assert table.nbytes * width == 8 * payload
        expected_width = 512 if layout == "aligned" else 8
        assert {width for _, width in streams} == {expected_width}


class TestScratchPool:
    def test_views_reuse_backing(self):
        pool = ScratchPool()
        a = pool.pong((100,))
        cap = pool.capacity_bytes
        b = pool.pong((50,))
        assert np.shares_memory(a, b)
        assert pool.capacity_bytes == cap

    def test_geometric_growth(self):
        pool = ScratchPool()
        pool.pong((100,))
        assert pool.capacity_bytes == 100
        pool.pong((101,))               # grows to max(101, 200)
        assert pool.capacity_bytes == 200

    def test_peak_counts_simultaneous_views(self):
        pool = ScratchPool()
        pool.pong((64,))
        pool.fold((32,))
        assert pool.peak_bytes == 96
        pool.release()
        pool.fold((8,))                 # lower water: peak unchanged
        assert pool.peak_bytes == 96
        pool.reset_peak()
        assert pool.peak_bytes == 0

    def test_views_carry_shape_and_dtype(self):
        pool = ScratchPool()
        view = pool.fold((2, 3), np.int32)
        assert view.shape == (2, 3) and view.dtype == np.int32
        view[:] = 7                     # writable without error
        assert pool.peak_bytes == 24


class TestBandRanges:
    def test_covers_rows_exactly(self):
        bands = band_ranges(rows=10, row_bytes=3, tile_bytes=7)
        assert bands == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]

    def test_uneven_last_band_is_short(self):
        bands = band_ranges(rows=5, row_bytes=4, tile_bytes=8)
        assert bands == [(0, 2), (2, 4), (4, 5)]

    def test_tile_smaller_than_row_clamps_to_one(self):
        assert band_ranges(rows=3, row_bytes=100, tile_bytes=10) == \
            [(0, 1), (1, 2), (2, 3)]

    def test_large_tile_is_one_band(self):
        assert band_ranges(rows=8, row_bytes=16, tile_bytes=1 << 20) == \
            [(0, 8)]

    def test_zero_rows_is_empty(self):
        assert band_ranges(rows=0, row_bytes=8, tile_bytes=64) == []


class TestPipelinedLedger:
    def _ledger(self, **seconds):
        ledger = CostLedger()
        for category, value in seconds.items():
            ledger.add(category, value)
        return ledger

    def test_depth_one_is_an_unchanged_copy(self):
        ledger = self._ledger(pe=2.0, bus=1.0)
        out = ledger.pipelined(1)
        assert out.breakdown() == ledger.breakdown()
        out.add("bus", 5.0)
        assert ledger.get("bus") == 1.0

    def test_shorter_host_stage_is_hidden(self):
        ledger = self._ledger(pe=4.0, bus=1.0, dt=1.0, launch=0.5)
        out = ledger.pipelined(4)
        assert out.get("pe") == 4.0          # longer stage in full
        assert out.get("bus") == 0.25        # shorter stage / depth
        assert out.get("dt") == 0.25
        assert out.get("launch") == 0.5      # fixed cost untouched

    def test_shorter_pe_stage_is_hidden(self):
        ledger = self._ledger(pe=1.0, bus=4.0)
        out = ledger.pipelined(2)
        assert out.get("pe") == 0.5
        assert out.get("bus") == 4.0

    def test_makespan_formula(self):
        # max(P, H) + min(P, H) / depth, plus fixed categories in full.
        ledger = self._ledger(pe=3.0, bus=2.0, host_mem=4.0, kernel=1.0)
        depth = 3
        out = ledger.pipelined(depth)
        pe = sum(ledger.get(c) for c in STREAM_PE_STAGE)
        host = sum(ledger.get(c) for c in STREAM_HOST_STAGE)
        want = max(pe, host) + min(pe, host) / depth + 1.0
        assert out.total == pytest.approx(want)
