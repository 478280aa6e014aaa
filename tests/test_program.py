"""Compiled program replay: bit-exact parity with the interpreted oracle.

The compile stage (``core/collectives/program.py``) lowers plan steps
into fused index-table ops; the acceptance bar is that steady-state
replay is indistinguishable from step-by-step interpretation -- same
memory bytes, host outputs, :class:`CostLedger` breakdown,
:class:`SimdCounter` register ops, and WRAM tile counts -- across every
primitive and optimization rung.  Compiled replay runs on the
vectorized arena only; this module asserts it pairwise against the
interpreter on either store (the scalar one is the oracle), checks
the fusion structure the lowering is expected to produce, and covers
the engine policy around execution modes, the bounded LRU plan cache,
and the compile/replay stats.
"""

import numpy as np
import pytest

from .helpers import fill_group_inputs, groups_of, make_manager

from repro import (ABLATION_LADDER, BASELINE, Communicator, DimmSystem,
                   FULL, FaultInjector, SessionConfig)
from repro.core.collectives.plan import ExecContext
from repro.core.collectives.program import (
    CommProgram,
    FanoutScratchOp,
    GatherMoveOp,
    HostPullOp,
    ReduceFoldOp,
    StepOp,
    compile_plan,
)
from repro.dtypes import FLOAT32, INT8, INT32, SUM
from repro.engine.cache import DEFAULT_MAXSIZE, PlanCache
from repro.errors import (CollectiveError, FaultBudgetExceeded,
                          TransferDropped, TransferError)
from repro.hw.arena import ScratchPool

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPE = (4, 8)
BITMAP = "11"
CHUNK = 3


def _run(primitive, config, dtype, backend, execution, seed=0, calls=2):
    """Run ``calls`` identical collectives; returns (outputs, last result).

    The first call compiles (plan and, for compiled sessions, program);
    later calls are the steady state under test.  In-place primitives
    consume their source, so inputs are refilled per call from a
    per-call seed -- identical across execution modes.
    """
    manager = make_manager(SHAPE)
    system = manager.system
    comm = Communicator(manager, SessionConfig(config=config, backend=backend,
                        execution=execution))
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


def _assert_parity(primitive, config, dtype, reference, seed=0):
    """Vectorized compiled replay against the interpreter on the
    ``reference`` store."""
    i_out, i_res = _run(primitive, config, dtype, reference, "interpreted",
                        seed)
    c_out, c_res = _run(primitive, config, dtype, "vectorized", "compiled",
                        seed)
    assert i_out.keys() == c_out.keys()
    for inst in i_out:
        for a, b in zip(i_out[inst], c_out[inst]):
            np.testing.assert_array_equal(a, b)
    assert i_res.ledger.breakdown() == c_res.ledger.breakdown()
    assert i_res.simd == c_res.simd
    assert i_res.wram_tiles == c_res.wram_tiles
    assert i_res.execution == "interpreted"
    assert c_res.execution == "compiled"
    assert c_res.cached  # the steady-state call hit the plan cache


class TestReplayParity:
    @pytest.mark.parametrize("reference", ["scalar", "vectorized"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("config", ABLATION_LADDER,
                             ids=lambda c: c.label)
    def test_every_rung_matches(self, primitive, config, reference):
        _assert_parity(primitive, config, INT32, reference)

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("dtype", [INT8, FLOAT32],
                             ids=lambda d: d.name)
    def test_other_dtypes_match(self, primitive, dtype):
        # FLOAT32 is the fold-order canary: ReduceFoldOp must fold
        # slots left-to-right exactly like the interpreted backends.
        _assert_parity(primitive, FULL, dtype, "scalar", seed=7)


def _program_of(comm) -> CommProgram:
    entry = list(comm.cache._plans.values())[-1]
    assert entry.program is not None
    return entry.program


class TestFusionStructure:
    def _comm(self, execution="compiled"):
        manager = make_manager(SHAPE)
        return manager, Communicator(manager, SessionConfig(backend="vectorized",
                                     execution=execution))

    def test_alltoall_fuses_to_one_gather_move(self):
        manager, comm = self._comm()
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                      data_type=INT32)
        program = _program_of(comm)
        # Launch lowers to nothing; PeReorder + RotateExchange +
        # PeReorder compose into a single fancy-index dispatch.
        assert program.fully_lowered
        assert len(program.ops) == 1
        assert isinstance(program.ops[0], GatherMoveOp)
        assert program.total_steps == 4
        assert program.fused_away == 2

    def test_allreduce_fuses_fanout_with_reflect(self):
        manager, comm = self._comm()
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.allreduce(BITMAP, total, src_offset=src, dst_offset=dst,
                       data_type=INT32, reduction_type=SUM)
        program = _program_of(comm)
        assert program.fully_lowered
        assert [type(op) for op in program.ops] == [
            GatherMoveOp, ReduceFoldOp, FanoutScratchOp]
        assert program.fused_away == 1

    def test_conventional_reduce_mixes_pull_and_fallback(self):
        manager, comm = self._comm()
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.reduce(BITMAP, total, src_offset=src, data_type=INT32,
                    reduction_type=SUM, config=BASELINE)
        program = _program_of(comm)
        # The host-side reduce has no lowering: it rides along as a
        # StepOp after the lowered gather.
        assert not program.fully_lowered
        kinds = [type(op) for op in program.ops]
        assert HostPullOp in kinds and StepOp in kinds

    def test_baseline_plans_keep_global_exchange_interpreted(self):
        manager, comm = self._comm()
        manager2 = manager  # same session
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                      data_type=INT32, config=BASELINE)
        program = _program_of(comm)
        assert not program.fully_lowered
        assert any(isinstance(op, StepOp) for op in program.ops)

    def test_priced_ledger_matches_estimate_and_is_a_copy(self):
        manager, comm = self._comm()
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                      data_type=INT32)
        program = _program_of(comm)
        want = program.plan.estimate(manager.system).breakdown()
        first = program.priced(manager.system)
        assert first.breakdown() == want
        first.add("bus", 1.0)  # mutate the returned copy...
        assert program.priced(manager.system).breakdown() == want

    def test_compile_plan_direct_roundtrip(self):
        # compile_plan is public API: plan.compile(system) sugar.
        manager, comm = self._comm(execution="interpreted")
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(3))
        result = comm.alltoall(BITMAP, total, src_offset=src,
                               dst_offset=dst, data_type=INT32)
        program = compile_plan(result.plan, manager.system)
        assert isinstance(program, CommProgram)
        assert "GatherMoveOp" in program.describe()


class TestExecutionPolicy:
    def test_unknown_mode_rejected(self):
        manager = make_manager(SHAPE)
        with pytest.raises(CollectiveError):
            Communicator(manager, SessionConfig(execution="jit"))

    def test_compiled_with_injector_raises(self):
        # Fault sites live inside the compiled transfer kernels: with
        # no reliability policy to retry, an always-dropping injector
        # surfaces straight out of a compiled replay.
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(
            execution="compiled", reliability=None,
            fault_injector=FaultInjector(seed=1, drop_rate=1.0)))
        comm.reliability = None  # isolate the injector from the retry loop
        with pytest.raises(TransferDropped, match="take_by_table"):
            comm.alltoall(BITMAP, 128, src_offset=0, dst_offset=4096,
                          data_type=INT32)
        assert comm.stats.programs_compiled == 1
        assert comm.stats.retries == 0

    def test_compiled_with_reliability_raises(self):
        # ... and under the default policy the same session retries the
        # compiled replay until the budget is spent, then raises with
        # MRAM rewound to what the call found.
        manager = make_manager(SHAPE)
        system = manager.system
        comm = Communicator(manager, SessionConfig(
            execution="compiled", backend="vectorized",
            fault_injector=FaultInjector(seed=1, drop_rate=1.0)))
        fill_group_inputs(system, groups_of(manager, BITMAP), 0, 32, INT32,
                          np.random.default_rng(0))
        before = system.peek_rows(manager.all_pes, 0, 8192)
        with pytest.raises(FaultBudgetExceeded):
            comm.alltoall(BITMAP, 128, src_offset=0, dst_offset=4096,
                          data_type=INT32)
        assert comm.stats.programs_compiled == 1
        assert comm.stats.faults_seen["drop"] \
            == comm.reliability.retry.max_attempts
        np.testing.assert_array_equal(
            system.peek_rows(manager.all_pes, 0, 8192), before)

    def test_auto_with_injector_replays_compiled(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(execution="auto",
                            fault_injector=FaultInjector(seed=1)))
        analytic = comm.alltoall(BITMAP, 128, src_offset=0, dst_offset=4096,
                                 data_type=INT32, functional=False)
        functional = comm.alltoall(BITMAP, 128, src_offset=0,
                                   dst_offset=4096, data_type=INT32)
        assert analytic.execution == functional.execution == "compiled"
        assert comm.stats.programs_compiled == 1
        assert comm.stats.program_replays == 1

    def test_auto_without_injector_compiles(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager)  # execution defaults to auto
        result = comm.alltoall(BITMAP, 128, src_offset=0, dst_offset=4096,
                               data_type=INT32, functional=False)
        assert result.execution == "compiled"

    def test_analytic_compiled_prices_without_touching_memory(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(functional=False,
                            backend="vectorized", execution="compiled"))
        a = comm.alltoall(BITMAP, 256, src_offset=0, dst_offset=4096,
                          data_type=INT32)
        b = comm.alltoall(BITMAP, 256, src_offset=0, dst_offset=4096,
                          data_type=INT32)
        assert a.ledger.breakdown() == b.ledger.breakdown()
        assert b.cached
        assert manager.system.touched_pes == 0

    def test_stats_count_compiles_and_replays(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(backend="vectorized",
                            execution="compiled"))
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        for call in range(3):
            fill_group_inputs(manager.system, groups, src, n * CHUNK,
                              INT32, np.random.default_rng(call))
            comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                          data_type=INT32)
        stats = comm.stats
        assert stats.programs_compiled == 1  # one shape, compiled once
        assert stats.program_replays == 3
        assert stats.plans_compiled == 1 and stats.cache_hits == 2
        snap = stats.snapshot()
        assert snap["programs_compiled"] == 1
        assert snap["program_replays"] == 3
        assert "replay_seconds" in snap and "compile_seconds" in snap
        assert "compiled programs:" in stats.report()


class TestTableRangeChecks:
    """Pooled takes run unbuffered (``mode="wrap"``), so an index out of
    range is refused where its table is built or bound: a take must
    never wrap it silently."""

    @pytest.mark.parametrize("bad_slot", [1 << 40, -(1 << 40)],
                             ids=["past_arena", "before_arena"])
    def test_streamed_move_refuses_a_table_outside_the_arena(self,
                                                             bad_slot):
        system = DimmSystem.small(backend="vectorized")
        ids = np.arange(8)
        slot = np.tile(np.arange(2), (8, 1))
        slot[3, 1] = bad_slot
        op = GatherMoveOp(ids=ids, ngroups=1, src_offset=0, dst_offset=64,
                          nslots_in=2, nslots_out=2, chunk_bytes=8,
                          lane=np.tile(np.arange(8)[:, None], (1, 2)),
                          slot=slot)
        system.poke_rows(ids, 0, np.full((8, 16), 7, np.uint8))
        ctx = ExecContext(system=system, tile_bytes=32, pool=ScratchPool())
        with pytest.raises(TransferError, match="stream table"):
            op.execute(ctx, None)
        assert not system.peek_rows(ids, 64, 16).any()

    @pytest.mark.parametrize("bad_lane", [4, -1])
    def test_fanout_refuses_a_lane_outside_its_scratch(self, bad_lane):
        lane = np.arange(4)[:, None].copy()
        lane[2, 0] = bad_lane
        with pytest.raises(TransferError, match="fanout lane"):
            FanoutScratchOp(group_ids=(np.arange(4),), ids=np.arange(4),
                            instances=(0,), scratch_key="acc", lane=lane,
                            dst_offset=0, chunk_bytes=8, nslots_out=1)


class TestPlanCacheEviction:
    def test_default_bound(self):
        assert PlanCache().maxsize == DEFAULT_MAXSIZE

    def test_lru_eviction_order_and_count(self):
        cache = PlanCache(maxsize=2)
        cache.fetch("a", lambda: "plan-a")
        cache.fetch("b", lambda: "plan-b")
        cache.fetch("a", lambda: "never")   # touch a: b becomes LRU
        cache.fetch("c", lambda: "plan-c")  # evicts b
        assert cache.evictions == 1
        assert "a" in cache and "c" in cache and "b" not in cache
        plan, hit = cache.fetch("b", lambda: "plan-b2")  # must rebuild
        assert not hit and plan == "plan-b2"
        assert cache.evictions == 2  # re-inserting b evicted a (LRU)
        assert "a" not in cache

    def test_eviction_drops_program_with_plan(self):
        cache = PlanCache(maxsize=1)
        cache.fetch("a", lambda: "plan-a")
        prog, hit = cache.fetch_program("a", lambda: "prog-a")
        assert (prog, hit) == ("prog-a", False)
        prog, hit = cache.fetch_program("a", lambda: "never")
        assert (prog, hit) == ("prog-a", True)
        cache.fetch("b", lambda: "plan-b")  # evicts a and its program
        prog, hit = cache.fetch_program("a", lambda: "prog-a2")
        assert (prog, hit) == ("prog-a2", False)  # built, not stored
        assert "a" not in cache

    def test_unbounded_never_evicts(self):
        cache = PlanCache(maxsize=None)
        for i in range(DEFAULT_MAXSIZE + 10):
            cache.fetch(i, lambda i=i: f"plan-{i}")
        assert len(cache) == DEFAULT_MAXSIZE + 10
        assert cache.evictions == 0

    def test_clear_resets_eviction_counter(self):
        cache = PlanCache(maxsize=1)
        cache.fetch("a", lambda: "plan-a")
        cache.fetch("b", lambda: "plan-b")
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0 and len(cache) == 0

    def test_session_surfaces_evictions_through_stats(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(functional=False, cache_size=1))
        comm.alltoall(BITMAP, 128, src_offset=0, dst_offset=4096,
                      data_type=INT32)
        comm.allgather(BITMAP, 128, src_offset=0, dst_offset=4096,
                       data_type=INT32)
        assert comm.cache.evictions == 1
        assert comm.stats.plan_evictions == 1
        assert comm.stats.snapshot()["plan_evictions"] == 1
