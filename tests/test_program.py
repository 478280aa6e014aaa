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

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro

from .helpers import fill_group_inputs, groups_of, make_manager
from .test_app_engine import _outcome, e2e_apps, run_app

from repro import (ABLATION_LADDER, BASELINE, Communicator, DimmGeometry,
                   DimmSystem, FULL, FaultInjector, HypercubeManager,
                   SessionConfig)
from repro.apps import PidCommBackend
from repro.baselines.topologies import ring_allreduce_plan, tree_allreduce_plan
from repro.core.collectives import build_plan
from repro.core.collectives import program as program_mod
from repro.core.collectives.plan import CommPlan, ExecContext, Step
from repro.core.collectives.steps import (BroadcastStep,
                                          HostGlobalExchangeStep,
                                          PeReorderStep, RotateExchangeStep,
                                          ScatterFromHostStep)
from repro.core.groups import CommGroup
from repro.core.collectives.program import (
    BroadcastFillOp,
    CommProgram,
    FanoutScratchOp,
    GatherMoveOp,
    HostFoldOp,
    HostPullOp,
    HostPushOp,
    ProgramOp,
    ReduceFoldOp,
    compile_plan,
)
from repro.dtypes import BOR, FLOAT32, INT8, INT32, INT64, MIN, SUM
from repro.engine.cache import DEFAULT_MAXSIZE, PlanCache
from repro.errors import (CollectiveError, FaultBudgetExceeded,
                          TransferDropped, TransferError)
from repro.engine.parallel import WorkerPool
from repro.hw.arena import Region, ScratchPool

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
        # The conventional flow pulls every vector to the host, then
        # folds them in host scratch.
        assert [type(op) for op in program.ops] == [HostPullOp, HostFoldOp]

    def test_baseline_plans_keep_global_exchange_interpreted(self):
        manager, comm = self._comm()
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        total = n * CHUNK * 4
        src = manager.system.alloc(total)
        dst = manager.system.alloc(total)
        fill_group_inputs(manager.system, groups, src, n * CHUNK, INT32,
                          np.random.default_rng(0))
        comm.alltoall(BITMAP, total, src_offset=src, dst_offset=dst,
                      data_type=INT32, config=BASELINE)
        # The host's global re-arrangement is one cross-lane gather,
        # out[l, s] = in[s, l]; the arithmetic flows fold instead.
        [move] = _program_of(comm).ops
        assert isinstance(move, GatherMoveOp)
        n = groups[0].size
        np.testing.assert_array_equal(move.lane, np.tile(np.arange(n), (n, 1)))
        np.testing.assert_array_equal(move.slot, move.lane.T)
        comm.reduce_scatter(BITMAP, total, src_offset=src, dst_offset=dst,
                            data_type=INT32, reduction_type=SUM,
                            config=BASELINE)
        assert [type(op) for op in _program_of(comm).ops] == [ReduceFoldOp]
        comm.allreduce(BITMAP, total, src_offset=src, dst_offset=dst,
                       data_type=INT32, reduction_type=SUM, config=BASELINE)
        assert [type(op) for op in _program_of(comm).ops] == [
            ReduceFoldOp, FanoutScratchOp]

    def test_plans_without_a_compiled_form_raise(self):
        """Compiling never falls back to interpreting a step: a plan
        that cannot lower raises, and ``CommPlan.run`` still runs it."""
        manager = make_manager(SHAPE)
        system = manager.system
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        for build in (ring_allreduce_plan, tree_allreduce_plan):
            plan = build(manager, BITMAP, n * 8, 0, 4096, INT64, SUM)
            with pytest.raises(CollectiveError, match="no compiled form"):
                plan.compile()
            plan.run(system)
        rows = groups_of(manager, "10")
        uneven = [rows[0], CommGroup(1, rows[1].pe_ids[:2])]
        for step in (PeReorderStep(uneven, "identity", 0, 4096, 8, 2),
                     RotateExchangeStep(uneven, 0, 8, 2, "staged"),
                     HostGlobalExchangeStep(uneven, "alltoall", 0, 4096, 8,
                                            2, 2, INT64)):
            with pytest.raises(CollectiveError, match="group sizes"):
                CommPlan("alltoall", [step]).compile()

    def test_partially_overlapping_reorder_raises_the_interpreters_error(self):
        manager = make_manager(SHAPE)
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        plan = CommPlan("alltoall", [PeReorderStep(
            groups, "rotate_left_rank", 0, 8, 8, n)])
        with pytest.raises(TransferError, match="partially overlapping"):
            plan.compile()
        with pytest.raises(TransferError, match="partially overlapping"):
            plan.run(manager.system)

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
        # compile_plan is public API: plan.compile() sugar.
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
        program = compile_plan(result.plan)
        assert isinstance(program, CommProgram)
        assert "GatherMoveOp" in program.describe()


class TestInPlaceAllReduce:
    """The in-place AllReduce (``dst == src``) that CC, BFS and GNN's
    ``ar_ag`` strategy call.  The rotate that opens it rewrites the
    source, and the fan-out then rewrites every byte of it, so fusion
    drops the rotate and the fold reads through its table: a column
    fold straight from MRAM, then a fill."""

    G64, G256 = DimmGeometry(1, 1, 8, 8), DimmGeometry(2, 2, 8, 8)
    #: cube -> (geometry, shape, bitmap): one group of 256 strided rows,
    #: eight groups of 8 strided rows, and four groups of 16 PEs whose
    #: windows are row-indexed.
    CUBES = {"256": (G256, (256,), "1"), "8x8": (G64, (8, 8), "10"),
             "4x4x4": (G64, (4, 4, 4), "101")}
    FOLDS = [(INT64, SUM), (INT64, MIN), (INT64, BOR), (FLOAT32, SUM)]
    CHUNK_ELEMS = 2

    def _setup(self, cube, dtype, op):
        geometry, shape, bitmap = self.CUBES[cube]
        system = DimmSystem(geometry, mram_bytes=1 << 14,
                            backend="vectorized")
        manager = HypercubeManager(system, shape=shape)
        n = groups_of(manager, bitmap)[0].size
        chunk = self.CHUNK_ELEMS * dtype.itemsize
        plan = build_plan("allreduce", manager, bitmap, n * chunk, 0, 0,
                          dtype, op, FULL)
        pes = list(manager.all_pes)
        values = np.random.default_rng(n).integers(
            -1 << 20, 1 << 20, (len(pes), n * self.CHUNK_ELEMS))
        start = np.ascontiguousarray(values.astype(dtype.np_dtype)).view(
            np.uint8)
        return system, plan, pes, start, n * chunk

    @pytest.mark.parametrize("dtype,op", FOLDS,
                             ids=lambda v: getattr(v, "name", str(v)))
    @pytest.mark.parametrize("cube", CUBES)
    def test_replay_matches_the_oracle(self, cube, dtype, op):
        """Untiled, and streamed through bands of three rows (each
        splits a group) at one and two workers: MRAM, host scratch,
        ledger, SIMD and WRAM tiles all equal the interpreter's."""
        system, plan, pes, start, span = self._setup(cube, dtype, op)
        system.poke_rows(pes, 0, start)
        oracle = _outcome(system, pes, span, *plan.run(system))
        program = compile_plan(plan)
        fold, fanout = program.ops
        assert fold._columns == (dtype is INT64)
        assert fanout._fills
        for tile, workers in [(None, 1), (3 * span, 1), (3 * span, 2)]:
            pool = WorkerPool(workers) if workers > 1 else None
            system.poke_rows(pes, 0, start)
            try:
                got = _outcome(system, pes, span, *program.replay(
                    system, tile_bytes=tile, workers=pool))
            finally:
                if pool is not None:
                    pool.shutdown()
            assert got == oracle, (tile, workers)

    def test_cc_allreduce_is_a_column_fold_and_a_fill(self, monkeypatch):
        programs = []
        replay = CommProgram.replay

        def spy(program, *args, **kwargs):
            if program.primitive == "allreduce":
                programs.append(program)
            return replay(program, *args, **kwargs)

        monkeypatch.setattr(CommProgram, "replay", spy)
        run_app(e2e_apps()["cc"], PidCommBackend())
        assert programs
        for program in programs:
            fold, fanout = program.ops
            assert isinstance(fold, ReduceFoldOp) and fold._columns
            # No stream table is bound: the fold reads its source window.
            assert fold._binding.gather is None
            assert isinstance(fanout, FanoutScratchOp) and fanout._fills
            assert fold.labels[0].startswith("PeReorder[rotate_left_rank]")

    def _lowered(self):
        """The in-place AllReduce's rotate, fold and fan-out, lowered
        but not fused (the reflect that fuses into the fan-out left
        out, so the fan-out is the only later op)."""
        manager = make_manager(SHAPE)
        n = groups_of(manager, "01")[0].size
        plan = build_plan("allreduce", manager, "01", n * 8, 0, 0, INT64,
                          SUM, FULL)
        return [op for step in plan.steps for op in step.lower()][:3]

    def test_the_drop_needs_a_dead_rotate(self):
        assert [type(op) for op in program_mod._fuse(self._lowered())] == [
            ReduceFoldOp, FanoutScratchOp]
        # A disjoint AllReduce leaves its source rotated: nothing drops.
        manager = make_manager(SHAPE)
        size = groups_of(manager, "01")[0].size * 8
        plan = build_plan("allreduce", manager, "01", size, 0, 4096, INT64,
                          SUM, FULL)
        assert [type(op) for op in compile_plan(plan).ops] == [
            GatherMoveOp, ReduceFoldOp, FanoutScratchOp]

    @pytest.mark.parametrize("mutation", [
        "one_chunk_short", "skips_a_group", "other_offset",
        "read_before_rewrite"])
    def test_the_drop_refuses_a_rewrite_that_misses_a_byte(self, mutation):
        ops = self._lowered()
        rotate, fold, fanout = ops
        chunk = fanout.chunk_bytes
        if mutation == "read_before_rewrite":
            ops.insert(2, HostPullOp(
                group_ids=fanout.group_ids, instances=fanout.instances,
                src_offset=0, chunk_bytes=chunk, scratch_key="peek"))
        else:
            fanout.writes = {
                "one_chunk_short": tuple(
                    Region(r.rows, r.offset, r.nbytes - chunk)
                    for r in fanout.writes),
                "skips_a_group": fanout.writes[1:],
                "other_offset": tuple(
                    Region(r.rows, r.offset + chunk, r.nbytes)
                    for r in fanout.writes),
            }[mutation]
        fused = program_mod._fuse(ops)
        assert fused[0] is rotate and fused[1] is fold

    def _fold(self, dtype=INT64, lane=None):
        n = 8
        by_rank = np.tile(np.arange(n), (n, 1))
        return ReduceFoldOp(
            ids=np.arange(n), ngroups=1, instances=(0,), src_offset=0,
            chunk_bytes=8, nslots=n, dtype=dtype, op=SUM,
            lane=by_rank if lane is None else lane, slot=by_rank.T,
            scratch_key="acc")

    def test_the_column_property(self):
        assert self._fold()._columns
        assert self._fold()._binding.gather is None
        # Floats keep their left fold, in table order.
        assert not self._fold(dtype=FLOAT32)._columns
        # Output lane 0 reads lane 0 twice and lane 1 never.
        lane = np.tile(np.arange(8), (8, 1))
        lane[0, 1] = 0
        twice = self._fold(lane=lane)
        assert not twice._columns
        assert twice._binding.gather is not None

    def test_a_fanout_that_is_no_fill_has_no_compiled_form(self,
                                                           monkeypatch):
        # Without the reflect that fuses into it, the fan-out writes
        # rotations: refused at compile time, not replayed.
        manager = make_manager(SHAPE)
        size = groups_of(manager, "01")[0].size * 8
        plan = build_plan("allreduce", manager, "01", size, 0, 4096, INT64,
                          SUM, FULL)
        plan = CommPlan("allreduce", [
            step for step in plan.steps
            if not (isinstance(step, PeReorderStep)
                    and step.rule == "reflect_rank")])
        with pytest.raises(CollectiveError, match="no compiled form"):
            compile_plan(plan)


def _subclasses(cls) -> set[type]:
    """Every class below ``cls``, once all of ``repro`` is imported."""
    found, todo = set(), [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_payloads_reach_steps_and_ops_only_through_the_context():
    """No step or op holds a call's payloads, and an op's one replay
    body takes only the context: both engines read the payloads from
    ``ExecContext.payloads``."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    steps, ops = _subclasses(Step), _subclasses(ProgramOp)
    assert {ScatterFromHostStep, BroadcastStep} <= steps
    assert {HostPushOp, BroadcastFillOp} <= ops
    for cls in steps | ops:
        fields = {f.name for f in dataclasses.fields(cls)} \
            if dataclasses.is_dataclass(cls) else set()
        assert "payloads" not in fields | set(vars(cls)), cls
    for cls in ops | {ProgramOp}:
        params = list(inspect.signature(cls.execute).parameters)
        assert params == ["self", "ctx"], (cls, params)


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
        with pytest.raises(TransferDropped, match="take_band_flat"):
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

    @pytest.mark.parametrize(
        "bad_slot,tiled",
        [(1 << 40, True), (-(1 << 40), True),
         (1 << 40, False), (-(1 << 40), False)],
        ids=["past_arena", "before_arena",
             "past_arena-untiled", "before_arena-untiled"])
    def test_streamed_move_refuses_a_table_outside_the_arena(self,
                                                             bad_slot,
                                                             tiled):
        system = DimmSystem.small(backend="vectorized")
        ids = np.arange(8)
        slot = np.tile(np.arange(2), (8, 1))
        slot[3, 1] = bad_slot
        op = GatherMoveOp(ids=ids, ngroups=1, src_offset=0, dst_offset=64,
                          nslots_in=2, nslots_out=2, chunk_bytes=8,
                          lane=np.tile(np.arange(8)[:, None], (1, 2)),
                          slot=slot)
        system.poke_rows(ids, 0, np.full((8, 16), 7, np.uint8))
        # Untiled replay (no pool, no tile) gathers through the same
        # bound stream table, so the same build-time check refuses it.
        ctx = (ExecContext(system=system, tile_bytes=32, pool=ScratchPool())
               if tiled else ExecContext(system=system))
        with pytest.raises(TransferError, match="stream table"):
            op.execute(ctx)
        assert not system.peek_rows(ids, 64, 16).any()

    @pytest.mark.parametrize("tile", [None, 256], ids=["untiled", "tiled"])
    @pytest.mark.parametrize("primitive", ["alltoall", "allreduce"])
    def test_source_past_the_bank_never_reads_the_next_pe(self, primitive,
                                                          tile):
        """A source span that runs off the end of each PE's bank is
        refused, like the oracle refuses it.  On a sub-cube the arena
        holds another tenant's PEs in the rows past the cube's own, so
        a take that spilled over a row end would read their MRAM."""
        mram = 1 << 12
        system = DimmSystem.small(mram_bytes=mram)
        manager = HypercubeManager(system, shape=(4, 4), base_pe=0)
        system.poke_rows(np.arange(16, 32), 0,
                         np.full((16, mram), 5, np.uint8))
        comm = Communicator(manager, SessionConfig(
            backend="vectorized", execution="compiled",
            stream_tile_bytes=tile))
        size = 16 * 4 * INT64.itemsize
        kwargs = {"reduction_type": SUM} if primitive == "allreduce" else {}
        before = system.peek_rows(np.arange(32), 0, mram).copy()
        with pytest.raises(TransferError, match="outside"):
            getattr(comm, primitive)(BITMAP, size,
                                     src_offset=mram - size + 64,
                                     dst_offset=0, data_type=INT64, **kwargs)
        np.testing.assert_array_equal(
            system.peek_rows(np.arange(32), 0, mram), before)

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
