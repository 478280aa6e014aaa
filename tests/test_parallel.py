"""Concurrency battery for the parallel replay engine.

``SessionConfig(parallel_workers=N)`` fans hazard-independent batch
waves and streamed row bands across a session-owned
:class:`~repro.engine.WorkerPool`.  The contract under test: the
scalar interpreter stays the bit-exact oracle, and parallelism changes
*wall-clock only* -- every result byte, MRAM image, CostLedger total,
tile count and cache counter is identical at every worker count.

The battery covers the pool itself (ordering, per-thread scratch,
nested-inline execution, exception propagation), bit-parity of all
eight primitives across worker counts x backends x streamed/untiled
replay, ledger/stat invariance, 20-run MRAM determinism, wave
parallelism and its serial fallback, the stream-table concurrent
first-touch regression, and arena growth under concurrent touches.
Run under ``PYTHONFAULTHANDLER=1`` in CI so a deadlock dumps stacks.
"""

import threading
import time

import numpy as np
import pytest

from .helpers import fill_group_inputs, groups_of, make_manager
from .test_differential_fuzz import PRIMITIVES, run_case

from repro import (
    Communicator,
    CommRequest,
    DimmGeometry,
    DimmSystem,
    FaultInjector,
    FULL,
    HypercubeManager,
    RELIABLE,
    SessionConfig,
)
from repro.core.collectives.program import GatherMoveOp, compile_plan
from repro.dtypes import INT64
from repro.engine import WorkerPool
from repro.errors import CollectiveError

WORKER_COUNTS = (1, 2, 4, 7)
#: EngineStats keys that measure host wall-clock or worker attribution;
#: everything else must be bit-identical across worker counts.
WALL_CLOCK_KEYS = frozenset({
    "compile_seconds", "replay_seconds", "parallel_workers",
    "parallel_waves", "parallel_requests", "parallel_fallbacks",
    "parallel_wall_seconds", "parallel_task_seconds", "worker_bands",
})


def modelled_snapshot(comm: Communicator) -> dict:
    """The session's stats with host wall-clock fields stripped."""
    return {k: v for k, v in comm.stats.snapshot().items()
            if k not in WALL_CLOCK_KEYS}


# ----------------------------------------------------------------------
# WorkerPool unit behavior
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_results_in_submission_order(self):
        pool = WorkerPool(4)
        try:
            def task(i):
                def run():
                    time.sleep(0.002 * (8 - i))  # later tasks finish first
                    return i
                return run
            assert pool.run([task(i) for i in range(8)]) == list(range(8))
        finally:
            pool.shutdown()

    def test_one_worker_is_inline(self):
        pool = WorkerPool(1)
        ident = []
        pool.run([lambda: ident.append(threading.get_ident())])
        assert ident == [threading.get_ident()]
        assert not pool.in_worker

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            WorkerPool(0)

    def test_per_thread_scratch_is_private(self):
        pool = WorkerPool(3)
        barrier = threading.Barrier(3)
        try:
            def task():
                barrier.wait(timeout=10)  # all three threads live at once
                first = pool.scratch()
                return id(first), id(pool.scratch())
            results = pool.run([task, task, task])
            ids = {first for first, _ in results}
            assert len(ids) == 3, "two workers shared a scratch pool"
            for first, again in results:
                assert first == again, "scratch not sticky per thread"
        finally:
            pool.shutdown()

    def test_nested_run_executes_inline(self):
        # A wave member that band-parallelizes its own replay must not
        # wait on the bounded executor it is occupying: saturate every
        # worker with tasks that each nest another run().
        pool = WorkerPool(2)
        try:
            def outer(i):
                def run():
                    inner = pool.run([lambda: (i, 0), lambda: (i, 1)])
                    assert pool.in_worker
                    return inner
                return run
            results = pool.run([outer(0), outer(1), outer(2)])
            assert results == [[(i, 0), (i, 1)] for i in range(3)]
        finally:
            pool.shutdown()

    def test_first_submitted_exception_wins(self):
        pool = WorkerPool(4)
        finished = []
        try:
            def ok(i):
                def run():
                    time.sleep(0.01)
                    finished.append(i)
                return run

            def boom():
                raise RuntimeError("band 0 failed")

            with pytest.raises(RuntimeError, match="band 0 failed"):
                pool.run([boom, ok(1), ok(2), ok(3)])
            # Every task settled before the raise: no abandoned writes.
            assert sorted(finished) == [1, 2, 3]
        finally:
            pool.shutdown()

    def test_band_counts_attribute_callers(self):
        pool = WorkerPool(2)
        try:
            pool.count_bands(3)  # main thread
            pool.run([lambda: pool.count_bands(1),
                      lambda: pool.count_bands(1),
                      lambda: pool.count_bands(1)])
            counts = pool.band_counts()
            assert counts["inline"] == 3
            assert sum(counts.values()) == 6
            assert all(label.startswith(("worker-", "inline"))
                       for label in counts)
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        pool.run([lambda: 1, lambda: 2])
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run([lambda: 1, lambda: 2])


class TestSessionConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4"])
    def test_rejects_invalid_worker_counts(self, bad):
        with pytest.raises(CollectiveError, match="parallel_workers"):
            SessionConfig(parallel_workers=bad)

    def test_default_is_serial(self):
        assert SessionConfig().parallel_workers == 1
        comm = Communicator(make_manager((4, 8)), SessionConfig())
        assert comm.parallel_workers == 1
        assert "workers" not in comm.describe()

    def test_describe_names_workers(self):
        comm = Communicator(make_manager((4, 8)),
                            SessionConfig(parallel_workers=4))
        assert "4 workers" in comm.describe()
        assert comm.parallel_workers == 4
        comm.close()


# ----------------------------------------------------------------------
# Bit-parity: every primitive, every worker count, both backends,
# streamed and untiled.  run_case asserts bit-exactness against the
# repro.core.reference oracle internally.
# ----------------------------------------------------------------------
class TestBitParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS,
                             ids=lambda w: f"w{w}")
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("tile", [None, 257],
                             ids=["untiled", "streamed"])
    def test_all_primitives_match_oracle(self, backend, tile, workers):
        rng = np.random.default_rng(7)
        for primitive in PRIMITIVES:
            result = run_case(rng, primitive, (4, 8), INT64, 2, FULL,
                              backend=backend, execution="compiled",
                              tile=tile, workers=workers)
            if tile is not None:
                assert result.execution == "streamed"

    @pytest.mark.parametrize("workers", (2, 4, 7), ids=lambda w: f"w{w}")
    def test_ledger_and_tiles_invariant(self, workers):
        # The priced run: identical CommResult economics at every
        # worker count -- ledger totals compare with == (bit-exact
        # float), tiles and peak scratch shape, cache hit flags.
        def economics(n):
            rng = np.random.default_rng(21)
            results = [run_case(rng, primitive, (4, 8), INT64, 2, FULL,
                                backend="vectorized",
                                execution="compiled", tile=129, workers=n)
                       for primitive in PRIMITIVES]
            return [(r.ledger.total, r.tiles, r.cached, r.execution)
                    for r in results]
        assert economics(workers) == economics(1)


# ----------------------------------------------------------------------
# Wave parallelism: hazard-independent batch members run concurrently
# ----------------------------------------------------------------------
def _disjoint_batch(n=3, size=256):
    """n alltoalls over disjoint MRAM regions: one n-wide wave."""
    span = 2 * size
    return [CommRequest("alltoall", "10", size, src_offset=i * span,
                        dst_offset=i * span + size, data_type="int64")
            for i in range(n)]


def _seed_batch_inputs(manager, requests, seed=3):
    rng = np.random.default_rng(seed)
    for req in requests:
        groups = groups_of(manager, "10")
        elems = req.total_data_size // 8
        fill_group_inputs(manager.system, groups, req.src_offset,
                          elems, INT64, rng)


def _mram_image(manager):
    return [bytes(manager.system.memory(pe).read(0, 1 << 16))
            for pe in manager.all_pes]


class TestWaveParallelism:
    def _submit(self, workers, tile=None, injector=None):
        # Reliability (implied by an injector) interprets steps, so
        # those sessions use the default "auto" execution mode.
        execution = "auto" if injector is not None else "compiled"
        manager = make_manager((8, 4))
        comm = Communicator(manager, SessionConfig(
            parallel_workers=workers, execution=execution,
            stream_tile_bytes=tile, fault_injector=injector))
        requests = _disjoint_batch()
        _seed_batch_inputs(manager, requests)
        batch = comm.submit(requests)
        results = [f.result() for f in batch.futures]
        return manager, comm, batch, results

    @pytest.mark.parametrize("tile", [None, 129],
                             ids=["untiled", "streamed"])
    def test_parallel_wave_bit_identical_to_serial(self, tile):
        serial = self._submit(1, tile=tile)
        pooled = self._submit(4, tile=tile)
        try:
            assert _mram_image(pooled[0]) == _mram_image(serial[0])
            for a, b in zip(pooled[3], serial[3]):
                assert a.ledger.total == b.ledger.total  # bit-exact
                assert a.tiles == b.tiles
            assert pooled[2].seconds == serial[2].seconds
            assert modelled_snapshot(pooled[1]) \
                == modelled_snapshot(serial[1])
        finally:
            pooled[1].close()

    def test_parallel_wave_counters(self):
        _, comm, _, _ = self._submit(4)
        try:
            assert comm.stats.parallel_waves == 1
            assert comm.stats.parallel_requests == 3
            assert comm.stats.parallel_fallbacks == 0
            assert comm.stats.parallel_wall_seconds > 0
            assert comm.stats.parallel_task_seconds > 0
        finally:
            comm.close()

    def test_injector_forces_serial_fallback(self):
        # The injector's RNG is stateful: pooled sessions must fall
        # back to serial wave execution, counted, still bit-exact.
        injector = FaultInjector(seed=9)  # zero rates: no faults drawn
        manager, comm, _, results = self._submit(4, injector=injector)
        try:
            assert comm.stats.parallel_waves == 0
            assert comm.stats.parallel_fallbacks == 1
            baseline = self._submit(1)
            assert _mram_image(manager) == _mram_image(baseline[0])
            assert all(r.attempts == 1 for r in results)
        finally:
            comm.close()

    def test_reliability_policy_forces_serial_fallback(self):
        manager = make_manager((8, 4))
        comm = Communicator(manager, SessionConfig(
            parallel_workers=4, reliability=RELIABLE))
        try:
            requests = _disjoint_batch()
            _seed_batch_inputs(manager, requests)
            comm.submit(requests)
            assert comm.stats.parallel_waves == 0
            assert comm.stats.parallel_fallbacks == 1
        finally:
            comm.close()

    def test_single_member_waves_stay_serial(self):
        # Two conflicting requests (same buffers) -> two 1-wide waves:
        # nothing to parallelize, no fallback counted.
        manager = make_manager((8, 4))
        comm = Communicator(manager,
                            SessionConfig(parallel_workers=4))
        try:
            req = CommRequest("alltoall", "10", 256, src_offset=0,
                              dst_offset=256, data_type="int64")
            _seed_batch_inputs(manager, [req])
            comm.submit([req, req])
            assert comm.stats.parallel_waves == 0
            assert comm.stats.parallel_fallbacks == 0
        finally:
            comm.close()

    def test_identical_gathers_share_one_program_in_one_wave(self):
        # Two identical gathers only read MRAM, so they form one
        # 2-member wave, and the engine replays one shared CommProgram
        # on two workers at once.  (A gather lowers to a HostPullOp,
        # which has no stream table; the table's concurrent first
        # touch is TestStreamTableFirstTouch's.)
        def run(workers):
            manager = make_manager((8, 4))
            comm = Communicator(manager, SessionConfig(
                parallel_workers=workers, backend="vectorized",
                execution="compiled", stream_tile_bytes=129))
            req = CommRequest("gather", "10", 256, src_offset=0,
                              data_type="int64")
            _seed_batch_inputs(manager, [req])
            batch = comm.submit([req, req])
            comm.close()
            return comm, batch, [f.result() for f in batch.futures]

        serial, (pooled, batch, results) = run(1), run(2)
        assert batch.waves == [[0, 1]]
        assert pooled.stats.parallel_requests == 2
        assert pooled.stats.programs_compiled == 1
        assert results[0].plan is results[1].plan
        for a, b in zip(results, serial[2]):
            assert a.ledger.total == b.ledger.total
            assert a.host_outputs.keys() == b.host_outputs.keys()
            for inst in a.host_outputs:
                assert a.host_outputs[inst].tobytes() \
                    == b.host_outputs[inst].tobytes()

    def test_close_degrades_to_serial(self):
        manager, comm, _, _ = self._submit(4)
        comm.close()
        requests = _disjoint_batch()
        batch = comm.submit(requests)  # runs serially, still correct
        assert all(f.done() for f in batch.futures)


# ----------------------------------------------------------------------
# Determinism: 20 same-seed runs, bit-identical MRAM
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_twenty_runs_bit_identical(self):
        def one_run():
            manager = make_manager((8, 4))
            comm = Communicator(manager, SessionConfig(
                parallel_workers=4, backend="vectorized",
                execution="compiled", stream_tile_bytes=129))
            requests = _disjoint_batch()
            _seed_batch_inputs(manager, requests)
            batch = comm.submit(requests)
            ledgers = [f.result().ledger.total for f in batch.futures]
            image = _mram_image(manager)
            comm.close()
            return ledgers, image

        first = one_run()
        for _ in range(19):
            assert one_run() == first


# ----------------------------------------------------------------------
# An op's arena binding under concurrent first touch
# ----------------------------------------------------------------------
class TestStreamTableFirstTouch:
    TILE = 64  # several bands per op, so replay needs the stream table

    def _cold_program(self):
        """A freshly compiled (never bound) streamed AlltoAll, its one
        op, and the destination bytes a correct replay leaves.

        The 32-PE cube sits on a 64-PE system, so touching a PE above
        it makes the arena reallocate.
        """
        system = DimmSystem(DimmGeometry(2, 2, 4, 4), mram_bytes=1 << 16,
                            backend="vectorized")
        manager = HypercubeManager(system, shape=(4, 8))
        comm = Communicator(manager, SessionConfig(
            backend="vectorized", execution="compiled"))
        rng = np.random.default_rng(1)
        groups = groups_of(manager, "10")
        fill_group_inputs(system, groups, 0, 32, INT64, rng)
        result = comm.alltoall("10", 256, src_offset=0, dst_offset=256,
                               data_type=INT64)
        want = system.peek_rows(manager.all_pes, 256, 256)
        system.poke_rows(manager.all_pes, 256,
                         np.zeros_like(want))  # replays must rewrite it
        program = compile_plan(result.plan, system)
        (op,) = program.ops
        assert isinstance(op, GatherMoveOp)
        return system, manager.all_pes, program, op, want

    def test_concurrent_first_touch_builds_once(self):
        system, pes, program, op, want = self._cold_program()
        arena = system.arena
        builds = {"bind": [], "stream_table": []}

        def counting(name):
            inner = getattr(arena, name)

            def build(*args, **kwargs):
                builds[name].append(threading.get_ident())
                time.sleep(0.005)  # widen the race window
                return inner(*args, **kwargs)
            return build

        for name in builds:
            setattr(arena, name, counting(name))
        try:
            nthreads = 8
            barrier = threading.Barrier(nthreads)
            bound = [None] * nthreads
            errors = []

            def replay(i):
                try:
                    barrier.wait(timeout=10)
                    program.replay(system, tile_bytes=self.TILE)
                    bound[i] = op._binding.bound
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=replay, args=(i,))
                       for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len(builds["bind"]) == 1, \
                f"bound {len(builds['bind'])} times under concurrent touch"
            assert len(builds["stream_table"]) == 1
            first = bound[0]
            assert first is not None and first.stream is not None
            for other in bound[1:]:
                # Shared read-only: the same binding, not a rebuild.
                assert other is first
            assert not first.stream[0].flags.writeable
            np.testing.assert_array_equal(
                system.peek_rows(pes, 256, 256), want)
        finally:
            for name in builds:
                delattr(arena, name)

    def test_arena_growth_invalidates_cache(self):
        system, pes, program, op, want = self._cold_program()
        program.replay(system, tile_bytes=self.TILE)
        first = op._binding.bound
        program.replay(system, tile_bytes=self.TILE)
        assert op._binding.bound is first  # steady state
        arena = system.arena
        system.materialize([system.num_pes - 1])  # above the cube: grows
        assert first.data is not arena._data
        system.poke_rows(pes, 256, np.zeros_like(want))
        program.replay(system, tile_bytes=self.TILE)
        rebuilt = op._binding.bound
        assert rebuilt is not first and rebuilt.data is arena._data
        assert rebuilt.stream[0] is not first.stream[0]
        np.testing.assert_array_equal(system.peek_rows(pes, 256, 256), want)
        program.replay(system, tile_bytes=self.TILE)
        assert op._binding.bound is rebuilt


class TestArenaConcurrentTouch:
    def test_disjoint_touches_race_free(self):
        manager = make_manager((8, 4))
        system = manager.system
        system.set_backend("vectorized")
        pes = list(manager.all_pes)
        for pe in pes:
            system.memory(pe).write(
                0, np.full(64, pe % 251, dtype=np.uint8))
        nthreads = 8
        chunks = [pes[i::nthreads] for i in range(nthreads)]
        barrier = threading.Barrier(nthreads)
        errors = []

        def touch(chunk):
            try:
                barrier.wait(timeout=10)
                for _ in range(50):
                    system.materialize(chunk)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=touch, args=(c,))
                   for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        for pe in pes:
            assert bytes(system.memory(pe).read(0, 64)) \
                == bytes([pe % 251] * 64)


# ----------------------------------------------------------------------
# Serving under parallel replay: multi-tenant stress
# ----------------------------------------------------------------------
class TestServingParallel:
    TENANTS = 8

    def _load(self, workers, seed=5):
        import asyncio
        from repro.serving import CollectiveServer, LoadGenerator, TenantLoad

        mixes = ("dlrm_burst", "gnn_epoch", "bfs_frontier")

        async def scenario():
            manager = make_manager((8, 4))
            server = CollectiveServer(
                manager,
                SessionConfig(functional=False, parallel_workers=workers),
                max_queue_depth=512, batch_limit=16)
            loads = [TenantLoad(f"tenant-{i}", mixes[i % len(mixes)])
                     for i in range(self.TENANTS)]
            gen = LoadGenerator(server, loads, dims="10", seed=seed)
            report = await gen.run(rounds=3, lockstep=False)
            return manager, server, report

        return asyncio.run(scenario())

    def test_eight_tenants_no_drift_vs_serial(self):
        # The open-loop shape keeps every tenant backlogged, so batches
        # stay wide and the hazard scheduler forms multi-member waves
        # the pool executes concurrently.  Everything modelled must be
        # bit-identical to the serial server: the full load report
        # (latencies and goodput are priced, not measured), per-tenant
        # outcomes, and the engine's non-wall-clock statistics.
        manager_s, server_s, report_s = self._load(1)
        manager_p, server_p, report_p = self._load(4)
        try:
            assert server_p.parallel_workers == 4
            assert report_p == report_s
            assert modelled_snapshot(server_p.comm) \
                == modelled_snapshot(server_s.comm)
            assert "4 workers" in server_p.describe()
        finally:
            server_p.comm.close()

    def test_pooled_server_engages_parallel_waves(self):
        _, server, report = self._load(4)
        try:
            stats = server.comm.stats
            assert stats.parallel_waves > 0
            assert stats.parallel_fallbacks == 0
            assert all(t["shed"] == 0 and t["rejected"] == 0
                       for t in report["tenants"].values())
        finally:
            server.comm.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestParallelObservability:
    def test_render_serial_session(self):
        comm = Communicator(make_manager((4, 8)), SessionConfig())
        assert "parallel replay:" not in comm.stats.report()

    def test_render_and_snapshot_after_parallel_run(self):
        manager = make_manager((8, 4))
        comm = Communicator(manager, SessionConfig(
            parallel_workers=4, execution="compiled",
            stream_tile_bytes=129))
        try:
            requests = _disjoint_batch()
            _seed_batch_inputs(manager, requests)
            comm.submit(requests)
            # A solo streamed call band-parallelizes across the pool,
            # so its bands get per-worker attribution (wave members
            # replay their bands inline on the wave's worker).
            comm.alltoall("10", 256, src_offset=0, dst_offset=256,
                          data_type=INT64)
            snap = comm.stats.snapshot()
            assert snap["parallel_workers"] == 4
            assert snap["parallel_waves"] == 1
            assert snap["parallel_requests"] == 3
            assert sum(snap["worker_bands"].values()) > 0
            report = comm.stats.report()
            assert "parallel replay:" in report
            assert "workers         4" in report
            assert "parallel waves  1 (3 requests)" in report
        finally:
            comm.close()

    def test_reset_preserves_worker_count(self):
        comm = Communicator(make_manager((4, 8)),
                            SessionConfig(parallel_workers=4))
        try:
            comm.reset_stats()
            assert comm.stats.parallel_workers == 4
        finally:
            comm.close()
