"""Tests for the multi-tenant serving front-end (``repro.serving``).

Covers the SessionConfig redesign, admission/shedding/backpressure
semantics, fair-share scheduling, per-tenant plan-cache partitions and
MRAM quotas, serving-vs-solo parity across all eight collectives on
both stores (the scalar one under its interpreted oracle), and the load
generator.  All async tests run under
``asyncio.run`` with the server's modelled clock, so they are fully
deterministic.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro import (
    CollectiveServer,
    CommRequest,
    Communicator,
    DimmSystem,
    HypercubeManager,
    SessionConfig,
)
from repro.dtypes import INT64
from repro.engine.cache import PlanCache
from repro.errors import (
    AdmissionRejected,
    CollectiveError,
    FaultBudgetExceeded,
    HypercubeError,
    QuotaExceeded,
    RequestShed,
    ServingError,
    SessionClosed,
)
from repro.serving import (
    MIXES,
    AdmissionQueue,
    FairShareScheduler,
    LoadGenerator,
    TenantLoad,
    TenantSpec,
)
from repro.hw.geometry import DimmGeometry
from repro.reliability import FaultInjector, ReliabilityPolicy, RetryPolicy
from repro.serving.admission import PendingRequest

from .helpers import make_manager, parity_config

DIMS = "10"  # group of 8 on the (8, 4) test shape
SIZE = 256   # bytes per PE


def analytic_server(max_queue_depth=64, batch_limit=8):
    manager = make_manager((8, 4))
    return CollectiveServer(manager, SessionConfig(functional=False),
                            max_queue_depth=max_queue_depth,
                            batch_limit=batch_limit)


def request(src=0, dst=8192, size=SIZE, primitive="alltoall"):
    return CommRequest(primitive, DIMS, size, src_offset=src,
                       dst_offset=dst)


def pending(seq, tenant, priority, manager=None):
    manager = manager or make_manager((8, 4))
    req = request()
    norm = req.normalize(manager, SessionConfig().config)
    return PendingRequest(seq=seq, tenant_id=tenant, priority=priority,
                          cost=float(SIZE), request=req, normalized=norm,
                          future=None, arrival=0.0)


# ----------------------------------------------------------------------
# SessionConfig: the constructor redesign
# ----------------------------------------------------------------------
class TestSessionConfig:
    def test_defaults_match_legacy_defaults(self):
        comm = Communicator(make_manager((8, 4)), SessionConfig())
        assert comm.functional is True
        assert comm.execution == "auto"
        assert comm.session_config == SessionConfig()

    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.functional = False

    def test_validation_preserved(self):
        manager = make_manager((8, 4))
        with pytest.raises(CollectiveError, match="unknown execution mode"):
            Communicator(manager, SessionConfig(execution="jit"))
        with pytest.raises(CollectiveError, match="positive"):
            SessionConfig(stream_tile_bytes=0)

    @pytest.mark.parametrize("field, value", [
        ("cache_size", -1), ("cache_size", 2.5), ("cache_size", True),
        ("stream_tile_bytes", True), ("stream_tile_bytes", 100.5),
        ("parallel_workers", True),
        # A truthy string used to run *functionally*; a config name
        # died on the first call with an AttributeError.
        ("functional", "no"), ("elide_transfers", "yes"), ("config", "FULL"),
        ("reliability", True), ("fault_injector", object()),
    ])
    def test_wrong_typed_knobs_rejected(self, field, value):
        with pytest.raises(CollectiveError, match=field):
            SessionConfig(**{field: value})

    def test_cache_size_none_and_zero_keep_their_meaning(self):
        assert SessionConfig(cache_size=None).cache_size is None
        comm = Communicator(make_manager((8, 4)),
                            SessionConfig(cache_size=0, functional=False))
        for _ in range(2):
            comm.alltoall(DIMS, SIZE, dst_offset=8192)
        assert comm.stats.plans_compiled == 2 and len(comm.cache) == 0

    def test_describe_names_non_defaults_only(self):
        assert SessionConfig().describe() == "SessionConfig()"
        assert "execution=compiled" in \
            SessionConfig(execution="compiled").describe()


# ----------------------------------------------------------------------
# Admission queue unit semantics
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_fifo_per_tenant(self):
        queue = AdmissionQueue(max_depth=4)
        manager = make_manager((8, 4))
        for seq in range(3):
            queue.offer(pending(seq, "a", 1, manager))
        assert [queue.pop("a").seq for _ in range(3)] == [0, 1, 2]

    def test_sheds_newest_of_lowest_priority(self):
        queue = AdmissionQueue(max_depth=3)
        manager = make_manager((8, 4))
        queue.offer(pending(0, "low", 1, manager))
        queue.offer(pending(1, "low", 1, manager))
        queue.offer(pending(2, "mid", 2, manager))
        victim = queue.offer(pending(3, "high", 3, manager))
        assert victim.tenant_id == "low" and victim.seq == 1
        assert queue.pending("low") == 1  # oldest survived
        assert queue.stats.shed == 1

    def test_rejects_when_not_strictly_higher(self):
        queue = AdmissionQueue(max_depth=2)
        manager = make_manager((8, 4))
        queue.offer(pending(0, "a", 2, manager))
        queue.offer(pending(1, "a", 2, manager))
        with pytest.raises(AdmissionRejected):
            queue.offer(pending(2, "b", 2, manager))  # equal: no churn
        with pytest.raises(AdmissionRejected):
            queue.offer(pending(3, "c", 1, manager))  # lower: rejected
        assert queue.stats.rejected == 2

    def test_evict_tenant(self):
        queue = AdmissionQueue(max_depth=4)
        manager = make_manager((8, 4))
        queue.offer(pending(0, "a", 1, manager))
        queue.offer(pending(1, "b", 1, manager))
        dropped = queue.evict_tenant("a")
        assert [e.seq for e in dropped] == [0]
        assert len(queue) == 1 and queue.pending_tenants() == ["b"]


# ----------------------------------------------------------------------
# Fair-share scheduler unit semantics
# ----------------------------------------------------------------------
class TestFairShareScheduler:
    def test_equal_weights_alternate(self):
        sched = FairShareScheduler()
        sched.register("a"), sched.register("b")
        order = []
        for _ in range(6):
            tenant = sched.pick(["a", "b"])
            sched.charge(tenant, 100.0)
            order.append(tenant)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_weight_earns_proportional_share(self):
        sched = FairShareScheduler()
        sched.register("heavy", weight=2.0)
        sched.register("light", weight=1.0)
        served = {"heavy": 0, "light": 0}
        for _ in range(30):
            tenant = sched.pick(["heavy", "light"])
            sched.charge(tenant, 100.0)
            served[tenant] += 1
        assert served["heavy"] == 2 * served["light"]

    def test_idle_tenant_cannot_bank_credit(self):
        sched = FairShareScheduler()
        sched.register("busy"), sched.register("idle")
        for _ in range(10):
            sched.charge("busy", 100.0)
        sched.activate("idle")
        assert sched.virtual_time["idle"] == sched.vclock

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            FairShareScheduler().register("a", weight=0.0)


# ----------------------------------------------------------------------
# Server: overload, backpressure, fairness (deterministic asyncio)
# ----------------------------------------------------------------------
class TestOverload:
    def test_full_queue_sheds_lowest_priority_first(self):
        async def scenario():
            server = analytic_server(max_queue_depth=4)
            low = server.session("low", priority=1)
            high = server.session("high", priority=3)
            low_futures = [low.submit(request(dst=8192 + i * SIZE))
                           for i in range(4)]
            high_future = high.submit(request())
            # The newest low request was shed; the high one is queued.
            with pytest.raises(RequestShed):
                await low_futures[-1]
            assert server.pending == 4
            await server.drain()
            assert (await high_future).seconds > 0
            for future in low_futures[:-1]:
                assert (await future).seconds > 0
            assert low.stats.shed == 1 and high.stats.shed == 0
        asyncio.run(scenario())

    def test_not_higher_priority_is_rejected(self):
        async def scenario():
            server = analytic_server(max_queue_depth=2)
            a = server.session("a", priority=2)
            b = server.session("b", priority=2)
            c = server.session("c", priority=1)
            a.submit(request())
            a.submit(request())
            with pytest.raises(AdmissionRejected):
                b.submit(request())  # equal priority cannot displace
            with pytest.raises(AdmissionRejected):
                c.submit(request())  # lower certainly cannot
            assert b.stats.rejected == 1 and c.stats.rejected == 1
            await server.drain()
        asyncio.run(scenario())

    def test_admitted_requests_never_dropped(self):
        # Backpressure invariant: every submitted request ends in
        # exactly one of {completed, shed, rejected}; anything the
        # scheduler dispatched always completes.
        async def scenario():
            server = analytic_server(max_queue_depth=6)
            sessions = {name: server.session(name, priority=p)
                        for name, p in
                        (("bulk", 1), ("steady", 2), ("urgent", 3))}
            futures, rejected = [], 0
            for wave in range(6):
                for name, session in sessions.items():
                    for i in range(3):
                        try:
                            futures.append(session.submit(
                                request(dst=8192 + i * SIZE)))
                        except AdmissionRejected:
                            rejected += 1
                server.process(max_batches=1)
            await server.drain()
            done = await asyncio.gather(*futures, return_exceptions=True)
            completed = sum(1 for r in done
                            if not isinstance(r, BaseException))
            shed = sum(1 for r in done if isinstance(r, RequestShed))
            assert completed + shed == len(futures)
            assert completed + shed + rejected == 6 * 3 * 3
            stats = server.stats
            assert sum(t.completed for t in stats.tenants.values()) \
                == completed
            assert stats.dispatched == completed
        asyncio.run(scenario())

    def test_fair_share_prevents_starvation(self):
        # A greedy tenant floods 20 requests before a modest tenant's
        # 5; equal weights must interleave them 1:1 until the modest
        # tenant is fully served, bounding its goodput ratio.
        async def scenario():
            server = analytic_server(max_queue_depth=64, batch_limit=1)
            greedy = server.session("greedy")
            modest = server.session("modest")
            futures = [greedy.submit(request()) for _ in range(20)]
            futures += [modest.submit(request()) for _ in range(5)]
            await server.drain()
            await asyncio.gather(*futures)
            log = server.stats.execution_log
            window = log[:10]
            assert window.count("modest") == 5, log
            ratio = window.count("greedy") / window.count("modest")
            assert 0.4 <= ratio <= 2.5
            assert all(t == "greedy" for t in log[10:])
        asyncio.run(scenario())

    def test_weighted_share(self):
        async def scenario():
            server = analytic_server(batch_limit=1)
            heavy = server.session("heavy", weight=2.0)
            light = server.session("light", weight=1.0)
            futures = [heavy.submit(request()) for _ in range(12)]
            futures += [light.submit(request()) for _ in range(12)]
            server.process(max_batches=9)
            log = server.stats.execution_log
            assert log.count("heavy") == 6 and log.count("light") == 3
            await server.drain()
            await asyncio.gather(*futures)
        asyncio.run(scenario())


class TestQuotasAndLifecycle:
    def test_mram_quota_enforced(self):
        async def scenario():
            server = analytic_server()
            capped = server.session("capped", mram_quota_bytes=512)
            capped.submit(request(size=128))  # 256 B footprint: fine
            with pytest.raises(QuotaExceeded, match="capped"):
                capped.submit(request(size=1024))
            assert capped.stats.rejected == 1
            await server.drain()
        asyncio.run(scenario())

    def test_duplicate_tenant_rejected(self):
        server = analytic_server()
        server.session("a")
        with pytest.raises(ServingError, match="already"):
            server.session("a")

    def test_close_fails_queued_and_refuses_new(self):
        async def scenario():
            server = analytic_server()
            session = server.session("a")
            future = session.submit(request())
            session.close()
            with pytest.raises(SessionClosed):
                await future
            with pytest.raises(SessionClosed):
                session.submit(request())
            # A closed id can be re-opened.
            again = server.session("a")
            result = await again.run(request())
            assert result.seconds > 0
        asyncio.run(scenario())

    def test_background_serving_context(self):
        async def scenario():
            server = analytic_server()
            session = server.session("a")
            async with server:
                results = await asyncio.gather(
                    session.submit(request()),
                    session.submit(request(src=4096, dst=12288)))
            assert all(r.seconds > 0 for r in results)
        asyncio.run(scenario())

    def test_malformed_batch_member_never_reruns_its_neighbour(self):
        """A request that fails validation inside a co-batched submit
        must not leave the members before it executed: the per-request
        fallback would then run them a second time."""
        from repro.dtypes import INT64
        from repro.hw.geometry import DimmGeometry

        def build():
            system = DimmSystem(DimmGeometry(1, 1, 4, 4), mram_bytes=1 << 14)
            manager = HypercubeManager(system, shape=(4, 4))
            for pe in manager.all_pes:
                system.write_elements(
                    pe, 0, np.arange(16, dtype=np.int64) * (pe + 1), INT64)
            return manager

        reduce_a = CommRequest("reduce_scatter", "10", 128, src_offset=0,
                               dst_offset=4096)
        solo_manager = build()
        solo = Communicator(solo_manager, SessionConfig())
        expected = solo.run(reduce_a)

        async def scenario():
            manager = build()
            server = CollectiveServer(manager, SessionConfig())
            a, b = server.session("a"), server.session("b")
            fut_a = a.submit(reduce_a)
            fut_b = b.submit(CommRequest("scatter", "10", 32,
                                         dst_offset=8192))
            assert server.process() >= 1
            with pytest.raises(CollectiveError, match="needs payloads"):
                await fut_b
            return manager, server, await fut_a

        manager, server, served = asyncio.run(scenario())
        assert server.comm.stats.calls == 1
        assert served.ledger.total == expected.ledger.total
        for pe in manager.all_pes:
            np.testing.assert_array_equal(
                manager.system.memory(pe).read(0, 1 << 14),
                solo_manager.system.memory(pe).read(0, 1 << 14))


    def test_member_that_no_longer_normalizes_fails_alone(self):
        """Both requests normalize at admission; by dispatch the session
        runs on a cube of another dimension count (as it does after
        degradation remaps it), so b's three-character bitmap no longer
        normalizes.  b fails alone and a runs, once, as it runs solo."""
        def build(shape):
            system = DimmSystem(DimmGeometry(1, 1, 4, 8), mram_bytes=1 << 14)
            for pe in range(system.num_pes):
                system.write_elements(
                    pe, 0, np.arange(16, dtype=np.int64) * (pe + 1), INT64)
            return HypercubeManager(system, shape=shape)

        alltoall_a = CommRequest("alltoall", [0], 128, src_offset=0,
                                 dst_offset=4096)
        alltoall_b = CommRequest("alltoall", "100", 128, src_offset=0,
                                 dst_offset=8192)
        solo_manager = build((4, 8))
        expected = Communicator(solo_manager, SessionConfig()).run(alltoall_a)

        async def scenario():
            manager = build((4, 4, 2))
            server = CollectiveServer(manager, SessionConfig())
            fut_a = server.session("a").submit(alltoall_a)
            fut_b = server.session("b").submit(alltoall_b)
            server.comm.manager = HypercubeManager(manager.system,
                                                   shape=(4, 8))
            assert server.process() == 1
            with pytest.raises(HypercubeError, match="3 characters"):
                await fut_b
            return server, await fut_a

        server, served = asyncio.run(scenario())
        assert server.comm.stats.calls == 1
        assert served.ledger.total == expected.ledger.total
        for pe in range(solo_manager.system.num_pes):
            np.testing.assert_array_equal(
                server.comm.manager.system.memory(pe).read(0, 1 << 14),
                solo_manager.system.memory(pe).read(0, 1 << 14))

    def test_served_request_normalizes_once(self, monkeypatch):
        """Admission normalizes each request and computes its footprint;
        on an unchanged cube the batch runs those, so four tenants' one
        batch makes four of each -- not a second normalize in the
        engine, nor a footprint per question asked of it."""
        from repro.engine import request as request_mod

        counts = {"normalize": 0, "footprint": 0}
        normalize = CommRequest.normalize

        def counted_normalize(self, *args, **kwargs):
            counts["normalize"] += 1
            return normalize(self, *args, **kwargs)

        class CountedFootprint(request_mod.Footprint):
            def __init__(self, *args, **kwargs):
                counts["footprint"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(CommRequest, "normalize", counted_normalize)
        monkeypatch.setattr(request_mod, "Footprint", CountedFootprint)

        async def scenario():
            server = CollectiveServer(make_manager((8, 4)), SessionConfig())
            futures = [server.session(f"t{i}").submit(
                           request(src=1024 * i, dst=8192 + 1024 * i))
                       for i in range(4)]
            assert server.process() == 1
            return [await fut for fut in futures]

        assert len(asyncio.run(scenario())) == 4
        assert counts == {"normalize": 4, "footprint": 4}

    def test_faulted_batch_member_never_reruns_its_neighbour(self):
        """A member that faults *during* a co-batched submit fails
        alone: the member before it ran once, and its MRAM is what a
        solo run leaves (seed 31 faults b's AlltoAll after a's
        ReduceScatter has run; a one-attempt policy forbids a rerun)."""
        reduce_a, alltoall_b, config = _seed31_batch()
        solo_manager = _seed31_manager()
        Communicator(solo_manager, SessionConfig()).run(reduce_a)

        async def scenario():
            manager = _seed31_manager()
            server = CollectiveServer(manager, config)
            fut_a = server.session("a").submit(reduce_a)
            fut_b = server.session("b").submit(alltoall_b)
            assert server.process() == 1
            with pytest.raises(FaultBudgetExceeded):
                await fut_b
            return manager, server, await fut_a

        manager, server, served = asyncio.run(scenario())
        assert served.attempts == 1
        assert server.comm.stats.calls == 1
        for pe in manager.all_pes:
            np.testing.assert_array_equal(
                manager.system.memory(pe).read(0, 1 << 14),
                solo_manager.system.memory(pe).read(0, 1 << 14))

    def test_failed_batch_member_is_priced(self):
        """The same seed-31 batch: b's failed AlltoAll attempt costs
        modelled time, so it is in the batch ledgers and the server
        clock, not priced at zero."""
        reduce_a, alltoall_b, config = _seed31_batch()
        batch = Communicator(_seed31_manager(), config).submit(
            [reduce_a, alltoall_b])
        with pytest.raises(FaultBudgetExceeded) as failure:
            batch[1].result()
        failed = failure.value.ledger
        assert failed.total > 0
        assert batch.serial_ledger.total == pytest.approx(
            batch[0].result().ledger.total + failed.total)
        assert batch.ledger.total >= failed.total

        async def serve():
            server = CollectiveServer(_seed31_manager(), _seed31_batch()[2])
            server.session("a").submit(reduce_a)
            fut_b = server.session("b").submit(alltoall_b)
            server.process()
            with pytest.raises(FaultBudgetExceeded):
                await fut_b
            return server.stats.clock

        assert asyncio.run(serve()) == batch.seconds


def _seed31_manager() -> HypercubeManager:
    """The 16-PE cube of the seed-31 fault repro (EXPERIMENTS.md)."""
    system = DimmSystem(DimmGeometry(1, 1, 4, 4), mram_bytes=1 << 14)
    manager = HypercubeManager(system, shape=(4, 4))
    for pe in manager.all_pes:
        row = np.arange(16, dtype=np.int64)
        system.write_elements(pe, 0, row * (pe + 1), INT64)
        system.write_elements(pe, 2048, row * (pe + 3), INT64)
    return manager


def _seed31_batch() -> tuple[CommRequest, CommRequest, SessionConfig]:
    """Tenant a's ReduceScatter, tenant b's AlltoAll and a fresh session
    config (a drop injector, one attempt, no fault budget): at seed 31
    b's AlltoAll faults after a's ReduceScatter has run."""
    return (
        CommRequest("reduce_scatter", "10", 128, src_offset=0,
                    dst_offset=4096),
        CommRequest("alltoall", "10", 128, src_offset=2048,
                    dst_offset=8192),
        SessionConfig(
            fault_injector=FaultInjector(seed=31, drop_rate=0.05),
            reliability=ReliabilityPolicy(
                retry=RetryPolicy(max_attempts=1, fault_budget=0))))


# ----------------------------------------------------------------------
# Plan-cache partitions: per-tenant LRU bounds and isolation
# ----------------------------------------------------------------------
class TestCachePartitions:
    def test_partition_lru_bound(self):
        cache = PlanCache(maxsize=64)
        part = cache.partition("t", maxsize=2)
        for key in ("k1", "k2", "k3"):
            part.fetch(key, lambda k=key: f"plan-{k}")
        assert len(part) == 2
        assert part.counters()["evictions"] == 1
        assert "k1" not in part and "k3" in part

    def test_partitions_isolate_tenants(self):
        manager = make_manager((8, 4))
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.cache.partition("noisy", maxsize=1)
        stable = CommRequest("alltoall", DIMS, SIZE, dst_offset=8192,
                             tenant="quiet")
        comm.submit([stable])
        # The noisy tenant cycles shapes through its 1-slot partition.
        for size in (SIZE, 2 * SIZE, 4 * SIZE):
            comm.submit([CommRequest("alltoall", DIMS, size,
                                     dst_offset=8192, tenant="noisy")])
        result = comm.submit([stable]).futures[0].result()
        assert result.cached, "noisy tenant evicted quiet tenant's plan"
        parts = comm.stats.plan_partitions
        assert parts["noisy"]["evictions"] == 2
        assert parts["quiet"]["hits"] == 1
        assert "plan-cache partitions:" in comm.stats.report()

    def test_server_session_carves_bounded_partition(self):
        async def scenario():
            server = analytic_server()
            session = server.session("t", plan_cache_slots=2)
            for size in (SIZE, 2 * SIZE, 4 * SIZE):
                await session.run(request(size=size))
            counters = server.comm.stats.plan_partitions["t"]
            assert counters["plans"] == 2 and counters["evictions"] == 1
        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Serving parity: identical results to a solo Communicator
# ----------------------------------------------------------------------
def _parity_requests(group, instances):
    """One request per primitive, exercising src/dst/payload paths."""
    elems = SIZE // 8
    scatter_payload = {inst: np.arange(group * elems, dtype=np.int64) + inst
                       for inst in range(instances)}
    bcast_payload = {inst: np.arange(elems, dtype=np.int64) - inst
                     for inst in range(instances)}
    return [
        CommRequest("alltoall", DIMS, SIZE, src_offset=0, dst_offset=8192),
        CommRequest("allgather", DIMS, SIZE, src_offset=0,
                    dst_offset=16384),
        CommRequest("reduce_scatter", DIMS, SIZE, src_offset=0,
                    dst_offset=8192),
        CommRequest("allreduce", DIMS, SIZE, src_offset=4096,
                    dst_offset=8192),
        CommRequest("gather", DIMS, SIZE, src_offset=4096),
        CommRequest("reduce", DIMS, SIZE, src_offset=20480),
        CommRequest("scatter", DIMS, SIZE, dst_offset=24576,
                    payloads=scatter_payload),
        CommRequest("broadcast", DIMS, SIZE, dst_offset=28672,
                    payloads=bcast_payload),
    ]


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
class TestServingParity:
    def test_bit_identical_results_and_ledgers(self, backend):
        from repro.dtypes import INT64

        def build():
            manager = make_manager((8, 4), mram_bytes=1 << 16)
            values = np.arange(SIZE // 8, dtype=np.int64)
            for pe in manager.all_pes:
                for offset in (0, 4096, 20480):
                    manager.system.write_elements(pe, offset, values + pe,
                                                  INT64)
            return manager

        solo_manager, served_manager = build(), build()
        group = 8
        instances = len(solo_manager.all_pes) // group
        config = parity_config(backend)

        solo = Communicator(solo_manager, config)
        solo_results = [solo.submit([req]).futures[0].result()
                        for req in _parity_requests(group, instances)]

        async def serve():
            server = CollectiveServer(served_manager, config)
            session = server.session("tenant")
            futures = [session.submit(req)
                       for req in _parity_requests(group, instances)]
            await server.drain()
            return [await f for f in futures]

        served_results = asyncio.run(serve())

        for solo_result, served_result in zip(solo_results, served_results):
            assert served_result.ledger.total \
                == pytest.approx(solo_result.ledger.total, rel=0, abs=0)
            if solo_result.host_outputs is None:
                assert served_result.host_outputs is None
            else:
                for inst, expected in solo_result.host_outputs.items():
                    np.testing.assert_array_equal(
                        served_result.host_outputs[inst], expected)
        # Whole-MRAM bit identity on every PE.
        for pe in solo_manager.all_pes:
            np.testing.assert_array_equal(
                served_manager.system.memory(pe).read(0, 1 << 16),
                solo_manager.system.memory(pe).read(0, 1 << 16))
        # Ledger totals aggregate identically too.
        assert sum(r.seconds for r in served_results) \
            == pytest.approx(sum(r.seconds for r in solo_results))


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def _run(self, seed=3):
        async def scenario():
            server = analytic_server(max_queue_depth=256)
            gen = LoadGenerator(
                server,
                [TenantLoad("dlrm", "dlrm_burst", weight=2.0),
                 TenantLoad("gnn", "gnn_epoch"),
                 TenantLoad("bfs", "bfs_frontier", priority=2)],
                dims=DIMS, seed=seed)
            return await gen.run(rounds=3)
        return asyncio.run(scenario())

    def test_all_mixes_complete(self):
        report = self._run()
        assert set(report["tenants"]) == {"dlrm", "gnn", "bfs"}
        for tenant in report["tenants"].values():
            assert tenant["completed"] == tenant["submitted"] > 0
            assert tenant["p99_ms"] >= tenant["p50_ms"] > 0
        assert report["goodput_bytes_per_second"] > 0
        assert report["clock_seconds"] > 0

    def test_reproducible_per_seed(self):
        assert self._run(seed=11) == self._run(seed=11)

    def test_mix_registry(self):
        assert set(MIXES) == {"dlrm_burst", "gnn_epoch", "bfs_frontier",
                              "moe_route"}
        with pytest.raises(ValueError, match="unknown mix"):
            TenantLoad("x", "mapreduce")

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("t", weight=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("", priority=1)
