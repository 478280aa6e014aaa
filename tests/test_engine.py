"""The execution engine: plan cache, batched submission, overlap pricing.

Covers the ISSUE acceptance criteria directly:

* steady-state repeated collectives through a :class:`Communicator`
  perform **zero re-planning** (the cache-hit counter is asserted);
* a batch of data-independent group instances prices **strictly
  cheaper** than the serial sum of its members while staying
  **bit-exact** against ``core/reference.py``.
"""

import numpy as np
import pytest

from repro import (
    BASELINE,
    FULL,
    PR_ONLY,
    BatchResult,
    CommRequest,
    Communicator,
    PlanCache,
    SessionConfig,
)
from repro.analysis.trace import render_batch_timeline, trace_batch
from repro.apps.base import AppHarness, PidCommBackend
from repro.core import reference as ref
from repro.dtypes import INT32, INT64
from repro.engine import schedule_waves
from repro.engine.request import Footprint
from repro.engine.stats import EngineStats
from repro.errors import CollectiveError, PidCommError
from repro.hw.timing import CostLedger

from .helpers import fill_group_inputs, groups_of, make_manager


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def seeded_setup(dims="010", chunk_elems=2, shape=(4, 4, 2), seed=7):
    """A manager with random int64 inputs written at a fresh src buffer."""
    rng = np.random.default_rng(seed)
    manager = make_manager(shape)
    system = manager.system
    groups = groups_of(manager, dims)
    n = groups[0].size
    elems = n * chunk_elems
    total = elems * INT64.itemsize
    src = system.alloc(total)
    dst = system.alloc(n * total)  # roomy enough for allgather too
    inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)
    return manager, groups, total, src, dst, inputs


# ----------------------------------------------------------------------
# CostLedger.merge_concurrent
# ----------------------------------------------------------------------
class TestMergeConcurrent:
    def test_overlappable_max_others_sum(self):
        a = CostLedger()
        a.add("bus", 3.0)
        a.add("pe", 1.0)
        a.add("dt", 2.0)
        b = CostLedger()
        b.add("bus", 1.0)
        b.add("pe", 4.0)
        b.add("dt", 5.0)
        merged = CostLedger.merge_concurrent([a, b])
        assert merged.seconds["bus"] == 3.0   # max
        assert merged.seconds["pe"] == 4.0    # max
        assert merged.seconds["dt"] == 7.0    # sum (host-core bound)

    def test_launch_paid_once(self):
        ledgers = []
        for _ in range(5):
            lg = CostLedger()
            lg.add("launch", 0.25)
            ledgers.append(lg)
        assert CostLedger.merge_concurrent(ledgers).total == 0.25

    def test_identity_on_single_ledger(self):
        lg = CostLedger()
        lg.add("bus", 1.5)
        lg.add("host_mem", 0.5)
        merged = CostLedger.merge_concurrent([lg])
        assert merged.total == pytest.approx(lg.total)

    def test_never_exceeds_serial_sum(self):
        a = CostLedger()
        a.add("bus", 2.0)
        b = CostLedger()
        b.add("host_reduce", 3.0)
        merged = CostLedger.merge_concurrent([a, b])
        assert merged.total <= a.total + b.total

    def test_custom_overlappable_categories(self):
        a = CostLedger()
        a.add("dt", 2.0)
        b = CostLedger()
        b.add("dt", 3.0)
        merged = CostLedger.merge_concurrent([a, b], overlappable=("dt",))
        assert merged.total == 3.0


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_and_miss_counters(self):
        cache = PlanCache()
        built = []
        key = ("k",)
        assert cache.fetch(key, lambda: built.append(1) or "plan") \
            == ("plan", False)
        assert cache.fetch(key, lambda: built.append(1) or "plan") \
            == ("plan", True)
        assert (cache.hits, cache.misses, len(built)) == (1, 1, 1)
        assert cache.hit_rate == 0.5
        assert key in cache and len(cache) == 1

    def test_lru_eviction_at_maxsize(self):
        cache = PlanCache(maxsize=2)
        cache.fetch("a", lambda: 1)
        cache.fetch("b", lambda: 2)
        cache.fetch("a", lambda: 1)   # refresh "a"
        cache.fetch("c", lambda: 3)   # evicts "b", the LRU entry
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.fetch("a", lambda: 1)
        cache.fetch("a", lambda: 1)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache.hit_rate == 0.0

    def test_plan_key_built_once_and_fresh_after_replace(self):
        from dataclasses import replace
        manager = make_manager((4, 8))
        req = CommRequest("alltoall", "10", 256).normalize(manager, FULL)
        key = req.plan_key
        assert req.plan_key is key          # computed once per request
        rung = replace(req, config=BASELINE)
        assert rung.plan_key is not key and rung.plan_key.variant is BASELINE
        assert rung.plan_key == replace(key, variant=BASELINE)


# ----------------------------------------------------------------------
# Communicator: cache semantics (ISSUE acceptance: zero re-planning)
# ----------------------------------------------------------------------
class TestCommunicatorCache:
    def test_steady_state_zero_replanning(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        results = [comm.allreduce("010", total, src_offset=src,
                                  dst_offset=dst) for _ in range(6)]
        # One compile, five hits: the steady state never re-plans.
        assert comm.cache.misses == 1
        assert comm.cache.hits == 5
        assert not results[0].cached
        assert all(r.cached for r in results[1:])
        # Identical object, not an equal rebuild.
        assert all(r.plan is results[0].plan for r in results)

    def test_differing_optconfig_misses(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.alltoall("010", total, src_offset=src, dst_offset=dst)
        comm.alltoall("010", total, src_offset=src, dst_offset=dst,
                      config=BASELINE)
        comm.alltoall("010", total, src_offset=src, dst_offset=dst,
                      config=PR_ONLY)
        assert comm.cache.misses == 3 and comm.cache.hits == 0

    def test_differing_dtype_misses(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.alltoall("010", total, src_offset=src, dst_offset=dst)
        comm.alltoall("010", total, src_offset=src, dst_offset=dst,
                      data_type=INT32)
        assert comm.cache.misses == 2 and comm.cache.hits == 0

    def test_equivalent_dims_spellings_share_a_plan(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.alltoall("010", total, src_offset=src, dst_offset=dst)
        comm.alltoall([1], total, src_offset=src, dst_offset=dst)
        assert comm.cache.hits == 1

    def test_irrelevant_op_coalesces_for_nonarithmetic(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.submit([CommRequest("alltoall", "010", total, src_offset=src,
                                 dst_offset=dst, reduction_type="sum"),
                     CommRequest("alltoall", "010", total, src_offset=src,
                                 dst_offset=dst, reduction_type="min")],
                    functional=False)
        assert comm.cache.misses == 1 and comm.cache.hits == 1

    def test_cached_functional_result_stays_bit_exact(self):
        manager, groups, total, src, dst, inputs = seeded_setup()
        comm = Communicator(manager)
        n = groups[0].size
        elems = total // INT64.itemsize
        for repeat in range(3):
            comm.alltoall("010", total, src_offset=src, dst_offset=dst)
            for group in groups:
                expect = ref.alltoall(inputs[group.instance])
                for pe, want in zip(group.pe_ids, expect):
                    got = manager.system.read_elements(pe, dst, elems, INT64)
                    np.testing.assert_array_equal(got, want)
        assert comm.cache.misses == 1 and comm.cache.hits == 2
        assert n > 1  # a real exchange, not a degenerate copy

    def test_scatter_plans_cached_payload_free(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "101")
        n = groups[0].size
        dst = system.alloc(16)
        comm = Communicator(manager)
        for _ in range(2):  # fresh payloads each call, same cached plan
            payloads = {g.instance:
                        rng.integers(0, 99, n * 2).astype(np.int64)
                        for g in groups}
            comm.scatter("101", 16, dst_offset=dst, payloads=payloads)
            for group in groups:
                expect = ref.scatter(payloads[group.instance], n)
                for pe, want in zip(group.pe_ids, expect):
                    np.testing.assert_array_equal(
                        system.read_elements(pe, dst, 2, INT64), want)
        assert comm.cache.misses == 1 and comm.cache.hits == 1

    def test_functional_scatter_without_payloads_rejected(self):
        manager = make_manager((4, 4, 2))
        manager.system.alloc(16)
        comm = Communicator(manager)
        with pytest.raises(CollectiveError, match="payloads"):
            comm.scatter("100", 16)


# ----------------------------------------------------------------------
# Batched submission
# ----------------------------------------------------------------------
def independent_batch(k=3, dims="010", chunk_elems=2, seed=7):
    """k alltoall requests over disjoint buffer pairs on one manager."""
    rng = np.random.default_rng(seed)
    manager = make_manager((4, 4, 2), mram_bytes=1 << 18)
    system = manager.system
    groups = groups_of(manager, dims)
    n = groups[0].size
    elems = n * chunk_elems
    total = elems * INT64.itemsize
    requests, buffers, inputs = [], [], []
    for _ in range(k):
        src, dst = system.alloc(total), system.alloc(total)
        inputs.append(fill_group_inputs(system, groups, src, elems, INT64,
                                        rng))
        buffers.append((src, dst))
        requests.append(CommRequest("alltoall", dims, total, src_offset=src,
                                    dst_offset=dst))
    return manager, groups, elems, requests, buffers, inputs


class TestBatchSubmit:
    def test_independent_batch_single_wave(self):
        manager, _, _, requests, _, _ = independent_batch()
        batch = Communicator(manager).submit(requests, functional=False)
        assert batch.waves == [[0, 1, 2]]

    def test_independent_batch_strictly_cheaper_than_serial(self):
        """ISSUE acceptance: overlap pricing beats the serial sum."""
        manager, _, _, requests, _, _ = independent_batch()
        batch = Communicator(manager).submit(requests, functional=False)
        assert batch.seconds < batch.serial_seconds
        assert batch.speedup > 1.0
        # Overlap can never price below the slowest member.
        slowest = max(f.result().seconds for f in batch)
        assert batch.seconds >= slowest

    def test_independent_batch_bit_exact(self):
        """ISSUE acceptance: batched execution matches the reference."""
        manager, groups, elems, requests, buffers, inputs = \
            independent_batch()
        Communicator(manager).submit(requests)
        for k, (_, dst) in enumerate(buffers):
            for group in groups:
                expect = ref.alltoall(inputs[k][group.instance])
                for pe, want in zip(group.pe_ids, expect):
                    got = manager.system.read_elements(pe, dst, elems, INT64)
                    np.testing.assert_array_equal(got, want)

    def test_dependent_chain_serializes_without_discount(self):
        manager, _, _, requests, buffers, _ = independent_batch(k=2)
        # Rewrite request 1 to read what request 0 writes: a RAW hazard.
        chained = [requests[0],
                   CommRequest("alltoall", "010",
                               requests[0].total_data_size,
                               src_offset=buffers[0][1],
                               dst_offset=buffers[1][1])]
        batch = Communicator(manager).submit(chained, functional=False)
        assert batch.waves == [[0], [1]]
        assert batch.seconds == pytest.approx(batch.serial_seconds)
        assert batch.speedup == pytest.approx(1.0)

    def test_estimate_matches_execution(self):
        """Analytic submit prices exactly what functional submit pays."""
        setup_a = independent_batch()
        setup_b = independent_batch()
        functional = Communicator(setup_a[0]).submit(setup_a[3])
        analytic = Communicator(setup_b[0]).submit(setup_b[3],
                                                   functional=False)
        assert functional.seconds == pytest.approx(analytic.seconds)
        assert functional.serial_seconds == pytest.approx(
            analytic.serial_seconds)
        assert functional.waves == analytic.waves

    def test_batch_equals_sum_of_wave_costs(self):
        manager, _, _, requests, buffers, _ = independent_batch(k=3)
        chained = list(requests[:2]) + [
            CommRequest("alltoall", "010", requests[0].total_data_size,
                        src_offset=buffers[0][1], dst_offset=buffers[2][1])]
        batch = Communicator(manager).submit(chained, functional=False)
        assert len(batch.wave_costs) == 2
        assert batch.seconds == pytest.approx(
            sum(c.ledger.total for c in batch.wave_costs))

    def test_futures_resolve_in_submission_order(self):
        manager, _, _, requests, _, _ = independent_batch()
        batch = Communicator(manager).submit(requests, functional=False)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 3
        assert [f.index for f in batch] == [0, 1, 2]
        assert all(f.done() for f in batch)
        assert all(f.result().seconds > 0 for f in batch)
        assert "alltoall" in batch[0].label
        assert len(batch.results()) == 3
        assert "requests" in repr(batch) and "done" in repr(batch[0])

    def test_unresolved_future_raises(self):
        from repro.engine.result import CommFuture
        future = CommFuture(index=0, label="alltoall", wave=0)
        assert not future.done()
        with pytest.raises(PidCommError, match="no result yet"):
            future.result()

    def test_empty_submit_rejected(self):
        manager = make_manager((4, 4, 2))
        with pytest.raises(CollectiveError, match="at least one"):
            Communicator(manager).submit([])

    def test_inplace_source_counts_as_hazard(self):
        # allreduce permutes its src in place; a second request reading
        # the same src region must not share its wave.
        reqs = [CommRequest("allreduce", "010", 64, src_offset=0,
                            dst_offset=1024),
                CommRequest("gather", "010", 64, src_offset=0)]
        manager = make_manager((4, 4, 2))
        normalized = [r.normalize(manager,
                                  Communicator(manager).config)
                      for r in reqs]
        assert schedule_waves(normalized) == [[0], [1]]

    def test_footprint_overlap_rules(self):
        a = Footprint(reads=((0, 64),), writes=((64, 64),))
        b = Footprint(reads=((128, 64),), writes=((192, 64),))
        assert not a.conflicts_with(b)
        raw = Footprint(reads=((64, 8),), writes=())     # reads a's write
        war = Footprint(reads=(), writes=((0, 8),))      # writes a's read
        waw = Footprint(reads=(), writes=((120, 16),))   # overlaps a's write
        for other in (raw, war, waw):
            assert a.conflicts_with(other)
            assert other.conflicts_with(a)


# ----------------------------------------------------------------------
# Instrumentation: EngineStats, harness integration, batch timelines
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_stats_counters_and_report(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        for _ in range(3):
            comm.allreduce("010", total, src_offset=src, dst_offset=dst)
        stats = comm.stats
        assert stats.calls == 3
        assert stats.plans_compiled == 1 and stats.cache_hits == 2
        assert stats.cache_misses == 1
        assert stats.cache_hit_rate == pytest.approx(2 / 3)
        assert stats.per_primitive_calls == {"allreduce": 3}
        assert stats.modelled_seconds > 0 and stats.bytes_moved > 0
        report = stats.report()
        assert "plans compiled  1" in report
        assert "allreduce" in report and "per category:" in report
        snap = stats.snapshot()
        assert snap["calls"] == 3 and snap["cache_hits"] == 2

    def test_batch_overlap_credit_recorded(self):
        manager, _, _, requests, _, _ = independent_batch()
        comm = Communicator(manager, SessionConfig(functional=False))
        batch = comm.submit(requests)
        assert comm.stats.batches == 1 and comm.stats.waves == 1
        assert comm.stats.overlap_saved_seconds == pytest.approx(
            batch.serial_seconds - batch.seconds)

    def test_reset_stats_keeps_cache(self):
        manager, _, total, src, dst, _ = seeded_setup()
        comm = Communicator(manager, SessionConfig(functional=False))
        comm.alltoall("010", total, src_offset=src, dst_offset=dst)
        comm.reset_stats()
        assert comm.stats.calls == 0 and len(comm.cache) == 1
        comm.alltoall("010", total, src_offset=src, dst_offset=dst)
        assert comm.stats.cache_hits == 1
        assert "cached plans" in comm.describe()

    def test_comm_result_repr_and_breakdown(self):
        manager, _, total, src, dst, _ = seeded_setup()
        result = Communicator(manager, SessionConfig(functional=False)).allreduce(
            "010", total, src_offset=src, dst_offset=dst)
        assert result.breakdown == result.ledger.breakdown()
        assert "CommResult(allreduce" in repr(result)
        again = Communicator(manager, SessionConfig(functional=False))
        again.allreduce("010", total, src_offset=src, dst_offset=dst)
        cached = again.allreduce("010", total, src_offset=src,
                                 dst_offset=dst)
        assert "cached plan" in repr(cached)

    def test_harness_caches_repeated_shapes(self):
        manager, _, total, src, dst, _ = seeded_setup()
        harness = AppHarness(manager, PidCommBackend(FULL),
                             functional=False)
        for _ in range(4):
            harness.comm_cost_only("allreduce", "010", total, src, dst)
        cache = harness.session.cache
        assert cache.misses == 1 and cache.hits == 3
        assert harness.stats is harness.session.stats
        result = harness.result("unit-test")
        engine = result.meta["engine"]
        assert engine["plans_compiled"] == 1 and engine["cache_hits"] == 3

    def test_batch_timeline_rendering(self):
        manager, _, _, requests, buffers, _ = independent_batch(k=3)
        chained = list(requests[:2]) + [
            CommRequest("alltoall", "010", requests[0].total_data_size,
                        src_offset=buffers[0][1], dst_offset=buffers[2][1],
                        tag="drain")]
        batch = Communicator(manager).submit(chained, functional=False)
        traces = trace_batch(batch)
        assert [t.index for t in traces] == [0, 1]
        assert traces[0].overlap_saved > 0      # two overlapped instances
        assert traces[1].overlap_saved == 0.0   # a wave of one
        text = render_batch_timeline(batch)
        assert text.startswith("Batch(3 requests, 2 waves)")
        assert "wave 0" in text and "wave 1" in text
        assert "hides" in text and "drain[d" in text

    def test_stats_default_state(self):
        stats = EngineStats()
        assert stats.cache_hit_rate == 0.0
        assert "calls           0" in stats.report()


# ----------------------------------------------------------------------
# Per-call payloads
# ----------------------------------------------------------------------
#: A compiling session and the interpreted oracle: the two engines
#: that read a call's payloads from its execution context.
PAYLOAD_ENGINES = ("auto", "interpreted")


class TestCallPayloads:
    SIZE = 16

    def _setup(self, execution, primitive, rng):
        """Session, PEs, scratch-filled MRAM and good payloads for a
        16-byte ``primitive`` on the (4, 4, 2) cube's ``"101"`` (four
        groups of eight PEs)."""
        manager = make_manager((4, 4, 2))
        system = manager.system
        comm = Communicator(manager, SessionConfig(execution=execution))
        pes = list(manager.all_pes)
        system.poke_rows(pes, 0, rng.integers(
            0, 256, (len(pes), system.mram_bytes), dtype=np.uint8))
        groups = groups_of(manager, "101")
        elems = self.SIZE // 8 * (groups[0].size if primitive == "scatter"
                                  else 1)
        payloads = {g.instance: rng.integers(0, 99, elems).astype(np.int64)
                    for g in groups}
        return manager, comm, pes, payloads

    @pytest.mark.parametrize("execution", PAYLOAD_ENGINES)
    def test_result_plan_is_the_cached_plan(self, execution, rng):
        manager, comm, _, payloads = self._setup(execution, "scatter", rng)
        dst = manager.system.alloc(self.SIZE)
        result = comm.scatter("101", self.SIZE, dst_offset=dst,
                              payloads=payloads)
        [entry] = comm.cache._plans.values()
        assert result.plan is entry.plan

    @pytest.mark.parametrize("defect", ["missing", "short"])
    @pytest.mark.parametrize("primitive", ["scatter", "broadcast"])
    @pytest.mark.parametrize("execution", PAYLOAD_ENGINES)
    def test_malformed_payload_raises_before_any_write(
            self, execution, primitive, defect, rng):
        """A missing or short last instance is a ``PidCommError`` that
        leaves MRAM byte-identical, and in a batch fails only its own
        member."""
        manager, comm, pes, good = self._setup(execution, primitive, rng)
        system = manager.system
        bad = dict(good)
        last = max(bad)
        if defect == "missing":
            del bad[last]
        else:
            bad[last] = bad[last][:-1]
        dst = system.alloc(self.SIZE)
        before = system.peek_rows(pes, 0, system.mram_bytes)
        with pytest.raises(PidCommError):
            getattr(comm, primitive)("101", self.SIZE, dst_offset=dst,
                                     payloads=bad)
        assert np.array_equal(system.peek_rows(pes, 0, system.mram_bytes),
                              before)
        first_dst = system.alloc(self.SIZE)
        batch = comm.submit([
            CommRequest(primitive, "101", self.SIZE, dst_offset=first_dst,
                        payloads=good),
            CommRequest(primitive, "101", self.SIZE, dst_offset=dst,
                        payloads=bad)])
        batch[0].result()
        with pytest.raises(PidCommError):
            batch[1].result()
        assert np.array_equal(system.peek_rows(pes, dst, self.SIZE),
                              before[:, dst:dst + self.SIZE])
