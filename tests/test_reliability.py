"""Fault injection, retry, and graceful degradation tests.

One class per fault class (bit flip / drop / timeout / permanent rank
failure), plus the engine-level retry loop, the hypercube remap, and
the plan-cache keying that keeps degraded plans apart from healthy
ones.
"""

import numpy as np
import pytest

from .helpers import (COMPILED_STORES, fill_group_inputs, groups_of,
                      make_manager, parity_config)

from repro import (
    Communicator,
    DimmGeometry,
    DimmSystem,
    FAIL_FAST,
    FaultInjector,
    FaultSpec,
    HypercubeManager,
    PlanCache,
    ReliabilityPolicy,
    SessionConfig,
)
from repro.core import reference as ref
from repro.core.collectives.plan import ExecContext
from repro.core.collectives import program as program_mod
from repro.core.collectives.program import (FanoutScratchOp, ReduceFoldOp,
                                            compile_plan)
from repro.core.groups import member_pes
from repro.core.hypercube import HypercubeManager as HM
from repro.dtypes import INT64, SUM
from repro.engine.request import CommRequest
from repro.hw.arena import Region, ScratchPool
from repro.errors import (
    ChecksumError,
    FaultBudgetExceeded,
    HypercubeError,
    RankFailure,
    ReliabilityError,
    TransferDropped,
)
from repro.reliability import RetryPolicy, checksum, guarded_delivery
from repro.reliability.faults import partial_prefix


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ----------------------------------------------------------------------
# Fault specification and injector mechanics
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ReliabilityError):
            FaultSpec(bit_flip_rate=1.5)
        with pytest.raises(ReliabilityError):
            FaultSpec(drop_rate=-0.1)
        FaultSpec(timeout_rate=1.0)  # always-fault is legal (tests)

    def test_transient_total(self):
        spec = FaultSpec(bit_flip_rate=0.01, drop_rate=0.02,
                         timeout_rate=0.03)
        assert spec.transient_total == pytest.approx(0.06)

    def test_spec_and_rates_mutually_exclusive(self):
        with pytest.raises(ReliabilityError):
            FaultInjector(FaultSpec(), bit_flip_rate=0.1)


class TestInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        buf = np.arange(64, dtype=np.uint8)
        runs = []
        for _ in range(2):
            inj = FaultInjector(seed=42, bit_flip_rate=0.5, drop_rate=0.5)
            outs = [inj.corrupt_transfer(buf).tobytes() for _ in range(10)]
            drops = [inj.take_drop() for _ in range(10)]
            runs.append((outs, drops, dict(inj.injected)))
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        buf = np.arange(256, dtype=np.uint8)
        a = FaultInjector(seed=1, bit_flip_rate=0.5)
        b = FaultInjector(seed=2, bit_flip_rate=0.5)
        outs_a = [a.corrupt_transfer(buf).tobytes() for _ in range(20)]
        outs_b = [b.corrupt_transfer(buf).tobytes() for _ in range(20)]
        assert outs_a != outs_b

    def test_corruption_flips_exactly_one_bit(self):
        inj = FaultInjector(seed=0, bit_flip_rate=0.999)
        buf = np.zeros(32, dtype=np.int64)
        for _ in range(50):
            out = inj.corrupt_transfer(buf)
            flipped = np.unpackbits(out.view(np.uint8)).sum()
            assert flipped in (0, 1)  # untouched or exactly one bit
        assert inj.injected["bit_flip"] > 0

    def test_partial_prefix(self):
        assert partial_prefix([1, 2, 3, 4]) == [1, 2]
        assert partial_prefix([5]) == [5]
        assert partial_prefix([]) == []


# ----------------------------------------------------------------------
# Fault class: bit flips (detected by checksums)
# ----------------------------------------------------------------------
class TestBitFlips:
    def test_checksum_detects_any_corruption(self):
        buf = np.arange(128, dtype=np.int64)
        crc = checksum(buf)
        corrupted = buf.copy()
        corrupted[13] ^= 1
        assert checksum(corrupted) != crc

    def test_guarded_delivery_raises_never_commits(self):
        inj = FaultInjector(seed=0, bit_flip_rate=0.999)
        buf = np.arange(64, dtype=np.uint8)
        raised = 0
        for _ in range(20):
            try:
                out = guarded_delivery(inj, buf)
            except ChecksumError:
                raised += 1
            else:
                # no fault fired: delivery must be byte-identical
                np.testing.assert_array_equal(out, buf)
        assert raised > 0


class FlipAt:
    """Stub link: flips bit ``bit`` of byte ``byte`` of a delivery's
    contiguous byte image, in a copy, exactly as the injector does."""

    def __init__(self, byte, bit):
        self.byte, self.bit = byte, bit

    def take_drop(self):
        return False

    def corrupt_transfer(self, buf):
        arr = np.ascontiguousarray(buf)
        image = arr.reshape(-1).view(np.uint8).copy()
        image[self.byte] ^= np.uint8(1 << self.bit)
        return image.view(arr.dtype).reshape(arr.shape)


def _deliveries():
    """A contiguous buffer, a strided lane-matrix view and a transposed
    int32 view: the layouts the transfer kernels hand the link."""
    lanes = np.random.default_rng(3).integers(0, 256, (12, 64), np.uint8)
    return {
        "contiguous": np.arange(96, dtype=np.uint8),
        "lane_view": lanes[::2, 8:24],
        "transposed": np.arange(48, dtype=np.int32).reshape(6, 8).T,
    }


class TestLazyCrc:
    """The CRC pair runs only for deliveries the link corrupted; these
    pin what that relies on and what it must keep."""

    @pytest.mark.parametrize("layout", sorted(_deliveries()))
    def test_every_single_bit_flip_is_caught(self, layout):
        buf = _deliveries()[layout]
        intact = buf.copy()
        for byte in range(buf.nbytes):
            for bit in range(8):
                with pytest.raises(ChecksumError):
                    guarded_delivery(FlipAt(byte, bit), buf)
        np.testing.assert_array_equal(buf, intact)

    @pytest.mark.parametrize("layout", sorted(_deliveries()))
    def test_corrupt_transfer_copies_exactly_when_it_flips(self, layout):
        buf = _deliveries()[layout]
        intact = buf.copy()
        injector = FaultInjector(seed=1, bit_flip_rate=0.3)
        copies = 0
        for _ in range(100):
            flips = injector.injected["bit_flip"]
            out = injector.corrupt_transfer(buf)
            np.testing.assert_array_equal(buf, intact)  # never mutated
            flipped = injector.injected["bit_flip"] > flips
            assert (out is not buf) == flipped
            if flipped:
                copies += 1
                assert out.shape == buf.shape and out.dtype == buf.dtype
        assert 0 < copies < 100
        # A link that cannot corrupt, or nothing to corrupt: no copy.
        assert FaultInjector(seed=1).corrupt_transfer(buf) is buf
        empty = buf[:0]
        assert FaultInjector(seed=1, bit_flip_rate=1.0).corrupt_transfer(
            empty) is empty

    #: ``reliable_replay``'s schedule over 40 calls, recorded while the
    #: CRC pair still ran on every delivery: call -> (attempts, faults
    #: seen) for each call that saw a fault, and the injector's totals.
    SCHEDULES = {
        20240408: ({0: (2, ("timeout",)), 5: (2, ("bit_flip",)),
                    18: (2, ("drop",)), 31: (2, ("drop",))},
                   {"bit_flip": 1, "drop": 2, "timeout": 1}),
        3: ({1: (2, ("bit_flip",)), 9: (2, ("bit_flip",)),
             25: (2, ("bit_flip",)), 28: (2, ("bit_flip",)),
             33: (2, ("drop",)), 39: (2, ("bit_flip",))},
            {"bit_flip": 5, "drop": 1, "timeout": 0}),
    }

    @pytest.mark.parametrize("seed", sorted(SCHEDULES))
    def test_fault_schedule_is_pinned(self, seed):
        """16x16 cube, AlltoAll/AllReduce/ReduceScatter/AllGather at
        4 KiB under the ~1 %/operation mix: a CRC draws no randomness,
        so when it runs cannot move a fault."""
        size = 4 << 10
        system = DimmSystem(DimmGeometry(2, 2, 8, 8), mram_bytes=2 * size,
                            backend="vectorized")
        manager = HypercubeManager(system, shape=(16, 16))
        injector = FaultInjector(seed=seed, **MIXED_RATES)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        values = np.random.default_rng(seed).integers(
            1, 100, (len(manager.all_pes), size // 8))
        system.scatter_elements(manager.all_pes, 0, list(values), INT64)
        faulted = {}
        for call in range(40):
            primitive = ("alltoall", "allreduce", "reduce_scatter",
                         "allgather")[call % 4]
            arg = size // 16 if primitive == "allgather" else size
            result = getattr(comm, primitive)(
                "10", arg, src_offset=0, dst_offset=size, data_type=INT64)
            if result.attempts > 1 or result.faults_seen:
                faulted[call] = (result.attempts, tuple(result.faults_seen))
        calls, totals = self.SCHEDULES[seed]
        assert faulted == calls
        assert injector.injected == {**totals, "rank_failure": 0}


# ----------------------------------------------------------------------
# Fault class: launch timeouts (and the retry/backoff machinery)
# ----------------------------------------------------------------------
class TestTimeouts:
    def test_backoff_sequence_caps(self):
        policy = RetryPolicy(backoff_base_s=1e-4, backoff_factor=2.0,
                             backoff_cap_s=3e-4)
        assert policy.backoff(1) == pytest.approx(1e-4)
        assert policy.backoff(2) == pytest.approx(2e-4)
        assert policy.backoff(3) == pytest.approx(3e-4)  # capped
        assert policy.backoff(9) == pytest.approx(3e-4)

    def test_policy_validated(self):
        with pytest.raises(ReliabilityError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReliabilityError):
            RetryPolicy(backoff_factor=0.5)

    def test_engine_retries_timeouts_to_success(self, rng):
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=3, timeout_rate=0.2)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        groups = groups_of(manager, "11")
        src = system.alloc(1 << 10)
        dst = system.alloc(1 << 10)
        inputs = fill_group_inputs(system, groups, src, 128, INT64, rng)
        result = comm.allreduce("11", 1 << 10, src_offset=src,
                                dst_offset=dst)
        assert result.attempts > 1
        assert "timeout" in result.faults_seen
        assert result.ledger.seconds["retry"] > 0.0
        assert comm.stats.retries == result.attempts - 1
        assert comm.stats.backoff_seconds > 0.0
        want = ref.allreduce(inputs[0], SUM)
        for pe, expect in zip(groups[0].pe_ids, want):
            np.testing.assert_array_equal(
                system.read_elements(pe, dst, 128, INT64), expect)

    def test_attempt_cap_exhausts(self):
        manager = make_manager((4, 8))
        injector = FaultInjector(seed=0, timeout_rate=0.95)
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3))
        comm = Communicator(manager, SessionConfig(reliability=policy,
                            fault_injector=injector))
        src = manager.system.alloc(256)
        with pytest.raises(FaultBudgetExceeded):
            comm.allreduce("11", 256, src_offset=src, dst_offset=src)

    def test_fault_budget_exhausts(self):
        manager = make_manager((4, 8))
        injector = FaultInjector(seed=0, timeout_rate=0.95)
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=50, fault_budget=2))
        comm = Communicator(manager, SessionConfig(reliability=policy,
                            fault_injector=injector))
        src = manager.system.alloc(256)
        with pytest.raises(FaultBudgetExceeded, match="budget"):
            comm.allreduce("11", 256, src_offset=src, dst_offset=src)


# ----------------------------------------------------------------------
# Snapshot/restore correctness for in-place primitives
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_inplace_reduce_scatter_retries_bit_exact(self, rng):
        # reduce_scatter permutes its *source* region in place; a retry
        # that does not rewind would reduce permuted data.  Sweep seeds
        # until a multi-attempt run occurs and require exactness.
        retried = False
        for seed in range(20):
            manager = make_manager((4, 8))
            system = manager.system
            injector = FaultInjector(seed=seed, timeout_rate=0.25)
            comm = Communicator(manager, SessionConfig(fault_injector=injector))
            groups = groups_of(manager, "11")
            n = groups[0].size
            elems = n * 2
            src = system.alloc(elems * 8)
            dst = system.alloc(elems * 8)
            inputs = fill_group_inputs(system, groups, src, elems, INT64,
                                       rng)
            result = comm.reduce_scatter("11", elems * 8, src_offset=src,
                                         dst_offset=dst)
            retried = retried or result.attempts > 1
            want = ref.reduce_scatter(inputs[0], SUM)
            for pe, expect in zip(groups[0].pe_ids, want):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, 2, INT64), expect)
        assert retried, "no seed in range produced a retry"


class TestWritesOnlySnapshot:
    """The rewind snapshot covers ``Footprint.writes`` only, in one
    session-owned buffer reused across calls."""

    CASES = {
        # primitive -> (kwargs, written spans of a 256 B/PE call)
        "allreduce": (dict(src_offset=0, dst_offset=256),
                      [(0, 256), (256, 256)]),
        "reduce_scatter": (dict(src_offset=0, dst_offset=256),
                           [(0, 256), (256, 8)]),
        "reduce": (dict(src_offset=0), [(0, 256)]),
    }

    @staticmethod
    def _session(backend, injector=None):
        manager = make_manager((4, 8))
        system = manager.system
        comm = Communicator(manager, parity_config(
            backend, execution="compiled", fault_injector=injector))
        inputs = np.random.default_rng(5).integers(
            1, 100, (manager.num_nodes, 32))
        system.scatter_elements(manager.all_pes, 0, list(inputs), INT64)
        return comm, system, manager.all_pes

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("primitive", sorted(CASES))
    def test_failed_inplace_attempt_restores_source(self, backend,
                                                    primitive):
        class DropSecondTransfer(FaultInjector):
            """Drops the second transfer: by then the preparation
            kernel has permuted the source region in place."""
            draws = 0

            def take_drop(self):
                self.draws += 1
                if self.draws == 2:
                    self.injected["drop"] += 1
                    return True
                return False

        kwargs, written = self.CASES[primitive]
        comm, system, pes = self._session(
            backend, DropSecondTransfer(seed=0, drop_rate=1e-12))
        before = system.peek_rows(pes, 0, 512)
        rewinds = []
        restore = comm._restore

        def spy(snapshot):
            dirty = system.peek_rows(pes, 0, 512)
            spans = [(region.offset, rows.shape[1])
                     for region, rows in snapshot]
            restore(snapshot)
            rewinds.append((dirty, spans, system.peek_rows(pes, 0, 512)))

        comm._restore = spy
        result = getattr(comm, primitive)("11", 256, **kwargs)
        assert result.attempts == 2 and result.faults_seen == ("drop",)
        (dirty, spans, rewound), = rewinds
        assert spans == written
        assert not np.array_equal(dirty[:, :256], before[:, :256])
        np.testing.assert_array_equal(rewound, before)
        # The retry then lands what an un-faulted twin session lands.
        twin, twin_system, _ = self._session(backend)
        want = getattr(twin, primitive)("11", 256, **kwargs)
        np.testing.assert_array_equal(system.peek_rows(pes, 0, 512),
                                      twin_system.peek_rows(pes, 0, 512))
        if primitive == "reduce":
            for inst, expect in want.host_outputs.items():
                np.testing.assert_array_equal(result.host_outputs[inst],
                                              expect)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_read_only_spans_are_not_copied_and_buffer_is_reused(
            self, backend):
        comm, system, pes = self._session(
            backend, FaultInjector(seed=0, drop_rate=1e-12))
        req = CommRequest("alltoall", "11", 256, src_offset=0,
                          dst_offset=256).normalize(
                              comm.manager, comm.config, backend=comm.backend)
        (region, rows), = comm._snapshot(req)
        assert (region.offset, rows.shape) == (256, (len(pes), 256))
        store = comm._snapshot_buf
        np.testing.assert_array_equal(rows, system.peek_rows(pes, 256, 256))
        (_, again), = comm._snapshot(req)
        assert comm._snapshot_buf is store
        assert np.shares_memory(again, store)


class TestSnapshotElision:
    """Healthy reliable runs must not pay for rewind snapshots.

    ``_snapshot_needed`` gates the per-attempt MRAM footprint snapshot
    on the injector actually being able to trigger a retry: non-zero
    transient rates or an already-failed rank.
    """

    def _count_snapshots(self, monkeypatch, injector, check=True):
        calls = [0]
        original = Communicator._snapshot

        def counting(self, req):
            calls[0] += 1
            return original(self, req)

        monkeypatch.setattr(Communicator, "_snapshot", counting)
        manager = make_manager((4, 8))
        system = manager.system
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        groups = groups_of(manager, "11")
        n = groups[0].size
        src = system.alloc(n * 2 * 8)
        dst = system.alloc(n * 2 * 8)
        inputs = fill_group_inputs(system, groups, src, n * 2, INT64,
                                   np.random.default_rng(3))
        comm.alltoall("11", n * 2 * 8, src_offset=src, dst_offset=dst)
        if check:
            want = ref.alltoall(inputs[0])
            for pe, expect in zip(groups[0].pe_ids, want):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, n * 2, INT64), expect)
        return calls[0]

    def test_zero_rate_injector_skips_snapshot(self, monkeypatch):
        assert self._count_snapshots(
            monkeypatch, FaultInjector(seed=1)) == 0

    def test_transient_rates_keep_snapshotting(self, monkeypatch):
        assert self._count_snapshots(
            monkeypatch,
            FaultInjector(seed=1, bit_flip_rate=0.001)) >= 1

    def test_failed_rank_keeps_snapshotting(self, monkeypatch):
        # Degraded runs remap PEs, so skip the healthy-reference check.
        injector = FaultInjector(seed=1)
        injector.fail_rank(0)
        assert self._count_snapshots(monkeypatch, injector,
                                     check=False) >= 1


# ----------------------------------------------------------------------
# Fault class: permanent rank failure -> graceful degradation
# ----------------------------------------------------------------------
class TestRankFailure:
    def test_failed_pes_covers_whole_rank(self):
        system = DimmSystem.small()
        injector = FaultInjector(seed=0)
        injector.fail_rank(1)
        dead = injector.failed_pes(system.geometry)
        per_rank = system.geometry.pes_per_rank
        assert dead == frozenset(range(per_rank, 2 * per_rank))

    def test_guard_raises_with_dead_pe_list(self):
        system = DimmSystem.small()
        injector = FaultInjector(seed=0)
        injector.fail_rank(0)
        with pytest.raises(RankFailure) as exc:
            injector.guard_pes(system.geometry, [0, 1, 31])
        assert exc.value.pe_ids == (0, 1)

    def test_without_pes_halves_widest_dimension(self):
        manager = make_manager((4, 8))
        shrunk = manager.without_pes(range(16, 32))
        assert shrunk.shape.dims == (4, 4)
        assert shrunk.all_pes == tuple(range(16))

    def test_without_pes_no_survivors(self):
        manager = make_manager((4, 8))
        with pytest.raises(HypercubeError):
            manager.without_pes(range(32))

    def test_pe_map_round_trip(self):
        system = DimmSystem.small()
        pes = tuple(range(8, 24))
        manager = HM(system, (4, 4), pe_map=pes)
        for node, pe in enumerate(pes):
            assert manager.pe_of_node(node) == pe
        assert manager.all_pes == pes
        assert 31 not in manager.pe_grid

    def test_pe_map_validated(self):
        system = DimmSystem.small()
        with pytest.raises(HypercubeError):
            HM(system, (4, 4), pe_map=(0,) * 16)  # duplicates
        with pytest.raises(HypercubeError):
            HM(system, (4, 4), pe_map=tuple(range(8)))  # wrong length

    def test_engine_degrades_and_stays_correct(self, rng):
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=0)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        src = system.alloc(256)
        dst = system.alloc(256)
        values = {pe: rng.integers(0, 99, 32).astype(np.int64)
                  for pe in manager.all_pes}
        for pe, vals in values.items():
            system.write_elements(pe, src, vals, INT64)
        injector.fail_rank(1)  # PEs 16..31 go dark
        result = comm.allreduce("11", 256, src_offset=src, dst_offset=dst)
        assert result.degraded
        assert result.attempts == 2
        assert "rank_failure" in result.faults_seen
        assert comm.degraded
        assert comm.stats.degradations == 1
        assert comm.manager.shape.dims == (4, 4)
        survivors = comm.manager.all_pes
        assert survivors == tuple(range(16))
        want = ref.allreduce([values[pe] for pe in survivors], SUM)
        for pe, expect in zip(survivors, want):
            np.testing.assert_array_equal(
                system.read_elements(pe, dst, 32, INT64), expect)

    def test_fail_fast_policy_propagates(self):
        manager = make_manager((4, 8))
        injector = FaultInjector(seed=0)
        comm = Communicator(manager, SessionConfig(reliability=FAIL_FAST,
                            fault_injector=injector))
        src = manager.system.alloc(256)
        injector.fail_rank(0)
        with pytest.raises(RankFailure):
            comm.allreduce("11", 256, src_offset=src, dst_offset=src)

    def test_member_pes_matches_manager(self):
        manager = make_manager((4, 8))
        assert member_pes(manager, "11") == tuple(range(32))
        assert member_pes(manager, "10") == tuple(range(32))


# ----------------------------------------------------------------------
# Plan-cache keying: degraded plans never alias healthy ones
# ----------------------------------------------------------------------
class TestDegradedCacheKeys:
    def test_topology_signature_changes_on_remap(self):
        manager = make_manager((4, 8))
        shrunk = manager.without_pes(range(16, 32))
        assert manager.topology_signature() != shrunk.topology_signature()
        # and a same-shape cube on different PEs differs too
        other = HM(manager.system, (4, 4),
                   pe_map=tuple(range(16, 32)))
        assert shrunk.topology_signature() != other.topology_signature()

    def test_plan_keys_never_alias(self):
        manager = make_manager((4, 8))
        shrunk = manager.without_pes(range(16, 32))
        request = CommRequest("allreduce", (0, 1), 256)
        comm = Communicator(manager)
        healthy = request.normalize(manager, comm.config).plan_key
        degraded = request.normalize(shrunk, comm.config).plan_key
        assert healthy != degraded
        assert healthy.topology != degraded.topology

    def test_degradation_adds_cache_entry(self, rng):
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=0)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        src = system.alloc(256)
        for pe in manager.all_pes:
            system.write_elements(pe, src,
                                  np.arange(32, dtype=np.int64), INT64)
        comm.allreduce("11", 256, src_offset=src, dst_offset=src)
        assert len(comm.cache) == 1
        injector.fail_rank(1)
        comm.allreduce("11", 256, src_offset=src, dst_offset=src)
        # healthy plan still cached, degraded plan cached separately
        assert len(comm.cache) == 2


# ----------------------------------------------------------------------
# PlanCache statistics (regression: per-lookup hit flag)
# ----------------------------------------------------------------------
class TestPlanCacheStats:
    def test_fetch_reports_per_lookup_hit(self):
        cache = PlanCache()
        key_a = ("a",)
        key_b = ("b",)
        plan, hit = cache.fetch(key_a, lambda: "plan-a")
        assert (plan, hit) == ("plan-a", False)
        plan, hit = cache.fetch(key_a, lambda: "plan-a2")
        assert (plan, hit) == ("plan-a", True)
        plan, hit = cache.fetch(key_b, lambda: "plan-b")
        assert (plan, hit) == ("plan-b", False)
        assert cache.hits == 1 and cache.misses == 2

    def test_nested_builder_lookup_does_not_lie(self):
        # The old hits-differencing idiom reported the *outer* miss as a
        # hit whenever the builder performed a hitting lookup of its
        # own.  fetch() must report each lookup's own outcome.
        cache = PlanCache()
        cache.fetch(("inner",), lambda: "inner-plan")

        def builder():
            inner, inner_hit = cache.fetch(("inner",), lambda: "x")
            assert inner_hit  # the nested lookup hits...
            return "outer-plan"

        plan, hit = cache.fetch(("outer",), builder)
        assert plan == "outer-plan"
        assert hit is False  # ...but the outer one is still a miss

    def test_engine_stats_match_cache_counters(self):
        manager = make_manager((4, 8))
        comm = Communicator(manager, SessionConfig(functional=False))
        for _ in range(3):
            comm.allreduce("11", 256, functional=False)
        assert comm.stats.plans_compiled == 1
        assert comm.stats.cache_hits == 2
        assert (comm.cache.hits, comm.cache.misses) == (2, 1)


# ----------------------------------------------------------------------
# Trace integration
# ----------------------------------------------------------------------
class TestTraceIntegration:
    def test_report_reliability_block(self, rng):
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=3, timeout_rate=0.2)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        assert "reliability:" not in comm.stats.report()
        src = system.alloc(1 << 10)
        fill_group_inputs(system, groups_of(manager, "11"), src, 128,
                          INT64, rng)
        comm.allreduce("11", 1 << 10, src_offset=src, dst_offset=src)
        text = comm.stats.report()
        assert f"retries         {comm.stats.retries}" in text
        assert "fault timeout" in text

    def test_batch_timeline_annotates_retries(self, rng):
        from repro.analysis.trace import render_batch_timeline, trace_batch
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=3, timeout_rate=0.2)
        comm = Communicator(manager, SessionConfig(fault_injector=injector))
        src = system.alloc(1 << 10)
        dst = system.alloc(1 << 10)
        fill_group_inputs(system, groups_of(manager, "11"), src, 128,
                          INT64, rng)
        batch = comm.submit([
            CommRequest("allreduce", "11", 1 << 10, src_offset=src,
                        dst_offset=dst)])
        traces = trace_batch(batch)
        retries = sum(t.retries for t in traces)
        assert retries == sum(f.result().attempts - 1 for f in batch)
        if retries:
            assert "retries]" in render_batch_timeline(batch)


# ----------------------------------------------------------------------
# Faults on compiled replay: the transfer kernels are the fault sites
# ----------------------------------------------------------------------
PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
REPLAY_BITMAP = "01"  # four strided groups of eight PEs
REPLAY_CHUNK = 4
#: compiled-replay mode -> SessionConfig knobs
REPLAY_MODES = {
    "compiled": {},
    "streamed": {"stream_tile_bytes": 257},
    "eliding": {"elide_transfers": True},
    # A tile larger than every op: each op replays as one band.
    "one_band": {"stream_tile_bytes": 1 << 30},
}
#: The ~1 %/operation mix every mode replays under, and a flip-only
#: link that corrupts often enough to run the CRC branch dozens of
#: times per primitive.  Its rate is scaled to the mode's corruption
#: draws per attempt (2-7: a streamed replay draws per op, as a
#: compiled one does) so that no call runs out of retries.
MIXED_RATES = {"bit_flip_rate": 0.004, "drop_rate": 0.003,
               "timeout_rate": 0.003}
FLIP_ONLY = {"compiled": 0.02, "streamed": 0.02}
REPLAY_CASES = (
    [pytest.param(mode, MIXED_RATES, id=mode) for mode in REPLAY_MODES]
    + [pytest.param(mode, {"bit_flip_rate": rate}, id=f"{mode}-flips")
       for mode, rate in FLIP_ONLY.items()])


def _drive(primitive, calls, trace=None, **session):
    """``calls`` refilled invocations of one primitive on a fresh cube.

    Returns ``(mram, host_outputs, comm)``: the allocated MRAM of every
    PE after the last call, every call's host outputs, the session.
    Each call's ``(attempts, faults_seen)`` is appended to ``trace``
    when one is given.
    Inputs are a pure function of the call index, half of each PE's
    per-destination blocks zero (so eliding sessions have rows to
    elide).
    """
    manager = make_manager((4, 8))
    system = manager.system
    comm = Communicator(manager, SessionConfig(**session))
    groups = groups_of(manager, REPLAY_BITMAP)
    n = groups[0].size
    rooted = primitive in ("scatter", "broadcast")
    elems = REPLAY_CHUNK if primitive in ("allgather", "broadcast") \
        else n * REPLAY_CHUNK
    total = elems * 8
    src = system.alloc(total)
    dst = system.alloc(n * total)
    kwargs = {"data_type": INT64}
    if not rooted:
        kwargs["src_offset"] = src
    if primitive not in ("gather", "reduce"):
        kwargs["dst_offset"] = dst
    host = []
    for call in range(calls):
        rng = np.random.default_rng(call)
        values = rng.integers(1, 100, (len(groups), n, elems))
        values.reshape(len(groups), n, -1, REPLAY_CHUNK)[:, :, 1::2] = 0
        if rooted:
            size = REPLAY_CHUNK * 8
            root_elems = n * REPLAY_CHUNK if primitive == "scatter" \
                else REPLAY_CHUNK
            kwargs["payloads"] = {g.instance: values[i, 1, :root_elems]
                                  for i, g in enumerate(groups)}
        else:
            size = total
            for i, group in enumerate(groups):
                system.scatter_elements(group.pe_ids, src, list(values[i]),
                                        INT64)
        result = getattr(comm, primitive)(REPLAY_BITMAP, size, **kwargs)
        if trace is not None:
            trace.append((result.attempts, result.faults_seen))
        host.append({inst: np.array(out) for inst, out
                     in (result.host_outputs or {}).items()})
    mram = system.peek_rows(manager.all_pes, 0, dst + n * total)
    return mram, host, comm


_ORACLE_CALLS = 120
_oracles = {}


def _oracle(primitive):
    """The un-faulted scalar interpreted run (built once per primitive)."""
    if primitive not in _oracles:
        mram, host, _ = _drive(primitive, _ORACLE_CALLS, backend="scalar",
                               execution="interpreted")
        _oracles[primitive] = (mram, host)
    return _oracles[primitive]


class TestFaultsOnCompiledReplay:
    @pytest.fixture(autouse=True)
    def _tiny_floor(self, monkeypatch):
        monkeypatch.setattr(program_mod, "ELIDE_MIN_SOURCE_BYTES", 0)

    @pytest.mark.parametrize("mode,rates", REPLAY_CASES)
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_one_percent_faults_bit_identical_to_oracle(self, primitive,
                                                        backend, mode,
                                                        rates):
        want_mram, want_host = _oracle(primitive)

        def injector_for():
            return FaultInjector(seed=PRIMITIVES.index(primitive), **rates)

        injector = injector_for()
        mram, host, comm = _drive(primitive, _ORACLE_CALLS, backend=backend,
                                  execution="compiled",
                                  fault_injector=injector,
                                  **REPLAY_MODES[mode])
        np.testing.assert_array_equal(mram, want_mram)
        assert len(host) == len(want_host)
        for got, want in zip(host, want_host):
            assert got.keys() == want.keys()
            for inst in want:
                np.testing.assert_array_equal(got[inst], want[inst])
        stats = comm.stats
        assert stats.retries > 0, "no fault fired; tune seed/calls"
        assert stats.program_replays == _ORACLE_CALLS  # completed attempts
        faults = sum(stats.faults_seen.values())
        assert faults == injector.total_injected
        if rates is not MIXED_RATES:
            assert injector.injected["bit_flip"] == faults
        if mode == "streamed":
            assert stats.tiles_replayed > 0
        if mode == "eliding" and primitive == "alltoall":
            assert stats.chunks_elided > 0
        if mode == "one_band":
            # The untiled replay is the one-band case: it must draw the
            # very same fault schedule, kernel for kernel.
            twin = injector_for()
            twin_mram, _, twin_comm = _drive(
                primitive, _ORACLE_CALLS, backend=backend,
                execution="compiled", fault_injector=twin)
            assert injector.total_injected == twin.total_injected
            assert stats.retries == twin_comm.stats.retries
            assert stats.program_replays == twin_comm.stats.program_replays
            np.testing.assert_array_equal(mram, twin_mram)

    @pytest.mark.parametrize("primitive", ["alltoall", "reduce_scatter",
                                           "allreduce", "reduce"])
    def test_faulted_streamed_session_bit_identical_at_any_worker_count(
            self, primitive):
        # A pooled session's single calls replay their bands on the
        # calling thread, faults and all: more workers than cores
        # replay exactly what one does -- the same draws, attempts and
        # MRAM.
        runs = []
        for workers in (1, 3):
            injector = FaultInjector(seed=PRIMITIVES.index(primitive),
                                     **MIXED_RATES)
            mram, host, comm = _drive(
                primitive, _ORACLE_CALLS, backend="vectorized",
                execution="compiled", fault_injector=injector,
                stream_tile_bytes=257, parallel_workers=workers)
            runs.append((mram, host, comm.stats.retries,
                         dict(injector.injected)))
            comm.close()
        (mram, host, retries, injected), two = runs
        assert retries > 0, "no fault fired; tune seed/calls"
        np.testing.assert_array_equal(two[0], mram)
        for got, want in zip(two[1], host):
            assert got.keys() == want.keys()
            for inst in want:
                np.testing.assert_array_equal(got[inst], want[inst])
        assert (two[2], two[3]) == (retries, injected)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("kernel", ["put_rows", "fill_lanes"])
    def test_flipped_payload_never_reaches_mram(self, backend, kernel):
        system = DimmSystem.small(backend=backend)
        pes = list(range(3, 19))
        system.poke_rows(pes, 64, np.full((len(pes), 32), 0xAB, np.uint8))
        before = system.peek_rows(pes, 0, 128)
        system.attach_fault_injector(
            FaultInjector(seed=0, bit_flip_rate=1.0))
        payload = np.arange(32, dtype=np.uint8)
        with pytest.raises(ChecksumError, match=kernel):
            if kernel == "put_rows":
                # A band kernel: the op's put site draws its faults.
                rows = np.tile(payload, (len(pes), 1))
                system.expose(
                    lambda n: system.put_rows(pes[:n], 64, rows[:n]),
                    (Region(pes, 64, rows.shape[1]),))
            else:
                system.fill_lanes(pes, 64, payload)
        np.testing.assert_array_equal(system.peek_rows(pes, 0, 128), before)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_flipped_read_never_reaches_the_host(self, backend):
        system = DimmSystem.small(backend=backend)
        pes = list(range(3, 19))
        system.poke_rows(pes, 64, np.full((len(pes), 32), 0xAB, np.uint8))
        system.attach_fault_injector(
            FaultInjector(seed=0, bit_flip_rate=1.0))
        with pytest.raises(ChecksumError, match="read_lanes"):
            system.read_lanes(pes, 64, 32)
        with pytest.raises(ChecksumError, match="take_rows"):
            system.take_rows(pes, 64, 32)

    # zero_fill_lanes is arena-only: its scalar case lives in
    # test_backend_parity.py::test_arena_kernels_raise_on_the_scalar_store.
    @pytest.mark.parametrize("kernel,backend", [
        (kernel, backend)
        for kernel in ("put_rows", "fill_lanes", "zero_fill_lanes")
        for backend in ("scalar", "vectorized")
        if (kernel, backend) != ("zero_fill_lanes", "scalar")])
    def test_dropped_write_lands_exactly_the_prefix(self, kernel, backend):
        system = DimmSystem.small(backend=backend)
        pes = np.arange(3, 19)
        old = np.full((pes.size, 32), 0xAB, np.uint8)
        system.poke_rows(pes, 64, old)
        system.attach_fault_injector(FaultInjector(seed=0, drop_rate=1.0))
        rows = np.arange(pes.size * 32, dtype=np.uint8).reshape(pes.size, 32)
        # put_rows and zero_fill_lanes are band kernels: the op's put
        # site (DimmSystem.expose) draws their faults and names them.
        site = "fill_lanes" if kernel == "fill_lanes" else "put_rows"
        with pytest.raises(TransferDropped, match=f"{site} dropped after "
                                                  f"8/16 lanes"):
            if kernel == "put_rows":
                system.expose(
                    lambda n: system.put_rows(pes[:n], 64, rows[:n]),
                    (Region(pes, 64, rows.shape[1]),))
            elif kernel == "fill_lanes":
                rows = np.tile(rows[0], (pes.size, 1))
                system.fill_lanes(pes, 64, rows[0])
            else:
                rows = np.zeros_like(rows)
                system.expose(
                    lambda n: system.zero_fill_lanes(pes[:n], 64, 32),
                    (Region(pes, 64, 32),))
        reached = len(partial_prefix(pes))
        got = system.peek_rows(pes, 64, 32)
        np.testing.assert_array_equal(got[:reached], rows[:reached])
        np.testing.assert_array_equal(got[reached:], old[reached:])

    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_dropped_put_is_rewound_and_retried(self, backend):
        class DropSecondTransfer(FaultInjector):
            """Drops exactly the second transfer (alltoall's put)."""
            draws = 0

            def take_drop(self):
                self.draws += 1
                if self.draws == 2:
                    self.injected["drop"] += 1
                    return True
                return False

        manager = make_manager((4, 8))
        system = manager.system
        # A non-zero rate keeps the rewind snapshot on; the subclass
        # decides which draw fires.
        injector = DropSecondTransfer(seed=0, drop_rate=1e-12)
        comm = Communicator(manager, SessionConfig(
            backend=backend, execution="compiled", fault_injector=injector))
        pes = manager.all_pes
        rng = np.random.default_rng(5)
        inputs = [rng.integers(1, 100, 32) for _ in pes]
        system.scatter_elements(pes, 0, inputs, INT64)
        stale = np.full((len(pes), 256), 0xAB, np.uint8)
        system.poke_rows(pes, 256, stale)
        at_rewind = []
        restore = comm._restore

        def spy(snapshot):
            at_rewind.append(system.peek_rows(pes, 256, 256))
            restore(snapshot)

        comm._restore = spy
        result = comm.alltoall("11", 256, src_offset=0, dst_offset=256)
        assert result.execution == "compiled"
        assert result.attempts == 2 and result.faults_seen == ("drop",)
        final = system.peek_rows(pes, 256, 256)
        want = ref.alltoall(inputs)
        np.testing.assert_array_equal(final.view(np.int64), np.stack(want))
        # The dropped put landed on exactly the prefix lanes ...
        (partial,) = at_rewind
        reached = len(partial_prefix(pes))
        np.testing.assert_array_equal(partial[:reached], final[:reached])
        np.testing.assert_array_equal(partial[reached:], stale[reached:])

    def test_rank_failure_on_compiled_path_degrades_and_replans(self, rng):
        manager = make_manager((4, 8))
        system = manager.system
        injector = FaultInjector(seed=0)
        comm = Communicator(manager, SessionConfig(
            backend="vectorized", execution="compiled",
            stream_tile_bytes=257, fault_injector=injector))
        src = system.alloc(256)
        dst = system.alloc(256)
        values = {pe: rng.integers(0, 99, 32).astype(np.int64)
                  for pe in manager.all_pes}
        for pe, vals in values.items():
            system.write_elements(pe, src, vals, INT64)
        healthy = comm.allreduce("11", 256, src_offset=src, dst_offset=dst)
        assert healthy.execution == "streamed" and not healthy.degraded
        for pe, vals in values.items():
            system.write_elements(pe, src, vals, INT64)
        injector.fail_rank(1)  # PEs 16..31 go dark
        result = comm.allreduce("11", 256, src_offset=src, dst_offset=dst)
        assert result.execution == "streamed"
        assert result.degraded and result.attempts == 2
        assert result.faults_seen == ("rank_failure",)
        assert comm.stats.degradations == 1
        assert comm.stats.programs_compiled == 2  # healthy + degraded cube
        assert comm.manager.shape.dims == (4, 4)
        survivors = comm.manager.all_pes
        want = ref.allreduce([values[pe] for pe in survivors], SUM)
        for pe, expect in zip(survivors, want):
            np.testing.assert_array_equal(
                system.read_elements(pe, dst, 32, INT64), expect)

    def test_zero_rate_injector_replays_compiled_without_snapshot(
            self, monkeypatch):
        def no_snapshot(self, req):
            raise AssertionError("healthy injector must not snapshot")

        monkeypatch.setattr(Communicator, "_snapshot", no_snapshot)
        manager = make_manager((4, 8))
        comm = Communicator(manager, SessionConfig(
            fault_injector=FaultInjector(seed=1)))
        result = comm.alltoall("11", 256, src_offset=0, dst_offset=256)
        assert result.execution == "compiled" and result.attempts == 1
        assert comm.stats.program_replays == 1

    def test_results_report_what_ran(self):
        manager = make_manager((4, 8))
        comm = Communicator(manager, SessionConfig(
            stream_tile_bytes=64,
            fault_injector=FaultInjector(seed=3, timeout_rate=0.3)))
        results = [comm.alltoall("11", 256, src_offset=0, dst_offset=256)
                   for _ in range(6)]
        assert {r.execution for r in results} == {"streamed"}
        stats = comm.stats
        assert stats.retries == sum(r.attempts - 1 for r in results) > 0
        assert stats.program_replays == 6
        assert stats.tiles_replayed == sum(r.tiles for r in results)
        assert stats.backoff_seconds > 0.0


#: Fault draws per compiled replay on the (4, 4, 2) cube, as
#: ``(take_timeout, take_drop, draw_flip)``: one launch draw per
#: replay plus one per op that absorbed a reorder kernel, and one drop
#: draw plus one corruption draw per modelled transfer (an op's gather,
#: its put per group).  ``draw_flip`` is the corruption draw itself,
#: which ``corrupt_transfer`` makes for a whole buffer and a banded op
#: makes once for all its bands, so every tile budget draws these.
EXPOSURE = {
    "alltoall": (2, 2, 2),        # docs/reliability.md: 6 draws
    "allgather": (2, 2, 2),
    "reduce_scatter": (2, 4, 4),
    "allreduce": (3, 7, 7),
    "gather": (1, 4, 4),
    "scatter": (1, 4, 4),
    "reduce": (2, 3, 3),
    "broadcast": (1, 4, 4),
}
#: The in-place AllReduce (dst == src), whose rotate fusion drops.
IN_PLACE_ALLREDUCE = (3, 5, 5)
STREAM_TILE = 2048
DRAWS = ("take_timeout", "take_drop", "draw_flip")
INTERPRETED_CALLS = 20


class TestFaultExposurePerPrimitive:
    """Faults are drawn per modelled transfer, so how a replay batches
    its bands is not observable: these pins keep it that way."""

    def _replay(self, primitive, dims, calls=3, tile=None,
                backend="vectorized", execution=None, in_place=False):
        """Per call: draw counts, the PE ids of every rank guard, and
        the order of the draws.  ``in_place`` writes the result over
        the source (``dst_offset == src_offset``)."""
        manager = make_manager((4, 4, 2))
        injector = FaultInjector(seed=0, bit_flip_rate=1e-12,
                                 drop_rate=1e-12, timeout_rate=1e-12)
        counts, guards, order = dict.fromkeys(DRAWS, 0), [], []

        def counted(name):
            inner = getattr(injector, name)

            def draw(*args, **kwargs):
                counts[name] += 1
                order.append(name)
                return inner(*args, **kwargs)
            return draw

        for name in DRAWS:
            setattr(injector, name, counted(name))
        guard = injector.guard_pes

        def guard_pes(geometry, pe_ids):
            guards.append(tuple(int(pe) for pe in pe_ids))
            return guard(geometry, pe_ids)

        injector.guard_pes = guard_pes
        comm = Communicator(manager, parity_config(
            backend, execution or "auto", fault_injector=injector,
            stream_tile_bytes=tile))
        if execution is None:
            execution = "compiled" if tile is None else "streamed"
        groups = groups_of(manager, dims)
        n = groups[0].size
        kwargs = {"data_type": INT64}
        size = 4 * 8 if primitive in ("allgather", "scatter", "broadcast") \
            else n * 4 * 8
        if primitive in ("scatter", "broadcast"):
            elems = n * 4 if primitive == "scatter" else 4
            kwargs["payloads"] = {g.instance: np.arange(elems, dtype=np.int64)
                                  for g in groups}
        else:
            kwargs["src_offset"] = 0
        if primitive not in ("gather", "reduce"):
            kwargs["dst_offset"] = 0 if in_place else 4096
        seen = []
        for _ in range(calls):
            for name in DRAWS:
                counts[name] = 0
            guards.clear()
            order.clear()
            result = getattr(comm, primitive)(dims, size, **kwargs)
            assert result.execution == execution and result.attempts == 1
            seen.append((tuple(counts[name] for name in DRAWS),
                         list(guards), list(order)))
        return seen

    @pytest.mark.parametrize("dims", ["101", "011"],
                             ids=["fancy_rows", "strided_rows"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_draws_per_replay_are_pinned(self, primitive, dims):
        self._assert_pinned(self._replay(primitive, dims),
                            EXPOSURE[primitive])

    @pytest.mark.parametrize("dims", ["101", "011"],
                             ids=["fancy_rows", "strided_rows"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_streamed_draws_per_replay_are_pinned(self, primitive, dims):
        # How many bands a streamed replay moves an op in must not
        # change its fault sites: one draw set per modelled transfer.
        self._assert_pinned(self._replay(primitive, dims, tile=STREAM_TILE),
                            EXPOSURE[primitive])

    @pytest.mark.parametrize("dims", ["101", "011"],
                             ids=["fancy_rows", "strided_rows"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_interpreted_draws_do_not_depend_on_the_store(self, primitive,
                                                          dims):
        # The step interpreter has one body per step, so which store
        # holds the banks must not change a single draw or guard.
        scalar = self._replay(primitive, dims, calls=1, backend="scalar",
                              execution="interpreted")
        arena = self._replay(primitive, dims, calls=1,
                             backend="vectorized", execution="interpreted")
        assert arena == scalar

    @pytest.mark.parametrize("tile", [None, STREAM_TILE],
                             ids=["compiled", "streamed"])
    @pytest.mark.parametrize("dims", ["101", "011"],
                             ids=["fancy_rows", "strided_rows"])
    def test_in_place_allreduce_draws_no_rotate(self, dims, tile):
        # dst == src: the fan-out rewrites every byte the opening rotate
        # wrote, so fusion drops the rotate, and its gather and put
        # sites with it; the fold launches the reorder kernel instead.
        self._assert_pinned(
            self._replay("allreduce", dims, tile=tile, in_place=True),
            IN_PLACE_ALLREDUCE)

    @pytest.mark.parametrize("dims", ["101", "011"],
                             ids=["fancy_rows", "strided_rows"])
    def test_in_place_allreduce_interpreted_draws_every_step(self, dims):
        # The interpreter still moves the rotate: in place or not, it
        # draws the same faults at the same sites in the same order.
        def interpreted(in_place):
            return self._replay("allreduce", dims, calls=1,
                                execution="interpreted", in_place=in_place)
        assert interpreted(True) == interpreted(False)

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_interpreted_faulted_runs_do_not_depend_on_the_store(
            self, primitive):
        # Under the ~1 %/operation mix both stores retry the same calls
        # for the same faults and leave the same MRAM.
        runs = {}
        for backend in ("scalar", "vectorized"):
            injector = FaultInjector(seed=3, **MIXED_RATES)
            trace = []
            mram, host, _ = _drive(
                primitive, INTERPRETED_CALLS, trace, backend=backend,
                execution="interpreted", fault_injector=injector)
            runs[backend] = (trace, dict(injector.injected), mram, host)
        scalar, arena = runs["scalar"], runs["vectorized"]
        assert any(attempts > 1 for attempts, _ in scalar[0]), \
            "no fault fired; tune seed/calls"
        assert arena[:2] == scalar[:2]
        np.testing.assert_array_equal(arena[2], scalar[2])
        assert len(arena[3]) == len(scalar[3])
        for got, want in zip(arena[3], scalar[3]):
            assert got.keys() == want.keys()
            for inst in want:
                np.testing.assert_array_equal(got[inst], want[inst])

    @staticmethod
    def _assert_pinned(seen, exposure):
        for draws, _, _ in seen:
            assert draws == exposure
        # Same fault sites, same PE ids, same order, cold or warm.
        cold = seen[0][1]
        assert all(guards == cold for _, guards, _ in seen)
        assert len(cold) == exposure[1]


class TestInPlaceExposure:
    """Every banded op -- the in-place PeReorder that opens
    ReduceScatter and AllReduce, a disjoint move, an eliding move, a
    fold with and without an MRAM destination, a fan-out -- is one
    gather and one put per group of the modelled machine, however many
    bands move it: banded replays draw the faults its
    one-band replay draws, in the same order, and a dropped put leaves
    the same MRAM."""

    TILE = 256                          # one 256-byte row per band
    #: kind -> (primitive, bitmap, index of the op under test, elide).
    KINDS = {
        "reduce_scatter": ("reduce_scatter", "11", 0, False),  # in place
        "allreduce": ("allreduce", "11", 0, False),            # in place
        "disjoint": ("alltoall", "11", 0, False),
        "eliding": ("alltoall", "11", 0, True),
        "fold_to_mram": ("reduce_scatter", "11", 1, False),
        "fold_to_host": ("allreduce", "11", 1, False),
        "fanout": ("allreduce", "01", 2, False),               # 4 groups
    }
    #: Every tile budget a replay is checked at; the first is the
    #: one-band replay the other must match.
    RUNS = [None, TILE]

    @staticmethod
    def _setup(kind):
        """A fresh (4, 8) cube holding inputs, and its compiled ops."""
        primitive, bitmap, _, elide = TestInPlaceExposure.KINDS[kind]

        def fill(system):
            fill_group_inputs(system, groups_of(manager, bitmap), 4096, 32,
                              INT64, np.random.default_rng(4))
            if elide:
                # Odd chunks zero: every odd output row gathers zeros.
                pes = np.arange(32)
                src = system.peek_rows(pes, 4096, 256).reshape(32, 32, 8)
                src[:, 1::2] = 0
                system.poke_rows(pes, 4096, src.reshape(32, 256))

        manager = make_manager((4, 8))
        fill(manager.system.set_backend("vectorized"))
        comm = Communicator(manager, SessionConfig(backend="vectorized"))
        kwargs = {} if primitive == "alltoall" else {"reduction_type": SUM}
        result = getattr(comm, primitive)(
            bitmap, 256, src_offset=4096, dst_offset=8192, data_type=INT64,
            **kwargs)
        fresh = make_manager((4, 8)).system.set_backend("vectorized")
        fill(fresh)
        return fresh, compile_plan(result.plan).ops

    @staticmethod
    def _sites(op):
        """``(gather, puts)``: the op's modelled transfers as ``(PE
        ids, bytes)``, derived from its shape."""
        if isinstance(op, FanoutScratchOp):
            return None, [(ids, ids.size * op.nslots_out * op.chunk_bytes)
                          for ids in op.group_ids]
        if isinstance(op, ReduceFoldOp):
            puts = ([] if op.dst_offset is None
                    else [(op.ids, op.ids.size * op.chunk_bytes)])
            return (op.ids, op.ids.size * op.nslots * op.chunk_bytes), puts
        site = (op.ids, op.ids.size * op.nslots_out * op.chunk_bytes)
        return site, [site]

    def _replay(self, kind, tile, injector, monkeypatch):
        """Run the op under ``injector``, the ops before it un-faulted.

        Returns ``(calls, error, before, after, op)``: every fault-site
        call with its arguments, the drop it raised, and the MRAM just
        before and after the op.
        """
        monkeypatch.setattr(program_mod, "ELIDE_MIN_SOURCE_BYTES", 0)
        _, _, index, elide = self.KINDS[kind]
        system, ops = self._setup(kind)
        calls = []
        for name in ("guard_pes", "take_drop", "draw_flip"):
            inner = getattr(injector, name)

            def record(*args, _name=name, _inner=inner):
                calls.append((_name, tuple(
                    tuple(int(pe) for pe in arg) if _name == "guard_pes"
                    and i == 1 else arg for i, arg in enumerate(args))))
                return _inner(*args)
            setattr(injector, name, record)
        ctx = ExecContext(system=system, elide=elide, tile_bytes=tile,
                          pool=None if tile is None else ScratchPool())
        for op in ops[:index]:
            op.execute(ctx)
        before = system.peek_rows(np.arange(32), 0, 1 << 14)
        op = ops[index]
        system.attach_fault_injector(injector)
        error = None
        try:
            op.execute(ctx)
        except TransferDropped as exc:
            error = str(exc)
        finally:
            system.attach_fault_injector(None)
        assert op.tile_count(self.TILE) == 32
        if elide and error is None:
            assert ctx.chunks_elided > 0
        return (calls, error, before,
                system.peek_rows(np.arange(32), 0, 1 << 14), op)

    @pytest.mark.parametrize("kind", KINDS)
    def test_banded_replay_draws_what_one_band_draws(self, kind,
                                                     monkeypatch):
        quiet = dict(bit_flip_rate=1e-12, drop_rate=1e-12)
        runs = [self._replay(kind, tile, FaultInjector(seed=0, **quiet),
                             monkeypatch)
                for tile in self.RUNS]
        one, _, _, one_mram, op = runs[0]
        # The elision scan reads the source first, a site of its own.
        one = one[3:] if self.KINDS[kind][3] else one
        # For the gather (if any), then each put: guard, drop, and one
        # flip sized to the whole transfer.
        gather, puts = self._sites(op)
        sites = ([gather] if gather is not None else []) + puts
        assert [name for name, _ in one] == [
            "guard_pes", "take_drop", "draw_flip"] * len(sites)
        assert [args[1] for name, args in one if name == "guard_pes"] == [
            tuple(int(pe) for pe in ids) for ids, _ in sites]
        assert [args for name, args in one if name == "draw_flip"] == [
            (nbytes,) for _, nbytes in sites]
        for calls, _, _, mram, _ in runs[1:]:
            assert calls == runs[0][0]
            np.testing.assert_array_equal(mram, one_mram)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dropped_put_lands_the_same_prefix(self, kind, monkeypatch):
        _, _, index, elide = self.KINDS[kind]
        gather, puts = self._sites(self._setup(kind)[1][index])
        # Drop the put (the fan-out's second), or the gather of a fold
        # that has no put; the eliding op's scan draws first.
        k = 1 if len(puts) > 1 else 0
        at = (gather is not None) + (k + 1 if puts else 0) + elide

        class DropOne(FaultInjector):
            """Drops the op's ``at``-th transfer."""
            draws = 0

            def take_drop(self):
                self.draws += 1
                return self.draws == at

        runs = [self._replay(kind, tile, DropOne(seed=0, drop_rate=1e-12),
                             monkeypatch)
                for tile in self.RUNS]
        one_calls, one_error, before, one_mram, _ = runs[0]
        for calls, error, _, mram, _ in runs[1:]:
            assert error == one_error
            assert calls == one_calls
            np.testing.assert_array_equal(mram, one_mram)
        if not puts:
            # A dropped gather raises before any byte moves.
            assert one_error == "take_band_flat: transfer dropped in flight"
            np.testing.assert_array_equal(one_mram, before)
            return
        # Earlier puts land whole, the dropped one on its prefix lanes,
        # and no other PE is touched.
        ids = puts[k][0]
        prefix = partial_prefix(ids)
        assert one_error == (f"put_rows dropped after {len(prefix)}/"
                             f"{len(ids)} lanes")
        reached = [int(pe) for pes, _ in puts[:k] for pe in pes] \
            + [int(pe) for pe in prefix]
        rest = np.setdiff1d(np.arange(32), reached)
        np.testing.assert_array_equal(one_mram[rest], before[rest])
        assert not np.array_equal(one_mram[reached], before[reached])

    def test_size_draw_is_the_buffer_draw(self):
        # corrupt_transfer draws through draw_flip, so a kernel that
        # draws by size keeps every schedule a buffer draw makes.
        buf = np.arange(40, dtype=np.uint8)
        by_buffer = FaultInjector(seed=2, bit_flip_rate=0.5)
        by_size = FaultInjector(seed=2, bit_flip_rate=0.5)
        for _ in range(50):
            out = by_buffer.corrupt_transfer(buf)
            flip = by_size.draw_flip(buf.nbytes)
            assert (out is buf) == (flip is None)
            if flip is not None:
                byte, bit = flip
                assert out[byte] ^ buf[byte] == 1 << bit
        assert by_buffer.injected == by_size.injected
        assert by_size.injected["bit_flip"] > 0


class TestCheapReliabilityPlumbing:
    def test_checksum_matches_crc_of_raw_bytes(self):
        import zlib
        rng = np.random.default_rng(0)
        for buf in (rng.integers(0, 255, (7, 33)).astype(np.uint8),
                    rng.integers(-9, 9, 40).astype(np.int64)[::3],
                    np.arange(24, dtype=np.int32).reshape(4, 6).T,
                    np.empty(0, np.uint8)):
            assert checksum(buf) == zlib.crc32(
                np.ascontiguousarray(buf).tobytes())

    def test_link_that_cannot_corrupt_skips_the_crc(self, monkeypatch):
        import importlib
        # (the package re-exports the function under the module's name)
        checksum_mod = importlib.import_module("repro.reliability.checksum")

        def no_crc(buf):
            raise AssertionError("zero flip rate must not checksum")

        monkeypatch.setattr(checksum_mod, "checksum", no_crc)
        buf = np.arange(64, dtype=np.uint8)
        quiet = FaultInjector(seed=0, drop_rate=0.5, timeout_rate=0.5)
        dropped = 0
        for _ in range(20):  # the drop draw still happens
            try:
                assert guarded_delivery(quiet, buf) is buf
            except TransferDropped:
                dropped += 1
        assert dropped > 0

        # A link that can corrupt checksums exactly the deliveries it
        # did corrupt: the sender/receiver pair, two CRCs per flip.
        crcs = []

        def spy(buf):
            crcs.append(None)
            return checksum(buf)

        monkeypatch.setattr(checksum_mod, "checksum", spy)
        flaky = FaultInjector(seed=0, bit_flip_rate=0.3, drop_rate=0.1)
        flips = dropped = 0
        for _ in range(200):
            flips_before, crcs_before = flaky.injected["bit_flip"], len(crcs)
            try:
                assert guarded_delivery(flaky, buf) is buf
            except TransferDropped:
                dropped += 1
            except ChecksumError:
                flips += 1
            fired = flaky.injected["bit_flip"] - flips_before
            assert len(crcs) - crcs_before == 2 * fired
        assert dropped > 0  # the drop draw still happens
        assert flips == flaky.injected["bit_flip"] > 0
        assert len(crcs) == 2 * flips

    def test_member_pes_sliced_once_per_manager(self, monkeypatch):
        from repro.core import groups
        manager = make_manager((4, 8))
        first = member_pes(manager, "10")
        monkeypatch.setattr(groups, "slice_groups", None)  # must not re-run
        assert member_pes(manager, "10") is first
        assert member_pes(manager, (0,)) is first
        monkeypatch.undo()
        degraded = manager.without_pes(range(16, 32))
        assert member_pes(degraded, "10") == tuple(range(16))
