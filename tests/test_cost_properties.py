"""Property-based tests on the cost model and plan pricing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collectives import (
    ABLATION_LADDER,
    FULL,
    plan_allreduce,
    plan_alltoall,
)
from repro.core.hypercube import HypercubeManager
from repro.dtypes import INT64, SUM
from repro.hw.geometry import DimmGeometry
from repro.hw.system import DimmSystem
from repro.hw.timing import CATEGORIES, CostLedger, MachineParams

from .helpers import entangled_group

sizes = st.integers(1, 256).map(lambda k: k * 8 * 32)  # group-divisible
configs = st.sampled_from(ABLATION_LADDER)


@pytest.fixture(scope="module")
def testbed():
    return DimmSystem.paper_testbed()


class TestPlanPricingProperties:
    @given(sizes, configs)
    @settings(max_examples=30, deadline=None)
    def test_estimates_are_positive_and_finite(self, size, config):
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        ledger = plan_alltoall(manager, "10", size, 0, 0, INT64,
                               config).estimate(system)
        assert 0 < ledger.total < float("inf")
        assert all(v >= 0 for v in ledger.seconds.values())

    @given(st.integers(1, 64), configs)
    @settings(max_examples=25, deadline=None)
    def test_estimate_monotone_in_payload(self, k, config):
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        small = plan_alltoall(manager, "10", k * 256, 0, 0, INT64,
                              config).estimate(system).total
        large = plan_alltoall(manager, "10", 2 * k * 256, 0, 0, INT64,
                              config).estimate(system).total
        assert large >= small

    @given(st.integers(1, 256).map(lambda k: k * 32 * 1024))
    @settings(max_examples=20, deadline=None)
    def test_full_config_beats_baseline_past_crossover(self, size):
        """Above ~32 KB per PE the per-byte savings dominate the extra
        kernel launches; below, the baseline's single launch can win
        (the Figure 18 small-payload regime, asserted separately)."""
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        times = [plan_allreduce(manager, "10", size, 0, 0, INT64, SUM,
                                cfg).estimate(system).total
                 for cfg in ABLATION_LADDER]
        assert times[-1] <= times[0]

    def test_tiny_payloads_favor_fewer_launches(self):
        """The flip side of the crossover: at 256 B the conventional
        flow's single invocation beats PID-Comm's three launches."""
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        times = [plan_allreduce(manager, "10", 256, 0, 0, INT64, SUM,
                                cfg).estimate(system).total
                 for cfg in ABLATION_LADDER]
        assert times[-1] > times[0]

    @given(st.sampled_from([(1024,), (32, 32), (4, 16, 16), (8, 8, 16)]))
    @settings(max_examples=8, deadline=None)
    def test_alltoall_cost_shape_invariant_for_full_machine(self, shape):
        """AlltoAll over ALL dims moves the same data regardless of how
        the cube is factored; its price must not depend on the shape."""
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=shape)
        dims = "1" * len(shape)
        ledger = plan_alltoall(manager, dims, 1 << 18, 0, 0, INT64,
                               FULL).estimate(system)
        reference = plan_alltoall(
            HypercubeManager(system, shape=(1024,)), "1", 1 << 18, 0, 0,
            INT64, FULL).estimate(system)
        assert ledger.total == pytest.approx(reference.total)


class TestLedgerProperties:
    amounts = st.lists(
        st.tuples(st.sampled_from(CATEGORIES),
                  st.floats(0, 100, allow_nan=False)),
        min_size=0, max_size=20)

    @given(amounts)
    def test_total_equals_sum(self, entries):
        ledger = CostLedger()
        for category, seconds in entries:
            ledger.add(category, seconds)
        assert ledger.total == pytest.approx(
            sum(s for _, s in entries))

    @given(amounts, amounts)
    def test_merge_commutes(self, a_entries, b_entries):
        a1, b1 = CostLedger(), CostLedger()
        for c, s in a_entries:
            a1.add(c, s)
        for c, s in b_entries:
            b1.add(c, s)
        ab = a1 + b1
        ba = b1 + a1
        assert ab.total == pytest.approx(ba.total)
        for category in CATEGORIES:
            assert ab.get(category) == pytest.approx(ba.get(category))

    @given(amounts, st.floats(0, 10, allow_nan=False))
    def test_scaling_is_linear(self, entries, factor):
        ledger = CostLedger()
        for c, s in entries:
            ledger.add(c, s)
        assert ledger.scaled(factor).total == pytest.approx(
            factor * ledger.total)


class TestUtilizationProperties:
    pe_sets = st.lists(st.integers(0, 1023), min_size=1, max_size=64,
                       unique=True)

    @given(pe_sets)
    @settings(max_examples=50, deadline=None)
    def test_lane_utilization_bounds(self, pes):
        geom = DimmGeometry(4, 4, 8, 8)
        util = geom.lane_utilization(pes)
        assert 0 < util <= 1.0

    @given(pe_sets)
    @settings(max_examples=50, deadline=None)
    def test_channels_within_range(self, pes):
        geom = DimmGeometry(4, 4, 8, 8)
        assert 1 <= geom.channels_used(pes) <= 4

    @given(st.integers(0, 127))
    @settings(max_examples=30, deadline=None)
    def test_whole_entangled_group_is_fully_utilized(self, eg_id):
        geom = DimmGeometry(4, 4, 8, 8)
        assert geom.lane_utilization(entangled_group(geom, eg_id)) == 1.0


class TestParamsProperties:
    @given(st.floats(1, 1e9, allow_nan=False))
    def test_bus_time_linear(self, nbytes):
        params = MachineParams()
        one = params.bus_time(nbytes, 1)
        assert params.bus_time(2 * nbytes, 1) == pytest.approx(2 * one)
        assert params.bus_time(nbytes, 2) == pytest.approx(one / 2)
