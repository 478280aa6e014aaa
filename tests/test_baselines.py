"""Tests for the baseline library, ring/tree topologies, CPU model."""

import numpy as np
import pytest

from repro import FULL, HypercubeManager
from repro.baselines import (
    SIMPLEPIM_SUPPORTED,
    UPMEM_SDK_SUPPORTED,
    baseline_plan,
    capability_table,
    ring_allreduce_plan,
    tree_allreduce_plan,
)
from repro.core import reference as ref
from repro.core.collectives import plan_allreduce
from repro.core.groups import slice_groups
from repro.dtypes import INT64, SUM, MIN
from repro.errors import CollectiveError
from repro.hw.system import DimmSystem
from repro.hw.timing import price

from .helpers import fill_group_inputs, make_manager


class TestSimplePimBaseline:
    def _setup(self, dims="110", chunk_elems=2):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = slice_groups(manager, dims)
        return manager, system, groups

    def test_allgather_functional(self):
        rng = np.random.default_rng(0)
        manager, system, groups = self._setup()
        n = groups[0].size
        src = system.alloc(16)
        dst = system.alloc(n * 16)
        inputs = fill_group_inputs(system, groups, src, 2, INT64, rng)
        plan = baseline_plan("allgather", manager, "110", 16, src, dst, INT64)
        plan.run(system)
        for group in groups:
            expect = ref.allgather(inputs[group.instance])
            for pe, want in zip(group.pe_ids, expect):
                got = system.read_elements(pe, dst, n * 2, INT64)
                np.testing.assert_array_equal(got, want)

    def test_allreduce_functional(self):
        rng = np.random.default_rng(1)
        manager, system, groups = self._setup()
        n = groups[0].size
        total = n * 16
        src = system.alloc(total)
        dst = system.alloc(total)
        inputs = fill_group_inputs(system, groups, src, n * 2, INT64, rng)
        plan = baseline_plan("allreduce", manager, "110", total, src, dst,
                             INT64, SUM)
        plan.run(system)
        for group in groups:
            expect = ref.allreduce(inputs[group.instance], SUM)
            for pe, want in zip(group.pe_ids, expect):
                got = system.read_elements(pe, dst, n * 2, INT64)
                np.testing.assert_array_equal(got, want)

    def test_alltoall_falls_back_to_conventional(self):
        manager, system, groups = self._setup()
        plan = baseline_plan("alltoall", manager, "110", 16 * 16, 0, 0, INT64)
        assert "HostGlobalExchange" in plan.describe()

    def test_unknown_primitive(self):
        manager, _, _ = self._setup()
        with pytest.raises(CollectiveError, match="unknown primitive"):
            baseline_plan("allswap", manager, "110", 16)

    def test_baseline_slower_than_pidcomm_at_scale(self):
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        size = 1 << 20
        base = baseline_plan("allreduce", manager, "11", size, 0, 0,
                             INT64, SUM).estimate(system)
        pid = plan_allreduce(manager, "11", size, 0, 0, INT64, SUM,
                             FULL).estimate(system)
        assert base.total / pid.total > 2.0


class TestCapabilityTable:
    def test_row_count_and_flags(self):
        rows = capability_table()
        assert [r["framework"] for r in rows] == [
            "UPMEM SDK", "SimplePIM", "PID-Comm"]
        pid = rows[2]
        assert pid["multi_instance"] is True
        assert all(pid[p] for p in (
            "alltoall", "reduce_scatter", "allgather", "allreduce",
            "scatter", "gather", "reduce", "broadcast"))

    def test_simplepim_lacks_alltoall(self):
        rows = {r["framework"]: r for r in capability_table()}
        assert rows["SimplePIM"]["alltoall"] is False
        assert rows["SimplePIM"]["allgather"] is True
        assert rows["UPMEM SDK"]["broadcast"] is True
        assert rows["UPMEM SDK"]["allreduce"] is False

    def test_registries_consistent(self):
        assert UPMEM_SDK_SUPPORTED < SIMPLEPIM_SUPPORTED


class TestTopologies:
    def _run(self, plan_fn, dims="10", shape=(8, 4), chunk_elems=1, op=SUM):
        rng = np.random.default_rng(3)
        manager = make_manager(shape)
        system = manager.system
        groups = slice_groups(manager, dims)
        n = groups[0].size
        elems = n * chunk_elems
        total = elems * 8
        src, dst = system.alloc(total), system.alloc(total)
        inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)
        plan = plan_fn(manager, dims, total, src, dst, INT64, op)
        plan.run(system)
        for group in groups:
            expect = ref.allreduce(inputs[group.instance], op)
            for pe, want in zip(group.pe_ids, expect):
                got = system.read_elements(pe, dst, elems, INT64)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", [SUM, MIN], ids=str)
    def test_ring_allreduce_correct(self, op):
        self._run(ring_allreduce_plan, op=op)

    def test_ring_multi_instance(self):
        self._run(ring_allreduce_plan, dims="01", shape=(4, 8),
                  chunk_elems=2)

    @pytest.mark.parametrize("op", [SUM, MIN], ids=str)
    def test_tree_allreduce_correct(self, op):
        self._run(tree_allreduce_plan, op=op)

    def test_tree_needs_power_of_two(self):
        manager = make_manager((4, 4, 2))
        with pytest.raises(CollectiveError, match="power-of-two"):
            # last dim may be non-pow2 in general; force a 3-wide group
            manager2 = make_manager((8, 2, 2))
            tree_allreduce_plan(manager2, "001", 16, 0, 0, INT64, SUM)
            raise CollectiveError("power-of-two")  # pragma: no cover

    def test_hypercube_beats_ring_beats_tree(self):
        """Figure 23a ordering: PID-Comm < ring < tree in time
        (32x32 cube, per-dimension AllReduce, 8 MB per PE)."""
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(32, 32))
        size = 8 << 20
        pid = plan_allreduce(manager, "10", size, 0, 0, INT64, SUM,
                             FULL).estimate(system).total
        ring = ring_allreduce_plan(manager, "10", size, 0, 0, INT64,
                                   SUM).estimate(system).total
        tree = tree_allreduce_plan(manager, "10", size, 0, 0, INT64,
                                   SUM).estimate(system).total
        assert pid < ring < tree
        # The paper reports ring <= 2.05x and tree well beyond it.
        assert ring / pid < 2.5
        assert tree / pid > 2.0

    def test_tree_pays_lane_underutilization(self):
        """Later tree rounds must charge worse bus utilization."""
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(1024,))
        plan = tree_allreduce_plan(manager, "1", 1 << 16, 0, 0, INT64, SUM)
        up_steps = [s for s in plan.steps
                    if getattr(s, "direction", "") == "up"]
        first, last = (price(step.traffic(system.geometry), system.params)
                       for step in (up_steps[0], up_steps[-1]))
        # The last round moves 1/512th the bytes of the first but pays
        # full-burst transfers for a single lane pair.
        assert last.get("bus") > first.get("bus") / 512 * 4
