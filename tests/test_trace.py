"""Tests for the plan-trace rendering and per-step pricing."""

import pytest

from repro.analysis.trace import render_categories
from repro.core.collectives import BASELINE, FULL, plan_allreduce, plan_alltoall
from repro.core.hypercube import HypercubeManager
from repro.dtypes import INT64, SUM
from repro.hw.system import DimmSystem
from repro.hw.timing import price


@pytest.fixture
def setup():
    system = DimmSystem.paper_testbed()
    manager = HypercubeManager(system, shape=(32, 32))
    return system, manager


def step_seconds(step, system) -> float:
    return price(step.traffic(system.geometry), system.params).total


class TestTracePlan:
    def test_step_costs_sum_to_plan_estimate(self, setup):
        system, manager = setup
        plan = plan_allreduce(manager, "10", 8 << 20, 0, 0, INT64, SUM, FULL)
        total = sum(step_seconds(step, system) for step in plan.steps)
        assert total == pytest.approx(plan.estimate(system).total)

    def test_exchange_dominates_allreduce(self, setup):
        system, manager = setup
        plan = plan_allreduce(manager, "10", 8 << 20, 0, 0, INT64, SUM, FULL)
        heaviest = max(plan.steps, key=lambda step: step_seconds(step, system))
        assert "ReduceExchange" in heaviest.describe()


class TestRendering:
    def test_categories_show_shares(self, setup):
        system, manager = setup
        plan = plan_alltoall(manager, "10", 1 << 20, 0, 0, INT64, FULL)
        text = render_categories(plan, system)
        assert "bus" in text and "%" in text and "#" in text

    def test_dominant_category_shifts_with_config(self, setup):
        system, manager = setup
        size = 8 << 20

        def dominant(plan):
            breakdown = plan.estimate(system).breakdown()
            return max(breakdown, key=breakdown.get)

        fast = plan_alltoall(manager, "10", size, 0, 0, INT64, FULL)
        slow = plan_alltoall(manager, "10", size, 0, 0, INT64, BASELINE)
        # Optimized AlltoAll is bus-bound; the baseline is host-bound.
        assert dominant(fast) == "bus"
        assert dominant(slow) in ("host_mem", "host_mod")
