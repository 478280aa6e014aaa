"""Unit tests for the cost model."""

import pytest

from repro.errors import PidCommError
from repro.hw.timing import (
    CATEGORIES,
    GB,
    CostLedger,
    MachineParams,
    throughput_gbps,
)


@pytest.fixture
def params():
    return MachineParams()


class TestPricing:
    def test_bus_scales_with_channels(self, params):
        one = params.bus_time(GB, channels=1)
        four = params.bus_time(GB, channels=4)
        assert one == pytest.approx(4 * four)

    def test_bus_utilization_inflates(self, params):
        full = params.bus_time(GB, channels=1, utilization=1.0)
        half = params.bus_time(GB, channels=1, utilization=0.5)
        assert half == pytest.approx(2 * full)

    def test_bus_rejects_bad_args(self, params):
        with pytest.raises(PidCommError):
            params.bus_time(-1, 1)
        with pytest.raises(PidCommError):
            params.bus_time(1, 0)
        with pytest.raises(PidCommError):
            params.bus_time(1, 1, utilization=0.0)

    def test_dt_parallel_over_cores(self, params):
        expected = GB / (params.dt_gbps_per_core * GB * params.host_cores)
        assert params.dt_time(GB) == pytest.approx(expected)

    def test_mod_classes_ordered_by_speed(self, params):
        nbytes = GB
        scalar = params.mod_time(nbytes, "scalar")
        local = params.mod_time(nbytes, "local")
        simd = params.mod_time(nbytes, "simd")
        shuffle = params.mod_time(nbytes, "shuffle")
        assert scalar > local > simd > shuffle

    def test_mod_unknown_class(self, params):
        with pytest.raises(PidCommError, match="unknown modulation"):
            params.mod_time(1, "warp")

    def test_reduce_simd_faster_than_scalar(self, params):
        assert params.reduce_time(GB, simd=True) < params.reduce_time(GB, simd=False)

    def test_pe_stream_is_pe_parallel(self, params):
        # Per-PE time does not depend on the number of PEs.
        assert params.pe_stream_time(1 << 20) == params.pe_stream_time(1 << 20)
        assert params.pe_stream_time(2 << 20) == pytest.approx(
            2 * params.pe_stream_time(1 << 20))

    def test_cpu_roofline(self, params):
        # Compute-bound case.
        assert params.cpu_time(params.cpu_flops, 0) == pytest.approx(1.0)
        # Memory-bound case.
        assert params.cpu_time(0, params.cpu_mem_gbps * GB) == pytest.approx(1.0)

    def test_scaled_override(self, params):
        faster = params.scaled(bus_gbps_per_channel=28.0)
        assert faster.bus_time(GB, 1) == pytest.approx(params.bus_time(GB, 1) / 2)
        assert faster.host_cores == params.host_cores


class TestLedger:
    def test_add_and_total(self):
        ledger = CostLedger()
        ledger.add("bus", 1.0)
        ledger.add("bus", 0.5)
        ledger.add("dt", 2.0)
        assert ledger.get("bus") == pytest.approx(1.5)
        assert ledger.total == pytest.approx(3.5)

    def test_unknown_category_rejected(self):
        with pytest.raises(PidCommError, match="unknown cost category"):
            CostLedger().add("gpu", 1.0)

    def test_negative_rejected(self):
        with pytest.raises(PidCommError):
            CostLedger().add("bus", -1.0)

    def test_merge_and_operator(self):
        a = CostLedger({"bus": 1.0})
        b = CostLedger({"bus": 2.0, "dt": 3.0})
        c = a + b
        assert c.get("bus") == pytest.approx(3.0)
        assert c.get("dt") == pytest.approx(3.0)
        # operands untouched
        assert a.get("bus") == pytest.approx(1.0)

    def test_breakdown_ordered_and_nonzero(self):
        ledger = CostLedger()
        ledger.add("kernel", 1.0)
        ledger.add("bus", 2.0)
        keys = list(ledger.breakdown())
        assert keys == ["bus", "kernel"]  # canonical order
        assert list(ledger.breakdown().values()) == [2.0, 1.0]

    def test_fractions_sum_to_one(self):
        ledger = CostLedger({"bus": 1.0, "dt": 3.0})
        fracs = ledger.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs["dt"] == pytest.approx(0.75)

    def test_scaled(self):
        ledger = CostLedger({"bus": 1.0, "dt": 2.0})
        doubled = ledger.scaled(2.0)
        assert doubled.total == pytest.approx(6.0)

    def test_all_categories_known(self):
        ledger = CostLedger()
        for category in CATEGORIES:
            ledger.add(category, 0.1)
        assert ledger.total == pytest.approx(0.1 * len(CATEGORIES))


class TestThroughput:
    def test_throughput(self):
        assert throughput_gbps(GB, 1.0) == pytest.approx(1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(PidCommError):
            throughput_gbps(1.0, 0.0)
