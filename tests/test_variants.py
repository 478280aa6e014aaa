"""Tests for the architecture-variant and DSA-offload extensions."""

import pytest

from repro.core.collectives import FULL, plan_allreduce
from repro.core.hypercube import HypercubeManager
from repro.dtypes import INT64, SUM
from repro.errors import PidCommError
from repro.hw.system import DimmSystem
from repro.hw.timing import MachineParams
from repro.variants import (
    ARCHITECTURE_PROFILES,
    dsa_offload_params,
    variant_allreduce,
    variant_alltoall,
)


class TestProfiles:
    def test_known_profiles(self):
        assert set(ARCHITECTURE_PROFILES) == {
            "upmem", "hbm-pim", "axdimm", "cxl-nmp"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(PidCommError, match="unknown architecture"):
            variant_allreduce("hmc")

    def test_local_phase_free_without_medium(self):
        profile = ARCHITECTURE_PROFILES["upmem"]
        assert profile.local_phase_seconds(1 << 20, reduction=True) == 0.0

    def test_local_phase_reduction_cheaper_than_redistribution(self):
        profile = ARCHITECTURE_PROFILES["axdimm"]
        red = profile.local_phase_seconds(1 << 20, reduction=True)
        full = profile.local_phase_seconds(1 << 20, reduction=False)
        assert 0 < red < full


class TestVariantCollectives:
    def test_hbm_pim_pays_no_domain_transfer(self):
        upmem = variant_allreduce("upmem")
        hbm = variant_allreduce("hbm-pim")
        assert upmem["dt_s"] > 0
        assert hbm["dt_s"] < upmem["dt_s"] * 1e-3
        assert hbm["dt_s"] / hbm["total_s"] < 0.01
        assert hbm["total_s"] < upmem["total_s"]

    def test_partial_medium_shrinks_host_level_allreduce(self):
        """AxDIMM's local reduction leaves the host 1/8th of the units."""
        upmem = variant_allreduce("upmem")
        ax = variant_allreduce("axdimm")
        assert ax["host_visible_units"] == upmem["host_visible_units"] // 8
        assert ax["global_s"] < upmem["global_s"]
        assert ax["total_s"] < upmem["total_s"]

    def test_alltoall_gains_less_than_allreduce(self):
        """No reduction -> the full volume still crosses the host."""
        ar_gain = (variant_allreduce("upmem")["total_s"]
                   / variant_allreduce("axdimm")["total_s"])
        aa_gain = (variant_alltoall("upmem")["total_s"]
                   / variant_alltoall("axdimm")["total_s"])
        assert ar_gain > aa_gain

    def test_too_few_units_rejected(self):
        with pytest.raises(PidCommError, match="units"):
            variant_allreduce("cxl-nmp", num_pes=128)


class TestDsaOffload:
    def test_params_rescaled(self):
        base = MachineParams()
        dsa = dsa_offload_params(base, dsa_gbps=30.0)
        assert dsa.mod_scalar_gbps_per_core * dsa.host_cores == \
            pytest.approx(30.0)
        # Non-data-path parameters are untouched.
        assert dsa.bus_gbps_per_channel == base.bus_gbps_per_channel
        assert dsa.pe_mram_gbps == base.pe_mram_gbps

    def test_dsa_speeds_up_baseline_heavy_paths(self):
        """The DSA mainly rescues the modulation-heavy flows."""
        size = 8 << 20
        base_sys = DimmSystem.paper_testbed()
        dsa_sys = DimmSystem.paper_testbed(params=dsa_offload_params())
        man_b = HypercubeManager(base_sys, shape=(32, 32))
        man_d = HypercubeManager(dsa_sys, shape=(32, 32))
        t_base = plan_allreduce(man_b, "10", size, 0, 0, INT64, SUM,
                                FULL).estimate(base_sys).total
        t_dsa = plan_allreduce(man_d, "10", size, 0, 0, INT64, SUM,
                               FULL).estimate(dsa_sys).total
        assert t_dsa < t_base
