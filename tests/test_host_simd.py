"""Tests for the register-wise host data path and its op accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collectives import FULL, PR_IM, plan_alltoall, plan_allgather
from repro.core.hypercube import HypercubeManager
from repro.dtypes import INT64
from repro.errors import TransferError
from repro.hw.host import (
    REGISTER_BYTES,
    SimdCounter,
    rotate_lanes_registerwise,
)
from repro.hw.system import DimmSystem


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestRotateRegisterwise:
    @given(st.sampled_from([2, 4, 8, 16, 32]), st.integers(0, 40),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_equivalent_to_roll(self, lanes, amount, words):
        rng = np.random.default_rng(lanes * 1000 + amount)
        row = rng.integers(0, 256, (lanes, words * 8), dtype=np.uint8)
        out = rotate_lanes_registerwise(row, amount)
        assert np.array_equal(out, np.roll(row, amount, axis=0))

    def test_aligned_rotation_uses_one_source_register(self, rng):
        # 16 lanes, rotate by 8: every output register reads exactly one
        # source register (pure register redirection, Figure 9b).
        row = rng.integers(0, 256, (16, 8), dtype=np.uint8)
        counter = SimdCounter()
        rotate_lanes_registerwise(row, 8, counter)
        assert counter.shuffles == counter.stores  # 1 shuffle per output

    def test_unaligned_rotation_uses_two_source_registers(self, rng):
        row = rng.integers(0, 256, (16, 8), dtype=np.uint8)
        counter = SimdCounter()
        rotate_lanes_registerwise(row, 3, counter)
        assert counter.shuffles == 2 * counter.stores

    def test_sub_register_group_single_shuffle(self, rng):
        # A 4-lane group packs inside one register.
        row = rng.integers(0, 256, (4, 16), dtype=np.uint8)
        counter = SimdCounter()
        rotate_lanes_registerwise(row, 1, counter)
        assert counter.shuffles == counter.stores

    def test_rejects_bad_matrix(self):
        with pytest.raises(TransferError):
            rotate_lanes_registerwise(np.zeros((2, 2), dtype=np.int32), 1)


class TestExecutionOpAccounting:
    """Executing a plan counts register work matching what it charges."""

    def _run(self, plan, system):
        ctx = plan.execute(system)
        return ctx.simd

    def test_alltoall_shuffle_volume_matches_charge(self):
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=(8, 4))
        total = 8 * 64  # 8 chunks of 64 B per PE
        src, dst = system.alloc(total), system.alloc(total)
        plan = plan_alltoall(manager, "10", total, src, dst, INT64, FULL)
        simd = self._run(plan, system)
        # The exchange shuffles every byte of the payload exactly once
        # (modulo register-size rounding and two-source shuffles).
        payload = total * manager.num_nodes
        assert payload <= simd.shuffles * REGISTER_BYTES <= 3 * payload
        # Cross-domain modulation: no transposes at all.
        assert simd.transposes == 0

    def test_alltoall_im_counts_domain_transfers(self):
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=(8, 4))
        total = 8 * 64
        src, dst = system.alloc(total), system.alloc(total)
        plan = plan_alltoall(manager, "10", total, src, dst, INT64, PR_IM)
        simd = self._run(plan, system)
        payload = total * manager.num_nodes
        # +IM performs the two domain transfers CM would have fused away.
        assert simd.transposes * REGISTER_BYTES == 2 * payload

    def test_allgather_multi_instance_counts(self):
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=(4, 8))
        chunk = 64
        src = system.alloc(chunk)
        dst = system.alloc(4 * chunk)
        plan = plan_allgather(manager, "10", chunk, src, dst, INT64, FULL)
        simd = self._run(plan, system)
        out_bytes = 4 * chunk * manager.num_nodes
        assert out_bytes <= simd.shuffles * REGISTER_BYTES <= 3 * out_bytes
