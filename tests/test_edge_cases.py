"""Edge cases and failure injection across the stack.

Odd geometries (non-power-of-two channel counts), boundary payloads,
exhaustion paths, and malformed step parameters -- the inputs a
downstream user will eventually feed the library.
"""

import numpy as np
import pytest

from repro import FULL, Communicator, HypercubeManager
from repro.core import reference as ref
from repro.core.collectives.plan import ExecContext
from repro.core.collectives.steps import (
    FanoutFromHostStep,
    ReduceExchangeStep,
    RotateExchangeStep,
)
from repro.core.groups import CommGroup, slice_groups
from repro.dtypes import INT64, SUM, UINT8
from repro.errors import (
    AllocationError,
    CollectiveError,
    HypercubeError,
    TransferError,
)
from repro.hw.geometry import DimmGeometry
from repro.hw.system import DimmSystem


class TestOddGeometries:
    """The channel count is the only non-power-of-two DRAM level, which
    is why the mapping places it in the last hypercube dimension."""

    @pytest.fixture
    def three_channel(self):
        # 3 channels x 1 rank x 4 chips x 4 banks = 48 PEs.
        return DimmSystem(DimmGeometry(3, 1, 4, 4), mram_bytes=1 << 16)

    def test_non_pow2_last_dim_allowed(self, three_channel):
        manager = HypercubeManager(three_channel, shape=(4, 4, 3))
        assert manager.num_nodes == 48

    def test_non_pow2_inner_dim_rejected(self, three_channel):
        with pytest.raises(HypercubeError, match="power of two"):
            HypercubeManager(three_channel, shape=(3, 4, 4))

    def test_collectives_work_on_three_channels(self, three_channel):
        manager = HypercubeManager(three_channel, shape=(4, 4, 3))
        groups = slice_groups(manager, "001")  # groups of 3 (channels)
        assert groups[0].size == 3
        rng = np.random.default_rng(0)
        total = 3 * 8
        src, dst = three_channel.alloc(total), three_channel.alloc(total)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(0, 100, 3) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                three_channel.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall("001", total, src_offset=src,
                                       dst_offset=dst, data_type=INT64)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                np.testing.assert_array_equal(
                    three_channel.read_elements(pe, dst, 3, INT64), want)

    def test_single_pe_system(self):
        system = DimmSystem(DimmGeometry(1, 1, 1, 1), mram_bytes=1 << 12)
        manager = HypercubeManager(system, shape=(1,))
        src, dst = system.alloc(8), system.alloc(8)
        system.write_elements(0, src, np.array([7]), INT64)
        Communicator(manager).allreduce("1", 8, src_offset=src, dst_offset=dst,
                                        data_type=INT64, reduction_type=SUM)
        assert system.read_elements(0, dst, 1, INT64)[0] == 7


class TestBoundaryPayloads:
    def test_single_element_chunks(self):
        system = DimmSystem.small(mram_bytes=1 << 14)
        manager = HypercubeManager(system, shape=(4, 8))
        groups = slice_groups(manager, "10")
        total = 4 * 8  # one int64 per chunk
        src, dst = system.alloc(total), system.alloc(total)
        rng = np.random.default_rng(1)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(0, 100, 4) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall("10", total, src_offset=src,
                                       dst_offset=dst, data_type=INT64)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, 4, INT64), want)

    def test_single_byte_elements(self):
        system = DimmSystem.small(mram_bytes=1 << 14)
        manager = HypercubeManager(system, shape=(4, 8))
        groups = slice_groups(manager, "10")
        total = 4  # 4 chunks of one uint8
        src, dst = system.alloc(total), system.alloc(total)
        rng = np.random.default_rng(2)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(0, 255, 4).astype(np.uint8)
                    for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, UINT8)
            inputs[g.instance] = vecs
        Communicator(manager).allreduce("10", total, src_offset=src,
                                        dst_offset=dst, data_type=UINT8,
                                        reduction_type=SUM)
        for g in groups:
            expect = ref.allreduce(inputs[g.instance], SUM)
            for pe, want in zip(g.pe_ids, expect):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, 4, UINT8), want)

    def test_mram_exhaustion_during_plan_execution(self):
        system = DimmSystem.small(mram_bytes=64)
        manager = HypercubeManager(system, shape=(4, 8))
        src = system.alloc(32)
        # dst deliberately past the end of MRAM.
        plan_ok = Communicator(manager).alltoall(
            "10", 32, src_offset=src, dst_offset=0, functional=False)
        assert plan_ok.seconds > 0
        with pytest.raises(TransferError):
            Communicator(manager).alltoall(
                "10", 32, src_offset=src, dst_offset=48)

    def test_allocation_failure_message_names_sizes(self):
        system = DimmSystem.small(mram_bytes=128)
        with pytest.raises(AllocationError, match="128"):
            system.alloc(256)


class TestMalformedSteps:
    def _group(self):
        return CommGroup(instance=0, pe_ids=(0, 1, 2, 3))

    def test_bad_exchange_mode(self):
        with pytest.raises(CollectiveError, match="unknown host pass mode"):
            RotateExchangeStep([self._group()], 0, 8, 4, mode="warp")

    def test_cross_domain_reduce_needs_bytes(self):
        with pytest.raises(CollectiveError, match="1-byte"):
            ReduceExchangeStep([self._group()], 0, 8, 4, INT64, SUM,
                               mode="crossdomain", dst_offset=0)

    def test_reduce_exchange_needs_a_destination(self):
        with pytest.raises(CollectiveError, match="write back"):
            ReduceExchangeStep([self._group()], 0, 8, 4, INT64, SUM,
                               mode="inregister")

    def test_misaligned_chunk_rejected(self):
        with pytest.raises(CollectiveError, match="not divisible"):
            ReduceExchangeStep([self._group()], 0, 6, 4, INT64, SUM,
                               mode="inregister", dst_offset=0)

    def test_fanout_without_scratch_fails_cleanly(self):
        system = DimmSystem.small(mram_bytes=1 << 12)
        step = FanoutFromHostStep([self._group()], "missing", 0, 8,
                                  "inregister")
        with pytest.raises(CollectiveError, match="scratch"):
            step.apply(ExecContext(system=system))


class TestHypercubeEdges:
    def test_dimension_of_length_one_everywhere(self):
        system = DimmSystem.small(mram_bytes=1 << 12)
        manager = HypercubeManager(system, shape=(1, 1, 32))
        groups = slice_groups(manager, "001")
        assert len(groups) == 1 and groups[0].size == 32

    def test_many_dimensions(self):
        system = DimmSystem.small(mram_bytes=1 << 12)
        manager = HypercubeManager(system, shape=(2, 2, 2, 2, 2))
        assert manager.ndim == 5
        groups = slice_groups(manager, "10101")
        assert groups[0].size == 8
        assert len(groups) == 4

    def test_partial_machine_usage(self):
        system = DimmSystem.small()
        manager = HypercubeManager(system, shape=(4, 2), base_pe=8)
        assert manager.all_pes == tuple(range(8, 16))
        assert 0 not in manager.pe_grid

    def test_config_snapshot_in_plan_meta(self):
        system = DimmSystem.small()
        manager = HypercubeManager(system, shape=(4, 8))
        result = Communicator(manager).alltoall(
            "10", 32, src_offset=0, dst_offset=0, config=FULL,
            functional=False)
        assert result.plan.meta["instances"] == 8
        assert result.plan.meta["group_size"] == 4
