"""Unit tests for PE memories and the DimmSystem facade."""

import numpy as np
import pytest

from repro.dtypes import INT32, INT64
from repro.errors import AllocationError, TransferError
from repro.hw.memory import WRAM_BYTES, PeMemory
from repro.hw.system import DimmSystem


class TestPeMemory:
    def test_starts_zeroed(self):
        mem = PeMemory(1024)
        assert mem.read(0, 1024).sum() == 0
        assert mem.wram.size == WRAM_BYTES

    def test_write_read_roundtrip(self):
        mem = PeMemory(1024)
        data = np.arange(100, dtype=np.uint8)
        mem.write(50, data)
        assert np.array_equal(mem.read(50, 100), data)

    def test_out_of_bounds_rejected(self):
        mem = PeMemory(64)
        with pytest.raises(TransferError):
            mem.read(60, 8)
        with pytest.raises(TransferError):
            mem.write(60, np.zeros(8, dtype=np.uint8))
        with pytest.raises(TransferError):
            mem.read(-1, 4)

    def test_non_uint8_write_rejected(self):
        mem = PeMemory(64)
        with pytest.raises(TransferError):
            mem.write(0, np.zeros(4, dtype=np.int32))

    def test_view_aliases_bank(self):
        mem = PeMemory(64)
        view = mem.view(8, 4)
        view[:] = 7
        assert mem.read(8, 4).tolist() == [7, 7, 7, 7]

    def test_bad_size_rejected(self):
        with pytest.raises(AllocationError):
            PeMemory(0)


class TestAllocation:
    def test_alloc_is_bump_and_aligned(self):
        system = DimmSystem.small(mram_bytes=1024)
        a = system.alloc(10)
        b = system.alloc(10)
        assert a == 0
        assert b == 16  # aligned up from 10
        assert b % 8 == 0

    def test_alloc_exhaustion(self):
        system = DimmSystem.small(mram_bytes=64)
        system.alloc(48)
        with pytest.raises(AllocationError, match="MRAM exhausted"):
            system.alloc(32)

    def test_alloc_validates_args(self):
        system = DimmSystem.small()
        with pytest.raises(AllocationError):
            system.alloc(0)
        with pytest.raises(AllocationError):
            system.alloc(8, align=3)


class TestLazyMemories:
    def test_analytic_touches_nothing(self):
        system = DimmSystem.paper_testbed()
        assert system.touched_pes == 0

    def test_memories_materialize_on_use(self):
        system = DimmSystem.small()
        system.write_elements(3, 0, np.arange(4), INT64)
        assert system.touched_pes == 1


class TestElementAccess:
    def test_typed_roundtrip(self):
        system = DimmSystem.small()
        values = np.array([-5, 0, 7, 123456], dtype=np.int32)
        system.write_elements(1, 64, values, INT32)
        out = system.read_elements(1, 64, 4, INT32)
        assert np.array_equal(out, values)

    def test_2d_rejected(self):
        system = DimmSystem.small()
        with pytest.raises(TransferError):
            system.write_elements(0, 0, np.zeros((2, 2)), INT32)


class TestLaneAccess:
    def test_lane_roundtrip(self):
        system = DimmSystem.small()
        pes = [0, 1, 2, 3]
        rng = np.random.default_rng(0)
        mat = rng.integers(0, 256, (4, 32), dtype=np.uint8)
        system.write_lanes(pes, 16, mat)
        assert np.array_equal(system.read_lanes(pes, 16, 32), mat)

    def test_lane_rows_match_pe_order(self):
        system = DimmSystem.small()
        pes = [5, 2, 9]
        for i, pe in enumerate(pes):
            system.write_elements(pe, 0, np.full(2, i, dtype=np.int64), INT64)
        mat = system.read_lanes(pes, 0, 16)
        for i in range(3):
            assert np.array_equal(mat[i].view(np.int64), [i, i])

    def test_empty_pe_list_rejected(self):
        system = DimmSystem.small()
        with pytest.raises(TransferError):
            system.read_lanes([], 0, 8)

    def test_row_count_mismatch_rejected(self):
        system = DimmSystem.small()
        with pytest.raises(TransferError):
            system.write_lanes([0, 1], 0, np.zeros((3, 8), dtype=np.uint8))


class TestBulkHelpers:
    def test_scatter_gather_elements(self):
        system = DimmSystem.small()
        pes = [0, 4, 8]
        payloads = [np.arange(i, i + 3, dtype=np.int64) for i in pes]
        system.scatter_elements(pes, 0, payloads, INT64)
        out = system.gather_elements(pes, 0, 3, INT64)
        for got, want in zip(out, payloads):
            assert np.array_equal(got, want)

    def test_scatter_length_mismatch(self):
        system = DimmSystem.small()
        with pytest.raises(TransferError, match="payloads"):
            system.scatter_elements([0, 1], 0, [np.arange(2)], INT64)
