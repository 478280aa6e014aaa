"""Tests for the structured DPU compute kernels."""

import numpy as np
import pytest

from repro.dtypes import INT32, INT64, MAX, MIN, SUM
from repro.errors import TransferError
from repro.hw.kernels import ElementwiseKernel, KernelStats
from repro.hw.memory import PeMemory
from repro.hw.timing import MachineParams


@pytest.fixture
def memory():
    return PeMemory(1 << 18)


def _store(memory, offset, values, dtype=np.int64):
    arr = np.asarray(values, dtype=dtype)
    memory.write(offset, np.ascontiguousarray(arr).view(np.uint8))
    return arr


class TestElementwiseKernel:
    @pytest.mark.parametrize("op", [SUM, MIN, MAX], ids=str)
    def test_combines_elementwise(self, memory, op):
        rng = np.random.default_rng(0)
        a = _store(memory, 0, rng.integers(-99, 99, 100))
        b = _store(memory, 1024, rng.integers(-99, 99, 100))
        kernel = ElementwiseKernel(op, INT64)
        kernel.run(memory, 0, 1024, 4096, 800)
        out = memory.read(4096, 800).view(np.int64)
        np.testing.assert_array_equal(out, op.combine(a, b))

    def test_in_place_accumulation(self, memory):
        a = _store(memory, 0, np.arange(64))
        b = _store(memory, 1024, np.ones(64, dtype=np.int64))
        ElementwiseKernel(SUM, INT64).run(memory, 1024, 0, 0, 64 * 8)
        out = memory.read(0, 64 * 8).view(np.int64)
        np.testing.assert_array_equal(out, a + b)

    def test_tiling_preserves_result(self, memory):
        rng = np.random.default_rng(1)
        a = _store(memory, 0, rng.integers(0, 99, 2000))
        b = _store(memory, 16384, rng.integers(0, 99, 2000))
        stats = ElementwiseKernel(SUM, INT64).run(
            memory, 0, 16384, 32768, 16000, tile_bytes=1000)
        out = memory.read(32768, 16000).view(np.int64)
        np.testing.assert_array_equal(out, a + b)
        # 1000B tile truncates to 125 elements -> 16 passes of 3 tiles.
        assert stats.wram_tiles == 48

    def test_stats_counts(self, memory):
        _store(memory, 0, np.zeros(128))
        _store(memory, 2048, np.zeros(128))
        stats = ElementwiseKernel(SUM, INT64).run(memory, 0, 2048, 4096,
                                                  1024)
        assert stats.instructions == 4 * 128
        assert stats.mram_read_bytes == 2048
        assert stats.mram_write_bytes == 1024

    def test_seconds_positive_and_additive(self):
        params = MachineParams()
        a = KernelStats(instructions=1000, mram_read_bytes=2048,
                        mram_write_bytes=1024)
        b = KernelStats(instructions=500, mram_read_bytes=100,
                        mram_write_bytes=100)
        merged = KernelStats()
        merged.merge(a)
        merged.merge(b)
        assert merged.seconds(params) == pytest.approx(
            a.seconds(params) + b.seconds(params))

    def test_misaligned_rejected(self, memory):
        with pytest.raises(TransferError, match="whole number"):
            ElementwiseKernel(SUM, INT64).run(memory, 0, 64, 128, 12)

    def test_int32(self, memory):
        a = _store(memory, 0, np.arange(10), np.int32)
        b = _store(memory, 512, np.arange(10) * 2, np.int32)
        ElementwiseKernel(SUM, INT32).run(memory, 0, 512, 1024, 40)
        out = memory.read(1024, 40).view(np.int32)
        np.testing.assert_array_equal(out, a + b)

