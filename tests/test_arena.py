"""Unit tests for the lane-major MRAM arena backing the vectorized backend.

Covers the properties the backend relies on: zero-copy views for
contiguous/strided PE runs, gather fallbacks for scattered lists, lazy
geometric growth with re-basing that preserves data, bounds checking
with the same error types the scalar path raises, and the
``ArenaPeMemory`` adapter staying valid across arena reallocations.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AllocationError, TransferError
from repro.hw.arena import MemoryArena, wide_dtype
from repro.hw.memory import ArenaPeMemory


def _stamp(arena, pe_id, value):
    arena.row_view(pe_id)[:] = value


class TestViews:
    def test_contiguous_run_is_zero_copy(self):
        arena = MemoryArena(mram_bytes=64, max_rows=32)
        view = arena.lane_view([4, 5, 6, 7], offset=8, nbytes=16)
        assert view is not None
        assert view.shape == (4, 16)
        assert np.shares_memory(view, arena._data)
        view[:] = 9
        assert (arena.read_rows([4, 5, 6, 7], 8, 16) == 9).all()

    def test_strided_run_is_zero_copy(self):
        arena = MemoryArena(mram_bytes=64, max_rows=32)
        view = arena.lane_view([2, 6, 10, 14], offset=0, nbytes=4)
        assert view is not None
        assert view.shape == (4, 4)
        assert np.shares_memory(view, arena._data)

    def test_single_pe_is_zero_copy(self):
        arena = MemoryArena(mram_bytes=64, max_rows=32)
        view = arena.lane_view([5], offset=32, nbytes=32)
        assert view is not None
        assert view.shape == (1, 32)
        assert np.shares_memory(view, arena._data)

    def test_scattered_list_returns_none(self):
        arena = MemoryArena(mram_bytes=64, max_rows=32)
        assert arena.lane_view([1, 2, 4], 0, 8) is None     # uneven stride
        assert arena.lane_view([4, 3, 2], 0, 8) is None     # descending
        assert arena.lane_view([1, 1, 2], 0, 8) is None     # repeated

    def test_gather_fallback_matches_rows(self):
        arena = MemoryArena(mram_bytes=16, max_rows=32)
        for pe in (3, 7, 1):
            _stamp(arena, pe, pe * 10)
        got = arena.read_rows([7, 1, 3], 4, 8)
        np.testing.assert_array_equal(got[:, 0], [70, 10, 30])
        assert not np.shares_memory(got, arena._data)

    @pytest.mark.parametrize("pes", [[4, 5, 6, 7], [2, 6, 10], [7, 1, 3]])
    def test_read_rows_into_a_caller_buffer(self, pes):
        arena = MemoryArena(mram_bytes=16, max_rows=32)
        for pe in pes:
            _stamp(arena, pe, pe * 10)
        out = np.full((len(pes), 8), 0xFF, dtype=np.uint8)
        got = arena.read_rows(pes, 4, 8, out=out)
        assert got is out
        np.testing.assert_array_equal(out, arena.read_rows(pes, 4, 8))
        assert not np.shares_memory(out, arena._data)

    def test_scatter_fallback_writes_rows(self):
        arena = MemoryArena(mram_bytes=16, max_rows=32)
        mat = np.arange(3 * 4, dtype=np.uint8).reshape(3, 4)
        arena.write_rows([9, 2, 5], 4, mat)
        np.testing.assert_array_equal(arena.read_rows([9, 2, 5], 4, 4), mat)
        # Bytes outside the window stay zero.
        assert (arena.read_rows([9, 2, 5], 0, 4) == 0).all()


class TestGrowth:
    def test_lazy_until_touched(self):
        arena = MemoryArena(mram_bytes=1024, max_rows=4096)
        assert arena._data.shape[0] == 0
        assert arena.touched_count == 0

    def test_growth_preserves_data(self):
        arena = MemoryArena(mram_bytes=8, max_rows=1024)
        _stamp(arena, 100, 42)
        _stamp(arena, 900, 7)   # forces growth upward
        _stamp(arena, 3, 5)     # forces re-basing downward
        assert (arena.row_view(100) == 42).all()
        assert (arena.row_view(900) == 7).all()
        assert (arena.row_view(3) == 5).all()
        assert arena.touched_ids() == [3, 100, 900]

    def test_incremental_touch_grows_geometrically(self):
        arena = MemoryArena(mram_bytes=8, max_rows=1 << 16)
        allocations = 0
        last = None
        for pe in range(1000):
            arena.touch((pe,))
            if arena._data.shape[0] != last:
                allocations += 1
                last = arena._data.shape[0]
        assert allocations <= 16  # O(log n), not O(n)

    def test_touch_out_of_range_raises(self):
        arena = MemoryArena(mram_bytes=8, max_rows=16)
        with pytest.raises(AllocationError):
            arena.touch((16,))
        with pytest.raises(AllocationError):
            arena.touch((-1,))

    def test_growth_exactly_at_capacity_boundary(self):
        # Touching the last covered row is a no-op; touching the first
        # row past it (hi == base + nrows) must grow, not wrap or skip.
        arena = MemoryArena(mram_bytes=8, max_rows=64)
        arena.touch(range(4))
        _stamp(arena, 3, 42)
        nrows = arena._data.shape[0]
        data = arena._data
        arena.touch((nrows - 1,))           # inside: no reallocation
        assert arena._data is data
        arena.touch((nrows,))               # one past: must reallocate
        assert arena._data is not data
        assert arena._data.shape[0] > nrows
        assert (arena.row_view(3) == 42).all()

    def test_non_contiguous_touch_order(self):
        # Jumping around (up, down, between) re-bases and grows in a
        # data-preserving way regardless of touch order.
        arena = MemoryArena(mram_bytes=8, max_rows=256)
        for pe, value in ((40, 4), (200, 20), (7, 7), (100, 10)):
            _stamp(arena, pe, value)
        for pe, value in ((40, 4), (200, 20), (7, 7), (100, 10)):
            assert (arena.row_view(pe) == value).all()
        assert arena.touched_ids() == [7, 40, 100, 200]
        # Rows covered by the backing array but never touched stay zero.
        assert (arena.read_rows([50], 0, 8) == 0).all()

    def test_views_invalidated_after_growth(self):
        # A growth reallocates the backing array: cached flat views are
        # dropped (fresh object, fresh bytes) and accessor views are
        # re-derived rather than aliasing the dead array.
        arena = MemoryArena(mram_bytes=8, max_rows=1024)
        _stamp(arena, 0, 5)
        stale = arena.lane_view([0], 0, 8)
        flat = arena.flat_wide(8)
        data = arena._data
        arena.touch((1000,))                # forces reallocation
        assert arena._data is not data
        assert arena.flat_wide(8) is not flat
        assert not np.shares_memory(arena.lane_view([0], 0, 8), stale)
        assert (arena.row_view(0) == 5).all()

    def test_fill_rows_broadcasts(self):
        arena = MemoryArena(mram_bytes=16, max_rows=32)
        buf = np.arange(4, dtype=np.uint8)
        arena.fill_rows([0, 1, 2, 3], 8, buf)       # view path
        arena.fill_rows([10, 5, 20], 8, buf)        # scatter path
        for pe in (0, 1, 2, 3, 10, 5, 20):
            np.testing.assert_array_equal(arena.read_rows([pe], 8, 4)[0], buf)


class TestBounds:
    def test_span_outside_bank_raises(self):
        arena = MemoryArena(mram_bytes=64, max_rows=8)
        with pytest.raises(TransferError):
            arena.read_rows([0], 60, 8)
        with pytest.raises(TransferError):
            arena.lane_view([0], -1, 4)

    def test_write_rows_validates_matrix(self):
        arena = MemoryArena(mram_bytes=64, max_rows=8)
        with pytest.raises(TransferError):
            arena.write_rows([0, 1], 0, np.zeros((2, 4), dtype=np.int32))
        with pytest.raises(TransferError):
            arena.write_rows([0, 1], 0, np.zeros((3, 4), dtype=np.uint8))

    def test_constructor_validates(self):
        with pytest.raises(AllocationError):
            MemoryArena(mram_bytes=0, max_rows=4)
        with pytest.raises(AllocationError):
            MemoryArena(mram_bytes=8, max_rows=0)


class TestStreamTables:
    """Arena-global flat gather tables used by streamed replay."""

    def test_stream_width_prefers_whole_chunks(self):
        arena = MemoryArena(mram_bytes=64, max_rows=8)
        assert arena.stream_width(offset=0, chunk_bytes=8) == 8
        assert arena.stream_width(offset=16, chunk_bytes=16) == 16
        # Unaligned offset: fall back to the widest native element
        # dividing chunk, offset and mram_bytes alike.
        assert arena.stream_width(offset=4, chunk_bytes=8) == 4
        assert arena.stream_width(offset=0, chunk_bytes=6) == 2

    def test_take_band_matches_table_semantics(self):
        # out[r, s] = in[lane[r, s], slot[r, s]] over whole rows and
        # over a sub-band, gathered straight from the backing array.
        arena = MemoryArena(mram_bytes=16, max_rows=8)
        data = np.arange(32, dtype=np.uint8).reshape(2, 16)
        arena.write_rows([0, 1], 0, data)
        lane = np.array([[1, 1], [0, 0]])
        slot = np.array([[0, 1], [0, 1]])
        table, width = arena.stream_table([0, 1], 1, 0, 8, lane, slot)
        assert width == 8
        out = np.empty((2, table.shape[1]), dtype=wide_dtype(width))
        arena.take_band(table, width, 0, 2, out)
        np.testing.assert_array_equal(out.view(np.uint8), data[[1, 0]])
        band = np.empty((1, table.shape[1]), dtype=wide_dtype(width))
        arena.take_band(table, width, 1, 2, band)
        np.testing.assert_array_equal(band.view(np.uint8), data[[0]])

    def test_tables_are_read_only(self):
        arena = MemoryArena(mram_bytes=16, max_rows=8)
        lane = np.array([[0], [1]])
        slot = np.array([[0], [0]])
        table, _ = arena.stream_table([0, 1], 1, 0, 8, lane, slot)
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_rebase_invalidates_cached_tables(self):
        # A table built before a downward re-base addresses the wrong
        # rows afterwards; the new backing array is how callers notice.
        arena = MemoryArena(mram_bytes=16, max_rows=64)
        lane = np.array([[0], [1]])
        slot = np.array([[0], [0]])
        before, _ = arena.stream_table([8, 9], 1, 0, 16, lane, slot)
        data = arena._data
        arena.touch((0,))                   # re-base: rows shift
        assert arena._data is not data
        after, _ = arena.stream_table([8, 9], 1, 0, 16, lane, slot)
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("lane,slot", [
        ([[0], [2]], [[0], [0]]),           # lane past the group
        ([[0], [-1]], [[0], [0]]),          # negative lane
        ([[0], [1]], [[0], [1 << 20]]),     # element past the arena
        ([[0], [1]], [[-1], [0]]),          # element before row 0
    ], ids=["lane_high", "lane_negative", "slot_high", "slot_negative"])
    def test_out_of_range_index_raises_when_built(self, lane, slot):
        # Band takes run unbuffered (mode="wrap"), so a bad index must
        # be refused here, once, instead of wrapping on every take.
        arena = MemoryArena(mram_bytes=16, max_rows=8)
        with pytest.raises(TransferError, match="stream table"):
            arena.stream_table([0, 1], 1, 0, 8, np.array(lane),
                               np.array(slot))


class TestUnbufferedTakes:
    """``np.take(..., out=)`` defaults to ``mode="raise"``, which always
    buffers ``out``: a hidden temporary, then a copy.  Replay takes pass
    ``mode=`` and range-check their tables where they are built."""

    @staticmethod
    def _buffered_takes(tree):
        """``take`` calls that pass ``out`` but no ``mode``."""
        found = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "take"):
                continue
            keywords = {kw.arg for kw in node.keywords}
            # np.take(a, indices, axis, out, mode) and
            # ndarray.take(indices, axis, out, mode): out sits one
            # position earlier on the method.
            module = (isinstance(node.func.value, ast.Name)
                      and node.func.value.id in ("np", "numpy"))
            out_at = 3 if module else 2
            has_out = "out" in keywords or len(node.args) > out_at
            has_mode = "mode" in keywords or len(node.args) > out_at + 1
            if has_out and not has_mode:
                found.append(node.lineno)
        return found

    def test_lint_flags_a_buffered_take(self):
        tree = ast.parse("np.take(a, i, out=o)\n"
                         "a.take(i, 0, o)\n"
                         "np.take(a, i, out=o, mode='wrap')\n"
                         "a.take(i, out=o, mode='clip')\n"
                         "np.take(a, i)\n"
                         "take(scratch, r0, r1)\n")
        assert self._buffered_takes(tree) == [1, 2]

    def test_no_buffered_take_in_src(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = [f"{path.relative_to(src)}:{line}"
                     for path in sorted(src.rglob("*.py"))
                     for line in self._buffered_takes(
                         ast.parse(path.read_text(), str(path)))]
        assert not offenders, offenders


class TestBoundWindows:
    """Regions resolved once by ``bind``, then moved through by the
    copy methods without re-deriving anything."""

    def test_strided_and_scattered_windows(self):
        arena = MemoryArena(mram_bytes=32, max_rows=32)
        bound = arena.bind([([2, 6, 10], 8, 8), ([9, 2, 5], 0, 4)])
        strided, scattered = bound.windows
        assert bound.data is arena._data
        assert strided.rows is None and strided.view.shape == (3, 8)
        assert np.shares_memory(strided.view, arena._data)
        np.testing.assert_array_equal(scattered.rows + arena._base,
                                      [9, 2, 5])
        assert arena.touched_ids() == [2, 5, 6, 9, 10]

    def test_copies_through_windows_match_unbound(self):
        arena = MemoryArena(mram_bytes=32, max_rows=32)
        for pes, offset in (([2, 6, 10], 8), ([9, 2, 5], 0)):
            (window,) = arena.bind([(pes, offset, 4)]).windows
            mat = np.arange(12, dtype=np.uint8).reshape(3, 4) + offset
            arena.write_rows(None, offset, mat, window=window)
            np.testing.assert_array_equal(
                arena.read_rows(pes, offset, 4), mat)
            np.testing.assert_array_equal(
                arena.read_rows(None, offset, 4, window=window), mat)
            arena.fill_rows(None, offset, mat[1], window=window)
            assert (arena.read_rows(pes, offset, 4) == mat[1]).all()
            band = window.band(1, 3)
            assert window.band(1, 3) is band and window.band(0, 3) is window
            np.testing.assert_array_equal(
                arena.read_rows(None, offset, 4, window=band),
                arena.read_rows(pes[1:], offset, 4))

    def test_window_shape_is_checked(self):
        arena = MemoryArena(mram_bytes=32, max_rows=32)
        (window,) = arena.bind([([0, 1], 0, 4)]).windows
        with pytest.raises(TransferError):
            arena.write_rows(None, 0, np.zeros((2, 8), np.uint8),
                             window=window)
        with pytest.raises(TransferError):
            arena.fill_rows(None, 0, np.zeros(3, np.uint8), window=window)

    def test_writes_through_windows_are_logged(self):
        arena = MemoryArena(mram_bytes=32, max_rows=32)
        (window,) = arena.bind([([0, 1], 8, 4)]).windows
        epoch = arena.write_epoch
        arena.write_rows(None, 8, np.ones((2, 4), np.uint8), window=window)
        assert arena.writes_since(epoch, 8, 12)
        assert not arena.writes_since(epoch, 0, 8)


class TestArenaPeMemory:
    def test_mram_survives_arena_growth(self):
        arena = MemoryArena(mram_bytes=32, max_rows=1024)
        mem = ArenaPeMemory(arena, pe_id=2)
        mem.mram[:] = 11
        # Growing the arena reallocates the backing array; the property
        # must re-derive the row rather than hand back a stale alias.
        arena.touch((1000,))
        assert (mem.mram == 11).all()
        mem.mram[0] = 99
        assert arena.row_view(2)[0] == 99

    def test_wram_stays_private(self):
        arena = MemoryArena(mram_bytes=32, max_rows=8)
        a = ArenaPeMemory(arena, pe_id=0)
        b = ArenaPeMemory(arena, pe_id=1)
        a.wram[:8] = 1
        assert (b.wram[:8] == 0).all()
