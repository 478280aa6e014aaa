"""Unit tests for cube slicing into communication groups."""

import pytest

from repro.core.groups import group_size, resolve_dims, slice_groups
from repro.core.hypercube import HypercubeManager
from repro.errors import HypercubeError
from repro.hw.system import DimmSystem


@pytest.fixture
def manager():
    return HypercubeManager(DimmSystem.small(), shape=(4, 4, 2))


class TestResolveDims:
    def test_bitmap_and_indices_agree(self, manager):
        assert resolve_dims(manager, "110") == resolve_dims(manager, [0, 1])
        assert resolve_dims(manager, "001") == (2,)

    def test_indices_deduplicated_sorted(self, manager):
        assert resolve_dims(manager, [2, 0, 2]) == (0, 2)

    def test_out_of_range_index(self, manager):
        with pytest.raises(HypercubeError):
            resolve_dims(manager, [3])

    def test_empty(self, manager):
        with pytest.raises(HypercubeError):
            resolve_dims(manager, [])


class TestSliceGroups:
    def test_x_groups(self, manager):
        groups = slice_groups(manager, "100")
        assert len(groups) == 8  # 4y * 2z instances
        assert all(g.size == 4 for g in groups)
        # Group 0 is the x-line at y=0, z=0 -> consecutive PEs 0..3.
        assert groups[0].pe_ids == (0, 1, 2, 3)

    def test_y_groups_stride_by_x(self, manager):
        groups = slice_groups(manager, "010")
        assert len(groups) == 8
        # Instance 0 fixes x=0, z=0; members step by 4 (the x length).
        assert groups[0].pe_ids == (0, 4, 8, 12)

    def test_xz_plane_groups(self, manager):
        groups = slice_groups(manager, "101")
        assert len(groups) == 4  # one per y
        assert all(g.size == 8 for g in groups)
        # x varies fastest inside the group, then z.
        assert groups[0].pe_ids == (0, 1, 2, 3, 16, 17, 18, 19)

    def test_all_dims_single_group(self, manager):
        groups = slice_groups(manager, "111")
        assert len(groups) == 1
        assert groups[0].pe_ids == tuple(range(32))

    def test_groups_partition_nodes(self, manager):
        for dims in ("100", "010", "001", "110", "101", "011", "111"):
            groups = slice_groups(manager, dims)
            seen = [pe for g in groups for pe in g.pe_ids]
            assert sorted(seen) == list(range(32))

    def test_instances_cover_fixed_coords_in_order(self, manager):
        groups = slice_groups(manager, "001")
        # 16 instances (4x * 4y); instance order must follow node order
        # of the fixed coordinates (x fastest).
        assert len(groups) == 16
        assert groups[0].pe_ids == (0, 16)
        assert groups[1].pe_ids == (1, 17)
        assert groups[4].pe_ids == (4, 20)

    def test_group_size_helper(self, manager):
        assert group_size(manager, "100") == 4
        assert group_size(manager, "101") == 8
        assert group_size(manager, "111") == 32
