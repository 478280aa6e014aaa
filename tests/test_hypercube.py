"""Unit tests for the virtual hypercube and its PE mapping."""

import pytest

from repro.core.hypercube import (
    HypercubeManager,
    HypercubeShape,
    parse_dim_bitmap,
)
from repro.errors import HypercubeError
from repro.hw.system import DimmSystem

from .helpers import (
    coords_of_pe,
    eg_of_pe,
    lane_of_pe,
    node_coords,
    node_index,
    pe_of_coords,
)


@pytest.fixture
def system():
    return DimmSystem.small()  # 32 PEs: 2ch x 1rk x 4chip x 4bank


class TestShape:
    def test_valid_shapes(self):
        assert HypercubeShape((4, 2, 4)).num_nodes == 32
        assert HypercubeShape((1024,)).num_nodes == 1024

    def test_last_dim_may_be_non_pow2(self):
        shape = HypercubeShape((8, 2, 3))
        assert shape.num_nodes == 48

    def test_non_last_dim_must_be_pow2(self):
        with pytest.raises(HypercubeError, match="power of two"):
            HypercubeShape((3, 8))

    def test_empty_and_non_positive_rejected(self):
        with pytest.raises(HypercubeError):
            HypercubeShape(())
        with pytest.raises(HypercubeError):
            HypercubeShape((0, 4))

    def test_node_index_dim0_fastest(self, system):
        manager = HypercubeManager(system, shape=(4, 2, 4))
        assert node_index((4, 2, 4), (1, 0, 0)) == 1
        assert node_index((4, 2, 4), (0, 1, 0)) == 4
        assert node_index((4, 2, 4), (0, 0, 1)) == 8
        # The manager's node table is indexed [z, y, x]: x varies fastest.
        assert manager.pe_grid[0, 0, 1] == manager.pe_of_node(1)
        assert manager.pe_grid[0, 1, 0] == manager.pe_of_node(4)
        assert manager.pe_grid[1, 0, 0] == manager.pe_of_node(8)

    def test_index_coord_roundtrip(self):
        dims = (4, 2, 4)
        for i in range(HypercubeShape(dims).num_nodes):
            assert node_index(dims, node_coords(dims, i)) == i

    def test_str(self):
        assert str(HypercubeShape((4, 2, 4))) == "4x2x4"


class TestBitmap:
    def test_parse_selects_positions(self):
        assert parse_dim_bitmap("010", 3) == (1,)
        assert parse_dim_bitmap("101", 3) == (0, 2)

    def test_length_mismatch(self):
        with pytest.raises(HypercubeError, match="characters"):
            parse_dim_bitmap("01", 3)

    def test_bad_characters(self):
        with pytest.raises(HypercubeError, match="only '0'/'1'"):
            parse_dim_bitmap("0a1", 3)

    def test_empty_selection(self):
        with pytest.raises(HypercubeError, match="selects no dimension"):
            parse_dim_bitmap("000", 3)


class TestManager:
    def test_mapping_is_bijective(self, system):
        manager = HypercubeManager(system, shape=(4, 4, 2))
        seen = set()
        for node in range(manager.num_nodes):
            pe = manager.pe_of_node(node)
            assert manager.all_pes[node] == pe
            seen.add(pe)
        assert len(seen) == 32

    def test_x_dim_lands_in_entangled_group(self, system):
        # dim 0 of length 4 == chips_per_rank: each x-line is one EG.
        manager = HypercubeManager(system, shape=(4, 4, 2))
        geom = system.geometry
        for y in range(4):
            for z in range(2):
                pes = [pe_of_coords(manager, (x, y, z)) for x in range(4)]
                assert len({eg_of_pe(geom, pe) for pe in pes}) == 1
                assert [lane_of_pe(geom, pe) for pe in pes] == [0, 1, 2, 3]

    def test_too_many_nodes_rejected(self, system):
        with pytest.raises(HypercubeError, match="needs"):
            HypercubeManager(system, shape=(8, 8))

    def test_base_pe_offsets_mapping(self, system):
        manager = HypercubeManager(system, shape=(4, 4), base_pe=16)
        assert manager.pe_of_node(0) == 16
        assert manager.all_pes == tuple(range(16, 32))

    def test_base_pe_must_be_eg_aligned(self, system):
        with pytest.raises(HypercubeError, match="aligned"):
            HypercubeManager(system, shape=(4, 4), base_pe=2)

    def test_coords_roundtrip(self, system):
        manager = HypercubeManager(system, shape=(4, 2, 4))
        for pe in manager.all_pes:
            coords = coords_of_pe(manager, pe)
            assert manager.pe_grid[coords[::-1]] == pe

    def test_alignment_is_full_for_valid_cubes(self, system):
        manager = HypercubeManager(system, shape=(4, 4, 2))
        for dims in ("100", "010", "001", "110", "011", "111"):
            assert manager.entangled_group_alignment(
                [i for i, c in enumerate(dims) if c == "1"]) == 1.0

    def test_describe_mentions_shape(self, system):
        manager = HypercubeManager(system, shape=(4, 8))
        assert "4x8" in manager.describe()
