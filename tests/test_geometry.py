"""Unit tests for the DIMM geometry and entangled-group addressing.

The PE numbering itself is checked on the per-PE reference model in
``tests/helpers.py``, which the vectorised geometry is compared against.
"""

import pytest

from repro.errors import GeometryError
from repro.hw.geometry import DimmGeometry

from .helpers import (
    PeCoord,
    eg_of_pe,
    entangled_group,
    lane_of_pe,
    pe_coord,
    pe_id,
)


@pytest.fixture
def paper_geom():
    return DimmGeometry(4, 4, 8, 8)


class TestSizes:
    def test_paper_testbed_has_1024_pes(self, paper_geom):
        assert paper_geom.num_pes == 1024

    def test_entangled_group_count(self, paper_geom):
        assert paper_geom.num_entangled_groups == 128
        assert paper_geom.num_entangled_groups * paper_geom.chips_per_rank \
            == paper_geom.num_pes

    def test_per_level_sizes(self, paper_geom):
        assert paper_geom.pes_per_rank == 64
        assert paper_geom.pes_per_channel == 256

    def test_invalid_geometry_rejected(self):
        with pytest.raises(GeometryError):
            DimmGeometry(channels=0)
        with pytest.raises(GeometryError):
            DimmGeometry(chips_per_rank=6)  # not a power of two


class TestAddressing:
    def test_pe_id_roundtrip(self, paper_geom):
        for pe in range(0, paper_geom.num_pes, 37):
            assert pe_id(paper_geom, pe_coord(paper_geom, pe)) == pe

    def test_chip_varies_fastest(self, paper_geom):
        c0 = pe_coord(paper_geom, 0)
        c1 = pe_coord(paper_geom, 1)
        assert (c0.channel, c0.rank, c0.bank) == (c1.channel, c1.rank, c1.bank)
        assert c1.chip == c0.chip + 1

    def test_bank_varies_after_chips(self, paper_geom):
        coord = pe_coord(paper_geom, paper_geom.chips_per_rank)
        assert coord.chip == 0 and coord.bank == 1

    def test_channel_is_slowest(self, paper_geom):
        coord = pe_coord(paper_geom, paper_geom.pes_per_channel)
        assert coord == PeCoord(channel=1, rank=0, bank=0, chip=0)
        assert paper_geom.channels_used([paper_geom.pes_per_channel - 1,
                                         paper_geom.pes_per_channel]) == 2

    def test_out_of_range_rejected(self, paper_geom):
        with pytest.raises(GeometryError):
            paper_geom.pe_array([paper_geom.num_pes])
        with pytest.raises(GeometryError):
            paper_geom.pe_array([pe_id(paper_geom, PeCoord(
                channel=4, rank=0, bank=0, chip=0))])


class TestEntangledGroups:
    def test_members_are_consecutive_pes(self, paper_geom):
        pes = entangled_group(paper_geom, 5)
        assert pes == tuple(range(40, 48))
        assert paper_geom.lane_utilization(pes) == 1.0

    def test_members_share_rank_and_bank(self, paper_geom):
        coords = [pe_coord(paper_geom, pe)
                  for pe in entangled_group(paper_geom, 17)]
        assert len({(c.channel, c.rank, c.bank) for c in coords}) == 1
        assert [c.chip for c in coords] == list(range(8))

    def test_eg_and_lane_of_pe(self, paper_geom):
        for pe in (0, 7, 8, 63, 1023):
            eg = eg_of_pe(paper_geom, pe)
            lane = lane_of_pe(paper_geom, pe)
            assert entangled_group(paper_geom, eg)[lane] == pe

    def test_all_entangled_groups_partition_pes(self, paper_geom):
        seen = set()
        for eg in range(paper_geom.num_entangled_groups):
            seen.update(entangled_group(paper_geom, eg))
        assert seen == set(range(paper_geom.num_pes))


class TestBusTerms:
    def test_full_eg_utilization_is_one(self, paper_geom):
        assert paper_geom.lane_utilization(range(8)) == 1.0
        assert paper_geom.lane_utilization(range(64)) == 1.0

    def test_partial_eg_wastes_lanes(self, paper_geom):
        # 2 PEs of one 8-lane entangled group -> 1/4 useful.
        assert paper_geom.lane_utilization([0, 1]) == pytest.approx(0.25)

    def test_spread_across_egs_is_worst(self, paper_geom):
        # One PE in each of 4 EGs: every burst 1/8 useful.
        assert paper_geom.lane_utilization([0, 8, 16, 24]) == pytest.approx(1 / 8)

    def test_empty_set_rejected(self, paper_geom):
        with pytest.raises(GeometryError):
            paper_geom.lane_utilization([])

    def test_channels_and_ranks_used(self, paper_geom):
        assert paper_geom.channels_used([0, 1, 2]) == 1
        assert paper_geom.channels_used([0, 256, 512, 768]) == 4
