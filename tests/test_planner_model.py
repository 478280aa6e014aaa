"""The planning / pricing path as index arithmetic.

The bus terms, cube slicing and entangled-group alignment are closed
forms of (geometry, cube shape, dims).  The per-PE walks they replaced
live on here as the reference implementations the vectorised versions
must equal; a golden file pins every row of the analytic model to the
values of the commit before the rewrite; and a guard keeps per-PE
geometry calls from creeping back onto the planning path.

Regenerate the golden file (only when the model itself is changed on
purpose) with ``PYTHONPATH=src python -m tests.test_planner_model``.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import Communicator, DimmSystem, HypercubeManager
from repro.__main__ import EXPERIMENTS
from repro.analysis import experiments
from repro.analysis.paper_claims import evaluate_claims
from repro.analysis.workloads import manager_2d
from repro.core.collectives import steps
from repro.core.groups import member_pes, resolve_dims, slice_groups
from repro.errors import GeometryError, HypercubeError
from repro.hw.geometry import DimmGeometry

from .test_differential_fuzz import PRIMITIVES

GOLDEN = Path(__file__).parent / "golden" / "paper_model_rows.json"


# ----------------------------------------------------------------------
# Reference implementations: one geometry call per PE
# ----------------------------------------------------------------------
def ref_lane_utilization(geom: DimmGeometry, pe_ids) -> float:
    pe_list = list(pe_ids)
    if not pe_list:
        raise GeometryError("lane_utilization of an empty PE set")
    per_eg: dict[int, int] = {}
    for pe in pe_list:
        per_eg[geom.eg_of_pe(pe)] = per_eg.get(geom.eg_of_pe(pe), 0) + 1
    return sum(per_eg.values()) / (geom.chips_per_rank * len(per_eg))


def ref_channels_used(geom: DimmGeometry, pe_ids) -> int:
    return len({geom.pe_coord(pe).channel for pe in pe_ids})


def ref_ranks_used(geom: DimmGeometry, pe_ids) -> int:
    coords = [geom.pe_coord(pe) for pe in pe_ids]
    return len({(c.channel, c.rank) for c in coords})


def _fastest_first(lengths):
    """Coordinates over ``lengths`` with the first one varying fastest."""
    for combo in product(*(range(n) for n in reversed(lengths))):
        yield tuple(reversed(combo))


def ref_slice_groups(manager: HypercubeManager, dims) -> list[tuple[int, ...]]:
    """Member PEs per instance, one ``pe_of_coords`` walk per node."""
    selected = resolve_dims(manager, dims)
    shape = manager.shape.dims
    fixed = [d for d in range(len(shape)) if d not in selected]
    groups = []
    for fixed_coords in _fastest_first([shape[d] for d in fixed]):
        members = []
        for sel_coords in _fastest_first([shape[d] for d in selected]):
            coords = [0] * len(shape)
            for d, c in zip(fixed, fixed_coords):
                coords[d] = c
            for d, c in zip(selected, sel_coords):
                coords[d] = c
            members.append(manager.pe_of_coords(coords))
        groups.append(tuple(members))
    return groups


def ref_member_pes(manager: HypercubeManager, dims) -> tuple[int, ...]:
    return tuple(sorted({pe for group in ref_slice_groups(manager, dims)
                         for pe in group}))


def ref_alignment(manager: HypercubeManager, dims) -> float:
    geom = manager.system.geometry
    touched: dict[int, set[int]] = {}
    for group in ref_slice_groups(manager, dims):
        for pe in group:
            touched.setdefault(geom.eg_of_pe(pe), set()).add(
                geom.lane_of_pe(pe))
    return (sum(len(lanes) for lanes in touched.values())
            / (geom.chips_per_rank * len(touched)))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
geometries = st.builds(
    DimmGeometry,
    channels=st.integers(1, 4), ranks_per_channel=st.integers(1, 4),
    chips_per_rank=st.sampled_from([1, 2, 4, 8]),
    banks_per_chip=st.integers(1, 8))

#: How a caller may hand a PE set over.
CONTAINERS = (list, tuple, np.array, iter, lambda pes: (pe for pe in pes))


@st.composite
def pe_sets(draw, min_size=0):
    """(geometry, PE ids with repeats allowed, in some container)."""
    geom = draw(geometries)
    pes = draw(st.lists(st.integers(0, geom.num_pes - 1), min_size=min_size,
                        max_size=64))
    return geom, pes, draw(st.sampled_from(CONTAINERS))


@st.composite
def cubes(draw):
    """(manager, selected dims): sub-cubes with ``base_pe > 0``,
    arbitrary last dimensions and ``without_pes`` remaps included."""
    geom = draw(geometries)
    dims = []
    for _ in range(draw(st.integers(0, 3))):
        room = geom.num_pes // int(np.prod(dims, dtype=int))
        dims.append(draw(st.sampled_from(
            [n for n in (1, 2, 4, 8) if n <= room])))
    dims.append(draw(st.integers(
        1, geom.num_pes // int(np.prod(dims, dtype=int)))))
    nodes = int(np.prod(dims))
    lanes = geom.chips_per_rank
    base_pe = lanes * draw(st.integers(0, (geom.num_pes - nodes) // lanes))
    manager = HypercubeManager(DimmSystem(geometry=geom, mram_bytes=64),
                               dims, base_pe=base_pe)
    if draw(st.booleans()):
        dead = draw(st.lists(st.sampled_from(manager.all_pes), max_size=8))
        try:
            manager = manager.without_pes(dead)
        except HypercubeError:
            assume(False)
    selected = draw(st.lists(st.integers(0, manager.ndim - 1), min_size=1,
                             unique=True))
    if draw(st.booleans()):
        return manager, "".join("1" if d in selected else "0"
                                for d in range(manager.ndim))
    return manager, selected


# ----------------------------------------------------------------------
# (a) vectorised == per-PE reference
# ----------------------------------------------------------------------
class TestBusTermsMatchReference:
    @given(pe_sets(min_size=1))
    def test_lane_utilization(self, case):
        geom, pes, container = case
        assert (geom.lane_utilization(container(pes))
                == ref_lane_utilization(geom, pes))

    @given(pe_sets())
    def test_channels_and_ranks_used(self, case):
        geom, pes, container = case
        assert geom.channels_used(container(pes)) == ref_channels_used(
            geom, pes)
        assert geom.ranks_used(container(pes)) == ref_ranks_used(geom, pes)

    @given(pe_sets(), st.data())
    def test_out_of_range_ids_raise(self, case, data):
        geom, pes, container = case
        bad = data.draw(st.one_of(st.integers(-64, -1),
                                  st.integers(geom.num_pes,
                                              geom.num_pes + 64)))
        pes.insert(data.draw(st.integers(0, len(pes))), bad)
        for fn in (geom.lane_utilization, geom.channels_used,
                   geom.ranks_used):
            with pytest.raises(GeometryError, match=f"pe_id {bad} "):
                fn(container(pes))

    def test_empty_sets(self):
        geom = DimmGeometry()
        with pytest.raises(GeometryError, match="empty"):
            geom.lane_utilization(())
        assert geom.channels_used(()) == 0
        assert geom.ranks_used(iter(())) == 0


class TestSlicingMatchesReference:
    @given(cubes())
    @settings(deadline=None)
    def test_slice_groups(self, case):
        manager, dims = case
        groups = slice_groups(manager, dims)
        assert [g.pe_ids for g in groups] == ref_slice_groups(manager, dims)
        assert [g.instance for g in groups] == list(range(len(groups)))
        assert all(type(pe) is int for g in groups for pe in g.pe_ids)

    @given(cubes())
    @settings(deadline=None)
    def test_member_pes_and_alignment(self, case):
        manager, dims = case
        assert member_pes(manager, dims) == ref_member_pes(manager, dims)
        assert (manager.entangled_group_alignment(dims)
                == ref_alignment(manager, dims))

    def test_memo_hands_out_one_immutable_slicing(self):
        manager = manager_2d()
        groups = slice_groups(manager, "10")
        assert isinstance(groups, tuple)
        assert slice_groups(manager, (0,)) is groups
        assert slice_groups(manager, "01") is not groups
        with pytest.raises(ValueError, match="read-only"):
            manager.pe_grid[0, 0] = 1

    def test_bad_dims_still_raise(self):
        manager = manager_2d()
        for fn in (slice_groups, member_pes,
                   lambda m, d: m.entangled_group_alignment(d)):
            with pytest.raises(HypercubeError):
                fn(manager, [2])
            with pytest.raises(HypercubeError):
                fn(manager, "00")


# ----------------------------------------------------------------------
# (b) every row of the analytic model, bit for bit
# ----------------------------------------------------------------------
def model_rows() -> dict:
    """Claim verdicts plus the full-precision rows of every experiment.

    Through a JSON round trip, which keeps every float exactly (``repr``
    both ways) and turns tuples into lists on both sides of the compare.
    """
    rows = {"claims": evaluate_claims(),
            "experiments": {name: fn()
                            for name, (fn, _) in EXPERIMENTS.items()}}
    return json.loads(json.dumps(rows))


class TestGoldenModel:
    def test_every_row_is_bit_identical_to_the_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        rows = model_rows()
        assert rows.keys() == golden.keys()
        assert rows["experiments"].keys() == golden["experiments"].keys()
        for name, want in golden["experiments"].items():
            assert rows["experiments"][name] == want, name
        assert rows["claims"] == golden["claims"]


# ----------------------------------------------------------------------
# (c) planning never asks the geometry about one PE at a time
# ----------------------------------------------------------------------
class TestNoPerPeGeometryOnThePlanningPath:
    @pytest.fixture(autouse=True)
    def per_pe_calls_raise(self, monkeypatch):
        def boom(self, pe_id):
            raise AssertionError(
                f"per-PE geometry call for PE {pe_id} on the planning path")
        monkeypatch.setattr(DimmGeometry, "pe_coord", boom)
        monkeypatch.setattr(DimmGeometry, "eg_of_pe", boom)
        # Bus terms priced by an earlier test would make this one warm.
        steps._group_bus_terms.cache_clear()

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_cold_communicator_call(self, primitive):
        system = DimmSystem.paper_testbed(mram_bytes=4096,
                                          backend="vectorized")
        comm = Communicator(HypercubeManager(system, (32, 32)))
        kwargs = {}
        if primitive in ("scatter", "broadcast"):
            elems = 32 * 32 if primitive == "scatter" else 32
            kwargs["payloads"] = {inst: np.arange(elems, dtype=np.int64)
                                  for inst in range(32)}
        elif primitive not in ("gather", "reduce"):
            kwargs["dst_offset"] = 2048
        size = 8 if primitive == "allgather" else 32 * 8
        result = getattr(comm, primitive)("10", size, **kwargs)
        assert not result.cached
        assert result.ledger.total > 0

    def test_fig14_primitives(self):
        rows = experiments.fig14_primitives()
        assert len(rows) == len(PRIMITIVES) + 1  # + geomean


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(model_rows(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
