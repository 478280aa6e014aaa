"""Scenario tests mirroring the paper's illustrative figures.

These go beyond end-to-end correctness: they freeze the *intermediate*
states of the optimized dataflow and check them against what Figures 7,
8 and 9 draw -- e.g. that after PE-assisted reordering, slot ``s`` of
group rank ``a`` really holds the chunk destined for rank
``(s + a) mod N``, which is the invariant that makes the host's lane
rotation work.
"""

import numpy as np
import pytest

from repro import FULL, Communicator, HypercubeManager
from repro.core import reference as ref
from repro.core.collectives.plan import ExecContext
from repro.core.collectives.steps import PeReorderStep, RotateExchangeStep
from repro.core.groups import slice_groups
from repro.dtypes import INT64
from repro.hw.system import DimmSystem

from .helpers import coords_of_pe, eg_of_pe, slot_permutation


def tagged_chunk(src_rank: int, dst_rank: int) -> np.ndarray:
    """One 8-byte chunk tagged with its source and destination."""
    return np.array([src_rank * 100 + dst_rank], dtype=np.int64)


class TestFigure7Dataflow:
    """The AlltoAll pipeline of Figure 7, stage by stage."""

    def _setup(self, n=4):
        # One entangled group of 4 PEs (the figure's toy configuration).
        system = DimmSystem.small(mram_bytes=1 << 14)
        manager = HypercubeManager(system, shape=(4, 8))
        groups = [g for g in slice_groups(manager, "10")][:1]
        group = groups[0]
        src = system.alloc(n * 8)
        for a, pe in enumerate(group.pe_ids):
            data = np.concatenate([tagged_chunk(a, d) for d in range(n)])
            system.write_elements(pe, src, data, INT64)
        return system, manager, group, src

    def test_stage_a_rotates_chunks_into_lane_alignment(self):
        """Figure 7(b) step 1: after the PE kernel, slot s of rank a
        holds the chunk destined for rank (s + a) mod N."""
        system, manager, group, src = self._setup()
        n = group.size
        step = PeReorderStep([group], "rotate_left_rank", src, src, 8, n)
        step.apply(ExecContext(system=system))
        for a, pe in enumerate(group.pe_ids):
            values = system.read_elements(pe, src, n, INT64)
            for s in range(n):
                expect = tagged_chunk(a, (s + a) % n)[0]
                assert values[s] == expect, (a, s)

    def test_exchange_routes_every_chunk_to_its_destination(self):
        """After the lane rotation pass, every chunk sits on its
        destination PE (in permuted slot order)."""
        system, manager, group, src = self._setup()
        n = group.size
        ctx = ExecContext(system=system)
        PeReorderStep([group], "rotate_left_rank", src, src, 8, n).apply(ctx)
        RotateExchangeStep([group], src, 8, n, "crossdomain").apply(ctx)
        for q, pe in enumerate(group.pe_ids):
            values = system.read_elements(pe, src, n, INT64)
            # All chunks on PE q must be destined for q ...
            assert all(v % 100 == q for v in values), values
            # ... one from each source.
            assert sorted(v // 100 for v in values) == list(range(n))

    def test_stage_b_restores_source_order(self):
        """The final reflection permutation yields AlltoAll semantics."""
        system, manager, group, src = self._setup()
        n = group.size
        ctx = ExecContext(system=system)
        PeReorderStep([group], "rotate_left_rank", src, src, 8, n).apply(ctx)
        RotateExchangeStep([group], src, 8, n, "crossdomain").apply(ctx)
        PeReorderStep([group], "reflect_rank", src, src, 8, n).apply(ctx)
        for q, pe in enumerate(group.pe_ids):
            values = system.read_elements(pe, src, n, INT64)
            for p in range(n):
                assert values[p] == tagged_chunk(p, q)[0], (q, p)


class TestFigure9aMultiEntangledGroup:
    """AlltoAll among PEs spanning two entangled groups (Figure 9a)."""

    def test_group_of_eight_spans_two_egs_and_is_correct(self):
        system = DimmSystem.small(mram_bytes=1 << 14)  # 4-chip EGs
        manager = HypercubeManager(system, shape=(8, 4))
        groups = slice_groups(manager, "10")
        group = groups[0]
        geom = system.geometry
        egs = {eg_of_pe(geom, pe) for pe in group.pe_ids}
        assert len(egs) == 2  # the scenario of Figure 9(a)

        n = group.size
        total = n * 8
        src = system.alloc(total)
        dst = system.alloc(total)
        inputs = {}
        rng = np.random.default_rng(0)
        for g in groups:
            vecs = [rng.integers(0, 1000, n) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall("10", total, src_offset=src,
                                       dst_offset=dst, data_type=INT64,
                                       config=FULL)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, n, INT64), want)

    def test_cross_eg_rotation_is_register_redirection(self):
        """Rotating 8 lanes of two 4-lane EGs by 4 maps each EG's
        register onto the other unmodified (the red dotted box of
        Figure 9b's description)."""
        from repro.hw.host import SimdCounter, rotate_lanes_registerwise
        rng = np.random.default_rng(1)
        row = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        counter = SimdCounter()
        out = rotate_lanes_registerwise(row, 4, counter)
        np.testing.assert_array_equal(out[4:], row[:4])
        np.testing.assert_array_equal(out[:4], row[4:])


class TestFigure9bPackedInstances:
    """Several small instances packed across entangled groups."""

    def test_four_instances_pack_into_full_bursts(self):
        # y-groups of size 4 on a (4, 4, 2) cube: each group takes one
        # lane of four different EGs, but the four x-instances pack the
        # EGs full, so the union wastes no lanes.
        system = DimmSystem.small(mram_bytes=1 << 14)
        manager = HypercubeManager(system, shape=(4, 4, 2))
        assert manager.entangled_group_alignment([1]) == 1.0

    def test_packed_instances_compute_independently(self):
        system = DimmSystem.small(mram_bytes=1 << 14)
        manager = HypercubeManager(system, shape=(4, 4, 2))
        groups = slice_groups(manager, "010")
        n = groups[0].size
        total = n * 8
        src = system.alloc(total)
        dst = system.alloc(total)
        # Tag every element with its instance so cross-talk would show.
        inputs = {}
        for g in groups:
            vecs = [np.full(n, 1000 * g.instance + rank, dtype=np.int64)
                    for rank in range(n)]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall("010", total, src_offset=src,
                                       dst_offset=dst, data_type=INT64)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                got = system.read_elements(pe, dst, n, INT64)
                np.testing.assert_array_equal(got, want)
                # No value leaked from another instance.
                assert all(v // 1000 == g.instance for v in got)


class TestSlotPermutationAlgebra:
    """The algebraic identities the three-stage decomposition rests on."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_decomposition_equals_global_alltoall(self, n):
        """stage_B . rotate_lanes . stage_A == transpose (AlltoAll)."""
        data = np.arange(n * n).reshape(n, n)  # [source, chunk]
        staged = np.empty_like(data)
        for a in range(n):
            staged[a] = data[a][slot_permutation("rotate_left_rank", a, n)]
        exchanged = np.empty_like(data)
        for s in range(n):
            exchanged[:, s] = np.roll(staged[:, s], s)
        final = np.empty_like(data)
        for q in range(n):
            final[q] = exchanged[q][slot_permutation("reflect_rank", q, n)]
        np.testing.assert_array_equal(final, data.T)


class TestFigure11DlrmStructure:
    """The DLRM communication structure of Figure 11: which PEs talk."""

    def _manager(self):
        system = DimmSystem.small(mram_bytes=1 << 14)
        return HypercubeManager(system, shape=(4, 2, 2, ))

    def test_rs_partners_share_column_and_table(self):
        """ReduceScatter along y links PEs differing only in the row
        shard (same embedding columns, same tables)."""
        manager = self._manager()
        for group in slice_groups(manager, "010"):
            coords = [coords_of_pe(manager, pe) for pe in group.pe_ids]
            assert len({(c[0], c[2]) for c in coords}) == 1
            assert sorted(c[1] for c in coords) == [0, 1]

    def test_aa_partners_span_the_xz_plane(self):
        """The final AlltoAll links every (column, table) shard pair of
        one row shard -- the A/C/F/H example of Figure 11."""
        manager = self._manager()
        groups = slice_groups(manager, "101")
        assert all(g.size == 8 for g in groups)
        for group in groups:
            coords = [coords_of_pe(manager, pe) for pe in group.pe_ids]
            assert len({c[1] for c in coords}) == 1       # same y
            assert len({(c[0], c[2]) for c in coords}) == 8  # all xz


class TestFullMachineFunctional:
    """Stress: a functional collective across all 1024 paper-scale PEs."""

    def test_allreduce_on_every_pe(self):
        system = DimmSystem.paper_testbed(mram_bytes=1 << 12)
        manager = HypercubeManager(system, shape=(32, 32))
        elems = 32  # divisible into 32 chunks of one int64
        src = system.alloc(elems * 8)
        dst = system.alloc(elems * 8)
        for pe in manager.all_pes:
            system.write_elements(
                pe, src, np.full(elems, pe % 7, dtype=np.int64), INT64)
        from repro.dtypes import SUM
        Communicator(manager).allreduce("10", elems * 8, src_offset=src,
                                        dst_offset=dst, data_type=INT64,
                                        reduction_type=SUM)
        assert system.touched_pes == 1024
        # Spot-check one group against the reference.
        group = slice_groups(manager, "10")[5]
        expect = sum(pe % 7 for pe in group.pe_ids)
        for pe in group.pe_ids:
            got = system.read_elements(pe, dst, elems, INT64)
            assert (got == expect).all()
