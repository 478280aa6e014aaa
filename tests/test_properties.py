"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import FULL, Communicator, HypercubeManager
from repro.core import reference as ref
from repro.core.groups import slice_groups
from repro.core.hypercube import HypercubeShape
from repro.dtypes import INT32, INT64, MAX, MIN, SUM
from repro.hw import domain
from repro.hw.host import rotate_lanes_registerwise
from repro.hw.system import DimmSystem

from .helpers import node_coords, node_index, slot_permutation

lane_counts = st.sampled_from([2, 4, 8, 16])


@st.composite
def lane_matrices(draw):
    lanes = draw(lane_counts)
    cols = draw(st.integers(1, 16)) * lanes
    data = draw(st.binary(min_size=lanes * cols, max_size=lanes * cols))
    return np.frombuffer(data, dtype=np.uint8).reshape(lanes, cols).copy()


class TestDomainProperties:
    @given(lane_matrices())
    def test_domain_transfer_roundtrip(self, mat):
        assert np.array_equal(
            domain.host_to_pim(domain.pim_to_host(mat), mat.shape[0]), mat)

    @given(lane_matrices(), st.integers(-20, 20))
    def test_rotate_is_invertible(self, mat, amount):
        rolled = rotate_lanes_registerwise(mat, amount)
        back = rotate_lanes_registerwise(rolled, -amount)
        assert np.array_equal(back, mat)

    @given(lane_matrices())
    def test_transfer_preserves_multiset(self, mat):
        host = domain.pim_to_host(mat)
        assert sorted(host.tolist()) == sorted(mat.reshape(-1).tolist())


class TestSlotPermutationProperties:
    @given(st.integers(1, 64), st.integers(0, 63))
    def test_rules_are_permutations(self, nslots, rank):
        for rule in ("identity", "rotate_left_rank", "reflect_rank"):
            perm = slot_permutation(rule, rank % nslots, nslots)
            assert sorted(perm.tolist()) == list(range(nslots))

    @given(st.integers(1, 64), st.integers(0, 63))
    def test_reflect_is_involution(self, nslots, rank):
        rank %= nslots
        perm = slot_permutation("reflect_rank", rank, nslots)
        assert np.array_equal(perm[perm], np.arange(nslots))


class TestShapeProperties:
    @given(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=4))
    def test_node_index_bijective(self, dims):
        shape = HypercubeShape(tuple(dims))
        indices = {node_index(dims, node_coords(dims, i))
                   for i in range(shape.num_nodes)}
        assert indices == set(range(shape.num_nodes))


@st.composite
def cube_cases(draw):
    """A random small hypercube + dim selection + payload."""
    shape = draw(st.sampled_from(
        [(4, 4, 2), (8, 4), (4, 8), (16, 2), (2, 2, 2, 4), (32,)]))
    ndim = len(shape)
    bitmap = draw(st.integers(1, (1 << ndim) - 1))
    dims = "".join("1" if bitmap & (1 << i) else "0" for i in range(ndim))
    chunk_elems = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31))
    return shape, dims, chunk_elems, seed


class TestCollectiveProperties:
    @given(cube_cases())
    @settings(max_examples=25, deadline=None)
    def test_alltoall_matches_reference(self, case):
        shape, dims, chunk_elems, seed = case
        rng = np.random.default_rng(seed)
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=shape)
        groups = slice_groups(manager, dims)
        n = groups[0].size
        elems = n * chunk_elems
        total = elems * 8
        src, dst = system.alloc(total), system.alloc(total)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(-1000, 1000, elems) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall(dims, total, src_offset=src,
                                       dst_offset=dst, data_type=INT64,
                                       config=FULL)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                got = system.read_elements(pe, dst, elems, INT64)
                assert np.array_equal(got, want)

    @given(cube_cases(), st.sampled_from([SUM, MIN, MAX]))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_matches_reference(self, case, op):
        shape, dims, chunk_elems, seed = case
        rng = np.random.default_rng(seed)
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=shape)
        groups = slice_groups(manager, dims)
        n = groups[0].size
        elems = n * chunk_elems
        total = elems * 4
        src, dst = system.alloc(total), system.alloc(total)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(-1000, 1000, elems).astype(np.int32)
                    for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT32)
            inputs[g.instance] = vecs
        Communicator(manager).allreduce(dims, total, src_offset=src,
                                        dst_offset=dst, data_type=INT32,
                                        reduction_type=op, config=FULL)
        for g in groups:
            expect = ref.allreduce(inputs[g.instance], op)
            for pe, want in zip(g.pe_ids, expect):
                got = system.read_elements(pe, dst, elems, INT32)
                assert np.array_equal(got, want)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_alltoall_is_involution(self, seed):
        """AlltoAll applied twice restores the original buffers."""
        rng = np.random.default_rng(seed)
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=(4, 8))
        groups = slice_groups(manager, "10")
        total = 4 * 8
        a, b = system.alloc(total), system.alloc(total)
        originals = {}
        for g in groups:
            for pe in g.pe_ids:
                v = rng.integers(0, 1000, 4)
                system.write_elements(pe, a, v, INT64)
                originals[pe] = v
        Communicator(manager).alltoall("10", total, src_offset=a, dst_offset=b,
                                       data_type=INT64)
        Communicator(manager).alltoall("10", total, src_offset=b, dst_offset=a,
                                       data_type=INT64)
        for pe, want in originals.items():
            assert np.array_equal(system.read_elements(pe, a, 4, INT64), want)


class TestRootedProperties:
    @given(cube_cases())
    @settings(max_examples=15, deadline=None)
    def test_scatter_gather_roundtrip_any_cube(self, case):
        """Gather(Scatter(x)) == x for every cube slicing."""
        from repro.core.groups import slice_groups
        shape, dims, chunk_elems, seed = case
        rng = np.random.default_rng(seed)
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=shape)
        groups = slice_groups(manager, dims)
        n = groups[0].size
        buf = system.alloc(chunk_elems * 8)
        payloads = {g.instance: rng.integers(0, 1 << 30,
                                             n * chunk_elems)
                    for g in groups}
        Communicator(manager).scatter(dims, chunk_elems * 8, dst_offset=buf,
                                      data_type=INT64, payloads=payloads)
        result = Communicator(manager).gather(
            dims, chunk_elems * 8, src_offset=buf, data_type=INT64)
        for g in groups:
            np.testing.assert_array_equal(
                result.host_outputs[g.instance], payloads[g.instance])

    @given(cube_cases(), st.sampled_from([SUM, MIN, MAX]))
    @settings(max_examples=15, deadline=None)
    def test_reduce_matches_reference_any_cube(self, case, op):
        from repro.core.groups import slice_groups
        shape, dims, chunk_elems, seed = case
        rng = np.random.default_rng(seed)
        system = DimmSystem.small(mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=shape)
        groups = slice_groups(manager, dims)
        n = groups[0].size
        elems = n * chunk_elems
        buf = system.alloc(elems * 8)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(-500, 500, elems) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, buf, v, INT64)
            inputs[g.instance] = vecs
        result = Communicator(manager).reduce(
            dims, elems * 8, src_offset=buf, data_type=INT64,
            reduction_type=op)
        for g in groups:
            want = ref.reduce(inputs[g.instance], op)
            got = np.asarray(result.host_outputs[g.instance]).reshape(-1)
            np.testing.assert_array_equal(got, want)


class TestExoticGeometries:
    """Collectives must hold on any chips-per-rank (EG width)."""

    @given(st.sampled_from([2, 8]), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_alltoall_on_other_eg_widths(self, chips, seed):
        from repro.hw.geometry import DimmGeometry
        rng = np.random.default_rng(seed)
        geometry = DimmGeometry(2, 1, chips, 4)
        system = DimmSystem(geometry, mram_bytes=1 << 16)
        manager = HypercubeManager(system, shape=(chips * 4, 2))
        from repro.core.groups import slice_groups
        groups = slice_groups(manager, "10")
        n = groups[0].size
        total = n * 8
        src, dst = system.alloc(total), system.alloc(total)
        inputs = {}
        for g in groups:
            vecs = [rng.integers(0, 1000, n) for _ in g.pe_ids]
            for pe, v in zip(g.pe_ids, vecs):
                system.write_elements(pe, src, v, INT64)
            inputs[g.instance] = vecs
        Communicator(manager).alltoall("10", total, src_offset=src,
                                       dst_offset=dst, data_type=INT64)
        for g in groups:
            expect = ref.alltoall(inputs[g.instance])
            for pe, want in zip(g.pe_ids, expect):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, n, INT64), want)
