"""Functional correctness of every primitive, config, and slicing.

Every test drives the full pipeline -- hypercube slicing, PE-assisted
reorder kernels, host lane passes, domain transfers -- on the simulated
32-PE system and compares the resulting MRAM contents bit-exactly
against the golden reference semantics.
"""

import numpy as np
import pytest

from repro import (
    ABLATION_LADDER,
    BASELINE,
    FULL,
    Communicator,
)
from repro.core import reference as ref
from repro.dtypes import (
    BOR,
    INT8,
    INT16,
    INT32,
    INT64,
    MIN,
    SUM,
    UINT8,
    FLOAT32,
)
from repro.errors import CollectiveError

from .helpers import fill_group_inputs, groups_of, make_manager

CONFIG_IDS = [c.label for c in ABLATION_LADDER]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def run_alltoall(shape, dims, dtype, config, rng, chunk_elems=3):
    manager = make_manager(shape)
    system = manager.system
    groups = groups_of(manager, dims)
    n = groups[0].size
    elems = n * chunk_elems
    total = elems * dtype.itemsize
    src = system.alloc(total)
    dst = system.alloc(total)
    inputs = fill_group_inputs(system, groups, src, elems, dtype, rng)
    Communicator(manager).alltoall(dims, total, src_offset=src, dst_offset=dst,
                                   data_type=dtype, config=config)
    for group in groups:
        expect = ref.alltoall(inputs[group.instance])
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, dst, elems, dtype)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("config", ABLATION_LADDER, ids=CONFIG_IDS)
@pytest.mark.parametrize("dims", ["100", "010", "001", "110", "101", "111"])
def test_alltoall_all_configs_and_dims(config, dims, rng):
    run_alltoall((4, 4, 2), dims, INT64, config, rng)


@pytest.mark.parametrize("dtype", [INT8, INT16, INT32, FLOAT32],
                         ids=lambda d: d.name)
def test_alltoall_dtypes(dtype, rng):
    run_alltoall((4, 4, 2), "110", dtype, FULL, rng, chunk_elems=4)


def test_alltoall_1d_whole_machine(rng):
    run_alltoall((32,), "1", INT64, FULL, rng, chunk_elems=1)


def test_alltoall_group_of_one_is_copy(rng):
    # y dimension of length 1: AlltoAll degenerates to a local copy.
    manager = make_manager((4, 1, 8))
    system = manager.system
    src, dst = system.alloc(16), system.alloc(16)
    values = rng.integers(0, 99, 2)
    system.write_elements(0, src, values, INT64)
    Communicator(manager).alltoall("010", 16, src_offset=src, dst_offset=dst,
                                   data_type=INT64)
    np.testing.assert_array_equal(
        system.read_elements(0, dst, 2, INT64), values)


@pytest.mark.parametrize("config", ABLATION_LADDER, ids=CONFIG_IDS)
@pytest.mark.parametrize("dims", ["100", "010", "011", "111"])
def test_allgather(config, dims, rng):
    manager = make_manager((4, 4, 2))
    system = manager.system
    groups = groups_of(manager, dims)
    n = groups[0].size
    chunk_elems = 2
    in_bytes = chunk_elems * 8
    src = system.alloc(in_bytes)
    dst = system.alloc(n * in_bytes)
    inputs = fill_group_inputs(system, groups, src, chunk_elems, INT64, rng)
    Communicator(manager).allgather(dims, in_bytes, src_offset=src,
                                    dst_offset=dst, data_type=INT64,
                                    config=config)
    for group in groups:
        expect = ref.allgather(inputs[group.instance])
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, dst, n * chunk_elems, INT64)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("config", ABLATION_LADDER, ids=CONFIG_IDS)
@pytest.mark.parametrize("op", [SUM, MIN], ids=str)
def test_reduce_scatter(config, op, rng):
    manager = make_manager((4, 4, 2))
    system = manager.system
    dims = "110"
    groups = groups_of(manager, dims)
    n = groups[0].size
    chunk_elems = 2
    total = n * chunk_elems * 8
    src = system.alloc(total)
    dst = system.alloc(chunk_elems * 8)
    inputs = fill_group_inputs(system, groups, src, n * chunk_elems, INT64, rng)
    Communicator(manager).reduce_scatter(
        dims, total, src_offset=src, dst_offset=dst, data_type=INT64,
        reduction_type=op, config=config)
    for group in groups:
        expect = ref.reduce_scatter(inputs[group.instance], op)
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, dst, chunk_elems, INT64)
            np.testing.assert_array_equal(got, want)


def test_reduce_scatter_8bit_cross_domain(rng):
    # 1-byte elements let CM apply to arithmetic primitives (section V-C).
    manager = make_manager((4, 4, 2))
    system = manager.system
    groups = groups_of(manager, "100")
    n = groups[0].size
    total = n * 8
    src = system.alloc(total)
    dst = system.alloc(8)
    inputs = fill_group_inputs(system, groups, src, total, UINT8, rng)
    result = Communicator(manager).reduce_scatter(
        "100", total, src_offset=src, dst_offset=dst, data_type=UINT8,
        reduction_type=SUM, config=FULL)
    # CM applied: no domain-transfer cost at all.
    assert result.ledger.get("dt") == 0.0
    for group in groups:
        expect = ref.reduce_scatter(inputs[group.instance], SUM)
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, dst, 8, UINT8)
            np.testing.assert_array_equal(got, want)


def test_reduce_scatter_64bit_always_pays_dt():
    manager = make_manager((4, 4, 2))
    system = manager.system
    total = 4 * 16
    src = system.alloc(total)
    dst = system.alloc(16)
    result = Communicator(manager).reduce_scatter(
        "100", total, src_offset=src, dst_offset=dst, data_type=INT64,
        reduction_type=SUM, config=FULL, functional=False)
    assert result.ledger.get("dt") > 0.0


@pytest.mark.parametrize("config", ABLATION_LADDER, ids=CONFIG_IDS)
@pytest.mark.parametrize("dims", ["100", "011", "111"])
def test_allreduce(config, dims, rng):
    manager = make_manager((4, 4, 2))
    system = manager.system
    groups = groups_of(manager, dims)
    n = groups[0].size
    elems = n * 2  # divisible into n chunks
    total = elems * 8
    src = system.alloc(total)
    dst = system.alloc(total)
    inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)
    Communicator(manager).allreduce(dims, total, src_offset=src,
                                    dst_offset=dst, data_type=INT64,
                                    reduction_type=SUM, config=config)
    for group in groups:
        expect = ref.allreduce(inputs[group.instance], SUM)
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, dst, elems, INT64)
            np.testing.assert_array_equal(got, want)


def test_allreduce_bitwise_or(rng):
    # BFS-style visited-list update.
    manager = make_manager((4, 4, 2))
    system = manager.system
    groups = groups_of(manager, "111")
    elems = 32 * 1
    total = elems * 8
    src, dst = system.alloc(total), system.alloc(total)
    inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)
    Communicator(manager).allreduce("111", total, src_offset=src,
                                    dst_offset=dst, data_type=INT64,
                                    reduction_type=BOR)
    expect = ref.allreduce(inputs[0], BOR)
    for pe, want in zip(groups[0].pe_ids, expect):
        np.testing.assert_array_equal(
            system.read_elements(pe, dst, elems, INT64), want)


class TestRooted:
    def test_gather(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "110")
        src = system.alloc(24)
        inputs = fill_group_inputs(system, groups, src, 3, INT64, rng)
        result = Communicator(manager).gather(
            "110", 24, src_offset=src, data_type=INT64)
        assert result.host_outputs is not None
        for group in groups:
            want = ref.gather(inputs[group.instance])
            np.testing.assert_array_equal(
                result.host_outputs[group.instance], want)

    def test_scatter(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "101")
        n = groups[0].size
        dst = system.alloc(16)
        payloads = {g.instance: rng.integers(0, 99, n * 2).astype(np.int64)
                    for g in groups}
        Communicator(manager).scatter("101", 16, dst_offset=dst,
                                      data_type=INT64, payloads=payloads)
        for group in groups:
            expect = ref.scatter(payloads[group.instance], n)
            for pe, want in zip(group.pe_ids, expect):
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, 2, INT64), want)

    def test_scatter_functional_needs_payloads(self):
        manager = make_manager((4, 4, 2))
        manager.system.alloc(16)
        with pytest.raises(CollectiveError, match="payloads"):
            Communicator(manager).scatter(
                "100", 16, dst_offset=0, data_type=INT64)

    @pytest.mark.parametrize("config", [BASELINE, FULL],
                             ids=["Baseline", "+CM"])
    def test_reduce(self, config, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "100")
        n = groups[0].size
        elems = n * 2
        total = elems * 8
        src = system.alloc(total)
        inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)
        result = Communicator(manager).reduce(
            "100", total, src_offset=src, data_type=INT64, reduction_type=SUM,
            config=config)
        assert result.host_outputs is not None
        for group in groups:
            want = ref.reduce(inputs[group.instance], SUM)
            got = np.asarray(result.host_outputs[group.instance]).view(
                np.int64).reshape(-1)
            np.testing.assert_array_equal(got, want)

    def test_broadcast(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "111")
        dst = system.alloc(32)
        payload = rng.integers(0, 99, 4).astype(np.int64)
        Communicator(manager).broadcast("111", 32, dst_offset=dst,
                                        data_type=INT64, payloads={0: payload})
        for pe in groups[0].pe_ids:
            np.testing.assert_array_equal(
                system.read_elements(pe, dst, 4, INT64), payload)

    def test_broadcast_per_instance_payloads(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "100")
        dst = system.alloc(16)
        payloads = {g.instance: rng.integers(0, 99, 2).astype(np.int64)
                    for g in groups}
        Communicator(manager).broadcast("100", 16, dst_offset=dst,
                                        data_type=INT64, payloads=payloads)
        for group in groups:
            for pe in group.pe_ids:
                np.testing.assert_array_equal(
                    system.read_elements(pe, dst, 2, INT64),
                    payloads[group.instance])


class TestComposition:
    def test_rs_then_ag_equals_allreduce(self, rng):
        """The fused AllReduce must agree with composed RS + AG."""
        manager = make_manager((4, 4, 2))
        system = manager.system
        dims = "110"
        groups = groups_of(manager, dims)
        n = groups[0].size
        elems = n * 2
        total = elems * 8
        chunk_bytes = total // n
        src = system.alloc(total)
        mid = system.alloc(chunk_bytes)
        out_composed = system.alloc(total)
        out_fused = system.alloc(total)
        inputs = fill_group_inputs(system, groups, src, elems, INT64, rng)

        Communicator(manager).reduce_scatter(
            dims, total, src_offset=src, dst_offset=mid, data_type=INT64,
            reduction_type=SUM)
        Communicator(manager).allgather(dims, chunk_bytes, src_offset=mid,
                                        dst_offset=out_composed,
                                        data_type=INT64)

        # Restore the inputs RS consumed, then run the fused AllReduce.
        for group in groups:
            for pe, values in zip(group.pe_ids, inputs[group.instance]):
                system.write_elements(pe, src, values, INT64)
        Communicator(manager).allreduce(dims, total, src_offset=src,
                                        dst_offset=out_fused, data_type=INT64,
                                        reduction_type=SUM)

        for group in groups:
            for pe in group.pe_ids:
                np.testing.assert_array_equal(
                    system.read_elements(pe, out_composed, elems, INT64),
                    system.read_elements(pe, out_fused, elems, INT64))

    def test_scatter_then_gather_roundtrip(self, rng):
        manager = make_manager((4, 4, 2))
        system = manager.system
        groups = groups_of(manager, "111")
        buf = system.alloc(16)
        payload = rng.integers(0, 99, 32 * 2).astype(np.int64)
        Communicator(manager).scatter("111", 16, dst_offset=buf,
                                      data_type=INT64, payloads={0: payload})
        result = Communicator(manager).gather(
            "111", 16, src_offset=buf, data_type=INT64)
        np.testing.assert_array_equal(result.host_outputs[0], payload)


class TestValidation:
    def test_indivisible_size_rejected(self):
        manager = make_manager((4, 4, 2))
        manager.system.alloc(64)
        with pytest.raises(CollectiveError, match="divide"):
            # 48 bytes cannot split into 32 chunks (the "111" group size).
            Communicator(manager).alltoall(
                "111", 48, src_offset=0, dst_offset=0, data_type=INT64,
                functional=False)

    def test_misaligned_dtype_rejected(self):
        manager = make_manager((4, 4, 2))
        with pytest.raises(CollectiveError, match="whole number"):
            Communicator(manager).alltoall(
                "100", 4, src_offset=0, dst_offset=0, data_type=INT64,
                functional=False)

    def test_bitwise_float_rejected(self):
        manager = make_manager((4, 4, 2))
        with pytest.raises(CollectiveError):
            Communicator(manager).allreduce(
                "100", 32, src_offset=0, dst_offset=0, data_type=FLOAT32,
                reduction_type=BOR, functional=False)


class TestConfigEquivalence:
    """All optimization levels must leave byte-identical MRAM state --
    the techniques change costs, never results."""

    @pytest.mark.parametrize("dims", ["100", "011"])
    def test_alltoall_outputs_identical_across_ladder(self, dims, rng):
        snapshots = []
        for config in ABLATION_LADDER:
            manager = make_manager((4, 4, 2))
            system = manager.system
            groups = groups_of(manager, dims)
            n = groups[0].size
            total = n * 16
            src, dst = system.alloc(total), system.alloc(total)
            local_rng = np.random.default_rng(99)
            fill_group_inputs(system, groups, src, n * 2, INT64, local_rng)
            Communicator(manager).alltoall(
                dims, total, src_offset=src, dst_offset=dst, data_type=INT64,
                config=config)
            snapshot = np.concatenate(
                [system.read_elements(pe, dst, n * 2, INT64)
                 for pe in manager.all_pes])
            snapshots.append(snapshot)
        for other in snapshots[1:]:
            np.testing.assert_array_equal(snapshots[0], other)

    def test_allreduce_outputs_identical_across_ladder(self, rng):
        snapshots = []
        for config in ABLATION_LADDER:
            manager = make_manager((4, 4, 2))
            system = manager.system
            groups = groups_of(manager, "110")
            n = groups[0].size
            total = n * 8
            src, dst = system.alloc(total), system.alloc(total)
            local_rng = np.random.default_rng(7)
            fill_group_inputs(system, groups, src, n, INT64, local_rng)
            Communicator(manager).allreduce(
                "110", total, src_offset=src, dst_offset=dst, data_type=INT64,
                reduction_type="sum", config=config)
            snapshots.append(np.concatenate(
                [system.read_elements(pe, dst, n, INT64)
                 for pe in manager.all_pes]))
        for other in snapshots[1:]:
            np.testing.assert_array_equal(snapshots[0], other)
