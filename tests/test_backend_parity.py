"""Backend parity: the vectorized backend must be indistinguishable.

The ISSUE's acceptance bar for the lane-major backend is strict: for
every collective, every optimization rung, and every dtype, the
vectorized path must produce bit-identical PE memories and host
outputs, an identical :class:`CostLedger` breakdown, identical
:class:`SimdCounter` register-op counts, and identical WRAM tile
counts -- the batched kernels may be faster, never cheaper.  This
module asserts all of that pairwise: vectorized compiled replay against
the scalar interpreted oracle (compiled replay runs on the arena only),
plus the low-level kernel equivalences the step implementations rely
on.
"""

import numpy as np
import pytest

from .helpers import (fill_group_inputs, groups_of, make_manager,
                      parity_config)

from repro import (ABLATION_LADDER, Communicator, DimmSystem, FaultInjector,
                   FULL, SessionConfig)
from repro.core import reference as ref
from repro.dtypes import FLOAT32, INT8, INT32, INT64, SUM
from repro.errors import AllocationError, CollectiveError, TransferError
from repro.hw.host import (SimdCounter, fanout_all_slots, rotate_all_slots,
                           rotate_lanes_registerwise)
from repro.hw.pe import check_permutation, check_permutation_rows

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPE = (4, 8)
BITMAP = "11"
CHUNK = 3


def _run(primitive, config, dtype, backend, seed=0, injector=None):
    """One collective on one backend; returns (outputs, CommResult).

    ``outputs`` maps group instance -> list of per-PE (or host) arrays.
    Everything random is drawn from ``seed`` so the two backends see
    byte-identical inputs.
    """
    rng = np.random.default_rng(seed)
    manager = make_manager(SHAPE)
    system = manager.system
    comm = Communicator(manager, parity_config(
        backend, config=config, fault_injector=injector))
    groups = groups_of(manager, BITMAP)
    n = groups[0].size
    item = dtype.itemsize

    if primitive in ("scatter", "broadcast"):
        root_elems = n * CHUNK if primitive == "scatter" else CHUNK
        payloads = {g.instance: rng.integers(-99, 100, root_elems)
                    .astype(dtype.np_dtype) for g in groups}
        total = CHUNK * item
        dst = system.alloc(total)
        result = getattr(comm, primitive)(
            BITMAP, total, dst_offset=dst, data_type=dtype,
            payloads=payloads)
        outputs = {g.instance: [system.read_elements(pe, dst, CHUNK, dtype)
                                for pe in g.pe_ids] for g in groups}
        return outputs, result, payloads

    elems = CHUNK if primitive == "allgather" else n * CHUNK
    total = elems * item
    src = system.alloc(total)
    inputs = fill_group_inputs(system, groups, src, elems, dtype, rng)

    if primitive in ("gather", "reduce"):
        kwargs = {"reduction_type": SUM} if primitive == "reduce" else {}
        result = getattr(comm, primitive)(
            BITMAP, total, src_offset=src, data_type=dtype, **kwargs)
        outputs = {inst: [np.asarray(out).view(dtype.np_dtype).reshape(-1)]
                   for inst, out in result.host_outputs.items()}
        return outputs, result, inputs

    out_elems = {"alltoall": elems, "reduce_scatter": CHUNK,
                 "allgather": n * CHUNK, "allreduce": elems}[primitive]
    dst = system.alloc(out_elems * item)
    kwargs = ({"reduction_type": SUM}
              if primitive in ("reduce_scatter", "allreduce") else {})
    result = getattr(comm, primitive)(
        BITMAP, total, src_offset=src, dst_offset=dst, data_type=dtype,
        **kwargs)
    outputs = {g.instance: [system.read_elements(pe, dst, out_elems, dtype)
                            for pe in g.pe_ids] for g in groups}
    return outputs, result, inputs


def _assert_equal_runs(primitive, config, dtype, seed=0):
    """Run both backends on identical inputs; everything must match."""
    s_out, s_res, _ = _run(primitive, config, dtype, "scalar", seed)
    v_out, v_res, _ = _run(primitive, config, dtype, "vectorized", seed)
    assert s_out.keys() == v_out.keys()
    for inst in s_out:
        for a, b in zip(s_out[inst], v_out[inst]):
            np.testing.assert_array_equal(a, b)
    assert s_res.ledger.breakdown() == v_res.ledger.breakdown()
    assert s_res.simd == v_res.simd
    assert s_res.wram_tiles == v_res.wram_tiles


class TestCollectiveParity:
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("config", ABLATION_LADDER,
                             ids=lambda c: c.describe()
                             if hasattr(c, "describe") else str(c))
    def test_every_rung_matches(self, primitive, config):
        _assert_equal_runs(primitive, config, INT32)

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("dtype", [INT8, INT64, FLOAT32],
                             ids=lambda d: d.name)
    def test_every_dtype_matches(self, primitive, dtype):
        # FLOAT32 is the reduction-order canary: the batched reduce
        # must fold slots in the same left-to-right order the scalar
        # loop uses, or sums drift in the low mantissa bits.
        _assert_equal_runs(primitive, FULL, dtype, seed=7)

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_vectorized_matches_reference(self, primitive):
        outputs, _, inputs = _run(primitive, FULL, INT32, "vectorized",
                                  seed=3)
        reference_fn = {
            "alltoall": lambda v: ref.alltoall(v),
            "allgather": lambda v: ref.allgather(v),
            "reduce_scatter": lambda v: ref.reduce_scatter(v, SUM),
            "allreduce": lambda v: ref.allreduce(v, SUM),
            "gather": lambda v: [ref.gather(v)],
            "reduce": lambda v: [ref.reduce(v, SUM)],
            "scatter": lambda v: ref.scatter(v, len(outputs[0])),
            "broadcast": lambda v: ref.broadcast(v, len(outputs[0])),
        }[primitive]
        for inst, got in outputs.items():
            want = reference_fn(inputs[inst])
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_faulted_runs_stay_bit_exact(self):
        # Fault schedules differ between backends (the vectorized path
        # makes fewer injector draws), but CRC + rewind means both must
        # still land on the reference answer.
        for backend in ("scalar", "vectorized"):
            injector = FaultInjector(seed=5, bit_flip_rate=0.004,
                                     drop_rate=0.003, timeout_rate=0.003)
            outputs, result, inputs = _run("alltoall", FULL, INT32,
                                           backend, seed=9,
                                           injector=injector)
            for inst, got in outputs.items():
                want = ref.alltoall(inputs[inst])
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)


class TestCompiledReplayStore:
    """Compiled replay runs on the arena only; the scalar store serves
    the interpreted oracle."""

    @pytest.mark.parametrize("execution", ["auto", "compiled"])
    def test_scalar_store_rejects_compiling_sessions(self, execution):
        with pytest.raises(CollectiveError, match="arena only"):
            SessionConfig(backend="scalar", execution=execution)
        SessionConfig(backend="scalar", execution="interpreted")

    def test_default_session_compiles_on_the_arena(self):
        outputs = {}
        for name, config in (("default", SessionConfig()),
                             ("oracle", parity_config("scalar"))):
            manager = make_manager(SHAPE, mram_bytes=1 << 12)
            system = manager.system
            assert system.backend == "scalar"
            comm = Communicator(manager, config)
            rng = np.random.default_rng(11)
            groups = groups_of(manager, BITMAP)
            n = groups[0].size
            fill_group_inputs(system, groups, 0, n * CHUNK, INT64, rng)
            result = comm.alltoall(BITMAP, n * CHUNK * 8, src_offset=0,
                                   dst_offset=1024, data_type=INT64)
            outputs[name] = (comm.backend, result.execution,
                             system.peek_rows(manager.all_pes, 0, 2048))
        backend, execution, image = outputs["default"]
        assert (backend, execution) == ("vectorized", "compiled")
        assert outputs["oracle"][:2] == ("scalar", "interpreted")
        np.testing.assert_array_equal(image, outputs["oracle"][2])

    def test_arena_kernels_raise_on_the_scalar_store(self):
        system = DimmSystem.small(mram_bytes=1 << 12)
        table = np.zeros((4, 2), dtype=np.intp)
        out = np.empty((4, 2), dtype=np.uint64)
        with pytest.raises(AllocationError, match="no arena"):
            system.take_band_flat(table, 8, 0, 4, out)
        assert system.arena is None  # no shadow arena was built

    def test_replay_after_a_switch_to_scalar_raises(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig())
        comm.alltoall(BITMAP, 256, src_offset=0, dst_offset=4096,
                      data_type=INT32)
        manager.system.set_backend("scalar")
        with pytest.raises(AllocationError, match="no arena"):
            comm.alltoall(BITMAP, 256, src_offset=0, dst_offset=4096,
                          data_type=INT32)
        assert manager.system.arena is None


class TestBackendPlumbing:
    def test_analytic_runs_allocate_nothing(self):
        manager = make_manager(SHAPE)
        comm = Communicator(manager, SessionConfig(functional=False, backend="vectorized"))
        comm.alltoall(BITMAP, 256, src_offset=0, dst_offset=4096,
                      data_type=INT32)
        assert manager.system.touched_pes == 0

    def test_set_backend_migrates_state_both_ways(self):
        system = DimmSystem.small(mram_bytes=1 << 12)
        system.write_elements(3, 64, np.arange(8, dtype=np.int32), INT32)
        system.set_backend("vectorized")
        np.testing.assert_array_equal(
            system.read_elements(3, 64, 8, INT32), np.arange(8))
        system.write_elements(7, 0, np.ones(4, dtype=np.int32), INT32)
        system.set_backend("scalar")
        np.testing.assert_array_equal(
            system.read_elements(3, 64, 8, INT32), np.arange(8))
        np.testing.assert_array_equal(
            system.read_elements(7, 0, 4, INT32), np.ones(4))

    def test_unknown_backend_rejected(self):
        with pytest.raises(AllocationError):
            DimmSystem.small(backend="simd")
        with pytest.raises(AllocationError):
            DimmSystem.small().set_backend("simd")

    def test_plan_keys_never_alias_across_backends(self):
        results = {}
        for backend in ("scalar", "vectorized"):
            manager = make_manager(SHAPE)
            comm = Communicator(manager, parity_config(backend))
            src = manager.system.alloc(256)
            dst = manager.system.alloc(256)
            res = comm.alltoall(BITMAP, 256, src_offset=src, dst_offset=dst,
                                data_type=INT64, functional=False)
            results[backend] = res
        keys = {b: r.plan.primitive for b, r in results.items()}
        assert keys["scalar"] == keys["vectorized"] == "alltoall"
        # The cache key itself must differ on the backend field.
        from repro.engine.request import PlanKey
        a = PlanKey("alltoall", (0,), 256, 0, 0, "int64", None, FULL,
                    backend="scalar")
        b = PlanKey("alltoall", (0,), 256, 0, 0, "int64", None, FULL,
                    backend="vectorized")
        assert a != b


class TestKernelParity:
    def test_permute_chunks_matches_scalar_kernel(self):
        rng = np.random.default_rng(17)
        pes = list(range(8))
        nslots, chunk = 8, 6
        perms = np.stack([rng.permutation(nslots) for _ in pes])
        results = {}
        for backend in ("scalar", "vectorized"):
            system = DimmSystem.small(mram_bytes=1 << 12, backend=backend)
            for pe in pes:
                system.write_elements(
                    pe, 0, np.arange(nslots * chunk, dtype=np.int64) + pe,
                    INT64)
            tiles = system.permute_chunks(pes, 0, nslots * chunk * 8,
                                          chunk * 8, perms)
            data = system.read_lanes(pes, nslots * chunk * 8,
                                     nslots * chunk * 8)
            results[backend] = (tiles, data)
        assert results["scalar"][0] == results["vectorized"][0]
        np.testing.assert_array_equal(results["scalar"][1],
                                      results["vectorized"][1])

    def test_in_place_permute_tile_parity(self):
        pes = [0, 1, 2]
        nslots, chunk_bytes = 6, 8
        # One fixed point per row exercises the cycle-walk discount.
        perm = np.array([1, 0, 3, 2, 5, 4])
        perms = np.stack([perm, np.arange(nslots), np.roll(perm, 2)])
        tiles = {}
        for backend in ("scalar", "vectorized"):
            system = DimmSystem.small(mram_bytes=1 << 12, backend=backend)
            for pe in pes:
                system.write_elements(pe, 0,
                                      np.arange(nslots, dtype=np.int64),
                                      INT64)
            tiles[backend] = system.permute_chunks(pes, 0, 0, chunk_bytes,
                                                   perms)
        assert tiles["scalar"] == tiles["vectorized"]

    def test_rotate_all_slots_matches_per_slot_kernel(self):
        rng = np.random.default_rng(23)
        lanes, nslots, chunk = 8, 8, 16
        tensor = rng.integers(0, 256, (lanes, nslots, chunk),
                              dtype=np.uint8)
        batched_counter = SimdCounter()
        batched = rotate_all_slots(tensor, batched_counter)
        loop_counter = SimdCounter()
        for s in range(nslots):
            expect = rotate_lanes_registerwise(tensor[:, s], s,
                                               loop_counter)
            np.testing.assert_array_equal(batched[:, s], expect)
        assert batched_counter == loop_counter

    def test_fanout_all_slots_matches_per_slot_kernel(self):
        rng = np.random.default_rng(29)
        lanes, nslots, nbytes = 8, 8, 24
        row = rng.integers(0, 256, (lanes, nbytes), dtype=np.uint8)
        batched_counter = SimdCounter()
        fanned = fanout_all_slots(row, nslots, batched_counter)
        loop_counter = SimdCounter()
        for s in range(nslots):
            expect = rotate_lanes_registerwise(row, s, loop_counter)
            np.testing.assert_array_equal(fanned[:, s], expect)
        assert batched_counter == loop_counter

    def test_permutation_validation(self):
        np.testing.assert_array_equal(
            check_permutation(np.array([2, 0, 1])), [2, 0, 1])
        with pytest.raises(TransferError):
            check_permutation(np.array([0, 0, 1]))      # duplicate
        with pytest.raises(TransferError):
            check_permutation(np.array([0, 1, 3]))      # out of range
        with pytest.raises(TransferError):
            check_permutation(np.array([[0, 1], [1, 0]]))  # not 1-D
        good = np.array([[1, 0, 2], [2, 1, 0]])
        np.testing.assert_array_equal(check_permutation_rows(good), good)
        with pytest.raises(TransferError):
            check_permutation_rows(np.array([[1, 0, 2], [2, 2, 0]]))
