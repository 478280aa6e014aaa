"""Property-based differential fuzzing: engine vs. golden reference.

Seeded randomized sweeps drive every primitive through the session
engine over random shapes, dimension bitmaps, dtypes, chunk sizes, and
optimization configs, and require the functional result to match
``core/reference.py`` *bit-exactly* -- both on a healthy system and
under injected transient faults with retry enabled (detection + rewind
means faults may cost attempts but can never alter results).  One arm
submits random mixed batches that form a single hazard wave, so a
pooled session replays their members concurrently.

Compiling arms run on the vectorized arena, the only store compiled
replay runs on; the interpreted arms also run on the scalar oracle
store.  The tier-1 sweeps are sized to stay fast; the ``fuzz`` marker
guards a longer sweep excluded from the default run (``pytest -m
fuzz`` or ``tools/run_fuzz.py`` runs it).
"""

import numpy as np
import pytest

from .helpers import (COMPILED_STORES, fill_group_inputs, groups_of,
                      make_manager)

from repro import (
    ABLATION_LADDER,
    BASELINE,
    CommRequest,
    Communicator,
    FaultInjector,
    FULL,
    PR_IM,
    PR_ONLY,
    SessionConfig,
)
from repro.core import reference as ref
from repro.core.collectives.program import traffic_mismatches
from repro.dtypes import INT8, INT16, INT32, INT64, SUM

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPES = ((4, 8), (8, 4), (4, 4, 2), (2, 4, 4), (2, 2, 8), (16, 2))
DTYPES = (INT8, INT16, INT32, INT64)
CONFIGS = tuple(ABLATION_LADDER)


def _random_bitmap(rng: np.random.Generator, ndim: int) -> str:
    while True:
        bits = rng.integers(0, 2, ndim)
        if bits.any():
            return "".join(str(int(b)) for b in bits)


def _random_case(rng: np.random.Generator) -> dict:
    return {
        "primitive": PRIMITIVES[rng.integers(len(PRIMITIVES))],
        "shape": SHAPES[rng.integers(len(SHAPES))],
        "dtype": DTYPES[rng.integers(len(DTYPES))],
        "chunk": int(rng.integers(1, 5)),
        "config": CONFIGS[rng.integers(len(CONFIGS))],
    }


def prepare_case(rng: np.random.Generator, manager, primitive: str, dtype,
                 chunk: int, config=None, sparsify: bool = False):
    """Draw one collective's dimensions and inputs into fresh buffers.

    Returns ``(request, check)``: a :class:`CommRequest` over newly
    allocated MRAM, so cases prepared on one manager never share a
    byte, and ``check(result)``, which asserts the request's outputs
    bit-exactly against ``core/reference.py``.  ``config`` is the
    request's own rung (None = the session's).  ``sparsify`` zeroes a
    random per-case fraction of every input so an eliding replay sees
    arbitrary mixes of zero, partial-zero, and dense chunks -- and
    must stay bit-exact at every mix.
    """
    system = manager.system
    bitmap = _random_bitmap(rng, manager.ndim)
    groups = groups_of(manager, bitmap)
    n = groups[0].size
    item = dtype.itemsize
    sparsity = float(rng.choice((0.0, 0.25, 0.5, 0.9, 1.0))) \
        if sparsify else 0.0

    def _sparsified(values: np.ndarray) -> np.ndarray:
        if sparsity:
            values[rng.random(values.size) < sparsity] = 0
        return values

    def mram_check(dst: int, elems: int, reference_fn):
        def check(result) -> None:
            for group in groups:
                want = reference_fn(group.instance)
                for pe, expect in zip(group.pe_ids, want):
                    np.testing.assert_array_equal(
                        system.read_elements(pe, dst, elems, dtype), expect)
        return check

    if primitive in ("scatter", "broadcast"):
        root_elems = n * chunk if primitive == "scatter" else chunk
        payloads = {g.instance: _sparsified(
            rng.integers(-99, 100, root_elems).astype(dtype.np_dtype))
            for g in groups}
        total = chunk * item
        dst = system.alloc(total)
        fan = ref.scatter if primitive == "scatter" else ref.broadcast
        return (CommRequest(primitive, bitmap, total, dst_offset=dst,
                            data_type=dtype, payloads=payloads,
                            config=config),
                mram_check(dst, chunk, lambda i: fan(payloads[i], n)))

    elems = chunk if primitive == "allgather" else n * chunk
    total = elems * item
    src = system.alloc(total)
    inputs = fill_group_inputs(system, groups, src, elems, dtype, rng)
    if sparsity:
        for group in groups:
            for pe, values in zip(group.pe_ids, inputs[group.instance]):
                system.write_elements(pe, src, _sparsified(values), dtype)

    if primitive in ("gather", "reduce"):
        rooted = (ref.gather if primitive == "gather"
                  else lambda v: ref.reduce(v, SUM))

        def check(result) -> None:
            for group in groups:
                got = np.asarray(result.host_outputs[group.instance]).view(
                    dtype.np_dtype).reshape(-1)
                np.testing.assert_array_equal(
                    got, rooted(inputs[group.instance]))
        return (CommRequest(primitive, bitmap, total, src_offset=src,
                            data_type=dtype, reduction_type=SUM,
                            config=config), check)

    out_elems = {"alltoall": elems, "reduce_scatter": chunk,
                 "allgather": n * chunk, "allreduce": elems}[primitive]
    # Half the AllReduce cases run in place, as the applications' do.
    in_place = primitive == "allreduce" and rng.random() < 0.5
    dst = src if in_place else system.alloc(out_elems * item)
    reference_fn = {"alltoall": lambda v: ref.alltoall(v),
                    "allgather": lambda v: ref.allgather(v),
                    "reduce_scatter": lambda v: ref.reduce_scatter(v, SUM),
                    "allreduce": lambda v: ref.allreduce(v, SUM)}[primitive]
    return (CommRequest(primitive, bitmap, total, src_offset=src,
                        dst_offset=dst, data_type=dtype, reduction_type=SUM,
                        config=config),
            mram_check(dst, out_elems,
                       lambda i: reference_fn(inputs[i])))


def run_case(rng: np.random.Generator, primitive: str, shape: tuple,
             dtype, chunk: int, config, injector=None,
             backend: str = "vectorized", execution: str = "auto",
             tile: int | None = None, workers: int = 1,
             elide: bool = False, sparsify: bool = False):
    """One randomized collective, checked bit-exactly against reference.

    Returns the engine's CommResult (so fault sweeps can inspect
    ``attempts``).  ``tile`` streams compiled replays through
    ``stream_tile_bytes``-sized scratch bands; ``workers`` > 1 replays
    them band-parallel across a session worker pool (which must stay
    inside the same oracle).  ``backend="scalar"`` takes
    ``execution="interpreted"`` (compiled replay runs on the arena
    only).  ``elide`` turns on content-aware transfer elision (see
    :func:`prepare_case` for ``sparsify``).
    """
    manager = make_manager(shape)
    comm = Communicator(manager, SessionConfig(
        config=config, fault_injector=injector, backend=backend,
        execution=execution, stream_tile_bytes=tile,
        parallel_workers=workers, elide_transfers=elide))
    request, check = prepare_case(rng, manager, primitive, dtype, chunk,
                                  sparsify=sparsify)
    result = comm.run(request)
    check(result)
    return result


def _sweep(seed: int, cases: int, injector_factory=None,
           backend: str = "vectorized", execution: str = "auto",
           tile: int | None = None, workers: int = 1,
           elide: bool = False, sparsify: bool = False) -> list:
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(cases):
        case = _random_case(rng)
        injector = injector_factory() if injector_factory else None
        results.append(run_case(rng, injector=injector, backend=backend,
                                execution=execution, tile=tile,
                                workers=workers, elide=elide,
                                sparsify=sparsify,
                                **case))
    return results


@pytest.fixture
def tiny_floor(monkeypatch):
    """Let the small fuzz payloads reach the elision scanner."""
    from repro.core.collectives import program as program_mod
    monkeypatch.setattr(program_mod, "ELIDE_MIN_SOURCE_BYTES", 0)


#: The supported (store, execution) cells of a healthy sweep: the
#: interpreter on either store, compiled replay on the arena, and a
#: compiling session left to derive its store (it must pick the arena;
#: the scalar store would raise in compiled replay).
HEALTHY_CELLS = [("scalar", "interpreted"), ("vectorized", "interpreted"),
                 ("vectorized", "compiled"), (None, "auto")]

#: Execution arms a faulted sweep must stay bit-exact under: the fault
#: sites sit in the transfer kernels every arm shares, so retry/rewind
#: has to hold whichever way the session replays.
FAULTED_ARMS = {
    "interpreted": dict(execution="interpreted"),
    "compiled": dict(execution="compiled"),
    "streamed": dict(execution="compiled", tile=33),
    "eliding": dict(execution="compiled", elide=True, sparsify=True),
}


def _one_percent_injectors():
    """Factory of fresh ~1 %/operation injectors, one seed per case."""
    counter = [0]

    def injector_factory():
        counter[0] += 1
        return FaultInjector(seed=counter[0], bit_flip_rate=0.004,
                             drop_rate=0.003, timeout_rate=0.003)

    return injector_factory


def _assert_ran_as(arm: str, results) -> None:
    expected = {"interpreted": "interpreted", "compiled": "compiled",
                "streamed": "streamed", "eliding": "compiled"}[arm]
    assert {r.execution for r in results} == {expected}


class TestHealthySweep:
    @pytest.mark.parametrize("backend, execution", HEALTHY_CELLS)
    def test_random_cases_match_reference(self, backend, execution):
        _sweep(seed=2024, cases=32, backend=backend, execution=execution)

    @pytest.mark.parametrize("backend, execution", HEALTHY_CELLS)
    def test_every_primitive_covered(self, backend, execution):
        # The randomized sweep must not silently skip a primitive:
        # enumerate all eight explicitly at a fixed shape/config.
        rng = np.random.default_rng(5)
        for primitive in PRIMITIVES:
            run_case(rng, primitive, (4, 8), INT64, 2, FULL,
                     backend=backend, execution=execution)

    def test_replay_is_deterministic(self):
        a = [r.plan.primitive for r in _sweep(seed=11, cases=8)]
        b = [r.plan.primitive for r in _sweep(seed=11, cases=8)]
        assert a == b


class TestStreamedSweep:
    """Streamed tiled replay must stay inside the same oracle."""

    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_random_cases_match_reference(self, backend):
        # An uneven 33-byte budget forces short bands, band clamping,
        # and last-band remainders across random shapes and chunks.
        results = _sweep(seed=909, cases=24, backend=backend,
                         execution="compiled", tile=33)
        assert all(r.execution == "streamed" for r in results)

    @pytest.mark.parametrize("tile", [33, 257, 1 << 20],
                             ids=lambda t: f"tile{t}")
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_every_primitive_uneven_tiles(self, backend, tile):
        # Tile sizes that do not divide any row or payload evenly
        # (33, 257) plus one larger than every payload (single band).
        rng = np.random.default_rng(5)
        for primitive in PRIMITIVES:
            result = run_case(rng, primitive, (4, 8), INT64, 2, FULL,
                              backend=backend, execution="compiled",
                              tile=tile)
            assert result.execution == "streamed"
            assert result.tiles >= 1


class TestParallelSweep:
    """Worker pools must never leave the oracle, faulted or not."""

    @pytest.mark.parametrize("workers", [2, 7], ids=lambda w: f"w{w}")
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_streamed_parallel_matches_reference(self, backend, workers):
        # Same seed as the streamed sweep: identical cases, now with
        # band-parallel replay -- results must stay bit-exact.
        results = _sweep(seed=909, cases=16, backend=backend,
                         execution="compiled", tile=33, workers=workers)
        assert all(r.execution == "streamed" for r in results)

    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_faulted_parallel_falls_back_to_serial(self, backend):
        # A pooled session with an injector attached must take the
        # serial fallback (the injector's RNG is stateful) and still
        # retry to bit-exactness.
        results = _sweep(seed=77, cases=16,
                         injector_factory=_one_percent_injectors(),
                         backend=backend, workers=4)
        assert all(r is not None for r in results)
        assert any(r.attempts > 1 for r in results), \
            "parallel faulted sweep never exercised a retry"


def _wave_run(seed: int, backend: str, workers: int, tile: int | None):
    """2-4 random cases on one manager, submitted as one batch.

    Every case owns freshly allocated buffers, so the hazard scheduler
    puts them all in one wave, which a pooled session replays one
    member per worker.  Each result is checked against the reference;
    returns the session stats and the full MRAM image.
    """
    rng = np.random.default_rng(seed)
    manager = make_manager(SHAPES[rng.integers(len(SHAPES))])
    comm = Communicator(manager, SessionConfig(
        backend=backend, execution="compiled", stream_tile_bytes=tile,
        parallel_workers=workers))
    try:
        cases = []
        for _ in range(rng.integers(2, 5)):
            case = _random_case(rng)
            cases.append(prepare_case(rng, manager, case["primitive"],
                                      case["dtype"], case["chunk"],
                                      config=case["config"]))
        batch = comm.submit([request for request, _ in cases])
        assert len(batch.waves) == 1
        for (_, check), future in zip(cases, batch.futures):
            check(future.result())
        system = manager.system
        image = [bytes(system.memory(pe).read(0, system.mram_bytes))
                 for pe in manager.all_pes]
        return comm.stats, image
    finally:
        comm.close()


def _wave_sweep(seeds, backend: str, tile: int | None) -> None:
    for seed in seeds:
        _, serial = _wave_run(seed, backend, 1, tile)
        for workers in (2, 4):
            stats, image = _wave_run(seed, backend, workers, tile)
            assert stats.parallel_requests > 0
            assert stats.parallel_fallbacks == 0
            assert image == serial, \
                f"seed {seed}: MRAM differs at {workers} workers"


class TestWaveSweep:
    """Parallel hazard waves must stay inside the oracle.

    Random mixed batches (primitive, dims, dtype, chunk and rung drawn
    per member) run at 1, 2 and 4 workers; every member must match the
    reference and the MRAM image must not depend on the worker count.
    """

    @pytest.mark.parametrize("tile", [None, 33], ids=["untiled", "streamed"])
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_random_waves_match_reference(self, backend, tile):
        _wave_sweep(range(8), backend, tile)


@pytest.mark.usefixtures("tiny_floor")
class TestFaultedSweep:
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_one_percent_faults_still_bit_exact(self, backend):
        # ~1% per-operation transient fault pressure: every primitive
        # completes bit-identical to the reference, and at least one
        # request needed a retry.
        results = _sweep(seed=77, cases=24,
                         injector_factory=_one_percent_injectors(),
                         backend=backend)
        # The default session replays compiled, injector or not.
        assert {r.execution for r in results} == {"compiled"}
        assert any(r.attempts > 1 for r in results), \
            "fault sweep never exercised a retry; tune seed/rates"

    @pytest.mark.parametrize("backend, arm", [("scalar", "interpreted")] + [
        ("vectorized", arm) for arm in FAULTED_ARMS])
    def test_one_percent_faults_bit_exact_on_every_arm(self, backend, arm):
        # The same pressure on every execution arm: arms draw different
        # fault schedules too, and must all stay bit-exact.
        results = _sweep(seed=77, cases=48,
                         injector_factory=_one_percent_injectors(),
                         backend=backend, **FAULTED_ARMS[arm])
        _assert_ran_as(arm, results)
        assert any(r.attempts > 1 for r in results), \
            "fault sweep never exercised a retry; tune seed/rates"

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_each_primitive_retries_to_exactness(self, backend):
        # Deterministic per-primitive check under heavier pressure; the
        # scalar store runs the interpreted oracle.
        execution = "interpreted" if backend == "scalar" else "auto"
        rng = np.random.default_rng(13)
        attempts = []
        for i, primitive in enumerate(PRIMITIVES):
            injector = FaultInjector(seed=100 + i, timeout_rate=0.1,
                                     bit_flip_rate=0.05)
            result = run_case(rng, primitive, (4, 8), INT32, 2, BASELINE,
                              injector=injector, backend=backend,
                              execution=execution)
            attempts.append(result.attempts)
        assert max(attempts) > 1


@pytest.mark.usefixtures("tiny_floor")
class TestElisionSweep:
    """Content-aware elision must stay inside the oracle at any mix.

    The floor is shrunk so the small fuzz payloads actually reach the
    scanner; per-case sparsity is drawn from {0, .25, .5, .9, 1}, so
    the sweep crosses fully-dense, partial-zero-chunk, and all-zero
    traffic through the same replay paths.
    """

    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_random_sparsity_matches_reference(self, backend):
        _sweep(seed=1717, cases=24, backend=backend, execution="compiled",
               elide=True, sparsify=True)

    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_streamed_parallel_eliding_sweep(self, backend):
        results = _sweep(seed=1818, cases=12, backend=backend,
                         execution="compiled", tile=257, workers=4,
                         elide=True, sparsify=True)
        assert all(r.execution == "streamed" for r in results)

    # Every rung, untiled and streamed through uneven bands.
    @pytest.mark.parametrize("config, tile", [
        (FULL, None), (PR_ONLY, 257), (PR_IM, 257), (FULL, 257),
        (BASELINE, 257)],
        ids=["full-untiled", "pr-streamed", "im-streamed", "full-streamed",
             "baseline-streamed"])
    def test_sparse_sweep_actually_elides(self, config, tile):
        # The random sweep may draw only fold/fanout primitives (no
        # movement op to elide); pin the movement-heavy ones so the
        # activation claim is deterministic, with sparsity still drawn
        # per case.
        rng = np.random.default_rng(1919)
        results = [run_case(rng, primitive, (4, 8), INT64, 2, config,
                            backend="vectorized", execution="compiled",
                            tile=tile, elide=True, sparsify=True)
                   for primitive in ("alltoall", "allgather") * 4]
        assert any(r.chunks_elided > 0 for r in results), \
            "eliding sweep never elided a chunk; tune seed/sparsities"


@pytest.mark.fuzz
class TestLongSweep:
    """Excluded from tier-1 (see ``addopts``); run with ``-m fuzz``."""

    def test_long_healthy_sweep(self):
        """Every plan the sweep ran prices the bytes its ops move."""
        geometry = make_manager((32,)).system.geometry
        for result in _sweep(seed=424242, cases=300):
            assert not traffic_mismatches(result.plan, geometry)

    @pytest.mark.parametrize("tile", [None, 33], ids=["untiled", "streamed"])
    @pytest.mark.parametrize("backend", COMPILED_STORES)
    def test_long_wave_sweep(self, backend, tile):
        _wave_sweep(range(100, 400), backend, tile)

    @pytest.mark.parametrize("arm", FAULTED_ARMS)
    def test_long_faulted_sweep(self, arm, tiny_floor):
        results = _sweep(seed=434343, cases=200,
                         injector_factory=_one_percent_injectors(),
                         backend="vectorized", **FAULTED_ARMS[arm])
        _assert_ran_as(arm, results)
        assert any(r.attempts > 1 for r in results)


def multihost_fabric(kind: str, hosts: int):
    """A ``kind`` fabric over ``hosts`` hosts, fully connected where the
    kind does not apply (a one-host ring, an odd or tiny leaf-spine)."""
    from repro.multihost import Fabric
    if kind == "ring" and hosts >= 2:
        return Fabric.ring(hosts)
    if kind == "leaf_spine" and hosts % 2 == 0 and hosts >= 4:
        return Fabric.leaf_spine(hosts, 2, spine_gbps=0.25)
    return Fabric.fully_connected(hosts)


class TestMultihostSweep:
    """Rack-scale hierarchy: every fabric topology must stay
    bit-identical to the global reference (the global program only
    changes the price; ``test_multihost.TestGlobalRounds`` checks that
    every candidate's rounds deliver)."""

    TOPOLOGIES = ("fully_connected", "ring", "leaf_spine")

    def _run_multihost_case(self, rng, hosts, topology, primitive,
                            elide=False, sparsify=False):
        from repro.multihost import (MultiHostSystem, multihost_allgather,
                                     multihost_allreduce,
                                     multihost_alltoall,
                                     multihost_reduce_scatter)
        from repro.engine import SessionConfig
        mh = MultiHostSystem(
            hosts, ranks_per_channel=1, mram_bytes=1 << 16,
            session_config=SessionConfig(backend="vectorized",
                                         elide_transfers=elide),
            fabric=multihost_fabric(topology, hosts))
        tp = mh.total_pes
        if primitive == "allgather":
            elems = int(rng.integers(1, 4)) * 2
            out_elems = tp * elems
        else:
            elems = tp * int(rng.integers(1, 3))
            out_elems = (elems // tp if primitive == "reduce_scatter"
                         else elems)
        buf = mh.alloc(elems * 8)
        out = mh.alloc(out_elems * 8)
        inputs = [rng.integers(-100, 100, elems) for _ in range(tp)]
        if sparsify:
            zero = rng.random(tp) < 0.7
            inputs = [np.zeros(elems, dtype=np.int64) if z else v
                      for v, z in zip(inputs, zero)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        run = {"allreduce": lambda: multihost_allreduce(
                   mh, elems * 8, buf, out, INT64, SUM),
               "alltoall": lambda: multihost_alltoall(
                   mh, elems * 8, buf, out, INT64),
               "reduce_scatter": lambda: multihost_reduce_scatter(
                   mh, elems * 8, buf, out, INT64, SUM),
               "allgather": lambda: multihost_allgather(
                   mh, elems * 8, buf, out, INT64)}[primitive]
        result = run()
        expect = {"allreduce": lambda: ref.allreduce(inputs, SUM),
                  "alltoall": lambda: ref.alltoall(inputs),
                  "reduce_scatter": lambda: ref.reduce_scatter(inputs, SUM),
                  "allgather": lambda: ref.allgather(inputs)}[primitive]()
        for gpe in range(tp):
            np.testing.assert_array_equal(
                mh.read_pe(gpe, out, out_elems, INT64), expect[gpe])
        mh.close()
        return result

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_topology_sweep_matches_reference(self, topology):
        rng = np.random.default_rng(606)
        primitives = ("allreduce", "alltoall", "reduce_scatter",
                      "allgather")
        for hosts in (2, 4):
            for primitive in primitives:
                self._run_multihost_case(rng, hosts, topology,
                                         primitive)

    def test_sparse_eliding_sweep_matches_reference(self):
        rng = np.random.default_rng(808)
        elided = 0
        for primitive in ("alltoall", "allreduce"):
            for _ in range(3):
                result = self._run_multihost_case(
                    rng, 2, "fully_connected", primitive,
                    elide=True, sparsify=True)
                elided += result.elided_fabric_bytes
        assert elided > 0, "sparse multihost sweep never elided bytes"


@pytest.mark.fuzz
class TestLongMultihostSweep:
    """Excluded from tier-1; run with ``-m fuzz``."""

    def test_long_topology_grid(self):
        sweep = TestMultihostSweep()
        rng = np.random.default_rng(919191)
        primitives = ("allreduce", "alltoall", "reduce_scatter",
                      "allgather")
        for topology in TestMultihostSweep.TOPOLOGIES:
            for hosts in (2, 3, 4, 5, 7, 8):
                for primitive in primitives:
                    sweep._run_multihost_case(
                        rng, hosts, topology, primitive,
                        elide=bool(rng.integers(2)),
                        sparsify=bool(rng.integers(2)))

    def test_long_candidate_delivery_grid(self):
        """Every tuner candidate's rounds deliver, to 32 hosts, on every
        fabric constructor and spine rate."""
        from repro.multihost import GLOBAL_PRIMITIVES, Fabric, GlobalTuner
        from .test_multihost import delivery_problems
        checked = 0
        for n in range(1, 33):
            fabrics = [Fabric.fully_connected(n)]
            if n >= 2:
                fabrics.append(Fabric.ring(n))
            for racks in (2, 4):
                if n % racks == 0 and n > racks:
                    fabrics += [Fabric.leaf_spine(n, racks, spine_gbps=rate)
                                for rate in (None, 2.5, 0.25, 0.125)]
            for fabric in fabrics:
                tuner = GlobalTuner(fabric)
                for primitive in GLOBAL_PRIMITIVES:
                    for nbytes in (n * n * 8, n * n * 4096,
                                   n * n * (1 << 16)):
                        for program in tuner.candidates(primitive, nbytes):
                            assert delivery_problems(program) == [], \
                                program.describe()
                            checked += 1
        assert checked > 4000
