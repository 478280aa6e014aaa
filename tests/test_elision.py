"""Content-aware transfer elision: bit-exact parity at every sparsity.

The elision layer (``core/collectives/program.py`` +
``hw/arena.scan_chunk_classes``) fingerprint-scans movement sources and
skips the gather and bus charge for all-zero / byte-identical output
rows.  The acceptance bar is the stack's standing one: an eliding
replay is *bit-identical* to the scalar interpreted oracle at every
elision rate -- all-zero, all-duplicate, mixed, and fully dense
payloads -- across both backends, untiled and streamed replay, and any
worker count.  The dense fast path must also hold: with elision off
(or inapplicable) no scan work happens at all, which the EngineStats
counters witness.

The tier-1 parity matrix shrinks :data:`ELIDE_MIN_SOURCE_BYTES` so the
small test machine exercises the full scan/classify/alias machinery;
one engine-level test keeps the real floor to check both of its sides.
"""

import numpy as np
import pytest

from .helpers import fill_group_inputs, groups_of, make_manager

from repro import Communicator, FULL, FaultInjector, SessionConfig
from repro.core.collectives import program as program_mod
from repro.core.collectives.schedule import Schedule
from repro.dtypes import INT32, SUM
from repro.engine.stats import EngineStats
from repro.errors import CollectiveError

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPE = (4, 8)
BITMAP = "11"
CHUNK = 3
PAYLOADS = ("zero", "dup", "mixed", "dense")


@pytest.fixture
def tiny_floor(monkeypatch):
    """Let the 32-PE test machine's small payloads reach the scanner."""
    monkeypatch.setattr(program_mod, "ELIDE_MIN_SOURCE_BYTES", 0)


def _fill(system, groups, offset, elems, dtype, mode, seed):
    """Write one payload shape per PE; returns instance -> vectors.

    ``zero`` = everything elidable as zero rows; ``dup`` = each PE
    repeats one block across all its destination slots, so every
    destination row gathers the same bytes (duplicate rows); ``mixed``
    = random content
    with the same half of the per-destination blocks zeroed on every
    PE (the structured sparsity whole-row elision needs); ``dense`` =
    nonzero random bytes (nothing elidable).
    """
    rng = np.random.default_rng(seed)
    inputs = {}
    for group in groups:
        n = group.size
        vectors = []
        shared = rng.integers(1, 100, elems).astype(dtype.np_dtype)
        cold = rng.random(n) < 0.5
        for rank, pe in enumerate(group.pe_ids):
            if mode == "zero":
                values = np.zeros(elems, dtype=dtype.np_dtype)
            elif mode == "dup":
                if elems >= n and elems % n == 0:
                    block = rng.integers(1, 100, elems // n).astype(
                        dtype.np_dtype)
                    values = np.tile(block, n)
                else:
                    values = shared.copy()
            elif mode == "dense":
                values = rng.integers(1, 100, elems).astype(dtype.np_dtype)
            else:  # mixed: zero the cold destinations' blocks everywhere
                values = rng.integers(1, 100, elems).astype(dtype.np_dtype)
                if elems >= n:
                    blocks = values.reshape(n, -1)
                    blocks[cold] = 0
            system.write_elements(pe, offset, values, dtype)
            vectors.append(values)
        inputs[group.instance] = vectors
    return inputs


def _run(primitive, backend, execution, payload, *, elide=True,
         tile=None, workers=1, injector=None, seed=0, calls=2,
         chunk=CHUNK, bitmap=BITMAP):
    """Run ``calls`` identical collectives; returns (outputs, result).

    The default 3-element chunk makes 12-byte movement chunks -- not
    a whole number of uint64 words, so the scanner takes its zero-only
    fallback (deliberately exercised by the parity matrix).  Duplicate
    detection needs word-viewable chunks; dup tests pass ``chunk=4``.
    """
    manager = make_manager(SHAPE)
    system = manager.system
    comm = Communicator(manager, SessionConfig(
        config=FULL, backend=backend, execution=execution,
        stream_tile_bytes=tile, parallel_workers=workers,
        fault_injector=injector, elide_transfers=elide))
    groups = groups_of(manager, bitmap)
    n = groups[0].size
    item = INT32.itemsize

    if primitive in ("scatter", "broadcast"):
        rng = np.random.default_rng(seed)
        root_elems = n * chunk if primitive == "scatter" else chunk
        fill = {"zero": lambda: np.zeros(root_elems, INT32.np_dtype),
                "dup": lambda: np.full(root_elems, 7, INT32.np_dtype)}
        payloads = {g.instance: fill.get(payload, lambda: rng.integers(
            1, 100, root_elems).astype(INT32.np_dtype))() for g in groups}
        total = chunk * item
        dst = system.alloc(total)
        for _ in range(calls):
            result = getattr(comm, primitive)(
                bitmap, total, dst_offset=dst, data_type=INT32,
                payloads=payloads)
        outputs = {g.instance: [system.read_elements(pe, dst, chunk, INT32)
                                for pe in g.pe_ids] for g in groups}
        return outputs, comm, result

    elems = chunk if primitive == "allgather" else n * chunk
    total = elems * item
    src = system.alloc(total)
    out_elems = {"alltoall": elems, "reduce_scatter": chunk,
                 "allgather": n * chunk, "allreduce": elems,
                 "gather": None, "reduce": None}[primitive]
    kwargs = ({"reduction_type": SUM}
              if primitive in ("reduce_scatter", "allreduce", "reduce")
              else {})
    if out_elems is None:
        for call in range(calls):
            _fill(system, groups, src, elems, INT32, payload, seed + call)
            result = getattr(comm, primitive)(
                bitmap, total, src_offset=src, data_type=INT32, **kwargs)
        outputs = {inst: [np.asarray(out).view(INT32.np_dtype).reshape(-1)]
                   for inst, out in result.host_outputs.items()}
        return outputs, comm, result
    dst = system.alloc(out_elems * item)
    for call in range(calls):
        _fill(system, groups, src, elems, INT32, payload, seed + call)
        result = getattr(comm, primitive)(
            bitmap, total, src_offset=src, dst_offset=dst, data_type=INT32,
            **kwargs)
    outputs = {g.instance: [system.read_elements(pe, dst, out_elems, INT32)
                            for pe in g.pe_ids] for g in groups}
    return outputs, comm, result


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for inst in a:
        for x, y in zip(a[inst], b[inst]):
            np.testing.assert_array_equal(x, y)


class TestElisionParity:
    """Eliding replay == interpreted oracle, everywhere."""

    @pytest.mark.parametrize("payload", ("zero", "mixed"))
    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_all_primitives_match_oracle(self, primitive, backend, payload,
                                         tiny_floor):
        want, _, _ = _run(primitive, backend, "interpreted", payload,
                          elide=False)
        got, _, result = _run(primitive, backend, "compiled", payload)
        _assert_same(want, got)
        assert result.execution == "compiled"

    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("workers", (1, 4), ids=lambda w: f"w{w}")
    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    def test_streamed_parity(self, backend, workers, payload, tiny_floor):
        want, _, _ = _run("alltoall", backend, "interpreted", payload,
                          elide=False)
        got, _, result = _run("alltoall", backend, "compiled", payload,
                              tile=257, workers=workers)
        _assert_same(want, got)
        assert result.execution == "streamed"
        # Zero rows elide in any band; duplicate rows only alias
        # *within* a band (scratch locality), and 257-byte bands hold
        # a single row here -- so only "zero" must show elisions.
        if payload == "zero":
            assert result.chunks_elided > 0

    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    def test_streamed_dup_aliases_within_band(self, backend, tiny_floor):
        # A tile larger than the payload keeps all rows in one band,
        # where band-local dedup can alias the duplicates.
        want, _, _ = _run("alltoall", backend, "interpreted", "dup",
                          elide=False, chunk=4)
        got, _, result = _run("alltoall", backend, "compiled", "dup",
                              tile=1 << 20, chunk=4)
        _assert_same(want, got)
        assert result.execution == "streamed"
        assert result.chunks_elided > 0

    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    @pytest.mark.parametrize("primitive, payload, bitmap", [
        ("alltoall", "zero", BITMAP),
        ("alltoall", "dup", BITMAP),
        # Groups of eight sharing one block: allgather's broadcast
        # rows are all duplicates of their group's first row.
        ("allgather", "dup", "01"),
    ])
    def test_one_band_matches_untiled(self, primitive, payload, bitmap,
                                      backend, tiny_floor):
        # An untiled replay is the one-band case of streamed replay:
        # a tile larger than every op must elide the same rows and
        # price the same ledger as the untiled run.
        want, _, untiled = _run(primitive, backend, "compiled", payload,
                                chunk=4, bitmap=bitmap)
        got, _, one_band = _run(primitive, backend, "compiled", payload,
                                tile=1 << 30, chunk=4, bitmap=bitmap)
        _assert_same(want, got)
        assert (untiled.execution, one_band.execution) == \
            ("compiled", "streamed")
        assert one_band.chunks_elided == untiled.chunks_elided > 0
        assert one_band.elided_bytes == untiled.elided_bytes
        assert one_band.chunks_scanned == untiled.chunks_scanned
        assert one_band.ledger.breakdown() == untiled.ledger.breakdown()

    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    def test_zero_payload_elides_everything(self, backend, tiny_floor):
        _, _, result = _run("alltoall", backend, "compiled", "zero")
        assert result.chunks_scanned > 0
        assert result.chunks_elided == result.chunks_scanned
        assert result.elided_bytes > 0

    @pytest.mark.parametrize("backend", ("scalar", "vectorized"))
    def test_duplicate_rows_alias(self, backend, tiny_floor):
        # Per-PE repeated blocks make every destination row gather the
        # same bytes: one representative row is gathered, the rest
        # alias-copy it -- still bit-exact.
        want, _, _ = _run("alltoall", backend, "interpreted", "dup",
                          elide=False, chunk=4)
        got, _, result = _run("alltoall", backend, "compiled", "dup",
                              chunk=4)
        _assert_same(want, got)
        assert result.chunks_elided > 0
        assert result.chunks_elided < result.chunks_scanned

    def test_worker_counts_agree_exactly(self, tiny_floor):
        # Elision counters are precomputed serially, so they must be
        # identical at any worker count, not merely close.
        _, _, one = _run("alltoall", "vectorized", "compiled", "mixed",
                         tile=257, workers=1)
        _, _, four = _run("alltoall", "vectorized", "compiled", "mixed",
                          tile=257, workers=4)
        assert one.chunks_scanned == four.chunks_scanned
        assert one.chunks_elided == four.chunks_elided
        assert one.elided_bytes == four.elided_bytes
        assert one.ledger.breakdown() == four.ledger.breakdown()


class TestDenseFastPath:
    """No scan work unless elision is on and can engage."""

    def test_elide_off_leaves_counters_untouched(self):
        _, comm, result = _run("alltoall", "vectorized", "compiled",
                               "dense", elide=False)
        assert result.chunks_scanned == 0
        assert result.chunks_elided == 0
        assert comm.stats.elision_scans == 0
        assert comm.stats.chunks_scanned == 0
        assert "elide" not in result.ledger.breakdown()

    def test_dense_payload_scans_but_elides_nothing(self, tiny_floor):
        want, _, base = _run("alltoall", "vectorized", "compiled", "dense",
                             elide=False)
        got, comm, result = _run("alltoall", "vectorized", "compiled",
                                 "dense")
        _assert_same(want, got)
        assert result.chunks_scanned > 0
        assert result.chunks_elided == 0
        # The only ledger delta dense traffic pays is the scan itself.
        dense = dict(result.ledger.breakdown())
        assert dense.pop("elide", 0.0) > 0.0
        assert dense == base.ledger.breakdown()

    def test_small_payloads_stay_under_the_floor(self):
        # Real floor: the test machine's payloads are far below
        # ELIDE_MIN_SOURCE_BYTES, so even elide_transfers=True scans
        # nothing (scanning could never pay at this size).
        _, comm, result = _run("alltoall", "vectorized", "compiled", "zero")
        assert result.chunks_scanned == 0
        assert result.chunks_elided == 0
        assert comm.stats.elision_scans == 0

    def test_record_elision_ignores_scanless_calls(self):
        stats = EngineStats()
        stats.record_elision(chunks_scanned=0, chunks_elided=0,
                             elided_bytes=0)
        assert stats.elision_scans == 0
        assert stats.elision_rate == 0.0
        stats.record_elision(chunks_scanned=8, chunks_elided=6,
                             elided_bytes=48)
        assert stats.elision_scans == 1
        assert stats.elision_rate == 6 / 8


class TestConfigSurface:
    def test_interpreted_session_rejects_elision(self):
        with pytest.raises(CollectiveError, match="elide_transfers"):
            SessionConfig(execution="interpreted", elide_transfers=True)

    def test_elide_in_signature(self):
        s = Schedule().with_elide()
        assert s.elide and "elide" in s.describe()
        assert s.signature != Schedule().signature
        assert not s.with_elide(False).elide


class TestElisionUnderFaults:
    def test_injector_session_elides_and_stays_exact(self, tiny_floor):
        # Elision runs in compiled replay, and compiled replay runs
        # under an injector: the scan, the representative gather and
        # the fills are all fault sites, and CRC retry/rewind must
        # still reach bit-exactness.
        want, _, _ = _run("alltoall", "scalar", "interpreted", "mixed",
                          elide=False, calls=4)
        for backend in ("scalar", "vectorized"):
            injector = FaultInjector(seed=0, bit_flip_rate=0.03,
                                     drop_rate=0.03, timeout_rate=0.03)
            got, comm, result = _run("alltoall", backend, "auto", "mixed",
                                     injector=injector, calls=4)
            _assert_same(want, got)
            assert result.execution == "compiled"
            assert result.chunks_elided > 0
            assert comm.stats.elision_scans > 0
            assert comm.stats.retries > 0  # a fault really was rewound


class TestTunerIntegration:
    def test_space_offers_eliding_only_when_enabled(self):
        from repro.analysis.autotune import ScheduleSpace
        on = ScheduleSpace.from_session(SessionConfig(elide_transfers=True))
        off = ScheduleSpace.from_session(SessionConfig())
        assert on.eliding == (False, True)
        assert off.eliding == (False,)
        pinned = ScheduleSpace.from_session(SessionConfig(
            execution="interpreted"))
        assert pinned.eliding == (False,)

    @pytest.mark.parametrize("payload", ("zero", "dense"))
    def test_tuned_session_stays_exact(self, payload, tiny_floor):
        want, _, _ = _run("alltoall", "vectorized", "interpreted", payload,
                          elide=False)
        manager = make_manager(SHAPE)
        system = manager.system
        comm = Communicator(manager, SessionConfig(
            autotune="offline", elide_transfers=True))
        groups = groups_of(manager, BITMAP)
        n = groups[0].size
        elems = n * CHUNK
        total = elems * INT32.itemsize
        src = system.alloc(total)
        dst = system.alloc(total)
        for call in range(2):
            _fill(system, groups, src, elems, INT32, payload, call)
            result = comm.alltoall(BITMAP, total, src_offset=src,
                                   dst_offset=dst, data_type=INT32)
        got = {g.instance: [system.read_elements(pe, dst, elems, INT32)
                            for pe in g.pe_ids] for g in groups}
        _assert_same(want, got)
        assert result.schedule is not None


class TestServingPassthrough:
    def test_per_tenant_elision_attribution(self, tiny_floor):
        import asyncio
        from repro.serving import (CollectiveServer, LoadGenerator,
                                   TenantLoad)
        from repro.serving.loadgen import MIXES, make_moe_mix
        from repro.analysis.trace import render_serving

        async def go():
            manager = make_manager(SHAPE, mram_bytes=1 << 17)
            server = CollectiveServer(manager, SessionConfig(
                backend="vectorized", execution="compiled",
                elide_transfers=True))
            gen = LoadGenerator(
                server, [TenantLoad("moe", "moe_route"),
                         TenantLoad("dense", "gnn_epoch")],
                dims=BITMAP, seed=11)
            fractions = gen.seed_payloads()
            assert fractions["moe"] > 0.5
            assert fractions["dense"] == 0.0
            report = await gen.run(rounds=2)
            return server, report

        server, report = asyncio.run(go())
        moe = report["tenants"]["moe"]
        dense = report["tenants"]["dense"]
        assert moe["chunks_elided"] > 0
        assert moe["elided_bytes"] > 0
        assert dense["chunks_elided"] == 0
        # The render paths must carry the same attribution.
        assert "elided" in render_serving(server.stats)
        assert "chunks elided" in server.comm.stats.report()
        assert "content elision:" not in EngineStats().report()
