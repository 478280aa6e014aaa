"""The eight workloads of the end-to-end benchmark.

Every workload drives the program through its public API only and is
built from ``--seed`` alone.  The shapes and session configurations are
fixed by ISSUE 11 (README.md records why each workload exists); only
the number of operations scales with ``--seconds``.

A workload is a class with this surface (see :class:`Workload`):

* ``__init__(seed)`` plus ``warm_up()`` is the *set-up*: systems,
  sessions, datasets, payload seeding, then one call per distinct shape
  (plan build, program compile, gather tables).
* ``cycle`` lists the labels of one pass over the fixed operation
  list; ``op(i)`` runs operation ``i`` of the endless repetition of
  that list and returns the program's result object.
* ``fold(result, acc)`` adds a result's exact (modelled-clock and
  count) facts to ``acc``.  The harness folds only the first
  ``window_cycles`` cycles -- the *exact window* -- so these numbers
  repeat bit for bit however many operations ``--seconds`` allows.
* ``checked_pass()`` re-seeds the inputs, runs every distinct shape
  once and returns one CRC per shape; ``oracle_problems(reference)``
  compares such CRCs with the reference the issue names (the scalar
  interpreted oracle); ``post_problems()`` runs the twin / solo-session
  replays some workloads prescribe after timing.
"""

from __future__ import annotations

import asyncio
import zlib
from time import perf_counter

import numpy as np

from repro import (
    CollectiveServer,
    Communicator,
    DimmGeometry,
    DimmSystem,
    FaultInjector,
    HypercubeManager,
    SessionConfig,
)
from repro import multihost
from repro.analysis import paper_claims
from repro.apps import (
    BfsApp,
    BfsConfig,
    CcApp,
    CcConfig,
    DlrmApp,
    DlrmConfig,
    GnnApp,
    GnnConfig,
    MlpApp,
    MlpConfig,
    PidCommBackend,
)
from repro.apps.bfs import golden_bfs
from repro.apps.cc import golden_cc
from repro.core.groups import slice_groups
from repro.data import criteo_like, random_graph, rmat_graph
from repro.dtypes import INT64
from repro.engine.stats import plan_payload_bytes
from repro.errors import AdmissionRejected, QuotaExceeded, RequestShed
from repro.serving import LoadGenerator, TenantLoad

from metrics import APPS, PRIMITIVES

#: Primitives that permute their source buffer (reduce_scatter is
#: documented to; the other two share its preparation kernel).
CONSUMES_SOURCE = frozenset({"reduce_scatter", "allreduce", "reduce"})
ORACLE = SessionConfig(backend="scalar", execution="interpreted")


def crc(*arrays) -> int:
    """CRC-32 chained over the raw bytes of ``arrays``."""
    value = 0
    for array in arrays:
        value = zlib.crc32(np.ascontiguousarray(array).view(np.uint8), value)
    return value


def mismatches(what: str, labels, expected, actual) -> list[str]:
    """One problem line per shape whose digests differ."""
    if len(expected) != len(actual):
        return [f"{what}: {len(actual)} digests, expected {len(expected)}"]
    return [f"{what}: {label} differs"
            for label, a, b in zip(labels, expected, actual) if a != b]


def new_acc() -> dict:
    """The exact-window accumulator ``fold`` / ``window_done`` fill."""
    return {"modelled_s": 0.0, "payload_bytes": 0, "attempts": 0,
            "tiles": 0, "chunks_scanned": 0, "chunks_elided": 0,
            "cache_hits": 0, "cache_lookups": 0}


class Workload:
    """Surface the harness (``run.py``) drives; see the module docstring."""

    name = ""
    #: Labels of one pass over the operation list, in issue order.
    cycle: tuple[str, ...] = ()
    #: Cycles folded into the exact metrics (always executed).
    window_cycles = 1
    #: Wall seconds of each warm-up call, by label.
    cold_walls: dict[str, float] = {}

    def warm_up(self) -> None:
        """One untimed-section call per distinct shape."""
        self.cold_walls = {}
        for i, label in enumerate(self.cycle):
            start = perf_counter()
            self.op(i)
            self.cold_walls.setdefault(label, perf_counter() - start)

    def before_op(self, i: int) -> None:
        """Untimed work the operation list prescribes before op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def op_failed(self, result) -> bool:
        """Whether a returned result counts as a failed operation."""
        return False

    def fold(self, result, acc: dict) -> None:
        """Default: ``result`` is a ``CommResult``."""
        acc["modelled_s"] += result.seconds
        acc["payload_bytes"] += plan_payload_bytes(result.plan)
        acc["attempts"] += result.attempts
        acc["tiles"] += result.tiles
        acc["chunks_scanned"] += result.chunks_scanned
        acc["chunks_elided"] += result.chunks_elided
        acc["cache_hits"] += bool(result.cached)
        acc["cache_lookups"] += 1

    def window_done(self, acc: dict) -> None:
        """Called once, untimed, after the last op of the exact window."""

    def checked_pass(self) -> list[int]:
        """Empty for workloads that check every operation instead."""
        return []

    def oracle_problems(self, reference: list[int]) -> list[str]:
        return []

    def post_problems(self) -> list[str]:
        return []

    def close(self) -> None:
        """Release what set-up opened."""


# ----------------------------------------------------------------------
# 1, 2, 4: direct Communicator sessions
# ----------------------------------------------------------------------
class _EngineWorkload(Workload):
    """``primitives`` x ``sizes`` on one session; src at 0, dst after it."""

    geometry: DimmGeometry
    shape: tuple[int, ...]
    dims = "10"
    primitives: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()

    def __init__(self, seed: int, config: SessionConfig | None = None,
                 **overrides) -> None:
        """``overrides`` replace class attributes (the oracle comparison
        of the big workloads runs at a reduced shape)."""
        self.seed = seed
        vars(self).update(overrides)
        config = config or self.session_config()
        top = max(self.sizes)
        self.system = DimmSystem(self.geometry, mram_bytes=2 * top,
                                 backend=config.backend)
        manager = HypercubeManager(self.system, shape=self.shape)
        self.comm = Communicator(manager, config)
        self.pes = manager.all_pes
        groups = slice_groups(manager, self.dims)
        self.group, instances = groups[0].size, len(groups)
        rng = np.random.default_rng(seed)
        self.values = rng.integers(1, 100, (len(self.pes), top // 8),
                                   dtype=np.int64)
        #: One (call, primitive, dst offset, dst bytes per PE) per shape.
        self.calls = []
        for size in self.sizes:
            payloads = {
                "scatter": {i: rng.integers(1, 100, self.group * size // 8,
                                            dtype=np.int64)
                            for i in range(instances)},
                "broadcast": {i: rng.integers(1, 100, size // 8,
                                              dtype=np.int64)
                              for i in range(instances)}}
            for primitive in self.primitives:
                self.calls.append(self._bind(primitive, size,
                                             payloads.get(primitive)))
        self.cycle = tuple(f"{primitive}@{size}" for size in self.sizes
                           for primitive in self.primitives)
        self.seed_sources()

    def session_config(self) -> SessionConfig:
        raise NotImplementedError

    def _bind(self, primitive: str, size: int, payloads):
        method = getattr(self.comm, primitive)
        # allgather takes its per-PE *input*, so that its output is
        # ``size`` like every other primitive's.
        arg = size // self.group if primitive == "allgather" else size
        kwargs = {"data_type": INT64}
        if primitive not in ("scatter", "broadcast"):
            kwargs["src_offset"] = 0
        if primitive not in ("gather", "reduce"):
            kwargs["dst_offset"] = size
        if payloads is not None:
            kwargs["payloads"] = payloads
        out_bytes = {"reduce_scatter": size // self.group, "gather": 0,
                     "reduce": 0}.get(primitive, size)
        dims = self.dims
        return (lambda: method(dims, arg, **kwargs)), primitive, size, \
            out_bytes

    def seed_sources(self) -> None:
        self.system.scatter_elements(self.pes, 0, list(self.values), INT64)

    def op(self, i: int):
        return self.calls[i % len(self.calls)][0]()

    def checked_pass(self) -> list[int]:
        digests = []
        consumed = True
        for call, primitive, dst, out_bytes in self.calls:
            if consumed:
                self.seed_sources()
            result = call()
            consumed = primitive in CONSUMES_SOURCE
            parts = [v for _, v in sorted((result.host_outputs or {}).items())]
            if out_bytes:
                parts += self.system.gather_elements(self.pes, dst,
                                                     out_bytes // 8, INT64)
            digests.append(crc(*parts))
        return digests

    def oracle_problems(self, reference):
        return mismatches("scalar interpreted oracle", self.cycle, reference,
                          type(self)(self.seed, ORACLE).checked_pass())


class SmallReplay(_EngineWorkload):
    name = "small_replay"
    geometry = DimmGeometry(2, 1, 4, 4)
    shape = (8, 4)
    primitives = PRIMITIVES
    sizes = (256, 1024, 4096)
    window_cycles = 100

    def session_config(self):
        return SessionConfig(backend="vectorized")


class LargeReplay(_EngineWorkload):
    name = "large_replay"
    geometry = DimmGeometry(4, 4, 8, 8)
    shape = (32, 32)
    primitives = PRIMITIVES[:4]
    sizes = (64 << 10,)
    window_cycles = 3
    #: The largest shape the scalar interpreter passes over in < 1 s
    #: (it needs ~0.35 us per payload byte): 256 PEs x 8 KiB.
    oracle_shape = dict(geometry=DimmGeometry(2, 2, 8, 8), shape=(16, 16),
                        sizes=(8 << 10,))

    def session_config(self):
        return SessionConfig(backend="vectorized", stream_tile_bytes=8 << 20)

    def oracle_problems(self, reference):
        small = [type(self)(self.seed, config, **self.oracle_shape)
                 .checked_pass() for config in (self.session_config(), ORACLE)]
        return mismatches("scalar interpreted oracle at 256 PEs x 8 KiB",
                          self.primitives, small[1], small[0])


class ReliableReplay(_EngineWorkload):
    name = "reliable_replay"
    geometry = DimmGeometry(2, 2, 8, 8)
    shape = (16, 16)
    primitives = ("alltoall", "allreduce", "reduce_scatter", "allgather")
    sizes = (4 << 10,)
    window_cycles = 15

    def session_config(self):
        """The README's ~1 %/operation robust configuration."""
        self.injector = FaultInjector(seed=self.seed, bit_flip_rate=0.004,
                                      drop_rate=0.003, timeout_rate=0.003)
        return SessionConfig(backend="vectorized",
                             fault_injector=self.injector)

    def mram_digest(self) -> int:
        return crc(*self.system.gather_elements(
            self.pes, 0, self.system.mram_bytes // 8, INT64))

    def window_done(self, acc):
        acc["faults_injected"] = self.injector.total_injected
        self.window_digest = self.mram_digest()

    def post_problems(self):
        """An un-faulted twin session runs the same list: warm-up
        (its set-up), the reference checked pass, the exact window."""
        twin = type(self)(self.seed, SessionConfig(backend="vectorized"))
        twin.warm_up()
        twin.checked_pass()
        for i in range(self.window_cycles * len(self.cycle)):
            twin.op(i)
        if twin.mram_digest() != self.window_digest:
            return ["MRAM after the exact window differs from the "
                    "un-faulted twin session"]
        return []


# ----------------------------------------------------------------------
# 3: content-aware elision, cold and warm
# ----------------------------------------------------------------------
class SparseMoe(Workload):
    name = "sparse_moe"
    window_cycles = 2
    npes, per_pe = 1024, 64 << 10
    geometry = DimmGeometry(4, 4, 8, 8)
    #: The oracle comparison runs on 64 PEs (1 MiB of payload, well above
    #: the elision floor); the scalar interpreter is too slow beyond.
    oracle_shape = dict(geometry=DimmGeometry(1, 1, 8, 8), npes=64,
                        per_pe=16 << 10)
    #: Pool entries, and per entry 1 cold call + 3 warm calls.
    kinds = ("sparse", "sparse", "sparse", "dense")
    calls_per_rewrite = 4
    cycle = ("sparse_cold", "sparse_warm", "sparse_warm", "sparse_warm") * 3 \
        + ("dense_cold", "dense_warm", "dense_warm", "dense_warm")

    def __init__(self, seed, config: SessionConfig | None = None,
                 **overrides):
        self.seed = seed
        vars(self).update(overrides)
        config = config or SessionConfig(
            backend="vectorized", execution="compiled", elide_transfers=True)
        self.system = DimmSystem(self.geometry,
                                 mram_bytes=2 * self.per_pe,
                                 backend=config.backend)
        manager = HypercubeManager(self.system, shape=(self.npes,))
        self.comm = Communicator(manager, config)
        self.pes = manager.all_pes
        #: Pool entries are generated on first use: set-up needs one.
        self.pool = {}

    def warm_up(self):
        """The one distinct shape; content does not change the plan."""
        self.rewrite(0)
        start = perf_counter()
        self.call()
        self.cold_walls = {"alltoall": perf_counter() - start}

    def payload(self, entry: int):
        """The structure of ``bench_elision.payload_values``: on a
        sparse entry the same 75 % of destination blocks are zero on
        every PE, so whole destination rows elide."""
        if entry not in self.pool:
            n = self.npes
            rng = np.random.default_rng([self.seed, entry])
            values = rng.integers(1, 100, (n, self.per_pe // 8),
                                  dtype=np.int64)
            if self.kinds[entry] == "sparse":
                cold = rng.choice(n, round(n * 0.75), replace=False)
                values.reshape(n, n, -1)[:, cold, :] = 0
            self.pool[entry] = values
        return self.pool[entry]

    def rewrite(self, entry: int) -> None:
        """Through the same entry point an application would use, so
        the arena's write log sees it."""
        self.system.scatter_elements(self.pes, 0, list(self.payload(entry)),
                                     INT64)

    def call(self):
        return self.comm.alltoall("1", self.per_pe, src_offset=0,
                                  dst_offset=self.per_pe, data_type=INT64)

    def before_op(self, i):
        if i % self.calls_per_rewrite == 0:
            self.rewrite(i // self.calls_per_rewrite % len(self.kinds))

    def op(self, i):
        return self.call()

    def checked_pass(self):
        digests = []
        for entry in range(len(self.kinds)):
            self.rewrite(entry)
            self.call()
            digests.append(crc(*self.system.gather_elements(
                self.pes, self.per_pe, self.per_pe // 8, INT64)))
        return digests

    def oracle_problems(self, reference):
        eliding = type(self)(self.seed, **self.oracle_shape)
        digests = eliding.checked_pass()
        eliding.rewrite(0)
        if eliding.call().chunks_elided <= 0:
            return ["elision did not engage at the oracle comparison shape"]
        return mismatches(
            "scalar interpreted oracle on 64 PEs", self.kinds,
            type(self)(self.seed, ORACLE, **self.oracle_shape).checked_pass(),
            digests)


# ----------------------------------------------------------------------
# 5: the six Table-III applications
# ----------------------------------------------------------------------
class Apps(Workload):
    name = "apps"
    window_cycles = 1
    cycle = APPS

    def __init__(self, seed):
        gnn_graph = rmat_graph(256, 4000, seed=seed)
        bfs_graph = rmat_graph(4096, 40000, seed=seed + 1)
        cc_graph = random_graph(4096, 8000, seed=seed + 2)
        g64, g256 = DimmGeometry(1, 1, 8, 8), DimmGeometry(2, 2, 8, 8)
        #: label -> (app, geometry, cube shape, golden output or None
        #: when the app reports its own in ``meta["golden"]``).
        self.apps = {
            "dlrm": (DlrmApp(criteo_like(256, 8, 64, 4, seed=seed),
                             DlrmConfig(16, 8, seed=seed)),
                     g64, (4, 4, 4), None),
            "gnn_rs_ar": (GnnApp(gnn_graph,
                                 GnnConfig(32, 3, "rs_ar", seed=seed)),
                          g64, (8, 8), None),
            "gnn_ar_ag": (GnnApp(gnn_graph,
                                 GnnConfig(32, 3, "ar_ag", seed=seed)),
                          g64, (8, 8), None),
            "bfs": (BfsApp(bfs_graph, BfsConfig(source=0)), g256, (256,),
                    golden_bfs(bfs_graph, 0)),
            "cc": (CcApp(cc_graph, CcConfig()), g256, (256,),
                   golden_cc(cc_graph)),
            "mlp": (MlpApp(MlpConfig(512, 5, 16, seed=seed)), g64, (64,),
                    None),
        }
        self.backend = PidCommBackend()

    def op(self, i):
        """One application iteration on a fresh system: (label, result)."""
        label = self.cycle[i % len(self.cycle)]
        app, geometry, shape, _ = self.apps[label]
        # 128 KiB of MRAM: the smallest power of two all six fit in.
        system = DimmSystem(geometry, mram_bytes=1 << 17,
                            backend="vectorized")
        return label, app.run(HypercubeManager(system, shape=shape),
                              self.backend, functional=True)

    def op_failed(self, outcome):
        """Every iteration is validated against its golden model."""
        label, result = outcome
        golden = self.apps[label][3]
        if golden is None:
            golden = result.meta["golden"]
        return not np.array_equal(np.ravel(result.output), np.ravel(golden))

    def fold(self, outcome, acc):
        engine = outcome[1].meta["engine"]
        acc["modelled_s"] += outcome[1].seconds
        acc["comm_calls"] = acc.get("comm_calls", 0) + engine["calls"]
        acc["cache_hits"] += engine["cache_hits"]
        acc["cache_lookups"] += engine["calls"]


# ----------------------------------------------------------------------
# 6: the asyncio serving front-end
# ----------------------------------------------------------------------
class ServingRound(Workload):
    name = "serving_round"
    #: The BFS frontier profile repeats every 5 rounds.
    cycle = ("round",) * 5
    window_cycles = 6
    tenants = 8
    mixes = ("dlrm_burst", "gnn_epoch", "bfs_frontier")

    def __init__(self, seed):
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.server, self.gen = self._serving()
        self.offered = self.not_served = 0
        #: Rounds consumed by warm-up; op ``i`` is round ``first_round + i``.
        self.first_round = 0

    def warm_up(self):
        super().warm_up()
        self.first_round = len(self.cycle)
        self.offered = self.not_served = 0

    def _serving(self):
        system = DimmSystem(DimmGeometry(2, 2, 8, 8), mram_bytes=1 << 20,
                            backend="vectorized")
        server = CollectiveServer(
            HypercubeManager(system, shape=(16, 16)),
            SessionConfig(backend="vectorized"),
            max_queue_depth=512, batch_limit=16)
        loads = [TenantLoad(f"tenant-{i}", self.mixes[i % len(self.mixes)],
                            weight=2.0 if i == 0 else 1.0)
                 for i in range(self.tenants)]
        gen = LoadGenerator(server, loads, dims="10", seed=self.seed)
        gen.seed_payloads()
        return server, gen

    async def _round(self, index: int) -> bool:
        """Closed loop, 8 clients: submit one lockstep round and drain
        it.  True when every request of the round was served."""
        futures = []
        requests = self.gen.round_requests(index)
        self.offered += len(requests)
        for tenant, request in requests:
            try:
                futures.append(self.gen.sessions[tenant].submit(request))
            except (AdmissionRejected, QuotaExceeded):
                self.not_served += 1
        await self.server.drain()
        served = 0
        for outcome in await asyncio.gather(*futures, return_exceptions=True):
            if isinstance(outcome, RequestShed):
                self.not_served += 1
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                served += 1
        return served == len(requests)

    def op(self, i):
        return self.loop.run_until_complete(self._round(self.first_round + i))

    def op_failed(self, all_served):
        return not all_served

    def fold(self, all_served, acc):
        """Serving's exact numbers are the server's running totals
        (warm-up rounds included); see window_done."""

    def written_digest(self, server, gen, rounds: int) -> int:
        """CRC of every MRAM interval the first ``rounds`` rounds write
        (their requests' public footprints), on every PE."""
        comm, spans = server.comm, set()
        for index in range(rounds):
            for _, request in gen.round_requests(index):
                spans.update(request.normalize(
                    comm.manager, comm.config,
                    backend=comm.backend).footprint().writes)
        system = comm.manager.system
        return crc(*(row for offset, nbytes in sorted(spans)
                     for row in system.gather_elements(
                         comm.manager.all_pes, offset, nbytes // 8, INT64)))

    def window_done(self, acc):
        stats = self.server.stats
        engine = self.server.comm.stats
        acc.update(
            modelled_s=stats.clock,
            payload_bytes=sum(t.bytes_completed
                              for t in stats.tenants.values()),
            modelled_goodput_gb_per_s=stats.goodput_bytes_per_second / 1e9,
            modelled_p99_ms=max(t.p99 for t in stats.tenants.values()) * 1e3,
            batches=stats.batches,
            offered=self.offered, not_served=self.not_served,
            cache_hits=engine.cache_hits,
            cache_lookups=engine.cache_hits + engine.plans_compiled)
        self.window_rounds = self.first_round \
            + self.window_cycles * len(self.cycle)
        self.window_digest = self.written_digest(self.server, self.gen,
                                                 self.window_rounds)

    def post_problems(self):
        """A solo session replays the rounds up to the end of the exact
        window, one request at a time."""
        server, gen = self._serving()
        for index in range(self.window_rounds):
            for _, request in gen.round_requests(index):
                server.comm.submit([request])
        if self.written_digest(server, gen, self.window_rounds) \
                != self.window_digest:
            return ["tenant MRAM after the exact window differs from the "
                    "solo-session replay of the same request list"]
        return []

    def close(self):
        self.loop.close()


# ----------------------------------------------------------------------
# 7: eight hosts behind a leaf-spine fabric
# ----------------------------------------------------------------------
class Multihost8h(Workload):
    name = "multihost_8h"
    cycle = ("alltoall", "allreduce")
    window_cycles = 10
    hosts, per_pe = 8, 16 << 10

    def __init__(self, seed, config: SessionConfig | None = None):
        self.seed = seed
        self.mh = multihost.MultiHostSystem(
            self.hosts, ranks_per_channel=1, mram_bytes=1 << 16,
            session_config=config or SessionConfig(
                backend="vectorized", execution="compiled",
                stream_tile_bytes=1 << 14),
            fabric=multihost.Fabric.leaf_spine(self.hosts, 2,
                                               spine_gbps=2.5))
        rng = np.random.default_rng(seed)
        self.values = rng.integers(
            1, 100, (self.hosts, self.mh.pes_per_host, self.per_pe // 8),
            dtype=np.int64)
        self.seed_sources()

    def seed_sources(self):
        for system, values in zip(self.mh.systems, self.values):
            system.scatter_elements(range(self.mh.pes_per_host), 0,
                                    list(values), INT64)

    def op(self, i):
        # Resolved per call, so a traced run reaches the wrapped function.
        collective = multihost.multihost_allreduce if i % 2 \
            else multihost.multihost_alltoall
        return collective(self.mh, self.per_pe, 0, self.per_pe, INT64)

    def fold(self, result, acc):
        acc["modelled_s"] += result.combined().total
        acc["fabric_modelled_s"] = acc.get("fabric_modelled_s", 0.0) \
            + result.fabric_seconds
        # Computed, as plan_payload_bytes would: in + out over all PEs.
        acc["payload_bytes"] += self.mh.total_pes * 2 * self.per_pe

    def checked_pass(self):
        digests = []
        for i in range(len(self.cycle)):
            self.seed_sources()
            digests.append(crc(*(v for host in self.op(i).outputs
                                 for v in host)))
        return digests

    def oracle_problems(self, reference):
        return mismatches("scalar interpreted hierarchy", self.cycle,
                          reference,
                          type(self)(self.seed, ORACLE).checked_pass())

    def close(self):
        self.mh.close()


# ----------------------------------------------------------------------
# 8: the analytic control
# ----------------------------------------------------------------------
class PaperModel(Workload):
    name = "paper_model"
    cycle = ("evaluate_claims",)
    window_cycles = 1

    def __init__(self, seed):
        """Nothing to seed: the model is analytic and every experiment
        builds its own systems."""
        self.first_rows = None

    def warm_up(self):
        """Nothing to warm either: no state survives an evaluation."""

    def op(self, i):
        return paper_claims.evaluate_claims()

    @staticmethod
    def strict_failed(rows) -> int:
        return sum(r["strict"] and not r["within_tol"] for r in rows)

    def op_failed(self, rows):
        """A strict claim out of tolerance, or a non-deterministic model."""
        if self.first_rows is None:
            self.first_rows = rows
        return self.strict_failed(rows) > 0 or rows != self.first_rows

    def fold(self, rows, acc):
        acc["claims_max_dev"] = max(r["deviation"] for r in rows
                                    if r["strict"])
        acc["claims_failed"] = self.strict_failed(rows)


WORKLOADS = {cls.name: cls for cls in (
    SmallReplay, LargeReplay, SparseMoe, ReliableReplay, Apps, ServingRound,
    Multihost8h, PaperModel)}
