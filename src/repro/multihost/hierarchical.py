"""Hierarchical multi-host collectives (paper Figure 23b), on the engine.

Each host owns one UPMEM channel (4 ranks x 8 chips x 8 banks = 256
PEs, as in the paper's testbed) and runs PID-Comm locally through its
own :class:`~repro.engine.Communicator` session -- full
:class:`~repro.engine.SessionConfig` support, so the local phases enjoy
compiled replay, streaming, band workers and content-aware elision.
The global phase is a first-class inter-host program
(:class:`~repro.multihost.GlobalProgram`) priced on a topology-aware
:class:`~repro.multihost.Fabric` and selected per (primitive, payload,
topology) by the :class:`~repro.multihost.GlobalTuner`; with
``parallel_workers > 1`` the per-host local phases fan out across a
host-level :class:`~repro.engine.WorkerPool`.

AllReduce ships only the locally-reduced vector (1/256th of the data),
so its fabric overhead is small; AlltoAll has no reduction and pays the
full ``(N-1)/N`` crossing cost -- exactly the asymmetry the paper's
figure shows.  The functional global exchange is canonical numpy,
shared by every global program and topology: a float reduction run
round by round would depend on the chosen program's order of sums.
So hierarchical outputs are bit-identical to the scalar interpreted
oracle at every host count, backend, execution mode, and program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, INT64, ReduceOp, SUM
from ..engine import Communicator, SessionConfig, WorkerPool
from ..errors import CollectiveError
from ..hw.arena import scan_chunk_classes
from ..hw.geometry import DimmGeometry
from ..hw.system import DimmSystem
from ..hw.timing import CostLedger, MachineParams
from .algorithms import GlobalProgram
from .fabric import Fabric
from .tuning import GlobalTuner

#: Target fingerprint-scan granularity for fabric elision.  256 B
#: chunks align with whole-PE runs in the re-blocked AlltoAll wire
#: layout, so a zeroed PE's contribution elides even when its
#: neighbours are dense.
FABRIC_SCAN_CHUNK_BYTES = 256


def _scan_blocks(size: int) -> int:
    """Chunk count for a fabric elision scan over ``size`` bytes: the
    finest split at or above :data:`FABRIC_SCAN_CHUNK_BYTES` whose
    chunk width is a multiple of 8 (the packed zero-scan's word size)
    and divides the payload evenly."""
    if size % 8:
        return 1
    chunk = min(FABRIC_SCAN_CHUNK_BYTES, size)
    while size % chunk:
        chunk -= 8
    return size // chunk


@dataclass
class MultiHostResult:
    """Outcome of one hierarchical collective."""

    ledger: CostLedger          # one host's local work (hosts run in parallel)
    #: Seconds the global phase spends on the inter-host fabric.
    fabric_seconds: float
    #: host -> per-PE output vectors (functional runs only).
    outputs: list[list[np.ndarray]] | None = None
    #: Round step of the program the tuner chose, ``"ring"`` or
    #: ``"exchange"`` (None on a single host).
    global_algorithm: str | None = None
    #: Payload bytes the global phase put on the fabric.
    fabric_bytes: int = 0
    #: Fabric bytes skipped by content-aware elision (all-zero blocks
    #: replaced by fingerprint markers).
    elided_fabric_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.ledger.total + self.fabric_seconds

    def combined(self) -> CostLedger:
        """Local ledger plus the global phase as a ``fabric`` entry."""
        merged = self.ledger.copy()
        if self.fabric_seconds > 0.0:
            merged.add("fabric", self.fabric_seconds)
        return merged


class MultiHostSystem:
    """``num_hosts`` single-channel UPMEM systems + an inter-host fabric.

    Args:
        num_hosts: Simulated hosts.
        params: Machine parameters (shared by hosts and fabric links).
        ranks_per_channel / mram_bytes: Per-host system size.
        session_config: Engine configuration every host's
            :class:`~repro.engine.Communicator` runs under (rung,
            backend, execution mode, streaming, elision, workers).
            None means the all-defaults config.
        fabric: Inter-host topology (default: fully connected at the
            testbed's throttled MPI link rate, on which a ring prices
            at the flat ``(N-1)/N`` formulas).

    With ``session_config.parallel_workers > 1`` the worker budget is
    spent at the *host* level: local phases of distinct hosts run
    concurrently on a :class:`~repro.engine.WorkerPool` while each
    host's session itself stays serial.
    """

    def __init__(self, num_hosts: int, params: MachineParams | None = None,
                 ranks_per_channel: int = 4, mram_bytes: int = 1 << 20, *,
                 session_config: SessionConfig | None = None,
                 fabric: Fabric | None = None) -> None:
        if num_hosts < 1:
            raise CollectiveError("need at least one host")
        if session_config is None:
            session_config = SessionConfig()
        self.params = params or MachineParams()
        self.session_config = session_config
        self.config = session_config.config
        self.systems = [
            DimmSystem(DimmGeometry(1, ranks_per_channel, 8, 8),
                       self.params, mram_bytes)
            for _ in range(num_hosts)
        ]
        self.managers = [
            HypercubeManager(system, shape=(system.num_pes,))
            for system in self.systems
        ]
        workers = session_config.parallel_workers
        #: Host-level worker pool: when the session asks for parallel
        #: replay, distinct hosts' local phases run concurrently and
        #: each host's own session stays serial (the worker budget is
        #: spent once, at the outermost independent level).
        self._pool = (WorkerPool(min(workers, num_hosts))
                      if workers > 1 and num_hosts > 1 else None)
        host_config = (session_config.evolve(parallel_workers=1)
                       if self._pool is not None else session_config)
        self.communicators = [Communicator(manager, host_config)
                              for manager in self.managers]
        if fabric is not None and fabric.num_hosts != num_hosts:
            raise CollectiveError(
                f"fabric spans {fabric.num_hosts} hosts, system has "
                f"{num_hosts}")
        self.fabric = fabric or Fabric.fully_connected(num_hosts,
                                                       self.params)
        #: Chooses the global-phase program per (primitive, payload).
        self.tuner = GlobalTuner(self.fabric)

    @property
    def num_hosts(self) -> int:
        return len(self.systems)

    @property
    def pes_per_host(self) -> int:
        return self.systems[0].num_pes

    @property
    def total_pes(self) -> int:
        return self.num_hosts * self.pes_per_host

    @property
    def stats(self):
        """Host 0's :class:`~repro.engine.EngineStats` (hosts run the
        same symmetric work; global-phase counters accrue here)."""
        return self.communicators[0].stats

    def alloc(self, nbytes: int) -> int:
        """Allocate the same buffer on every host (symmetric offsets)."""
        offsets = {system.alloc(nbytes) for system in self.systems}
        if len(offsets) != 1:
            raise CollectiveError("host allocators diverged")
        return offsets.pop()

    def write_pe(self, global_pe: int, offset: int, values: np.ndarray,
                 dtype: DataType = INT64) -> None:
        """Write elements to a PE addressed by its *global* id."""
        host, local = divmod(global_pe, self.pes_per_host)
        self.systems[host].write_elements(local, offset, values, dtype)

    def read_pe(self, global_pe: int, offset: int, count: int,
                dtype: DataType = INT64) -> np.ndarray:
        """Read elements from a PE addressed by its *global* id."""
        host, local = divmod(global_pe, self.pes_per_host)
        return self.systems[host].read_elements(local, offset, count, dtype)

    def close(self) -> None:
        """Join host sessions' worker threads (idempotent)."""
        for comm in self.communicators:
            comm.close()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    # Execution helpers the module-level collectives share
    # ------------------------------------------------------------------
    def _each_host(self, call):
        """Run ``call(host)`` for every host, pooled when configured.

        Results come back in host order either way (the pool preserves
        submission order), so functional outputs stay deterministic.
        """
        if self._pool is None:
            return [call(host) for host in range(self.num_hosts)]
        return self._pool.run(
            [(lambda h=host: call(h)) for host in range(self.num_hosts)])

    def _global_phase(self, primitive: str, nbytes: int,
                      buffers: list[np.ndarray] | None,
                      ledger: CostLedger
                      ) -> tuple[GlobalProgram, float, int, int] | None:
        """Select, elide, price, and record the inter-host program.

        ``buffers`` are the per-host outbound payloads (None on
        analytic runs, which price the program unelided).  Returns the
        chosen program with its fabric ``(seconds, moved, elided)``
        for :meth:`_finish`, or None on a single host (no global
        phase).
        """
        if self.num_hosts == 1:
            return None
        program = self.tuner.choose(primitive, nbytes)
        seconds, moved, elided = program.seconds, program.fabric_bytes, 0
        if buffers is not None and self.session_config.elide_transfers:
            seconds, moved, elided = self._elide_fabric(program, buffers,
                                                        ledger)
        self.stats.record_global_phase(
            primitive, program.algorithm, fabric_bytes=moved,
            fabric_seconds=seconds, elided_bytes=elided)
        return program, seconds, moved, elided

    def _elide_fabric(self, program: GlobalProgram,
                      buffers: list[np.ndarray], ledger: CostLedger
                      ) -> tuple[float, int, int]:
        """Content-aware fabric elision: fingerprint-scan each host's
        outbound payload in :data:`FABRIC_SCAN_CHUNK_BYTES`-grained
        chunks; all-zero chunks cross as markers instead of payload,
        scaling that host's transfer bytes by its dense fraction.  The
        scan itself is charged to the ``elide`` category, exactly like
        the single-host replay path (PR 9)."""
        dense: list[float] = []
        scanned_total = 0
        for buf in buffers:
            raw = np.ascontiguousarray(np.asarray(buf)).view(np.uint8)
            raw = raw.reshape(-1)
            if raw.size == 0:
                dense.append(0.0)
                continue
            blocks = _scan_blocks(raw.size)
            chunks = raw.reshape(blocks, -1)
            zero, _, scanned = scan_chunk_classes(chunks, ngroups=1)
            scanned_total += scanned
            dense.append(1.0 - float(np.count_nonzero(zero)) / blocks)
        if scanned_total:
            ledger.add("elide", self.params.scan_time(scanned_total))
        scaled = tuple(
            tuple((src, dst, int(round(nbytes * dense[src])))
                  for src, dst, nbytes in rnd)
            for rnd in program.rounds)
        moved = sum(b for rnd in scaled for _, _, b in rnd)
        seconds = self.fabric.program_seconds(scaled)
        return seconds, moved, program.fabric_bytes - moved

    def _finish(self, ledger: CostLedger,
                phase: tuple[GlobalProgram, float, int, int] | None,
                outputs) -> MultiHostResult:
        if phase is None:
            return MultiHostResult(ledger=ledger, fabric_seconds=0.0,
                                   outputs=outputs)
        program, seconds, moved, elided = phase
        return MultiHostResult(ledger, seconds, outputs, program.algorithm,
                               moved, elided)


# ----------------------------------------------------------------------
# The functional global exchange: canonical numpy, shared by every
# global program and topology (which only change the price).
# ----------------------------------------------------------------------
def _reduce_across(host_vectors: list[np.ndarray], op: ReduceOp
                   ) -> np.ndarray:
    """Elementwise reduction of the per-host vectors: the one array
    every host holds after the fabric allreduce (shared read-only)."""
    reduced = op.reduce_axis(np.stack(host_vectors), axis=0)
    reduced.setflags(write=False)
    return reduced


def _exchange_blocks(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Fabric alltoall: host ``h``'s buffer is ``num_hosts`` equal
    blocks and block ``g`` goes to host ``g``; returns what each host
    receives, in source-host order."""
    n = len(blocks)
    grid = [buf.reshape(n, -1) for buf in blocks]
    return [np.concatenate([rows[dest] for rows in grid])
            for dest in range(n)]


def multihost_allreduce(mh: MultiHostSystem, total_data_size: int,
                        src_offset: int, dst_offset: int,
                        dtype: DataType = INT64, op: ReduceOp = SUM,
                        functional: bool = True) -> MultiHostResult:
    """Global AllReduce: local Reduce -> fabric allreduce -> local
    Broadcast.

    Only ``total_data_size`` bytes per host cross the network (the data
    is reduced over the host's PEs first).
    """
    ledger = CostLedger()
    reduce_results = mh._each_host(
        lambda h: mh.communicators[h].reduce(
            "1", total_data_size, src_offset=src_offset, data_type=dtype,
            reduction_type=op, functional=functional))
    ledger.merge(reduce_results[0].ledger)  # hosts run in parallel
    host_vectors = None
    if functional:
        host_vectors = [res.host_outputs[0] for res in reduce_results]

    phase = mh._global_phase("allreduce", total_data_size, host_vectors,
                             ledger)
    reduced = _reduce_across(host_vectors, op) if functional else None

    broadcast_results = mh._each_host(
        lambda h: mh.communicators[h].broadcast(
            "1", total_data_size, dst_offset=dst_offset, data_type=dtype,
            payloads=({0: reduced} if functional else None),
            functional=functional))
    ledger.merge(broadcast_results[0].ledger)

    outputs = None
    if functional:
        elems = total_data_size // dtype.itemsize
        outputs = [mh.systems[h].gather_elements(
                       range(mh.pes_per_host), dst_offset, elems, dtype)
                   for h in range(mh.num_hosts)]
    return mh._finish(ledger, phase, outputs)


def multihost_reduce_scatter(mh: MultiHostSystem, total_data_size: int,
                             src_offset: int, dst_offset: int,
                             dtype: DataType = INT64, op: ReduceOp = SUM,
                             functional: bool = True) -> MultiHostResult:
    """Global ReduceScatter: local Reduce -> fabric reduce_scatter ->
    local Scatter of each host's shard.

    Like AllReduce, the data crosses the network *after* the local
    reduction ("similar trends persist in ReduceScatter whose data are
    sent after reduction", section IX-A).  Semantics: the global vector
    splits into ``total_pes`` chunks; global PE ``i`` receives reduced
    chunk ``i``.
    """
    n_hosts = mh.num_hosts
    p = mh.pes_per_host
    total_global = n_hosts * p
    if total_data_size % total_global:
        raise CollectiveError(
            f"per-PE size {total_data_size}B must split into "
            f"{total_global} global chunks")
    chunk = total_data_size // total_global
    if chunk % dtype.itemsize:
        raise CollectiveError("chunk must hold whole elements")

    ledger = CostLedger()
    reduce_results = mh._each_host(
        lambda h: mh.communicators[h].reduce(
            "1", total_data_size, src_offset=src_offset, data_type=dtype,
            reduction_type=op, functional=functional))
    ledger.merge(reduce_results[0].ledger)
    host_vectors = None
    if functional:
        host_vectors = [res.host_outputs[0] for res in reduce_results]

    phase = mh._global_phase("reduce_scatter", total_data_size,
                             host_vectors, ledger)
    shards = None
    if functional:
        reduced = _reduce_across(host_vectors, op)
        raw = np.ascontiguousarray(reduced).view(np.uint8)
        shards = raw.reshape(n_hosts, p * chunk)

    scatter_results = mh._each_host(
        lambda h: mh.communicators[h].scatter(
            "1", chunk, dst_offset=dst_offset, data_type=dtype,
            payloads=({0: shards[h]} if functional else None),
            functional=functional))
    ledger.merge(scatter_results[0].ledger)

    outputs = None
    if functional:
        elems = chunk // dtype.itemsize
        outputs = [mh.systems[h].gather_elements(
                       range(p), dst_offset, elems, dtype)
                   for h in range(n_hosts)]
    return mh._finish(ledger, phase, outputs)


def multihost_allgather(mh: MultiHostSystem, total_data_size: int,
                        src_offset: int, dst_offset: int,
                        dtype: DataType = INT64,
                        functional: bool = True) -> MultiHostResult:
    """Global AllGather: local Gather -> fabric allgather -> local
    Broadcast.

    The data crosses *before* duplication ("AllGather whose data are
    sent before duplication", section IX-A): each host ships its own
    ``p * chunk`` bytes once, then replicates locally at bus speed.
    """
    if total_data_size % dtype.itemsize:
        raise CollectiveError("chunk must hold whole elements")
    n_hosts = mh.num_hosts
    p = mh.pes_per_host

    ledger = CostLedger()
    gather_results = mh._each_host(
        lambda h: mh.communicators[h].gather(
            "1", total_data_size, src_offset=src_offset, data_type=dtype,
            functional=functional))
    ledger.merge(gather_results[0].ledger)
    gathered = None
    if functional:
        gathered = [np.ascontiguousarray(res.host_outputs[0]).view(np.uint8)
                    for res in gather_results]

    phase = mh._global_phase("allgather", p * total_data_size, gathered,
                             ledger)
    full = np.concatenate(gathered) if functional else None

    out_bytes = n_hosts * p * total_data_size
    broadcast_results = mh._each_host(
        lambda h: mh.communicators[h].broadcast(
            "1", out_bytes, dst_offset=dst_offset, data_type=dtype,
            payloads=({0: full} if functional else None),
            functional=functional))
    ledger.merge(broadcast_results[0].ledger)

    outputs = None
    if functional:
        elems = out_bytes // dtype.itemsize
        outputs = [mh.systems[h].gather_elements(
                       range(p), dst_offset, elems, dtype)
                   for h in range(n_hosts)]
    return mh._finish(ledger, phase, outputs)


def multihost_alltoall(mh: MultiHostSystem, total_data_size: int,
                       src_offset: int, dst_offset: int,
                       dtype: DataType = INT64,
                       functional: bool = True) -> MultiHostResult:
    """Global AlltoAll: local Gather -> fabric alltoall -> local Scatter.

    Every PE's buffer holds ``total_pes`` chunks in global PE order
    (host-major).  Unlike AllReduce, the full ``(N-1)/N`` share of the
    data crosses the network.
    """
    n_hosts = mh.num_hosts
    p = mh.pes_per_host
    total_global = n_hosts * p
    if total_data_size % total_global:
        raise CollectiveError(
            f"per-PE size {total_data_size}B must split into "
            f"{total_global} global chunks")
    chunk = total_data_size // total_global
    if chunk % dtype.itemsize:
        raise CollectiveError("chunk must hold whole elements")

    ledger = CostLedger()
    gather_results = mh._each_host(
        lambda h: mh.communicators[h].gather(
            "1", total_data_size, src_offset=src_offset, data_type=dtype,
            functional=functional))
    ledger.merge(gather_results[0].ledger)

    # Host-side re-blocking for the wire (charged as local modulation).
    per_host_bytes = p * total_data_size
    ledger.add("host_mod", mh.params.mod_time(per_host_bytes, "local"))
    ledger.add("host_mem", mh.params.host_mem_time(2 * per_host_bytes))

    blocks = None
    if functional:
        blocks = []
        for res in gather_results:
            raw = np.ascontiguousarray(res.host_outputs[0]).view(np.uint8)
            arr = raw.reshape(p, n_hosts, p, chunk)
            blocks.append(np.ascontiguousarray(
                arr.transpose(1, 0, 2, 3)).reshape(-1))

    phase = mh._global_phase("alltoall", per_host_bytes, blocks, ledger)
    received = _exchange_blocks(blocks) if functional else None

    def scatter_host(h):
        payloads = None
        if functional:
            arr = np.asarray(received[h], dtype=np.uint8).reshape(
                n_hosts, p, p, chunk)
            # Local PE q receives chunk [src_host, src_local, q].
            payloads = {0: np.ascontiguousarray(
                arr.transpose(2, 0, 1, 3)).reshape(-1)}
        return mh.communicators[h].scatter(
            "1", total_data_size, dst_offset=dst_offset, data_type=dtype,
            payloads=payloads, functional=functional)

    scatter_results = mh._each_host(scatter_host)
    ledger.merge(scatter_results[0].ledger)

    outputs = None
    if functional:
        elems = total_data_size // dtype.itemsize
        outputs = [mh.systems[h].gather_elements(
                       range(mh.pes_per_host), dst_offset, elems, dtype)
                   for h in range(mh.num_hosts)]
    return mh._finish(ledger, phase, outputs)
