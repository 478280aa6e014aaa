"""Hierarchical multi-host collectives (paper Figure 23b), on the engine.

Each host owns one UPMEM channel (4 ranks x 8 chips x 8 banks = 256
PEs, as in the paper's testbed) and runs PID-Comm locally through its
own :class:`~repro.engine.Communicator` session -- full
:class:`~repro.engine.SessionConfig` support but ``parallel_workers``,
so the local phases enjoy compiled replay, streaming and elision.
The global phase is a first-class inter-host program
(:class:`~repro.multihost.GlobalProgram`) priced on a topology-aware
:class:`~repro.multihost.Fabric` and selected per (primitive, payload,
topology) by the :class:`~repro.multihost.GlobalTuner`; it always
crosses at the chosen program's full bytes, as plain MPI does.  The
driver runs the hosts' local phases one host after another on the
calling thread.

``elide_transfers`` applies inside a host only: a host session's
compiled replays elide, but the hierarchical local phases lower to
host pull, push and fill ops that never scan, so a hierarchical result
is identical with the flag on or off.

Every hierarchical collective is one recipe run by one driver,
:func:`_hierarchical`: a local collective onto each host (Reduce or
Gather), one global phase, the canonical combine, and a local
collective back onto the PEs (Broadcast or Scatter).
:data:`_RECIPES` holds the four rows; the public ``multihost_*``
functions are one call into the driver.  AllReduce ships only the
locally-reduced vector (1/256th of the data), so its fabric overhead
is small; AlltoAll has no reduction and pays the full ``(N-1)/N``
crossing cost -- exactly the asymmetry the paper's figure shows.

The functional global exchange is canonical numpy, shared by every
global program and topology: a float reduction run round by round
would depend on the chosen program's order of sums.  So hierarchical
outputs are bit-identical to the scalar interpreted oracle at every
host count, backend, execution mode, and program.  The two clocks part
on AlltoAll: the modelled host re-blocks its buffer into the wire
layout (charged as local modulation), while the simulator fuses
re-block, exchange and un-block into one permutation
(:func:`_alltoall_payloads`) and never builds the wire layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, INT64, ReduceOp, SUM
from ..engine import Communicator, SessionConfig
from ..errors import CollectiveError, GeometryError
from ..hw.arena import wide_dtype
from ..hw.geometry import DimmGeometry
from ..hw.system import DimmSystem
from ..hw.timing import CostLedger, MachineParams
from .fabric import Fabric
from .tuning import GlobalTuner


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
            :class:`~repro.engine.Communicator` runs under, as given
            (rung, backend, execution mode, streaming, elision).
            None means the all-defaults config.
        fabric: Inter-host topology (default: fully connected at the
            testbed's throttled MPI link rate, on which a ring prices
            at the flat ``(N-1)/N`` formulas).

    Hosts run one after another on the calling thread.  The
    hierarchical collectives issue single ``run`` calls, which never
    form waves, so a host session's worker pool would never run: a
    ``session_config`` with ``parallel_workers > 1`` raises
    :class:`CollectiveError` (``docs/multihost.md``).
    """

    def __init__(self, num_hosts: int, params: MachineParams | None = None,
                 ranks_per_channel: int = 4, mram_bytes: int = 1 << 20, *,
                 session_config: SessionConfig | None = None,
                 fabric: Fabric | None = None) -> None:
        if num_hosts < 1:
            raise CollectiveError("need at least one host")
        if session_config is None:
            session_config = SessionConfig()
        if session_config.parallel_workers > 1:
            raise CollectiveError(
                f"parallel_workers={session_config.parallel_workers} on a "
                f"MultiHostSystem: its collectives issue single calls, "
                f"which form no waves, so a host's worker pool would "
                f"never run; use parallel_workers=1")
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
        self.communicators = [Communicator(manager, session_config)
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

    def _locate(self, global_pe: int) -> tuple[int, int]:
        """``(host, local PE)`` of a *global* PE id; raises
        :class:`~repro.errors.GeometryError` outside ``[0, total_pes)``."""
        if not 0 <= global_pe < self.total_pes:
            raise GeometryError(
                f"global pe {global_pe} out of range [0, {self.total_pes})")
        return divmod(global_pe, self.pes_per_host)

    def write_pe(self, global_pe: int, offset: int, values: np.ndarray,
                 dtype: DataType = INT64) -> None:
        """Write elements to a PE addressed by its *global* id."""
        host, local = self._locate(global_pe)
        self.systems[host].write_elements(local, offset, values, dtype)

    def read_pe(self, global_pe: int, offset: int, count: int,
                dtype: DataType = INT64) -> np.ndarray:
        """Read elements from a PE addressed by its *global* id."""
        host, local = self._locate(global_pe)
        return self.systems[host].read_elements(local, offset, count, dtype)

    def close(self) -> None:
        """Close every host session (idempotent)."""
        for comm in self.communicators:
            comm.close()


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


def _alltoall_payloads(gathered: list[np.ndarray], n: int, p: int,
                       chunk: int) -> list[np.ndarray]:
    """Each host's Scatter payload after the fabric alltoall, in one
    permutation: ``payload[g][q, h, s] = gathered[h][s, g, q]``, so
    local PE ``q`` of host ``g`` receives chunk ``[h, s]`` from local
    PE ``s`` of every host ``h``.  One strided assignment per source
    host fills a single ``(n, p, n, p)`` block of chunk-wide elements;
    the payloads are its per-host rows."""
    wide = wide_dtype(chunk)
    block = np.empty((n, p, n, p), dtype=wide)
    for h, buf in enumerate(gathered):
        block[:, :, h] = np.ascontiguousarray(buf).view(wide).reshape(
            p, n, p).transpose(1, 2, 0)
    return list(block.view(np.uint8).reshape(n, -1))


class _Recipe(NamedTuple):
    """One hierarchical collective as data (paper Figure 23b)."""

    #: Local collective onto each host (``"reduce"`` or ``"gather"``);
    #: its host buffer is what enters the global phase.
    collect: str
    #: ``(host buffers, op, n, p, chunk)`` -> what each host
    #: distributes: the canonical numpy result of the fabric exchange.
    combine: Callable
    #: Local collective back onto the PEs (``"broadcast"`` or
    #: ``"scatter"``) and its per-PE bytes, ``(size, chunk, n, p)``.
    distribute: str
    out_bytes: Callable
    #: The per-PE buffer splits into ``n * p`` global chunks.
    chunked: bool = False
    #: The modelled host re-blocks its buffer host-major into the wire
    #: layout (charged as local modulation); every other collective
    #: puts its host buffer on the fabric as it is.
    reblocks: bool = False


_RECIPES = {
    # Data cross *after* the local reduction: the reduced vector once.
    "allreduce": _Recipe(
        "reduce",
        lambda bufs, op, n, *_: [_reduce_across(bufs, op)] * n,
        "broadcast", lambda size, *_: size),
    # Global PE ``i`` receives reduced chunk ``i``.
    "reduce_scatter": _Recipe(
        "reduce",
        lambda bufs, op, n, p, chunk: list(np.ascontiguousarray(
            _reduce_across(bufs, op)).view(np.uint8).reshape(n, p * chunk)),
        "scatter", lambda size, chunk, *_: chunk, chunked=True),
    # Data cross *before* duplication: each host's ``p * size`` once.
    "allgather": _Recipe(
        "gather",
        lambda bufs, op, n, *_: [np.concatenate(bufs, axis=None)] * n,
        "broadcast", lambda size, chunk, n, p: n * p * size),
    # No reduction: the full ``(N-1)/N`` share crosses the fabric.
    "alltoall": _Recipe(
        "gather",
        lambda bufs, op, n, p, chunk: _alltoall_payloads(bufs, n, p, chunk),
        "scatter", lambda size, *_: size, chunked=True, reblocks=True),
}


def _hierarchical(mh: MultiHostSystem, primitive: str, size: int,
                  src: int, dst: int, dtype: DataType, op: ReduceOp,
                  functional: bool) -> MultiHostResult:
    """Run ``primitive`` as local collect -> one global phase -> local
    distribute, reading the steps from its :data:`_RECIPES` row.

    The modelled hosts run in parallel, so the ledger books host 0's
    local work: the collect, AlltoAll's re-blocking, then the
    distribute.  The global phase is the tuner's program at its full
    seconds and bytes, recorded on host 0's stats; a single host has
    none.
    """
    recipe = _RECIPES[primitive]
    n, p = mh.num_hosts, mh.pes_per_host
    chunk = size
    if recipe.chunked:
        if size % (n * p):
            raise CollectiveError(
                f"per-PE size {size}B must split into {n * p} global "
                f"chunks")
        chunk = size // (n * p)
    if chunk % dtype.itemsize:
        raise CollectiveError("chunk must hold whole elements")
    extra = {"reduction_type": op} if recipe.collect == "reduce" else {}
    ledger = CostLedger()
    collected = [getattr(comm, recipe.collect)(
        "1", size, src_offset=src, data_type=dtype, functional=functional,
        **extra) for comm in mh.communicators]
    ledger.merge(collected[0].ledger)
    bufs = ([res.host_outputs[0] for res in collected] if functional
            else None)
    del collected
    nbytes = size if recipe.collect == "reduce" else p * size
    if recipe.reblocks:
        ledger.add("host_mod", mh.params.mod_time(nbytes, "local"))
        ledger.add("host_mem", mh.params.host_mem_time(2 * nbytes))

    seconds, moved, algorithm = 0.0, 0, None
    if n > 1:
        program = mh.tuner.choose(primitive, nbytes)
        seconds, moved = program.seconds, program.fabric_bytes
        algorithm = program.algorithm
        mh.stats.record_global_phase(
            primitive, algorithm, fabric_bytes=moved,
            fabric_seconds=seconds)

    # Each buffer is dropped once its successor exists, so a call holds
    # at most two payload-sized buffers at a time.
    payloads = (recipe.combine(bufs, op, n, p, chunk) if functional
                else None)
    bufs = None
    out_bytes = recipe.out_bytes(size, chunk, n, p)
    distributed = [getattr(comm, recipe.distribute)(
        "1", out_bytes, dst_offset=dst, data_type=dtype,
        payloads=({0: payloads[h]} if functional else None),
        functional=functional) for h, comm in enumerate(mh.communicators)]
    ledger.merge(distributed[0].ledger)
    payloads = distributed = None

    outputs = None
    if functional:
        block = np.empty((n, p, out_bytes), dtype=np.uint8)
        for system, rows in zip(mh.systems, block):
            system.peek_rows(range(p), dst, out_bytes, out=rows)
        outputs = [list(rows) for rows in block.view(dtype.np_dtype)]
    return MultiHostResult(ledger, seconds, outputs, algorithm, moved)


def multihost_allreduce(mh: MultiHostSystem, total_data_size: int,
                        src_offset: int, dst_offset: int,
                        dtype: DataType = INT64, op: ReduceOp = SUM,
                        functional: bool = True) -> MultiHostResult:
    """Global AllReduce: local Reduce -> fabric allreduce -> local
    Broadcast."""
    return _hierarchical(mh, "allreduce", total_data_size, src_offset,
                         dst_offset, dtype, op, functional)


def multihost_reduce_scatter(mh: MultiHostSystem, total_data_size: int,
                             src_offset: int, dst_offset: int,
                             dtype: DataType = INT64, op: ReduceOp = SUM,
                             functional: bool = True) -> MultiHostResult:
    """Global ReduceScatter: local Reduce -> fabric reduce_scatter ->
    local Scatter; global PE ``i`` receives reduced chunk ``i``."""
    return _hierarchical(mh, "reduce_scatter", total_data_size, src_offset,
                         dst_offset, dtype, op, functional)


def multihost_allgather(mh: MultiHostSystem, total_data_size: int,
                        src_offset: int, dst_offset: int,
                        dtype: DataType = INT64,
                        functional: bool = True) -> MultiHostResult:
    """Global AllGather: local Gather -> fabric allgather -> local
    Broadcast."""
    return _hierarchical(mh, "allgather", total_data_size, src_offset,
                         dst_offset, dtype, SUM, functional)


def multihost_alltoall(mh: MultiHostSystem, total_data_size: int,
                       src_offset: int, dst_offset: int,
                       dtype: DataType = INT64,
                       functional: bool = True) -> MultiHostResult:
    """Global AlltoAll: local Gather -> fabric alltoall -> local
    Scatter; every PE's buffer holds ``total_pes`` chunks in global PE
    order (host-major)."""
    return _hierarchical(mh, "alltoall", total_data_size, src_offset,
                         dst_offset, dtype, SUM, functional)
