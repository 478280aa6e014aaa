"""Analytic cost model: machine parameters and per-category ledgers.

Collectives and applications never measure wall-clock time; they build
*plans* whose steps are priced here.  This mirrors how the paper reasons
about its techniques: each optimization removes a specific cost category
(host staging traffic, domain transfer, global modulation), so modelled
time is the sum of per-category terms.

Categories (matching the paper's breakdown figures 4 and 17):

* ``bus``        -- bytes on the external DDR bus, parallel over channels.
* ``dt``         -- domain transfer (byte transpose), host-core parallel.
* ``host_mem``   -- staging traffic to/from host DRAM.
* ``host_mod``   -- modulation compute (global scalar / local / SIMD).
* ``host_reduce``-- reduction arithmetic on the host.
* ``pe``         -- PE-local work (reordering kernels), PE parallel.
* ``launch``     -- fixed per-invocation overheads (kernel launches,
  transfer setup).
* ``kernel``     -- application compute on the PEs.
* ``cpu``        -- application compute on a CPU-only system.
* ``fabric``     -- inter-host traffic priced on a topology-aware
  :class:`~repro.multihost.Fabric` link graph (per-link congestion,
  heterogeneous bandwidths); the hierarchical collectives charge their
  global phase here.
* ``retry``      -- reliability backoff waits before re-running a
  faulted collective (see ``repro/reliability/retry.py``).
* ``elide``      -- content scans (all-zero chunk detection) run by
  elision-aware replay; the scan is what buys the right to *skip*
  bus/staging charges for elided chunks.

The default parameter values are calibrated so the modelled speedups
track the ratios reported in the paper (see EXPERIMENTS.md); absolute
numbers are roofline-style estimates for the paper's testbed (Xeon Gold
5215, DDR4-2400, UPMEM DPUs) and are not meant to match a real machine
to the percent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from ..errors import PidCommError

GB = 1e9

CATEGORIES = (
    "bus", "dt", "host_mem", "host_mod", "host_reduce",
    "pe", "launch", "kernel", "cpu", "fabric", "retry", "elide",
)

#: Categories that overlap across *independent* collective instances
#: submitted together.  Bus bursts and PE-local kernels of one instance
#: proceed while another instance occupies the host cores (the per-rank
#: parallelism the paper exploits inside one collective, applied across
#: instances), and a batched submission pays the host-side launch/sync
#: once instead of per call.  Host-core-bound categories (``dt``,
#: ``host_mem``, ``host_mod``, ``host_reduce``) contend for the same
#: cores and therefore serialize.
OVERLAPPABLE_CATEGORIES = ("bus", "pe", "launch")

#: Two-stage split used by streamed-replay pipelining: the PE-resident
#: stage of a collective (on-DIMM reorder kernels) and the
#: host-resident stage (bus transfer plus the host's transpose /
#: modulation / reduce passes).  When a payload streams tile-by-tile,
#: tile *i*'s host stage drains while tile *i+1*'s PE stage runs --
#: the bulk-transfer pipelining the paper's host runtime relies on.
STREAM_PE_STAGE = ("pe",)
STREAM_HOST_STAGE = ("bus", "dt", "host_mem", "host_mod", "host_reduce",
                     "elide")

#: Categories that shrink when content-aware elision skips a chunk's
#: transfer: the bus burst, the byte transpose, and the host staging /
#: rearrange passes all scale with bytes actually moved.  Fixed
#: overheads (``launch``) and arithmetic on delivered values
#: (``host_reduce``, ``pe``) do not.
ELIDABLE_CATEGORIES = ("bus", "dt", "host_mem", "host_mod")

MOD_CLASSES = ("scalar", "local", "simd", "shuffle")


@dataclass(frozen=True)
class MachineParams:
    """Bandwidth/throughput parameters of the modelled testbed.

    All *gbps* values are GB/s (1e9 bytes per second).
    """

    # External bus: DDR4-2400 channel peak is 19.2 GB/s; sustained
    # host<->UPMEM transfer rates observed in practice are lower.
    bus_gbps_per_channel: float = 14.0

    # Host CPU (Xeon Gold 5215: 10 cores, AVX-512).
    host_cores: int = 10
    dt_gbps_per_core: float = 12.0          # byte-transpose shuffles
    mod_scalar_gbps_per_core: float = 1.1   # global gather/scatter rearrange
    mod_local_gbps_per_core: float = 4.0    # cache-friendly local rearrange
    mod_simd_gbps_per_core: float = 11.0    # in-register word shifts
    mod_shuffle_gbps_per_core: float = 18.0  # raw byte-lane shuffles (CM)
    reduce_simd_gbps_per_core: float = 9.0   # vertical SIMD reduction
    reduce_scalar_gbps_per_core: float = 2.0  # strided/horizontal reduce
    host_mem_gbps: float = 40.0             # effective staging stream BW

    # PEs (UPMEM DPUs, ~350 MHz; MRAM<->WRAM streaming per DPU).
    # With 16+ tasklets the pipeline sustains near 1 int-op/cycle.
    pe_mram_gbps: float = 1.6
    pe_ops_per_sec: float = 2.5e8

    # Fixed overheads (UPMEM launches across 1024 DPUs are ~ms scale).
    collective_launch_s: float = 5.0e-4
    kernel_launch_s: float = 1.0e-3

    # CPU-only application model (roofline).
    cpu_flops: float = 2.2e11
    cpu_mem_gbps: float = 60.0

    # Multi-host interconnect (paper throttles MPI to 10 Gbps).
    mpi_gbps: float = 1.25
    mpi_latency_s: float = 2.0e-5

    # Content scan (all-zero chunk detection before a transfer): a
    # contiguous single-pass read over source bytes, streaming at
    # close to host DRAM bandwidth.
    scan_gbps: float = 30.0

    # ------------------------------------------------------------------
    # Pricing helpers (all return seconds)
    # ------------------------------------------------------------------
    def bus_time(self, nbytes: float, channels: int, utilization: float = 1.0) -> float:
        """Time to move ``nbytes`` over ``channels`` parallel channels.

        ``utilization`` < 1 inflates the transfer for bursts whose byte
        lanes are only partially useful (non-EG-aligned PE sets).
        """
        _check_nonneg(nbytes, "nbytes")
        if channels < 1:
            raise PidCommError(f"channels must be >= 1, got {channels}")
        if not 0.0 < utilization <= 1.0:
            raise PidCommError(f"utilization must be in (0, 1], got {utilization}")
        return nbytes / (channels * self.bus_gbps_per_channel * GB * utilization)

    def dt_time(self, nbytes: float) -> float:
        """Domain transfer of ``nbytes``, parallel over host cores."""
        _check_nonneg(nbytes, "nbytes")
        return nbytes / (self.dt_gbps_per_core * GB * self.host_cores)

    def host_mem_time(self, nbytes: float) -> float:
        """``nbytes`` of staging traffic against host DRAM."""
        _check_nonneg(nbytes, "nbytes")
        return nbytes / (self.host_mem_gbps * GB)

    def mod_time(self, nbytes: float, klass: str) -> float:
        """Modulation compute over ``nbytes``; ``klass`` picks the rate."""
        _check_nonneg(nbytes, "nbytes")
        rates = {
            "scalar": self.mod_scalar_gbps_per_core,
            "local": self.mod_local_gbps_per_core,
            "simd": self.mod_simd_gbps_per_core,
            "shuffle": self.mod_shuffle_gbps_per_core,
        }
        if klass not in rates:
            raise PidCommError(f"unknown modulation class {klass!r}")
        return nbytes / (rates[klass] * GB * self.host_cores)

    def reduce_time(self, nbytes: float, simd: bool) -> float:
        """Host reduction over ``nbytes`` of input operands."""
        _check_nonneg(nbytes, "nbytes")
        rate = (self.reduce_simd_gbps_per_core if simd
                else self.reduce_scalar_gbps_per_core)
        return nbytes / (rate * GB * self.host_cores)

    def pe_stream_time(self, bytes_per_pe: float, passes: int = 1) -> float:
        """PE-local streaming (MRAM->WRAM->MRAM); PEs run in parallel."""
        _check_nonneg(bytes_per_pe, "bytes_per_pe")
        # Each pass reads and writes the data once.
        return 2.0 * passes * bytes_per_pe / (self.pe_mram_gbps * GB)

    def pe_compute_time(self, ops_per_pe: float) -> float:
        """PE-local compute; PEs run in parallel."""
        _check_nonneg(ops_per_pe, "ops_per_pe")
        return ops_per_pe / self.pe_ops_per_sec

    def cpu_time(self, flops: float, nbytes: float) -> float:
        """Roofline CPU-only time: max of compute and memory terms."""
        _check_nonneg(flops, "flops")
        _check_nonneg(nbytes, "nbytes")
        return max(flops / self.cpu_flops, nbytes / (self.cpu_mem_gbps * GB))

    def scan_time(self, nbytes: float) -> float:
        """Content (zero) scan over ``nbytes`` of source bytes."""
        _check_nonneg(nbytes, "nbytes")
        return nbytes / (self.scan_gbps * GB)

    def scaled(self, **overrides: float) -> "MachineParams":
        """Copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)


def _check_nonneg(value: float, name: str) -> None:
    if value < 0:
        raise PidCommError(f"{name} must be non-negative, got {value}")


@dataclass
class CostLedger:
    """Accumulated modelled seconds per category."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, category: str, seconds: float) -> None:
        """Accrue ``seconds`` to ``category``."""
        if category not in CATEGORIES:
            raise PidCommError(
                f"unknown cost category {category!r}; known: {CATEGORIES}")
        if seconds < 0:
            raise PidCommError(f"negative cost {seconds} for {category}")
        self.seconds[category] = self.seconds.get(category, 0.0) + seconds

    def merge(self, other: "CostLedger") -> None:
        """Accrue all of ``other`` into this ledger."""
        for category, seconds in other.seconds.items():
            self.add(category, seconds)

    @staticmethod
    def merge_concurrent(ledgers: "Sequence[CostLedger]",
                         overlappable: tuple[str, ...] = OVERLAPPABLE_CATEGORIES
                         ) -> "CostLedger":
        """Combined cost of ledgers whose work runs *concurrently*.

        For categories in ``overlappable`` the slowest instance hides
        the others (max); every other category serializes (sum).  This
        is the overlap-aware pricing the batch submitter applies to a
        wave of data-independent collective instances: bus transfers
        and PE kernels of different instances occupy disjoint resources
        (channels / DPUs working on different buffers), while the
        host-core-bound phases contend and add up.

        Callers are responsible for only merging ledgers that are
        actually independent; dependent work must be summed with
        :meth:`merge` instead.
        """
        merged = CostLedger()
        for category in CATEGORIES:
            values = [lg.seconds.get(category, 0.0) for lg in ledgers]
            if not any(values):
                continue
            if category in overlappable:
                merged.add(category, max(values))
            else:
                merged.add(category, sum(values))
        return merged

    def pipelined(self, depth: int,
                  pe_stage: "Sequence[str]" = STREAM_PE_STAGE,
                  host_stage: "Sequence[str]" = STREAM_HOST_STAGE
                  ) -> "CostLedger":
        """Cost under a two-stage software pipeline over ``depth`` tiles.

        Streamed replay splits the payload into ``depth`` equal tiles
        and overlaps the PE stage of tile *i+1* with the host stage of
        tile *i*.  In a two-stage pipeline only the shorter stage's
        pipeline-fill tile stays exposed: with per-tile stage times
        ``P/depth`` and ``H/depth`` the makespan is ``max(P, H) +
        min(P, H) / depth``, so the shorter stage's categories scale by
        ``1/depth`` while the longer stage (and every fixed category:
        launch, kernel, cpu, mpi, retry) is charged in full.  ``depth
        <= 1`` returns an unchanged copy, so unstreamed pricing is the
        degenerate case.
        """
        out = self.copy()
        if depth <= 1:
            return out
        pe_total = sum(self.seconds.get(c, 0.0) for c in pe_stage)
        host_total = sum(self.seconds.get(c, 0.0) for c in host_stage)
        hidden = pe_stage if pe_total <= host_total else host_stage
        for category in hidden:
            if category in out.seconds:
                out.seconds[category] /= depth
        return out

    def scaled(self, factor: float) -> "CostLedger":
        """Return a copy with every category multiplied by ``factor``."""
        if factor < 0:
            raise PidCommError(f"negative scale factor {factor}")
        return CostLedger({k: v * factor for k, v in self.seconds.items()})

    def get(self, category: str) -> float:
        """Seconds accrued to ``category`` (0.0 if none)."""
        return self.seconds.get(category, 0.0)

    @property
    def total(self) -> float:
        """Total modelled seconds across categories."""
        return sum(self.seconds.values())

    def breakdown(self) -> dict[str, float]:
        """Category -> seconds, only non-zero entries, insertion-ordered
        by the canonical category order."""
        return {c: self.seconds[c] for c in CATEGORIES if self.seconds.get(c)}

    def fractions(self) -> dict[str, float]:
        """Category -> share of total (empty if total is zero)."""
        total = self.total
        if total <= 0.0:
            return {}
        return {c: s / total for c, s in self.breakdown().items()}

    def __add__(self, other: "CostLedger") -> "CostLedger":
        result = CostLedger(dict(self.seconds))
        result.merge(other)
        return result

    def copy(self) -> "CostLedger":
        """Independent copy of this ledger."""
        return CostLedger(dict(self.seconds))


class Term(NamedTuple):
    """One quantity of work a plan step declares (``Step.traffic``),
    priced at :data:`RATES` ``[rate]``: ``amount`` is bytes, except
    operations per PE (``pe_compute``) and a count (launches).  A bus
    term spans ``channels`` at lane ``utilization``; a ``pe_stream``
    term's ``amount`` is bytes per PE, streamed once by ``pes`` PEs."""

    rate: str
    amount: float
    channels: int = 1
    utilization: float = 1.0
    pes: int = 1


#: Term rate -> (ledger category, the :class:`MachineParams` formula
#: pricing one term); ``docs/cost_model.md`` tabulates it.
RATES: dict[str, tuple[str, Callable[[MachineParams, Term], float]]] = {
    "bus": ("bus", lambda p, t: p.bus_time(t.amount, t.channels,
                                           t.utilization)),
    "dt": ("dt", lambda p, t: p.dt_time(t.amount)),
    "host_mem": ("host_mem", lambda p, t: p.host_mem_time(t.amount)),
    **{f"mod_{klass}": ("host_mod", lambda p, t, k=klass: p.mod_time(
        t.amount, k)) for klass in MOD_CLASSES},
    "reduce_simd": ("host_reduce", lambda p, t: p.reduce_time(t.amount, True)),
    "reduce_scalar": ("host_reduce",
                      lambda p, t: p.reduce_time(t.amount, False)),
    "pe_stream": ("pe", lambda p, t: p.pe_stream_time(t.amount)),
    "pe_compute": ("pe", lambda p, t: p.pe_compute_time(t.amount)),
    "kernel_launch": ("launch", lambda p, t: t.amount * p.kernel_launch_s),
    "collective_launch": ("launch",
                          lambda p, t: t.amount * p.collective_launch_s),
}


def price(terms: Iterable[Term], params: MachineParams) -> CostLedger:
    """Fold ``terms``, in order, into a ledger at ``params``' rates."""
    ledger = CostLedger()
    seconds = ledger.seconds
    for term in terms:
        category, formula = RATES[term.rate]
        seconds[category] = seconds.get(category, 0.0) + formula(params, term)
    return ledger


def throughput_gbps(nbytes: float, seconds: float) -> float:
    """Throughput in GB/s given bytes moved and modelled seconds."""
    if seconds <= 0:
        raise PidCommError(f"non-positive duration {seconds}")
    return nbytes / seconds / GB
