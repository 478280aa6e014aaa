"""Engine instrumentation: per-call metrics and the EngineStats report.

Every collective that flows through the engine records what the session
actually did -- plans compiled vs. served from cache, payload bytes
moved, modelled seconds split by cost category and by primitive, and
(for batched submissions) how much the overlap-aware schedule saved
over pricing the same requests serially.  ``report()`` renders the
counters as a text block in the house style of ``analysis/trace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from ..core.collectives import CommPlan
from ..hw.timing import CATEGORIES, CostLedger


def plan_payload_bytes(plan: CommPlan) -> int:
    """Payload bytes one invocation of ``plan`` carries through the system.

    Derived from plan metadata: per-PE input plus output bytes, over
    every member PE of every instance.  This is an application-level
    traffic measure (what the user asked to move), not bus occupancy --
    the ledger's ``bus`` term prices that.
    """
    meta = plan.meta
    per_pe = meta.get("per_pe_bytes", 0) + meta.get("out_bytes_per_pe", 0)
    return per_pe * meta.get("instances", 1) * meta.get("group_size", 1)


def _copied(value: Any) -> Any:
    """A counter's value with its dicts, nested ones too, copied
    (``dataclasses.asdict`` deep-copies every scalar as well, 20x the
    cost of a snapshot)."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    return value


@dataclass
class EngineStats:
    """Counters accumulated by one engine session."""

    calls: int = 0
    plans_compiled: int = 0
    cache_hits: int = 0
    #: Plans (with their programs) dropped by LRU cache eviction.
    plan_evictions: int = 0
    #: tenant -> latest plan-cache partition counter snapshot
    #: (``plans`` / ``hits`` / ``misses`` / ``evictions``), refreshed on
    #: every tenant-attributed plan lookup.  Empty unless the serving
    #: front-end (or a tenant-tagged request) is in play; the global
    #: eviction counter above stays tenant-blind.
    plan_partitions: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Plans lowered into compiled programs (one per cached shape).
    programs_compiled: int = 0
    #: Calls served by compiled-program replay instead of interpretation.
    program_replays: int = 0
    #: Wall-clock seconds spent lowering plans / replaying programs
    #: (host-process time, not modelled time -- the amortization data).
    compile_seconds: float = 0.0
    replay_seconds: float = 0.0
    #: Payload tiles replayed by streamed executions across the session.
    tiles_replayed: int = 0
    #: High-water mark of streaming scratch-pool bytes across replays.
    peak_scratch_bytes: int = 0
    batches: int = 0
    waves: int = 0
    #: Worker threads the session was configured with (1 = serial).
    parallel_workers: int = 1
    #: Waves whose members actually executed concurrently.
    parallel_waves: int = 0
    #: Requests executed via the worker pool (across parallel waves).
    parallel_requests: int = 0
    #: Multi-request waves a pooled session ran serially anyway
    #: (fault injector attached / reliability policy active).
    parallel_fallbacks: int = 0
    #: Wall-clock seconds parallel waves took vs. their members' summed
    #: task seconds; the ratio is :attr:`parallel_speedup`.
    parallel_wall_seconds: float = 0.0
    parallel_task_seconds: float = 0.0
    # Content-aware elision counters (all zero unless
    # SessionConfig(elide_transfers=True)).
    #: Calls whose replay zero-scanned at least one source.
    elision_scans: int = 0
    #: Source chunks zero-scanned across the session.
    chunks_scanned: int = 0
    #: Destination chunks whose transfer was elided.
    chunks_elided: int = 0
    #: Destination bytes those elided chunks cover.
    elided_bytes: int = 0
    # Multi-host counters (all zero outside hierarchical runs; accrue
    # on host 0's session, which represents the symmetric hosts).
    #: Global (inter-host) phases executed.
    global_phases: int = 0
    #: ``"primitive/algorithm"`` -> times the global tuner chose it.
    global_algorithms: dict[str, int] = field(default_factory=dict)
    #: Payload bytes global phases put on the inter-host fabric.
    fabric_bytes: int = 0
    #: Modelled seconds global phases spent on the fabric.
    fabric_seconds: float = 0.0
    bytes_moved: int = 0
    modelled_seconds: float = 0.0
    overlap_saved_seconds: float = 0.0
    per_primitive_calls: dict[str, int] = field(default_factory=dict)
    per_primitive_seconds: dict[str, float] = field(default_factory=dict)
    per_category_seconds: dict[str, float] = field(default_factory=dict)
    # Reliability counters (all zero unless a fault injector is active).
    retries: int = 0
    faults_seen: dict[str, int] = field(default_factory=dict)
    degradations: int = 0
    backoff_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.plans_compiled
        return self.cache_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_call(self, primitive: str, plan: CommPlan,
                    ledger: CostLedger, cached: bool, *,
                    attempts: int = 1, backoff_s: float = 0.0,
                    degraded: bool = False) -> None:
        """Account one collective invocation."""
        self.calls += 1
        if attempts > 1:
            self.retries += attempts - 1
        self.backoff_seconds += backoff_s
        if degraded:
            self.degradations += 1
        if cached:
            self.cache_hits += 1
        else:
            self.plans_compiled += 1
        self.bytes_moved += plan_payload_bytes(plan)
        self.modelled_seconds += ledger.total
        self.per_primitive_calls[primitive] = (
            self.per_primitive_calls.get(primitive, 0) + 1)
        self.per_primitive_seconds[primitive] = (
            self.per_primitive_seconds.get(primitive, 0.0) + ledger.total)
        for category, seconds in ledger.seconds.items():
            self.per_category_seconds[category] = (
                self.per_category_seconds.get(category, 0.0) + seconds)

    def record_compile(self, seconds: float) -> None:
        """Account one plan -> program lowering (wall-clock)."""
        self.programs_compiled += 1
        self.compile_seconds += seconds

    def record_replay(self, seconds: float, *, tiles: int = 0,
                      peak_scratch_bytes: int = 0) -> None:
        """Account one compiled-program replay (wall-clock).

        Streamed replays also report their tile count and the scratch
        pool's high-water mark; both stay zero for untiled replays.
        """
        self.program_replays += 1
        self.replay_seconds += seconds
        self.tiles_replayed += tiles
        if peak_scratch_bytes > self.peak_scratch_bytes:
            self.peak_scratch_bytes = peak_scratch_bytes

    def record_elision(self, *, chunks_scanned: int, chunks_elided: int,
                       elided_bytes: int) -> None:
        """Account one replay's content-aware elision activity.

        Calls with zero scan work record nothing -- the dense fast
        path (``elide_transfers`` off, or an op too small to scan) must
        leave every elision counter untouched, which
        ``tests/test_elision.py`` asserts.
        """
        if not chunks_scanned:
            return
        self.elision_scans += 1
        self.chunks_scanned += chunks_scanned
        self.chunks_elided += chunks_elided
        self.elided_bytes += elided_bytes

    @property
    def elision_rate(self) -> float:
        """Elided chunks over scanned chunks (0.0 when never scanned)."""
        if not self.chunks_scanned:
            return 0.0
        return self.chunks_elided / self.chunks_scanned

    def record_global_phase(self, primitive: str, algorithm: str, *,
                            fabric_bytes: int, fabric_seconds: float) -> None:
        """Account one hierarchical collective's inter-host phase."""
        self.global_phases += 1
        key = f"{primitive}/{algorithm}"
        self.global_algorithms[key] = self.global_algorithms.get(key, 0) + 1
        self.fabric_bytes += fabric_bytes
        self.fabric_seconds += fabric_seconds

    def record_fault(self, kind: str) -> None:
        """Account one observed fault (by kind, e.g. ``"bit_flip"``)."""
        self.faults_seen[kind] = self.faults_seen.get(kind, 0) + 1

    def record_batch(self, waves: int, serial_seconds: float,
                     overlapped_seconds: float) -> None:
        """Account one ``submit()``: overlap credit vs. the serial sum."""
        self.batches += 1
        self.waves += waves
        self.overlap_saved_seconds += max(0.0,
                                          serial_seconds - overlapped_seconds)

    def record_parallel_wave(self, members: int, wall_seconds: float,
                             task_seconds: float) -> None:
        """Account one wave executed across the worker pool.

        ``wall_seconds`` is the wave's elapsed time, ``task_seconds``
        the sum of its members' individual execution times -- their
        ratio is the realized (wall-clock-only) parallel speedup.
        Recorded serially by the submitting thread, so these floats
        accumulate in deterministic order.
        """
        self.parallel_waves += 1
        self.parallel_requests += members
        self.parallel_wall_seconds += wall_seconds
        self.parallel_task_seconds += task_seconds

    @property
    def parallel_speedup(self) -> float:
        """Realized wall-clock speedup of pooled waves (1.0 when none)."""
        if self.parallel_wall_seconds <= 0.0:
            return 1.0
        return self.parallel_task_seconds / self.parallel_wall_seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy for result metadata / persistence: every
        counter field plus the two derived rates."""
        snap = {f.name: _copied(getattr(self, f.name)) for f in fields(self)}
        snap["cache_hit_rate"] = self.cache_hit_rate
        snap["elision_rate"] = self.elision_rate
        return snap

    def report(self) -> str:
        """Multi-line text report of the session's activity."""
        lines = [
            "EngineStats",
            f"  calls           {self.calls}",
            f"  plans compiled  {self.plans_compiled}",
            f"  cache hits      {self.cache_hits} "
            f"({self.cache_hit_rate:.1%} hit rate)",
            f"  batches         {self.batches} ({self.waves} waves)",
            f"  bytes moved     {self.bytes_moved}",
            f"  modelled time   {self.modelled_seconds * 1e3:.3f} ms",
            f"  overlap saved   {self.overlap_saved_seconds * 1e3:.3f} ms",
        ]
        if self.programs_compiled or self.program_replays \
                or self.plan_evictions:
            lines.append("  compiled programs:")
            lines.append(f"    compiled        {self.programs_compiled} "
                         f"({self.compile_seconds * 1e3:.3f} ms)")
            lines.append(f"    replays         {self.program_replays} "
                         f"({self.replay_seconds * 1e3:.3f} ms)")
            lines.append(f"    evictions       {self.plan_evictions}")
            if self.tiles_replayed:
                lines.append(f"    tiles replayed  {self.tiles_replayed}")
                lines.append(f"    peak scratch    "
                             f"{self.peak_scratch_bytes} B")
        if self.parallel_workers > 1 or self.parallel_waves \
                or self.parallel_fallbacks:
            lines.append("  parallel replay:")
            lines.append(f"    workers         {self.parallel_workers}")
            lines.append(f"    parallel waves  {self.parallel_waves} "
                         f"({self.parallel_requests} requests)")
            lines.append(f"    wall / task     "
                         f"{self.parallel_wall_seconds * 1e3:.3f} / "
                         f"{self.parallel_task_seconds * 1e3:.3f} ms "
                         f"({self.parallel_speedup:.2f}x)")
            lines.append(f"    fallbacks       {self.parallel_fallbacks}")
        if self.elision_scans:
            lines.append("  content elision:")
            lines.append(f"    scans           {self.elision_scans} calls "
                         f"({self.chunks_scanned} chunks)")
            lines.append(f"    chunks elided   {self.chunks_elided} "
                         f"({self.elision_rate:.1%})")
            lines.append(f"    bytes elided    {self.elided_bytes}")
        if self.global_phases:
            lines.append("  multihost:")
            lines.append(f"    global phases   {self.global_phases}")
            lines.append(f"    fabric bytes    {self.fabric_bytes}")
            lines.append(f"    fabric time     "
                         f"{self.fabric_seconds * 1e3:.3f} ms")
            for key in sorted(self.global_algorithms):
                lines.append(f"    {key:<22s} "
                             f"x{self.global_algorithms[key]}")
        if self.plan_partitions:
            lines.append("  plan-cache partitions:")
            for tenant in sorted(self.plan_partitions):
                c = self.plan_partitions[tenant]
                lines.append(
                    f"    {tenant:<16s} {c.get('plans', 0):>3d} plans  "
                    f"{c.get('hits', 0):>5d} hits  "
                    f"{c.get('evictions', 0):>3d} evictions")
        if self.per_primitive_calls:
            lines.append("  per primitive:")
            for name in sorted(self.per_primitive_calls):
                seconds = self.per_primitive_seconds.get(name, 0.0)
                lines.append(f"    {name:<16s} x{self.per_primitive_calls[name]:<5d}"
                             f" {seconds * 1e3:>10.3f} ms")
        if self.per_category_seconds:
            lines.append("  per category:")
            for category in CATEGORIES:
                seconds = self.per_category_seconds.get(category)
                if seconds:
                    lines.append(f"    {category:<16s} "
                                 f"{seconds * 1e3:>10.3f} ms")
        if self.retries or self.faults_seen or self.degradations:
            lines.append("  reliability:")
            lines.append(f"    retries         {self.retries}")
            lines.append(f"    backoff         "
                         f"{self.backoff_seconds * 1e3:.3f} ms")
            lines.append(f"    degradations    {self.degradations}")
            for kind in sorted(self.faults_seen):
                lines.append(f"    fault {kind:<10s} "
                             f"x{self.faults_seen[kind]}")
        return "\n".join(lines)
