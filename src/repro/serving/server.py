"""The multi-tenant serving front-end: :class:`CollectiveServer`.

One server owns one machine -- a single
:class:`~repro.engine.communicator.Communicator` session over one
hypercube manager -- and multiplexes many tenants onto it:

* **Admission** (:mod:`repro.serving.admission`): a bounded queue with
  priority shedding turns overload into immediate backpressure instead
  of unbounded tail latency.
* **Scheduling** (:mod:`repro.serving.fairness`): weighted virtual-time
  fair share decides whose queued request joins the next execution
  batch, so a greedy tenant cannot starve the others.
* **Execution**: batches drain into the engine's hazard-wave
  ``submit()``; each request's individual result (payload bytes,
  ledger) is exactly what a solo session would have produced --
  serving adds scheduling, never changes answers.
* **Isolation**: every admitted request is stamped with its tenant id,
  routing plan lookups through the tenant's private
  :meth:`~repro.engine.cache.PlanCache.partition`, and per-request MRAM
  footprints are checked against the tenant's quota at admission.

Time is *modelled*: the server clock advances by each executed batch's
overlap-aware ledger total, so latency percentiles are deterministic
properties of the workload and schedule, not of host jitter.
"""

from __future__ import annotations

import asyncio
import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Any

from ..core.hypercube import HypercubeManager
from ..engine.communicator import Communicator
from ..engine.request import CommRequest, NormalizedRequest
from ..engine.session_config import SessionConfig
from ..engine.stats import plan_payload_bytes
from ..errors import (
    PidCommError,
    QuotaExceeded,
    RequestShed,
    ServingError,
    SessionClosed,
)
from .admission import AdmissionQueue, PendingRequest
from .fairness import FairShareScheduler
from .session import Session, TenantSpec


def _footprint_bytes(req: NormalizedRequest) -> int:
    """Distinct per-PE MRAM bytes ``req`` touches (the quota currency).

    Overlapping read/write spans are merged first, so an in-place
    primitive is not double-charged for its source region.
    """
    spans = sorted(set(req.footprint().reads + req.footprint().writes))
    total = 0
    end = -1
    for offset, nbytes in spans:
        stop = offset + nbytes
        if offset > end:
            total += nbytes
        elif stop > end:
            total += stop - end
        end = max(end, stop)
    return total


@dataclass
class TenantStats:
    """Per-tenant serving counters (modelled-clock latencies)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    #: Payload bytes of completed requests (the goodput numerator).
    bytes_completed: int = 0
    #: Source chunks zero-scanned for this tenant's requests
    #: (0 unless the owned session runs with content-aware elision).
    chunks_scanned: int = 0
    #: Destination chunks whose transfer was elided for this tenant.
    chunks_elided: int = 0
    #: Destination bytes those elided chunks cover.
    elided_bytes: int = 0
    #: Modelled completion - arrival seconds, one entry per completion.
    latencies: list[float] = field(default_factory=list)

    def percentile(self, pct: float) -> float:
        """Latency percentile over completed requests (0 if none)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(0, min(len(ordered) - 1,
                          round(pct / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def p50(self) -> float:
        """Median modelled latency."""
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        """99th-percentile modelled latency."""
        return self.percentile(99.0)

    @property
    def mean_latency(self) -> float:
        """Mean modelled latency (0 if nothing completed)."""
        return statistics.fmean(self.latencies) if self.latencies else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy for reports / persistence."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "bytes_completed": self.bytes_completed,
            "chunks_scanned": self.chunks_scanned,
            "chunks_elided": self.chunks_elided,
            "elided_bytes": self.elided_bytes,
            "p50_ms": self.p50 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "mean_ms": self.mean_latency * 1e3,
        }


@dataclass
class ServerStats:
    """Whole-server counters: modelled clock, batches, per-tenant stats."""

    #: Modelled seconds the machine has executed (sum of batch ledgers).
    clock: float = 0.0
    batches: int = 0
    #: Requests dispatched into execution batches.
    dispatched: int = 0
    #: Tenant ids in completion order (the fairness tests' witness).
    execution_log: list[str] = field(default_factory=list)
    tenants: dict[str, TenantStats] = field(default_factory=dict)

    def tenant(self, tenant_id: str) -> TenantStats:
        """The (created-on-demand) counters for one tenant."""
        stats = self.tenants.get(tenant_id)
        if stats is None:
            stats = self.tenants[tenant_id] = TenantStats()
        return stats

    @property
    def goodput_bytes_per_second(self) -> float:
        """Completed payload bytes over the modelled clock (0 early)."""
        done = sum(t.bytes_completed for t in self.tenants.values())
        return done / self.clock if self.clock else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy for reports / persistence."""
        return {
            "clock_seconds": self.clock,
            "batches": self.batches,
            "dispatched": self.dispatched,
            "goodput_bytes_per_second": self.goodput_bytes_per_second,
            "tenants": {tid: t.snapshot()
                        for tid, t in sorted(self.tenants.items())},
        }


class CollectiveServer:
    """Async front-end admitting many tenants onto one Communicator.

    Args:
        manager: The hypercube manager the owned session runs over.
        session_config: Frozen :class:`SessionConfig` for the owned
            session (None = all defaults).
        max_queue_depth: Total queued-request bound across all tenants;
            arrivals past it shed lower-priority queued work or are
            rejected (see :mod:`repro.serving.admission`).
        batch_limit: Most requests one execution batch dispatches; the
            fair-share scheduler fills each batch one pick at a time.

    Use :meth:`session` to open per-tenant handles, then either drive
    execution explicitly with :meth:`process` / :meth:`drain`, or run
    the server as an async context manager (``async with server:``),
    which starts a background task that drains the queue whenever work
    arrives.
    """

    def __init__(self, manager: HypercubeManager,
                 session_config: SessionConfig | None = None, *,
                 max_queue_depth: int = 64, batch_limit: int = 8) -> None:
        if batch_limit <= 0:
            raise ValueError(
                f"batch_limit must be positive, got {batch_limit}")
        self.comm = Communicator(manager, session_config)
        self.scheduler = FairShareScheduler()
        self.stats = ServerStats()
        self._queue = AdmissionQueue(max_depth=max_queue_depth)
        self.batch_limit = batch_limit
        self._sessions: dict[str, Session] = {}
        self._seq = 0
        self._wake: asyncio.Event | None = None
        self._task: "asyncio.Task[None] | None" = None

    @property
    def manager(self) -> HypercubeManager:
        """The hypercube manager the owned session runs over."""
        return self.comm.manager

    @property
    def pending(self) -> int:
        """Requests admitted but not yet dispatched."""
        return len(self._queue)

    @property
    def parallel_workers(self) -> int:
        """Worker threads the owned session replays with (1 = serial).

        Batches drain through ``Communicator.submit``, so a pooled
        session (``SessionConfig(parallel_workers=N)``) automatically
        executes each batch's hazard-free wave members concurrently --
        the server's hazard-aware batch filling already builds batches
        that form one fully-concurrent wave.
        """
        return self.comm.parallel_workers

    @property
    def admission_stats(self):
        """The admission queue's lifetime counters."""
        return self._queue.stats

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def session(self, tenant_id: str, *, priority: int = 1,
                weight: float = 1.0, mram_quota_bytes: int | None = None,
                plan_cache_slots: int | None = None) -> Session:
        """Open a tenant session (one active session per tenant id).

        Registers the tenant with the fair-share scheduler and carves
        its plan-cache partition (bounded to ``plan_cache_slots`` when
        given).  Raises :class:`~repro.errors.ServingError` on a
        duplicate id while the first session is still open.
        """
        if tenant_id in self._sessions:
            raise ServingError(
                f"tenant {tenant_id!r} already has an open session")
        spec = TenantSpec(tenant_id=tenant_id, priority=priority,
                          weight=weight, mram_quota_bytes=mram_quota_bytes,
                          plan_cache_slots=plan_cache_slots)
        session = Session(self, spec)
        self._sessions[tenant_id] = session
        self.scheduler.register(tenant_id, weight)
        if plan_cache_slots is not None:
            self.comm.cache.partition(tenant_id, maxsize=plan_cache_slots)
        self.stats.tenant(tenant_id)
        return session

    def _close_session(self, session: Session) -> None:
        """Tear down a session: fail its queued work, drop its state."""
        tenant_id = session.tenant_id
        for entry in self._queue.evict_tenant(tenant_id):
            if not entry.future.done():
                entry.future.set_exception(SessionClosed(
                    f"session for tenant {tenant_id!r} closed while "
                    f"{entry.describe()} was queued"))
        self.scheduler.forget(tenant_id)
        self._sessions.pop(tenant_id, None)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _submit(self, session: Session,
                request: CommRequest) -> "asyncio.Future[Any]":
        """Admit one request for ``session`` (Session.submit's engine)."""
        spec = session.spec
        tenant_stats = self.stats.tenant(spec.tenant_id)
        stamped = dataclasses.replace(request, tenant=spec.tenant_id)
        # Normalize now: malformed requests fail the submit() call
        # itself, not a batch that innocent tenants share.
        normalized = stamped.normalize(self.comm.manager, self.comm.config,
                                       backend=self.comm.backend)
        footprint = _footprint_bytes(normalized)
        if spec.mram_quota_bytes is not None \
                and footprint > spec.mram_quota_bytes:
            tenant_stats.rejected += 1
            raise QuotaExceeded(
                f"{normalized.describe()} touches {footprint} B of MRAM "
                f"per PE; tenant {spec.tenant_id!r} is capped at "
                f"{spec.mram_quota_bytes} B")
        loop = asyncio.get_running_loop()
        entry = PendingRequest(
            seq=self._seq, tenant_id=spec.tenant_id,
            priority=spec.priority,
            cost=float(plan_payload_bytes_estimate(normalized)),
            request=stamped, normalized=normalized,
            future=loop.create_future(), arrival=self.stats.clock)
        self._seq += 1
        try:
            victim = self._queue.offer(entry)
        except Exception:
            tenant_stats.rejected += 1
            raise
        if victim is not None:
            self.stats.tenant(victim.tenant_id).shed += 1
            if not victim.future.done():
                victim.future.set_exception(RequestShed(
                    f"{victim.describe()} shed for higher-priority "
                    f"arrival {entry.describe()}"))
        tenant_stats.submitted += 1
        self.scheduler.activate(spec.tenant_id)
        if self._wake is not None:
            self._wake.set()
        return entry.future

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process(self, max_batches: int | None = None) -> int:
        """Drain the queue synchronously; returns batches executed.

        Each batch dispatches up to ``batch_limit`` requests chosen by
        the fair-share scheduler and runs them through the engine's
        hazard-wave ``submit()``.  A dispatched request always
        completes (its future resolves or fails with the engine's
        error) -- dispatch is the point of no shedding.
        """
        executed = 0
        while self._queue and (max_batches is None
                               or executed < max_batches):
            self._run_batch()
            executed += 1
        return executed

    async def drain(self) -> None:
        """Async-friendly :meth:`process`: yields between batches."""
        while self._queue:
            self._run_batch()
            await asyncio.sleep(0)

    def _run_batch(self) -> None:
        """Dispatch and execute one scheduler-chosen batch.

        Filling is hazard-aware: a tenant whose oldest request
        conflicts with a request already in the batch is deferred to
        the next batch (its virtual time is untouched, so it goes
        first then).  Conflicts are almost always intra-tenant -- a
        burst reusing its own buffers -- and deferring them keeps every
        batch a single fully-concurrent wave instead of serializing
        inside the engine.
        """
        batch: list[PendingRequest] = []
        footprints: list[Any] = []
        deferred: set[str] = set()
        while len(batch) < self.batch_limit:
            candidates = [t for t in self._queue.pending_tenants()
                          if t not in deferred]
            if not candidates:
                break
            tenant = self.scheduler.pick(candidates)
            head = self._queue.peek(tenant).normalized.footprint()
            if any(head.conflicts_with(fp) for fp in footprints):
                deferred.add(tenant)
                continue
            entry = self._queue.pop(tenant)
            self.scheduler.charge(tenant, entry.cost)
            batch.append(entry)
            footprints.append(head)
        if not batch:
            return
        self.stats.dispatched += len(batch)
        # One admitted before a remap of the cube normalizes again.
        topology = self.comm.manager.topology_signature()
        result = self.comm.submit([
            e.normalized if e.normalized.topology == topology else e.request
            for e in batch])
        self.stats.batches += 1
        self.stats.clock += result.seconds
        # Each member settles from its own future: a failed member
        # fails alone and never re-runs its neighbours.
        for entry, future in zip(batch, result.futures):
            try:
                outcome = future.result()
            except PidCommError as error:
                self._fail(entry, error)
            else:
                self._complete(entry, outcome)

    @staticmethod
    def _fail(entry: PendingRequest, error: PidCommError) -> None:
        if not entry.future.done():
            entry.future.set_exception(error)

    def _complete(self, entry: PendingRequest, result: Any) -> None:
        """Resolve one dispatched request and account its completion."""
        tenant_stats = self.stats.tenant(entry.tenant_id)
        tenant_stats.completed += 1
        tenant_stats.bytes_completed += plan_payload_bytes(result.plan)
        tenant_stats.chunks_scanned += result.chunks_scanned
        tenant_stats.chunks_elided += result.chunks_elided
        tenant_stats.elided_bytes += result.elided_bytes
        tenant_stats.latencies.append(self.stats.clock - entry.arrival)
        self.stats.execution_log.append(entry.tenant_id)
        if not entry.future.done():
            entry.future.set_result(result)

    # ------------------------------------------------------------------
    # Background serving
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background drain task (requires a running loop)."""
        if self._task is not None:
            return
        self._wake = asyncio.Event()
        if self._queue:
            self._wake.set()
        self._task = asyncio.get_running_loop().create_task(self._serve())

    async def stop(self) -> None:
        """Drain remaining work, then stop the background task."""
        if self._task is None:
            return
        await self.drain()
        task, self._task, self._wake = self._task, None, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _serve(self) -> None:
        """Background loop: wait for work, drain it, repeat."""
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            await self.drain()

    async def __aenter__(self) -> "CollectiveServer":
        """``async with server:`` starts the background drain task."""
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Drain and stop on context exit."""
        await self.stop()

    def describe(self) -> str:
        """One-line server summary."""
        workers = self.parallel_workers
        suffix = f", {workers} workers" if workers > 1 else ""
        return (f"CollectiveServer({len(self._sessions)} sessions, "
                f"{self.pending} queued, {self.stats.dispatched} dispatched, "
                f"clock {self.stats.clock * 1e3:.3f} ms{suffix})")


def plan_payload_bytes_estimate(req: NormalizedRequest) -> int:
    """Pre-execution payload-byte estimate (the fair-share cost).

    ``total_data_size`` is the per-PE ask; weighting by group size
    matches what :func:`~repro.engine.stats.plan_payload_bytes` reports
    after execution closely enough for scheduling purposes.
    """
    return req.total_data_size * max(1, req.group_size)
