"""The session-based frontend: :class:`Communicator`.

A :class:`Communicator` binds a hypercube manager to an execution
session: a plan compilation cache, an overlap-aware batch submitter,
and per-call instrumentation.  It is constructed from one frozen
:class:`SessionConfig` value -- the only construction path::

    from repro import Communicator, DimmSystem, HypercubeManager, SessionConfig

    system = DimmSystem.paper_testbed()
    comm = Communicator(HypercubeManager(system, shape=(32, 32)),
                        SessionConfig(backend="vectorized"))
    result = comm.allreduce("10", 8 << 20, src_offset=src, dst_offset=dst,
                            data_type="int64", reduction_type="sum")

Many concurrent callers should not construct sessions at all --
:class:`repro.serving.CollectiveServer` multiplexes tenants onto one
shared session with admission control and fair-share scheduling.

The eight methods are the paper's Figure-10 primitives with
*consistent keyword-only* ``src_offset``/``dst_offset``/``payloads``
arguments (``docs/paper_mapping.md`` maps each C call onto its
method).  Repeated calls with the same shape reuse the compiled plan
-- steady state performs zero re-planning -- and ``submit()`` takes a
whole batch of :class:`CommRequest`\\ s, schedules data-independent
instances into concurrent waves, and prices them with
:meth:`CostLedger.merge_concurrent`.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from ..core.collectives import (
    GATHER_SCRATCH,
    REDUCE_SCRATCH,
    CommPlan,
    CommProgram,
    OptConfig,
    build_plan,
)
from ..core.collectives.planner import _payload_bytes
from ..core.groups import member_pes
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, ReduceOp
from ..errors import (
    CollectiveError,
    FaultBudgetExceeded,
    RankFailure,
    TransientFault,
)
from ..hw.arena import ScratchPool
from ..hw.timing import CostLedger
from ..reliability import RELIABLE
from .cache import DEFAULT_MAXSIZE, PlanCache, bind_payloads
from .parallel import WorkerPool
from .request import CommRequest, NormalizedRequest
from .result import BatchResult, CommFuture, CommResult, reduced_vector
from .scheduler import price_waves, schedule_waves
from .session_config import EXECUTION_MODES, SessionConfig
from .stats import EngineStats

#: A footprint's saved MRAM: one ``(member PEs, offset, lane matrix)``
#: record per span.
_Snapshot = list[tuple[tuple[int, ...], int, np.ndarray]]


class Communicator:
    """Session-oriented collective engine over one hypercube manager.

    Args:
        manager: The virtual hypercube the session communicates over.
        session_config: Frozen :class:`SessionConfig` describing the
            session (optimization config, functional vs. analytic,
            cache bound, reliability, backend, execution mode,
            streaming).  None means the all-defaults config.
    """

    def __init__(self, manager: HypercubeManager,
                 session_config: SessionConfig | None = None) -> None:
        if session_config is None:
            session_config = SessionConfig()
        #: The frozen configuration this session was built from.
        self.session_config = session_config
        self.manager = manager
        self.config = session_config.config
        self.functional = session_config.functional
        self.execution = session_config.execution
        self.stream_tile_bytes = session_config.stream_tile_bytes
        #: Content-aware transfer elision default for compiled replays
        #: (a tuned schedule's ``elide`` knob overrides per decision).
        self.elide_transfers = session_config.elide_transfers
        #: Autotune mode (None / "offline" / "online").
        self.autotune = session_config.autotune
        #: The session's schedule tuner (None unless autotuning).
        #: Imported lazily: ``analysis`` pulls in the application
        #: harness, which imports this module.
        self.tuner = None
        if self.autotune is not None:
            from ..analysis.autotune import ScheduleSpace, Tuner
            self.tuner = Tuner(manager,
                               ScheduleSpace.from_session(session_config),
                               mode=self.autotune)
        # A session that compiles runs on the arena: compiled replay has
        # no per-PE kernels, so the scalar store serves only the
        # interpreted oracle.
        backend = session_config.backend
        if backend is None and self.execution != "interpreted":
            backend = "vectorized"
        #: Session-owned streaming scratch, reused across every call so
        #: steady-state streamed bands allocate nothing (an in-place
        #: op's whole-op band is the one transient array).
        #: An autotuned session may pick a streamed schedule at any
        #: point, so it always owns a pool.
        self._scratch = (ScratchPool()
                         if self.stream_tile_bytes or self.autotune
                         else None)
        #: Session-owned worker pool (None = serial, the default);
        #: runs hazard-independent wave members and streamed row bands
        #: concurrently.  See docs/performance.md "Parallel replay".
        self._pool = (WorkerPool(session_config.parallel_workers)
                      if session_config.parallel_workers > 1 else None)
        if backend is not None:
            manager.system.set_backend(backend)
        self.cache = PlanCache(maxsize=session_config.cache_size)
        self.stats = EngineStats(
            parallel_workers=session_config.parallel_workers)
        reliability_policy = session_config.reliability
        if session_config.fault_injector is not None:
            manager.system.attach_fault_injector(
                session_config.fault_injector)
            if reliability_policy is None:
                reliability_policy = RELIABLE
        self.reliability = reliability_policy
        #: True once a permanent rank failure forced a remap; every
        #: later result reports it ran on the degraded cube.
        self.degraded = False
        #: Backing store of the reliable path's footprint snapshots
        #: (see :meth:`_snapshot`); grows to the largest one seen.
        self._snapshot_buf = np.empty(0, dtype=np.uint8)

    @property
    def backend(self) -> str:
        """The execution backend of the session's system."""
        return self.manager.system.backend

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------
    def _plan_cache_for(self, req: NormalizedRequest):
        """The cache view ``req`` resolves plans through.

        Requests carrying a tenant id (the serving front-end stamps
        one on every admitted request) go through that tenant's
        :meth:`~repro.engine.cache.PlanCache.partition` so one tenant
        cycling through many shapes can never evict another tenant's
        steady-state plans.
        """
        if req.tenant is None:
            return self.cache
        return self.cache.partition(req.tenant)

    def _compile(self, req: NormalizedRequest) -> tuple[CommPlan, bool]:
        """Cached plan for ``req`` (payload-free); returns (plan, hit)."""
        cache = self._plan_cache_for(req)
        plan, hit = cache.fetch(req.plan_key,
                                lambda: self._build_plan(req))
        self.stats.plan_evictions = self.cache.evictions
        if req.tenant is not None:
            self.stats.plan_partitions[req.tenant] = cache.counters()
        return plan, hit

    def _tuned(self, req: NormalizedRequest) -> NormalizedRequest:
        """Resolve ``req``'s execution schedule through the tuner.

        Untuned sessions return the request unchanged.  Tuned sessions
        ask the tuner for a schedule -- a cached decision, a shortlist
        candidate being probed, or a fresh search -- and stamp it (plus
        its rung) on the request.
        """
        if self.tuner is None or req.schedule is not None:
            return req
        schedule = self.tuner.schedule_for(
            req, self._plan_cache_for(req), self.stats,
            plan_for=lambda rung: self._candidate_plan(req, rung),
            program_for=lambda rung: self._candidate_program(req, rung))
        return replace(req, config=schedule.rung, schedule=schedule)

    def _candidate_plan(self, req: NormalizedRequest,
                        rung: OptConfig) -> CommPlan:
        """A candidate rung's (cached) plan, for schedule pricing."""
        sub = replace(req, config=rung, schedule=None)
        plan, _ = self._compile(sub)
        return plan

    def _candidate_program(self, req: NormalizedRequest,
                           rung: OptConfig) -> CommProgram:
        """A candidate rung's (cached) compiled program.

        Goes through the same plan-cache entries the engine replays
        from, so nothing priced during search is compiled twice.
        """
        sub = replace(req, config=rung, schedule=None)
        plan, _ = self._compile(sub)
        return self._program_for(sub, plan)

    def _program_for(self, req: NormalizedRequest,
                     plan: CommPlan) -> CommProgram | None:
        """The compiled program to replay ``req`` with, if any.

        None means interpret: the session asked for it.  A fault
        injector changes nothing here -- the transfer kernels replay
        runs on are fault sites too.
        """
        if self.execution == "interpreted":
            return None

        def build() -> CommProgram:
            start = perf_counter()
            program = plan.compile(self.manager.system)
            self.stats.record_compile(perf_counter() - start)
            return program

        program, _ = self._plan_cache_for(req).fetch_program(req.plan_key,
                                                             build)
        return program

    def _build_plan(self, req: NormalizedRequest) -> CommPlan:
        return build_plan(req.primitive, self.manager, req.dims,
                          req.total_data_size, req.src_offset,
                          req.dst_offset, req.dtype, req.op, req.config)

    def _run(self, req: NormalizedRequest, functional: bool) -> CommResult:
        """Compile (or fetch), execute, post-process, record."""
        if functional and req.primitive in ("scatter", "broadcast") \
                and req.payloads is None:
            raise CollectiveError(
                f"functional {req.primitive} needs payloads")
        if self.reliability is not None:
            return self._run_reliable(req, functional)
        resolved = self._resolve(req)
        result, replay_s = self._execute_resolved(req, resolved, functional)
        self._record_execution(req, result, replay_s)
        return result

    def _resolve(self, req: NormalizedRequest
                 ) -> tuple[CommPlan, CommProgram | None, bool]:
        """Serial phase: cached plan, compiled program and hit flag.

        All plan-cache traffic (LRU reordering, hit counters,
        partition stats) happens here on the submitting thread; the
        parallel wave executor resolves every member *before*
        dispatching, so worker threads never touch the cache and the
        counters are identical at every worker count.
        """
        plan, hit = self._compile(req)
        program = self._program_for(req, plan)
        return plan, program, hit

    def _replay_pool(self) -> ScratchPool | None:
        """The streaming scratch the calling thread must gather through.

        Worker threads (parallel wave members) use their private pool;
        the submitting thread keeps the session-owned one.
        """
        if self._pool is not None and self._pool.in_worker:
            return self._pool.scratch()
        return self._scratch

    def _band_workers(self) -> WorkerPool | None:
        """The pool for band-parallel streamed replay, if applicable.

        None inside a worker thread: a wave member occupying a bounded
        executor slot must not queue band tasks behind itself (its
        bands run inline instead).  None under a fault injector too:
        its RNG is one stateful stream, so bands must draw in order.
        """
        pool = self._pool
        if pool is None or pool.in_worker \
                or self.manager.system.fault_injector is not None:
            return None
        return pool

    def _execute_resolved(self, req: NormalizedRequest,
                          resolved: tuple[CommPlan, CommProgram | None, bool],
                          functional: bool
                          ) -> tuple[CommResult, float | None]:
        """Execute a resolved request; returns (result, replay seconds).

        Touches no session-global mutable state (stats, caches), so
        hazard-independent requests may run this concurrently: plans,
        programs and index tables are shared read-only, scratch comes
        from :meth:`_replay_pool`, and the requests' MRAM write
        footprints are disjoint by wave construction.  ``replay
        seconds`` is None unless a compiled functional replay ran.
        """
        plan, program, hit = resolved
        schedule = req.schedule
        if program is not None:
            tile_bytes = (schedule.tile_bytes if schedule is not None
                          else self.stream_tile_bytes)
            elide = (schedule.elide if schedule is not None
                     else self.elide_transfers)
            replay_s = None
            if functional:
                raw = (_payload_bytes(req.payloads)
                       if req.payloads is not None else None)
                start = perf_counter()
                ledger, ctx = program.replay(self.manager.system,
                                             payloads=raw,
                                             tile_bytes=tile_bytes,
                                             pool=self._replay_pool(),
                                             workers=self._band_workers(),
                                             elide=elide)
                replay_s = perf_counter() - start
            else:
                # Analytic calls never elide: elision is a property of
                # the actual payload content, which analytic pricing
                # never sees (the tuner models it instead).
                ledger, ctx = program.priced(self.manager.system), None
            tiles = 0
            if tile_bytes is not None:
                # The tile plan (and so the pipeline depth) is a pure
                # function of the program's shapes, on both branches.
                tiles = sum(program.tile_counts(tile_bytes))
                ledger = ledger.pipelined(program.pipeline_depth(tile_bytes))
            host_outputs = self._host_outputs(req, ctx)
            return CommResult(plan=plan, ledger=ledger,
                              host_outputs=host_outputs, cached=hit,
                              simd=ctx.simd if ctx is not None else None,
                              wram_tiles=ctx.wram_tiles if ctx is not None
                              else 0,
                              execution=("streamed" if tile_bytes is not None
                                         else "compiled"),
                              tiles=tiles,
                              peak_scratch_bytes=ctx.peak_scratch_bytes
                              if ctx is not None else 0,
                              chunks_scanned=ctx.chunks_scanned
                              if ctx is not None else 0,
                              chunks_elided=ctx.chunks_elided
                              if ctx is not None else 0,
                              elided_bytes=ctx.elided_bytes
                              if ctx is not None else 0,
                              schedule=schedule), replay_s
        bound = bind_payloads(plan, req.payloads if functional else None)
        ledger, ctx = bound.run(self.manager.system, functional=functional)
        host_outputs = self._host_outputs(req, ctx)
        return CommResult(plan=bound, ledger=ledger,
                          host_outputs=host_outputs, cached=hit,
                          simd=ctx.simd if ctx is not None else None,
                          wram_tiles=ctx.wram_tiles if ctx is not None
                          else 0,
                          schedule=schedule), None

    def _record_execution(self, req: NormalizedRequest, result: CommResult,
                          replay_s: float | None, *, backoff_s: float = 0.0,
                          degraded: bool = False) -> None:
        """Serial phase: stats recording, in submission order.

        Kept off the worker threads so float accumulation order (and
        therefore every stats byte) is identical at any worker count.
        ``replay_s`` is the completing attempt's replay; ``backoff_s``
        and ``degraded`` are what the reliability wrapper adds.
        """
        if replay_s is not None:
            self.stats.record_replay(
                replay_s, tiles=result.tiles,
                peak_scratch_bytes=result.peak_scratch_bytes)
        self.stats.record_elision(chunks_scanned=result.chunks_scanned,
                                  chunks_elided=result.chunks_elided,
                                  elided_bytes=result.elided_bytes)
        self.stats.record_call(req.primitive, result.plan, result.ledger,
                               cached=result.cached,
                               attempts=result.attempts,
                               backoff_s=backoff_s, degraded=degraded)
        if self._pool is not None:
            self.stats.worker_bands = self._pool.band_counts()
        if self.tuner is not None and req.schedule is not None \
                and result.attempts == 1:
            # Online feedback: fold the measured replay seconds (None
            # for analytic/interpreted runs) into the tuner's probe or
            # divergence-monitor state for this shape.  A retried call
            # is no clean sample (its ledger spans every attempt, its
            # replay seconds only the last), so it is not observed.
            self.tuner.observe(req, req.schedule, result.ledger.total,
                               replay_s, self._plan_cache_for(req),
                               self.stats)

    def _host_outputs(self, req: NormalizedRequest,
                      ctx) -> dict[int, np.ndarray] | None:
        """Extract rooted-primitive outputs from an execution context."""
        if ctx is None:
            return None
        if req.primitive == "gather":
            outputs = ctx.scratch.get(GATHER_SCRATCH)
            return {inst: buf.view(req.dtype.np_dtype)
                    for inst, buf in outputs.items()}
        if req.primitive == "reduce":
            outputs = ctx.scratch.get(REDUCE_SCRATCH)
            return {inst: reduced_vector(buf, req.dtype)
                    for inst, buf in outputs.items()}
        return None

    # ------------------------------------------------------------------
    # Reliability: snapshot/restore, retry, degradation
    # ------------------------------------------------------------------
    def _snapshot(self, req: NormalizedRequest) -> _Snapshot:
        """Save the MRAM intervals ``req`` writes, on every member PE.

        Spans the request only reads cannot be dirtied by a failed
        attempt (``Footprint.writes`` is complete: the wave scheduler
        rests on the same fact).  One bulk
        :meth:`~repro.hw.system.DimmSystem.peek_rows` per written span,
        below the fault injector, so snapshots are always exact; the
        rows land in one session-owned buffer that grows to the largest
        footprint seen and is reused by the next call -- a fresh
        megabyte per span per call is page-faulted in every time.  At
        most one snapshot is live per session (reliable calls are
        serial), and it dies with the call.
        """
        spans = sorted(set(req.footprint().writes))
        pes = member_pes(self.manager, req.dims)
        system = self.manager.system
        need = len(pes) * sum(nbytes for _, nbytes in spans)
        if self._snapshot_buf.size < need:
            self._snapshot_buf = np.empty(need, dtype=np.uint8)
        snapshot: _Snapshot = []
        start = 0
        for offset, nbytes in spans:
            stop = start + len(pes) * nbytes
            rows = self._snapshot_buf[start:stop].reshape(len(pes), nbytes)
            snapshot.append((pes, offset,
                             system.peek_rows(pes, offset, nbytes, out=rows)))
            start = stop
        return snapshot

    def _restore(self, snapshot: _Snapshot) -> None:
        """Rewind MRAM to a snapshot (also injector-free, always exact)."""
        system = self.manager.system
        for pes, offset, rows in snapshot:
            system.poke_rows(pes, offset, rows)

    def _snapshot_needed(self) -> bool:
        """Whether a pre-attempt footprint snapshot can ever be used.

        A snapshot only pays off if a retry can happen, which requires
        an attached injector with either non-zero transient rates or an
        already-failed rank (degradation also rewinds).  Skipping it
        otherwise removes the dominant per-call overhead of running a
        reliability policy over a healthy system.
        """
        injector = self.manager.system.fault_injector
        if injector is None:
            return False
        return (injector.spec.transient_total > 0.0
                or bool(injector.failed_ranks))

    def _renormalize(self, req: NormalizedRequest) -> NormalizedRequest:
        """Re-resolve a request against the (remapped) current manager."""
        return self._tuned(CommRequest(
            req.primitive, req.dims, req.total_data_size,
            src_offset=req.src_offset, dst_offset=req.dst_offset,
            data_type=req.dtype, reduction_type=req.op,
            payloads=req.payloads, config=req.config,
            tag=req.tag, tenant=req.tenant).normalize(
                self.manager, self.config, backend=self.backend))

    def _run_reliable(self, req: NormalizedRequest,
                      functional: bool) -> CommResult:
        """Retry/rewind wrapper around :meth:`_resolve` ->
        :meth:`_execute_resolved`, the path unreliable calls take.

        The request's footprint is snapshotted once up front (in-place
        primitives permute their source region, so a blind re-execution
        after a mid-program fault would start from corrupted state).
        Every attempt -- compiled, streamed, eliding or interpreted, as
        the session or the tuned schedule says -- prices itself into
        the accumulated ledger; on a transient fault the wrapper
        rewinds, backs off (charged to the ``"retry"`` category), and
        tries again until the policy's attempt cap or fault budget is
        spent.  A permanent rank failure instead remaps the hypercube
        onto the survivors and replans -- the topology signature in the
        cache key keeps degraded plans apart from healthy ones.
        """
        policy = self.reliability.retry
        system = self.manager.system
        total = CostLedger()
        faults: list[str] = []
        backoff_total = 0.0
        degraded_now = False
        attempts = 0
        failures = 0
        snapshot = (self._snapshot(req)
                    if functional and self._snapshot_needed() else None)

        def failed(fault: Exception, resolved) -> None:
            """Book one faulted attempt and rewind (so even a spent
            policy leaves MRAM as the call found it); raise once the
            policy is spent."""
            plan, program, _ = resolved
            total.merge(program.priced(system) if program is not None
                        else plan.estimate(system))
            faults.append(fault.kind)
            self.stats.record_fault(fault.kind)
            if snapshot is not None:
                self._restore(snapshot)
            if isinstance(fault, TransientFault) \
                    and len(faults) > policy.fault_budget:
                raise FaultBudgetExceeded(
                    f"{req.primitive} hit {len(faults)} faults "
                    f"({', '.join(faults)}); budget is "
                    f"{policy.fault_budget}") from fault
            if attempts >= policy.max_attempts:
                raise FaultBudgetExceeded(
                    f"{req.primitive} failed {attempts} attempts "
                    f"(max {policy.max_attempts}); faults: "
                    f"{', '.join(faults)}") from fault

        while True:
            attempts += 1
            resolved = self._resolve(req)
            try:
                result, replay_s = self._execute_resolved(req, resolved,
                                                          functional)
            except TransientFault as fault:
                failed(fault, resolved)
                failures += 1
                delay = policy.backoff(failures)
                backoff_total += delay
                total.add("retry", delay)
                continue
            except RankFailure as fault:
                if not self.reliability.degrade_on_rank_failure:
                    self.stats.record_fault(fault.kind)
                    if snapshot is not None:
                        self._restore(snapshot)
                    raise
                failed(fault, resolved)
                injector = system.fault_injector
                dead = (injector.failed_pes(system.geometry)
                        if injector is not None else fault.pe_ids)
                self.manager = self.manager.without_pes(dead)
                self.degraded = True
                degraded_now = True
                req = self._renormalize(req)
                snapshot = (self._snapshot(req)
                            if functional and self._snapshot_needed()
                            else None)
                continue
            total.merge(result.ledger)
            result = replace(result, ledger=total, attempts=attempts,
                             faults_seen=tuple(faults),
                             degraded=self.degraded)
            self._record_execution(req, result, replay_s,
                                   backoff_s=backoff_total,
                                   degraded=degraded_now)
            return result

    def run(self, request: CommRequest,
            functional: bool | None = None) -> CommResult:
        """Run one request: the single-request entry the eight
        primitive methods delegate to (``functional=None`` = the
        session default)."""
        req = self._tuned(request.normalize(self.manager, self.config,
                                            backend=self.backend))
        return self._run(
            req, self.functional if functional is None else functional)

    # ------------------------------------------------------------------
    # Batched submission
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[CommRequest],
               functional: bool | None = None) -> BatchResult:
        """Run a batch of requests with overlap-aware scheduling.

        Requests are analyzed for buffer hazards and split into
        dependency waves; waves execute in order (functional semantics
        are exactly the serial ones), while data-independent instances
        within a wave are priced concurrently: overlappable phases
        (bus, PE work, launch/sync) take the max across instances,
        host-core phases still sum.  The returned
        :class:`BatchResult` carries one resolved :class:`CommFuture`
        per request plus the batch ledger; its total is <= (and, with
        any independent pair, strictly <) the serial sum.
        """
        if not requests:
            raise CollectiveError("submit() needs at least one request")
        run_functional = (self.functional if functional is None
                          else functional)
        normalized = [self._tuned(r.normalize(self.manager, self.config,
                                              backend=self.backend))
                      for r in requests]
        waves = schedule_waves(normalized)
        futures: list[CommFuture] = [None] * len(normalized)  # type: ignore
        ledgers: list[CostLedger] = [None] * len(normalized)  # type: ignore
        for w, indices in enumerate(waves):
            if self._wave_parallelizable(indices):
                results = self._execute_wave_parallel(
                    normalized, indices, run_functional)
            else:
                if self._pool is not None and len(indices) > 1:
                    self.stats.parallel_fallbacks += 1
                results = [self._run(normalized[i], run_functional)
                           for i in indices]
            for i, result in zip(indices, results):
                ledgers[i] = result.ledger
                futures[i] = CommFuture(index=i,
                                        label=normalized[i].describe(),
                                        wave=w, _result=result)
        wave_costs = price_waves(waves, ledgers)
        batch_ledger = CostLedger()
        serial = CostLedger()
        for cost in wave_costs:
            batch_ledger.merge(cost.ledger)
        for lg in ledgers:
            serial.merge(lg)
        self.stats.record_batch(len(waves), serial.total, batch_ledger.total)
        return BatchResult(futures=futures, ledger=batch_ledger,
                           serial_ledger=serial, waves=waves,
                           wave_costs=wave_costs)

    # ------------------------------------------------------------------
    # Parallel wave execution
    # ------------------------------------------------------------------
    def _wave_parallelizable(self, indices: Sequence[int]) -> bool:
        """Whether a wave's members may execute on the worker pool.

        Requires a pool, more than one member, and no fault machinery:
        the injector's RNG is stateful (concurrent draws would make
        fault schedules nondeterministic) and retry/rewind assumes
        exclusive MRAM access, so such sessions always run serially
        (counted in ``EngineStats.parallel_fallbacks``).
        """
        return (self._pool is not None and len(indices) > 1
                and self.reliability is None
                and self.manager.system.fault_injector is None)

    def _execute_wave_parallel(self, normalized: Sequence[NormalizedRequest],
                               indices: Sequence[int],
                               functional: bool) -> list[CommResult]:
        """Run one hazard-free wave's members across the worker pool.

        Three phases keep every observable bit identical to the serial
        path: (1) *serial resolve* -- payload validation, plan-cache
        lookups and program compilation happen on this thread in
        submission order; (2) *parallel execute* -- members run
        concurrently against pre-materialized PEs, writing provably
        disjoint MRAM footprints (see ``scheduler.assert_wave_safety``
        for the invariant); (3) *serial record* -- stats accumulate in
        submission order, so float sums never depend on completion
        interleaving.
        """
        reqs = [normalized[i] for i in indices]
        resolved = []
        for req in reqs:
            if functional and req.primitive in ("scatter", "broadcast") \
                    and req.payloads is None:
                raise CollectiveError(
                    f"functional {req.primitive} needs payloads")
            resolved.append(self._resolve(req))
        # Touch every member PE now: concurrent execution must never
        # trigger an arena growth or a lazy per-PE materialization.
        system = self.manager.system
        for req in reqs:
            system.materialize(member_pes(self.manager, req.dims))

        def member_task(req: NormalizedRequest, res):
            def run() -> tuple[CommResult, float | None, float]:
                start = perf_counter()
                result, replay_s = self._execute_resolved(req, res,
                                                          functional)
                return result, replay_s, perf_counter() - start
            return run

        start = perf_counter()
        outs = self._pool.run([member_task(req, res)
                               for req, res in zip(reqs, resolved)])
        wall = perf_counter() - start
        results = []
        task_seconds = 0.0
        for req, (result, replay_s, seconds) in zip(reqs, outs):
            self._record_execution(req, result, replay_s)
            task_seconds += seconds
            results.append(result)
        self.stats.record_parallel_wave(len(reqs), wall, task_seconds)
        return results

    # ------------------------------------------------------------------
    # The eight primitives (Figure 10, keyword-only buffer arguments)
    # ------------------------------------------------------------------
    def alltoall(self, comm_dimensions: str | Sequence[int],
                 total_data_size: int, *, src_offset: int = 0,
                 dst_offset: int = 0, data_type: DataType | str = "int64",
                 config: OptConfig | None = None,
                 functional: bool | None = None) -> CommResult:
        """AlltoAll across the cube slices selected by ``comm_dimensions``."""
        return self.run(CommRequest(
            "alltoall", comm_dimensions, total_data_size,
            src_offset=src_offset, dst_offset=dst_offset,
            data_type=data_type, config=config), functional)

    def allgather(self, comm_dimensions: str | Sequence[int],
                  total_data_size: int, *, src_offset: int = 0,
                  dst_offset: int = 0, data_type: DataType | str = "int64",
                  config: OptConfig | None = None,
                  functional: bool | None = None) -> CommResult:
        """AllGather: every group member ends with all members' chunks."""
        return self.run(CommRequest(
            "allgather", comm_dimensions, total_data_size,
            src_offset=src_offset, dst_offset=dst_offset,
            data_type=data_type, config=config), functional)

    def reduce_scatter(self, comm_dimensions: str | Sequence[int],
                       total_data_size: int, *, src_offset: int = 0,
                       dst_offset: int = 0,
                       data_type: DataType | str = "int64",
                       reduction_type: ReduceOp | str = "sum",
                       config: OptConfig | None = None,
                       functional: bool | None = None) -> CommResult:
        """ReduceScatter (consumes the source buffer, like the PIM kernel)."""
        return self.run(CommRequest(
            "reduce_scatter", comm_dimensions, total_data_size,
            src_offset=src_offset, dst_offset=dst_offset,
            data_type=data_type, reduction_type=reduction_type,
            config=config), functional)

    def allreduce(self, comm_dimensions: str | Sequence[int],
                  total_data_size: int, *, src_offset: int = 0,
                  dst_offset: int = 0, data_type: DataType | str = "int64",
                  reduction_type: ReduceOp | str = "sum",
                  config: OptConfig | None = None,
                  functional: bool | None = None) -> CommResult:
        """AllReduce as a fused ReduceScatter + AllGather."""
        return self.run(CommRequest(
            "allreduce", comm_dimensions, total_data_size,
            src_offset=src_offset, dst_offset=dst_offset,
            data_type=data_type, reduction_type=reduction_type,
            config=config), functional)

    def scatter(self, comm_dimensions: str | Sequence[int],
                total_data_size: int, *, dst_offset: int = 0,
                data_type: DataType | str = "int64",
                payloads: Mapping[int, np.ndarray] | None = None,
                config: OptConfig | None = None,
                functional: bool | None = None) -> CommResult:
        """Scatter host chunks to the PEs."""
        return self.run(CommRequest(
            "scatter", comm_dimensions, total_data_size,
            dst_offset=dst_offset, data_type=data_type, payloads=payloads,
            config=config), functional)

    def gather(self, comm_dimensions: str | Sequence[int],
               total_data_size: int, *, src_offset: int = 0,
               data_type: DataType | str = "int64",
               config: OptConfig | None = None,
               functional: bool | None = None) -> CommResult:
        """Gather to the host; results in ``result.host_outputs``."""
        return self.run(CommRequest(
            "gather", comm_dimensions, total_data_size,
            src_offset=src_offset, data_type=data_type, config=config),
            functional)

    def reduce(self, comm_dimensions: str | Sequence[int],
               total_data_size: int, *, src_offset: int = 0,
               data_type: DataType | str = "int64",
               reduction_type: ReduceOp | str = "sum",
               config: OptConfig | None = None,
               functional: bool | None = None) -> CommResult:
        """Reduce to the host; results in ``result.host_outputs``."""
        return self.run(CommRequest(
            "reduce", comm_dimensions, total_data_size,
            src_offset=src_offset, data_type=data_type,
            reduction_type=reduction_type, config=config), functional)

    def broadcast(self, comm_dimensions: str | Sequence[int],
                  total_data_size: int, *, dst_offset: int = 0,
                  data_type: DataType | str = "int64",
                  payloads: Mapping[int, np.ndarray] | None = None,
                  config: OptConfig | None = None,
                  functional: bool | None = None) -> CommResult:
        """Broadcast per-instance host buffers to every member PE."""
        return self.run(CommRequest(
            "broadcast", comm_dimensions, total_data_size,
            dst_offset=dst_offset, data_type=data_type, payloads=payloads,
            config=config), functional)

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the instrumentation counters (cache contents persist)."""
        self.stats = EngineStats(
            parallel_workers=self.session_config.parallel_workers)

    @property
    def parallel_workers(self) -> int:
        """Configured worker count (1 = serial execution)."""
        return self.session_config.parallel_workers

    def close(self) -> None:
        """Join the session's worker threads, if any (idempotent).

        Optional: an unclosed pool's daemon-less threads are joined at
        interpreter shutdown anyway, but explicit close makes teardown
        deterministic in tests and long-lived services.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None  # later calls run serially

    def describe(self) -> str:
        """One-line session summary."""
        workers = self.session_config.parallel_workers
        suffix = f", {workers} workers" if workers > 1 else ""
        return (f"Communicator({self.manager.shape} cube, "
                f"config {self.config.label}, {len(self.cache)} cached "
                f"plans, {self.stats.calls} calls{suffix})")
