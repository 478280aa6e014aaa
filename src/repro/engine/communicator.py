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
from ..core.groups import member_pes
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, ReduceOp
from ..errors import (
    CollectiveError,
    FaultBudgetExceeded,
    PidCommError,
    RankFailure,
    TransientFault,
)
from ..hw.arena import Region, ScratchPool
from ..hw.timing import CostLedger
from ..reliability import RELIABLE
from .cache import DEFAULT_MAXSIZE, PlanCache
from .parallel import WorkerPool
from .request import CommRequest, NormalizedRequest
from .result import BatchResult, CommFuture, CommResult, reduced_vector
from .scheduler import price_waves, schedule_waves
from .session_config import EXECUTION_MODES, SessionConfig
from .stats import EngineStats

#: A footprint's saved MRAM: one ``(region, lane matrix)`` per span.
_Snapshot = list[tuple[Region, np.ndarray]]


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
        #: Content-aware transfer elision for compiled replays.
        self.elide_transfers = session_config.elide_transfers
        # A session that compiles runs on the arena: compiled replay has
        # no per-PE kernels, so the scalar store serves only the
        # interpreted oracle.
        backend = session_config.backend
        if backend is None and self.execution != "interpreted":
            backend = "vectorized"
        #: Session-owned streaming scratch, reused across every call so
        #: steady-state streamed bands allocate nothing (an in-place
        #: op's whole-op band is the one transient array).
        self._scratch = ScratchPool() if self.stream_tile_bytes else None
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
        """Cached plan for ``req``; returns (plan, hit)."""
        cache = self._plan_cache_for(req)
        plan, hit = cache.fetch(req.plan_key,
                                lambda: self._build_plan(req))
        self.stats.plan_evictions = self.cache.evictions
        if req.tenant is not None:
            self.stats.plan_partitions[req.tenant] = cache.counters()
        return plan, hit

    def _program_for(self, req: NormalizedRequest,
                     plan: CommPlan) -> CommProgram | None:
        """The compiled program to replay ``req`` with, if any.

        None means interpret: the session asked for it.  A fault
        injector changes nothing here -- every compiled op draws the
        faults of its modelled transfers too.
        """
        if self.execution == "interpreted":
            return None

        def build() -> CommProgram:
            start = perf_counter()
            program = plan.compile()
            self.stats.record_compile(perf_counter() - start)
            return program

        program, _ = self._plan_cache_for(req).fetch_program(req.plan_key,
                                                             build)
        return program

    def _build_plan(self, req: NormalizedRequest) -> CommPlan:
        return build_plan(req.primitive, self.manager, req.dims,
                          req.total_data_size, req.src_offset,
                          req.dst_offset, req.dtype, req.op, req.config)

    @staticmethod
    def _check_payloads(req: NormalizedRequest, functional: bool) -> None:
        """A functional scatter or broadcast needs host payloads."""
        if functional and req.primitive in ("scatter", "broadcast") \
                and req.payloads is None:
            raise CollectiveError(
                f"functional {req.primitive} needs payloads")

    def _run(self, req: NormalizedRequest, functional: bool) -> CommResult:
        """Compile (or fetch), execute, post-process, record."""
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
        bands run inline instead).  A fault injector changes nothing:
        each op draws its faults before its bands move.
        """
        pool = self._pool
        if pool is None or pool.in_worker:
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
        self._check_payloads(req, functional)
        plan, program, hit = resolved
        system = self.manager.system
        tile_bytes = self.stream_tile_bytes if program is not None else None
        replay_s = None
        if program is None:
            ledger, ctx = plan.run(system, functional, req.payloads)
        elif functional:
            start = perf_counter()
            ledger, ctx = program.replay(system, req.payloads,
                                         tile_bytes=tile_bytes,
                                         pool=self._replay_pool(),
                                         workers=self._band_workers(),
                                         elide=self.elide_transfers)
            replay_s = perf_counter() - start
        else:
            # Analytic calls never elide: elision is a property of the
            # actual payload content, which analytic pricing never sees.
            ledger, ctx = program.priced(system), None
        tiles = 0
        if tile_bytes is not None:
            # The tile plan (and so the pipeline depth) is a pure
            # function of the program's shapes, on both branches.
            tiles = sum(program.tile_counts(tile_bytes))
            ledger = ledger.pipelined(program.pipeline_depth(tile_bytes))
        execution = ("interpreted" if program is None
                     else "streamed" if tile_bytes is not None
                     else "compiled")
        return CommResult(plan=plan, ledger=ledger,
                          host_outputs=self._host_outputs(req, ctx),
                          cached=hit, tiles=tiles, execution=execution,
                          **_counters(ctx)), replay_s

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
        pes = member_pes(self.manager, req.dims)
        regions = [Region(pes, offset, nbytes)
                   for offset, nbytes in sorted(set(req.footprint().writes))]
        need = sum(region.total_bytes for region in regions)
        if self._snapshot_buf.size < need:
            self._snapshot_buf = np.empty(need, dtype=np.uint8)
        snapshot: _Snapshot = []
        start = 0
        for region in regions:
            rows = self._snapshot_buf[start:start + region.total_bytes]
            snapshot.append((region, self.manager.system.peek_rows(
                pes, region.offset, region.nbytes,
                out=rows.reshape(len(pes), region.nbytes))))
            start += region.total_bytes
        return snapshot

    def _restore(self, snapshot: _Snapshot) -> None:
        """Rewind MRAM to a snapshot (also injector-free, always exact)."""
        system = self.manager.system
        for region, rows in snapshot:
            system.poke_rows(region.rows, region.offset, rows)

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
        return CommRequest(
            req.primitive, req.dims, req.total_data_size,
            src_offset=req.src_offset, dst_offset=req.dst_offset,
            data_type=req.dtype, reduction_type=req.op,
            payloads=req.payloads, config=req.config,
            tag=req.tag, tenant=req.tenant).normalize(
                self.manager, self.config, backend=self.backend)

    def _run_reliable(self, req: NormalizedRequest,
                      functional: bool) -> CommResult:
        """Retry/rewind wrapper around :meth:`_resolve` ->
        :meth:`_execute_resolved`, the path unreliable calls take.

        The request's footprint is snapshotted once up front (in-place
        primitives permute their source region, so a blind re-execution
        after a mid-program fault would start from corrupted state).
        Every attempt -- compiled, streamed, eliding or interpreted, as
        the session says -- prices itself into
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

        def failed(fault: Exception, plan: CommPlan) -> None:
            """Book one faulted attempt and rewind (so even a spent
            policy leaves MRAM as the call found it); raise once the
            policy is spent."""
            total.merge(plan.estimate(system))
            faults.append(fault.kind)
            self.stats.record_fault(fault.kind)
            if snapshot is not None:
                self._restore(snapshot)
            if isinstance(fault, TransientFault) \
                    and len(faults) > policy.fault_budget:
                raise FaultBudgetExceeded(
                    f"{req.primitive} hit {len(faults)} faults "
                    f"({', '.join(faults)}); budget is "
                    f"{policy.fault_budget}", total) from fault
            if attempts >= policy.max_attempts:
                raise FaultBudgetExceeded(
                    f"{req.primitive} failed {attempts} attempts "
                    f"(max {policy.max_attempts}); faults: "
                    f"{', '.join(faults)}", total) from fault

        while True:
            attempts += 1
            resolved = self._resolve(req)
            try:
                result, replay_s = self._execute_resolved(req, resolved,
                                                          functional)
            except TransientFault as fault:
                failed(fault, resolved[0])
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
                failed(fault, resolved[0])
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
        req = request.normalize(self.manager, self.config,
                                backend=self.backend)
        functional = self.functional if functional is None else functional
        return self._run(req, functional)

    # ------------------------------------------------------------------
    # Batched submission
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[CommRequest | NormalizedRequest],
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

        Each member has its own outcome.  A member that raises
        :class:`~repro.errors.PidCommError` stores the error in its
        future (``result()`` re-raises it).  A member that spent its
        retry policy (:class:`~repro.errors.FaultBudgetExceeded`)
        prices its failed attempts into both ledgers, from the error's
        ``ledger``; any other failed member adds nothing.  On a
        reliable session its footprint has already been rewound.
        Later members still run, and no member
        ever runs twice.  A member that does not normalize fails the
        same way before the batch runs: it joins no wave and prices
        nothing.  An already normalized member (serving admits them so)
        runs as it is.  Only an empty batch raises here.
        """
        if not requests:
            raise CollectiveError("submit() needs at least one request")
        run_functional = (self.functional if functional is None
                          else functional)
        normalized = [r if isinstance(r, NormalizedRequest)
                      else _caught(r.normalize, self.manager, self.config,
                                   self.backend) for r in requests]
        futures: list[CommFuture] = [None] * len(normalized)  # type: ignore
        ledgers = [CostLedger() for _ in normalized]
        good = []
        for i, req in enumerate(normalized):
            if isinstance(req, PidCommError):
                futures[i] = CommFuture(index=i, label=requests[i].primitive,
                                        wave=-1, _error=req)
            else:
                good.append(i)
        waves = [[good[j] for j in wave]
                 for wave in schedule_waves([normalized[i] for i in good])]
        for w, indices in enumerate(waves):
            if self._wave_parallelizable(indices):
                outcomes = self._execute_wave_parallel(
                    normalized, indices, run_functional)
            else:
                if self._pool is not None and len(indices) > 1:
                    self.stats.parallel_fallbacks += 1
                outcomes = [_caught(self._run, normalized[i], run_functional)
                            for i in indices]
            for i, outcome in zip(indices, outcomes):
                failed = isinstance(outcome, PidCommError)
                ledgers[i] = getattr(outcome, "ledger", None) or CostLedger()
                futures[i] = CommFuture(
                    index=i, label=normalized[i].describe(), wave=w,
                    _result=None if failed else outcome,
                    _error=outcome if failed else None)
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
                               functional: bool
                               ) -> list[CommResult | PidCommError]:
        """Run one hazard-free wave's members across the worker pool.

        Three phases keep every observable bit identical to the serial
        path: (1) *serial resolve* -- plan-cache lookups and program
        compilation happen on this thread in submission order; (2)
        *parallel execute* -- members run concurrently against
        pre-materialized PEs, writing provably disjoint MRAM footprints
        (see ``scheduler.assert_wave_safety`` for the invariant); (3)
        *serial record* -- stats accumulate in submission order, so
        float sums never depend on completion interleaving.  A member
        that raises :class:`~repro.errors.PidCommError` returns the
        error in its slot.
        """
        reqs = [normalized[i] for i in indices]
        resolved = [_caught(self._resolve, req) for req in reqs]
        # Touch every member PE now: concurrent execution must never
        # trigger an arena growth or a lazy per-PE materialization.
        system = self.manager.system
        for req in reqs:
            system.materialize(member_pes(self.manager, req.dims))

        def member_task(req: NormalizedRequest, res):
            def run() -> tuple[CommResult | PidCommError, float | None,
                               float]:
                start = perf_counter()
                try:
                    if isinstance(res, PidCommError):
                        raise res
                    result, replay_s = self._execute_resolved(req, res,
                                                              functional)
                except PidCommError as error:
                    result, replay_s = error, None
                return result, replay_s, perf_counter() - start
            return run

        start = perf_counter()
        outs = self._pool.run([member_task(req, res)
                               for req, res in zip(reqs, resolved)])
        wall = perf_counter() - start
        results = []
        task_seconds = 0.0
        for req, (result, replay_s, seconds) in zip(reqs, outs):
            if not isinstance(result, PidCommError):
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


def _counters(ctx) -> dict:
    """A functional run's :class:`CommResult` counters ({} if analytic)."""
    if ctx is None:
        return {}
    return dict(simd=ctx.simd, wram_tiles=ctx.wram_tiles,
                peak_scratch_bytes=ctx.peak_scratch_bytes,
                chunks_scanned=ctx.chunks_scanned,
                chunks_elided=ctx.chunks_elided,
                elided_bytes=ctx.elided_bytes)


def _caught(call, *args):
    """``call(*args)``, or the :class:`~repro.errors.PidCommError` it
    raised: one batch member's own outcome."""
    try:
        return call(*args)
    except PidCommError as error:
        return error
