"""Tests for the Schedule object and the schedule-space autotuner.

Covers the tentpole end to end: Schedule construction/transform
validation, the tuner's search (offline argmin, online
probe/commit/monitor/retune), decision caching inside the PlanCache,
SessionConfig wiring (including the serving front-end), and -- the
non-negotiable -- bit-parity of every tuned schedule against the
scalar interpreted oracle across all eight primitives and both pinned
backends.
"""

import itertools

import numpy as np
import pytest

from .helpers import make_manager
from .test_differential_fuzz import PRIMITIVES, run_case

from repro import (
    ABLATION_LADDER,
    BASELINE,
    CollectiveServer,
    CommRequest,
    Communicator,
    FaultInjector,
    FULL,
    Schedule,
    SessionConfig,
)
from repro.analysis.autotune import (
    AUTOTUNE_MODES,
    MIN_TILE_BYTES,
    ScheduleSpace,
    Tuner,
    tile_candidates,
)
from repro.dtypes import INT64
from repro.engine.stats import EngineStats
from repro.errors import CollectiveError, PidCommError


# ----------------------------------------------------------------------
# Schedule: validation and transforms
# ----------------------------------------------------------------------
class TestScheduleValidation:
    def test_default_is_naive(self):
        s = Schedule.default()
        assert s.tile_bytes is None
        assert not s.elide
        assert s.rung is FULL

    # Backend and execution mode (like band fan-out) belong to the
    # session a schedule runs on; a schedule cannot name them at all.
    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            Schedule(backend="vectorized")

    def test_unknown_execution_rejected(self):
        with pytest.raises(TypeError, match="execution"):
            Schedule(execution="compiled")

    def test_nonpositive_tile_rejected(self):
        with pytest.raises(CollectiveError, match="tile_bytes"):
            Schedule(tile_bytes=0)

    # Axes the tuner never decides are not fields: fusion depth (the
    # compiler fuses greedily) and the multihost global algorithm
    # (MultiHostResult.global_algorithm reports it).
    def test_undecided_axes_are_not_fields(self):
        with pytest.raises(TypeError, match="fusion_depth"):
            Schedule(fusion_depth=1)
        with pytest.raises(TypeError, match="global_algorithm"):
            Schedule(global_algorithm="ring")

    def test_rung_must_be_optconfig(self):
        with pytest.raises(CollectiveError, match="rung"):
            Schedule(rung="FULL")

    def test_transforms_compose(self):
        s = (Schedule.default().with_tile(1 << 20).with_elide()
             .with_rung(BASELINE))
        assert s.signature == (1 << 20, True, "Baseline")
        assert s.untiled().tile_bytes is None

    def test_transforms_never_mutate(self):
        s = Schedule.default()
        s.with_tile(4096)
        assert s.tile_bytes is None

    def test_describe_names_every_knob(self):
        text = Schedule(tile_bytes=8 << 20, elide=True).describe()
        assert "8388608" in text
        assert "elide" in text and "+CM" in text
        # ... and nothing the session owns.
        for word in ("scalar", "vectorized", "compiled", "interpreted",
                     "bands"):
            assert word not in text


# ----------------------------------------------------------------------
# SessionConfig / serving wiring
# ----------------------------------------------------------------------
class TestAutotuneConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(CollectiveError, match="autotune"):
            SessionConfig(autotune="sometimes")

    def test_injector_composes_with_autotune(self):
        # Tuned schedules replay under the same retry/rewind wrapper as
        # every other call, so the combination is just a session.
        injector = FaultInjector(seed=1, timeout_rate=0.3)
        comm = Communicator(make_manager((4, 8)), SessionConfig(
            autotune="offline", fault_injector=injector))
        results = [comm.alltoall("11", 256, src_offset=0, dst_offset=4096)
                   for _ in range(6)]
        assert all(r.schedule is not None for r in results)
        assert comm.stats.retries > 0

    def test_modes_accepted(self):
        for mode in AUTOTUNE_MODES:
            assert SessionConfig(autotune=mode).autotune == mode
        assert SessionConfig().autotune is None

    def test_untuned_session_has_no_tuner(self):
        comm = Communicator(make_manager((4, 8)), SessionConfig())
        assert comm.tuner is None

    def test_server_exposes_autotune_mode(self):
        server = CollectiveServer(
            make_manager((8, 4)),
            SessionConfig(functional=False, autotune="offline"))
        assert server.autotune == "offline"
        assert server.comm.tuner is not None

    def test_served_requests_are_tuned(self):
        import asyncio

        async def scenario():
            server = CollectiveServer(
                make_manager((8, 4)),
                SessionConfig(functional=False, autotune="offline"))
            session = server.session("tenant-a")
            futures = [session.submit(CommRequest("alltoall", "10", 256,
                                                  dst_offset=8192))
                       for _ in range(3)]
            await server.drain()
            for future in futures:
                assert (await future).schedule is not None
            assert server.comm.stats.tuner_searches == 1
            assert server.comm.stats.tuner_cache_hits == 2

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The tuner: search, caching, probing, re-tuning
# ----------------------------------------------------------------------
def _tuned_comm(mode, shape=(4, 8), **session):
    manager = make_manager(shape, mram_bytes=1 << 20)
    return Communicator(manager, SessionConfig(autotune=mode, **session))


def _drive(comm, calls=1, size=4096, functional=True):
    system = comm.manager.system
    src, dst = 0, 1 << 18
    if functional:
        data = np.arange(size, dtype=np.uint8) % 97
        for pe in range(system.geometry.num_pes):
            system.memory(pe).write(src, data)
    last = None
    for _ in range(calls):
        last = comm.alltoall("11", size, src_offset=src, dst_offset=dst,
                             functional=functional)
    return last


class TestTunerSearch:
    def test_offline_commits_on_first_call(self):
        comm = _tuned_comm("offline")
        result = _drive(comm, calls=3)
        assert result.schedule is not None
        assert comm.stats.tuner_searches == 1
        assert comm.stats.tuner_cache_hits == 2
        assert comm.cache.schedules == 1

    def test_decision_is_model_argmin(self):
        comm = _tuned_comm("offline")
        result = _drive(comm)
        schedule = result.schedule
        tuner = comm.tuner
        req = CommRequest("alltoall", "11", 4096, dst_offset=1 << 18) \
            .normalize(comm.manager, comm.config, backend=comm.backend)
        scores = tuner.enumerate_schedules(
            lambda rung: comm._candidate_plan(req, rung),
            lambda rung: comm._candidate_program(req, rung))
        assert schedule.signature == scores[0].schedule.signature
        seconds = [s.seconds for s in scores]
        assert seconds == sorted(seconds)

    def test_pinned_knobs_collapse_the_space(self):
        # An interpreting session has no programs: only the rung is
        # left to tune, and the session still runs what it pinned.
        space = ScheduleSpace.from_session(SessionConfig(
            autotune="offline", backend="scalar",
            execution="interpreted"))
        assert not space.streaming
        comm = _tuned_comm("offline", backend="scalar",
                           execution="interpreted")
        result = _drive(comm)
        assert comm.backend == "scalar"
        assert result.schedule.tile_bytes is None
        assert not result.schedule.elide
        assert result.execution == "interpreted"
        assert len(comm.cache) == len(ABLATION_LADDER)  # every rung priced
        assert comm.stats.programs_compiled == 0        # none compiled

    @pytest.mark.parametrize("backend", ["vectorized", None])
    def test_session_owns_the_backend(self, backend):
        # A pinned backend is kept; an open one is settled once, at
        # construction, on the vectorized backend (a tuned session
        # compiles, and compiled replay runs on the arena only).
        comm = _tuned_comm("offline", backend=backend)
        assert comm.backend == (backend or "vectorized")
        result = _drive(comm)
        assert comm.backend == (backend or "vectorized")
        assert result.execution in ("compiled", "streamed")

    def test_pinned_tile_is_honored(self):
        comm = _tuned_comm("offline", stream_tile_bytes=8192)
        result = _drive(comm)
        assert result.schedule.tile_bytes == 8192
        assert result.execution == "streamed"

    def test_distinct_shapes_search_separately(self):
        comm = _tuned_comm("offline")
        _drive(comm, size=4096)
        _drive(comm, size=8192)
        assert comm.stats.tuner_searches == 2
        assert comm.cache.schedules == 2

    def test_tuned_results_report_rung_of_schedule(self):
        comm = _tuned_comm("offline")
        result = _drive(comm)
        assert result.plan.meta.get("config") \
            == result.schedule.rung.label

    def test_analytic_sessions_tune_too(self):
        comm = _tuned_comm("offline", functional=False)
        result = _drive(comm, calls=4, functional=False)
        assert result.schedule is not None
        assert comm.stats.tuner_searches == 1


class TestTunerOnline:
    @pytest.fixture(autouse=True)
    def steady_clock(self, monkeypatch):
        """Replay seconds from a fixed-step counter instead of the host.

        Online probing commits on measured replay time and the monitor
        re-tunes on its drift, so on a loaded machine these tests read
        host noise (a second search, a spurious re-tune).  Every replay
        here takes exactly one tick; the re-tune signal itself is
        unchanged (ROADMAP item 0).
        """
        ticks = itertools.count()
        monkeypatch.setattr("repro.engine.communicator.perf_counter",
                            lambda: next(ticks) * 1e-4)

    def test_probe_then_commit(self):
        comm = _tuned_comm("online")
        _drive(comm, calls=40, size=1 << 16)
        stats = comm.stats
        assert stats.tuner_searches == 1
        assert stats.tuner_observations > 0
        assert comm.cache.schedules == 1  # probing converged
        assert stats.tuner_cache_hits > 0

    def test_analytic_online_stalls_to_model_choice(self):
        # Analytic traffic never reports replay seconds; the probe
        # must stall out and commit the modelled best instead of
        # handing out probe candidates forever.
        comm = _tuned_comm("online", functional=False)
        _drive(comm, calls=60, size=1 << 16, functional=False)
        assert comm.cache.schedules == 1
        assert comm.stats.tuner_observations == 0

    def test_divergence_triggers_retune(self):
        comm = _tuned_comm("online")
        _drive(comm, calls=40, size=1 << 16)
        assert comm.cache.schedules == 1
        tuner = comm.tuner
        req = CommRequest("alltoall", "11", 1 << 16, dst_offset=1 << 18) \
            .normalize(comm.manager, comm.config, backend=comm.backend)
        schedule = comm.cache.fetch_schedule(req.schedule_key)
        assert schedule is not None
        # Feed grossly slower-than-modelled observations by hand: the
        # EWMA must cross the retune threshold and invalidate the
        # decision.
        retuned = False
        for _ in range(50):
            retuned = tuner.observe(req, schedule, modelled_s=1e-3,
                                    observed_s=10.0, cache=comm.cache,
                                    stats=comm.stats)
            if retuned:
                break
        assert retuned
        assert comm.stats.tuner_retunes == 1
        assert comm.cache.fetch_schedule(req.schedule_key) is None
        # The session recovers: the next call re-searches and commits.
        _drive(comm, calls=40, size=1 << 16)
        assert comm.stats.tuner_searches == 2

    def test_offline_never_observes(self):
        comm = _tuned_comm("offline")
        _drive(comm, calls=10, size=1 << 16)
        assert comm.stats.tuner_observations == 0
        assert comm.stats.tuner_probes == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(PidCommError, match="autotune"):
            Tuner(make_manager((4, 8)), mode="midline")


class TestDecisionCache:
    def test_eviction_forces_research_not_misbehavior(self):
        # A decision dropped by the (tiny) cache bound re-searches on
        # the next call -- correctness never depends on the cache.
        comm = _tuned_comm("offline", cache_size=2)
        _drive(comm, size=2048)
        _drive(comm, size=4096)
        _drive(comm, size=8192)  # evicts the first decision
        assert comm.cache.schedules <= 2
        result = _drive(comm, size=2048)
        assert result.schedule is not None
        assert comm.stats.tuner_searches == 4

    def test_clear_drops_decisions(self):
        comm = _tuned_comm("offline")
        _drive(comm)
        assert comm.cache.schedules == 1
        comm.cache.clear()
        assert comm.cache.schedules == 0

    def test_schedule_key_excludes_tuner_outputs(self):
        manager = make_manager((4, 8))
        req = CommRequest("alltoall", "11", 4096).normalize(manager, FULL)
        key_full = req.schedule_key
        req.config = BASELINE
        req.backend = "vectorized"
        assert req.schedule_key == key_full  # neither is a tuning input
        req.src_offset = 64
        assert req.schedule_key != key_full  # offsets are inputs

    def test_schedules_share_the_plan_key(self):
        # A compiled program depends on its plan alone, so every
        # schedule of a rung replays the one program cached under the
        # untuned request's key.  Schedules are stamped the way the
        # tuner does it, through dataclasses.replace.
        from dataclasses import replace
        manager = make_manager((4, 8))
        req = CommRequest("allreduce", "11", 512).normalize(manager, FULL)
        for schedule in (Schedule(), Schedule(tile_bytes=4096, elide=True)):
            assert replace(req, schedule=schedule).plan_key == req.plan_key


# ----------------------------------------------------------------------
# Tile candidates
# ----------------------------------------------------------------------
class TestTileCandidates:
    def _plan(self, size=1 << 16):
        manager = make_manager((4, 8), mram_bytes=1 << 20)
        from repro.core.collectives import plan_alltoall
        return plan_alltoall(manager, (0, 1), size, 0, 1 << 18, INT64,
                             FULL)

    def test_untiled_always_candidate(self):
        assert None in tile_candidates(self._plan(), ScheduleSpace())

    def test_tiles_respect_floor(self):
        tiles = tile_candidates(self._plan(), ScheduleSpace())
        assert all(t >= MIN_TILE_BYTES for t in tiles if t is not None)

    def test_pinned_tile_collapses_axis(self):
        space = ScheduleSpace(tile_bytes=12345)
        assert tile_candidates(self._plan(), space) == (12345,)

    def test_no_streaming_means_untiled_only(self):
        space = ScheduleSpace(streaming=False)
        assert tile_candidates(self._plan(), space) == (None,)

    def test_tiny_payload_offers_no_tiles(self):
        # 256 B/PE x 32 PEs = 8 KiB footprint: every fraction falls
        # below the tile floor, so only the untiled candidate remains.
        assert tile_candidates(self._plan(size=256),
                               ScheduleSpace()) == (None,)


# ----------------------------------------------------------------------
# Parity: the non-negotiable
# ----------------------------------------------------------------------
class TestTunedParity:
    """Every tuned schedule replays bit-identical to the oracle.

    ``run_case`` checks the engine's functional output bit-exactly
    against the golden reference (``core/reference.py``) -- the same
    oracle the scalar interpreted path is verified against -- for all
    eight primitives, with the backend pinned to the arena or left open
    (a compiling session derives it).
    """

    @pytest.mark.parametrize("backend", ["vectorized", None],
                             ids=["vectorized", "open"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_tuned_matches_oracle(self, primitive, backend):
        rng = np.random.default_rng(17)
        result = run_case(rng, primitive, (4, 8), INT64, 2, FULL,
                          backend=backend, autotune="offline")
        assert result.schedule is not None
        assert result.execution in ("compiled", "streamed")

    def test_tuned_interpreted_matches_oracle(self):
        rng = np.random.default_rng(23)
        for primitive in PRIMITIVES:
            result = run_case(rng, primitive, (2, 4, 4), INT64, 3, FULL,
                              execution="interpreted", autotune="offline")
            assert result.schedule is not None
            assert result.execution == "interpreted"


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRenderAutotune:
    """The tuner's block of ``EngineStats.report()``."""

    def test_idle_tuner(self):
        assert "autotuner:" not in EngineStats().report()

    def test_counters_rendered(self):
        comm = _tuned_comm("online")
        _drive(comm, calls=20, size=1 << 16)
        text = comm.stats.report()
        assert "searches        1" in text
        assert "probes" in text and "re-tunes" in text
        assert comm.stats.snapshot()["tuner_probes"] > 0

    def test_snapshot_carries_tuner_counters(self):
        comm = _tuned_comm("offline")
        _drive(comm, calls=2)
        snap = comm.stats.snapshot()
        assert snap["tuner_searches"] == 1
        assert snap["tuner_cache_hits"] == 1
        assert "autotuner:" in comm.stats.report()


# ----------------------------------------------------------------------
# Property tests (skipped without Hypothesis)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_RUNGS = st.sampled_from(list(ABLATION_LADDER))
_SCHEDULES = st.builds(
    Schedule,
    tile_bytes=st.one_of(st.none(),
                         st.integers(min_value=1, max_value=1 << 22)),
    elide=st.booleans(),
    rung=_RUNGS)


class TestScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(schedule=_SCHEDULES)
    def test_transform_roundtrips_preserve_validity(self, schedule):
        # Any chain of transforms lands on another valid schedule
        # (construction re-validates).
        t = schedule.untiled().with_elide(False)
        assert t.tile_bytes is None
        assert not t.elide and t.rung is schedule.rung
        assert schedule.with_rung(schedule.rung) == schedule

    @settings(max_examples=30, deadline=None)
    @given(backend=st.one_of(st.none(),
                             st.sampled_from(["scalar", "vectorized"])),
           execution=st.sampled_from(["auto", "interpreted", "compiled"]),
           tile=st.one_of(st.none(),
                          st.integers(min_value=1, max_value=1 << 22)),
           workers=st.integers(min_value=1, max_value=4),
           mode=st.sampled_from(["offline", "online"]))
    def test_tuner_never_selects_invalid_combination(
            self, backend, execution, tile, workers, mode):
        # Whatever the session pins, every schedule the tuner can
        # enumerate is constructible (Schedule validates) and honors
        # the pins -- e.g. an interpreting session is never handed a
        # tile.
        if tile is not None and execution == "interpreted":
            return  # SessionConfig itself rejects this pin
        if backend == "scalar" and execution != "interpreted":
            return  # likewise: compiled replay runs on the arena only
        cfg = SessionConfig(autotune=mode, backend=backend,
                            execution=execution, stream_tile_bytes=tile,
                            parallel_workers=workers)
        manager = make_manager((4, 8), mram_bytes=1 << 20)
        kept = manager.system.backend
        comm = Communicator(manager, cfg)
        assert comm.backend == (backend or (
            kept if execution == "interpreted" else "vectorized"))
        req = CommRequest("alltoall", "11", 1 << 14,
                          dst_offset=1 << 18).normalize(
            manager, comm.config, backend=comm.backend)
        scores = comm.tuner.enumerate_schedules(
            lambda rung: comm._candidate_plan(req, rung),
            lambda rung: comm._candidate_program(req, rung))
        assert scores
        for score in scores:
            s = score.schedule
            if execution == "interpreted":
                assert s.tile_bytes is None and not s.elide
            if tile is not None:
                assert s.tile_bytes == tile
            assert s.rung in ABLATION_LADDER
