"""Auto-tuning: hypercube shapes and execution schedules.

The paper shows that primitive throughput depends on the cube shape
(Figure 20) and that "the configuration on PIM-based systems has to be
carefully chosen" (section VIII-G).  Because plans are cheap to price,
the best shape for a given communication mix can simply be searched:

    mix = [("reduce_scatter", "100", 8 << 20), ("allgather", "100", ...)]
    best = autotune_shape(system, num_pes=1024, ndim=3, mix=mix)

The same argument extends to the engine's *execution schedule* -- the
knobs somebody has to decide per shape (streaming tile, elision,
optimization rung), one frozen
:class:`~repro.core.collectives.schedule.Schedule` value.  What the
session fixes (system backend, whether plans compile, the worker pool)
is not searched.
:class:`Tuner` searches that space per ``(primitive, shape, dtype,
traffic pattern)`` using the pre-priced
:class:`~repro.hw.timing.CostLedger` (``pipelined(depth)`` prices
streamed candidates), commits the cheapest schedule into the engine's
:class:`~repro.engine.cache.PlanCache` beside the compiled program --
steady-state lookups pay zero search cost -- and, in ``"online"``
mode, refines the model's shortlist with measured replay seconds and
re-tunes when observed cost diverges from modelled cost.  Every
candidate schedule replays bit-identical to the scalar interpreted
oracle, so tuning can never change results -- only wall-clock.

Enable it per session with ``SessionConfig(autotune="offline")`` (pure
model) or ``"online"`` (model prunes, measurements decide); see
``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from statistics import fmean
from typing import Any, Callable, Iterator, Sequence

from ..core.collectives import (
    ABLATION_LADDER,
    CommPlan,
    OptConfig,
    Schedule,
)
from ..core.hypercube import HypercubeManager
from ..errors import HypercubeError, PidCommError
from ..hw.system import DimmSystem
from ..hw.timing import ELIDABLE_CATEGORIES
from .experiments import _pid_plan

#: Modes ``SessionConfig(autotune=...)`` accepts (None disables tuning).
AUTOTUNE_MODES = ("offline", "online")

#: Smallest streaming tile the schedule search will propose.  The cost
#: model's pipeline credit grows monotonically with depth, so without a
#: floor the search would always pick pathological one-row bands whose
#: per-band dispatch overhead wrecks wall-clock.
MIN_TILE_BYTES = 4096

#: Fractions of the gathered payload the search offers as tile
#: candidates (pipeline depths ~4/8/16 -- deep enough to hide a stage,
#: shallow enough to keep per-band dispatch negligible).
TILE_FRACTIONS = (4, 8, 16)


@dataclass(frozen=True)
class ShapeScore:
    """Estimated cost of one candidate shape."""

    shape: tuple[int, ...]
    seconds: float


@lru_cache(maxsize=None)
def _factorizations(num_pes: int, ndim: int) -> tuple[tuple[int, ...], ...]:
    """Memoized enumeration backing :func:`candidate_shapes`.

    The recursion re-enumerates identical ``(num_pes, ndim)`` subtrees
    many times (every prefix length shares the same suffix problem), so
    both the recursive calls and repeated top-level tuning runs hit the
    cache.
    """
    if ndim == 1:
        return ((num_pes,),)
    shapes = []
    length = 1
    while length <= num_pes:
        if num_pes % length == 0:
            shapes.extend((length,) + rest
                          for rest in _factorizations(num_pes // length,
                                                      ndim - 1))
        length *= 2
    return tuple(shapes)


def candidate_shapes(num_pes: int, ndim: int) -> Iterator[tuple[int, ...]]:
    """All ordered factorizations of ``num_pes`` into ``ndim`` dims.

    All dimensions except the last must be powers of two (the
    hypercube's rule); the last may be any factor, which covers
    non-power-of-two channel counts.  Enumeration is memoized, so
    repeated tuning runs over the same PE count re-derive nothing.
    """
    if ndim < 1:
        raise PidCommError("ndim must be >= 1")
    yield from _factorizations(num_pes, ndim)


def autotune_shape(system: DimmSystem, num_pes: int, ndim: int,
                   mix: Sequence[tuple[str, str, int]],
                   min_dim: int = 1) -> list[ShapeScore]:
    """Rank all candidate shapes by the modelled cost of a workload mix.

    Args:
        system: The target system (cost parameters + geometry).
        num_pes: PEs the hypercube must cover.
        ndim: Number of hypercube dimensions.
        mix: Sequence of ``(primitive, dims_bitmap, payload_bytes)``
            invocations making up one round of the workload.
        min_dim: Discard shapes with any dimension shorter than this.

    Returns:
        Scores sorted cheapest-first (the head is the recommendation).

    A mix repeating the same ``(primitive, pattern, payload)`` entry
    (one AllReduce per layer, say) prices that plan once per shape and
    reuses the estimate for every repetition, instead of re-planning
    per entry.
    """
    if not mix:
        raise PidCommError("autotune needs a non-empty communication mix")
    scores = []
    for shape in candidate_shapes(num_pes, ndim):
        if min(shape) < min_dim:
            continue
        try:
            manager = HypercubeManager(system, shape=shape)
            priced: dict[tuple[str, str, int], float] = {}
            total = 0.0
            for primitive, dims, payload in mix:
                entry = (primitive, dims, payload)
                if entry not in priced:
                    plan = _pid_plan(primitive, manager, dims, payload)
                    priced[entry] = plan.estimate(system).total
                total += priced[entry]
        except (HypercubeError, PidCommError):
            continue  # shape incompatible with the mix (e.g. indivisible)
        scores.append(ShapeScore(shape=shape, seconds=total))
    if not scores:
        raise PidCommError(
            "no candidate shape was compatible with the workload mix")
    return sorted(scores, key=lambda s: s.seconds)


# ----------------------------------------------------------------------
# Schedule-space search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleSpace:
    """The candidate lattice one session's tuner may search.

    A session pinning a knob (``SessionConfig(stream_tile_bytes=...)``,
    ``execution="interpreted"``) collapses the corresponding axis, so
    the tuner can never override an explicit user choice -- it only
    decides what was left open.
    """

    rungs: tuple[OptConfig, ...] = tuple(ABLATION_LADDER)
    #: Pinned streaming tile (None = derive candidates per shape).
    tile_bytes: int | None = None
    #: Whether the session compiles programs at all.  False (an
    #: ``execution="interpreted"`` session) leaves only the rung to
    #: tune, priced on ``plan.estimate``: there is nothing to stream,
    #: elide or probe.
    streaming: bool = True
    #: Elision axis: ``(False,)`` never scans; ``(False, True)`` lets
    #: the model decide per shape whether fingerprint scanning pays.
    eliding: tuple[bool, ...] = (False,)

    @classmethod
    def from_session(cls, config) -> "ScheduleSpace":
        """The space a :class:`~repro.engine.SessionConfig` leaves open."""
        return cls(tile_bytes=config.stream_tile_bytes,
                   streaming=config.execution != "interpreted",
                   eliding=((False, True) if config.elide_transfers
                            else (False,)))


@dataclass(frozen=True)
class ScheduleScore:
    """One priced candidate schedule."""

    schedule: Schedule
    #: Modelled seconds (``pipelined`` for streamed candidates).
    seconds: float
    #: Rung position in the space (stable tie-break).
    order: int = 0


def tile_candidates(plan: CommPlan, space: ScheduleSpace
                    ) -> tuple[int | None, ...]:
    """Streaming tile sizes worth pricing for ``plan``.

    Derived from the plan's gathered footprint (member rows x per-row
    bytes): fractions giving pipeline depths of roughly
    :data:`TILE_FRACTIONS`, floored at :data:`MIN_TILE_BYTES`.  ``None``
    (untiled) is always a candidate; a session-pinned tile collapses
    the axis to exactly that tile.
    """
    if space.tile_bytes is not None:
        return (space.tile_bytes,)
    if not space.streaming:
        return (None,)
    meta = plan.meta
    rows = max(1, meta.get("group_size", 1) * meta.get("instances", 1))
    row_bytes = max(meta.get("out_bytes_per_pe", 0),
                    meta.get("per_pe_bytes", 0), 1)
    total = rows * row_bytes
    tiles: list[int | None] = [None]
    for fraction in TILE_FRACTIONS:
        tile = total // fraction
        if tile >= MIN_TILE_BYTES and tile not in tiles:
            tiles.append(tile)
    return tuple(tiles)


class _ProbeState:
    """Online probing of one key's shortlist, one candidate at a time."""

    def __init__(self, family: list[ScheduleScore], iters: int) -> None:
        self.family = family
        self.iters = iters
        self.samples: list[list[float]] = [[] for _ in family]
        self.handed = 0
        self.observed = 0

    def current(self) -> ScheduleScore:
        for candidate, taken in zip(self.family, self.samples):
            if len(taken) < self.iters:
                return candidate
        return self.family[0]

    def record(self, schedule: Schedule, seconds: float) -> bool:
        """Attribute one measurement; True once every candidate is full."""
        for candidate, taken in zip(self.family, self.samples):
            if candidate.schedule.signature == schedule.signature:
                taken.append(seconds)
                self.observed += 1
                break
        return all(len(taken) >= self.iters for taken in self.samples)

    def stalled(self) -> bool:
        """Hand-outs far outnumber measurements: the traffic is analytic
        and will never report replay seconds."""
        return (self.handed - self.observed
                > 2 * self.iters * len(self.family) + 4)

    def best(self) -> ScheduleScore:
        """Measured-fastest candidate (modelled order breaks ties and
        covers never-measured candidates)."""
        def rank(pair):
            index, candidate = pair
            taken = self.samples[index]
            measured = fmean(taken) if taken else float("inf")
            return (measured, candidate.seconds, index)
        return min(enumerate(self.family), key=rank)[1]

    def baseline_ratio(self, chosen: ScheduleScore) -> float | None:
        """Observed/modelled seconds ratio of the committed candidate."""
        for candidate, taken in zip(self.family, self.samples):
            if candidate.schedule.signature == chosen.schedule.signature \
                    and taken and candidate.seconds > 0:
                return fmean(taken) / candidate.seconds
        return None


class _Monitor:
    """Divergence watch on one committed decision (EWMA of the
    observed-over-modelled seconds ratio vs. its commit-time baseline)."""

    def __init__(self, schedule: Schedule, baseline: float | None,
                 alpha: float, factor: float, min_samples: int) -> None:
        self.schedule = schedule
        self.baseline = baseline
        self.alpha = alpha
        self.factor = factor
        self.min_samples = min_samples
        self.ewma = baseline
        self.updates = 0
        self._warmup: list[float] = []

    def update(self, ratio: float) -> bool:
        """Fold in one observation; True when the decision should die."""
        if self.baseline is None:
            # Offline-committed decisions have no probe measurements;
            # the first few observations define what "as modelled"
            # means for this host before divergence can be judged.
            self._warmup.append(ratio)
            if len(self._warmup) >= self.min_samples:
                self.baseline = fmean(self._warmup)
                self.ewma = self.baseline
            return False
        self.updates += 1
        self.ewma = self.alpha * ratio + (1.0 - self.alpha) * self.ewma
        return (self.updates >= self.min_samples
                and self.ewma > self.factor * self.baseline)


class Tuner:
    """Cost-model-guided schedule search with optional online re-tuning.

    ``mode="offline"`` trusts the machine model: per key, enumerate the
    space, price every candidate (streamed ones through
    :meth:`CostLedger.pipelined`), commit the cheapest into the plan
    cache's decision store.  ``mode="online"`` uses the model to prune
    to a shortlist (the cheapest rung's tile family plus every other
    rung's champion), measures each shortlisted
    candidate's replay seconds under live traffic, commits the
    measured-fastest, then keeps watching: when
    the observed/modelled ratio drifts past ``retune_factor`` times its
    commit-time baseline, the decision is invalidated and the next call
    re-searches (counted in ``EngineStats.tuner_retunes``).

    The tuner decides *how* a collective runs, never what it computes:
    every candidate is a valid :class:`Schedule` and replays
    bit-identical to the scalar interpreted oracle.
    """

    def __init__(self, manager: HypercubeManager,
                 space: ScheduleSpace | None = None,
                 mode: str = "offline", *, probe_iters: int = 2,
                 shortlist: int = 8, retune_factor: float = 2.0,
                 min_samples: int = 3, alpha: float = 0.4) -> None:
        if mode not in AUTOTUNE_MODES:
            raise PidCommError(
                f"unknown autotune mode {mode!r}; known: {AUTOTUNE_MODES}")
        self.manager = manager
        self.space = space if space is not None else ScheduleSpace()
        self.mode = mode
        self.probe_iters = probe_iters
        self.shortlist = shortlist
        self.retune_factor = retune_factor
        self.min_samples = min_samples
        self.alpha = alpha
        self._probes: dict[Any, _ProbeState] = {}
        self._monitors: dict[Any, _Monitor] = {}

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def enumerate_schedules(self, plan_for: Callable[[OptConfig], CommPlan],
                            program_for: Callable[[OptConfig], Any]
                            ) -> list[ScheduleScore]:
        """Price every candidate in the space, cheapest first.

        ``plan_for``/``program_for`` resolve one rung's (cached) plan
        and compiled program -- the engine supplies its own plan-cache
        lookups, so search-time compilations are exactly the ones
        steady-state execution reuses.
        """
        space = self.space
        system = self.manager.system
        scores: list[ScheduleScore] = []
        for order, rung in enumerate(space.rungs):
            plan = plan_for(rung)
            if not space.streaming:
                scores.append(ScheduleScore(
                    Schedule(rung=rung), plan.estimate(system).total, order))
                continue
            program = program_for(rung)
            base = program.priced(system)
            # Elision candidates exist only when the model says the
            # scan can possibly pay: the fingerprint scan over every
            # scannable source byte must cost less than eliding the
            # elidable ops' *entire* transfer share would save.  When
            # it cannot, no elide schedule is offered at all, so dense
            # shapes do zero scan work (the dense fast path).
            scan_s = savable_s = 0.0
            if True in space.eliding:
                scan_s = system.params.scan_time(program.scannable_bytes)
                total_transfer = program.transfer_bytes
                if total_transfer > 0:
                    share = program.elidable_transfer_bytes / total_transfer
                    savable_s = share * sum(base.get(c)
                                            for c in ELIDABLE_CATEGORIES)
            offer_elide = 0.0 < scan_s < savable_s
            for tile in tile_candidates(plan, space):
                if tile is None:
                    seconds = base.total
                else:
                    seconds = base.pipelined(
                        program.pipeline_depth(tile)).total
                scores.append(ScheduleScore(
                    Schedule(tile_bytes=tile, rung=rung), seconds, order))
                if offer_elide:
                    # The model cannot see payload content, so elide
                    # candidates are priced at a 50% reference elision
                    # rate: scan always paid, half the best-case
                    # transfer saving credited (docs/performance.md).
                    scores.append(ScheduleScore(
                        Schedule(tile_bytes=tile, elide=True, rung=rung),
                        max(seconds + scan_s - 0.5 * savable_s, scan_s),
                        order))
        # Deterministic order: modelled seconds, then rung position,
        # then the *larger* tile (less per-band dispatch at equal
        # modelled cost; untiled counts as largest).
        big = 1 << 62
        scores.sort(key=lambda s: (
            s.seconds, s.order,
            -(s.schedule.tile_bytes if s.schedule.tile_bytes is not None
              else big)))
        return scores

    def _family(self, scores: list[ScheduleScore]) -> list[ScheduleScore]:
        """The probe shortlist: the winner's tile family plus every
        other rung's champion.

        The model prices every tile of one program within
        pipeline-credit noise of each other, so the tile axis is always
        decided by measurement.  Rungs get different *plans*, and the
        model's rung ranking can invert on wall-clock (a 1-D cube
        prices the Baseline ladder cheapest while its replay does more
        host work than FULL), so each rung's cheapest candidate joins
        the shortlist too -- measurement, not the model, settles the
        rung whenever the traffic reports replay seconds.
        """
        best = scores[0].schedule.rung
        family = [s for s in scores if s.schedule.rung == best]
        seen = {best}
        for score in scores:  # modelled order: each rung's first = best
            if score.schedule.rung not in seen:
                family.append(score)
                seen.add(score.schedule.rung)
        return family[:self.shortlist]

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def schedule_for(self, req, cache, stats,
                     plan_for: Callable[[OptConfig], CommPlan],
                     program_for: Callable[[OptConfig], Any]) -> Schedule:
        """The schedule ``req`` should run under (cached, probed, or
        freshly searched)."""
        key = req.schedule_key
        state_key = (req.tenant, key)
        cached = cache.fetch_schedule(key)
        if cached is not None:
            stats.tuner_cache_hits += 1
            return cached
        probe = self._probes.get(state_key)
        if probe is None:
            scores = self.enumerate_schedules(plan_for, program_for)
            stats.tuner_searches += 1
            family = self._family(scores)
            if self.mode == "online" and len(family) > 1 \
                    and self.space.streaming:
                probe = _ProbeState(family, self.probe_iters)
                self._probes[state_key] = probe
            else:
                self._commit(cache, state_key, key, family[0], None)
                return family[0].schedule
        if probe.stalled():
            chosen = probe.best()
            del self._probes[state_key]
            self._commit(cache, state_key, key, chosen,
                         probe.baseline_ratio(chosen))
            return chosen.schedule
        probe.handed += 1
        stats.tuner_probes += 1
        return probe.current().schedule

    def observe(self, req, schedule: Schedule, modelled_s: float,
                observed_s: float | None, cache, stats) -> bool:
        """Fold one execution's replay seconds into the tuner's state.

        Returns True when the observation triggered a re-tune (the
        cached decision was invalidated; the next call re-searches and,
        online, re-probes under current conditions).
        """
        if self.mode != "online":
            return False
        key = req.schedule_key
        state_key = (req.tenant, key)
        if observed_s is not None:
            stats.tuner_observations += 1
        probe = self._probes.get(state_key)
        if probe is not None:
            if observed_s is None:
                return False
            if probe.record(schedule, observed_s):
                chosen = probe.best()
                del self._probes[state_key]
                self._commit(cache, state_key, key, chosen,
                             probe.baseline_ratio(chosen))
            return False
        monitor = self._monitors.get(state_key)
        if monitor is None or observed_s is None \
                or monitor.schedule.signature != schedule.signature:
            return False
        ratio = observed_s / max(modelled_s, 1e-30)
        if monitor.update(ratio):
            stats.tuner_retunes += 1
            cache.invalidate_schedule(key)
            del self._monitors[state_key]
            return True
        return False

    def _commit(self, cache, state_key, key, chosen: ScheduleScore,
                baseline: float | None) -> None:
        cache.store_schedule(key, chosen.schedule)
        self._monitors[state_key] = _Monitor(
            chosen.schedule, baseline, self.alpha, self.retune_factor,
            self.min_samples)
