"""Outside-in layer tracing for the traced benchmark run.

The program has no span timer of its own yet (ROADMAP item 1a), so the
traced run wraps each layer's public callables from the benchmark's own
process: :data:`LAYERS` maps every span-derived per-layer metric to the
``(module, class, attribute)`` targets it is measured at, and
:func:`installed` swaps timing wrappers in and restores the originals
on exit.  The untraced run never imports this module.

A span is one call of a target.  Nesting follows the Python call stack;
a span's *self* time is its duration minus the time its child spans
cover.  At ~25 spans per 120 us collective, storing every span would
cost as much as the work it measures, so spans are folded as they
close into per-target ``count`` / ``self`` / ``total`` seconds (plus
``top``: the seconds covered by outermost spans).  Whatever wall time
``top`` does not cover is the caller's own -- the root's self time.
"""

from __future__ import annotations

import asyncio
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

Target = tuple[str, "str | None", str]


def _methods(module: str, cls: str, *names: str) -> list[Target]:
    return [(module, cls, name) for name in names]


def _functions(module: str, *names: str) -> list[Target]:
    return [(module, None, name) for name in names]


_PROGRAM = "repro.core.collectives.program"
_COMMUNICATOR = _methods(
    "repro.engine.communicator", "Communicator",
    "alltoall", "allgather", "reduce_scatter", "allreduce", "scatter",
    "gather", "reduce", "broadcast", "submit")

#: per-layer metric -> the public callables whose spans it sums.
LAYERS: dict[str, list[Target]] = {
    "engine.request.normalize_us": _methods(
        "repro.engine.request", "CommRequest", "normalize"),
    "engine.cache.fetch_us": (
        _methods("repro.engine.cache", "PlanCache", "fetch", "fetch_program")
        + _methods("repro.engine.cache", "CachePartition", "fetch",
                   "fetch_program")),
    "engine.stats.record_us": _methods(
        "repro.engine.stats", "EngineStats", "record_call", "record_replay",
        "record_elision", "record_batch"),
    "engine.communicator.self_us": _COMMUNICATOR,
    "engine.scheduler.waves_us": _functions(
        "repro.engine.scheduler", "schedule_waves", "price_waves"),
    "collectives.planner.plan_us": _functions(
        "repro.core.collectives.planner", "plan_alltoall", "plan_allgather",
        "plan_reduce_scatter", "plan_allreduce", "plan_scatter",
        "plan_gather", "plan_reduce", "plan_broadcast"),
    "collectives.plan.compile_us": _methods(
        "repro.core.collectives.plan", "CommPlan", "compile"),
    "collectives.plan.estimate_us": (
        _methods("repro.core.collectives.plan", "CommPlan", "estimate")
        + _methods(_PROGRAM, "CommProgram", "priced")),
    "collectives.program.replay_self_us": _methods(
        _PROGRAM, "CommProgram", "replay"),
    "collectives.program.gather_move_us": _methods(
        _PROGRAM, "GatherMoveOp", "execute", "execute_streamed"),
    "collectives.program.reduce_fold_us": _methods(
        _PROGRAM, "ReduceFoldOp", "execute", "execute_streamed"),
    "collectives.program.fanout_us": _methods(
        _PROGRAM, "FanoutScratchOp", "execute", "execute_streamed"),
    "collectives.program.host_io_us": (
        _methods(_PROGRAM, "HostPullOp", "execute")
        + _methods(_PROGRAM, "HostPushOp", "execute")
        + _methods(_PROGRAM, "BroadcastFillOp", "execute")),
    # StepOp is the replay fallback that interprets an unlowered step.
    "collectives.steps.apply_us": (
        _methods("repro.core.collectives.plan", "CommPlan", "execute", "run")
        + _methods(_PROGRAM, "StepOp", "execute")),
    "hw.system.bulk_us": _methods(
        "repro.hw.system", "DimmSystem", "take_by_table", "put_rows",
        "take_rows", "stage_rows", "take_band_flat", "take_select_flat",
        "read_lanes", "write_lanes", "permute_chunks", "fill_lanes",
        "zero_fill_lanes", "scan_view"),
    "hw.arena.index_us": _methods(
        "repro.hw.arena", "MemoryArena", "touch", "lane_view",
        "stream_table", "stream_width", "writes_since", "note_write"),
    "hw.arena.copy_us": _methods(
        "repro.hw.arena", "MemoryArena", "take_band", "take_select",
        "read_rows", "gather_chunks", "write_rows", "fill_rows",
        "zero_fill_rows"),
    "hw.kernels.pe_us": (
        _functions("repro.hw.kernels", "fold_slots")
        + _functions("repro.hw.host", "rotate_all_slots", "fanout_all_slots")
        + _functions("repro.hw.pe", "check_permutation_rows",
                     "permute_chunks_batched", "batched_permute_tiles")),
    "reliability.checksum_us": _functions(
        "repro.reliability.checksum", "checksum", "verify",
        "guarded_delivery"),
    "apps.comm_s": _methods(
        "repro.apps.base", "AppHarness", "comm", "comm_cost_only"),
    "serving.submit_us": _methods(
        "repro.serving.session", "Session", "submit"),
    "serving.drain_self_us": _methods(
        "repro.serving.server", "CollectiveServer", "drain"),
    "multihost.exchange_us": _functions(
        "repro.multihost.hierarchical", "multihost_alltoall",
        "multihost_allreduce", "multihost_allgather",
        "multihost_reduce_scatter"),
    "multihost.tuner_us": (
        _methods("repro.multihost.tuning", "GlobalTuner", "choose",
                 "candidates")
        + _methods("repro.multihost.fabric", "Fabric", "program_seconds")),
    "analysis.experiments_s": _functions(
        "repro.analysis.experiments", "fig14_primitives", "fig15_app_speedup",
        "fig16_ablation", "fig16_step_geomeans", "fig18_datasize",
        "fig20_shapes", "fig21_cpu_comparison", "fig22_wordbits",
        "fig23a_topologies"),
}


class TracerError(RuntimeError):
    """A listed callable is missing, renamed or not a plain function."""


@dataclass
class Spans:
    """Folded span statistics: per target, and for outermost spans."""

    count: dict[Target, int]
    self_s: dict[Target, float]
    total_s: dict[Target, float]
    #: Seconds covered by spans that had no enclosing span.
    top_s: float

    def __sub__(self, earlier: "Spans") -> "Spans":
        return Spans(
            {t: n - earlier.count[t] for t, n in self.count.items()},
            {t: s - earlier.self_s[t] for t, s in self.self_s.items()},
            {t: s - earlier.total_s[t] for t, s in self.total_s.items()},
            self.top_s - earlier.top_s)

    def calls(self, metric: str) -> int:
        return sum(self.count[t] for t in LAYERS[metric])

    def self_seconds(self, metric: str) -> float:
        return sum(self.self_s[t] for t in LAYERS[metric])

    def total_seconds(self, targets: list[Target]) -> float:
        """Inclusive seconds; meaningful when ``targets`` never nest."""
        return sum(self.total_s[t] for t in targets)


class Tracer:
    """Stack-based span recorder; one thread, as the run protocol has."""

    def __init__(self) -> None:
        self.targets = sorted({t for group in LAYERS.values() for t in group},
                              key=str)
        n = len(self.targets)
        self._count = [0] * n
        self._self = [0.0] * n
        self._total = [0.0] * n
        #: ``[top_s]``; the open spans' child-time accumulators follow.
        self._stack: list[float] = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def snapshot(self) -> Spans:
        return Spans(dict(zip(self.targets, self._count)),
                     dict(zip(self.targets, self._self)),
                     dict(zip(self.targets, self._total)),
                     self._stack[0])

    # ------------------------------------------------------------------
    def _wrap(self, fn, index: int):
        stack, count = self._stack, self._count
        self_s, total_s = self._self, self._total

        # The two bodies are spelled out twice: a shared helper would
        # add a call to every span of the hot path.
        if asyncio.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                stack.append(0.0)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self_s[index] += duration - stack.pop()
                    total_s[index] += duration
                    count[index] += 1
                    stack[-1] += duration
        else:
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self_s[index] += duration - stack.pop()
                    total_s[index] += duration
                    count[index] += 1
                    stack[-1] += duration
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, extra_modules=()) -> None:
        """Wrap every target.  Functions are re-bound in every loaded
        ``repro`` module (and ``extra_modules``) that imported them by
        name; methods are replaced on their class."""
        metric_of = {t: m for m, group in LAYERS.items() for t in group}
        for index, target in enumerate(self.targets):
            module_name, cls_name, attr = target
            where = f"{metric_of[target]}: {module_name}." \
                f"{cls_name + '.' if cls_name else ''}{attr}"
            try:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.uninstall()
                raise TracerError(f"{where} does not exist") from None
            if not callable(original) or isinstance(
                    original, (staticmethod, classmethod, property)):
                self.uninstall()
                raise TracerError(f"{where} is not a plain function")
            wrapped = self._wrap(original, index)
            if cls_name is not None:
                self._patch(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if module in extra_modules or getattr(
                        module, "__name__", "").split(".")[0] == "repro":
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


@contextmanager
def installed(extra_modules=()):
    """Tracing on for the ``with`` body; originals restored on exit."""
    tracer = Tracer()
    tracer.install(extra_modules)
    try:
        yield tracer
    finally:
        tracer.uninstall()
