"""Plan tracing: per-step cost timelines and category charts (text).

``trace_plan`` prices every step of a plan individually and renders a
timeline like::

    CommPlan(allreduce)                          total 601.7 ms
    0 Launch x1                    |  0.5 ms
    1 PeReorder[rotate_left_rank]  | 11.2 ms  ##
    2 ReduceExchange[inregister]   |401.3 ms  ######################
    3 FanoutFromHost[inregister]   |170.1 ms  #########
    4 PeReorder[reflect_rank]      | 11.2 ms  ##

plus a per-category bar chart -- the same decomposition Figure 17
plots, but for one concrete invocation.

``render_batch_timeline`` does the same for one engine
:class:`~repro.engine.result.BatchResult`: one line per dependency
wave, showing the overlap-aware wave cost against what the same
requests cost serially.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.collectives.plan import CommPlan
from ..engine.result import BatchResult
from ..hw.system import DimmSystem
from ..hw.timing import CATEGORIES, CostLedger

_BAR_WIDTH = 40


@dataclass
class StepTrace:
    """Priced record of one plan step."""

    index: int
    label: str
    ledger: CostLedger

    @property
    def seconds(self) -> float:
        return self.ledger.total


def trace_plan(plan: CommPlan, system: DimmSystem) -> list[StepTrace]:
    """Price each step of ``plan`` individually."""
    return [StepTrace(index=i, label=step.describe(),
                      ledger=step.cost(system))
            for i, step in enumerate(plan.steps)]


def _bar(value: float, maximum: float, width: int = _BAR_WIDTH) -> str:
    if maximum <= 0:
        return ""
    return "#" * max(0, round(width * value / maximum))


def render_timeline(plan: CommPlan, system: DimmSystem) -> str:
    """Render a per-step timeline of the plan's modelled time."""
    traces = trace_plan(plan, system)
    total = sum(t.seconds for t in traces)
    label_width = max((len(t.label) for t in traces), default=0)
    lines = [f"CommPlan({plan.primitive})"
             f"{'':{max(1, label_width - len(plan.primitive) - 4)}s}"
             f"total {total * 1e3:.3f} ms"]
    longest = max((t.seconds for t in traces), default=0.0)
    for t in traces:
        lines.append(
            f"{t.index:>2d} {t.label:<{label_width}s} "
            f"|{t.seconds * 1e3:>9.3f} ms  {_bar(t.seconds, longest)}")
    return "\n".join(lines)


def render_categories(plan: CommPlan, system: DimmSystem) -> str:
    """Render the plan's per-category breakdown as a bar chart."""
    ledger = plan.estimate(system)
    breakdown = ledger.breakdown()
    if not breakdown:
        return "(empty plan)"
    longest = max(breakdown.values())
    width = max(len(c) for c in CATEGORIES)
    lines = [f"total {ledger.total * 1e3:.3f} ms"]
    for category, seconds in breakdown.items():
        share = seconds / ledger.total
        lines.append(f"{category:<{width}s} {seconds * 1e3:>9.3f} ms "
                     f"{share:>5.1%}  {_bar(seconds, longest)}")
    return "\n".join(lines)


@dataclass
class WaveTrace:
    """Priced record of one batch wave."""

    index: int
    labels: list[str]
    ledger: CostLedger
    serial_seconds: float
    #: Extra executions the reliability layer spent in this wave
    #: (sum of ``result.attempts - 1`` over the wave's requests).
    retries: int = 0
    #: Payload tiles streamed replay ran across the wave's requests
    #: (0 when the wave executed unstreamed).
    tiles: int = 0

    @property
    def seconds(self) -> float:
        """Overlap-aware modelled time of the wave."""
        return self.ledger.total

    @property
    def overlap_saved(self) -> float:
        """Seconds the concurrent schedule hides vs. serial issue."""
        return max(0.0, self.serial_seconds - self.seconds)


def trace_batch(batch: BatchResult) -> list[WaveTrace]:
    """Per-wave priced records of a submitted batch."""
    labels = {future.index: future.label for future in batch.futures}
    attempts = {future.index: (future.result().attempts
                               if future.done() else 1)
                for future in batch.futures}
    tiles = {future.index: (future.result().tiles
                            if future.done() else 0)
             for future in batch.futures}
    return [WaveTrace(index=cost.index,
                      labels=[labels[i] for i in cost.request_indices],
                      ledger=cost.ledger,
                      serial_seconds=cost.serial_seconds,
                      retries=sum(attempts[i] - 1
                                  for i in cost.request_indices),
                      tiles=sum(tiles[i] for i in cost.request_indices))
            for cost in batch.wave_costs]


def render_batch_timeline(batch: BatchResult) -> str:
    """Render a per-wave timeline of a batch's modelled time.

    Example::

        Batch(3 requests, 2 waves)  total 2.9 ms  serial 4.4 ms  1.52x
        wave 0 |  1.9 ms  ######   alltoall[d1] 4096B + allreduce[d0] ...
        wave 1 |  1.0 ms  ###      allgather[d1] 512B
    """
    traces = trace_batch(batch)
    lines = [f"Batch({len(batch.futures)} requests, {len(traces)} waves)"
             f"  total {batch.seconds * 1e3:.3f} ms"
             f"  serial {batch.serial_seconds * 1e3:.3f} ms"
             f"  {batch.speedup:.2f}x"]
    longest = max((t.seconds for t in traces), default=0.0)
    for t in traces:
        members = " + ".join(t.labels)
        saved = (f"  (hides {t.overlap_saved * 1e3:.3f} ms)"
                 if t.overlap_saved > 0 else "")
        retried = f"  [{t.retries} retries]" if t.retries else ""
        tiled = f"  [{t.tiles} tiles]" if t.tiles else ""
        lines.append(f"wave {t.index} |{t.seconds * 1e3:>9.3f} ms  "
                     f"{_bar(t.seconds, longest):<{_BAR_WIDTH}s} "
                     f"{members}{saved}{retried}{tiled}")
    return "\n".join(lines)


def render_serving(stats) -> str:
    """Render a :class:`~repro.serving.server.ServerStats` block.

    Example::

        Serving(24 requests over 5 batches, clock 12.400 ms)
        goodput 1234567 B/s
        tenant-a | 12 done   0 shed  p50  3.100 ms  p99  8.800 ms  ######
        tenant-b | 12 done   2 shed  p50  4.000 ms  p99  9.100 ms  ######

    When the owned session elides transfers, each tenant line also
    reports its elided chunk count and bytes (satisfying per-tenant
    attribution: a sparse tenant's savings never blur into a dense
    neighbour's).
    """
    if not stats.dispatched:
        return "Serving(no requests dispatched)"
    lines = [f"Serving({stats.dispatched} requests over {stats.batches} "
             f"batches, clock {stats.clock * 1e3:.3f} ms)",
             f"goodput {stats.goodput_bytes_per_second:.0f} B/s"]
    tenants = {tid: t for tid, t in stats.tenants.items()
               if t.submitted or t.completed}
    if tenants:
        longest = max(t.bytes_completed for t in tenants.values())
        width = max(len(tid) for tid in tenants)
        show_elision = any(t.chunks_scanned for t in tenants.values())
        for tid in sorted(tenants):
            t = tenants[tid]
            elided = (f"  elided {t.chunks_elided:>5d} chunks "
                      f"({t.elided_bytes} B)" if show_elision else "")
            lines.append(
                f"{tid:<{width}s} |{t.completed:>4d} done {t.shed:>3d} shed"
                f"  p50 {t.p50 * 1e3:>8.3f} ms  p99 {t.p99 * 1e3:>8.3f} ms"
                f"{elided}  {_bar(t.bytes_completed, longest, width=20)}")
    return "\n".join(lines)


def dominant_category(plan: CommPlan, system: DimmSystem) -> str:
    """The category the plan spends most of its modelled time in."""
    breakdown = plan.estimate(system).breakdown()
    if not breakdown:
        return "none"
    return max(breakdown, key=breakdown.get)
