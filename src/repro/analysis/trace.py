"""Plan tracing: per-category charts and batch timelines (text).

``render_categories`` draws a plan's per-category bar chart -- the same
decomposition Figure 17 plots, but for one concrete invocation.

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


def _bar(value: float, maximum: float, width: int = _BAR_WIDTH) -> str:
    if maximum <= 0:
        return ""
    return "#" * max(0, round(width * value / maximum))


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
