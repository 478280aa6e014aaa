#!/usr/bin/env python3
"""One run of one benchmark workload: the command BENCHMARK.json names.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Protocol (identical on every commit; README.md has the reasons):

* closed loop, one client, one thread, one process; ``gc.collect()``
  once before timing, GC left enabled;
* *set-up* is everything from process start to ready-to-time: imports,
  systems and sessions, dataset generation, payload seeding and one
  warm-up call per distinct shape.  ``setup_s`` is its user-mode CPU
  time (the kernel's page-fault time for fresh memory is a lottery on
  this VM: 0.1 to 15 s for the same 600 MB), as the median of three
  fresh processes (this one and two ``--seconds 0`` children), because
  a second set-up in one process would find the module-level memo
  tables warm;
* correctness: before timing, a checked pass over every shape is
  compared with the scalar interpreted oracle; after timing, the same
  pass must reproduce its CRCs, and workloads with a twin or solo
  replay run it.  Each operation that raises, is refused, or fails its
  own check counts as failed;
* timing: whole cycles of the workload's fixed operation list until
  ``--seconds`` have passed (and at least the *exact window*, the
  first cycles, over which modelled seconds and counts are folded so
  that they repeat exactly);
* ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
  half of ``--seconds`` untraced, then imports the tracer, sets up
  again under it and spends the other half traced, and prints the
  per-layer metrics.

The last line of standard output is the result object the driver
reads; the lines before it name every metric with its unit and clock.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# The program under test is the checkout's own src/; a directory that
# holds only the benchmark has nothing to measure.
SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro not found: nothing to measure")
sys.path.insert(0, str(SRC))

import metrics
import workloads


# ----------------------------------------------------------------------
# The timed section
# ----------------------------------------------------------------------
class Timed:
    """Per-operation walls of one timed section, grouped by label."""

    def __init__(self, workload) -> None:
        self.cycle = workload.cycle
        self.walls = {label: [] for label in self.cycle}
        #: Operations of the exact window ``acc`` is folded over.
        self.window_ops = workload.window_cycles * len(self.cycle)
        self.ops = self.failed = 0
        self.acc = workloads.new_acc()
        #: Spans a traced run recorded outside the timed operations.
        self.untimed_spans = []

    @property
    def wall_s(self) -> float:
        return sum(sum(walls) for walls in self.walls.values())

    def per_second(self, window_total: float) -> float:
        """A total over the exact window, scaled to the whole section
        (every cycle does the same work) and divided by its wall."""
        return window_total / self.window_ops * self.ops / self.wall_s

    def typical_op_us(self) -> float:
        """Robust wall of one operation: each label's median, weighted
        by how often the label occurs in a cycle.  A plain median over a
        mixed list would jump between 30 ms and 75 ms collectives with
        the parity of the operation count."""
        return 1e6 * sum(statistics.median(self.walls[label])
                         for label in self.cycle) / len(self.cycle)

    def median_us(self, *names: str) -> float:
        """Median wall over the labels ``name`` or ``name@size``."""
        pooled = [w for label, walls in self.walls.items()
                  if label.split("@")[0] in names for w in walls]
        return 1e6 * statistics.median(pooled) if pooled else 0.0

    def p99_us(self) -> float:
        """Wall tails repeat only within ~20 % here: shown, never
        gated, and only with at least 1 000 samples behind them."""
        walls = [w for walls in self.walls.values() for w in walls]
        return 1e6 * statistics.quantiles(walls, n=100)[98] \
            if len(walls) >= 1000 else 0.0


def run_timed(workload, seconds: float, recorder=None) -> Timed:
    """``recorder`` (a traced run's Tracer) is told which spans belong
    to the untimed work between operations, to leave them out."""
    timed = Timed(workload)
    cycle, window_ops = workload.cycle, timed.window_ops
    has_untimed = type(workload).before_op is not workloads.Workload.before_op
    gc.collect()
    begin = perf_counter()
    i = 0
    while True:
        if has_untimed:
            mark = recorder.snapshot() if recorder else None
            workload.before_op(i)
            if recorder:
                timed.untimed_spans.append(recorder.snapshot() - mark)
        result = None
        start = perf_counter()
        try:
            result = workload.op(i)
        except Exception:  # an operation that raises is a failed one
            traceback.print_exc()
        end = perf_counter()
        timed.walls[cycle[i % len(cycle)]].append(end - start)
        if result is None or workload.op_failed(result):
            timed.failed += 1
        elif i < window_ops:
            workload.fold(result, timed.acc)
        i += 1
        if i == window_ops:
            workload.window_done(timed.acc)
        if i % len(cycle) == 0 and i >= window_ops \
                and end - begin >= seconds:
            timed.ops = i
            return timed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def untraced_layers(workload, timed: Timed) -> dict:
    """Per-layer metrics that need no spans: the issue's ungated
    end-to-end numbers, per-label walls and exact-window counts."""
    acc, ops, window_ops = timed.acc, timed.ops, timed.window_ops
    out = {
        "ops_per_s": ops / timed.wall_s,
        "failed_share": timed.failed / ops,
        "modelled_s": acc["modelled_s"],
        "payload_gb_per_s": timed.per_second(acc["payload_bytes"]) / 1e9,
        "engine.cache.plan_hit_share":
            acc["cache_hits"] / max(1, acc["cache_lookups"]),
        "engine.cache.cold_call_us_p50":
            1e6 * statistics.median(workload.cold_walls.values())
            if workload.cold_walls else 0.0,
        "engine.retry.attempts_per_op": acc["attempts"] / window_ops,
        "collectives.program.tiles_per_op": acc["tiles"] / window_ops,
        "collectives.elision.scanned_chunks": acc["chunks_scanned"],
        "collectives.elision.elided_share":
            acc["chunks_elided"] / max(1, acc["chunks_scanned"]),
        "collectives.elision.cold_call_us_p50":
            timed.median_us("sparse_cold"),
        "collectives.elision.warm_call_us_p50":
            timed.median_us("sparse_warm"),
        "collectives.elision.dense_call_us_p50":
            timed.median_us("dense_cold", "dense_warm"),
        "reliability.faults_injected": acc.get("faults_injected", 0),
        "reliability.retry_share":
            (acc["attempts"] - window_ops) / acc["attempts"]
            if acc["attempts"] else 0.0,
        "apps.comm_calls": acc.get("comm_calls", 0),
        "serving.batches": acc.get("batches", 0),
        "serving.shed_share":
            acc.get("not_served", 0) / max(1, acc.get("offered", 0)),
        "serving.requests_per_s": timed.per_second(
            acc.get("offered", 0) - acc.get("not_served", 0)),
        "multihost.fabric_modelled_s": acc.get("fabric_modelled_s", 0.0),
        "analysis.claims_failed": acc.get("claims_failed", 0),
        "bench.op_wall_us_p99": timed.p99_us(),
    }
    for name in ("modelled_goodput_gb_per_s", "modelled_p99_ms",
                 "claims_max_dev"):
        out[name] = acc.get(name, 0.0)
    for primitive in metrics.PRIMITIVES:
        out[f"engine.{primitive}_us_p50"] = timed.median_us(primitive)
    for app in metrics.APPS:
        out[f"apps.{app}_s"] = timed.median_us(app) / 1e6
    return out


def traced_layers(tracer, setup_spans, spans, timed: Timed,
                  untraced: Timed) -> dict:
    """Per-layer metrics from the traced section: self microseconds per
    operation of each layer's public callables."""
    ops = timed.ops
    out = {name: 1e6 * spans.self_seconds(name) / ops
           for name in tracer.LAYERS if name.endswith("_us")}
    # Plan building and program compilation happen on cache misses,
    # which a warmed section has none of: taken from the traced set-up,
    # per miss.
    for name in ("collectives.planner.plan_us",
                 "collectives.plan.compile_us"):
        out[name] = 1e6 * setup_spans.self_seconds(name) \
            / max(1, setup_spans.calls(name))
    communicator = tracer.LAYERS["engine.communicator.self_us"]
    out["multihost.local_us"] = \
        1e6 * spans.total_seconds(communicator) / ops \
        if spans.calls("multihost.exchange_us") else 0.0
    out["serving.engine_submit_us"] = 1e6 * spans.total_seconds(
        [t for t in communicator if t[2] == "submit"]) / ops
    cycles = ops / len(timed.cycle)
    comm_s = spans.total_seconds(tracer.LAYERS["apps.comm_s"]) / cycles
    out["apps.comm_s"] = comm_s
    out["apps.kernel_s"] = timed.wall_s / cycles - comm_s if comm_s else 0.0
    out["analysis.experiments_s"] = \
        spans.self_seconds("analysis.experiments_s") / ops
    arena_calls = spans.calls("hw.arena.index_us") \
        + spans.calls("hw.arena.copy_us")
    out["hw.arena.calls_per_op"] = arena_calls / ops
    copy_s = spans.self_seconds("hw.arena.copy_us")
    # Bytes are computed from plan metadata, not measured.
    out["hw.arena.copy_gb_per_s"] = \
        timed.acc["payload_bytes"] / timed.window_ops * ops / copy_s / 1e9 \
        if copy_s else 0.0
    out["bench.trace_overhead_share"] = \
        timed.typical_op_us() / untraced.typical_op_us() - 1.0
    out["bench.trace_uncovered_share"] = \
        (timed.wall_s - spans.top_s) / timed.wall_s
    return out


def report(names, values: dict, **extra) -> dict:
    """Print every metric by name, unit and clock; build the result."""
    unknown = set(values) - set(metrics.BY_NAME)
    missing = [m.name for m in names if m.name not in values]
    if unknown or missing:
        raise SystemExit(f"metric table mismatch: unknown {sorted(unknown)},"
                         f" missing {missing}")
    for m in names:
        print(f"{m.name:44s} {values[m.name]:>18.6f} {m.unit:10s} {m.clock}")
    return {**extra, "metrics": {m.name: {"value": values[m.name],
                                          "unit": m.unit} for m in names}}


# ----------------------------------------------------------------------
def set_up(cls, seed: int):
    workload = cls(seed)
    workload.warm_up()
    return workload


def setup_seconds_elsewhere(args) -> list[float]:
    """Set-up time of two fresh processes (``--seconds 0`` runs)."""
    out = []
    for _ in range(2):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--trace", "0"],
            capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        out.append(result["metrics"]["setup_s"]["value"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240408)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="0 = set up only (how set-up time is sampled)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cls = workloads.WORKLOADS[args.workload]

    workload = set_up(cls, args.seed)
    setup_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    if args.seconds <= 0:
        print(json.dumps(report([metrics.BY_NAME["setup_s"]],
                                {"setup_s": setup_s})))
        return 0

    reference = workload.checked_pass()
    problems = workload.oracle_problems(reference)
    seconds = args.seconds / 2 if args.trace else args.seconds
    timed = run_timed(workload, seconds)
    # Before the checks below build their twin sessions.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += workloads.mismatches("checked pass after timing",
                                     workload.cycle, reference,
                                     workload.checked_pass())
    problems += workload.post_problems()
    workload.close()

    if args.trace:
        values = untraced_layers(workload, timed)
        del workload
        gc.collect()
        import tracer  # never loaded by an untraced run
        with tracer.installed(extra_modules=(workloads,)) as recorder:
            traced_workload = set_up(cls, args.seed)
            setup_spans = recorder.snapshot()
            traced = run_timed(traced_workload, seconds, recorder)
            spans = recorder.snapshot() - setup_spans
            for untimed in traced.untimed_spans:
                spans = spans - untimed
            traced_workload.close()
        if traced.failed:
            problems.append(f"{traced.failed} traced operations failed")
        values.update(traced_layers(tracer, setup_spans, spans, traced,
                                    timed))
        names = metrics.PER_LAYER
    else:
        setup_s = statistics.median(
            [setup_s] + setup_seconds_elsewhere(args))
        values = {"setup_s": setup_s,
                  "op_wall_us_p50": timed.typical_op_us(),
                  "peak_rss_mb": rss_mb}
        names = metrics.END_TO_END
        # For suite.py: the issue's end-to-end metrics the driver does
        # not gate, from the same timed section.
        layers = untraced_layers(workload, timed)
        print("ungated " + json.dumps(
            {m.name: layers[m.name] for m in metrics.UNGATED_END_TO_END}))

    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not problems and timed.failed == 0
    result = report(names, values, correct=correct, attempted=timed.ops,
                    failed=timed.failed)
    # Exact-window facts for suite.py (same in both modes of one seed).
    print("exact " + json.dumps(timed.acc, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
