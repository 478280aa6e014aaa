#!/usr/bin/env python3
"""All eight workloads, three repetitions each, into one JSON file.

    python3 benchmarks/e2e/suite.py [--seed S] [--out FILE]
                                    [--workload NAME]... [--no-traced]

Every repetition is one ``run.py`` process.  Repetitions are interleaved
(rep 1 of every workload, then rep 2, then rep 3) so that drift of the
host hits all workloads alike; an end-to-end value is the median of the
three.  One more, traced, run per workload gives the per-layer numbers.
The exact-window facts (modelled seconds, counts) must be identical in
every run of a workload: a difference is a benchmark failure.

The file is what ``compare.py`` reads; ``baseline/`` holds this
commit's, for the default seed and for one held-out seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import metrics

RUN = Path(__file__).resolve().parent / "run.py"
REPETITIONS = 3


def run_once(workload: str, seed: int, trace: int,
             seconds: float = metrics.RUN_SECONDS) -> dict:
    """One ``run.py`` process: its result object, the ``exact`` and
    ``ungated`` lines it prints before it, and how long it took."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    if done.returncode != 0 and not lines:
        raise SystemExit(f"{workload} run failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("exact", "ungated"):
            result[key] = json.loads(rest)
    result["process_s"] = perf_counter() - start
    result["stderr"] = done.stderr
    return result


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20240408)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        choices=list(metrics.WORKLOADS),
                        help="repeatable; default: all eight")
    parser.add_argument("--traced", default=True,
                        action=argparse.BooleanOptionalAction)
    args = parser.parse_args()
    names = args.workload or list(metrics.WORKLOADS)

    runs = {name: [] for name in names}
    for rep in range(REPETITIONS):
        for name in names:
            runs[name].append(run_once(name, args.seed, trace=0))
            last = runs[name][-1]
            print(f"rep {rep + 1} {name:16s} {last['process_s']:6.1f} s  "
                  + "  ".join(f"{k}={v['value']:.4g}"
                              for k, v in last["metrics"].items()),
                  flush=True)
    traced = {}
    if args.traced:
        for name in names:
            traced[name] = run_once(name, args.seed, trace=1)
            print(f"traced {name:16s} {traced[name]['process_s']:6.1f} s",
                  flush=True)

    failures = []
    report = {"seed": args.seed, "run_seconds": metrics.RUN_SECONDS,
              "repetitions": REPETITIONS, "machine": machine(),
              "workloads": {}}
    for name in names:
        every = runs[name] + ([traced[name]] if name in traced else [])
        if any(run["exact"] != every[0]["exact"] for run in every):
            failures.append(f"{name}: exact-window facts differ between "
                            "runs of the same code and seed")
        for run in every:
            if not run["correct"]:
                failures.append(f"{name}: incorrect\n{run['stderr']}")
        entry = {
            "why": metrics.WORKLOADS[name],
            "correct": all(run["correct"] for run in every),
            "attempted": [run["attempted"] for run in runs[name]],
            "failed": [run["failed"] for run in runs[name]],
            "exact_window": every[0]["exact"],
            "end_to_end": {},
        }
        for m in metrics.END_TO_END + metrics.UNGATED_END_TO_END:
            readings = [run["metrics"][m.name]["value"]
                        if m in metrics.END_TO_END else run["ungated"][m.name]
                        for run in runs[name]]
            entry["end_to_end"][m.name] = {
                "value": statistics.median(readings),
                "repetitions": readings, "unit": m.unit, "clock": m.clock,
                "better": m.better, "bound": m.bound}
        if name in traced:
            entry["per_layer"] = {
                m.name: {"value": traced[name]["metrics"][m.name]["value"],
                         "unit": m.unit, "clock": m.clock,
                         "better": m.better}
                for m in metrics.PER_LAYER}
        report["workloads"][name] = entry

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
