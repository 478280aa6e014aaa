#!/usr/bin/env python3
"""Run-to-run spread of the gated metrics, as the driver measures it.

    python3 benchmarks/e2e/spread.py [--seed S] [--workload NAME]...

Ten ``--trace 0`` runs per workload, each with another seed (S, S+1,
...), interleaved across workloads.  For every end-to-end metric it
prints the distance between the first and third quartile of the ten
values (``statistics.quantiles(values, n=4)``) as a share of their
median, next to the metric's bound.  A benchmark change is steady enough
when every spread stays below a third of its bound; the command exits
non-zero when one exceeds the bound itself (``setup_s`` excepted, as in
the driver).
"""

from __future__ import annotations

import argparse
import statistics
import sys

import metrics
from suite import run_once

RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20240408)
    parser.add_argument("--workload", action="append",
                        choices=list(metrics.WORKLOADS))
    args = parser.parse_args()
    names = args.workload or list(metrics.WORKLOADS)

    values = {name: {m.name: [] for m in metrics.END_TO_END}
              for name in names}
    process_s = []
    for run in range(RUNS):
        for name in names:
            result = run_once(name, args.seed + run, trace=0)
            if not result["correct"]:
                print(f"{name} seed {args.seed + run}: incorrect\n"
                      f"{result['stderr']}", file=sys.stderr)
                return 1
            process_s.append(result["process_s"])
            for metric, reading in result["metrics"].items():
                values[name][metric].append(reading["value"])
        print(f"run {run + 1}/{RUNS} done", flush=True)

    too_wide = 0
    print(f"{'workload':16s} {'metric':16s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        for m in metrics.END_TO_END:
            q1, median, q3 = statistics.quantiles(values[name][m.name], n=4)
            spread = (q3 - q1) / median
            verdict = "" if spread < m.bound / 3 else \
                " above bound/3" if spread <= m.bound else " ABOVE BOUND"
            too_wide += spread > m.bound and m.name != "setup_s"
            print(f"{name:16s} {m.name:16s} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.4f} {m.bound:6.2f}{verdict}")
    print(f"{len(process_s)} runs, {sum(process_s):.0f} s in all, "
          f"slowest {max(process_s):.1f} s")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
