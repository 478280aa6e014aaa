#!/usr/bin/env python3
"""Compare two ``suite.py`` files: ``compare.py PARENT.json CHANGE.json``.

For every workload and every end-to-end metric (the three the driver
gates and the issue's other seven) it prints one verdict:

* ``improved`` / ``regressed`` -- the change's median is better / worse
  than the parent's by more than the metric's bound.  Modelled-clock
  and count metrics are exact: any difference is one or the other, and
  so is any difference in the exact-window facts.
* ``unchanged`` -- within the bound.
* ``unresolved`` -- a wall metric whose three repetitions spread wider
  than the bound in either file, unless every repetition of one side
  reads better than every repetition of the other.

Every ratio is printed with its base (the parent's value).  The exit
code is non-zero on any ``regressed`` and on a higher ``failed_share``.
This is a screen; claiming a gain takes the ten alternating pairs of
the choosing-metrics guide.
"""

from __future__ import annotations

import json
import sys

import metrics


def verdict(metric: metrics.Metric, parent, change) -> str:
    (a, a_reps), (b, b_reps) = parent, change
    sign = 1 if metric.better == "higher" else -1
    if metric.bound == 0.0 or a == 0:
        return "unchanged" if b == a else \
            "improved" if sign * (b - a) > 0 else "regressed"
    gain = sign * (b - a) / a
    apart = (min(b_reps) > max(a_reps), max(b_reps) < min(a_reps))
    wide = any((max(reps) - min(reps)) / abs(median) > metric.bound
               for median, reps in (parent, change))
    if wide and not any(apart):
        return "unresolved"
    if abs(gain) <= metric.bound:
        return "unchanged"
    return "improved" if gain > 0 else "regressed"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.load(open(path)) for path in argv)
    if parent["seed"] != change["seed"]:
        print(f"note: seeds differ ({parent['seed']} vs {change['seed']}); "
              "modelled metrics are only comparable for one seed")
    failed = False
    for name, a_entry in parent["workloads"].items():
        b_entry = change["workloads"].get(name)
        if b_entry is None:
            print(f"{name}: missing from {argv[1]}")
            failed = True
            continue
        print(name)
        for metric in metrics.END_TO_END + metrics.UNGATED_END_TO_END:
            if metric.on and name not in metric.on:
                continue
            a, b = ((entry["end_to_end"][metric.name]["value"],
                     entry["end_to_end"][metric.name]["repetitions"])
                    for entry in (a_entry, b_entry))
            outcome = verdict(metric, a, b)
            failed |= outcome == "regressed"
            ratio = f"{b[0] / a[0]:.3f} x" if a[0] else "-"
            print(f"  {metric.name:28s} {outcome:10s} {b[0]:14.6g} = "
                  f"{ratio} of {a[0]:.6g} {metric.unit} ({metric.clock}, "
                  f"bound {metric.bound:g})")
        if a_entry["exact_window"] != b_entry["exact_window"]:
            moved = sorted(k for k in a_entry["exact_window"]
                           if a_entry["exact_window"][k]
                           != b_entry["exact_window"].get(k))
            print(f"  exact-window facts moved: {', '.join(moved)}")
        if sum(b_entry["failed"]) > sum(a_entry["failed"]) \
                or not b_entry["correct"]:
            print("  more failed operations, or incorrect outputs")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
