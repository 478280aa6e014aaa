"""Regenerate every evaluation table and figure from the command line.

Usage::

    python -m repro                 # everything
    python -m repro fig14 fig16     # selected experiments
    python -m repro --list          # show what exists
    python -m repro --claims        # EXPERIMENTS.md's headline table
"""

from __future__ import annotations

import argparse
import sys
import time

from .analysis import experiments
from .analysis.paper_claims import evaluate_claims, render_claims
from .analysis.report import render_dict_rows

EXPERIMENTS = {
    "table1": (experiments.table1, "Table I: framework capabilities"),
    "table2": (experiments.table2,
               "Table II: technique applicability per primitive"),
    "table3": (experiments.table3, "Table III: benchmark applications"),
    "fig04": (experiments.fig04_motivation,
              "Figure 4: baseline app breakdown"),
    "fig13": (experiments.fig13_app_breakdown,
              "Figure 13: per-primitive app breakdown"),
    "fig14": (experiments.fig14_primitives,
              "Figure 14: primitive throughput (32x32, 8 MB/PE)"),
    "fig15": (experiments.fig15_app_speedup,
              "Figure 15: application speedups"),
    "fig16": (experiments.fig16_ablation,
              "Figure 16: optimization-technique ablation"),
    "fig17": (experiments.fig17_breakdown,
              "Figure 17: per-category primitive breakdown"),
    "fig18": (experiments.fig18_datasize,
              "Figure 18: data-size sensitivity"),
    "fig19": (experiments.fig19_pe_scaling,
              "Figure 19: PE-count scaling"),
    "fig20": (experiments.fig20_shapes,
              "Figure 20: hypercube-shape sensitivity"),
    "fig21": (experiments.fig21_cpu_comparison,
              "Figure 21: CPU-only comparison"),
    "fig22": (experiments.fig22_wordbits,
              "Figure 22: word-width sensitivity (GNN)"),
    "fig23a": (experiments.fig23a_topologies,
               "Figure 23a: hypercube vs ring vs tree"),
    "fig23b": (experiments.fig23b_multihost,
               "Figure 23b: multi-host scaling"),
    "ablation-fused": (experiments.ablation_fused_allreduce,
                       "Ablation: fused AllReduce"),
    "ablation-eg": (experiments.ablation_eg_alignment,
                    "Ablation: entangled-group alignment"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the PID-Comm evaluation tables/figures.")
    parser.add_argument("names", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--claims", action="store_true",
                        help="print the paper-claim verdicts as a Markdown "
                             "table and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, title) in EXPERIMENTS.items():
            print(f"{name:16s} {title}")
        return 0
    if args.claims:
        print(render_claims(evaluate_claims()))
        return 0

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; "
                     f"try --list")
    for name in names:
        fn, title = EXPERIMENTS[name]
        start = time.perf_counter()
        rows = fn()
        elapsed = time.perf_counter() - start
        print(render_dict_rows(rows, f"== {title} =="))
        print(f"(regenerated in {elapsed:.2f}s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
