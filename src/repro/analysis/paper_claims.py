"""The paper's quantitative claims, as machine-checkable records.

Each :class:`Claim` names a number the paper reports, how to measure it
on the reproduction, and the tolerance within which we consider the
shape reproduced.  ``evaluate_claims()`` regenerates the whole verdict
table and ``render_claims()`` prints it as the Markdown table that
EXPERIMENTS.md commits (``python -m repro --claims``); the test suite
asserts the claims marked ``strict`` hold and that the committed table
is current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import experiments as E
from .report import geomean


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper's evaluation."""

    id: str
    figure: str
    description: str
    paper_value: float
    #: Extracts the measured value from the shared experiment cache.
    measure: Callable[[dict], float]
    #: Relative tolerance for the "within" verdict.
    rel_tol: float = 0.30
    #: Strict claims gate the test suite; loose ones are documented only.
    strict: bool = True


def _rows(cache: dict, name: str):
    if name not in cache:
        cache[name] = getattr(E, name)()
    return cache[name]


def _fig14(cache, primitive, field="speedup"):
    return next(r[field] for r in _rows(cache, "fig14_primitives")
                if r["primitive"] == primitive)


def _fig16_step(cache, step, field="geomean_all"):
    rows = E.fig16_step_geomeans(_rows(cache, "fig16_ablation"))
    return next(r[field] for r in rows if r["step"] == step)


def _fig21(cache, app, pes, field="pidcomm_x"):
    return next(r[field] for r in _rows(cache, "fig21_cpu_comparison")
                if r["app"] == app and r["pes"] == pes)


def _fig23a(cache, topology):
    return next(r["slowdown"] for r in _rows(cache, "fig23a_topologies")
                if r["topology"] == topology)


CLAIMS: tuple[Claim, ...] = (
    Claim("aa-speedup", "Fig 14", "AlltoAll speedup at (32,32), 8 MB/PE",
          5.19, lambda c: _fig14(c, "alltoall")),
    Claim("rs-speedup", "Fig 14", "ReduceScatter speedup",
          4.46, lambda c: _fig14(c, "reduce_scatter")),
    Claim("ar-speedup", "Fig 14", "AllReduce speedup",
          4.23, lambda c: _fig14(c, "allreduce")),
    Claim("br-speedup", "Fig 14", "Broadcast speedup (native is optimal)",
          1.00, lambda c: _fig14(c, "broadcast"), rel_tol=0.05),
    Claim("prim-geomean", "Fig 14", "geomean speedup over 8 primitives",
          2.83, lambda c: _fig14(c, "geomean")),
    Claim("aa-throughput", "Fig 20", "AlltoAll throughput (GB/s)",
          20.6, lambda c: _fig14(c, "alltoall", "pidcomm_gbps")),
    Claim("ag-throughput", "Fig 20", "AllGather peak throughput (GB/s)",
          36.1, lambda c: max(r["allgather"]
                              for r in _rows(c, "fig20_shapes"))),
    Claim("ar-throughput", "Fig 20", "AllReduce peak throughput (GB/s)",
          12.2, lambda c: max(r["allreduce"]
                              for r in _rows(c, "fig20_shapes"))),
    Claim("pr-step", "Fig 16", "PE-assisted reordering geomean step",
          1.48, lambda c: _fig16_step(c, "Baseline -> +PR")),
    Claim("im-step", "Fig 16", "in-register modulation geomean step",
          2.03, lambda c: _fig16_step(c, "+PR -> +IM"),
          rel_tol=0.45, strict=False),
    Claim("cm-step", "Fig 16", "cross-domain modulation step (AA/AG)",
          1.42, lambda c: _fig16_step(c, "+IM -> +CM",
                                      "geomean_where_applicable")),
    Claim("size-geomean", "Fig 18", "geomean speedup at 8 MB payloads",
          2.89, lambda c: geomean(
              [r["speedup"] for r in _rows(c, "fig18_datasize")
               if r["size_kb"] == 8192])),
    Claim("app-geomean", "Fig 15", "application speedup geomean",
          1.99, lambda c: next(
              r["speedup"] for r in _rows(c, "fig15_app_speedup")
              if r["app"] == "geomean"), rel_tol=0.50, strict=False),
    Claim("mlp-peak", "Fig 21", "MLP peak speedup over CPU (1024 PEs)",
          7.89, lambda c: _fig21(c, "MLP", 1024), rel_tol=0.15),
    Claim("cc-sweet", "Fig 21", "CC speedup at its 64-PE sweet spot",
          2.58, lambda c: _fig21(c, "CC", 64), rel_tol=0.15),
    Claim("cpu-base-geomean", "Fig 21", "PIM-baseline geomean over CPU",
          2.27, lambda c: geomean(
              [r["pim_baseline_x"]
               for r in _rows(c, "fig21_cpu_comparison")]),
          rel_tol=0.50, strict=False),
    Claim("cpu-pid-geomean", "Fig 21", "PID-Comm geomean over CPU",
          4.07, lambda c: geomean(
              [r["pidcomm_x"] for r in _rows(c, "fig21_cpu_comparison")]),
          rel_tol=0.50, strict=False),
    Claim("gnn-8bit", "Fig 22", "GNN 8-bit geomean speedup",
          1.64, lambda c: geomean(
              [r["speedup"] for r in _rows(c, "fig22_wordbits")
               if r["width"] == "int8"])),
    Claim("ring-slowdown", "Fig 23a", "ring topology slowdown",
          2.05, lambda c: _fig23a(c, "ring")),
    Claim("tree-slowdown", "Fig 23a", "tree topology slowdown (<=)",
          7.89, lambda c: _fig23a(c, "tree"), rel_tol=0.70, strict=False),
)


def evaluate_claims(claims: tuple[Claim, ...] = CLAIMS) -> list[dict]:
    """Measure every claim; returns verdict rows."""
    cache: dict = {}
    rows = []
    for claim in claims:
        measured = float(claim.measure(cache))
        deviation = abs(measured - claim.paper_value) / claim.paper_value
        rows.append({
            "id": claim.id,
            "figure": claim.figure,
            "description": claim.description,
            "paper": claim.paper_value,
            "measured": round(measured, 3),
            "deviation": round(deviation, 3),
            "within_tol": deviation <= claim.rel_tol,
            "strict": claim.strict,
        })
    return rows


def render_claims(verdicts: list[dict]) -> str:
    """Verdict rows as the Markdown table of EXPERIMENTS.md."""
    lines = ["| Claim | Exp | Metric | Paper | Measured | Deviation "
             "| Verdict |",
             "|---|---|---|---|---|---|---|"]
    for r in verdicts:
        verdict = "✓" if r["within_tol"] else "✗"
        if not r["strict"]:
            verdict += " (loose)"
        lines.append(
            f"| `{r['id']}` | {r['figure']} | {r['description']} "
            f"| {r['paper']:.2f} | {r['measured']:.2f} "
            f"| {r['deviation']:.1%} | {verdict} |")
    return "\n".join(lines)
