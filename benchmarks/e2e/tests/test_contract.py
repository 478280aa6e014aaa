"""BENCHMARK.json agrees with the metric table; compare.py's verdicts."""

import json
from pathlib import Path

import compare
import metrics

ROOT = Path(__file__).resolve().parents[3]


def test_benchmark_json_is_the_metric_table():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) \
        == metrics.benchmark_json()


def test_every_issue_metric_is_named():
    assert len(metrics.LAYER) == 64
    assert len(metrics.END_TO_END) + len(metrics.UNGATED_END_TO_END) == 10
    assert len(metrics.WORKLOADS) == 8


def test_verdicts():
    wall = metrics.Metric("t_us", "us", "wall", "lower", 0.15)
    exact = metrics.BY_NAME["modelled_s"]           # lower, exact
    tight = lambda v: (v, [v * 0.99, v, v * 1.01])  # noqa: E731
    assert compare.verdict(wall, tight(100), tight(104)) == "unchanged"
    assert compare.verdict(wall, tight(100), tight(80)) == "improved"
    assert compare.verdict(wall, tight(100), tight(120)) == "regressed"
    # Repetitions wider than the bound: unresolved, unless disjoint.
    wide = (100, [80, 100, 125])
    assert compare.verdict(wall, wide, tight(104)) == "unresolved"
    assert compare.verdict(wall, wide, tight(60)) == "improved"
    assert compare.verdict(exact, (1.0, [1.0]), (1.0, [1.0])) == "unchanged"
    assert compare.verdict(exact, (1.0, [1.0]), (1.0000001, [1.0000001])) \
        == "regressed"
    assert compare.verdict(exact, (1.0, [1.0]), (0.9, [0.9])) == "improved"
