"""Smoke tests: every shipped example runs and self-validates.

The examples print their own correctness checks ("matches golden
model: True"); these tests run them in-process and assert those checks
passed, keeping deliverable scripts from rotting.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "figure10_calls.py",
    "custom_app_histogram.py",
    "multihost_scaling.py",
    "whatif_hardware.py",
]
SLOW_EXAMPLES = [
    "gnn_training.py",
    "graph_analytics.py",
    "dlrm_inference.py",
]


def _run(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), path
    argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_examples_run(name, capsys):
    out = _run(name, capsys)
    assert out.strip()
    assert "False" not in out  # all printed self-checks must be True


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_examples_run(name, capsys):
    out = _run(name, capsys)
    assert "False" not in out


def test_every_example_is_covered():
    listed = set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == listed, on_disk ^ listed
