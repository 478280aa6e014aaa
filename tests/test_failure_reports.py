"""The suite's own settings let a failing check say what failed.

A failing Hypothesis test must end in an ordinary failure report that
names its falsifying example, under this repository's pytest settings
(``pyproject.toml``: warnings are errors) and ``tests/conftest.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # Without libcst, Hypothesis's failure report imports nothing that
    # warns, so there is nothing to guard.
    pytest.importorskip("libcst")
    (tmp_path / "test_fails.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "tests.conftest",
         "-p", "no:cacheprovider", str(tmp_path / "test_fails.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
