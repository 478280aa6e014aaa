"""Self-tests of the benchmark's own machinery (not part of tier-1).

    python3 -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(E2E), str(E2E.parents[1] / "src")]
