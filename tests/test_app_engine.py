"""Applications run on the engine; the step interpreter is the oracle.

Two facts are pinned here.  (a) A golden file holds, for the six
end-to-end application configurations (the ones
``benchmarks/e2e/workloads.py``'s ``Apps`` runs, seed 20240408) under
both communication backends, every per-category ledger second, every
per-primitive second, the plan-cache counters and a CRC of the output,
as the commit *before* the harness moved onto a ``Communicator``
session produced them on the step interpreter: compiled replay must
charge, count and compute exactly that on real application traffic.
(A functional harness session compiles, so it always runs on the
vectorized arena.)
(b) The interpreter's remaining production footprint is a named list:
the two conventional-baseline host flows without a ``lower()``.

Regenerate the golden file (only when the cost model itself is changed
on purpose) with ``PYTHONPATH=src python -m tests.test_app_engine``.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import DimmGeometry, DimmSystem, HypercubeManager
from repro.apps import (
    BaselineCommBackend,
    BfsApp,
    BfsConfig,
    CcApp,
    CcConfig,
    DlrmApp,
    DlrmConfig,
    GnnApp,
    GnnConfig,
    MlpApp,
    MlpConfig,
    PidCommBackend,
)
from repro.baselines import topologies  # noqa: F401  (its steps are listed)
from repro.core.collectives import ABLATION_LADDER, build_plan, steps
from repro.core.collectives.program import StepOp
from repro.data import criteo_like, random_graph, rmat_graph
from repro.dtypes import INT64, SUM

from .test_differential_fuzz import PRIMITIVES

GOLDEN = Path(__file__).parent / "golden" / "app_functional_ledgers.json"
SEED = 20240408
G64, G256 = DimmGeometry(1, 1, 8, 8), DimmGeometry(2, 2, 8, 8)
BACKENDS = {"pidcomm": PidCommBackend, "baseline": BaselineCommBackend}
LABELS = ("dlrm", "gnn_rs_ar", "gnn_ar_ag", "bfs", "cc", "mlp")


def e2e_apps(seed: int = SEED) -> dict:
    """label -> (app, geometry, cube shape), as the e2e ``Apps`` builds them."""
    gnn_graph = rmat_graph(256, 4000, seed=seed)
    return {
        "dlrm": (DlrmApp(criteo_like(256, 8, 64, 4, seed=seed),
                         DlrmConfig(16, 8, seed=seed)), G64, (4, 4, 4)),
        "gnn_rs_ar": (GnnApp(gnn_graph, GnnConfig(32, 3, "rs_ar", seed=seed)),
                      G64, (8, 8)),
        "gnn_ar_ag": (GnnApp(gnn_graph, GnnConfig(32, 3, "ar_ag", seed=seed)),
                      G64, (8, 8)),
        "bfs": (BfsApp(rmat_graph(4096, 40000, seed=seed + 1),
                       BfsConfig(source=0)), G256, (256,)),
        "cc": (CcApp(random_graph(4096, 8000, seed=seed + 2), CcConfig()),
               G256, (256,)),
        "mlp": (MlpApp(MlpConfig(512, 5, 16, seed=seed)), G64, (64,)),
    }


def run_app(entry, backend):
    """One functional iteration on a fresh system."""
    app, geometry, shape = entry
    system = DimmSystem(geometry, mram_bytes=1 << 17, backend="vectorized")
    return app.run(HypercubeManager(system, shape=shape), backend,
                   functional=True)


def ledger_row(result) -> dict:
    engine = result.meta["engine"]
    output = np.ascontiguousarray(np.ravel(result.output))
    return {"seconds": dict(sorted(result.ledger.seconds.items())),
            "per_primitive": dict(sorted(result.per_primitive.items())),
            "calls": engine["calls"], "cache_hits": engine["cache_hits"],
            "output_crc": zlib.crc32(output.view(np.uint8))}


@pytest.fixture(scope="module")
def apps():
    return e2e_apps()


# ----------------------------------------------------------------------
# (a) application traffic is pinned the way the paper rows are
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", LABELS)
def test_functional_ledgers_match_the_interpreter(apps, label, backend):
    golden = json.loads(GOLDEN.read_text())[f"{label}/{backend}"]
    assert ledger_row(run_app(apps[label], BACKENDS[backend]())) == golden


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", LABELS)
def test_scalar_system_matches_the_same_golden_rows(apps, label, backend):
    """An application started on a per-PE (scalar) system: its
    functional harness session compiles, so it moves the system onto
    the arena (compiled replay runs there only) and lands the same
    golden rows."""
    golden = json.loads(GOLDEN.read_text())[f"{label}/{backend}"]
    app, geometry, shape = apps[label]
    system = DimmSystem(geometry, mram_bytes=1 << 17, backend="scalar")
    result = app.run(HypercubeManager(system, shape=shape),
                     BACKENDS[backend](), functional=True)
    assert system.backend == "vectorized"
    assert ledger_row(result) == golden


# ----------------------------------------------------------------------
# (b) the interpreter's production footprint is a named list
# ----------------------------------------------------------------------
#: Every step class that inherits the base ``lower()`` (returns None,
#: so ``compile_plan`` wraps it in a ``StepOp``), by defining module.
#: ``steps``: the conventional-baseline host flows (the Baseline rung's
#: host-side global exchange and host reduce -- what the paper compares
#: against, kept as the interpreter executes them).  ``topologies``: the
#: Figure-23a ring / tree comparison points, run through
#: ``CommPlan.run`` directly and never built by a session.
UNLOWERED_STEPS = {
    "repro.core.collectives.steps": {"HostReduceStep",
                                     "HostGlobalExchangeStep"},
    "repro.baselines.topologies": {"RingStep", "TreePairStep"},
}
#: The only (primitive, rung) plans that compile to a ``StepOp``: the
#: Baseline rung of the four primitives built from those two flows.
UNLOWERED_PLANS = {
    ("alltoall", "Baseline", "HostGlobalExchangeStep"),
    ("reduce_scatter", "Baseline", "HostGlobalExchangeStep"),
    ("allreduce", "Baseline", "HostGlobalExchangeStep"),
    ("reduce", "Baseline", "HostReduceStep"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_steps_without_a_lowering_are_a_named_list():
    unlowered: dict[str, set[str]] = {}
    for cls in _subclasses(steps.Step):
        if cls.lower is steps.Step.lower \
                and cls.__module__.startswith("repro."):
            unlowered.setdefault(cls.__module__, set()).add(cls.__name__)
    assert unlowered == UNLOWERED_STEPS


@pytest.mark.parametrize("geometry,shape", [(G64, (4, 4, 4)), (G64, (8, 8)),
                                            (G64, (64,)), (G256, (256,))],
                         ids=lambda v: str(v) if isinstance(v, tuple) else "")
def test_every_rung_lowers_on_the_app_cubes(geometry, shape):
    """All eight primitives at every ablation rung compile to fully
    lowered programs, except exactly :data:`UNLOWERED_PLANS`."""
    system = DimmSystem(geometry, mram_bytes=1 << 17, backend="vectorized")
    manager = HypercubeManager(system, shape=shape)
    dims = "1" * len(shape)
    full = 8 * manager.num_nodes
    unlowered = set()
    for primitive in PRIMITIVES:
        size = 8 if primitive == "allgather" else full
        for rung in ABLATION_LADDER:
            program = build_plan(primitive, manager, dims, size, 0, full,
                                 INT64, SUM, rung).compile(system)
            fallbacks = {(primitive, rung.label, type(op.step).__name__)
                         for op in program.ops if isinstance(op, StepOp)}
            assert program.fully_lowered == (not fallbacks)
            unlowered |= fallbacks
    assert unlowered == UNLOWERED_PLANS


@pytest.mark.parametrize("label", LABELS)
def test_pidcomm_apps_execute_no_step_op(apps, label, monkeypatch):
    executed = []
    execute = StepOp.execute
    monkeypatch.setattr(
        StepOp, "execute",
        lambda self, *a, **k: executed.append(self) or execute(self, *a, **k))
    run_app(apps[label], PidCommBackend())
    assert not executed


if __name__ == "__main__":
    rows = {f"{label}/{name}": ledger_row(run_app(entry, backend()))
            for label, entry in e2e_apps().items()
            for name, backend in BACKENDS.items()}
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
