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
(b) Every plan a session or the baseline builds compiles, with no
step left to the interpreter, and replays to the interpreter's bits.
(c) Every step of those plans prices exactly the MRAM bytes its
lowered ops move: the modelled clock charges for what replay does.
(d) Every compiled program writes exactly the bytes its lowered ops
write: fusion drops an op's writes only where a later op rewrites them.

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
from repro.baselines.simplepim import baseline_plan
from repro.core.collectives import ABLATION_LADDER, CommPlan, build_plan, steps
from repro.core.collectives import program as program_mod
from repro.core.collectives.program import (FanoutScratchOp, StepOp,
                                            compile_plan, traffic_mismatches)
from repro.core.groups import slice_groups
from repro.data import criteo_like, random_graph, rmat_graph
from repro.dtypes import FLOAT32, INT64, SUM
from repro.hw.arena import Region

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
# (b) every plan compiles to the interpreter's bits
# ----------------------------------------------------------------------
#: Every step class that inherits the base ``lower()`` (which raises, so
#: a plan holding one does not compile), by defining module: the
#: Figure-23a ring / tree comparison points, run through ``CommPlan.run``
#: directly and never built by a session.
UNLOWERED_STEPS = {
    "repro.baselines.topologies": {"RingStep", "TreePairStep"},
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


def _bitmaps(ndim: int) -> list[str]:
    """Every non-empty dimension bitmap: the full slice and the
    multi-group partial ones."""
    return [format(bits, f"0{ndim}b") for bits in range(1, 1 << ndim)]


#: Plans replayed against the oracle on the 256-PE cube: the ones built
#: from the conventional host flows.  Its PID-Comm rungs run the per-PE
#: reorder kernels 65,536 times per step when interpreted; the golden
#: bfs / cc rows above pin them there.
ORACLE_AT_256 = ("Baseline", "baseline_plan")


def _plans(manager, dims, dtype):
    """``(rung, plan, payloads)`` of all eight primitives at every
    ablation rung, plus every ``baseline_plan`` plan, plus the in-place
    AllReduce (``dst == src``) the applications call."""
    groups = slice_groups(manager, dims)
    n = groups[0].size
    chunk = 2 * dtype.itemsize
    rng = np.random.default_rng(len(dims) * 31 + n)
    for primitive, dst in [(p, n * chunk) for p in PRIMITIVES] \
            + [("allreduce", 0)]:
        size = chunk if primitive == "allgather" else n * chunk
        payloads = None
        if primitive in ("scatter", "broadcast"):
            payloads = {g.instance: rng.integers(0, 256, size * (
                n if primitive == "scatter" else 1), dtype=np.uint8)
                for g in groups}
        for rung in ABLATION_LADDER:
            yield (rung.label,
                   build_plan(primitive, manager, dims, size, 0, dst, dtype,
                              SUM, rung), payloads)
        yield ("baseline_plan",
               baseline_plan(primitive, manager, dims, size, 0, dst, dtype,
                             SUM), payloads)


def _outcome(system, pes, span, ledger, ctx):
    scratch = {key: {inst: np.asarray(buf).tobytes()
                     for inst, buf in value.items()}
               for key, value in ctx.scratch.items()}
    return (system.peek_rows(pes, 0, span).tobytes(), scratch,
            ledger.seconds, ctx.simd, ctx.wram_tiles)


@pytest.mark.parametrize("geometry,shape", [(G64, (4, 4, 4)), (G64, (8, 8)),
                                            (G64, (64,)), (G256, (256,))],
                         ids=lambda v: str(v) if isinstance(v, tuple) else "")
def test_every_rung_lowers_on_the_app_cubes(geometry, shape):
    """All eight primitives at every ablation rung, and every
    ``baseline_plan`` plan, compile on full and partial bitmaps with no
    ``StepOp``, and replay to the interpreted oracle's MRAM, host
    outputs, ledger, SIMD counts and WRAM tiles.  float32 is the
    fold-order canary: a reordered float fold changes result bits."""
    system = DimmSystem(geometry, mram_bytes=1 << 17, backend="vectorized")
    manager = HypercubeManager(system, shape=shape)
    pes = list(manager.all_pes)
    for dims in _bitmaps(len(shape)):
        n = slice_groups(manager, dims)[0].size
        for dtype in (INT64, FLOAT32):
            span = 2 * n * 2 * dtype.itemsize
            values = np.random.default_rng(n).standard_normal(
                (len(pes), span // dtype.itemsize))
            start = np.ascontiguousarray(
                (values * 100).astype(dtype.np_dtype)).view(np.uint8)
            for rung, plan, payloads in _plans(manager, dims, dtype):
                where = (dims, dtype.name, plan.primitive, rung)
                program = plan.compile()
                assert not any(isinstance(op, StepOp)
                               for op in program.ops), where
                if len(pes) > 64 and rung not in ORACLE_AT_256:
                    continue
                system.poke_rows(pes, 0, start)
                oracle = _outcome(system, pes, span,
                                  *plan.run(system, payloads=payloads))
                system.poke_rows(pes, 0, start)
                mram, scratch, *rest = _outcome(
                    system, pes, span, *program.replay(system, payloads))
                assert mram == oracle[0], where
                assert {key: scratch[key] for key in oracle[1]} \
                    == oracle[1], where
                assert rest == list(oracle[2:]), where


@pytest.mark.parametrize("label", LABELS)
def test_pidcomm_apps_execute_no_step_op(apps, label, monkeypatch):
    """No application call interprets a step: the interpreter's one
    entry, ``CommPlan.execute``, never runs."""
    executed = []
    monkeypatch.setattr(CommPlan, "execute",
                        lambda self, system: executed.append(self))
    run_app(apps[label], PidCommBackend())
    run_app(apps[label], BaselineCommBackend())
    assert not executed


# ----------------------------------------------------------------------
# (c) every step prices the bytes its ops move
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8), (4, 8), (4, 4, 2)])
def test_every_step_prices_the_bytes_its_ops_move(shape):
    """Per step, before fusion, on full and partial bitmaps: a step's
    bus bytes plus its PE-stream bytes (2 x bytes/PE x PEs) equal the
    region bytes of the ops it lowers to."""
    manager = HypercubeManager(DimmSystem(G64), shape=shape)
    for dims in _bitmaps(len(shape)):
        for rung, plan, _ in _plans(manager, dims, INT64):
            assert not traffic_mismatches(
                plan, manager.system.geometry), (dims, plan.primitive, rung)


def _alltoall_mismatches() -> list:
    manager = HypercubeManager(DimmSystem(G64), shape=(8, 8))
    plan = build_plan("alltoall", manager, "11", 64 * 8, 0, 64 * 8, INT64,
                      SUM, ABLATION_LADDER[-1])
    return [label for label, *_ in traffic_mismatches(
        plan, manager.system.geometry)]


def test_traffic_that_drops_its_write_direction_fails_the_check(
        monkeypatch):
    traffic = steps.RotateExchangeStep.traffic

    def read_direction_only(self, geometry):
        return tuple(t._replace(amount=t.amount // 2) if t.rate == "bus"
                     else t for t in traffic(self, geometry))
    monkeypatch.setattr(steps.RotateExchangeStep, "traffic",
                        read_direction_only)
    (label,) = _alltoall_mismatches()
    assert label.startswith("RotateExchange")


def test_an_op_writing_one_row_too_few_fails_the_check(monkeypatch):
    lower = steps.RotateExchangeStep.lower

    def one_row_narrower(self):
        (op,) = lower(self)
        (region,) = op.writes
        op.writes = (Region(region.rows[:-1], region.offset,
                            region.nbytes),)
        return [op]
    monkeypatch.setattr(steps.RotateExchangeStep, "lower", one_row_narrower)
    (label,) = _alltoall_mismatches()
    assert label.startswith("RotateExchange")


# ----------------------------------------------------------------------
# (d) a compiled program writes the bytes its lowered ops write
# ----------------------------------------------------------------------
def _spans(regions) -> dict:
    """``{pe: merged [lo, hi) columns}`` that ``regions`` cover."""
    spans: dict[int, list] = {}
    for region in regions:
        for pe in np.asarray(region.rows).tolist():
            spans.setdefault(pe, []).append((region.offset, region.end))
    merged = {}
    for pe, intervals in spans.items():
        out: list[tuple[int, int]] = []
        for lo, hi in sorted(intervals):
            if out and lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        merged[pe] = out
    return merged


def _uncovered(regions, cover) -> list:
    """``(pe, lo, hi)`` runs of ``regions`` that no region of ``cover``
    writes."""
    by_pe = _spans(cover)
    return [(pe, lo, hi) for pe, spans in _spans(regions).items()
            for lo, hi in spans
            if not any(a <= lo and hi <= b for a, b in by_pe.get(pe, ()))]


def _write_problems(plan) -> list:
    """Where ``plan``'s compiled program breaks the write invariant:
    its ops must write exactly the bytes its lowered ops write, each
    lowered op's bytes must be written by the compiled op that absorbed
    it or a later one, and every fan-out must be a fill."""
    lowered = [op for step in plan.steps for op in step.lower()]
    compiled = compile_plan(plan).ops
    writes = lambda ops: [region for op in ops for region in op.writes]
    problems = []
    if _spans(writes(compiled)) != _spans(writes(lowered)):
        problems.append("write union")
    # Fusion concatenates the labels of the ops it absorbs, in order,
    # and every lowered op carries one label.
    owner = [j for j, op in enumerate(compiled) for _ in op.labels]
    assert len(owner) == len(lowered)
    problems += [f"lowered op {i} uncovered" for i, (op, j)
                 in enumerate(zip(lowered, owner))
                 if _uncovered(op.writes, writes(compiled[j:]))]
    problems += [f"{op.describe()} is no fill" for op in compiled
                 if isinstance(op, FanoutScratchOp) and not op._fills]
    return problems


@pytest.mark.parametrize("geometry,shape", [(G64, (4, 4, 4)), (G64, (8, 8)),
                                            (G64, (4, 8)), (G256, (256,))],
                         ids=lambda v: str(v) if isinstance(v, tuple) else "")
def test_compiled_programs_write_what_their_lowered_ops_write(geometry,
                                                              shape):
    """Every shipped plan, on full and partial bitmaps, in-place
    AllReduce included: dropping an op's writes is only legal when a
    later op of the same program rewrites them."""
    manager = HypercubeManager(DimmSystem(geometry), shape=shape)
    for dims in _bitmaps(len(shape)):
        for dtype in (INT64, FLOAT32):
            for rung, plan, _ in _plans(manager, dims, dtype):
                assert not _write_problems(plan), (dims, dtype.name,
                                                   plan.primitive, rung)


def test_a_drop_that_leaves_bytes_unwritten_fails_the_check(monkeypatch):
    # A rule that drops every rotate ahead of a fold would drop the one
    # a disjoint AllReduce leaves in its source, whose bytes no later op
    # rewrites.
    monkeypatch.setattr(program_mod, "_chainable",
                        lambda a, b, later: True)
    manager = HypercubeManager(DimmSystem(G64), shape=(8, 8))
    plan = build_plan("allreduce", manager, "11", 64 * 16, 0, 64 * 16,
                      INT64, SUM, ABLATION_LADDER[-1])
    assert _write_problems(plan) == ["write union", "lowered op 0 uncovered"]


if __name__ == "__main__":
    rows = {f"{label}/{name}": ledger_row(run_app(entry, backend()))
            for label, entry in e2e_apps().items()
            for name, backend in BACKENDS.items()}
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
