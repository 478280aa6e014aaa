"""Tests for the public API surface, validation sweep, and CLI."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.engine
import repro.multihost
from repro import (
    ABLATION_LADDER,
    ALL_PRIMITIVES,
    BASELINE,
    CommResult,
    Communicator,
    DimmSystem,
    HypercubeManager,
    PidCommError,
)
from repro.__main__ import EXPERIMENTS, main
from repro.core import collectives
from repro.core.validation import verify_collectives
from repro.dtypes import INT32, MAX
from repro.errors import CollectiveError


@pytest.fixture
def manager():
    return HypercubeManager(DimmSystem.small(mram_bytes=1 << 16),
                            shape=(4, 8))


class TestApiSurface:
    def test_all_primitives_listed(self):
        assert len(ALL_PRIMITIVES) == 8

    def test_string_dtype_and_op_accepted(self, manager):
        system = manager.system
        src, dst = system.alloc(32), system.alloc(32)
        system.write_elements(0, src, np.arange(8, dtype=np.int32), INT32)
        result = Communicator(manager).allreduce(
            "10", 32, src_offset=src, dst_offset=dst, data_type="int32",
            reduction_type="max")
        assert isinstance(result, CommResult)
        assert result.seconds > 0

    def test_unknown_dtype_rejected(self, manager):
        with pytest.raises(CollectiveError, match="unknown data type"):
            Communicator(manager).alltoall(
                "10", 32, src_offset=0, dst_offset=0, data_type="quad",
                functional=False)

    def test_unknown_op_rejected(self, manager):
        with pytest.raises(CollectiveError, match="unknown reduce op"):
            Communicator(manager).allreduce(
                "10", 32, src_offset=0, dst_offset=0, reduction_type="xor",
                functional=False)

    def test_commresult_carries_plan_and_ledger(self, manager):
        result = Communicator(manager).alltoall(
            "10", 32, src_offset=0, dst_offset=32, functional=False)
        assert result.plan.primitive == "alltoall"
        assert result.ledger.total == pytest.approx(result.seconds)
        assert result.host_outputs is None

    def test_gather_outputs_typed(self, manager):
        system = manager.system
        src = system.alloc(16)
        for pe in manager.all_pes:
            system.write_elements(pe, src, np.array([pe, pe],
                                                    dtype=np.int32), INT32)
        result = Communicator(manager).gather(
            "10", 16, src_offset=src, data_type="int32")
        out = result.host_outputs[0]
        assert out.dtype == np.int32

    def test_baseline_config_through_api(self, manager):
        fast = Communicator(manager).alltoall(
            "10", 1 << 12, src_offset=0, dst_offset=0, functional=False)
        slow = Communicator(manager).alltoall(
            "10", 1 << 12, src_offset=0, dst_offset=0, config=BASELINE,
            functional=False)
        assert slow.plan.meta["config"] == "Baseline"
        assert fast.plan.meta["config"] == "+CM"

    def test_broadcast_payload_size_checked(self, manager):
        with pytest.raises(PidCommError):
            Communicator(manager).broadcast(
                "10", 16, dst_offset=0,
                payloads={i: np.arange(1) for i in range(8)})


#: Snapshot of the exported public API.  A redesign that renames,
#: drops, or re-types anything here must update this table *and* the
#: docs -- the point is that it fails loudly, not silently.
EXPECTED_EXPORTS = {
    "DimmSystem", "DimmGeometry", "MachineParams", "HypercubeManager",
    "OptConfig", "BASELINE", "PR_ONLY", "PR_IM", "FULL", "ABLATION_LADDER",
    "Schedule",
    "Communicator", "CommRequest", "CommResult", "CommFuture",
    "BatchResult", "PlanCache", "EngineStats", "SessionConfig",
    "CollectiveServer", "Session", "TenantSpec",
    "FaultInjector", "FaultSpec", "RetryPolicy", "ReliabilityPolicy",
    "RELIABLE", "FAIL_FAST",
    "ALL_PRIMITIVES", "ALL_TYPES", "ALL_OPS",
    "dtype_by_name", "op_by_name", "PidCommError",
}

_SESSION_COMMON = (
    "(self, comm_dimensions: 'str | Sequence[int]', total_data_size: 'int',"
    " *, {buffers} data_type: 'DataType | str' = 'int64',{op}"
    " config: 'OptConfig | None' = None,"
    " functional: 'bool | None' = None) -> 'CommResult'"
)
_SRC_DST = "src_offset: 'int' = 0, dst_offset: 'int' = 0,"
_OP = " reduction_type: 'ReduceOp | str' = 'sum',"
_PAYLOADS = ("dst_offset: 'int' = 0,",
             " payloads: 'Mapping[int, np.ndarray] | None' = None,")

EXPECTED_SESSION_SIGNATURES = {
    "alltoall": _SESSION_COMMON.format(buffers=_SRC_DST, op=""),
    "allgather": _SESSION_COMMON.format(buffers=_SRC_DST, op=""),
    "reduce_scatter": _SESSION_COMMON.format(buffers=_SRC_DST, op=_OP),
    "allreduce": _SESSION_COMMON.format(buffers=_SRC_DST, op=_OP),
    "gather": _SESSION_COMMON.format(buffers="src_offset: 'int' = 0,", op=""),
    "reduce": _SESSION_COMMON.format(buffers="src_offset: 'int' = 0,",
                                     op=_OP),
    "scatter": (
        "(self, comm_dimensions: 'str | Sequence[int]',"
        " total_data_size: 'int', *, dst_offset: 'int' = 0,"
        " data_type: 'DataType | str' = 'int64',"
        " payloads: 'Mapping[int, np.ndarray] | None' = None,"
        " config: 'OptConfig | None' = None,"
        " functional: 'bool | None' = None) -> 'CommResult'"),
    "broadcast": (
        "(self, comm_dimensions: 'str | Sequence[int]',"
        " total_data_size: 'int', *, dst_offset: 'int' = 0,"
        " data_type: 'DataType | str' = 'int64',"
        " payloads: 'Mapping[int, np.ndarray] | None' = None,"
        " config: 'OptConfig | None' = None,"
        " functional: 'bool | None' = None) -> 'CommResult'"),
    "submit": ("(self, requests: 'Sequence[CommRequest]',"
               " functional: 'bool | None' = None) -> 'BatchResult'"),
    "run": ("(self, request: 'CommRequest',"
            " functional: 'bool | None' = None) -> 'CommResult'"),
}

#: The value objects' fields: a schedule holds the decisions somebody
#: makes per shape, the session config everything a session is built
#: from (and nothing is configured anywhere else).
EXPECTED_SCHEDULE_FIELDS = ["tile_bytes", "elide", "rung"]
EXPECTED_SESSION_FIELDS = [
    "config", "functional", "cache_size", "reliability", "fault_injector",
    "backend", "execution", "stream_tile_bytes", "parallel_workers",
    "autotune", "elide_transfers"]


class TestApiSnapshot:
    """Exported names + signatures, pinned so redesigns fail loudly."""

    def test_exported_names_match_snapshot(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing {name}"

    def test_session_signatures_match_snapshot(self):
        for name, expected in EXPECTED_SESSION_SIGNATURES.items():
            actual = str(inspect.signature(getattr(Communicator, name)))
            assert actual == expected, (
                f"Communicator.{name} signature drifted:\n{actual}")

    def test_value_object_fields_match_snapshot(self):
        assert [f.name for f in dataclasses.fields(repro.Schedule)] \
            == EXPECTED_SCHEDULE_FIELDS
        assert [f.name for f in dataclasses.fields(repro.SessionConfig)] \
            == EXPECTED_SESSION_FIELDS

    def test_session_buffer_arguments_keyword_only(self):
        # The redesign's contract: offsets and payloads never positional.
        for name in ("alltoall", "allgather", "reduce_scatter", "allreduce",
                     "scatter", "gather", "reduce", "broadcast"):
            sig = inspect.signature(getattr(Communicator, name))
            for pname in ("src_offset", "dst_offset", "payloads"):
                if pname in sig.parameters:
                    assert (sig.parameters[pname].kind
                            is inspect.Parameter.KEYWORD_ONLY), (
                        f"Communicator.{name}({pname}) must be keyword-only")


class TestBenchmarkTracerTargets:
    """The end-to-end benchmark's tracer wraps library callables by name.

    ``benchmarks/e2e/tracer.py`` resolves each ``(module, class,
    attribute)`` of its ``LAYERS`` table through ``vars(owner)[attr]``
    and refuses static/class methods and properties, so a refactor
    that drops, inherits or re-wraps a listed callable must fail here,
    not only in the traced benchmark run.
    """

    def test_every_layer_target_resolves_to_a_plain_function(
            self, monkeypatch):
        path = (Path(__file__).resolve().parents[1]
                / "benchmarks" / "e2e" / "tracer.py")
        spec = importlib.util.spec_from_file_location("e2e_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracer)
        spec.loader.exec_module(tracer)
        broken = []
        for metric, targets in tracer.LAYERS.items():
            for module, cls, attr in targets:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                target = vars(owner).get(attr) if owner is not None \
                    else None
                if not callable(target) or isinstance(
                        target, (staticmethod, classmethod, property)):
                    broken.append(f"{metric}: {module}.{cls}.{attr}")
        assert not broken, broken


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Documented entry points that no program file imports, each with the
#: document that tells a reader to run it.
ENTRY_POINTS = {
    "repro.core.validation": "docs/reproducing.md",
    "repro.analysis.sensitivity": "docs/cost_model.md",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> set[str]:
    """Every module ``path`` imports, relative imports resolved, with
    each dotted name's parent packages (importing them is implied)."""
    package = None
    if SRC in path.parents:
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {".".join(name.split(".")[:cut]) for name in names
            for cut in range(1, name.count(".") + 2)}


class TestReachable:
    """Every ``repro`` module is reached by a program file.

    Tests do not count: a module only tests import is a second door
    nothing walks through.  The program files are every ``.py`` under
    ``src/``, ``examples/``, ``benchmarks/`` and ``tools/``.
    """

    def test_every_module_is_imported_or_an_entry_point(self):
        files = [path for top in ("src", "examples", "benchmarks", "tools")
                 for path in sorted((ROOT / top).rglob("*.py"))]
        modules = {_module_name(path): path
                   for path in files if SRC in path.parents}
        reached: set[str] = set()
        for path in files:
            own = _module_name(path) if SRC in path.parents else None
            reached.update(_imports(path) - {own})
        unreached = sorted(name for name in modules
                           if name not in reached
                           and name.rpartition(".")[2] != "__main__"
                           and name not in ENTRY_POINTS)
        assert not unreached, unreached

    @pytest.mark.parametrize("module", sorted(ENTRY_POINTS))
    def test_entry_points_are_documented(self, module):
        importlib.import_module(module)
        doc = (ROOT / ENTRY_POINTS[module]).read_text()
        assert module in doc or module.replace(".", "/") + ".py" in doc


class TestOneDoor:
    """One construction path, one primitive dispatch."""

    def test_stray_constructor_keywords_are_type_errors(self, manager):
        with pytest.raises(TypeError):
            Communicator(manager, backend="scalar")
        with pytest.raises(TypeError):
            repro.multihost.MultiHostSystem(2, config=BASELINE)

    @pytest.mark.parametrize("module",
                             [repro, repro.engine, repro.multihost])
    def test_every_exported_name_resolves(self, module):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing

    @pytest.mark.parametrize("config", ABLATION_LADDER,
                             ids=lambda c: c.label)
    def test_build_plan_matches_the_direct_planner(self, manager, config):
        m, c = manager, config
        direct = {
            "alltoall": collectives.plan_alltoall(m, "10", 64, 0, 64,
                                                  INT32, c),
            "allgather": collectives.plan_allgather(m, "10", 64, 0, 64,
                                                    INT32, c),
            "reduce_scatter": collectives.plan_reduce_scatter(
                m, "10", 64, 0, 64, INT32, MAX, c),
            "allreduce": collectives.plan_allreduce(m, "10", 64, 0, 64,
                                                    INT32, MAX, c),
            "scatter": collectives.plan_scatter(m, "10", 64, 64, INT32,
                                                None, c),
            "gather": collectives.plan_gather(m, "10", 64, 0, INT32, c),
            "reduce": collectives.plan_reduce(m, "10", 64, 0, INT32, MAX, c),
            "broadcast": collectives.plan_broadcast(m, "10", 64, 64, INT32,
                                                    None, c),
        }
        assert set(direct) == set(ALL_PRIMITIVES)
        for primitive, plan in direct.items():
            built = collectives.build_plan(primitive, m, "10", 64, 0, 64,
                                           INT32, MAX, c)
            assert built.primitive == primitive
            assert (built.estimate(m.system).seconds
                    == plan.estimate(m.system).seconds), primitive


class TestValidationSweep:
    def test_full_sweep_passes(self):
        report = verify_collectives()
        assert report.ok, str(report)
        # 4 dims x 4 rungs x 6 primitives, unchanged by the session port.
        assert report.checks == 96

    def test_report_str_mentions_status(self):
        report = verify_collectives(dims_list=("100",),
                                    configs=(BASELINE,))
        assert "OK" in str(report)

    def test_bad_dims_reported_not_raised(self):
        report = verify_collectives(dims_list=("10",))
        assert not report.ok
        assert "does not match shape" in report.failures[0]


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "table1" in out

    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PID-Comm" in out
        assert "regenerated in" in out

    def test_claims(self, capsys):
        from repro.analysis.paper_claims import CLAIMS
        assert main(["--claims"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("| `")]
        assert [row.split("`")[1] for row in rows] == [c.id for c in CLAIMS]

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_registry_complete(self):
        # Every evaluation artifact in DESIGN.md has a CLI entry.
        for name in ("table1", "table3", "fig04", "fig13", "fig14", "fig15",
                     "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                     "fig22", "fig23a", "fig23b"):
            assert name in EXPERIMENTS
