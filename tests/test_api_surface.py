"""Tests for the public API surface, validation sweep, and CLI."""

import ast
import dataclasses
import functools
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
    "submit": ("(self, requests: 'Sequence[CommRequest | NormalizedRequest]',"
               " functional: 'bool | None' = None) -> 'BatchResult'"),
    "run": ("(self, request: 'CommRequest',"
            " functional: 'bool | None' = None) -> 'CommResult'"),
}

#: The session config's fields: everything a session is built from
#: (and nothing is configured anywhere else).
EXPECTED_SESSION_FIELDS = [
    "config", "functional", "cache_size", "reliability", "fault_injector",
    "backend", "execution", "stream_tile_bytes", "parallel_workers",
    "elide_transfers"]


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
PROGRAM_DIRS = ("src", "examples", "benchmarks", "tools")

#: ``src/`` definitions (or module globals) that no program file reaches
#: but a reader does, each with the document that tells a reader to use
#: it and why it stays.  A module holding an entry is an entry point: no program file
#: needs to import it.  At most ten entries; a stale one (missing, or
#: reached anyway) fails :class:`TestReachable`.
ALLOWLIST = {
    "repro.core.validation:verify_collectives": (
        "docs/reproducing.md",
        "the installation self-test a reader runs by hand"),
    "repro.analysis.sensitivity:parameter_sensitivity": (
        "docs/cost_model.md",
        "the cost model's one-at-a-time sensitivity table"),
    "repro.core.hypercube:HypercubeManager.entangled_group_alignment": (
        "docs/cost_model.md",
        "the paper's entangled-group alignment (section IV-C) of a cube"),
    "repro.reliability.faults:FaultInjector.fail_rank": (
        "docs/reliability.md",
        "the permanent rank-failure call of the reliability API"),
    "repro.multihost.hierarchical:MultiHostSystem.read_pe": (
        "docs/multihost.md",
        "reads one global PE's buffer; the pair of write_pe"),
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
    for node in ast.walk(_parse(str(path), path.read_text())):
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


@functools.lru_cache(maxsize=None)
def _program_files() -> dict[Path, str]:
    return {path: path.read_text() for top in PROGRAM_DIRS
            for path in sorted((ROOT / top).rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _parse(name: str, text: str) -> ast.Module:
    return ast.parse(text, name)


@functools.lru_cache(maxsize=None)
def _reads(*nodes: ast.AST
           ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(bare names, attribute names, method names) the code under
    ``nodes`` reads.

    A method name is an attribute that is called (``x.name(...)``) or
    read off ``self`` or ``cls`` (``initializer=self._init_worker``).
    An identifier-shaped string constant counts as all three: it is how
    ``getattr``, ``__all__`` and the benchmark's tracer spell a name.
    """
    names: set[str] = set()
    attrs: set[str] = set()
    methods: set[str] = set()
    for top in nodes:
        callees: set[int] = set()
        # ast.walk visits a call before its callee.
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    attrs.add(node.attr)
                    if id(node) in callees or (
                            isinstance(node.value, ast.Name)
                            and node.value.id in ("self", "cls")):
                        methods.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
                attrs.add(node.value)
                methods.add(node.value)
    return frozenset(names), frozenset(attrs), frozenset(methods)


def _is_property(node: ast.AST) -> bool:
    """Whether ``node`` is a property (or one of its setters)."""
    for deco in getattr(node, "decorator_list", ()):
        name = deco.attr if isinstance(deco, ast.Attribute) else \
            getattr(deco, "id", None)
        if name in ("property", "cached_property", "setter", "deleter"):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _file_facts(path: Path, text: str):
    """One program file's definitions and what its root code reads.

    Returns ``(defs, assigned, names, attrs, methods, aliases)``:
    ``defs`` maps ``module:qualname`` to ``(node, owner key or None)``
    and ``assigned`` lists ``module:name`` per module-level global (both
    empty outside ``src/``); ``names`` / ``attrs`` / ``methods`` are
    what the root code reads (:func:`_reads`); ``aliases`` maps
    ``import ... as`` names to the originals.  The root code of a
    ``src/`` module is what runs at import: module and class bodies,
    decorators and defaults, with ``__all__`` and ``__main__``; of any
    other program file, all of it.  A bare name in a class body reads
    as an attribute and a method too (``alias = method``).
    """
    tree = _parse(str(path), text)
    defs: dict[str, tuple[ast.AST, str | None]] = {}
    assigned: list[str] = []
    roots: list[ast.AST] = []
    class_level: list[ast.AST] = []

    def collect(body, prefix, owner):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                key = prefix + stmt.name
                defs[key] = (stmt, owner)
                roots.extend(stmt.decorator_list)
                if isinstance(stmt, ast.ClassDef):
                    roots.extend(stmt.bases + stmt.keywords)
                    collect(stmt.body, key + ".", key)
                else:
                    roots.extend(stmt.args.defaults)
                    roots.extend(filter(None, stmt.args.kw_defaults))
                continue
            roots.append(stmt)
            if owner is not None:
                class_level.append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                assigned.extend(
                    prefix + node.id for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name))

    if SRC in path.parents:
        collect(tree.body, _module_name(path) + ":", None)
    else:
        roots.append(tree)
    names, attrs, methods = _reads(*roots)
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    class_names = _reads(*class_level)[0]
    return (defs, assigned, names, attrs | class_names,
            methods | class_names, aliases)


def reachability(files: dict[Path, str], allowlist=ALLOWLIST):
    """Walk what the program files reach, by name, from their roots.

    A function or class is reached when reached code reads its name,
    bare or as an attribute.  A method is reached when its class is and
    reached code reads its name as a method (:func:`_reads`: calls it,
    reads it off ``self`` or ``cls``, spells it in a string or aliases
    it in a class body), or when it is a dunder; a property, or a class
    nested in a class, needs only an attribute read.  Reach is by name,
    so a method is reached whenever a method it overrides is.  Reached
    definitions spread reach through their bodies, and so do
    allowlisted ones.  The roots are each file's root code
    (:func:`_file_facts`).

    Returns ``(unreached, unread, stale)``: the outermost definitions
    nothing reaches, the module-level globals nothing reads (both as
    ``module:name``), and the allowlist entries that name neither, or
    one that is reached or read without them.
    """
    defs: dict[str, tuple[ast.AST, str | None]] = {}
    assigned: list[str] = []
    names: set[str] = set()
    attrs: set[str] = set()
    methods: set[str] = set()
    aliases: dict[str, str] = {}
    for path, text in files.items():
        (file_defs, file_assigned, file_names, file_attrs, file_methods,
         file_aliases) = _file_facts(path, text)
        defs.update(file_defs)
        assigned.extend(file_assigned)
        names |= file_names
        attrs |= file_attrs
        methods |= file_methods
        aliases.update(file_aliases)
    reached: set[str] = set()

    def read(node):
        node_names, node_attrs, node_methods = _reads(node)
        names.update(node_names)
        attrs.update(node_attrs)
        methods.update(node_methods)

    def is_read(key, owner, node):
        name = _defined_name(key)
        if owner is None:
            return name in names or name in attrs
        if name.startswith("__") and name.endswith("__"):
            return owner in reached
        by_attr = isinstance(node, ast.ClassDef) or _is_property(node)
        return owner in reached and name in (attrs if by_attr else methods)

    def spread():
        grew = True
        while grew:
            names.update(aliases[name] for name in names & aliases.keys())
            grew = False
            for key, (node, owner) in defs.items():
                if key not in reached and is_read(key, owner, node):
                    reached.add(key)
                    grew = True
                    if not isinstance(node, ast.ClassDef):
                        read(node)

    spread()
    read_unaided = names | attrs
    stale = sorted(key for key in allowlist
                   if key in reached
                   or key.partition(":")[2] in read_unaided
                   and key in assigned
                   or key not in defs and key not in assigned)
    for key in allowlist:
        if key in defs:
            reached.add(key)
            read(defs[key][0])
    spread()
    unreached = sorted(key for key, (_node, owner) in defs.items()
                       if key not in reached
                       and (owner is None or owner in reached))
    names |= attrs
    unread = sorted(key for key in assigned
                    if key.partition(":")[2] not in names
                    and not key.endswith("__") and key not in allowlist)
    return unreached, unread, stale


@functools.lru_cache(maxsize=None)
def _tree_reach():
    return reachability(_program_files())


def _entry_point(key: str) -> str:
    return key.partition(":")[0]


def _defined_name(key: str) -> str:
    return key.rpartition(":")[2].rpartition(".")[2]


@functools.lru_cache(maxsize=None)
def _imported_modules() -> frozenset[str]:
    """Every ``repro`` module some other program file imports."""
    imported: set[str] = set()
    for path in _program_files():
        own = _module_name(path) if SRC in path.parents else None
        imported.update(_imports(path) - {own})
    return frozenset(imported)


class TestReachable:
    """Every ``repro`` module, definition and global is reached by a
    program file, or allowlisted.

    Tests do not count: what only tests reach is a second door nothing
    walks through.  The program files are every ``.py`` under
    ``src/``, ``examples/``, ``benchmarks/`` and ``tools/``.
    """

    def test_every_module_is_imported_or_an_entry_point(self):
        modules = {_module_name(path)
                   for path in _program_files() if SRC in path.parents}
        entry_points = {_entry_point(key) for key in ALLOWLIST}
        unreached = sorted(name for name in modules
                           if name not in _imported_modules()
                           and name.rpartition(".")[2] != "__main__"
                           and name not in entry_points)
        assert not unreached, unreached

    @pytest.mark.parametrize(
        "module", sorted({_entry_point(key) for key in ALLOWLIST}))
    def test_entry_points_are_documented(self, module):
        """Each entry's document names it, and names its module too
        when no program file imports that module."""
        importlib.import_module(module)
        for key, (doc, reason) in ALLOWLIST.items():
            if _entry_point(key) != module:
                continue
            text = (ROOT / doc).read_text()
            assert reason and _defined_name(key) in text, key
            assert (module in _imported_modules() or module in text
                    or module.replace(".", "/") + ".py" in text), key

    def test_every_definition_is_reached_or_allowlisted(self):
        unreached, _unread, _stale = _tree_reach()
        assert not unreached, unreached

    def test_every_module_global_is_read(self):
        _unreached, unread, _stale = _tree_reach()
        assert not unread, unread

    def test_allowlist_is_short_and_current(self):
        _unreached, _unread, stale = _tree_reach()
        assert len(ALLOWLIST) <= 10
        assert not stale, stale


class TestReachabilityCheckCatches:
    """Mutation arms: each edit to a parsed copy of the tree must fail
    :func:`reachability` and name what it stranded."""

    MODULE = SRC / "repro" / "hw" / "timing.py"

    def _with(self, addition: str, replace: str = ""):
        files = dict(_program_files())
        text = files[self.MODULE]
        if replace:
            assert replace in text
            text = text.replace(replace, replace + addition, 1)
        else:
            text += addition
        files[self.MODULE] = text
        return reachability(files)

    def test_a_new_uncalled_function(self):
        unreached, _unread, _stale = self._with(
            "\n\ndef orphan_helper():\n    return 1\n")
        assert unreached == ["repro.hw.timing:orphan_helper"]

    def test_reach_is_transitive(self):
        unreached, _unread, _stale = self._with(
            "\n\ndef orphan_caller():\n    return orphan_callee()\n"
            "\n\ndef orphan_callee():\n    return 2\n")
        assert unreached == ["repro.hw.timing:orphan_callee",
                             "repro.hw.timing:orphan_caller"]

    def test_a_method_only_tests_call(self):
        # This file names the method, but tests are not program files.
        unreached, _unread, _stale = self._with(
            "\n    def only_tests_call_me(self):\n        return 0\n",
            replace="class CostLedger:\n")
        assert unreached == ["repro.hw.timing:CostLedger.only_tests_call_me"]

    def test_a_method_only_an_unrelated_attribute_read_names(self):
        # Root code reads ``other.shadowed`` off some other object, but
        # nothing calls the method or reads it off self or cls.
        unreached, _unread, _stale = self._with(
            "\n    _probe = staticmethod(lambda other: other.shadowed)\n"
            "\n    def shadowed(self):\n        return 0\n",
            replace="class CostLedger:\n")
        assert unreached == ["repro.hw.timing:CostLedger.shadowed"]

    def test_a_global_nothing_reads(self):
        _unreached, unread, _stale = self._with("\n\nORPHAN_LIMIT = 3\n")
        assert unread == ["repro.hw.timing:ORPHAN_LIMIT"]

    def test_a_stale_allowlist_entry(self):
        files = _program_files()
        unreached, _unread, stale = reachability(files, {
            **ALLOWLIST, "repro.hw.timing:price": ("", ""),
            "repro.hw.timing:GB": ("", ""),
            "repro.hw.timing:no_such_function": ("", "")})
        assert stale == ["repro.hw.timing:GB",
                         "repro.hw.timing:no_such_function",
                         "repro.hw.timing:price"]
        assert not unreached


class TestOneDoor:
    """One construction path, one primitive dispatch."""

    def test_stray_constructor_keywords_are_type_errors(self, manager):
        with pytest.raises(TypeError):
            Communicator(manager, backend="scalar")
        with pytest.raises(TypeError):
            repro.multihost.MultiHostSystem(2, config=BASELINE)
        with pytest.raises(TypeError):
            repro.SessionConfig(autotune="offline")

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
            "scatter": collectives.plan_scatter(m, "10", 64, 64, INT32, c),
            "gather": collectives.plan_gather(m, "10", 64, 0, INT32, c),
            "reduce": collectives.plan_reduce(m, "10", 64, 0, INT32, MAX, c),
            "broadcast": collectives.plan_broadcast(m, "10", 64, 64,
                                                    INT32, c),
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
