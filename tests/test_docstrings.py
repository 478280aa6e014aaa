"""Documentation hygiene: every public item carries a docstring, and
what the prose documents point at exists."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

SKIP_MODULES = {"repro.__main__"}


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        yield name, obj


def _all_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _all_modules() if not m.__doc__]
    assert not missing, missing


def test_every_public_class_and_function_documented():
    missing = []
    for module in _all_modules():
        for name, obj in _public_members(module):
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if meth_name.startswith("_"):
                        continue
                    if not inspect.isfunction(meth):
                        continue
                    if not inspect.getdoc(meth):
                        missing.append(
                            f"{module.__name__}.{name}.{meth_name}")
    assert not missing, f"{len(missing)} undocumented: {missing[:20]}"


# ----------------------------------------------------------------------
# Documentation references: back-ticked paths and dotted names resolve
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent
# benchmarks/e2e/README.md belongs to the benchmark and is not scanned.
DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md"))]
_TICKED = re.compile(r"`([^`\n]+)`")
_REPO_PATH = re.compile(
    r"(?:benchmarks|tools|examples|tests|docs)/[\w./*-]+"
    r"|BENCH_\w+\.json|[\w./-]+\.md")
_DOTTED = re.compile(r"repro(?:\.\w+)+")


def _path_exists(ref: str, doc: Path) -> bool:
    ref = ref.rstrip("/")
    return any(next(base.glob(ref), None) is not None
               for base in (ROOT, doc.parent))


def _name_resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_documentation_references_resolve():
    dangling = []
    for doc in DOC_FILES:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for ref in " ".join(_TICKED.findall(line)).split():
                ref = ref.split("::")[0]
                if _REPO_PATH.fullmatch(ref):
                    ok = _path_exists(ref, doc)
                elif _DOTTED.fullmatch(ref):
                    ok = _name_resolves(ref)
                else:
                    continue
                if not ok:
                    dangling.append(f"{doc.name}:{lineno} `{ref}`")
    assert not dangling, f"{len(dangling)} dangling: {dangling}"
