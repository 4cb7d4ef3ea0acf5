"""Source hygiene for ``src/frontierfuzz``, checked with the stdlib ``ast``:
every module-level import is used, every ``__all__`` name resolves and is
used outside its own module, and every public function, class, method and
module-level constant is used by the engine itself, not only by tests.
These are the leftovers a deletion tends to leave behind, and the oracles
that belong in ``tests/``.  No test module subclasses an engine class: an
oracle is written from the contract in ``tests/reference.py``, not forked
from the engine."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frontierfuzz"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# The engine and the benchmark that drives it; tests are left out.
ENGINE_FILES = sorted(SRC.glob("*.py")) + [
    p for p in sorted((ROOT / "benchmarks").glob("*.py")) if not p.name.startswith("test_")
]


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _module_imports(tree: ast.Module):
    """(bound name, line) for each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_every_module_is_checked():
    assert {"campaign", "coverage", "mutation", "target"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    unused = [f"{name} (line {line})" for name, line in _module_imports(tree)
              if name not in used]
    assert not unused, f"{module}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    exports = _exports(_tree(module))
    assert len(exports) == len(set(exports)), f"{module}.__all__ repeats a name"
    loaded = importlib.import_module(f"frontierfuzz.{module}")
    missing = [name for name in exports if not hasattr(loaded, name)]
    assert not missing, f"{module}.__all__ names undefined attributes: {missing}"


def _names_used(path: Path) -> set[str]:
    """Every identifier a file reads, as a name or an attribute in load
    context, or as an import; an assignment's target is not a use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_used_elsewhere(module):
    # Another engine module, a test or a benchmark must use each export.
    own = SRC / f"{module}.py"
    files = [p for d in (SRC, ROOT / "tests", ROOT / "benchmarks")
             for p in sorted(d.glob("*.py")) if p != own]
    used = set().union(*map(_names_used, files))
    unused = [name for name in _exports(_tree(module)) if name not in used]
    assert not unused, f"{module}.__all__ names nothing else uses: {unused}"


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public top-level function, class and
    constant, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


@pytest.mark.parametrize("module", MODULES)
def test_public_definitions_used_by_the_engine(module):
    # A name only tests use is an oracle: it belongs in tests/reference.py.
    used = set().union(*map(_names_used, ENGINE_FILES))
    unused = [qualified for qualified, name in _public_definitions(_tree(module))
              if name not in used]
    assert not unused, f"{module}.py defines names only tests use: {unused}"


def test_no_test_module_subclasses_an_engine_class():
    forks = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        engine = set()  # names bound to frontierfuzz modules and to what they define
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("frontierfuzz"):
                engine.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                engine.update(alias.asname or "frontierfuzz" for alias in node.names
                              if alias.name.split(".")[0] == "frontierfuzz")
        for node in ast.walk(tree):
            for base in node.bases if isinstance(node, ast.ClassDef) else ():
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in engine:
                    forks.append(f"{path.name}: {node.name} (line {node.lineno})")
    assert not forks, f"test classes subclass engine classes: {forks}"
