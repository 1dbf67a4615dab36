"""Source guards over the package: no unused import, no orphaned private
name, no public exception that the CLI would let escape as a traceback, and
no README reference to an attribute that does not exist."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "epifront"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _references(node, skip=None) -> set:
    """Names loaded (x) and attributes read (obj.x) under node, skipping the subtree `skip`."""
    found = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            found.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            found.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return found


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


@pytest.mark.parametrize("module", [name for name in MODULES if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = _references(tree)
    unused = sorted(name for name in _imported_names(tree) if name not in used)
    assert not unused, f"{module} imports unused names: {unused}"


def test_every_private_name_is_referenced():
    orphans = []
    for module, tree in MODULES.items():
        for name, node in _private_definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _references(other, skip=node) for other in MODULES.values()):
                orphans.append(f"{module}:{name}")
    assert not orphans, f"private names defined but never referenced: {orphans}"


def _handled_by_main() -> tuple:
    """The exception classes named in the except clauses of cli.main."""
    cli = importlib.import_module("epifront.cli")
    main = next(n for n in MODULES["cli.py"].body if isinstance(n, ast.FunctionDef) and n.name == "main")
    names = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.extend(t.id for t in types)
    return tuple(getattr(cli, name, None) or getattr(builtins, name) for name in names)


def test_every_public_exception_is_handled_by_main():
    handled = _handled_by_main()
    assert handled
    unhandled = []
    for module, tree in MODULES.items():
        loaded = importlib.import_module(f"epifront.{module[:-3]}" if module != "__init__.py" else "epifront")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            cls = getattr(loaded, node.name)
            if issubclass(cls, BaseException) and not issubclass(cls, handled):
                unhandled.append(f"{module}:{node.name}")
    assert not unhandled, f"exceptions that cli.main does not map to an exit code: {unhandled}"


def _tracer_hooks() -> list:
    """(module, attribute) of every HOOKS entry of the benchmark's tracer, read
    from its source (parsed, not imported: nothing is compiled or cached)."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    hooks = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    )
    return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in hooks.elts]


def test_every_benchmark_hook_resolves():
    # The benchmark traces the program by replacing these module attributes;
    # a name removed from src/ would leave its hook silently missing.
    hooks = _tracer_hooks()
    assert hooks
    missing = [f"{module}.{attr}" for module, attr in hooks if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"benchmark tracer hooks with no program attribute: {missing}"


README = Path(__file__).resolve().parents[1] / "README.md"
# A backticked dotted name, optionally called: `spectral._scaling`, `simulator.run(...)`.
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
_FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "txt", "tmp"}


def _resolve_head(name: str):
    """The object a reference's first name denotes: a module (epifront's own
    first), or a name defined in any epifront module; None when unknown."""
    for module in (f"epifront.{name}", name):
        try:
            return importlib.import_module(module)
        except ImportError:
            pass
    for module in MODULES:
        loaded = importlib.import_module(f"epifront.{module[:-3]}" if module != "__init__.py" else "epifront")
        if hasattr(loaded, name):
            return getattr(loaded, name)
    return None


def _resolves(ref: str) -> bool:
    head, *rest = ref.split(".")
    obj = _resolve_head(head)
    for i, name in enumerate(rest):
        if obj is None:
            return False
        if not hasattr(obj, name):
            # A dataclass field without a default is no class attribute.
            return i == len(rest) - 1 and name in getattr(obj, "__dataclass_fields__", {})
        obj = getattr(obj, name)
    return obj is not None


def test_every_readme_reference_resolves():
    # `module.attr` and `Class.attr` in the README name attributes that exist,
    # so the docs cannot keep naming an API after it is deleted.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    refs = sorted({ref for ref in _DOTTED.findall(text) if ref.rsplit(".", 1)[1] not in _FILE_SUFFIXES})
    assert refs
    broken = [ref for ref in refs if not _resolves(ref)]
    assert not broken, f"README names attributes that do not exist: {broken}"
