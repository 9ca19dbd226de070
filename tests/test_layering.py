"""Module boundaries inside the package: no vpf module imports a private
(underscore) name from another, so each private helper has one owner, and
every module-level function has a caller outside the tests."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vpf"
#: Where a function of the package may be used: the package itself, the
#: benchmark and the tools.  A function used only by the tests belongs in
#: tests/helpers.py.
CALLERS = (SRC, ROOT / "vpfbench", ROOT / "tools")


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "vpf"
        for alias in node.names:
            if inside and alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_imports_between_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def _used_names(stmt):
    """The names a top-level statement loads, as a variable or attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_has_a_caller_outside_the_tests():
    statements = {}
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            statements.update(((path, i), s) for i, s in enumerate(tree.body))
    used = {key: set(_used_names(s)) for key, s in statements.items()}
    unused = [f"{path.name}: {s.name}" for (path, i), s in statements.items()
              if path.parent == SRC
              and isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not any(s.name in names for key, names in used.items()
                          if key != (path, i))]
    assert unused == []
