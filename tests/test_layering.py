"""Module boundaries inside the package: no vpf module imports a private
(underscore) name from another, so each private helper has one owner, and
every function and method has a caller outside the tests."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from .test_bench_targets import _targets

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


def _used_names(node) -> Counter:
    """How often each name is loaded in `node`, as a variable or attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _defs(tree):
    """(name, node) of each module-level function and of each method,
    property and classmethod of a module-level class, dunders left out."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for s in tree.body:
        if isinstance(s, funcs):
            yield s.name, s
        elif isinstance(s, ast.ClassDef):
            yield from ((f"{s.name}.{f.name}", f) for f in s.body
                        if isinstance(f, funcs)
                        and not (f.name.startswith("__") and f.name.endswith("__")))


def test_every_function_has_a_caller_outside_the_tests():
    # Matched by name: a use anywhere but in the definition itself counts,
    # and so does the benchmark's wrapping an attribute of that name in its
    # traced round.
    used, defs = Counter(), []
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used += _used_names(tree)
            if path.parent == SRC:
                defs += [(path, name, node) for name, node in _defs(tree)]
    traced = {attr for *_, attr in _targets()}
    assert defs and traced
    unused = [f"{path.name}: {name}" for path, name, node in defs
              if node.name not in traced
              and used[node.name] == _used_names(node)[node.name]]
    assert unused == []
