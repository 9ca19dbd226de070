"""The CLI examples in README.md are what the CLI prints, its Library
example gives the results its comments name, and its list of the `vpf`
namespace is `vpf.__all__`."""
from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import vpf
from vpf.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
#: (language, body) of every fenced block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _block(first_line: str) -> str:
    """The one fenced block whose first line starts with `first_line`."""
    (body,) = [b for _, b in BLOCKS if b.startswith(first_line)]
    return body


def _arrow_examples():
    """(argv, printed) for each command of the command list whose comment,
    continued on the lines below it, ends in "-> printed"."""
    commands = []
    for line in _block("vpf compute a2.mat ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            commands.append([command.split()[1:], comment])
        elif commands:
            commands[-1][1] += comment
    return [(argv, comment.rpartition("->")[2].strip())
            for argv, comment in commands if "->" in comment]


@pytest.fixture
def a2_dir(tmp_path, monkeypatch):
    """A working directory holding the README's a2.mat."""
    (tmp_path / "a2.mat").write_text(
        _block("# Kostant partition function of A2"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_a2_text_output(a2_dir, capsys):
    command, *printed = _block("$ vpf compute a2.mat\n").splitlines()
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_json_schema_example(tmp_path, capsys):
    (body,) = [b for lang, b in BLOCKS if lang == "json"]
    doc = json.loads(body)
    assert doc["matrix"] == [[1, 2]]
    path = tmp_path / "one_two.mat"
    path.write_text("1 2\n1 2\n", encoding="utf-8")
    assert main(["compute", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_arrow_examples_found():
    assert [argv[0] for argv, _ in _arrow_examples()] == ["eval", "dedekind"]


@pytest.mark.parametrize("argv, printed", _arrow_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_arrow_example(a2_dir, capsys, argv, printed):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == printed


def test_library_example():
    # Each top-level expression's repr is its comment, up to " (".
    body = _block("import vpf\n")
    lines, namespace, results = body.splitlines(), {}, []
    for stmt in ast.parse(body).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            results.append((repr(value), comment.partition(" (")[0]))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert [got for got, _ in results] == [want for _, want in results]
    assert [want for _, want in results] == ["Fraction(3, 1)", "True", "3"]


def test_namespace_list():
    (count, text), = re.findall(r"^`vpf` exports (\d+) names (.*?)\n\n",
                                README, re.M | re.S)
    names = re.findall(r"`(\w+)`", text.partition("):")[2])
    assert len(names) == int(count)
    assert sorted(names) == sorted(vpf.__all__)
