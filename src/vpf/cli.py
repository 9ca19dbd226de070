"""Command-line front end.

Commands: compute, eval, verify, oracle, dedekind.
Exit codes: 0 ok, 1 verification mismatch, 2 NotPointed,
3 UnsupportedMultiplePole, 4 parse/usage, 5 SanityFailure, 6 LevelOverflow.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import cyclotomic
from .errors import MatrixParseError, VpfError
from .genfun import dedekind_sum
from .matrixops import int_from_text, rat_from_text
from .oracle import count_points
from .pipeline import ProblemSpec, compute, evaluate, verify_box
from .render import render_expr_latex, render_expr_text
from .serialize import cyc_to_json, expr_from_json, expr_to_json


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let b vectors and boxes starting with a negative number ("-1,4",
        # "-3..8,-3..8") parse as positionals without an explicit "--".
        self._negative_number_matcher = re.compile(r"^-\d[\d.,-]*$")

    # argparse exits with 2 on usage errors; the documented code is 4.
    def error(self, message):
        raise MatrixParseError(message)


def parse_matrix_file(path: str) -> ProblemSpec:
    """Matrix file: '#' comments, header "m d", then m rows of d integers."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixParseError(f"{path}: empty matrix file")
    no, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise MatrixParseError(f"{path}:{no}: header must be 'm d'")
    m, d = (int_from_text(f, f"{path}:{no}: header") for f in fields)
    body = lines[1:]
    if len(body) != m:
        raise MatrixParseError(
            f"{path}: expected {m} matrix rows, found {len(body)}")
    rows = []
    for no, ln in body:
        toks = ln.split()
        if len(toks) != d:
            raise MatrixParseError(
                f"{path}:{no}: expected {d} entries, found {len(toks)}")
        rows.append(tuple(int_from_text(tok, f"{path}:{no}: column {col}:")
                          for col, tok in enumerate(toks, 1)))
    try:
        return ProblemSpec.from_rows(rows)
    except MatrixParseError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    return tuple(int_from_text(t, f"{what} '{text}': entry")
                 for t in text.split(","))


def parse_box(text: str):
    """Per-row ranges lo..hi as the corners (lo, ...), (hi, ...)."""
    ranges = [[int_from_text(t, f"box range '{part}': corner")
               for t in part.partition("..")[::2]] for part in text.split(",")]
    return tuple(zip(*ranges))


def parse_order(text: str):
    """A 1-based row list as 0-based indices; `compute` checks the order."""
    return tuple(i - 1 for i in parse_ints(text, "row order"))


def _read_expr_json(path: str):
    """A saved expression; any unreadable or malformed file is a parse error."""
    try:
        with open(path) as fh:
            return expr_from_json(json.load(fh))
    except (OSError, UnicodeError, json.JSONDecodeError,
            MatrixParseError) as exc:
        raise MatrixParseError(f"{path}: bad expression JSON: {exc}") from exc


def _load_expr(path: str):
    """An expression JSON if the file looks like JSON, else compute from matrix."""
    try:
        with open(path) as fh:
            while (head := fh.read(1)).isspace():
                pass
    except (OSError, UnicodeError) as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc
    if head == "{":
        return None, _read_expr_json(path)
    spec = parse_matrix_file(path)
    return spec, compute(spec)


def cmd_compute(args) -> int:
    spec = parse_matrix_file(args.matrix)
    order = parse_order(args.order) if args.order else None
    expr = compute(spec, order=order)
    if args.format == "json":
        print(json.dumps(expr_to_json(expr), indent=2))
    elif args.format == "latex":
        print(render_expr_latex(expr))
    else:
        print(render_expr_text(expr))
    return 0


def cmd_eval(args) -> int:
    b = parse_ints(args.b, "parameter vector b")
    _, expr = _load_expr(args.path)
    print(evaluate(expr, b))
    return 0


def cmd_verify(args) -> int:
    spec = parse_matrix_file(args.matrix)
    lo, hi = parse_box(args.box)
    expr = _read_expr_json(args.expr) if args.expr else compute(spec)
    report = verify_box(spec, expr, lo, hi)
    print(f"checked {report.points_checked} points in {report.seconds:.3f}s; "
          f"{len(report.mismatches)} mismatches")
    for b, expected, got in report.mismatches[:50]:
        print(f"  mismatch at b={list(b)}: oracle={expected} formula={got}")
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    spec = parse_matrix_file(args.matrix)
    print(count_points(spec, parse_ints(args.b, "parameter vector b")))
    return 0


def cmd_dedekind(args) -> int:
    factors = [rat_from_text(c, "--factor") for c in args.factor]
    factors += [cyclotomic.cyc_from_phase(rat_from_text(q, "--factor-phase"))
                for q in args.factor_phase]
    value = dedekind_sum(int_from_text(args.n, "n"),
                         rat_from_text(args.a_phase, "a_phase"), factors,
                         int_from_text(args.beta, "beta"))
    if args.format == "json":
        print(json.dumps(cyc_to_json(value)))
    else:
        print(value)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="vpf",
                description="Exact vector partition functions by iterated "
                            "partial fraction decomposition")
    p.add_argument("--max-level", default=None,
                   help="cyclotomic level cap (env VPF_MAX_LEVEL)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="closed form for a matrix file")
    c.add_argument("matrix")
    c.add_argument("--format", choices=["text", "json", "latex"], default="text")
    c.add_argument("--order", default=None,
                   help="comma-separated 1-based row permutation (elimination order)")
    c.set_defaults(func=cmd_compute)

    e = sub.add_parser("eval", help="evaluate phi_A(b)")
    e.add_argument("path", help="matrix file or expression JSON")
    e.add_argument("b", help="comma-separated integers")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="compare closed form against the oracle on a box")
    v.add_argument("matrix")
    v.add_argument("box", help="per-row ranges, e.g. '-3..8,-3..8'")
    v.add_argument("--expr", default=None, help="expression JSON to verify")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="oracle count for one b")
    o.add_argument("matrix")
    o.add_argument("b", help="comma-separated integers")
    o.set_defaults(func=cmd_oracle)

    d = sub.add_parser("dedekind", help="generalized Dedekind sum S_{f,a}(n)")
    d.add_argument("n")
    d.add_argument("a_phase", help="rational phase a with a = e(a_phase)")
    d.add_argument("beta")
    d.add_argument("--factor", action="append", default=[],
                   help="rational coefficient c of a linear factor (1 - c w); repeatable")
    d.add_argument("--factor-phase", action="append", default=[],
                   help="phase q of a linear factor (1 - e(q) w); repeatable")
    d.add_argument("--format", choices=["text", "json"], default="text")
    d.set_defaults(func=cmd_dedekind)
    return p


def _level_cap(cap):
    """--max-level, else VPF_MAX_LEVEL, else the default cap."""
    if cap is not None:
        return int_from_text(cap, "--max-level")
    text = os.environ.get("VPF_MAX_LEVEL")
    return (int_from_text(text, "VPF_MAX_LEVEL") if text
            else cyclotomic.DEFAULT_LEVEL_CAP)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        with cyclotomic.level_cap(_level_cap(args.max_level)):
            return args.func(args)
    except VpfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ZeroDivisionError as exc:
        print(f"error: DivisionByZero: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
