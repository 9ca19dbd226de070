"""Text and LaTeX rendering of closed forms."""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic
from .params import EQ_ZERO, AffineForm, Guard, Summand
from .pipeline import ResultExpr

_LETTERS = {1: ["b"], 2: ["a", "b"], 3: ["a", "b", "c"]}


def param_names(m: int) -> list[str]:
    """'b' for one parameter, 'a','b'(,'c') for two or three, b1.. beyond."""
    return _LETTERS.get(m, [f"b{i + 1}" for i in range(m)])


def render_affine(f: AffineForm, names) -> str:
    parts = []
    for c, name in zip(f.coeffs, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(("+", name))
        elif c == -1:
            parts.append(("-", name))
        else:
            parts.append(("+" if c > 0 else "-", f"{abs(c)}*{name}"))
    if f.const or not parts:
        parts.append(("+" if f.const >= 0 else "-", str(abs(f.const))))
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        out += sign + body
    return out


def render_guard(g: Guard, names) -> str:
    op = "=" if g.sense == EQ_ZERO else ">="
    return f"{render_affine(g.form, names)} {op} 0"


def _coeff(table, index: str):
    """(sign, body) of a coefficient table: one rational with its sign split
    off, one cyclotomic in parentheses, else every entry read at `index`."""
    x = table[0]
    if any(y != x for y in table[1:]):
        return "+", "[" + ", ".join(map(str, table)) + f"][{index}]"
    if isinstance(x, Cyclotomic):
        return "+", f"({x})"
    return ("-", str(-x)) if x < 0 else ("+", str(x))


def render_poly(poly, names, index: str) -> str:
    """sum of table * monomial over the (exponents, table) pairs."""
    if not poly:
        return "0"
    parts = []
    for exps, table in sorted(poly, key=lambda kv: kv[0], reverse=True):
        mono = "*".join(
            (name if e == 1 else f"{name}^{e}")
            for name, e in zip(names, exps) if e)
        sign, body = _coeff(table, index)
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        parts.append((sign, body))
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _split_lead(poly):
    """(c, poly / c) for the lead table c when it is one rational, or when
    poly is one monomial; else (None, poly)."""
    if not poly:
        return None, poly
    exps, lead = max(poly, key=lambda kv: kv[0])
    if len(poly) == 1:
        return lead, ((exps, (Fraction(1),)),)
    q = lead[0]
    if isinstance(q, Fraction) and all(x == q for x in lead[1:]):
        return lead, tuple((e, tuple(x * (1 / q) for x in t)) for e, t in poly)
    return None, poly


def render_summand(s: Summand, names) -> str:
    index = f"{render_affine(AffineForm(s.residue), names)} mod {s.modulus}"
    neg = False
    factors = []
    lead, poly = _split_lead(s.poly)
    if lead is not None:
        sign, body = _coeff(lead, index)
        neg = sign == "-"
        if body != "1":
            factors.append(body)
    poly = render_poly(poly, names, index)
    if poly != "1" or not factors:
        multi = any(ch in poly[1:] for ch in "+-")
        if (factors or neg) and multi:
            poly = f"({poly})"
        factors.append(poly)
    body = ("-" if neg else "") + " * ".join(factors)
    if s.guards:
        conds = " and ".join(render_guard(g, names) for g in s.guards)
        return f"{body} if {conds}"
    return body


def render_expr_text(expr: ResultExpr) -> str:
    names = param_names(expr.m)
    head = f"phi({', '.join(names)}) ="
    if not expr.terms:
        return head + " 0"
    lines = [head]
    for i, t in enumerate(expr.terms):
        lead = "    " if i == 0 else "  + "
        lines.append(lead + f"[{render_summand(t, names)}]")
    return "\n".join(lines)


def render_expr_latex(expr: ResultExpr) -> str:
    names = param_names(expr.m)
    head = f"\\phi({', '.join(names)}) ="
    if not expr.terms:
        return head + " 0"
    chunks = []
    for t in expr.terms:
        body = render_summand(t, names)
        body = body.replace("*", " ").replace(" mod ", " \\bmod ")
        if " if " in body:
            val, cond = body.split(" if ", 1)
            cond = cond.replace(" and ", ",\\ ").replace(">=", "\\ge")
            chunks.append(f"\\left[{val}\\right]_{{{cond}}}")
        else:
            chunks.append(body)
    return head + " " + " + ".join(chunks)
