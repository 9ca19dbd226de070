"""Text and LaTeX rendering of closed forms."""
from __future__ import annotations

from .cyclotomic import Cyclotomic
from .params import EQ_ZERO, AffineForm, Guard, ParamPoly, PhaseForm, Term
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


def render_phase(p: PhaseForm, names) -> str:
    parts = []
    for c, name in zip(p.coeffs, names):
        if c == 0:
            continue
        parts.append(name if c == 1 else f"{c}*{name}")
    return "e(" + " + ".join(parts) + ")"


def _render_coeff(c: Cyclotomic) -> str:
    return str(c) if c.is_rational() else f"({c})"


def render_poly(p: ParamPoly, names) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in sorted(p.items(), key=lambda kv: kv[0], reverse=True):
        mono = "*".join(
            (name if e == 1 else f"{name}^{e}")
            for name, e in zip(names, exps) if e)
        if not mono:
            body = _render_coeff(coeff)
            sign = "+"
            if coeff.is_rational() and coeff.to_rational() < 0:
                sign, body = "-", str(-coeff.to_rational())
        elif coeff == 1:
            sign, body = "+", mono
        elif coeff == -1:
            sign, body = "-", mono
        else:
            sign, body = "+", f"{_render_coeff(coeff)}*{mono}"
            if coeff.is_rational() and coeff.to_rational() < 0:
                sign, body = "-", f"{-coeff.to_rational()}*{mono}"
        parts.append((sign, body))
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _split_lead(p: ParamPoly):
    """(c, p / c) for the lead coefficient c when p / c has no new cyclotomic
    coefficients (c rational, or p one monomial), else (1, p)."""
    monos = dict(p.items())
    lead = monos[max(monos)] if monos else Cyclotomic.one()
    if len(monos) == 1:
        return lead, ParamPoly(p.arity, {max(monos): 1})
    if lead.is_rational():
        return lead, p.scale(1 / lead.to_rational())
    return Cyclotomic.one(), p


def render_term(t: Term, names) -> str:
    neg = False
    factors = []
    scalar, poly = _split_lead(t.poly)
    if scalar.is_rational():
        q = scalar.to_rational()
        if q < 0:
            neg = True
            q = -q
        if q != 1:
            factors.append(str(q))
    else:
        factors.append(f"({scalar})")
    if not t.phase.is_zero():
        factors.append(render_phase(t.phase, names))
    poly = render_poly(poly, names)
    if poly != "1" or not factors:
        multi = any(ch in poly[1:] for ch in "+-")
        if (factors or neg) and multi:
            poly = f"({poly})"
        factors.append(poly)
    body = ("-" if neg else "") + " * ".join(factors)
    if t.guards:
        conds = " and ".join(render_guard(g, names) for g in t.guards)
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
        lines.append(lead + f"[{render_term(t, names)}]")
    return "\n".join(lines)


def render_expr_latex(expr: ResultExpr) -> str:
    names = param_names(expr.m)
    head = f"\\phi({', '.join(names)}) ="
    if not expr.terms:
        return head + " 0"
    chunks = []
    for t in expr.terms:
        body = render_term(t, names)
        body = body.replace("*", " ")
        if " if " in body:
            val, cond = body.split(" if ", 1)
            cond = cond.replace(" and ", ",\\ ").replace(">=", "\\ge")
            chunks.append(f"\\left[{val}\\right]_{{{cond}}}")
        else:
            chunks.append(body)
    return head + " " + " + ".join(chunks)
