"""JSON encoding/decoding of results.

Rationals serialize as decimal strings "p/q" (or "p" when q = 1);
cyclotomics as {"level": N, "coeffs": [...]}.  The readers take integers
only as JSON integers and rationals only as strings or integers, so a float
is rejected, never rounded.
"""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic
from .errors import MatrixParseError
from .matrixops import int_vector
from .params import AffineForm, Guard, ParamPoly, PhaseForm, Term
from .pipeline import PreprocessReport, ResultExpr

#: Version of the expression JSON written here.  Schema 1 terms carried a
#: separate cyclotomic "scalar"; schema 2 folds it into "poly".
SCHEMA = 2


def rat_to_json(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rat_from_json(s) -> Fraction:
    if isinstance(s, str):
        return Fraction(s)
    (n,) = int_vector((s,), "rational")
    return Fraction(n)


def cyc_to_json(x: Cyclotomic) -> dict:
    return {"level": x.level, "coeffs": [rat_to_json(c) for c in x.coeffs]}


def cyc_from_json(obj) -> Cyclotomic:
    (level,) = int_vector((obj["level"],), "level")
    return Cyclotomic(level, tuple(rat_from_json(c) for c in obj["coeffs"]))


def guard_to_json(g: Guard) -> dict:
    return {"coeffs": list(g.form.coeffs), "const": g.form.const, "sense": g.sense}


def guard_from_json(obj) -> Guard:
    (const,) = int_vector((obj["const"],), "guard constant")
    return Guard(AffineForm(int_vector(obj["coeffs"], "guard"), const),
                 obj["sense"])


def phase_to_json(p: PhaseForm) -> dict:
    return {"coeffs": [rat_to_json(c) for c in p.coeffs]}


def phase_from_json(obj) -> PhaseForm:
    return PhaseForm(tuple(rat_from_json(c) for c in obj["coeffs"]))


def poly_to_json(p: ParamPoly) -> list:
    return [{"exps": list(e), "coeff": cyc_to_json(c)}
            for e, c in sorted(p.items(), key=lambda kv: kv[0])]


def poly_from_json(obj, arity: int) -> ParamPoly:
    return ParamPoly(arity, {
        int_vector(mono["exps"], "exponents"): cyc_from_json(mono["coeff"])
        for mono in obj})


def term_to_json(t: Term) -> dict:
    return {
        "phase": phase_to_json(t.phase),
        "poly": poly_to_json(t.poly),
        "guards": [guard_to_json(g) for g in t.guards],
    }


def term_from_json(obj, arity: int, schema: int = SCHEMA) -> Term:
    """A term over `arity` parameters; a phase, guard or monomial of any
    other length is a MatrixParseError.  A schema-1 term's separate scalar
    is folded into its poly."""
    poly = poly_from_json(obj["poly"], arity)
    if schema == 1:
        poly = poly.scale(cyc_from_json(obj["scalar"]))
    term = Term(
        phase_from_json(obj["phase"]),
        poly,
        tuple(guard_from_json(g) for g in obj["guards"]),
    )
    lengths = [len(term.phase.coeffs)] + [len(g.form.coeffs) for g in term.guards]
    lengths += [len(e) for e, _ in term.poly.items()]
    if any(n != arity for n in lengths):
        raise MatrixParseError(
            f"a term has lengths {lengths}, expected {arity}")
    return term


def expr_to_json(expr: ResultExpr) -> dict:
    out = {"schema": SCHEMA, "m": expr.m,
           "terms": [term_to_json(t) for t in expr.terms]}
    if expr.spec is not None:
        out["matrix"] = [list(r) for r in expr.spec.entries]
    if expr.report is not None:
        out["certificate"] = [rat_to_json(c) for c in expr.report.certificate]
        out["unimodular"] = [list(r) for r in expr.report.unimodular]
        out["normalized"] = [list(r) for r in expr.report.normalized]
    return out


def expr_from_json(obj) -> ResultExpr:
    """Reads schema 2, and schema 1 (no "schema" key).  Any other schema and
    any malformed document is a MatrixParseError."""
    try:
        (schema,) = int_vector((obj["schema"] if "schema" in obj else 1,),
                               "schema")
        if schema not in (1, SCHEMA):
            raise MatrixParseError(f"unknown expression schema {schema!r}")
        (m,) = int_vector((obj["m"],), "m")
        terms = tuple(term_from_json(t, m, schema) for t in obj["terms"])
        report = None
        if "unimodular" in obj:
            report = PreprocessReport(
                tuple(rat_from_json(c) for c in obj.get("certificate", [])),
                tuple(int_vector(r, "unimodular row") for r in obj["unimodular"]),
                tuple(int_vector(r, "normalized row")
                      for r in obj.get("normalized", [])),
            )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MatrixParseError(
            f"malformed expression: {type(exc).__name__}: {exc}") from exc
    return ResultExpr(m, terms, None, report)
