"""JSON encoding/decoding of results.

Rationals serialize as decimal strings "p/q" (or "p" when q = 1);
cyclotomics as {"level": N, "coeffs": [...]} with phi(N) coefficients.  The
readers take integers only as JSON integers and rationals only as JSON
integers or strings that matrixops.rat_from_text reads, so a float, a bool,
a decimal point, an exponent or a space is rejected, never rounded.
"""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic, cyc_triple
from .errors import DimensionMismatch, MatrixParseError, NotPointed
from .matrixops import int_vector, rat_from_text
from .params import (
    AffineForm,
    Guard,
    ParamPoly,
    PhaseForm,
    Summand,
    Term,
    collapse_terms,
)
from .pipeline import PreprocessReport, ProblemSpec, ResultExpr

#: Versions of the expression JSON.  Schemas 1 and 2 held the engine's terms
#: (phase, poly, guards; schema 1 with a separate cyclotomic "scalar") and
#: are collapsed into summands on load; schema 3 holds the summands, with
#: tables of rationals as coefficients.  Schema 4 is schema 3 plus
#: "phases", one rational per column, and is written only for a spec with a
#: nonzero column phase, so an unphased document stays schema 3.
SCHEMA = 3
PHASED_SCHEMA = 4


def rat_to_json(q: Fraction) -> str:
    return str(Fraction(q))


def rat_from_json(s) -> Fraction:
    if isinstance(s, str):
        return rat_from_text(s, "rational")
    (n,) = int_vector((s,), "rational")
    return Fraction(n)


def cyc_to_json(x: Cyclotomic) -> dict:
    return {"level": x.level, "coeffs": [rat_to_json(c) for c in x.coeffs]}


def cyc_from_json(obj) -> Cyclotomic:
    x = Cyclotomic(obj["level"], [rat_from_json(c) for c in obj["coeffs"]])
    if len(obj["coeffs"]) != len(x.num):
        raise MatrixParseError(f"level {x.level} takes {len(x.num)} coefficients")
    return x


def guard_to_json(g: Guard) -> dict:
    return {"coeffs": list(g.form.coeffs), "const": g.form.const, "sense": g.sense}


def guard_from_json(obj) -> Guard:
    (const,) = int_vector((obj["const"],), "guard constant")
    return Guard(AffineForm(int_vector(obj["coeffs"], "guard"), const),
                 obj["sense"])


def phase_from_json(obj) -> PhaseForm:
    return PhaseForm.from_coeffs([rat_from_json(c) for c in obj["coeffs"]])


def poly_from_json(obj, arity: int) -> ParamPoly:
    """A schema-1 or schema-2 poly, whose monomials never repeat."""
    monos = {}
    for mono in obj:
        exps = int_vector(mono["exps"], "exponents")
        if exps in monos:
            raise MatrixParseError(f"the monomial of exponents {exps} repeats")
        monos[exps] = cyc_triple(cyc_from_json(mono["coeff"]))
    return ParamPoly(arity, monos)


def term_from_json(obj, arity: int, schema: int = 2) -> Term:
    """A schema-1 or schema-2 term over `arity` parameters.  A schema-1
    term's separate scalar is folded into its poly."""
    poly = poly_from_json(obj["poly"], arity)
    if schema == 1:
        poly = poly.scale(cyc_triple(cyc_from_json(obj["scalar"])))
    return Term(
        phase_from_json(obj["phase"]),
        poly,
        tuple(guard_from_json(g) for g in obj["guards"]),
    )


def entry_to_json(x):
    """A table entry: a rational string, or a cyclotomic object."""
    return cyc_to_json(x) if isinstance(x, Cyclotomic) else rat_to_json(x)


def entry_from_json(obj):
    if isinstance(obj, dict):
        x = cyc_from_json(obj)
        return x.to_rational() if x.is_rational() else x
    return rat_from_json(obj)


def summand_to_json(s: Summand) -> dict:
    return {
        "guards": [guard_to_json(g) for g in s.guards],
        "modulus": s.modulus,
        "residue": list(s.residue),
        "poly": [{"exps": list(e), "table": [entry_to_json(x) for x in t]}
                 for e, t in s.poly],
    }


def summand_from_json(obj) -> Summand:
    """A summand with its guards and entries read; its other integers and
    its shape are checked by the ResultExpr it goes into."""
    return Summand(
        tuple(guard_from_json(g) for g in obj["guards"]),
        obj["modulus"],
        tuple(obj["residue"]),
        tuple((tuple(mono["exps"]),
               tuple(entry_from_json(x) for x in mono["table"]))
              for mono in obj["poly"]))


def spec_from_json(obj, schema: int) -> ProblemSpec:
    """The spec of a document with a "matrix": no zero column, and for
    schema 4 the "phases"; anything else is a MatrixParseError."""
    phases = (tuple(rat_from_json(q) for q in obj["phases"])
              if schema == PHASED_SCHEMA else ())
    try:
        return ProblemSpec.from_rows(obj["matrix"], phases)
    except NotPointed as exc:
        raise MatrixParseError(f"the matrix is not pointed: {exc}") from exc


def expr_to_json(expr: ResultExpr) -> dict:
    phased = expr.spec is not None and any(expr.spec.phases)
    out = {"schema": PHASED_SCHEMA if phased else SCHEMA, "m": expr.m,
           "terms": [summand_to_json(s) for s in expr.terms]}
    if expr.spec is not None:
        out["matrix"] = [list(r) for r in expr.spec.entries]
    if phased:
        out["phases"] = [rat_to_json(q) for q in expr.spec.phases]
    if expr.report is not None:
        out["certificate"] = [rat_to_json(c) for c in expr.report.certificate]
        out["unimodular"] = [list(r) for r in expr.report.unimodular]
        out["normalized"] = [list(r) for r in expr.report.normalized]
    return out


def expr_from_json(obj) -> ResultExpr:
    """Reads schemas 3 and 4, and schemas 2 and 1 (no "schema" key), whose
    terms are collapsed into summands as `compute` does.  A document with a
    "matrix" gets its spec back, with the column phases of schema 4, which
    must have both.  Any other schema and any malformed document is a
    MatrixParseError."""
    try:
        (schema,) = int_vector((obj["schema"] if "schema" in obj else 1,),
                               "schema")
        if schema not in (1, 2, SCHEMA, PHASED_SCHEMA):
            raise MatrixParseError(f"unknown expression schema {schema!r}")
        m = obj["m"]  # ResultExpr checks it
        if schema >= SCHEMA:
            terms = tuple(summand_from_json(s) for s in obj["terms"])
        else:
            # Every engine term was written, so each stands for itself.
            terms = collapse_terms(
                [term_from_json(t, m, schema) for t in obj["terms"]], 0)
        spec = None
        if "matrix" in obj or schema == PHASED_SCHEMA:
            spec = spec_from_json(obj, schema)
        report = None
        if "unimodular" in obj:
            report = PreprocessReport(
                tuple(rat_from_json(c) for c in obj.get("certificate", [])),
                tuple(int_vector(r, "unimodular row") for r in obj["unimodular"]),
                tuple(int_vector(r, "normalized row")
                      for r in obj.get("normalized", [])),
            )
        return ResultExpr(m, terms, spec, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            DimensionMismatch) as exc:
        raise MatrixParseError(
            f"malformed expression: {type(exc).__name__}: {exc}") from exc
