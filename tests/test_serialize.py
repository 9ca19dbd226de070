"""JSON round-trips for every serialized object."""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    Guard,
    MatrixParseError,
    ParamPoly,
    PhaseForm,
    ProblemSpec,
    Term,
    compute,
    cyc_from_phase,
    evaluate,
)
from vpf.params import EQ_ZERO, GE_ZERO
from vpf.serialize import (
    cyc_from_json,
    cyc_to_json,
    expr_from_json,
    expr_to_json,
    guard_from_json,
    guard_to_json,
    phase_from_json,
    phase_to_json,
    poly_from_json,
    poly_to_json,
    rat_from_json,
    rat_to_json,
    term_from_json,
    term_to_json,
)


DATA = Path(__file__).parent / "data"


def F(p, q=1):
    return Fraction(p, q)


class TestScalars:
    def test_rat(self):
        assert rat_to_json(F(3)) == "3"
        assert rat_to_json(F(-1, 2)) == "-1/2"
        for q in (F(0), F(5), F(-7, 3), F(22, 7)):
            assert rat_from_json(rat_to_json(q)) == q

    def test_cyc(self):
        for x in (Cyclotomic.one(), cyc_from_phase(F(1, 4)),
                  cyc_from_phase(F(1, 3)) * F(2, 5) + 1):
            obj = cyc_to_json(x)
            assert cyc_from_json(obj) == x
            # JSON-encodable as-is
            json.dumps(obj)


class TestComponents:
    def test_guard(self):
        for g in (Guard(AffineForm((1, -1), -1), GE_ZERO),
                  Guard(AffineForm((0, 1), 0), EQ_ZERO)):
            assert guard_from_json(guard_to_json(g)) == g

    def test_phase(self):
        p = PhaseForm((F(1, 4), F(0)))
        assert phase_from_json(phase_to_json(p)) == p

    def test_poly(self):
        p = ParamPoly(2, {(1, 0): 2, (0, 0): cyc_from_phase(F(1, 3))})
        assert poly_from_json(poly_to_json(p), 2) == p

    def test_term(self):
        t = Term(PhaseForm((F(1, 4), F(0))),
                 ParamPoly.from_affine(AffineForm((1, 0), 1)).scale(
                     cyc_from_phase(F(1, 4)) * F(1, 8)),
                 (Guard(AffineForm((0, 1), 0), GE_ZERO),))
        t2 = term_from_json(term_to_json(t), 2)
        assert t2 == t


class TestExpr:
    def test_roundtrip_evaluates_identically(self):
        for rows in ([(1, 1)], [(1, 0, 1), (0, 1, 1)], [(1, 2), (-1, 0)]):
            spec = ProblemSpec.from_rows(rows)
            expr = compute(spec)
            blob = json.dumps(expr_to_json(expr))
            back = expr_from_json(json.loads(blob))
            m = spec.m
            for b1 in range(-3, 6):
                bs = [(b1,)] if m == 1 else [(b1, b2) for b2 in range(-3, 6)]
                for b in bs:
                    assert evaluate(back, b) == evaluate(expr, b)

    def test_matrix_and_transform_recorded(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        obj = expr_to_json(compute(spec))
        assert obj["matrix"] == [[1, 2], [-1, 0]]
        assert "unimodular" in obj and "certificate" in obj

    @pytest.mark.parametrize("name, rows, box", [
        ("a2_schema1.json", [(1, 0, 1), (0, 1, 1)], [range(-3, 16)] * 2),
        ("p157_schema1.json", [(1, 5, 7)], [range(-3, 150)]),
    ])
    def test_schema1_file_evaluates_like_compute(self, name, rows, box):
        # Written by `vpf compute --format json` before terms lost "scalar".
        obj = json.loads((DATA / name).read_text())
        assert "schema" not in obj and "scalar" in obj["terms"][0]
        old = expr_from_json(obj)
        new = compute(ProblemSpec.from_rows(rows))
        assert len(old.terms) == len(new.terms)
        for b in product(*box):
            assert evaluate(old, b) == evaluate(new, b)

    def test_unknown_schema_rejected(self):
        obj = expr_to_json(compute(ProblemSpec.from_rows([(1, 1)])))
        assert obj["schema"] == 2
        for schema in (3, 0, "2", None, 2.0):
            with pytest.raises(MatrixParseError):
                expr_from_json({**obj, "schema": schema})

    @pytest.mark.parametrize("edit", [
        lambda o: o.update(m=1.9),
        lambda o: o.update(m=1.0),
        lambda o: o["terms"][0]["guards"][0]["coeffs"].__setitem__(0, 1.7),
        lambda o: o["terms"][0]["guards"][0].update(const=0.0),
        lambda o: o["terms"][0]["poly"][1]["exps"].__setitem__(0, 1.0),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(level=1.0),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=[0.1]),
        lambda o: o["terms"][0]["phase"].update(coeffs=[0.0]),
        lambda o: o.update(certificate=[0.5]),
        lambda o: o.update(unimodular=[[1.0]]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=["1/0"]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=["one"]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(level=0),
        lambda o: o["terms"][0]["guards"][0].update(sense="gt"),
        lambda o: o.pop("m"),
        lambda o: o.pop("terms"),
        lambda o: o["terms"][0].pop("phase"),
        lambda o: o["terms"][0]["guards"][0].pop("const"),
        lambda o: o["terms"][0]["poly"][0]["coeff"].pop("level"),
        lambda o: o.update(terms=5),
        lambda o: o["terms"].__setitem__(0, "term"),
        lambda o: o["terms"][0]["guards"][0].update(coeffs=1),
    ], ids=["float-m", "integral-float-m", "float-guard-coeff",
            "float-guard-const", "float-exponent", "float-level",
            "float-coeff", "float-phase", "float-certificate",
            "float-unimodular", "zero-denominator", "not-a-number",
            "level-0", "guard-sense", "no-m", "no-terms", "no-phase",
            "no-guard-const", "no-level", "terms-not-a-list",
            "term-not-an-object", "guard-coeffs-not-a-list"])
    def test_malformed_document_rejected(self, edit):
        # Typed, never a KeyError, TypeError or ValueError, and never rounded.
        obj = json.loads(json.dumps(
            expr_to_json(compute(ProblemSpec.from_rows([(1, 1)])))))
        assert expr_from_json(obj).m == 1
        edit(obj)
        with pytest.raises(MatrixParseError):
            expr_from_json(obj)

    @pytest.mark.parametrize("doc", [[], 5, "expr", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(MatrixParseError):
            expr_from_json(doc)


#: sha256 of the CLI's `compute --format json` text (json.dumps(..., indent=2)
#: of expr_to_json), pinned so changes to the arithmetic cannot move a
#: coefficient, a level or the term order.
M34 = [(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)]
PINNED_JSON = [
    pytest.param([(1, 0, 1), (0, 1, 1)], None,
                 "3af5e59f5622921cfffcee694c878b1b5195a90ddb3894d138c697ab094dfe1d",
                 id="a2"),
    pytest.param([(1, 2, 1, 0), (1, 1, 0, 1)], None,
                 "d7af50f0cd1a51f11a48966d4825a49bf768cfd06cf5a7c0a3ad0ae37ba1e819",
                 id="beck"),
    pytest.param([(1, 1), (3, 1)], None,
                 "cfa4f6bca0c4b6813549ff3c4c10ddab5e4c3ff9227b032ae6bc2cc4ee0920c6",
                 id="three_one"),
    pytest.param([(1, 5, 7)], None,
                 "5a6b54ec6cd1f78945e2e87253ea4a9d4efdd9e4cb4582cf3cf2f733f1c14c95",
                 id="p5_q7"),
    pytest.param([(1, 7, 11)], None,
                 "12f38a393a00743992c219ac027ef44fe3ce856a2b1837003de9288e4151d659",
                 id="p7_q11"),
    pytest.param(M34, (1, 2, 0),
                 "72bbceb2e174623a516095eb61c4614f4616dbff166abc4711535eeaa1696eae",
                 id="3x4_order_120"),
    pytest.param(M34, (2, 1, 0),
                 "80d78cec6937ecb42776f00d206a10f8d54d93a2e40534cbf494ca6b1fd96430",
                 id="3x4_order_210"),
    pytest.param(M34, (2, 0, 1),
                 "5e3306b87059541a02c29ab14517c8372901673a7e1efc5f9cc4efdf0483a778",
                 id="3x4_order_201"),
    pytest.param(M34, (0, 2, 1),
                 "dce29e6f6942a74c9c8f7e3680b81788f05acc91e69e68e61ae6524325d23941",
                 id="3x4_order_021"),
    # A mult-3 group at theta = 0.
    pytest.param([(1, 11, 13)], None,
                 "800bbe62c8c6e2b96afe1c10a3e96368d5dba8b25bfd7983924a225fde6f7d42",
                 id="p11_q13"),
    pytest.param([(1, -1, 0), (0, 1, 1)], None,
                 "b92c11a05ad9646ad3ad2c97ddaed5fddf3e78a51d13acaf152e6880ddfdb302",
                 id="negative"),
]


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_pinned_json_output(rows, order, digest):
    expr = compute(ProblemSpec.from_rows(rows), order=order)
    text = json.dumps(expr_to_json(expr), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
