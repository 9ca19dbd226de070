"""JSON round-trips for every serialized object."""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    Guard,
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
        t = Term(cyc_from_phase(F(1, 4)) * F(1, 8),
                 PhaseForm((F(1, 4), F(0))),
                 ParamPoly.from_affine(AffineForm((1, 0), 1)),
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


#: sha256 of the CLI's `compute --format json` text (json.dumps(..., indent=2)
#: of expr_to_json), pinned so changes to the arithmetic cannot move a
#: coefficient, a level or the term order.
PINNED_JSON = [
    ([(1, 0, 1), (0, 1, 1)], None,
     "5cdebf6fd1a06270a908fe54e081d38a2e1ae96ad6235d5146e6a39b5bfc6771"),
    ([(1, 2, 1, 0), (1, 1, 0, 1)], None,
     "de97b386344f7c5efa385adb3d5806abfa1d6e86be34fd18ec2a89dfd2bda0be"),
    ([(1, 1), (3, 1)], None,
     "317e29f668d7742fff10d654ce9e5faff7d7ca96cfdac2369caac854eb7539f3"),
    ([(1, 5, 7)], None,
     "21d7f9589d3a96735acba31ebf69e19ff953567a3bfcf0d4d9f740504128ff49"),
    ([(1, 7, 11)], None,
     "1be0d09e5bba06aadf888004ae2899d535fc060a86a025356a222e09f5489f89"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (1, 2, 0),
     "15b30d937a13c94ef48627e422b638223a74d16ff3753d89bf79edc6fad91d4f"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (2, 1, 0),
     "38a04b458ce662fb4054a802d231700d72a82f8e6232bfdd2079d99d9c674f0c"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (2, 0, 1),
     "a1a72e0ab9f9b8e732efc5f1f01563818c4fd666eef6806ee9711f8b1c17f987"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (0, 2, 1),
     "78478a0fab7e5bc8b35ca6b2d803e1f3db55ab09de98d407a77e3e92c58c821f"),
    # A mult-3 group at theta = 0.
    ([(1, 11, 13)], None,
     "10e5fadd9df5ef63343c518cf1d6bbd5370fc40ec6b24c72d85d0ba549b7f229"),
    ([(1, -1, 0), (0, 1, 1)], None,
     "c1213e7cc739ea167082d0e7bea21219dd6ed9d9cd5c4f40e8c92705af46bb85"),
]


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_pinned_json_output(rows, order, digest):
    expr = compute(ProblemSpec.from_rows(rows), order=order)
    text = json.dumps(expr_to_json(expr), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
