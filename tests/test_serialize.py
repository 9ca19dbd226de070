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
     "bdd1527bdadc419962ef9bef9982470134a5329faf19e46a15b2d0dbb9909ff9"),
    ([(1, 1), (3, 1)], None,
     "e434bee4a457d4a87a14340f11d32a59b7006e66af14f5d48511f92d9abc1aa0"),
    ([(1, 5, 7)], None,
     "e78d91bd8b873c145b3d39b8c8db7609b83a7678bf5fbff2df64c466d1002cf7"),
    ([(1, 7, 11)], None,
     "ac3b0043ef89913c5a5479821b2a38f27aa15126579a77424a3b86357af12b81"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (1, 2, 0),
     "5ed753f3ee0c1cd7b097268b9dc3536b88767f8f0be94996536e353f18e0d3a9"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (2, 1, 0),
     "b65d49def8eef31bc0079fe112768b37dabf450790fe5fb98191cbeaf7a189fa"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (2, 0, 1),
     "b7b461997844a54e893e22b4e83541b89056866a61e5c05f3bf8af964d5fa4d7"),
    ([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)], (0, 2, 1),
     "9df7f8a0e79e870f01253bb57a6ef0b13d765443f27eeb20c3b6fb64f1fbefe4"),
    # A mult-3 group at theta = 0.
    ([(1, 11, 13)], None,
     "bb41bb43fffb38d02a58205802cae868791ce257a140d814db1172298ab1f859"),
    ([(1, -1, 0), (0, 1, 1)], None,
     "c1213e7cc739ea167082d0e7bea21219dd6ed9d9cd5c4f40e8c92705af46bb85"),
]


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_pinned_json_output(rows, order, digest):
    expr = compute(ProblemSpec.from_rows(rows), order=order)
    text = json.dumps(expr_to_json(expr), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
