"""The fold of nesting classes in `collapse_terms`.

The engine's terms fall into classes (guard set, modulus n, residue v), one
per cyclic group their phases generate.  A class nests in another of its
guard set with modulus n' when n | n', the other's residue is v mod n and
each monomial of the class is one of the other's; `collapse_terms` folds
each such class into one it nests in.  The classes are rebuilt here from
`genfun.expand`'s terms, independently of the grouping they check."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import vpf.pipeline
from vpf import ProblemSpec, compute, count_points, evaluate
from vpf.cyclotomic import least_conjugate
from vpf.serialize import expr_from_json, term_from_json

from . import test_fuzz
from .helpers import raw_terms
from .test_serialize import PINNED_JSON

DATA = Path(__file__).parent / "data"


def classes(terms) -> dict:
    """(guard set, n, v) -> the monomials of the terms of that class, v the
    least u * w mod n over the units u for the phase w / n."""
    out: dict = {}
    for t in terms:
        n = t.phase.level
        v, _ = least_conjugate(t.phase.nums, n)
        key = (frozenset(t.guards), n, v)
        out.setdefault(key, set()).update(e for e, _ in t.poly.items())
    return out


def nests(inner, outer, monos) -> bool:
    (g, n, v), (g1, n1, v1) = inner, outer
    return (g == g1 and n != n1 and n1 % n == 0 and monos[inner] <= monos[outer]
            and all(a % n == b for a, b in zip(v1, v)))


def check_folded(terms, summands):
    """Each summand is a class of `terms` with none of its monomials added,
    and no two summands' classes nest."""
    monos = classes(terms)
    keys = [(frozenset(s.guards), s.modulus, s.residue) for s in summands]
    for key, s in zip(keys, summands):
        assert key in monos, key
        assert {e for e, _ in s.poly} <= monos[key], key
    for inner in keys:
        assert not [outer for outer in keys if nests(inner, outer, monos)]


@pytest.mark.parametrize("spec, order", [
    pytest.param(rows if isinstance(rows, ProblemSpec)
                 else ProblemSpec.from_rows(rows), order, id=p.id)
    for p in PINNED_JSON for rows, order, _ in [p.values]])
def test_pinned_inputs_folded(spec, order):
    check_folded(raw_terms(spec, order), compute(spec, order).terms)


def test_fuzz_specs_folded(monkeypatch):
    # The seeded specs of both fuzz tests, phased ones included: each
    # compute's terms and summands are recorded and checked afterwards.
    seen = []
    collapse = vpf.pipeline.collapse_terms

    def recorded(terms, l0):
        summands = collapse(terms, l0)
        seen.append((terms, summands))
        return summands

    monkeypatch.setattr(vpf.pipeline, "collapse_terms", recorded)
    test_fuzz.test_fuzz_small_matrices_every_order()
    test_fuzz.test_cross_order_agrees_inside_the_cone()
    assert len(seen) > 400
    for terms, summands in seen:
        check_folded(terms, summands)


def test_schema2_nesting_classes_load_as_one_summand():
    # The terms of (6 6), written out over their Galois orbits as schema 2
    # held them, fall into the classes of moduli 1, 2, 3 and 6 under the
    # one guard b >= 0, each with the monomials 1 and b; the reader, for
    # which each term stands for itself (l0 = 0), folds them into one.
    obj = json.loads((DATA / "six_six_schema2.json").read_text(encoding="utf-8"))
    terms = [term_from_json(t, 1) for t in obj["terms"]]
    assert sorted(n for _, n, _ in classes(terms)) == [1, 2, 3, 6]
    expr = expr_from_json(obj)
    check_folded(terms, expr.terms)
    (summand,) = expr.terms
    assert (summand.modulus, summand.residue) == (6, (1,))
    for b in range(-6, 60):
        assert evaluate(expr, (b,)) == count_points(expr.spec, (b,))
        assert evaluate(expr, (b,)) == (b // 6 + 1 if b >= 0 and b % 6 == 0
                                        else 0)
