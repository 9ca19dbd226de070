"""evaluate against the difference equation of phi_A at large b.

`helpers.difference_residual` is zero at every integer b when the closed
form is phi_A, so it reaches points and phased specs that no box oracle
does.  Inside one chamber the difference operator sends whole families of
quasi-polynomials to zero, so a wrong entry shows where the stencil b - c_T
crosses a guard wall: most points are drawn next to the walls of the
expression under test."""
from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from vpf import ProblemSpec, compute

from .helpers import difference_residual
from .test_serialize import PINNED_JSON
from .test_tables import BENCH_INPUTS

SPECS = [pytest.param(ProblemSpec.from_rows(rows), order, id=p.id)
         for p in BENCH_INPUTS for rows, order in [p.values]] + [
    pytest.param(spec, order, id=p.id)
    for p in PINNED_JSON for spec, order, _ in [p.values]
    if isinstance(spec, ProblemSpec)]


def apply(spec, x):
    """b = A x."""
    return tuple(sum(a * v for a, v in zip(row, x)) for row in spec.entries)


def _onto(walls, offsets, base):
    """base with len(walls) coordinates changed so that each wall's form
    row . b + k equals its offset, or None if no choice of coordinates
    has an integer solution."""
    for cols in combinations(range(len(base)), len(walls)):
        rhs = [o - k - sum(r[c] * v for c, v in enumerate(base) if c not in cols)
               for (r, k), o in zip(walls, offsets)]
        if len(cols) == 1:
            (i,), ((r, _),), (y,) = cols, walls, rhs
            sol = [(y, r[i])]
        else:
            (i, j), ((r, _), (s, _)) = cols, walls
            det = r[i] * s[j] - r[j] * s[i]
            sol = [(rhs[0] * s[j] - rhs[1] * r[j], det),
                   (r[i] * rhs[1] - s[i] * rhs[0], det)]
        if all(d and n % d == 0 for n, d in sol):
            b = list(base)
            for c, (n, d) in zip(cols, sol):
                b[c] = n // d
            return tuple(b)
    return None


def wall_points(spec, expr, rng, count=40):
    """Points next to one guard wall of the expression, or next to where
    two of them meet: each chosen form row . b + k (in the caller's
    coordinates, row = coeffs U) is -1, 0 or 1.  The coordinates not solved
    for come from b = A x, with x up to 10^4 for half the points and in
    [0, 3] for the rest, so the points reach far along the walls."""
    u = expr.report.unimodular
    walls = sorted({(tuple(sum(c * u[i][j] for i, c in enumerate(g.form.coeffs))
                           for j in range(spec.m)), g.form.const)
                    for s in expr.terms for g in s.guards})
    choices = [(w,) for w in walls] + list(combinations(walls, 2))
    out = []
    for n, chosen in enumerate(rng.sample(choices, min(count, len(choices)))):
        top = 3 if n % 2 else 10**4
        base = apply(spec, [rng.randint(0, top) for _ in range(spec.d)])
        for offsets in product((0, 1, -1), repeat=len(chosen)):
            b = _onto(chosen, offsets, base)
            if b is not None:
                out.append(b)
                break
    return out


@pytest.mark.parametrize("spec, order", SPECS)
def test_difference_equation_holds(spec, order):
    rng = random.Random(26)
    expr = compute(spec, order)
    far = [apply(spec, [rng.randint(0, 10**4) for _ in range(spec.d)])
           for _ in range(4)]
    outside = [tuple(-v - 1 for v in b) for b in far[:2]]
    walls = wall_points(spec, expr, rng)
    assert walls
    # b = 0 and the other sums of columns, where the stencils of the
    # summands' cones overlap.
    corners = [apply(spec, x) for x in product((0, 1), repeat=spec.d)]
    for b in [*corners, *far, *outside, *walls]:
        assert difference_residual(spec, expr, b) == 0, b


def test_difference_equation_catches_a_wrong_entry():
    # The same kind of points see one constant table entry of the 3x4
    # default order raised by 1, which keeps every value a count.
    spec = ProblemSpec.from_rows([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)])
    expr = compute(spec)
    i, k = next((i, k) for i, s in enumerate(expr.terms)
                for k, (e, _) in enumerate(s.poly) if not any(e))
    poly = list(expr.terms[i].poly)
    e, t = poly[k]
    poly[k] = (e, (t[0] + 1, *t[1:]))
    terms = list(expr.terms)
    terms[i] = terms[i]._replace(poly=tuple(poly))
    bad = replace(expr, terms=tuple(terms))
    walls = wall_points(spec, bad, random.Random(26))
    assert any(difference_residual(spec, bad, b) != 0 for b in walls)
