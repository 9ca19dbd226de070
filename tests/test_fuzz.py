"""Seeded differential fuzz: random small pointed matrices under every row
order, each closed form checked against the box oracle, and random 3-row
specs, phased or not, checked across two row orders inside the cone."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from vpf import (
    NotPointed,
    ProblemSpec,
    UnsupportedMultiplePole,
    check_pointed,
    compute,
    evaluate,
    verify_box,
)

#: The size class: at most 2 rows and 5 columns, entries in [-2, 3].  Some
#: 3-row matrices of this kind take minutes to eliminate, so they stay out.
MAX_ROWS, MAX_COLS, LO, HI = 2, 5, -2, 3
SPECS = 200
BOX = (-2, 4)


def test_fuzz_small_matrices_every_order():
    rng = random.Random(1)
    specs, skipped = [], 0
    while len(specs) < SPECS:
        m, d = rng.randint(1, MAX_ROWS), rng.randint(1, MAX_COLS)
        rows = [tuple(rng.randint(LO, HI) for _ in range(d)) for _ in range(m)]
        try:
            spec = ProblemSpec.from_rows(rows)
            check_pointed(spec)
        except NotPointed:
            skipped += 1
            continue
        specs.append(spec)

    runs = agree = rejected = 0
    for spec in specs:
        for order in permutations(range(spec.m)):
            runs += 1
            try:
                expr = compute(spec, order)
            except UnsupportedMultiplePole:
                rejected += 1
                continue
            lo, hi = ((x,) * spec.m for x in BOX)
            report = verify_box(spec, expr, lo, hi)
            assert report.ok, (spec.entries, order, report.mismatches[:3])
            agree += 1
    print(f"fuzz: {SPECS} pointed specs ({skipped} non-pointed draws "
          f"skipped), {runs} runs: {agree} agree, {rejected} raise "
          f"UnsupportedMultiplePole")
    # Most runs must reach the oracle, or the fuzz checks nothing.
    assert agree >= runs // 2


#: Cross-order size class: 2 or 3 rows (one row has one order) and at most
#: 4 columns, entries in [0, 2]; every other spec has column phases in
#: sixths.
CROSS_SPECS, CROSS_POINTS, CROSS_X = 100, 20, 50


def test_cross_order_agrees_inside_the_cone():
    # Two row orders derive their guards and terms independently, so they
    # must give one value at each b = A x, x >= 0, far outside the oracle's
    # box; for a phased spec this is the only independent check of the
    # Galois group the engine averages over, since the oracle takes no
    # phases.
    rng = random.Random(7)
    done = phased = rejected = 0
    while done < CROSS_SPECS:
        m, d = rng.randint(2, 3), rng.randint(1, 4)
        rows = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(m)]
        phases = (tuple(Fraction(rng.randrange(6), 6) for _ in range(d))
                  if done % 2 else ())
        try:
            spec = ProblemSpec.from_rows(rows, phases)
        except NotPointed:
            continue
        first, second = rng.sample(list(permutations(range(m))), 2)
        try:
            exprs = [compute(spec, first), compute(spec, second)]
        except UnsupportedMultiplePole:
            rejected += 1
            continue
        for _ in range(CROSS_POINTS):
            x = [rng.randint(0, CROSS_X) for _ in range(d)]
            b = tuple(sum(a * xi for a, xi in zip(row, x)) for row in rows)
            one, two = (evaluate(e, b) for e in exprs)
            assert one == two, (rows, phases, first, second, b)
        done += 1
        phased += any(spec.phases)
    print(f"cross-order: {done} specs ({phased} phased), {rejected} "
          f"rejected under an order")
    assert phased >= CROSS_SPECS // 3
