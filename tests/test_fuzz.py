"""Seeded differential fuzz: random small pointed matrices under every row
order, each closed form checked against the box oracle."""
from __future__ import annotations

import random
from itertools import permutations

from vpf import (
    NotPointed,
    ProblemSpec,
    UnsupportedMultiplePole,
    check_pointed,
    compute,
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
