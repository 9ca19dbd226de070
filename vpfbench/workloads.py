"""The three workloads: fixed matrices, orders and boxes; seeded points.

Only the evaluation points depend on the seed.  They are drawn from strata
(chamber, residue orders, coarse block; see `oracles.Strata`) with the same
number of points per stratum under every seed, so the cost of an evaluate
pass does not move with the seed.  Every expected value comes from
`oracles`, which shares nothing with vpf.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import permutations, product

from oracles import (
    a2_count,
    box_counts,
    coin_change,
    negative_fiber_count,
    stratified_points,
)

MATRIX_3X4 = ((1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3))
A2 = ((1, 0, 1), (0, 1, 1))
BECK = ((1, 2, 1, 0), (1, 1, 0, 1))
M11_31 = ((1, 1), (3, 1))
NEGATIVE = ((1, -1, 0), (0, 1, 1))
LADDER = ((5, 7), (7, 11), (11, 13))

#: All six elimination orders of a 3-row matrix; the default (0, 1, 2) first.
ORDERS_3 = tuple(permutations(range(3)))


@dataclass(frozen=True)
class Case:
    """One compute, then evaluate on `points`, then verify_box on `box`."""

    label: str
    rows: tuple
    order: tuple | None
    points: tuple
    expected: dict            # b -> phi_A(b) for every point and box point
    box: tuple | None = None  # (lo, hi)
    group: str = ""           # cases in one group must agree at every point
    repeat: int = 1           # computes per round, so tiny ones get a median


def _columns(rows):
    return [tuple(r[k] for r in rows) for k in range(len(rows[0]))]


def box_points(lo, hi) -> list:
    """Every integer point of the box [lo, hi]."""
    return list(product(*(range(a, z + 1) for a, z in zip(lo, hi))))


def _nonneg_counter(rows, points):
    """Counts by box DP; a point with a negative entry has none (A >= 0)."""
    hi = tuple(max(0, max(p[i] for p in points)) for i in range(len(rows)))
    table = box_counts(_columns(rows), hi)
    return {p: (table[p] if min(p) >= 0 else 0) for p in points}


def _case(label, rows, lo, hi, block, per_stratum, rng, *, order=None,
          box=None, counter=None, group="", repeat=1):
    pts = stratified_points(_columns(rows), lo, hi, block, per_stratum, rng)
    everything = set(pts) | set(box_points(*box) if box else ())
    if counter is None:
        expected = _nonneg_counter(rows, everything)
    else:
        expected = {p: counter(*p) for p in everything}
    return Case(label, rows, order, tuple(pts), expected, box, group,
                repeat)


def multivar_orders(rng):
    # One point set and one box for the 3x4 matrix, shared by every order.
    shared = _case("3x4", MATRIX_3X4, (-1, -1, -1), (18, 18, 18),
                   (100, 100, 100), 2, rng, box=((0, 0, 0), (4, 4, 4)))
    cases = [replace(shared, order=order, group="3x4",
                     label="3x4 order " + "".join(str(i + 1) for i in order))
             for order in ORDERS_3]
    cases.append(_case("A2", A2, (-3, -3), (16, 16), (100, 100), 2, rng,
                       counter=a2_count))
    cases.append(_case("Beck", BECK, (-2, -2), (24, 24), (100, 100), 2, rng))
    cases.append(_case("(1 1; 3 1)", M11_31, (-2, -2), (30, 30), (100, 100),
                       2, rng))
    return cases


def level_ladder(rng):
    cases = []
    for p, q in LADDER:
        pq = p * q
        box = ((-6,), (160,)) if (p, q) == (7, 11) else None
        cases.append(_case(f"(1 {p} {q})", ((1, p, q),), (-pq,), (4 * pq - 1,),
                           (pq,), 6, rng, box=box,
                           counter=partial(coin_change, p=p, q=q)))
    return cases


def box_verify(rng):
    # Level-1/2 evaluate is cheap, so the point sets are large, and each
    # compute (a few ms) is repeated to give a median.
    lo, hi, block, k = (-4, -4), (100, 100), (50, 50), 250
    return [
        _case("A2", A2, lo, hi, block, k, rng, box=((-3, -3), (8, 8)),
              counter=a2_count, repeat=10),
        _case("Beck", BECK, lo, hi, block, k, rng, box=((0, 0), (20, 20)),
              repeat=10),
        _case("(1 1; 3 1)", M11_31, lo, hi, block, k, rng,
              box=((0, 0), (20, 20)), repeat=10),
        _case("(1 -1 0; 0 1 1)", NEGATIVE, lo, hi, block, k, rng,
              box=((-6, 0), (12, 12)), counter=negative_fiber_count,
              repeat=10),
    ]


WORKLOADS = {
    "multivar_orders": multivar_orders,
    "level_ladder": level_ladder,
    "box_verify": box_verify,
}


def build(name: str, seed: int) -> list[Case]:
    return WORKLOADS[name](random.Random(seed))
