"""Independent counters and point-set geometry for the benchmark.

Nothing here imports vpf.  The counters are the ground truth every
`evaluate` value and every `verify_box` verdict is checked against, and the
geometry stratifies the seeded point sets so that each seed draws the same
mix of evaluation costs.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd, prod


# ---------------------------------------------------------------------------
# Counters: phi_A(b) = #{x in Z^d, x >= 0 : A x = b}.

def box_counts(columns, hi) -> dict:
    """phi_A(b) for every b in the box [0, hi], for entrywise nonnegative A.

    One unbounded-knapsack pass per column: visiting the box in
    lexicographic order, b - c is final before b is reached.
    """
    cells = list(product(*(range(h + 1) for h in hi)))
    counts = dict.fromkeys(cells, 0)
    counts[(0,) * len(hi)] = 1
    for c in columns:
        assert all(v >= 0 for v in c) and any(c)
        for b in cells:
            prev = tuple(x - y for x, y in zip(b, c))
            if min(prev) >= 0:
                counts[b] += counts[prev]
    return counts


def coin_change(b: int, p: int, q: int) -> int:
    """phi_(1 p q)(b): ways to pay b with coins 1, p and q."""
    if b < 0:
        return 0
    return sum((b - q * z) // p + 1 for z in range(b // q + 1))


def a2_count(a: int, b: int) -> int:
    """phi of the A2 Kostant matrix (1 0 1; 0 1 1): min(a, b) + 1 on b >= 0."""
    return min(a, b) + 1 if a >= 0 and b >= 0 else 0


def negative_fiber_count(b1: int, b2: int) -> int:
    """phi of (1 -1 0; 0 1 1) from its one-dimensional fiber.

    The solutions of A x = b are x = (b1 + t, t, b2 - t); count the t that
    keep all three entries nonnegative.
    """
    return max(0, b2 - max(0, -b1) + 1)


# ---------------------------------------------------------------------------
# Strata: chamber and residue class of a point.

def det(rows) -> int:
    """Exact determinant of a small square integer matrix (Leibniz)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    v = tuple(x // g for x in v)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


class Strata:
    """Cost-relevant class of a parameter point b for the matrix A.

    The chamber of b is its sign vector against every wall, a hyperplane
    spanned by m - 1 columns; the guards that hold at b depend on it.  For
    every basis B of m columns, b lies in a coset of B Z^m whose order in
    Z^m / B Z^m is the cyclotomic level of the phases e(rho . b) tied to B.
    """

    def __init__(self, columns):
        m = len(columns[0])
        units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        walls = set()
        for sub in combinations(columns, m - 1):
            normal = tuple(det([*sub, e]) for e in units)
            if any(normal):
                walls.add(_primitive(normal))
        self.walls = sorted(walls)
        # x = B^-1 b by Cramer's rule: x_i = (cofactors_i . b) / det B.
        self.bases = []
        for rows in combinations(columns, m):
            d = det(rows)
            if d:
                cof = [tuple(det(rows[:i] + (e,) + rows[i + 1:])
                             for e in units)
                       for i in range(m)]
                self.bases.append((cof, abs(d)))

    def chamber(self, b) -> tuple[int, ...]:
        out = []
        for n in self.walls:
            v = sum(x * y for x, y in zip(n, b))
            out.append((v > 0) - (v < 0))
        return tuple(out)

    def residue_orders(self, b) -> tuple[int, ...]:
        out = []
        for cof, d in self.bases:
            g = d
            for c in cof:
                g = gcd(g, sum(x * y for x, y in zip(c, b)))
            out.append(d // g)
        return tuple(out)

    def key(self, b, block) -> tuple:
        coarse = tuple(x // k for x, k in zip(b, block))
        return (self.chamber(b), self.residue_orders(b), coarse)


def stratified_points(columns, lo, hi, block, per_stratum, rng) -> list:
    """`per_stratum` seeded points from every stratum of the box [lo, hi].

    Strata are (chamber, residue orders, block of the coarse grid `block`);
    a stratum with fewer points contributes all of them, so every seed draws
    the same number of points from every stratum.
    """
    strata = Strata(columns)
    groups: dict = {}
    for b in product(*(range(a, z + 1) for a, z in zip(lo, hi))):
        groups.setdefault(strata.key(b, block), []).append(b)
    points = []
    for key in sorted(groups):
        members = groups[key]
        points.extend(rng.sample(members, min(per_stratum, len(members))))
    return points
