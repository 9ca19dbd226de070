"""Lattice-point counter, ground truth for everything else.

Counts {x in Z_{>=0}^d : Ax = b} for a whole box of b at once by a graded
dynamic program, the unbounded-knapsack recurrence: the columns are added one
at a time.  It shares nothing with the generating-function engine beyond the
pointedness certificate, which grades the partial sums.
"""
from __future__ import annotations

from itertools import product
from operator import add, mul

from .errors import MatrixParseError
from .matrixops import fm_certificate, int_vector, primitive_integer


def box_counts(spec, lo, hi) -> dict:
    """phi_A(b) for every integer b in the box lo <= b <= hi.

    The keys run over the box with the first coordinate varying fastest.
    Corners that are not m integers, an empty box, and a spec with column
    phases (whose solutions are weighted, not counted) are MatrixParseErrors.
    """
    columns, m = spec.columns, spec.m
    lo, hi = int_vector(lo, "box corner", m), int_vector(hi, "box corner", m)
    if any(a > z for a, z in zip(lo, hi)):
        raise MatrixParseError(f"empty box: lower corner {lo} exceeds {hi}")
    if any(spec.phases):
        raise MatrixParseError(
            f"the oracle counts no phase-weighted solutions, and the columns "
            f"have phases {spec.phases}")
    y = primitive_integer(fm_certificate(columns))
    top = sum(yi * (h if yi > 0 else l) for yi, l, h in zip(y, lo, hi))
    # A cell is a partial sum v of the columns so far, and spreads to v + t c
    # as column c is added.  y . c >= 1, so y . v only grows.
    cells = {(0,) * m: 1}
    for k, c in enumerate(columns):
        # Half-spaces g . w <= s that every cell w must satisfy once column k
        # is added: y . w <= top, and a coordinate that the later columns can
        # only raise (only lower) is already at most hi (at least lo).  After
        # the last column they cut out exactly the box.
        rest = columns[k + 1:]
        halves = [(y, top)]
        for i in range(m):
            for sign, bound in ((1, hi[i]), (-1, lo[i])):
                if all(sign * r[i] >= 0 for r in rest):
                    halves.append((tuple(sign * (i == j) for j in range(m)),
                                   sign * bound))
        halves = [(g, s, sum(map(mul, g, c))) for g, s in halves]
        spread: dict = {}
        for v, n in cells.items():
            # The t >= 0 with t * (g . c) <= s - g . v on every half-space.
            t_lo, t_hi = 0, top
            for g, s, gc in halves:
                room = s - sum(map(mul, g, v))
                if gc > 0:
                    t_hi = min(t_hi, room // gc)
                elif gc < 0:
                    t_lo = max(t_lo, -(-room // gc))
                elif room < 0:
                    t_hi = -1
            w = tuple(vi + t_lo * ci for vi, ci in zip(v, c))
            for _ in range(t_hi - t_lo + 1):
                spread[w] = spread.get(w, 0) + n
                w = tuple(map(add, w, c))
        cells = spread
    box = product(*(range(a, z + 1) for a, z in zip(lo[::-1], hi[::-1])))
    return {b[::-1]: cells.get(b[::-1], 0) for b in box}


def count_points(spec, b) -> int:
    """Exact number of nonnegative integer solutions of A x = b."""
    (count,) = box_counts(spec, b, b).values()
    return count
