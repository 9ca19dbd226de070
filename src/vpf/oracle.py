"""Lattice-point counter, ground truth for everything else.

Counts {x in Z_{>=0}^d : Ax = b} for a whole box of b at once by a graded
dynamic program, the unbounded-knapsack recurrence: the columns are added one
at a time, and column c turns the counts N_{k-1} into
N_k(w) = N_{k-1}(w) + N_k(w - c).  Along each line w0 + Z c that is a running
sum, so a column costs O(m) per cell it reads or writes.  It shares nothing
with the generating-function engine beyond the pointedness certificate,
which grades the partial sums.
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
    # A cell is a partial sum w of the columns so far, with its count.
    # y . c >= 1, so y . w only grows and is at least 0.
    cells = {(0,) * m: 1}
    for k, c in enumerate(columns):
        # Half-spaces that every cell w must satisfy once column k is added:
        # y . w <= top, and a coordinate that the later columns can only
        # raise (only lower) is already at most hi (at least lo).  After the
        # last column they cut out exactly the box.  The coordinate ones,
        # sign * w_i <= s, are kept as (i, sign, s, sign * c_i).
        rest = columns[k + 1:]
        axes = [(i, sign, sign * bound, sign * c[i])
                for i in range(m)
                for sign, bound in ((1, hi[i]), (-1, lo[i]))
                if all(sign * r[i] >= 0 for r in rest)]
        yc = sum(map(mul, y, c))
        # Group the cells by line w0 + Z c: the base w0 has
        # 0 <= y . w0 < y . c, and v = w0 + q c sits at q = y . v // y . c.
        lines: dict = {}
        for v, n in cells.items():
            q = sum(map(mul, y, v)) // yc
            lines.setdefault(tuple(vi - q * ci for vi, ci in zip(v, c)),
                             {})[q] = n
        spread: dict = {}
        for w0, row in lines.items():
            # The positions p with w0 + p c in every half-space form one
            # interval; below the lowest cell of the line nothing is reached.
            p_lo = min(row)
            p_hi = (top - sum(map(mul, y, w0))) // yc
            for i, sign, s, gc in axes:
                room = s - sign * w0[i]
                if gc > 0:
                    p_hi = min(p_hi, room // gc)
                elif gc < 0:
                    p_lo = max(p_lo, -(-room // gc))
                elif room < 0:
                    p_hi = -1
            # The running sum enters at p_lo with every cell below it.
            run = sum(n for q, n in row.items() if q < p_lo)
            w = tuple(a + p_lo * ci for a, ci in zip(w0, c))
            for p in range(p_lo, p_hi + 1):
                run += row.get(p, 0)
                spread[w] = run
                w = tuple(map(add, w, c))
        cells = spread
    box = product(*(range(a, z + 1) for a, z in zip(lo[::-1], hi[::-1])))
    return {b[::-1]: cells.get(b[::-1], 0) for b in box}


def count_points(spec, b) -> int:
    """Exact number of nonnegative integer solutions of A x = b."""
    (count,) = box_counts(spec, b, b).values()
    return count
