"""Lattice-point counter, ground truth for everything else.

Counts {x in Z_{>=0}^d : Ax = b} for a whole box of b at once by a graded
dynamic program, the unbounded-knapsack recurrence: the columns are added one
at a time, and column c turns the counts N_{k-1} into
N_k(w) = N_{k-1}(w) + N_k(w - c).  The counts live in one flat list of ints,
in rows (the sums w = (w0, t) of one tail t); c walks each line t + Z c once,
for a step count set by its cut, so a row costs its slice operations.  Only
reached rows are held, over the w0 that the box can need: if the box needs w
at stage k (w plus a sum of columns >= k is in it), w and each w - p c on the
way to it lie in the region cut for stage k, so a needed cell that is not
held counts 0.  The sums are graded by the spec's pointedness certificate y,
`ProblemSpec.certificate`, computed once per spec and shared with the engine.
"""
from __future__ import annotations

from itertools import accumulate, chain, count
from operator import add, mul

from .errors import MatrixParseError
from .matrixops import int_vector, primitive_integer


def box_counts(spec, lo, hi) -> dict:
    """phi_A(b) for every integer b in the box lo <= b <= hi.

    The keys run over the box with the first coordinate varying fastest.
    Corners that are not m integers, an empty box, and a spec with column
    phases (whose solutions are weighted, not counted) are MatrixParseErrors;
    a spec that is not pointed raises NotPointed.
    """
    return dict(zip(*box_points_and_counts(spec, lo, hi)))


def box_points_and_counts(spec, lo, hi) -> tuple:
    """The keys of `box_counts` as an iterator and its values as a list."""
    lo = int_vector(lo, "box corner", spec.m)
    hi = int_vector(hi, "box corner", spec.m)
    if any(a > z for a, z in zip(lo, hi)):
        raise MatrixParseError(f"empty box: lower corner {lo} exceeds {hi}")
    if any(spec.phases):
        raise MatrixParseError(
            f"the oracle counts no phase-weighted solutions, and the columns "
            f"have phases {spec.phases}")
    # Coordinate i of the points: each value in a run of n[i], runs repeated.
    n = [1, *accumulate((z - a + 1 for a, z in zip(lo, hi)), mul)]
    return zip(*(list(chain.from_iterable(zip(*[range(a, z + 1)] * r)))
                 * (n[-1] // s) for a, z, r, s in zip(lo, hi, n, n[1:]))), \
        _sweep(spec.columns, lo, hi, primitive_integer(spec.certificate))


def _sweep(columns, lo, hi, y) -> list:
    """The counts of the box as one flat list, first coordinate fastest,
    graded by the integer certificate y."""
    top = sum(yi * (h if yi > 0 else l) for yi, l, h in zip(y, lo, hi))
    # Stage k: rows t of the sums of columns <= k reached from stage k - 1,
    # cut to grade <= top and to the box minus the bounding box of 0 and the
    # ends top c_j / y.c_j, j >= k.  Row t is (b, a, z, r) under the key
    # sum (t_i + M) s_i, s_i = R^(i-1): its count at w0 in [a, z] is
    # cells[b + w0], and y0 w0 <= r = top - y . (0, t).  As |t_i|, 2|c_i| <=
    # M < R / 2, keys differ and a step along c adds s . c, 0 if c keeps t.
    ends = [[top * v // sum(map(mul, y, c)) for v in c] for c in columns]
    M = 2 * max(map(abs, chain(lo, hi, *ends, *columns)))
    R, y0, cells = 2 * M + 1, y[0], [0, 1]  # cells[0] is spare
    s = [0, *map(R.__pow__, range(len(lo) - 1))]
    spans, new = {M * sum(s): (1, 0, 0, top)}, {}
    for k, c in enumerate(columns):
        lo0, *floor = (a - max(0, *e) for a, e in zip(lo, zip(*ends[k:])))
        hi0, *ceil = (z - min(0, *e) for z, e in zip(hi, zip(*ends[k:])))
        c0, step, yct = c[0], sum(map(mul, s, c)), sum(map(mul, y[1:], c[1:]))
        keys, walks = sorted(spans, reverse=step < 0), [R] * len(spans)
        for si, l, h, v in zip(s[1:], floor, ceil, c[1:]):  # steps in the cut
            walks = [min(n, (h - x) // v + 1 if v > 0 else (l - x) // v + 1
                         if v else n) if l <= (x := K // si % R - M) <= h
                     else 0 for n, K in zip(walks, keys)]
        # Each line t + Z c is walked once, from its first row of stage k - 1
        # in the cut and for the steps it stays there, so that row t - c, the
        # source, comes before t; a column that keeps t sums along the row.
        for K, n in zip(keys, walks):
            if not n or K in new:
                continue
            sb, (_, sa, sz, r) = None, spans[K]  # no source row yet
            if not step:  # the span runs on in steps of c0
                sa, sz = (sa, hi0) if c0 > 0 else (lo0, sz)
            for K in range(K, K + n * step, step) if step else (K,):
                old = spans.get(K)  # N_{k-1}(w), 0 off its span
                ob, oa, oz, _ = old or (sb, sa, sz, r)  # or the source alone
                # The hull of both spans, cut to [lo0, hi0] and y0 w0 <= r.
                a, z = oa if oa < sa else sa, oz if oz > sz else sz
                g, h = (lo0, r // y0) if y0 > 0 else (-(r // -y0), hi0) if y0 \
                    else (lo0, hi0 if r >= 0 else lo0 - 1)
                a, z = a if a > g else g, z if z < h else h
                a, z = a if a > lo0 else lo0, z if z < hi0 else hi0
                if a > z:
                    break
                b = len(cells) - a
                g, h = oa if oa > a else a, (oz if oz < z else z) + 1
                cells += [0] * (z - a + 1)
                if g < h:
                    cells[b + g:b + h] = cells[ob + g:ob + h]
                if old and sb is not None:  # plus N_k(w - c), 0 off its span
                    g, h = sa if sa > a else a, (sz if sz < z else z) + 1
                    if g < h:
                        cells[b + g:b + h] = map(add, cells[b + g:b + h],
                                                 cells[sb + g:sb + h])
                if not step:  # plus N_k(w - c): in steps of c0, against c0
                    for i in range(min(abs(c0), z - a + 1)):
                        line = (slice(b + a + i, b + z + 1, c0) if c0 > 0
                                else slice(b + z - i, b + a - 1, c0))
                        cells[line] = accumulate(cells[line])
                new[K] = b, a, z, r
                sb, sa, sz, r = b - c0, a + c0, z + c0, r - yct
        spans, new = new, {}
    # Copy the box's rows of the last stage; the rest of the box is 0.
    width, where = hi[0] - lo[0] + 1, [M * sum(s) + sum(map(mul, lo, s))]
    for l, h, si in zip(lo[1:], hi[1:], s[1:]):
        where = [K + j for j in range(0, (h - l + 1) * si, si) for K in where]
    out = [0] * (width * len(where))
    for u, K in zip(count(-lo[0], width), where):
        b, a, z, _ = spans.get(K, (0, 1, 0, 0))
        a, z = max(a, lo[0]), min(z, hi[0]) + 1
        out[u + a:u + max(a, z)] = cells[b + a:b + max(a, z)]
    return out


def count_points(spec, b) -> int:
    """Exact number of nonnegative integer solutions of A x = b."""
    b = int_vector(b, "b", spec.m)
    return box_points_and_counts(spec, b, b)[1][0]
