"""Lattice-point counter, ground truth for everything else.

Counts {x in Z_{>=0}^d : Ax = b} for a whole box of b at once by a graded
dynamic program, the unbounded-knapsack recurrence: the columns are added one
at a time, and column c turns the counts N_{k-1} into
N_k(w) = N_{k-1}(w) + N_k(w - c).  The counts live in one flat list of ints,
in rows (the sums w = (w0, t) of one tail t), so a column costs a few slice
operations per row, with no Python code per cell.  Only reached rows are held,
over the w0 that the box can need: if the box needs w at stage k (w plus a sum
of columns >= k is in it), w and each w - p c on the way to it lie in the
region cut for stage k, so a needed cell that is not held counts 0.  Only the
pointedness certificate y, which grades the sums, comes from the engine.
"""
from __future__ import annotations

from itertools import accumulate, product
from operator import add, le, mul, sub

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
    box = product(*(range(a, z + 1) for a, z in zip(lo[::-1], hi[::-1])))
    return dict(zip((b[::-1] for b in box), _sweep(columns, lo, hi)))


def _sweep(columns, lo, hi) -> list:
    """The counts of the box as one flat list, first coordinate fastest."""
    strides = [1, *accumulate((z - a + 1 for a, z in zip(lo, hi)), mul)]
    out = [0] * strides[-1]
    y = primitive_integer(fm_certificate(columns))  # y . c >= 1
    top = sum(yi * (h if yi > 0 else l) for yi, l, h in zip(y, lo, hi))
    if top < 0:
        return out
    # Stage k: rows t of the sums of columns <= k reached from stage k - 1,
    # cut to grade <= top and to the box minus the bounding box of 0 and the
    # ends top c_j / y.c_j, j >= k.  Row t is (b, a, z): its count at w0 in
    # [a, z] is cells[b + w0]; each stage appends its rows, cells[0] spare.
    ends = [[top * v // sum(map(mul, y, c)) for v in c] for c in columns]
    origin, yt, cells = (0,) * (len(lo) - 1), y[1:], [0, 1]
    spans = {origin: (1, 0, 0)}
    for k, c in enumerate(columns):
        lo0, *floor = (a - max(0, *e) for a, e in zip(lo, zip(*ends[k:])))
        hi0, *ceil = (z - min(0, *e) for z, e in zip(hi, zip(*ends[k:])))
        c0, ct, flat, new = c[0], c[1:], not any(c[1:]), {}
        # Walk up each line t + Z ct from its rows of stage k - 1, so that
        # row t - ct, the source, is done before row t.
        for t in sorted(spans, key=lambda t: t[::-1],
                        reverse=ct[::-1] < origin):
            src = new.get(tuple(map(sub, t, ct)))
            while all(map(le, floor, t)) and all(map(le, t, ceil)):
                old = spans.get(t)  # the hull of its span and the source's
                a, z = old[1:] if old else (src[1] + c0, src[2] + c0)
                if src:
                    a, z = min(a, src[1] + c0), max(z, src[2] + c0)
                if flat:  # a running sum along the row itself
                    a, z = (a, hi0) if c0 > 0 else (lo0, z)
                r = top - sum(map(mul, yt, t))  # y0 w0 <= r
                a = max(a, lo0, -(r // -y[0]) if y[0] < 0 else a)
                z = min(z, hi0, r // y[0] if y[0] > 0 else z)
                if a > z or r < 0 == y[0]:
                    break
                b = len(cells) - a
                cells += [0] * (z - a + 1)
                if old:  # N_{k-1}(w), 0 off the old span
                    g, h = max(a, old[1]), max(a, min(z, old[2]) + 1)
                    cells[b + g:b + h] = cells[old[0] + g:old[0] + h]
                if flat:  # plus N_k(w - c): in steps of c0, against c0
                    for r in range(min(abs(c0), z - a + 1)):
                        line = (slice(b + a + r, b + z + 1, c0) if c0 > 0
                                else slice(b + z - r, b + a - 1, c0))
                        cells[line] = accumulate(cells[line])
                elif src:  # plus N_k(w - c), from the source row
                    g = max(a, src[1] + c0)
                    h, d = max(g, min(z, src[2] + c0) + 1), src[0] - c0
                    cells[b + g:b + h] = map(add, cells[b + g:b + h],
                                             cells[d + g:d + h])
                new[t] = src = b, a, z
                t = tuple(map(add, t, ct))
                if t in spans:  # a row of stage k - 1 starts its own walk
                    break
        spans = new
    # Copy the box's rows of the last stage; the rest of the box is 0.
    for t, (b, a, z) in spans.items():
        a, z = max(a, lo[0]), min(z, hi[0])
        if a <= z and all(map(le, lo[1:], t)) and all(map(le, t, hi[1:])):
            u = a - lo[0] + sum(map(mul, map(sub, t, lo[1:]), strides[1:]))
            out[u:u + z - a + 1] = cells[b + a:b + z + 1]
    return out


def count_points(spec, b) -> int:
    """Exact number of nonnegative integer solutions of A x = b."""
    (count,) = box_counts(spec, b, b).values()
    return count
