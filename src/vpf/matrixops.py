"""Exact integer/rational matrix utilities.

Readers of outside numbers, the Fourier-Motzkin pointedness certificate,
primitivization, unimodular completion of a primitive row, determinants.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .errors import MatrixParseError, NotPointed


def sequence(values, what: str, n: int | None = None) -> tuple:
    """Entries of a sequence from outside input, n of them if n is given."""
    try:
        values = tuple(values)
    except TypeError as exc:
        raise MatrixParseError(f"{what} {values!r} is not a sequence") from exc
    if n is not None and len(values) != n:
        raise MatrixParseError(
            f"{what} {values!r} has length {len(values)}, not {n}")
    return values


def int_vector(values, what: str, n: int | None = None) -> tuple[int, ...]:
    """Integers from outside input; a non-integer is rejected, never rounded,
    and so is a bool, although Python counts it as an int."""
    if (type(values) is tuple and (n is None or len(values) == n)
            and _EXACT_INT.issuperset(map(type, values))):
        return values  # exact ints of the right length, as they are
    values = sequence(values, what, n)
    try:
        out = tuple(map(operator.index, values))
    except TypeError as exc:
        raise MatrixParseError(f"{what} {values!r} has a non-integer entry") from exc
    if bool in map(type, values):
        raise MatrixParseError(f"{what} {values!r} has a bool entry")
    return out


def rat_vector(values, what: str, n: int | None = None) -> tuple[Fraction, ...]:
    """Rationals from outside input; a float or a bool is rejected, never
    rounded; a tuple of Fractions alone comes back as it is."""
    values = sequence(values, what, n)
    if all(type(q) is Fraction for q in values):
        return values
    if bool in map(type, values) or not all(
            isinstance(q, Rational) for q in values):
        raise MatrixParseError(f"{what} {values!r} has a bool or non-rational entry")
    return tuple(map(Fraction, values))


_EXACT_INT = frozenset((int,))
_INT_TEXT = re.compile(r"-?[0-9]+")
_RAT_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def int_from_text(text: str, what: str) -> int:
    """An integer written -?[0-9]+ in ASCII; int() also takes "1_0", "+2",
    " 2" and the digits of other scripts."""
    if not _INT_TEXT.fullmatch(text):
        raise MatrixParseError(f"{what} '{text}' is not an integer")
    return int(text)


def rat_from_text(text: str, what: str) -> Fraction:
    """A rational written p or p/q, -?[0-9]+(/[0-9]+)? in ASCII with q > 0;
    Fraction() also takes "0.5", "1e-1", " 1/2" and "1/0" (raising)."""
    if not _RAT_TEXT.fullmatch(text):
        raise MatrixParseError(f"{what} '{text}' is not a rational p or p/q, q > 0")
    return Fraction(text)


def fm_certificate(columns) -> tuple[Fraction, ...]:
    """Solve y . c >= 1 for all columns c by Fourier-Motzkin elimination.

    Existence of a solution is equivalent to the columns lying in an open
    half-space (pointedness).  Raises NotPointed when infeasible.
    """
    m = len(columns[0])
    # Rows (a, rhs) encode a . y >= rhs.
    rows = [(tuple(Fraction(x) for x in c), Fraction(1)) for c in columns]
    stages = []
    for v in range(m - 1, -1, -1):
        pos = [r for r in rows if r[0][v] > 0]
        neg = [r for r in rows if r[0][v] < 0]
        zero = [r for r in rows if r[0][v] == 0]
        stages.append((v, pos, neg))
        rows = list(zero)
        for ap, cp in pos:
            for an, cn in neg:
                sp, sn = -an[v], ap[v]
                coeffs = tuple(sp * x + sn * y for x, y in zip(ap, an))
                rows.append((coeffs, sp * cp + sn * cn))
    if any(rhs > 0 for _, rhs in rows):
        raise NotPointed("columns do not lie in an open half-space")

    # A stage's rows involve only y_0..y_v, and y_0..y_{v-1} are known.
    y = [Fraction(0)] * m
    for v, pos, neg in reversed(stages):
        lowers, uppers = ([(c - sum(x * w for x, w in zip(a, y[:v]) if x))
                           / a[v] for a, c in rows] for rows in (pos, neg))
        if lowers and uppers:
            lo, hi = max(lowers), min(uppers)
            assert lo <= hi
            y[v] = (lo + hi) / 2
        elif lowers or uppers:
            y[v] = max(lowers) if lowers else min(uppers)
    return tuple(y)


def primitive_integer(y) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector."""
    fracs = [Fraction(v) for v in y]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    assert g > 0
    return tuple(v // g for v in ints)


def unimodular_with_last_row(y0) -> list[list[int]]:
    """An integer matrix U with |det U| = 1 whose last row is the primitive y0.

    Column-reduces the 1 x m matrix y0 to e_1 while mirroring inverse row
    operations on an identity matrix; the first row of the mirror is y0, and
    rows are rotated so it ends up last.
    """
    m = len(y0)
    yrow = list(y0)
    inv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_add(j, i, f):
        # Column op col_j += f * col_i on yrow; inverse row op on inv.
        yrow[j] += f * yrow[i]
        for c in range(m):
            inv[i][c] -= f * inv[j][c]

    def col_swap(i, j):
        yrow[i], yrow[j] = yrow[j], yrow[i]
        inv[i], inv[j] = inv[j], inv[i]

    # Gather the gcd into position 0.
    for j in range(1, m):
        while yrow[j]:
            if yrow[0] == 0:
                col_swap(0, j)
                continue
            q = yrow[j] // yrow[0]
            col_add(j, 0, -q)
            if yrow[j]:
                col_swap(0, j)
    if yrow[0] < 0:
        yrow[0], inv[0] = -yrow[0], [-x for x in inv[0]]
    assert yrow[0] == 1 and not any(yrow[1:])
    # Row 0 of inv is y0; rotate it to the bottom.
    return inv[1:] + inv[:1]


def det_int(mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a, sign, prev = [list(row) for row in mat], 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        a[k], a[p], sign = a[p], a[k], sign if p == k else -sign
        a[k + 1:] = [[(x * a[k][k] - r[k] * y) // prev
                      for x, y in zip(r, a[k])] for r in a[k + 1:]]
        prev = a[k][k]
    return sign * prev


def mat_mul_int(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec_int(a, v):
    return tuple(sum(map(operator.mul, r, v)) for r in a)
