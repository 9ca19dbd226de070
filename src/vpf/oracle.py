"""Brute-force lattice-point counter, ground truth for everything else.

Counts {x in Z_{>=0}^d : Ax = b} by depth-first search with residual
feasibility pruning.  Deliberately simple: it must be easy to trust, and it
shares nothing with the generating-function engine beyond the pointedness
certificate.
"""
from __future__ import annotations

from .errors import MatrixParseError
from .matrixops import fm_certificate, int_vector


def count_points(spec, b, certificate=None) -> int:
    """Exact number of nonnegative integer solutions of A x = b.

    A b that is not m integers is a MatrixParseError.
    """
    b = int_vector(b, "b")
    if len(b) != spec.m:
        raise MatrixParseError(
            f"b has {len(b)} entries but the matrix has {spec.m} rows")
    columns = spec.columns
    if certificate is None:
        certificate = fm_certificate(columns)
    y = certificate
    yc = [sum(yi * ci for yi, ci in zip(y, c)) for c in columns]
    # nonneg_prefix[k]: all columns 0..k are entrywise nonnegative.
    nonneg_prefix = []
    flag = True
    for c in columns:
        flag = flag and all(e >= 0 for e in c)
        nonneg_prefix.append(flag)

    def rec(k: int, r) -> int:
        if k < 0:
            return 1 if not any(r) else 0
        yr = sum(yi * ri for yi, ri in zip(y, r))
        if yr < 0:
            return 0
        if nonneg_prefix[k] and any(ri < 0 for ri in r):
            return 0
        c = columns[k]
        bound = int(yr / yc[k])
        total = 0
        for x in range(bound + 1):
            total += rec(k - 1, tuple(ri - x * ci for ri, ci in zip(r, c)))
        return total

    return rec(spec.d - 1, b)
