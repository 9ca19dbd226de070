"""End-to-end driver.

Validates the input matrix, certifies pointedness, normalizes to nonnegative
entries by a unimodular change of coordinates, runs the iterated elimination
(`genfun.expand`), collapses the terms into summands with periodic rational
coefficients, and verifies closed forms against the lattice-point oracle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

from .cyclotomic import Cyclotomic
from .errors import (DimensionMismatch, MatrixParseError, NotPointed,
                     SanityFailure, UnsupportedMultiplePole)
from .genfun import expand
from .matrixops import (
    fm_certificate,
    int_vector,
    mat_mul_int,
    mat_vec_int,
    primitive_integer,
    rat_vector,
    sequence,
    unimodular_with_last_row,
)
from .oracle import box_counts
from .params import EQ_ZERO, Guard, Summand, collapse_terms


@dataclass(frozen=True)
class ProblemSpec:
    """Input matrix A with optional rational phases per column."""

    entries: tuple[tuple[int, ...], ...]
    phases: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(
            int_vector(r, "matrix row") for r in sequence(self.entries, "matrix")))
        if not self.entries or len(set(map(len, self.entries))) != 1:
            raise MatrixParseError("matrix must be rectangular and nonempty")
        d = len(self.entries[0])
        if d == 0:
            raise MatrixParseError("matrix needs at least one column")
        # No phases, () or [], means a zero phase on every column.
        phases = sequence(self.phases, "phases") or (0,) * d
        object.__setattr__(self, "phases", tuple(
            q % 1 for q in rat_vector(phases, "phases", d)))
        for k in range(d):
            if not any(row[k] for row in self.entries):
                # A zero column puts e_k in ker(A) Z_{>=0}^d, so the cone
                # condition fails no matter what the other columns or the
                # phases are.
                raise NotPointed(f"column {k + 1} is zero")

    @classmethod
    def from_rows(cls, rows, phases=()) -> "ProblemSpec":
        return cls(rows, phases)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def d(self) -> int:
        return len(self.entries[0])

    @property
    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(row[k] for row in self.entries) for k in range(self.d)]


@dataclass(frozen=True)
class PreprocessReport:
    """Pointedness certificate and unimodular nonnegativization U A >= 0."""

    certificate: tuple[Fraction, ...]
    unimodular: tuple[tuple[int, ...], ...]
    normalized: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ResultExpr:
    """Closed form: sum of guarded Summands, in the normalized coordinates."""

    m: int
    terms: tuple[Summand, ...]
    spec: ProblemSpec | None = None
    report: PreprocessReport | None = None

    def __post_init__(self):
        """Every type and shape rule.  m is an int >= 1; a summand's modulus
        (>= 1), residue, exponents (>= 0) and guards are ints, its residue,
        poly, (exponents, table) pairs and tables are sequences, its guards
        Guards, and its tables have modulus entries, each a rational or a
        Cyclotomic (MatrixParseError).  Residues, guards and exponents have
        m entries, the spec m rows and the unimodular m x m
        (DimensionMismatch)."""
        (m,) = int_vector((self.m,), "m")
        if m < 1:
            raise MatrixParseError(f"m = {m} is not positive")
        u = self.report and self.report.unimodular
        sizes = {m} if u is None else {len(u), *map(len, u)}
        if self.spec is not None:
            sizes.add(self.spec.m)
        for s in self.terms:
            guards = sequence(s.guards, "summand guards")
            if not all(isinstance(g, Guard) for g in guards):
                raise MatrixParseError(f"summand guards {guards!r} are not "
                                       f"all Guards")
            poly = [(sequence(e, "summand exponents"),
                     sequence(t, "summand table"))
                    for e, t in (sequence(p, "summand monomial", 2)
                                 for p in sequence(s.poly, "summand poly"))]
            vectors = (sequence(s.residue, "summand residue"),
                       *(e for e, _ in poly),
                       *(g.form.coeffs for g in guards))
            int_vector((s.modulus, *(g.form.const for g in guards),
                        *(x for v in vectors for x in v)),
                       "summand modulus, residue, exponents and guards")
            rat_vector([x for _, t in poly for x in t
                        if not isinstance(x, Cyclotomic)], "table entries")
            sizes.update(map(len, vectors))
            if s.modulus < 1:
                raise MatrixParseError(f"modulus {s.modulus} is not positive")
            if any(len(t) != s.modulus for _, t in poly):
                raise MatrixParseError(
                    f"a table does not have {s.modulus} entries")
            if any(min(e, default=0) < 0 for e, _ in poly):
                raise MatrixParseError("an exponent is negative")
        if sizes != {m}:
            raise DimensionMismatch(f"expected {m} parameters, got {sizes}")

    @cached_property
    def _plan(self):
        """What `evaluate` reads, built on first use and not a field: the
        transform (None for identity), each distinct guard form (coeffs,
        const, is-equality) and exponent vector once, the summands grouped by
        guard set, and the lcm D of all entry denominators (x stored as x*D)."""
        m, u = self.m, self.report and self.report.unimodular
        transform = None if u is None or u == tuple(
            tuple(int(i == j) for j in range(m)) for i in range(m)) else u
        den = lcm(*(x.den if isinstance(x, Cyclotomic) else x.denominator
                    for s in self.terms for _, t in s.poly for x in t))
        forms, monos, groups = {}, {}, {}
        for s in self.terms:
            key = tuple(forms.setdefault(
                (g.form.coeffs, g.form.const, g.sense == EQ_ZERO), len(forms))
                for g in s.guards)
            groups.setdefault(key, []).append((s.modulus, s.residue, [
                (monos.setdefault(e, len(monos)),
                 [x * den if isinstance(x, Cyclotomic)
                  else x.numerator * (den // x.denominator) for x in t])
                for e, t in s.poly]))
        phased = self.spec is not None and any(self.spec.phases)
        return transform, forms, monos, [*groups.items()], den, phased


@dataclass
class VerifyReport:
    points_checked: int = 0
    mismatches: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_pointed(spec: ProblemSpec) -> tuple[Fraction, ...]:
    """A rational y with y . c_k >= 1 for every column; NotPointed otherwise."""
    return fm_certificate(spec.columns)


def nonnegativize(spec: ProblemSpec, y) -> PreprocessReport:
    """Unimodular U with last row a primitive multiple of y and U A >= 0.

    Counts are preserved: phi_A(b) = phi_{UA}(Ub).  A y with y . c_k <= 0
    for some column is a MatrixParseError.
    """
    y = rat_vector(y, "y", spec.m)
    if any(sum(yi * ci for yi, ci in zip(y, c)) <= 0 for c in spec.columns):
        raise MatrixParseError(
            f"y = {y} does not give y . c > 0 on every column")
    y0 = primitive_integer(y)
    u = unimodular_with_last_row(y0)
    a = [list(row) for row in spec.entries]
    ua = mat_mul_int(u, a)
    # y0 . c_k >= 1, so adding enough y0-row to any row clears its negatives.
    ylast = [sum(y0i * col for y0i, col in zip(y0, colvals))
             for colvals in zip(*a)]
    for i in range(len(u) - 1):
        t = 0
        for k, v in enumerate(ua[i]):
            if v < 0:
                need = (-v + ylast[k] - 1) // ylast[k]  # ceil(-v / y0.c_k)
                t = max(t, need)
        if t:
            u[i] = [ui + t * y0i for ui, y0i in zip(u[i], y0)]
            ua[i] = [v + t * yk for v, yk in zip(ua[i], ylast)]
    return PreprocessReport(
        y,
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in ua))


def preprocess(spec: ProblemSpec) -> PreprocessReport:
    y = check_pointed(spec)
    if all(v >= 0 for row in spec.entries for v in row):
        m = spec.m
        ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        return PreprocessReport(y, ident, spec.entries)
    return nonnegativize(spec, y)


def compute(spec: ProblemSpec, order=None) -> ResultExpr:
    """Closed-form expression with evaluate(expr, b) = phi_A(b) for integer b.

    `order` optionally permutes the rows (elimination runs last-to-first);
    it affects branch count, never values.
    """
    m = spec.m
    order = tuple(range(m)) if order is None else int_vector(order, "order")
    rows = ",".join(str(i + 1) for i in order)
    if sorted(order) != list(range(m)):
        raise MatrixParseError(
            f"row order {rows} (1-based) is not a permutation of 1..{m}")
    report = preprocess(spec)
    try:
        summands = collapse_terms(
            expand(report.normalized, spec.phases, order),
            lcm(*(q.denominator for q in spec.phases)))
    except UnsupportedMultiplePole as exc:
        raise UnsupportedMultiplePole(
            f"{exc}, eliminating rows in the order {rows} (last first); "
            f"another order (--order) may avoid it") from exc
    if not any(spec.phases):
        for s in summands:
            for exps, table in s.poly:
                if any(isinstance(x, Cyclotomic) for x in table):
                    raise SanityFailure(
                        f"the table of b^{exps} under {s.guards} is not "
                        f"rational: {table}")
    return ResultExpr(m, summands, spec, report)


def evaluate(expr: ResultExpr, b) -> Fraction | Cyclotomic:
    """phi_A(b); rejects non-integer or negative totals loudly.

    For a spec with column phases the value is the exact weighted count, a
    Fraction when it is rational and a Cyclotomic otherwise.
    """
    b = int_vector(b, "b", expr.m)
    transform, forms, monos, groups, den, phased = expr._plan
    nb = b if transform is None else mat_vec_int(transform, b)
    holds = [v == 0 if eq else v >= 0
             for c, k, eq in forms for v in (sum(map(mul, c, nb)) + k,)]
    powers = [prod(map(pow, nb, e)) for e in monos]
    total = 0  # over den; a Cyclotomic entry promotes it
    for guards, summands in groups:
        if all([holds[i] for i in guards]):
            for n, r, pairs in summands:
                j = sum(map(mul, r, nb)) % n
                for k, table in pairs:
                    total += table[j] * powers[k]
    value = (Fraction(total, den) if isinstance(total, int)
             else total * Fraction(1, den))
    if isinstance(value, Cyclotomic) and value.is_rational():
        value = value.to_rational()
    if phased:
        # A sum of roots of unity lies in Z[zeta_N], whose power basis is
        # integral, so its coefficients have no denominator.
        if (value.den if isinstance(value, Cyclotomic)
                else value.denominator) == 1:
            return value
        wanted = "a cyclotomic integer"
    elif isinstance(value, Cyclotomic):
        wanted = "rational"
    elif value.denominator == 1 and value >= 0:
        return value
    else:
        wanted = "a nonnegative integer"
    at = b if transform is None else f"{b} (normalized {nb})"
    raise SanityFailure(f"evaluation at {at} is not {wanted}: {value}")


def verify_box(spec: ProblemSpec, expr: ResultExpr, lo, hi) -> VerifyReport:
    """Compare evaluate against the oracle on every integer b in the box;
    `box_counts` checks the box and the spec."""
    if expr.m != spec.m:
        raise MatrixParseError(
            f"the expression has {expr.m} parameters but the matrix has "
            f"{spec.m} rows")
    report = VerifyReport()
    start = time.perf_counter()
    # The first coordinate varies fastest.
    for b, expected in box_counts(spec, lo, hi).items():
        got = evaluate(expr, b)
        report.points_checked += 1
        if got != expected:
            report.mismatches.append((b, expected, got))
    report.seconds = time.perf_counter() - start
    return report
