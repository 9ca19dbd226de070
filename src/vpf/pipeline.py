"""End-to-end driver.

Validates the input matrix, certifies pointedness, normalizes to nonnegative
entries by a unimodular change of coordinates, runs the iterated elimination,
merges terms, and verifies closed forms against the lattice-point oracle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .cyclotomic import cyc_sum
from .errors import (
    MatrixParseError,
    NotPointed,
    NotRational,
    SanityFailure,
    UnsupportedMultiplePole,
)
from .genfun import Factor, GenFunState, eliminate_last_var, final_univariate
from .matrixops import (
    fm_certificate,
    int_vector,
    integer_certificate,
    mat_mul_int,
    mat_vec_int,
    unimodular_with_last_row,
)
from .oracle import box_counts
from .params import AffineForm, Term


@dataclass(frozen=True)
class ProblemSpec:
    """Input matrix A with optional rational phases per column."""

    entries: tuple[tuple[int, ...], ...]
    phases: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(
            int_vector(r, "matrix row") for r in self.entries))
        m = len(self.entries)
        if m == 0 or len(set(len(r) for r in self.entries)) != 1:
            raise MatrixParseError("matrix must be rectangular and nonempty")
        d = len(self.entries[0])
        if d == 0:
            raise MatrixParseError("matrix needs at least one column")
        if not self.phases:
            object.__setattr__(self, "phases", (Fraction(0),) * d)
        elif len(self.phases) != d:
            raise MatrixParseError("need one phase per column")
        if not all(isinstance(q, Rational) for q in self.phases):
            raise MatrixParseError(f"phases {self.phases!r} must be rational")
        object.__setattr__(
            self, "phases", tuple(Fraction(q) % 1 for q in self.phases))
        for k in range(d):
            if self.phases[k] == 0 and not any(row[k] for row in self.entries):
                # A zero column puts e_k in ker(A) Z_{>=0}^d, so the cone
                # condition fails no matter what the other columns are.
                raise NotPointed(f"column {k} is zero")

    @classmethod
    def from_rows(cls, rows, phases=()) -> "ProblemSpec":
        return cls(tuple(rows), tuple(phases))

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

    def transform(self, b) -> tuple[int, ...]:
        return mat_vec_int(self.unimodular, tuple(b))

    @property
    def is_identity(self) -> bool:
        m = len(self.unimodular)
        return all(
            self.unimodular[i][j] == (1 if i == j else 0)
            for i in range(m) for j in range(m))


@dataclass(frozen=True)
class ResultExpr:
    """Closed form: sum of guarded Terms, in the normalized coordinates."""

    m: int
    terms: tuple[Term, ...]
    spec: ProblemSpec | None = None
    report: PreprocessReport | None = None


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
    y0 = integer_certificate(y, spec.columns)
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
        tuple(Fraction(v) for v in y),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in ua))


def preprocess(spec: ProblemSpec) -> PreprocessReport:
    y = check_pointed(spec)
    if all(v >= 0 for row in spec.entries for v in row):
        m = spec.m
        ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        return PreprocessReport(y, ident, spec.entries)
    return nonnegativize(spec, y)


def _initial_state(normalized, phases, order) -> GenFunState:
    m = len(normalized)
    d = len(normalized[0])
    exps = tuple(AffineForm.unit(m, order[j]) for j in range(m))
    factors = tuple(
        Factor(phases[k], tuple(normalized[order[j]][k] for j in range(m)))
        for k in range(d))
    return GenFunState(exps, factors, Term.one(m))


def _merge_terms(terms) -> tuple[Term, ...]:
    """Add the polynomials of terms with equal guards and phase; drop zero
    sums and sort by (guards, phase)."""
    def guard_key(g):
        return (g.sense, g.form.coeffs, g.form.const)

    buckets: dict = {}
    for t in terms:
        guards = tuple(sorted(t.guards, key=guard_key))
        key = (tuple(map(guard_key, guards)), t.phase.coeffs)
        prev = buckets.get(key)
        poly = t.poly if prev is None else prev.poly + t.poly
        buckets[key] = Term(t.phase, poly, guards)
    merged = (buckets[key] for key in sorted(buckets))
    return tuple(t for t in merged if not t.is_zero())


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
    state = _initial_state(report.normalized, spec.phases, order)
    terms: list[Term] = []
    stack = [state]
    try:
        while stack:
            st = stack.pop()
            if st.active == 1:
                terms.extend(final_univariate(st))
            else:
                stack.extend(reversed(eliminate_last_var(st)))
    except UnsupportedMultiplePole as exc:
        raise UnsupportedMultiplePole(
            f"{exc}, eliminating rows in the order {rows} (last first); "
            f"another order (--order) may avoid it") from exc
    return ResultExpr(m, _merge_terms(terms), spec, report)


def evaluate(expr: ResultExpr, b) -> Fraction:
    """phi_A(b); rejects non-integer or negative totals loudly."""
    b = int_vector(b, "b")
    if len(b) != expr.m:
        raise MatrixParseError(
            f"b has {len(b)} entries but the expression has {expr.m} parameters")
    if expr.report is not None and not expr.report.is_identity:
        b = expr.report.transform(b)
    total = cyc_sum(t.value(b) for t in expr.terms)
    try:
        value = total.to_rational()
    except NotRational as exc:
        raise SanityFailure(f"evaluation at {b} is not rational: {total}") from exc
    if value.denominator != 1 or value < 0:
        raise SanityFailure(
            f"evaluation at {b} is not a nonnegative integer: {value}")
    return value


def verify_box(spec: ProblemSpec, expr: ResultExpr, lo, hi) -> VerifyReport:
    """Compare evaluate against the oracle on every integer b in the box."""
    lo = int_vector(lo, "box corner")
    hi = int_vector(hi, "box corner")
    if not len(lo) == len(hi) == spec.m:
        raise MatrixParseError(f"box corners {lo}, {hi} need {spec.m} entries")
    if expr.m != spec.m:
        raise MatrixParseError(
            f"the expression has {expr.m} parameters but the matrix has "
            f"{spec.m} rows")
    if any(a > b for a, b in zip(lo, hi)):
        raise MatrixParseError(f"empty box: lower corner {lo} exceeds {hi}")
    if any(spec.phases):
        # box_counts counts unweighted solutions, so it is no oracle for a
        # phase-weighted generating function.
        raise MatrixParseError(
            f"verify_box has no oracle for column phases {spec.phases}")
    y = check_pointed(spec)
    report = VerifyReport()
    start = time.perf_counter()
    # The first coordinate varies fastest.
    for b, expected in box_counts(spec, lo, hi, y).items():
        got = evaluate(expr, b)
        report.points_checked += 1
        if got != expected:
            report.mismatches.append((b, expected, got))
    report.seconds = time.perf_counter() - start
    return report
