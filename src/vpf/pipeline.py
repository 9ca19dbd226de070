"""End-to-end driver.

Validates the input matrix, certifies pointedness, normalizes to nonnegative
entries by a unimodular change of coordinates, runs the iterated elimination
(`genfun.expand`), collapses the terms into summands with periodic rational
coefficients, and verifies closed forms against the lattice-point oracle.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm

from .cyclotomic import Cyclotomic
from .errors import (DimensionMismatch, MatrixParseError, NotPointed,
                     SanityFailure, UnsupportedMultiplePole)
from .genfun import expand
from .matrixops import (
    det_int,
    fm_certificate,
    int_vector,
    mat_mul_int,
    mat_vec_int,
    primitive_integer,
    rat_vector,
    sequence,
    unimodular_with_last_row,
)
from .oracle import box_points_and_counts
from .params import EQ_ZERO, AffineForm, Guard, Summand, collapse_terms


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

    @cached_property
    def certificate(self) -> tuple[Fraction, ...]:
        """The pointedness certificate, a rational y with y . c_k >= 1 for
        every column, by Fourier-Motzkin elimination on first use and kept
        for the spec's lifetime; NotPointed otherwise, on every read, since
        an exception is never cached."""
        return fm_certificate(self.columns)


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
        Cyclotomic; the report's certificate holds rationals and its rows
        ints (MatrixParseError).  Residues, guards and exponents have m
        entries, the spec m rows, the unimodular m x m, and the certificate
        and the normalized rows m entries and rows or none, as a document
        without them gives (DimensionMismatch).  A report fits the spec: U
        unimodular, U A the normalized rows, y . c > 0 (MatrixParseError)."""
        (m,) = int_vector((self.m,), "m")
        if m < 1:
            raise MatrixParseError(f"m = {m} is not positive")
        sizes = {m}
        if self.report is not None:
            u = [int_vector(r, "unimodular row")
                 for r in sequence(self.report.unimodular, "unimodular")]
            y = rat_vector(self.report.certificate, "certificate")
            ua = [int_vector(r, "normalized row")
                  for r in sequence(self.report.normalized, "normalized")]
            sizes = {len(u), *map(len, u), *(len(x) for x in (y, ua) if x)}
        if self.spec is not None:
            sizes.add(self.spec.m)
        flat = self._flat_sizes()  # None: the loop words the first error
        sizes.update(flat or ())
        for s in self.terms if flat is None else ():
            guards = sequence(s.guards, "summand guards")
            if not all(isinstance(g, Guard) for g in guards):
                raise MatrixParseError(f"summand guards {guards!r} are not "
                                       f"all Guards")
            poly = [(sequence(e, "summand exponents"),
                     sequence(t, "summand table"))
                    for e, t in (sequence(p, "summand monomial", 2)
                                 for p in sequence(s.poly, "summand poly"))]
            exps, tables = tuple(zip(*poly)) or ((), ())
            vectors = (sequence(s.residue, "summand residue"), *exps,
                       *(g.form.coeffs for g in guards))
            int_vector((s.modulus, *(g.form.const for g in guards),
                        *chain.from_iterable(vectors)),
                       "summand modulus, residue, exponents and guards")
            rat_vector([x for t in tables for x in t
                        if not isinstance(x, Cyclotomic)], "table entries")
            sizes.update(map(len, vectors))
            if s.modulus < 1:
                raise MatrixParseError(f"modulus {s.modulus} is not positive")
            if set(map(len, tables)) - {s.modulus}:
                raise MatrixParseError(
                    f"a table does not have {s.modulus} entries")
            if min(chain.from_iterable(exps), default=0) < 0:
                raise MatrixParseError("an exponent is negative")
        if sizes != {m}:
            raise DimensionMismatch(f"expected {m} parameters, got {sizes}")
        if self.spec is not None and self.report is not None:
            cols = list(zip(*self.spec.entries))
            if abs(det_int(u)) != 1:
                raise MatrixParseError(f"the unimodular {u} has det != +-1")
            if ua and [mat_vec_int(cols, r) for r in u] != ua:
                raise MatrixParseError(f"the normalized rows {ua} are not U A")
            d = lcm(*(q.denominator for q in y))  # d * y is integral
            if y and min(mat_vec_int(cols, [d * q.numerator // q.denominator
                                            for q in y])) <= 0:
                raise MatrixParseError(f"y = {y} gives y . c <= 0 on a column")

    def _flat_sizes(self):
        """The lengths of every residue, exponent and guard form, from one
        pass over all summands, if each is as `compute` builds it: tuples of
        exact ints and of (tuple, tuple) pairs, Guards over AffineForms, a
        modulus >= 1, exponents >= 0 and tables of modulus Fractions or
        Cyclotomics; None otherwise."""
        ts = self.terms
        if type(ts) is not tuple or not {Summand}.issuperset(map(type, ts)):
            return None
        gs, ns, rs, ps = tuple(zip(*ts)) or ((),) * 4
        if not {tuple}.issuperset(map(type, chain(gs, rs, ps))):
            return None
        pairs, guards = [*chain.from_iterable(ps)], [*chain.from_iterable(gs)]
        form = operator.attrgetter("form")
        if not ({tuple}.issuperset(map(type, pairs)) and {2}.issuperset(
                map(len, pairs)) and {Guard}.issuperset(map(type, guards))
                and {AffineForm}.issuperset(map(type, map(form, guards)))):
            return None
        es, tables = tuple(zip(*pairs)) or ((), ())
        cs, ks = zip(*map(operator.attrgetter("coeffs", "const"),
                          map(form, guards))) if guards else ((), ())
        if not ({tuple}.issuperset(map(type, chain(es, tables, cs)))
                and {int}.issuperset(map(type, chain(ns, ks, *rs, *es, *cs)))
                and {Fraction, Cyclotomic}.issuperset(
                    map(type, chain.from_iterable(tables)))
                and min(ns, default=1) >= 1
                and min(chain.from_iterable(es), default=0) >= 0
                and [*map(len, tables)] == [
                    *chain.from_iterable(map(repeat, ns, map(len, ps)))]):
            return None
        return set(map(len, chain(rs, es, cs)))

    def __getstate__(self):
        """pickle, copy and deepcopy leave the compiled plan behind; the
        copy builds its own on its first evaluate."""
        return {k: v for k, v in vars(self).items() if k != "_plan"}

    @cached_property
    def _plan(self):
        """What `evaluate` reads, built on its first call and never a field:
        a kernel compiled for this expression, the lcm D of all entry
        denominators, whether the spec has column phases, and the transform
        (None for identity).  The kernel returns None unless b is a tuple of
        m exact ints, else adds table[residue . b mod modulus] * monomial in
        each guard group that holds; a guard form, residue or monomial read
        twice is named once.  Tables hold x * D and are bound by reference,
        so an unphased kernel returns D times the value as an int; the source
        holds only fixed names and int literals, written by hex() from
        operator.index, which no int subclass can change and which, unlike
        repr, has no digit limit."""
        m, u = self.m, self.report and self.report.unimodular
        transform = None if u is None or u == tuple(
            tuple(int(i == j) for j in range(m)) for i in range(m)) else u
        den = lcm(*(x.den if isinstance(x, Cyclotomic) else x.denominator
                    for s in self.terms for _, t in s.poly for x in t))
        args = [f"b{i}" for i in range(m)]
        nb = args if transform is None else [f"n{i}" for i in range(m)]
        code = [f"if type(b) is not tuple or len(b) != {hex(m)}: return",
                f"{', '.join(args)}, = b", "if " + " or ".join(map(
                    "type({}) is not int".format, args)) + ": return",
                *(f"n{i} = {_affine(r, args)}"
                  for i, r in enumerate(transform or ()))]
        forms, monos, residues, groups, tables = {}, {}, {}, {}, {}
        for s in self.terms:
            if not s.poly:
                continue
            r = (tuple(map(operator.index, s.residue)),
                 operator.index(s.modulus))
            j = "" if r[1] == 1 else (
                f"[{{r{residues.setdefault(r, len(residues))}}}]")
            added = []
            for e, t in s.poly:
                name = f"T{len(tables)}"
                t = [x * den if isinstance(x, Cyclotomic)
                     else x.numerator * (den // x.denominator) for x in t]
                tables[name] = t if j else t[0]
                e = tuple(map(operator.index, e))
                p = (f" * {nb[e.index(1)]}" if sum(e) == 1 else
                     f" * {{p{monos.setdefault(e, len(monos))}}}" if any(e)
                     else "")
                added.append(f"{name}{j}{p}")
            key = tuple(f"{{g{forms.setdefault(f, len(forms))}}}" for f in (
                (tuple(g.form.coeffs), g.form.const, g.sense == EQ_ZERO)
                for g in s.guards))
            groups.setdefault(key, []).extend(added)
        body = ["t = 0"]
        for key, added in groups.items():
            line = f"t += {' + '.join(added)}"
            body.append(f"if {' and '.join(key)}: {line}" if key else line)
        body = "\n    ".join([*body, "return t"])
        defs = {f"g{i}": f"{_affine(c, nb, k)} {'==' if eq else '>='} 0"
                for (c, k, eq), i in forms.items()}
        defs.update((f"p{i}", " * ".join(
            v if k == 1 else f"{v}**{hex(k)}" for v, k in zip(nb, e) if k))
            for e, i in monos.items())
        for (r, n), i in residues.items():  # each parenthesis costs the parser
            r = _affine(r, nb)
            defs[f"r{i}"] = f"{f'({r})' if ' ' in r else r} % {hex(n)}"
        for name, text in defs.items():
            if body.count(f"{{{name}}}") > 1:
                code.append(f"{name} = {text}")
                defs[name] = name
        source = "\n    ".join(["def kernel(b):", *code,
                                 body.format_map(defs)])
        scope = {"__builtins__": {}, "type": type, "tuple": tuple,
                 "len": len, "int": int, **tables}
        exec(compile(source, "<vpf evaluation kernel>", "exec"), scope)
        phased = self.spec is not None and any(self.spec.phases)
        return scope["kernel"], den, phased, transform


def _affine(coeffs, names, const=0) -> str:
    """Source of coeffs . names + const: fixed names and hex literals."""
    parts = [(c, v if abs(c) == 1 else f"{hex(abs(c))}*{v}")
             for c, v in zip(map(operator.index, coeffs), names) if c]
    const = operator.index(const)
    if const or not parts:
        parts.append((const, hex(abs(const))))
    text = "".join(f" - {w}" if c < 0 else f" + {w}" for c, w in parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


@dataclass
class VerifyReport:
    points_checked: int = 0
    mismatches: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_pointed(spec: ProblemSpec) -> tuple[Fraction, ...]:
    """A rational y with y . c_k >= 1 for every column; NotPointed otherwise.
    This is `spec.certificate`, computed once per spec and shared with
    `preprocess` and the oracle."""
    return spec.certificate


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
    y = spec.certificate
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
    Fraction when it is rational and a Cyclotomic otherwise.  The kernel
    takes b as it is; a b it turns away is read by `int_vector` first.
    """
    kernel, den, phased, transform = expr._plan
    total = kernel(b)  # over den; a Cyclotomic entry promotes it
    if total is None:
        b = int_vector(b, "b", expr.m)
        total = kernel(b)
    if isinstance(total, int):  # the count times den, read by one divmod
        count, rest = divmod(total, den)
        if not rest and (phased or count >= 0):
            if not 0 <= count < 1024:
                return Fraction(count)
            if (value := _COUNTS[count]) is None:
                value = _COUNTS[count] = Fraction(count)
            return value
        value = Fraction(total, den)
    else:
        value = total * Fraction(1, den)
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
    at = b if transform is None else (
        f"{b} (normalized {mat_vec_int(transform, b)})")
    raise SanityFailure(f"evaluation at {at} is not {wanted}: {value}")


#: Fraction(n) for each count 0 <= n < 1,024 met: immutable, so shared.
_COUNTS = [None] * 1024


def verify_box(spec: ProblemSpec, expr: ResultExpr, lo, hi) -> VerifyReport:
    """Compare evaluate against the oracle on every integer b in the box;
    `box_points_and_counts` checks the box and the spec.

    The compiled kernel takes each point as in `evaluate` and gives its
    total over the denominator D in integers; D times the count passes.
    `evaluate` runs only where the total is not an int or differs, so a
    mismatch is reported with its value and a value that is no count raises
    SanityFailure, as when every point is evaluated."""
    if expr.m != spec.m:
        raise MatrixParseError(
            f"the expression has {expr.m} parameters but the matrix has "
            f"{spec.m} rows")
    report = VerifyReport()
    start = time.perf_counter()
    # The first coordinate varies fastest.
    points, counts = box_points_and_counts(spec, lo, hi)
    kernel, den, _, _ = expr._plan
    for b, expected in zip(points, counts):
        total = kernel(b)
        if type(total) is not int or total != expected * den:
            got = evaluate(expr, b)
            if got != expected:
                report.mismatches.append((b, expected, got))
    report.points_checked = len(counts)
    report.seconds = time.perf_counter() - start
    return report
