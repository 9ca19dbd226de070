"""Symbolic objects formal in the parameter vector b.

Affine forms (integer exponents and guards), phase forms e(rho . b),
parameter polynomials with cyclotomic coefficients, guards, the engine's
closed Terms, and the Summands of the output, each one polynomial with
periodic rational coefficients for the nesting Galois orbits of a guard set.
Everything is immutable and freely shareable between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .cyclotomic import (Cyclotomic, cyc_from_phase, cyc_lowest, cyc_mul,
                         least_conjugate, orbit_table)
from .errors import DimensionMismatch, MatrixParseError


@dataclass(frozen=True)
class AffineForm:
    """Integer-coefficient affine function of the parameter vector."""

    coeffs: tuple[int, ...]
    const: int = 0

    @classmethod
    def unit(cls, m: int, i: int) -> "AffineForm":
        return cls(tuple(1 if j == i else 0 for j in range(m)), 0)

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def eval(self, b) -> int:
        if len(b) != len(self.coeffs):
            raise DimensionMismatch(
                f"expected {len(self.coeffs)} parameters, got {len(b)}")
        return sum(map(mul, self.coeffs, b)) + self.const

    def __add__(self, other):
        if isinstance(other, int):
            return AffineForm(self.coeffs, self.const + other)
        if isinstance(other, AffineForm):
            return AffineForm(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                self.const + other.const)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(tuple(-c for c in self.coeffs), -self.const)

    def __sub__(self, other):
        if isinstance(other, int):
            return self + (-other)
        if isinstance(other, AffineForm):
            return self + (-other)
        return NotImplemented

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return AffineForm(tuple(n * c for c in self.coeffs), n * self.const)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PhaseForm:
    """Phase e(nums . b / level) in lowest terms: every numerator lies in
    [0, level) and gcd(level, *nums) = 1, so equal phases are equal forms.

    The constant part of a phase is always folded into a state's scalar or
    a Term's polynomial, so only the b-dependent coefficients live here.
    """

    nums: tuple[int, ...]
    level: int = 1

    def __post_init__(self):
        n = self.level
        if n < 1 or not all(0 <= a < n for a in self.nums):
            raise ValueError(
                f"phase numerators {self.nums} are not reduced mod {n}")
        g = gcd(n, *self.nums)
        if g != 1:
            object.__setattr__(self, "nums", tuple(a // g for a in self.nums))
            object.__setattr__(self, "level", n // g)

    @classmethod
    def from_coeffs(cls, coeffs) -> "PhaseForm":
        """The phase e(coeffs . b) for rational coefficients in [0, 1)."""
        n = lcm(*(c.denominator for c in coeffs))
        return cls(tuple(c.numerator * (n // c.denominator) for c in coeffs), n)

    def eval(self, b) -> Fraction:
        if len(b) != len(self.nums):
            raise DimensionMismatch(
                f"expected {len(self.nums)} parameters, got {len(b)}")
        return Fraction(sum(map(mul, self.nums, b)) % self.level, self.level)


class ParamPoly:
    """Polynomial in the parameters with cyclotomic coefficients.

    Stored as a map from exponent vectors to nonzero coefficients, each a
    triple (level, nums, den) in lowest terms with tuple numerators.
    """

    __slots__ = ("arity", "_monos")

    def __init__(self, arity: int, monos=None):
        self.arity = arity
        self._monos = {}
        for exps, c in (monos or {}).items():
            if any(c[1]):
                level, nums, den = cyc_lowest(c)
                self._monos[tuple(exps)] = level, tuple(nums), den

    @classmethod
    def constant(cls, arity: int, coeff) -> "ParamPoly":
        return cls(arity, {(0,) * arity: coeff})

    def items(self):
        return self._monos.items()

    def eval(self, b) -> Cyclotomic:
        if len(b) != self.arity:
            raise DimensionMismatch(
                f"expected {self.arity} parameters, got {len(b)}")
        return sum((Cyclotomic._ints(*c) * prod(x**e for x, e in zip(b, exps))
                    for exps, c in self._monos.items()), Cyclotomic.zero())

    def scale(self, c) -> "ParamPoly":
        """The polynomial times the triple c."""
        return ParamPoly(self.arity,
                         {e: cyc_mul(v, c) for e, v in self._monos.items()})

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if self.arity != other.arity or set(self._monos) != set(other._monos):
            return False
        return all(Cyclotomic._ints(*c) == Cyclotomic._ints(*other._monos[e])
                   for e, c in self._monos.items())

    __hash__ = None

    def __str__(self):
        if not self._monos:
            return "0"
        parts = []
        for exps, c in sorted(self._monos.items(), reverse=True):
            coeff = Cyclotomic._ints(*c)
            mono = "*".join(
                (f"x{i}" if e == 1 else f"x{i}^{e}")
                for i, e in enumerate(exps) if e)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            else:
                parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self.arity}, '{self}')"


def binom_poly(j: int, beta: AffineForm) -> ParamPoly:
    """binom(j + beta - 1, j) = beta(beta+1)...(beta+j-1)/j! as a ParamPoly,
    multiplied out in ints over j!."""
    m = beta.arity
    out = {(0,) * m: 1}
    for i in range(j):
        f = beta + i
        grown: dict = {}
        for e, v in out.items():
            for k, c in enumerate(f.coeffs + (f.const,)):
                e1 = e[:k] + (e[k] + 1,) + e[k + 1:] if k < m else e
                grown[e1] = grown.get(e1, 0) + v * c
        out = grown
    return ParamPoly(m, {e: (1, (v,), factorial(j)) for e, v in out.items()})


GE_ZERO = "ge"
EQ_ZERO = "eq"


@dataclass(frozen=True)
class Guard:
    """Affine branch condition on b: form >= 0 or form = 0."""

    form: AffineForm
    sense: str = GE_ZERO

    def __post_init__(self):
        if self.sense not in (GE_ZERO, EQ_ZERO):
            raise MatrixParseError(f"guard sense must be {GE_ZERO!r} or "
                                   f"{EQ_ZERO!r}, got {self.sense!r}")

    def satisfied(self, b) -> bool:
        v = self.form.eval(b)
        return v == 0 if self.sense == EQ_ZERO else v >= 0

    def is_trivial(self) -> bool:
        # Constant-only guards that always hold.
        if any(self.form.coeffs):
            return False
        c = self.form.const
        return c == 0 if self.sense == EQ_ZERO else c >= 0


@dataclass(frozen=True)
class Term:
    """Closed summand e(phase(b)) * poly(b) under affine guards."""

    phase: PhaseForm
    poly: ParamPoly
    guards: tuple[Guard, ...] = ()

    def value(self, b) -> Cyclotomic:
        """0 if any guard fails, else e(phase(b)) * poly(b).  The guards'
        and the phase's eval reject a b of the wrong length."""
        if not all(g.satisfied(b) for g in self.guards):
            return Cyclotomic.zero()
        return cyc_from_phase(self.phase.eval(b)) * self.poly.eval(b)


class Summand(NamedTuple):
    """sum_k e(k * (residue . b) / modulus) * poly_k(b) under shared guards,
    the Galois orbits of one guard set whose residues nest, as a polynomial
    in b whose coefficients are tables indexed by j = residue . b mod modulus.

    `poly` holds (exponents, table) pairs; an entry is a Fraction, or a
    Cyclotomic where the orbit sum is not rational (specs with phases).
    A named tuple, not a dataclass: it is built and compared the same way,
    and its class is cheaper to create at import.
    """

    guards: tuple[Guard, ...]
    modulus: int
    residue: tuple[int, ...]
    poly: tuple[tuple[tuple[int, ...], tuple], ...]


def _guard_key(g: Guard):
    return (g.sense, g.form.coeffs, g.form.const)


def collapse_terms(terms, l0: int) -> tuple[Summand, ...]:
    """Group terms by guards and by the class (n, v) of the cyclic group
    their phase generates, fold each class, largest modulus first, into a
    kept (n', v') of its guard set with n | n', v' = v mod n and all of its
    monomials (a pair (k, c) enters as (k * n' / n, c)), and tabulate each
    kept class into one Summand.  Each term stands for its
    average over the Galois group of the units u = 1 mod l0, so an entry is
    a trace, which `orbit_table` writes in closed form through the Gauss
    periods of that group (Ramanujan sums for l0 = 1; l0 = 0: each term
    stands for itself).  Terms with equal phases land in the same table
    entries, zero tables and summands are dropped, and the summands are
    sorted by (guards, modulus, residue)."""
    groups: dict = {}
    for t in terms:
        guards = tuple(sorted(t.guards, key=_guard_key))
        # The phase w / n is in lowest terms, so n is its order, and it is
        # k * v / n: v = u * w mod n, the least over the units u mod n,
        # names the group, and k = 1/u mod n.
        n = t.phase.level
        v, u = least_conjugate(t.phase.nums, n)
        k = pow(u, -1, n)
        key = (tuple(map(_guard_key, guards)), n, v)
        monos = groups.setdefault(key, (guards, {}))[1]
        for exps, c in t.poly.items():
            monos.setdefault(exps, []).append((k, c))
    kept: dict = {}
    for (gk, n, v), (_, monos) in sorted(groups.items(), reverse=True):
        for n1, v1, into in kept.setdefault(gk, []):
            if not n1 % n and monos.keys() <= into.keys() and all(
                    a % n == b for a, b in zip(v1, v)):
                for exps, parts in groups.pop((gk, n, v))[1].items():
                    into[exps] += [(k * (n1 // n), c) for k, c in parts]
                break
        else:
            kept[gk].append((n, v, monos))
    out = []
    for key in sorted(groups):
        guards, monos = groups[key]
        _, n, v = key
        tables = ((exps, orbit_table(n, monos[exps], l0))
                  for exps in sorted(monos))
        poly = tuple((exps, table) for exps, table in tables if any(table))
        if poly:
            out.append(Summand(guards, n, v, poly))
    return tuple(out)
