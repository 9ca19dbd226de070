"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a polynomial in zeta_N of degree < phi(N), reduced modulo the
N-th cyclotomic polynomial Phi_N.  This canonical form makes equality
decidable, which the elimination engine relies on for pole-collision
detection.  Coefficients are held as integer numerators over one positive
common denominator, in lowest terms; nothing here ever rounds.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import LevelMismatch, LevelOverflow, MatrixParseError, NotRational
from .matrixops import int_vector, rat_vector

DEFAULT_LEVEL_CAP = 10**6
_level_cap = ContextVar("level_cap", default=DEFAULT_LEVEL_CAP)


@contextmanager
def level_cap(cap):
    """Cap cyclotomic levels at `cap` inside the block, so lcm blow-up fails
    loudly; the cap is per context, and a new thread starts at the default."""
    (cap,) = int_vector((cap,), "the level cap")
    if cap < 1:
        raise MatrixParseError(f"the level cap must be positive, got {cap}")
    token = _level_cap.set(cap)
    try:
        yield
    finally:
        _level_cap.reset(token)


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    cap = _level_cap.get()
    if n > cap:
        raise LevelOverflow(
            f"cyclotomic level {n} exceeds cap {cap}; raise the cap with "
            f"--max-level or VPF_MAX_LEVEL (CLI) or vpf.level_cap (library)")


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, ascending coefficients).

def _int_divexact(num, den):
    # Exact division of integer polynomials by a monic den.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num)
    return q


@lru_cache(maxsize=None)
def _cyclo_poly(n: int) -> tuple[int, ...]:
    # x^n - 1 divided by Phi_d over all proper divisors d of n.
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _int_divexact(p, _cyclo_poly(d))
    return tuple(p)


@lru_cache(maxsize=None)
def _phi_taps(n: int):
    """deg Phi_n and its nonzero lower coefficients (j, c_j)."""
    phi = _cyclo_poly(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(n: int, c: list) -> list:
    """Remainder of the integer polynomial c mod Phi_n, padded to phi(n).

    Works on c in place from the top coefficient down, so a polynomial of
    degree < n costs only n - phi(n) row operations.
    """
    deg, taps = _phi_taps(n)
    for i in range(len(c) - 1, deg - 1, -1):
        v = c[i]
        if v:
            base = i - deg
            for j, p in taps:
                c[base + j] -= v * p
    return c[:deg] + [0] * (deg - len(c))


def _mul_mod(n: int, a, b) -> list:
    """a * b mod Phi_n for integer coefficient vectors of length phi(n).

    Kronecker substitution: both operands are packed into one integer with a
    slot of k bytes per coefficient, wide enough for every product
    coefficient and its sign, so a single big-integer multiply does the
    convolution.  Each slot is biased by half its range to unpack signed
    coefficients.  The product is then folded mod x^n - 1 (zeta^n = 1) and
    only its top n - phi(n) coefficients are reduced mod Phi_n.
    """
    if not any(a) or not any(b):
        # A zero operand would size the slots below too narrow for the other.
        return [0] * len(a)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    k = (bound.bit_length() + 8) // 8
    h = 1 << (8 * k - 1)
    half = h.to_bytes(k, "little")

    def pack(c):
        return (int.from_bytes(b"".join((v + h).to_bytes(k, "little") for v in c),
                               "little")
                - int.from_bytes(half * len(c), "little"))

    size = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + int.from_bytes(half * size, "little")).to_bytes(
        k * size, "little")
    c = [int.from_bytes(raw[i:i + k], "little") - h for i in range(0, k * size, k)]
    for j in range(n, size):
        c[j - n] += c[j]
    del c[n:]
    return _reduce(n, c)


# ---------------------------------------------------------------------------


class Cyclotomic:
    """Exact element of Q(zeta_N): phi(N) integer numerators `num` over the
    positive common denominator `den`, with gcd(num, den) = 1."""

    __slots__ = ("level", "num", "den")

    # Canonical form means equality at a common level is coefficient equality;
    # values at different levels are compared after embedding into the lcm.
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, level: int, coeffs):
        """The element sum_i coeffs[i] zeta_level^i for rational coeffs,
        read like outside input: a float, a bool or a string is rejected."""
        (level,) = int_vector((level,), "level")
        _check_level(level)
        coeffs = rat_vector(coeffs, "coefficients")
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * den // c.denominator for c in coeffs]
        self._set(level, _reduce(level, num), den)

    def _set(self, level, num, den) -> None:
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        # Elements are shared through the memos, so they never change.
        raise AttributeError(f"Cyclotomic is immutable; cannot set {name}")

    def __reduce__(self):  # pickle and copy rebuild through _ints
        return (Cyclotomic._ints, (self.level, self.num, self.den))

    @classmethod
    def _ints(cls, level: int, num, den: int = 1) -> "Cyclotomic":
        """Element with integer numerators `num` over `den` > 0."""
        x = object.__new__(cls)
        x._set(level, num, den)
        return x

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(level) rational coefficients."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._ints(1, (0,))

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls._ints(1, (1,))

    @classmethod
    def from_phase(cls, q) -> "Cyclotomic":
        """The root of unity e(q) = exp(2*pi*i*q) for rational q."""
        return cyc_from_phase(q)

    # -- representation changes ------------------------------------------

    def raise_level(self, m: int) -> "Cyclotomic":
        """Same field element represented at level m (level must divide m)."""
        if m % self.level:
            raise LevelMismatch(f"level {self.level} does not divide {m}")
        _check_level(m)
        if m == self.level:
            return self
        step = m // self.level
        poly = [0] * ((len(self.num) - 1) * step + 1)
        poly[::step] = self.num
        return Cyclotomic._ints(m, _reduce(m, poly), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        """The rational value, if the element lies in Q."""
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- field arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic._ints(1, (x.numerator,), x.denominator)
        return None

    def _common(self, other):
        n = lcm(self.level, other.level)
        return self.raise_level(n), other.raise_level(n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return Cyclotomic._ints(
            a.level, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._ints(self.level, [-v for v in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == 1:
            self, other = other, self
        if other.level == 1:  # scalar fast path
            q = other.num[0]
            return Cyclotomic._ints(
                self.level, [v * q for v in self.num], self.den * other.den)
        a, b = self._common(other)
        return Cyclotomic._ints(
            a.level, _mul_mod(a.level, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse by the Galois norm: with sigma_k sending
        zeta to zeta^k for the units k mod N, N(x) = prod_k sigma_k(x) is a
        nonzero rational, so 1/x = prod_{k != 1} sigma_k(x) / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.level
        conjs = [[1] + [0] * (len(self.num) - 1)]
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = [0] * n
                for i, v in enumerate(self.num):
                    c[i * k % n] = v
                conjs.append(_reduce(n, c))
        while len(conjs) > 1:  # oldest two first: operands grow alike
            conjs.append(_mul_mod(n, conjs.pop(0), conjs.pop(0)))
        rest = Cyclotomic._ints(n, conjs[0])
        return rest * (1 / (self * rest).to_rational())

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_rational():
            return str(self.to_rational())
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if i == 0 else (f"z{self.level}" if i == 1 else f"z{self.level}^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Cyclotomic({self.level}, '{self}')"


def _phase(q) -> Fraction:
    """q mod 1, its level checked; a q that is not a Fraction is read like
    outside input, so a float, a bool or a string is rejected."""
    if not isinstance(q, Fraction):
        (q,) = rat_vector((q,), "phase")
    q %= 1
    _check_level(q.denominator)
    return q


def cyc_from_phase(q) -> Cyclotomic:
    """e(q) = exp(2*pi*i*q) for rational q, memoised on q mod 1."""
    return _phase_root(_phase(q))


@lru_cache(maxsize=None)
def _phase_root(q: Fraction) -> Cyclotomic:
    n = q.denominator
    return Cyclotomic._ints(n, _reduce(n, [0] * q.numerator + [1]))


@lru_cache(maxsize=None)
def phase_orbit(coeffs) -> tuple[int, tuple[int, ...], int]:
    """(L, v, k) with coeffs = k * v / L mod 1 for the rational phase
    vector `coeffs`: L its order in (Q/Z)^m, v the smallest u * w mod L
    over the units u mod L, with w = L * coeffs, which names the cyclic
    group the phase generates, and k a unit mod L.

    The first nonzero w_i, with g = gcd(w_i, L), goes to its smallest image
    g exactly when u * w_i / g = 1 mod L / g, so only those units are tried.
    """
    n = lcm(*(c.denominator for c in coeffs))
    _check_level(n)  # the loop below may try up to n units
    w = [c.numerator * (n // c.denominator) for c in coeffs]
    if n == 1:
        return 1, tuple(w), 0
    first = next(x for x in w if x)
    step = n // gcd(first, n)
    best = None
    for u in range(pow(first * step // n, -1, step), n, step):
        if gcd(u, n) == 1:
            v = tuple(u * x % n for x in w)
            if best is None or v < best:
                best, unit = v, u
    return n, best, pow(unit, -1, n)


def orbit_table(modulus: int, parts) -> tuple:
    """Entries sum_k e(k*j/L) * c_k for j < L = modulus, from pairs (k, c_k).

    Works on integer numerators at level N = lcm(L, levels of the c_k): each
    c_k is spread once over the N-th roots, and multiplying it by e(k*j/L)
    rotates that vector by k*j*N/L places, so an entry costs one rotated
    add per pair and one reduction mod Phi_N.  Rational entries are
    Fractions, the others Cyclotomics at level N.
    """
    parts = [(k, c) for k, c in parts if c]
    if not parts:
        return (Fraction(0),) * modulus
    n = lcm(modulus, *(c.level for _, c in parts))
    _check_level(n)
    den = lcm(*(c.den for _, c in parts))
    spread = []
    for k, c in parts:
        dense = [0] * n
        dense[::n // c.level] = [v * (den // c.den) for v in c.num] + [0] * (
            c.level - len(c.num))
        # The n entries of dense + dense from -s mod n on: dense rotated by s.
        spread.append((k * (n // modulus), dense + dense))
    table = []
    for j in range(modulus):
        windows = [d[(s := -k * j % n):s + n] for k, d in spread]
        red = _reduce(n, list(map(sum, zip(*windows))))
        table.append(Cyclotomic._ints(n, red, den) if any(red[1:])
                     else Fraction(red[0], den))
    return tuple(table)


def inv_one_minus_phase(q) -> Cyclotomic:
    """1/(1 - e(q)) in closed form, memoised on q mod 1.

    For x = e(q) of order n > 1, sum_{j<n} j x^j = n/(x - 1), so
    1/(1 - x) = -(1/n) sum_{j<n} j x^j; no Euclid runs.
    """
    q = _phase(q)
    if q == 0:
        raise ZeroDivisionError("1 - e(0) is zero")
    return _inv_one_minus_root(q)


@lru_cache(maxsize=None)
def _inv_one_minus_root(q: Fraction) -> Cyclotomic:
    n, a = q.denominator, q.numerator
    c = [0] * n
    for j in range(1, n):
        c[a * j % n] = -j
    return Cyclotomic._ints(n, _reduce(n, c), n)
