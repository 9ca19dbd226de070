"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a polynomial in zeta_N of degree < phi(N), reduced modulo the
N-th cyclotomic polynomial Phi_N, a canonical form that makes equality
decidable.  Its coefficients are integer numerators over one positive
common denominator.  The field arithmetic is six kernels on such (level,
nums, den) triples, which the engine chains as they are and `Cyclotomic`
wraps in lowest terms; nothing here ever rounds.
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

def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with p^e exactly dividing n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _totient(n: int) -> int:
    for p, _ in _factor(n):
        n = n // p * (p - 1)
    return n


def _cyclo_poly(n: int) -> tuple[int, ...]:
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): the product of the binomials
    with mu = +1, then divided exactly by each binomial with mu = -1.  Every
    step is linear in the degree, so Phi_n costs O(n 2^omega(n))."""
    signed = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of n
    for q, _ in _factor(n):
        signed += [(e * q, -mu) for e, mu in signed]
    p = [1]
    for e, mu in signed:
        if mu == 1:  # times x^d - 1
            d = n // e
            p = [0] * d + p
            for i in range(len(p) - d):
                p[i] -= p[i + d]
    for e, mu in signed:
        if mu == -1:  # p = q (x^d - 1), so q_i = q_{i-d} - p_i from the bottom
            d = n // e
            for i in range(len(p)):
                p[i] = (p[i - d] if i >= d else 0) - p[i]
            del p[len(p) - d:]
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
# Kernels on triples (level, nums, den): phi(level) ints over den > 0 in the
# reduced power basis, not always in lowest terms.  A product or sum lands at
# the lcm of its operands' levels.


def cyc_raise(x, m: int):
    """The triple x at level m, a multiple of its level."""
    level, nums, den = x
    if m % level:
        raise LevelMismatch(f"level {level} does not divide {m}")
    _check_level(m)
    if m == level:
        return x
    step = m // level
    poly = [0] * ((len(nums) - 1) * step + 1)
    poly[::step] = nums
    return m, _reduce(m, poly), den


def cyc_mul(x, y):
    """The product of two triples; a rational operand only scales."""
    if x[0] == 1:
        x, y = y, x
    if y[0] == 1:
        q = y[1][0]
        return x[0], [v * q for v in x[1]], x[2] * y[2]
    n = lcm(x[0], y[0])
    (_, a, da), (_, b, db) = cyc_raise(x, n), cyc_raise(y, n)
    return n, _mul_mod(n, a, b), da * db


def cyc_add(x, y):
    """The sum of two triples."""
    n = lcm(x[0], y[0])
    (_, a, da), (_, b, db) = cyc_raise(x, n), cyc_raise(y, n)
    den = lcm(da, db)
    sa, sb = den // da, den // db
    return n, [u * sa + v * sb for u, v in zip(a, b)], den


def cyc_rotate(x, a: int, n: int):
    """The triple x times zeta_n^a, at the lcm m of its level and the order
    of zeta_n^a: its numerators raised and shifted mod x^m - 1, reduced."""
    level, nums, den = x
    g = gcd(a, n)
    n //= g
    if n == 1:
        return x
    m = lcm(level, n)
    _check_level(m)
    step, shift = m // level, a // g % n * (m // n)
    c = [0] * m
    c[:(len(nums) - 1) * step + 1:step] = nums
    return m, _reduce(m, c[m - shift:] + c[:m - shift]), den


def cyc_galois(x, u: int):
    """sigma_u(x), the conjugate of the triple x under zeta -> zeta^u, for
    an integer u coprime to its level: each power i of zeta moves to
    i * u mod the level, so only u mod the level matters."""
    n, nums, den = x
    if u % n == 1 % n:
        return x
    c = [0] * n
    for i, v in enumerate(nums):
        c[i * u % n] = v
    return n, _reduce(n, c), den


def cyc_lowest(x):
    """The triple x in lowest terms, gcd(nums, den) = 1."""
    level, nums, den = x
    g = gcd(den, *nums)
    return x if g == 1 else (level, [v // g for v in nums], den // g)


def cyc_triple(x):
    """The triple of a Cyclotomic, an int or a Fraction; None otherwise."""
    if isinstance(x, Cyclotomic):
        return x.level, x.num, x.den
    if isinstance(x, (int, Fraction)):
        return 1, (x.numerator,), x.denominator
    return None


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
        level, num, den = cyc_lowest((level, num, den))
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
        x = cyc_raise((self.level, self.num, self.den), m)
        return self if m == self.level else Cyclotomic._ints(*x)

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

    def __add__(self, other):
        other = cyc_triple(other)
        if other is None:
            return NotImplemented
        return Cyclotomic._ints(*cyc_add((self.level, self.num, self.den), other))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._ints(self.level, [-v for v in self.num], self.den)

    def __sub__(self, other):
        return NotImplemented if cyc_triple(other) is None else self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = cyc_triple(other)
        if other is None:
            return NotImplemented
        return Cyclotomic._ints(*cyc_mul((self.level, self.num, self.den), other))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse by the Galois norm: with sigma_k sending
        zeta to zeta^k for the units k mod N, N(x) = prod_k sigma_k(x) is a
        nonzero rational, so 1/x = prod_{k != 1} sigma_k(x) / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.level
        conjs = [[1] + [0] * (len(self.num) - 1)] + [
            cyc_galois((n, self.num, 1), k)[1]
            for k in range(2, n) if gcd(k, n) == 1]
        while len(conjs) > 1:  # oldest two first: operands grow alike
            conjs.append(_mul_mod(n, conjs.pop(0), conjs.pop(0)))
        rest = Cyclotomic._ints(n, conjs[0])
        return rest * (1 / (self * rest).to_rational())

    def galois(self, u: int) -> "Cyclotomic":
        """sigma_u(self), the conjugate under zeta -> zeta^u, for an integer
        u coprime to the level; only u mod the level matters."""
        return Cyclotomic._ints(*cyc_galois((self.level, self.num, self.den), u))

    def __eq__(self, other):
        diff = self - other  # the difference is canonical, so exactly zero
        return diff if diff is NotImplemented else diff.is_zero()

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


@lru_cache(maxsize=None)
def _root(a: int, n: int) -> Cyclotomic:
    return Cyclotomic._ints(*cyc_rotate((1, (1,), 1), a, n))


def cyc_from_phase(q) -> Cyclotomic:
    """e(q) = exp(2*pi*i*q) for rational q, memoised on q mod 1 with the
    level cap checked on every call; a q that is not a Fraction is read like
    outside input, so a float, a bool or a string is rejected."""
    if not isinstance(q, Fraction):
        (q,) = rat_vector((q,), "phase")
    n = q.denominator
    _check_level(n)
    return _root(q.numerator % n, n)


def least_conjugate(w, n: int, h: int = 1) -> tuple[tuple[int, ...], int]:
    """(v, u) with v = u * w mod n the smallest over the units u mod n with
    u = 1 mod h, for the phase vector w / n in lowest terms (gcd(n, *w) = 1),
    and u one unit that attains it; memoised, with the level cap checked on
    every call.

    The first nonzero w_i = g w' (g = gcd(w_i, n), n = g n') has the images
    g x for the units x mod n' with x = w' mod gcd(h, n'), so the least such
    x is found first and only the units u = x / w' mod n' are tried on the
    whole vector.
    """
    _check_level(n)  # the loop may try up to n / n' units
    return _least_conjugate(w, n, h)


@lru_cache(maxsize=None)
def _least_conjugate(w, n: int, h: int) -> tuple[tuple[int, ...], int]:
    if n == 1:
        return tuple(w), 1
    first = next(x for x in w if x)
    g = gcd(first, n)
    n1, w1 = n // g, first // g
    h1 = gcd(h, n1)
    x = w1 % h1 or h1
    while gcd(x, n1) != 1:
        x += h1
    best = None
    for u in range(x * pow(w1, -1, n1) % n1, n, n1):
        if (u - 1) % h == 0 and gcd(u, n) == 1:
            v = tuple(u * a % n for a in w)
            if best is None or v < best:
                best, unit = v, u
    return best, unit


def phase_orbit(w, n: int) -> tuple[int, tuple[int, ...], int]:
    """(n, v, k) with w = k * v mod n for the phase vector w / n, given in
    lowest terms (gcd(n, *w) = 1, so n is its order in (Q/Z)^m): v the
    smallest u * w mod n over the units u mod n (`least_conjugate`), which
    names the cyclic group the phase generates, and k a unit mod n."""
    v, u = least_conjugate(tuple(w), n)
    return n, v, pow(u, -1, n) if n > 1 else 0


def unit_lift(a: int, n: int, l: int, level: int) -> int:
    """A unit u mod lcm(n, l, level) with u = a mod n and u = 1 mod l, for a
    unit a mod n with a = 1 mod gcd(n, l): the solution mod lcm(n, l),
    stepped by lcm(n, l) until it is prime to `level` too."""
    g = gcd(n, l)
    u = a + n * ((1 - a) // g * pow(n // g, -1, l // g) % (l // g))
    step = n // g * l
    while gcd(u, level) != 1:
        u += step
    return u


def galois_group(n: int, l0: int) -> tuple[int, ...]:
    """The units u mod n with u = 1 mod l0, the image mod n of the group G
    over which the engine averages (l0 = 0: u = 1 alone); memoised, with the
    level cap checked on every call."""
    _check_level(n)
    return _galois_group(n, l0)


@lru_cache(maxsize=None)
def _galois_group(n: int, l0: int) -> tuple[int, ...]:
    # u = 1 + t h for h = gcd(n, l0), up to n: u = 1 is the unit mod 1, and
    # u = n is no unit mod n > 1.
    return tuple(u for u in range(1, n + 1, gcd(n, l0)) if gcd(u, n) == 1)


def periods(n: int, h: int) -> tuple[tuple[int, int], ...]:
    """The Gauss periods T(m) = sum_u zeta_n^(u m) over the group G of the
    units u mod n with u = 1 mod h, for h | n: the pairs (t, e) with
    T(m) = t * zeta_h^e for m < n, so t = |G| at m = 0.  With h = 1, T is
    Ramanujan's sum c_n(m) = mu(n/g) phi(n) / phi(n/g), g = gcd(m, n).
    Memoised, with the level cap checked on every call."""
    _check_level(n)
    return _periods(n, h)


@lru_cache(maxsize=None)
def _periods(n: int, h: int) -> tuple[tuple[int, int], ...]:
    # With g = gcd(m, n) and d = n / g, zeta_n^(u m) = zeta_d^(u m') with
    # m' = m / g a unit mod d, and G maps onto G_d, the units mod d that are
    # 1 mod h_d = gcd(d, h), |G| / |G_d| elements to one.  Write d = a b with
    # a the largest divisor of d built from primes of h_d.  By the Chinese
    # remainder theorem the sum over G_d is Ramanujan's c_b(m') = mu(b), a
    # sum over the units mod b, times a sum over the x = 1 mod h_d mod a,
    # which is zeta_a^(m' / b mod a) when a = h_d and 0 otherwise.  Then
    # |G_d| = phi(b), and zeta_a = zeta_h^(h / a).
    factors = _factor(n)
    size = _totient(n) // _totient(h)
    by_gcd = {}
    divisors = [1]
    for q, e in factors:
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    for d in divisors:
        hd = gcd(d, h)
        a, b, mu, phi_b = 1, d, 1, 1
        for q, _ in factors:
            if b % q:
                continue
            if hd % q == 0:  # all of q's power goes to a
                while b % q == 0:
                    b //= q
                    a *= q
            elif b % (q * q):
                mu, phi_b = -mu, phi_b * (q - 1)
            else:
                mu = 0
        if mu and a == hd:
            by_gcd[n // d] = mu * size // phi_b, pow(b, -1, a) * (h // a) % h
    out = []
    for m in range(n):
        g = gcd(m, n)
        t, w = by_gcd.get(g, (0, 0))
        out.append((t, m // g * w % h))
    return tuple(out)


def orbit_table(modulus: int, parts, l0: int) -> tuple:
    """Entries sum_k avg_u e(u*k*j/L) * sigma_u(c_k) for j < L = modulus,
    from pairs (k, c_k): each pair stands for its average over the units
    u = 1 mod l0 (`galois_group`; l0 = 0 leaves the pair itself).

    The average is a trace.  At level N = lcm(L, levels of the c_k), write
    c_k = sum_i a_i zeta_N^i unreduced, and let G be the units mod N that
    are 1 mod h = gcd(N, l0) (h = N for l0 = 0).  Entry j is then
    (1/|G|) sum_k sum_i a_i T(i + k*j*N/L), with T the Gauss period in
    closed form (`periods`), which lies in Q(zeta_h).  So an entry costs one
    integer product per nonzero a_i, added into a vector of h integers that
    is reduced once mod Phi_h; with h = 1 (an unphased spec) T is
    Ramanujan's sum and the entry is rational.  Rational entries are
    Fractions, the others Cyclotomics at level h = gcd(N, l0).
    """
    parts = [(k, c) for k, c in parts if c]
    if not parts:
        return (Fraction(0),) * modulus
    n = lcm(modulus, *(c.level for _, c in parts))
    h = gcd(n, l0)
    period = periods(n, h)
    den = lcm(*(c.den for _, c in parts))
    places = []
    for k, c in parts:
        step, scale = n // c.level, den // c.den
        places.append((k * (n // modulus),
                       [(i * step, v * scale) for i, v in enumerate(c.num) if v]))
    den *= period[0][0]  # |G| = T(0)
    table = []
    for j in range(modulus):
        acc = [0] * h
        for shift, terms in places:
            shift *= j
            for i, v in terms:
                t, e = period[(i + shift) % n]
                acc[e] += v * t
        red = _reduce(h, acc) if h > 1 else acc
        table.append(Cyclotomic._ints(h, red, den)
                     if any(red[1:]) else Fraction(red[0], den))
    return tuple(table)


def inv_one_minus_root(a: int, n: int):
    """The triple of 1/(1 - e(a/n)) in closed form and lowest terms,
    memoised on a/n in lowest terms; the level cap is checked on every
    call.

    For x = e(a/n) of order n > 1, sum_{j<n} j x^j = n/(x - 1), so
    1/(1 - x) = -(1/n) sum_{j<n} j x^j; no Euclid runs.
    """
    g = gcd(a, n)
    n //= g
    if n == 1:
        raise ZeroDivisionError("1 - e(0) is zero")
    _check_level(n)
    return _inv_one_minus_root(a // g % n, n)


@lru_cache(maxsize=None)
def _inv_one_minus_root(a: int, n: int):
    c = [0] * n
    for j in range(1, n):
        c[a * j % n] = -j
    level, nums, den = cyc_lowest((n, _reduce(n, c), n))
    return level, tuple(nums), den
