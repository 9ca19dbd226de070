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


def _conjugate(n: int, num, u: int) -> list:
    """The numerators of sigma_u(sum_i num[i] zeta_n^i) mod Phi_n: each
    power i moves to i * u mod n."""
    c = [0] * n
    for i, v in enumerate(num):
        c[i * u % n] = v
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
        conjs = [[1] + [0] * (len(self.num) - 1)] + [
            _conjugate(n, self.num, k) for k in range(2, n) if gcd(k, n) == 1]
        while len(conjs) > 1:  # oldest two first: operands grow alike
            conjs.append(_mul_mod(n, conjs.pop(0), conjs.pop(0)))
        rest = Cyclotomic._ints(n, conjs[0])
        return rest * (1 / (self * rest).to_rational())

    def galois(self, u: int) -> "Cyclotomic":
        """sigma_u(self), the conjugate under zeta -> zeta^u, for an integer
        u coprime to the level; only u mod the level matters."""
        n = self.level
        if u % n == 1 % n:
            return self
        return Cyclotomic._ints(n, _conjugate(n, self.num, u), self.den)

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


def root(a: int, n: int) -> Cyclotomic:
    """e(a/n) = zeta_n^a for integers a and n >= 1, memoised on a/n in
    lowest terms; the level cap is checked on every call, memo or not."""
    g = gcd(a, n)
    n //= g
    _check_level(n)
    return _root(a // g % n, n)


@lru_cache(maxsize=None)
def _root(a: int, n: int) -> Cyclotomic:
    return Cyclotomic._ints(n, _reduce(n, [0] * a + [1]))


def cyc_from_phase(q) -> Cyclotomic:
    """e(q) = exp(2*pi*i*q) for rational q: `root` of its numerator and
    denominator.  A q that is not a Fraction is read like outside input, so
    a float, a bool or a string is rejected."""
    if not isinstance(q, Fraction):
        (q,) = rat_vector((q,), "phase")
    return root(q.numerator, q.denominator)


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
    Fractions, the others Cyclotomics at level N.
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
        table.append(Cyclotomic._ints(h, red, den).raise_level(n)
                     if any(red[1:]) else Fraction(red[0], den))
    return tuple(table)


def inv_one_minus_root(a: int, n: int) -> Cyclotomic:
    """1/(1 - e(a/n)) in closed form, memoised on a/n in lowest terms; the
    level cap is checked on every call.

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
def _inv_one_minus_root(a: int, n: int) -> Cyclotomic:
    c = [0] * n
    for j in range(1, n):
        c[a * j % n] = -j
    return Cyclotomic._ints(n, _reduce(n, c), n)
