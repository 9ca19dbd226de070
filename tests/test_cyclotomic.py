"""Exact cyclotomic arithmetic."""
from __future__ import annotations

import random
import threading
from fractions import Fraction
from math import gcd, lcm

import pytest

from vpf import (
    Cyclotomic,
    LevelMismatch,
    LevelOverflow,
    MatrixParseError,
    NotRational,
    ProblemSpec,
    compute,
    cyc_from_phase,
    level_cap,
)
from vpf.cyclotomic import DEFAULT_LEVEL_CAP
from vpf.cyclotomic import _cyclo_poly as cyclotomic_polynomial
from vpf.cyclotomic import (
    cyc_add,
    cyc_galois,
    cyc_lowest,
    cyc_mul,
    cyc_raise,
    cyc_rotate,
    galois_group,
    inv_one_minus_root,
    least_conjugate,
    orbit_table,
    periods,
    phase_orbit,
    unit_lift,
)

from .helpers import approx, cyc_pow


def F(p, q=1):
    return Fraction(p, q)


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors_is_xn_minus_1(self):
        # prod_{d | n} Phi_d = x^n - 1
        # Phi_105 is the first with a coefficient -2.
        for n in (1, 2, 6, 12, 30, 105, 143, 180, 210, 221):
            prod = [1]
            for d in range(1, n + 1):
                if n % d:
                    continue
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
            expect = [-1] + [0] * (n - 1) + [1]
            assert prod == expect


class TestFromPhase:
    def test_phase_zero(self):
        x = cyc_from_phase(0)
        assert x.level == 1 and x == 1

    def test_phase_half(self):
        x = cyc_from_phase(F(1, 2))
        assert x.level == 2 and x == -1

    def test_phase_quarter(self):
        x = cyc_from_phase(F(1, 4))
        assert x.level == 4
        assert x.coeffs == (F(0), F(1))

    def test_phase_mod_one(self):
        assert cyc_from_phase(F(5, 4)) == cyc_from_phase(F(1, 4))
        assert cyc_from_phase(F(-1, 4)) == cyc_from_phase(F(3, 4))

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.1, "1/2", True, None],
                             ids=repr)
    @pytest.mark.parametrize("read", [cyc_from_phase, Cyclotomic.from_phase],
                             ids=["cyc_from_phase", "from_phase"])
    def test_phase_reads_like_outside_input(self, read, q):
        # A float would be taken as its binary fraction (0.1 has level
        # 2^55), True as 1 and "1/2" parsed.
        with pytest.raises(MatrixParseError):
            read(q)

    def test_one_root_of_unity_per_phase(self):
        # Every reader of e(q) returns the one memoised element.
        root = cyc_from_phase(F(2, 7))
        assert Cyclotomic.from_phase(F(9, 7)) is root
        assert Cyclotomic.from_phase(F(-5, 7)) is root

    def test_integer_root_in_lowest_terms(self):
        # e(q) is memoised on q mod 1 in lowest terms, so every spelling of
        # 2/7, and an int phase, share one element.
        z = cyc_from_phase(F(2, 7))
        assert all(cyc_from_phase(F(a, n)) is z
                   for a, n in ((4, 14), (-10, 14), (9, 7)))
        assert cyc_from_phase(3) is cyc_from_phase(F(0, 5))
        assert cyc_from_phase(F(0, 5)) == 1
        assert cyc_from_phase(F(0, 5)).level == 1
        assert cyc_from_phase(F(3, 6)) == -1
        assert cyc_from_phase(F(3, 6)).level == 2
        assert inv_one_minus_root(6, 22) is inv_one_minus_root(3, 11)
        assert Cyclotomic._ints(*inv_one_minus_root(3, 6)) == F(1, 2)
        for a, n in ((0, 1), (0, 4), (8, 4)):
            with pytest.raises(ZeroDivisionError):
                inv_one_minus_root(a, n)


class TestArithmetic:
    def test_cube_roots_sum(self):
        assert cyc_from_phase(F(1, 3)) + cyc_from_phase(F(2, 3)) == -1

    def test_i_squared(self):
        i = cyc_from_phase(F(1, 4))
        assert i * i == -1

    def test_one_plus_i_times_one_minus_i(self):
        i = cyc_from_phase(F(1, 4))
        assert (1 + i) * (1 - i) == 2

    def test_all_roots_sum_to_zero(self):
        for n in (2, 3, 5, 6, 8):
            total = Cyclotomic.zero()
            for k in range(n):
                total = total + cyc_from_phase(F(k, n))
            assert total.is_zero()

    def test_pow(self):
        z = cyc_from_phase(F(1, 5))
        assert cyc_pow(z, 5) == 1
        assert cyc_pow(z, -1) == cyc_from_phase(F(4, 5))
        assert cyc_pow(z, 0) == 1


class TestInverse:
    def test_identity(self):
        assert Cyclotomic.one().inv() == 1

    def test_root_inverse_is_conjugate_power(self):
        assert cyc_from_phase(F(1, 3)).inv() == cyc_from_phase(F(2, 3))

    def test_one_plus_i(self):
        i = cyc_from_phase(F(1, 4))
        inv = (1 + i).inv()
        assert inv == (1 - i) * F(1, 2)
        assert (1 + i) * inv == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic.zero().inv()

    def test_random_inverse_roundtrip(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            x = Cyclotomic.zero()
            while x.is_zero():
                x = sum(
                    (cyc_from_phase(F(rng.randrange(n), n)) * rng.randint(-3, 3)
                     for _ in range(3)),
                    Cyclotomic.zero())
            assert x * x.inv() == 1

    @staticmethod
    def _three_term(rng, n):
        x = Cyclotomic.zero()
        while x.is_zero():
            x = sum((cyc_from_phase(F(rng.randrange(n), n)) * rng.randint(-3, 3)
                     for _ in range(3)), Cyclotomic.zero())
        return x

    def test_high_levels(self):
        rng = random.Random(41)
        for n in (143, 221):
            for _ in range(4):
                x = self._three_term(rng, n)
                y = x.inv()
                assert y.level == x.level
                assert x * y == 1

    def test_involution_high_level(self):
        # x^-1 of a generic element has numerators of a few hundred bits,
        # so inverting it again multiplies integers of millions of bits:
        # about 2 s at level 143 but tens of seconds at level 221, which
        # is why the involution is checked at level 143 only.
        rng = random.Random(43)
        x = self._three_term(rng, 143)
        assert x.inv().inv() == x


class TestGalois:
    """sigma_u: zeta -> zeta^u, and the group G of units u = 1 mod l0 that
    the engine averages over."""

    def test_conjugate_against_roots(self):
        # sigma_u(x) is sum_i x_i e(u i / N), a ring map fixing Q.
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([1, 3, 4, 5, 8, 12, 15, 30])
            x = sum((cyc_from_phase(F(rng.randrange(n), n)) * rng.randint(-3, 3)
                     for _ in range(3)), Cyclotomic.zero())
            x = x * F(1, rng.randint(1, 4))
            y = cyc_from_phase(F(rng.randrange(n), n)) + 1
            u = rng.choice([k for k in range(1, 2 * n + 1) if gcd(k, n) == 1])
            ref = sum((cyc_from_phase(F(u * i, x.level)) * c
                       for i, c in enumerate(x.coeffs)), Cyclotomic.zero())
            assert x.galois(u) == ref
            assert (x * y).galois(u) == x.galois(u) * y.galois(u)
            assert (x + y).galois(u) == x.galois(u) + y.galois(u)
            assert x.galois(u).level == x.level
        assert cyc_from_phase(F(1, 3)).galois(2) == cyc_from_phase(F(2, 3))

    def test_least_conjugate_by_brute_force(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.choice([1, 2, 4, 6, 9, 12, 20, 36, 60])
            h = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            w = tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
            g = gcd(n, *w)
            w, n, h = tuple(a // g for a in w), n // g, gcd(h, n // g)
            v, u = least_conjugate(w, n, h)
            units = [k for k in range(1, n + 1)
                     if gcd(k, n) == 1 and (k - 1) % h == 0]
            assert u in units or n == 1
            assert v == min(tuple(k * a % n for a in w) for k in units)
            assert v == tuple(u * a % n for a in w)

    def test_unit_lift(self):
        rng = random.Random(31)
        for _ in range(300):
            n, l, level = (rng.randint(1, 40) for _ in range(3))
            a = rng.choice([k for k in range(1, n + 1) if gcd(k, n) == 1])
            if (a - 1) % gcd(n, l):
                continue
            u = unit_lift(a, n, l, level)
            assert (u - a) % n == 0 and (u - 1) % l == 0
            assert gcd(u, lcm(n, l, level)) == 1

    @pytest.mark.parametrize("n, l0, units", [
        (1, 1, (1,)), (12, 1, (1, 5, 7, 11)), (12, 4, (1, 5)),
        (12, 3, (1, 7)), (12, 24, (1,)), (12, 0, (1,)), (7, 0, (1,))])
    def test_group(self, n, l0, units):
        assert galois_group(n, l0) == units

    def test_periods_closed_form(self):
        # T(m) = sum_u zeta_N^(u m) over the units u = 1 mod h, summed
        # directly as one integer vector, against the closed form.
        for n in range(1, 61):
            for h in (d for d in range(1, n + 1) if n % d == 0):
                group = [u for u in range(1, n + 1)
                         if gcd(u, n) == 1 and (u - 1) % h == 0]
                table = periods(n, h)
                assert table[0] == (len(group), 0)
                for m in range(n):
                    vec = [0] * n
                    for u in group:
                        vec[u * m % n] += 1
                    t, e = table[m]
                    assert Cyclotomic(n, vec) == t * cyc_from_phase(
                        F(e, h)), (n, h, m)


class TestRaiseLevel:
    def test_minus_one_to_level_six(self):
        x = cyc_from_phase(F(1, 2)).raise_level(6)
        assert x.level == 6 and x == -1
        assert abs(approx(x) - (-1)) < 1e-12

    def test_same_level_identity(self):
        x = cyc_from_phase(F(1, 3))
        assert x.raise_level(3) is x

    def test_rational_embeds_as_constant(self):
        x = Cyclotomic.one().raise_level(12)
        assert x.level == 12 and x == 1

    def test_non_divisor_rejected(self):
        with pytest.raises(LevelMismatch):
            cyc_from_phase(F(1, 4)).raise_level(6)

    def test_preserves_equality_and_approx(self):
        x = cyc_from_phase(F(1, 3))
        y = x.raise_level(12)
        assert x == y
        assert abs(approx(x) - approx(y)) < 1e-12


class TestToRational:
    def test_one_plus_minus_one(self):
        assert (1 + cyc_from_phase(F(1, 2))).to_rational() == 0

    def test_primitive_root_is_irrational(self):
        with pytest.raises(NotRational):
            cyc_from_phase(F(1, 3)).to_rational()

    def test_cube_roots_and_one(self):
        x = cyc_from_phase(F(1, 3)) + cyc_from_phase(F(2, 3)) + 1
        assert x.to_rational() == 0


class TestApprox:
    def test_values(self):
        assert abs(approx(Cyclotomic.one()) - 1) < 1e-12
        assert abs(approx(cyc_from_phase(F(1, 4))) - 1j) < 1e-12
        x = cyc_from_phase(F(1, 3)) + cyc_from_phase(F(2, 3))
        assert abs(approx(x) - (-1)) < 1e-12


class TestFieldAxioms:
    def _sample(self, rng):
        n = rng.choice([1, 2, 3, 4, 6, 12])
        return sum(
            (cyc_from_phase(F(rng.randrange(n), n)) * F(rng.randint(-2, 2))
             for _ in range(2)),
            Cyclotomic.zero())

    def test_random_axioms(self):
        rng = random.Random(5)
        for _ in range(40):
            x, y, z = (self._sample(rng) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_construction_order_canonical(self):
        rng = random.Random(9)
        for _ in range(30):
            x, y = self._sample(rng), self._sample(rng)
            a = x + y
            b = y + x
            assert a.level == b.level and a.coeffs == b.coeffs


class TestLevelCap:
    def test_cap_enforced(self):
        with level_cap(10):
            with pytest.raises(LevelOverflow):
                cyc_from_phase(F(1, 11))
            with pytest.raises(LevelOverflow):
                cyc_from_phase(F(1, 3)) + cyc_from_phase(F(1, 7))

    def test_cap_checked_before_memo(self):
        cyc_from_phase(F(1, 11))
        inv_one_minus_root(1, 11)
        with level_cap(10):
            with pytest.raises(LevelOverflow):
                cyc_from_phase(F(1, 11))
            with pytest.raises(LevelOverflow):
                inv_one_minus_root(1, 11)

    def test_cap_checked_before_group_memos(self):
        # Warm each memo uncapped first: a lower cap must still refuse it.
        calls = [lambda: galois_group(143, 1),
                 lambda: least_conjugate((1, 2), 143, 1),
                 lambda: periods(143, 1)]
        for call in calls:
            call()
        with level_cap(100):
            for call in calls:
                with pytest.raises(LevelOverflow):
                    call()

    def test_kernels_check_the_lcm(self):
        # Levels 6 and 10 meet at 30, over the cap; 4 and 10 at 20, on it.
        x4, x6, x10 = ((x.level, x.num, x.den) for x in (
            cyc_from_phase(F(1, 4)), cyc_from_phase(F(1, 6)),
            cyc_from_phase(F(1, 10))))
        with level_cap(20):
            for x, y in ((x6, x10), (x10, x6)):
                for kernel in (cyc_mul, cyc_add):
                    with pytest.raises(LevelOverflow):
                        kernel(x, y)
            for x, n in ((x6, 10), (x10, 6)):
                with pytest.raises(LevelOverflow):
                    cyc_rotate(x, 1, n)
            with pytest.raises(LevelOverflow):
                cyc_raise(x6, 30)
            for x, y in ((x4, x10), (x10, x4)):
                assert cyc_mul(x, y)[0] == cyc_add(x, y)[0] == 20
            assert cyc_rotate(x4, 1, 10)[0] == cyc_rotate(x10, 1, 4)[0] == 20
            assert cyc_raise(x4, 20)[0] == 20

    def test_cap_holds_on_warm_memos(self):
        # The uncapped compute fills the memos of every root it forms (the
        # cube roots of (1 1; 3 1)); the capped one must still refuse them.
        spec = ProblemSpec.from_rows([(1, 1), (3, 1)])
        compute(spec)
        with level_cap(2), pytest.raises(LevelOverflow):
            compute(spec)

    def test_cap_checked_before_allocation(self):
        # Each call would first build a list with about as many entries as
        # the new level, so the cap check cannot wait for _reduce: the lcm
        # of two levels under the cap can be about 10^12.
        third = cyc_from_phase(F(1, 3))
        with pytest.raises(LevelOverflow):
            third.raise_level(3 * 10**11)
        with pytest.raises(LevelOverflow):
            Cyclotomic.from_phase(F(10**12 - 1, 10**12))
        with pytest.raises(LevelOverflow):
            orbit_table(10**12, [(1, third)], 0)
        with pytest.raises(LevelOverflow):
            phase_orbit((5 * 10**11, 1), 10**12)  # (1/2, 1/10^12)

    def test_constructor_checks_cap(self):
        with pytest.raises(LevelOverflow):
            Cyclotomic(DEFAULT_LEVEL_CAP + 1, [1])
        with pytest.raises(ValueError):
            Cyclotomic(0, [1])

    @pytest.mark.parametrize("level, coeffs", [
        (1, [0.1]), (3, [True, 0]), (1, ["1/2"]), (True, [1]), (2.0, [1]),
        (3, None), (3, 5)])
    def test_constructor_reads_like_outside_input(self, level, coeffs):
        # A float would be rounded to its binary fraction and True read as
        # 1; a string is outside the number grammar.
        with pytest.raises(MatrixParseError):
            Cyclotomic(level, coeffs)
        assert Cyclotomic(3, (Fraction(1, 2), 1)).coeffs == (
            Fraction(1, 2), Fraction(1))

    def test_bad_cap(self):
        for cap in (0, -3, 2.5, "10", None):
            with pytest.raises(MatrixParseError):
                with level_cap(cap):
                    pass

    def test_bool_cap_rejected(self):
        # True is an int to Python, but no cap of 1.
        for cap in (True, False):
            with pytest.raises(MatrixParseError):
                with level_cap(cap):
                    pass

    def test_message_names_level_cap_and_remedy(self):
        with level_cap(10), pytest.raises(LevelOverflow) as info:
            Cyclotomic(11, [1])
        msg = str(info.value)
        assert "level 11" in msg and "cap 10" in msg
        assert "--max-level" in msg and "VPF_MAX_LEVEL" in msg
        assert "vpf.level_cap" in msg

    def test_nested_blocks_restore_outer_cap(self):
        with level_cap(10):
            with level_cap(20):
                Cyclotomic(15, [1])
            with pytest.raises(LevelOverflow):
                Cyclotomic(15, [1])
            with pytest.raises(ZeroDivisionError):
                with level_cap(5):
                    1 / 0
            Cyclotomic(10, [1])
            with pytest.raises(LevelOverflow):
                with level_cap(20):
                    Cyclotomic(21, [1])
            Cyclotomic(10, [1])
            with pytest.raises(LevelOverflow):
                Cyclotomic(11, [1])
        Cyclotomic(21, [1])

    def test_new_thread_starts_at_default_cap(self):
        seen = []

        def work():
            seen.append(Cyclotomic(11, [1]).level)

        with level_cap(10):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            with pytest.raises(LevelOverflow):
                Cyclotomic(11, [1])
        assert seen == [11]


def inv_one_minus(q):
    """1/(1 - e(q)) for rational q, by the engine's `inv_one_minus_root`."""
    q = F(q)
    return Cyclotomic._ints(*inv_one_minus_root(q.numerator, q.denominator))


class TestClosedFormInverse:
    """1/(1 - e(q)) in closed form against the general inverse."""

    def test_matches_euclid_small_levels(self):
        for n in range(2, 61):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                q = F(a, n)
                got = inv_one_minus(q)
                want = (1 - cyc_from_phase(q)).inv()
                assert got.level == want.level == n
                assert got.coeffs == want.coeffs

    def test_matches_euclid_high_levels(self):
        for q in (F(1, 143), F(5, 143), F(142, 143), F(1, 221), F(100, 221)):
            got = inv_one_minus(q)
            want = (1 - cyc_from_phase(q)).inv()
            assert got.level == want.level and got.coeffs == want.coeffs
            assert got * (1 - cyc_from_phase(q)) == 1

    def test_phase_mod_one(self):
        assert inv_one_minus(F(13, 11)) == inv_one_minus(F(2, 11))
        assert inv_one_minus(F(-1, 2)) == F(1, 2)

    def test_zero_phase_rejected(self):
        for q in (0, 1, F(-3)):
            with pytest.raises(ZeroDivisionError):
                inv_one_minus(q)


# -- schoolbook Fraction reference for the integer kernel ---------------------

def _ref_reduce(poly, n):
    """Remainder of a Fraction polynomial mod Phi_n, padded to phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    p = list(poly)
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        for j in range(deg + 1):
            p[i - deg + j] -= c * phi[j]
    p = p[:deg]
    return tuple(p + [F(0)] * (deg - len(p)))


def _ref_mul(x, y, n):
    out = [F(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return _ref_reduce(out, n)


def _ref_raise(x, d, n):
    step = n // d
    out = [F(0)] * ((len(x) - 1) * step + 1)
    for i, c in enumerate(x):
        out[i * step] = c
    return _ref_reduce(out, n)


def _random_element(rng, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    den = rng.randint(10**14, 10**15)
    return Cyclotomic(n, [F(rng.randint(-10**18, 10**18), den)
                          for _ in range(deg)])


def _listed(x):
    """The triple of x with its numerators in a list, which a kernel that
    wrote into its operands would change."""
    return x.level, list(x.num), x.den


class TestIntegerKernel:
    """Integer numerators, Kronecker multiply and fold-then-Phi reduction
    against schoolbook Fraction arithmetic."""

    LEVELS = (1, 2, 12, 90, 143, 221)

    def test_mul_add_same_level(self):
        rng = random.Random(23)
        for n in self.LEVELS:
            for _ in range(3):
                x, y = _random_element(rng, n), _random_element(rng, n)
                assert (x * y).coeffs == _ref_mul(x.coeffs, y.coeffs, n)
                assert (x + y).coeffs == tuple(
                    a + b for a, b in zip(x.coeffs, y.coeffs))
                assert (x * y).level == (x + y).level == n
                # sigma_u(x) = sum_i x_i e(u i / n), as in TestGalois.
                u = rng.choice([k for k in range(1, 2 * n + 1)
                                if gcd(k, n) == 1])
                ref = sum((cyc_from_phase(F(u * i, n)) * c
                           for i, c in enumerate(x.coeffs)), Cyclotomic.zero())
                level, nums, den = cyc_galois(_listed(x), u)
                assert level == n
                assert Cyclotomic(level, [F(v, den) for v in nums]) == ref

    def test_scalar_and_mixed_levels(self):
        rng = random.Random(29)
        for d, e in ((1, 12), (12, 1), (2, 90), (12, 90), (11, 13), (13, 17)):
            x, y = _random_element(rng, d), _random_element(rng, e)
            n = d * e // gcd(d, e)
            xr, yr = _ref_raise(x.coeffs, d, n), _ref_raise(y.coeffs, e, n)
            assert (x * y).level == n
            assert (x * y).coeffs == _ref_mul(xr, yr, n)
            assert (x + y).coeffs == tuple(a + b for a, b in zip(xr, yr))

    def test_raise_level(self):
        rng = random.Random(31)
        for d, n in ((1, 2), (2, 12), (6, 12), (3, 90), (45, 90), (11, 143),
                     (13, 143), (13, 221), (17, 221)):
            x = _random_element(rng, d)
            y = x.raise_level(n)
            assert y.level == n and y.coeffs == _ref_raise(x.coeffs, d, n)
            assert y == x

    def test_rotation(self):
        # x zeta_n^a by shift, fold and reduce, against the product with
        # the root: the same value at the same level, lcm(d, order).
        rng = random.Random(41)
        for d, n in ((1, 12), (12, 12), (12, 90), (90, 4), (11, 13),
                     (143, 13), (6, 35)):
            x = _random_element(rng, d)
            for a in (0, 1, -5, n // 2, 7 * n + 3):
                level, nums, den = cyc_rotate((d, x.num, x.den), a, n)
                want = x * cyc_from_phase(F(a, n))
                assert level == want.level
                assert Cyclotomic(level, [F(v, den) for v in nums]) == want
            level, nums, den = cyc_rotate((d, x.num, x.den), 1, n)
            assert tuple(F(v, den) for v in nums) == _ref_mul(
                _ref_raise(x.coeffs, d, level),
                _ref_raise(cyc_from_phase(F(1, n)).coeffs, n, level), level)

    def test_zero_operand(self):
        # A zero at level > 1, made by cancellation or lifted to a common
        # level, times an element with numerators far above one byte.
        rng = random.Random(37)
        for zl, yl in ((12, 12), (143, 143), (11, 13), (13, 143)):
            z = cyc_from_phase(F(1, zl))
            zero = z - z
            y = _random_element(rng, yl) * (10**40 + 1) + 200 * cyc_from_phase(F(1, yl))
            n = zl * yl // gcd(zl, yl)
            for prod in (zero * y, y * zero):
                assert prod.level == n
                assert prod.is_zero() and prod.num == (0,) * len(prod.num)

    def test_lowest_terms(self):
        x = Cyclotomic(12, [F(2, 4), F(6, 4), 0, F(-1, 2)])
        assert (x.num, x.den) == ((1, 3, 0, -1), 2)
        assert (x - x).num == (0,) * 4 and (x - x).den == 1
        # cyc_lowest is the gcd step of Cyclotomic._ints.
        rng = random.Random(47)
        for n in self.LEVELS:
            y = _random_element(rng, n)
            for t in ((n, [0] * len(y.num), 7), _listed(y)) + tuple(
                    (n, [v * g for v in y.num], y.den * g)
                    for g in (6, 7, 10**20 + 1)):
                level, nums, den = cyc_lowest(t)
                ref = Cyclotomic._ints(*t)
                assert (level, tuple(nums), den) == (ref.level, ref.num,
                                                     ref.den)

    def test_kernels_leave_operands_unchanged(self):
        # States and memo entries share triples, so no kernel may write
        # into an operand: each operand's numerators are a list, compared
        # before and after every call.
        rng = random.Random(53)
        for d, e in ((1, 12), (12, 12), (12, 90), (11, 13), (143, 13)):
            x = _listed(_random_element(rng, d))
            y = _listed(_random_element(rng, e))
            z = (d, [v * 6 for v in x[1]], x[2] * 6)
            u = next(k for k in range(2, 2 * d + 2) if gcd(k, d) == 1)
            calls = [(cyc_mul, x, y), (cyc_mul, y, x), (cyc_add, x, y),
                     (cyc_raise, x, d), (cyc_raise, x, lcm(d, e)),
                     (cyc_rotate, x, 5, e), (cyc_rotate, x, 0, e),
                     (cyc_galois, x, u), (cyc_galois, x, 1),
                     (cyc_lowest, x), (cyc_lowest, z)]
            for kernel, *args in calls:
                before = [(t[0], list(t[1]), t[2]) if type(t) is tuple else t
                          for t in args]
                kernel(*args)
                assert args == before, kernel.__name__

    def test_immutable(self):
        x = cyc_from_phase(F(1, 7))
        with pytest.raises(AttributeError):
            x.num = (0,) * 6
        assert cyc_from_phase(F(1, 7)).num == (0, 1, 0, 0, 0, 0)
