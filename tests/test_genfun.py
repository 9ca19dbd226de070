"""The elimination engine, checked against the independent series oracle."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    Guard,
    MatrixParseError,
    ProblemSpec,
    UnsupportedMultiplePole,
    compute,
    count_points,
    cyc_from_phase,
    evaluate,
)
from vpf.cyclotomic import cyc_galois, cyc_triple
from vpf.genfun import (
    Factor,
    GenFunState,
    dedekind_sum,
    eliminate_last_var,
    final_univariate,
    flip,
    pfd_numerator,
)
from vpf.params import EQ_ZERO, GE_ZERO, ParamPoly
from vpf.serialize import expr_to_json

from .helpers import (
    all_root_terms,
    average,
    constant_at,
    constant_poly,
    cyc_pow,
    engine_constants,
    galois_units,
    local_series,
    numerator,
    pfd_numerator_objects,
    poly_from_affine,
    phase_coeffs,
    phased_state,
    raw_terms,
    series_value,
    substitute_power,
    term_to_json,
    terms_value,
    w_coeffs_at,
)


def F(p, q=1):
    return Fraction(p, q)


def make_state(factor_specs, exps=None, m=None):
    """State over m variables with identity exponents unless given; factor
    k stands for input column k."""
    if exps is None:
        m = m if m is not None else len(factor_specs[0][1])
        exps = tuple(AffineForm.unit(m, i) for i in range(m))
    return phased_state(exps, factor_specs, columns=True)


class TestFactor:
    def test_column_not_compared(self):
        # Equal factors of different input columns merge.
        assert Factor(1, (1, 2), 0) == Factor(1, (1, 2), 3)
        assert hash(Factor(1, (1, 2), 0)) == hash(Factor(1, (1, 2)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            Factor(0, (0, 0))

    def test_nonzero_phase_allows_zero_exps(self):
        f = Factor(1, (0,))
        assert f.phase == 1


class TestGenFunState:
    def test_unreduced_phase_rejected(self):
        # Phases are numerators over the level: 2/2, -1/2 and 3/2.
        exps = (AffineForm.unit(1, 0),)
        for q in (2, -1, 3):
            with pytest.raises(ValueError):
                GenFunState(exps, (Factor(q, (1,)),), level=2)
            with pytest.raises(ValueError):
                GenFunState(exps, (), (q,), level=2)

    def test_level_is_canonical(self):
        # 2/4 and 2/4 are 1/2 and 1/2; 0 over 6 is 0 over 1.
        exps = (AffineForm.unit(1, 0),)
        st = GenFunState(exps, (Factor(2, (1,), 0),), (2,), level=4)
        assert (st.factors, st.phase, st.level) == ((Factor(1, (1,)),), (1,), 2)
        assert st.factors[0].column == 0
        assert GenFunState(exps, (Factor(0, (1,)),), level=6).level == 1


class TestFlip:
    def test_negative_exponent_example(self):
        # 1/((1-z^{-2}) z^{-(a-b)}) = -1/((1-z^2) z^{-(a-b-2)})
        st = make_state([(0, (-2,))], exps=(AffineForm((1, -1), 0),))
        out = flip(st, 0)
        assert out.factors == (Factor(0, (2,)),)
        assert out.factors[0].column == 0
        assert out.exps == (AffineForm((1, -1), -2),)
        assert Cyclotomic._ints(*out.scalar) == -1

    def test_double_flip_is_identity(self):
        st = make_state([(F(1, 3), (2, -1))])
        out = flip(flip(st, 0), 0)
        assert out.factors == st.factors
        assert out.exps == st.exps
        assert Cyclotomic._ints(*out.scalar) == 1

    def test_half_phase_flip(self):
        st = make_state([(F(1, 2), (-1,))])
        out = flip(st, 0)
        assert (out.factors, out.level) == ((Factor(1, (1,)),), 2)
        # the constant is -e(-1/2) = -(-1) = 1
        assert Cyclotomic._ints(*out.scalar) == 1

    def test_series_invariance(self):
        st = make_state([(F(1, 3), (1, -2)), (0, (0, 1))])
        for k in range(2):
            out = flip(st, k)
            for b in ((0, 0), (2, 3), (5, 1), (1, 4)):
                assert series_value(out, b) == series_value(st, b)


class TestSubstitutePower:
    def test_identity(self):
        st = make_state([(0, (1, 1))])
        assert substitute_power(st, 0, 1) is st

    def test_exponent_scaling(self):
        st = make_state([(0, (1,))])
        out = substitute_power(st, 0, 2)
        assert out.factors == (Factor(0, (2,)),)
        assert out.exps == (AffineForm((2,), 0),)

    def test_series_invariance(self):
        st = make_state([(0, (1, 1)), (F(1, 2), (2, 1))])
        for j in range(2):
            for n in (2, 3):
                out = substitute_power(st, j, n)
                for b in ((0, 0), (3, 2), (4, 4)):
                    assert series_value(out, b) == series_value(st, b)


class TestEliminateLastVar:
    def test_geometric_series_constant_term(self):
        # Single factor z_m alone: one child, guard b_m >= 0, no factors left.
        st = make_state([(0, (0, 1))])
        children = eliminate_last_var(st)
        assert len(children) == 1
        (child,) = children
        assert child.active == 1 and not child.factors
        assert child.guards == (Guard(AffineForm((0, 1), 0), GE_ZERO),)

    def test_no_factor_in_variable_gives_eqzero(self):
        st = make_state([(0, (1, 0))])
        (child,) = eliminate_last_var(st)
        assert child.guards[0].sense == EQ_ZERO
        assert child.guards[0].form == AffineForm((0, 1), 0)
        assert child.factors == (Factor(0, (1,)),)

    def test_a2_children_structure(self):
        st = make_state([(0, (1, 0)), (0, (0, 1)), (0, (1, 1))])
        children = eliminate_last_var(st)
        assert len(children) == 2
        by_exps = {c.exps[0]: c for c in children}
        fkey = lambda f: (f.phase, f.exps)
        # Child from column (0,1): exps a, a double pole at the next stage.
        c1 = by_exps[AffineForm((1, 0), 0)]
        assert sorted(c1.factors, key=fkey) == [
            Factor(0, (1,)), Factor(0, (1,))]
        # Child from column (1,1): exps a-b, factors (0,1) and (0,-1).
        c2 = by_exps[AffineForm((1, -1), 0)]
        assert sorted(c2.factors, key=fkey) == [
            Factor(0, (-1,)), Factor(0, (1,))]
        for c in children:
            assert c.guards == (Guard(AffineForm((0, 1), 0), GE_ZERO),)

    def test_series_soundness_catalog(self):
        catalog = [
            make_state([(0, (1, 0)), (0, (0, 1)), (0, (1, 1))]),
            make_state([(0, (1, 1)), (0, (3, 1))]),
            make_state([(0, (1, 1)), (0, (2, 1)), (0, (1, 0)), (0, (0, 1))]),
            make_state([(F(1, 2), (1, 1)), (0, (2, -1))]),
            make_state([(0, (1, 0, 1)), (0, (0, 1, 1)), (0, (1, 1, 2))]),
        ]
        for st in catalog:
            m = st.active
            children = eliminate_last_var(st)
            for b in [(0,) * m, (1,) * m, (3, 1) + (2,) * (m - 2),
                      (2, 5) + (1,) * (m - 2), (4, 0) + (3,) * (m - 2)]:
                total = sum((series_value(c, b) for c in children),
                            series_value(st, b) * 0)
                assert total == series_value(st, b)

    def test_guard_soundness(self):
        # When the GeZero guard on beta_w fails, the parent contributes 0.
        st = make_state([(0, (1, 0)), (0, (0, 1)), (0, (1, 1))])
        for b in ((3, -1), (0, -2), (5, -4)):
            assert series_value(st, b).is_zero()
            for c in eliminate_last_var(st):
                assert not all(g.satisfied(b) for g in c.guards)

    def test_multiple_pole_rejected(self):
        st = make_state([(0, (1, 0)), (0, (1, 1)), (0, (1, 1))])
        with pytest.raises(UnsupportedMultiplePole,
                           match="input columns 2 and 3$"):
            eliminate_last_var(st)
        # A factor that knows no column leaves the columns out.
        st = GenFunState(st.exps, tuple(Factor(f.phase, f.exps)
                                        for f in st.factors))
        with pytest.raises(UnsupportedMultiplePole, match=r"\(1, 1\)\)$"):
            eliminate_last_var(st)

    @pytest.mark.parametrize("rows, cols", [
        ([(1, 1, 0), (0, 0, 1), (1, 1, 1)], "1 and 2"),
        ([(0, 1, 1), (1, 0, 0), (1, 1, 1)], "2 and 3"),
        ([(1, 0, 1), (-1, 1, -1), (1, 1, 1)], "1 and 3"),
    ])
    def test_collision_names_input_columns(self, rows, cols):
        with pytest.raises(UnsupportedMultiplePole,
                           match=f"input columns {cols}, eliminating"):
            compute(ProblemSpec.from_rows(rows))


class TestFinalUnivariate:
    def test_single_geometric(self):
        # 1/((1-w) w^b) -> single term: poly 1, guard b >= 0.
        st = make_state([(0, (1,))])
        (t,) = final_univariate(st, 1)
        assert t.poly == ParamPoly.constant(1, cyc_triple(1))
        assert not any(phase_coeffs(t.phase))
        assert t.guards[0].form == AffineForm((1,), 0)
        assert t.guards[0].sense == GE_ZERO

    def test_double_pole_numerator(self):
        # 1/((1-w)^2 w^b): single group theta=0, mult 2; constant is b+1.
        st = make_state([(0, (1,)), (0, (1,))])
        (t,) = final_univariate(st, 1)
        assert t.poly == poly_from_affine(AffineForm((1,), 1))
        for b in range(0, 8):
            assert t.value((b,)).to_rational() == b + 1

    def test_mixed_pole_quarter_terms(self):
        # 1/((1-w^2)(1-w^4) w^b): theta=1/4 and 3/4 terms are (1/8) e(+-b/4),
        # one root orbit, whose one Term at theta = 1/4 carries both.
        st = make_state([(0, (2,)), (0, (4,))], m=1,
                        exps=(AffineForm((1,), 0),))
        terms = final_univariate(st, 1)
        by_phase = {phase_coeffs(t.phase)[0]: t for t in terms}
        assert sorted(by_phase) == [F(0), F(1, 4), F(1, 2)]
        assert by_phase[F(1, 4)].poly == ParamPoly.constant(
            1, cyc_triple(F(1, 4)))
        for theta in (F(1, 4), F(3, 4)):
            t = {phase_coeffs(t.phase)[0]: t
                 for t in all_root_terms(st)}[theta]
            assert t.poly == ParamPoly.constant(1, cyc_triple(F(1, 8)))

    def test_mixed_pole_total_matches_series(self):
        st = make_state([(0, (2,)), (0, (4,))])
        terms = final_univariate(st, 1)
        for b in range(-3, 12):
            assert average(terms_value(terms, (b,)), 1) == series_value(
                st, (b,))

    def test_no_factors_eqzero_term(self):
        st = GenFunState((AffineForm((1,), -2),), ())
        (t,) = final_univariate(st, 1)
        assert t.guards[0].sense == EQ_ZERO
        assert t.value((2,)).to_rational() == 1
        assert t.value((3,)).is_zero()

    @pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(5, 6)])
    def test_factor_free_of_w_folds_into_scalar(self, q):
        # A factor 1 - e(q) w^0 is the constant 1 - e(q): the terms are
        # 1/(1 - e(q)) times those of the state without it, with and
        # without factors in w.  (series_value cannot take such a factor.)
        exps = (AffineForm.unit(1, 0),)
        for others in ([(0, (1,)), (F(1, 4), (2,)), (0, (-1,))], []):
            st = make_state(others[:1] + [(q, (0,))] + others[1:], exps)
            rest = make_state(others, exps)
            inv = (1 - cyc_from_phase(q)).inv()
            # Averaged over the units = 1 mod st.level, which fix both
            # states and 1 - e(q).
            l0 = st.level
            terms, ref = final_univariate(st, l0), final_univariate(rest, l0)
            assert len(terms) == len(ref)
            for b in range(-4, 9):
                value = average(terms_value(terms, (b,)), l0)
                assert value == inv * series_value(rest, (b,))
                assert value == inv * average(terms_value(ref, (b,)), l0)

    def test_negative_exponent_factor_flipped(self):
        st = make_state([(0, (-1,)), (0, (2,))])
        terms = final_univariate(st, 1)
        for b in range(-4, 9):
            assert average(terms_value(terms, (b,)), 1) == series_value(
                st, (b,))


class TestPfdNumerator:
    def test_trivial_single_pole(self):
        beta = AffineForm((0,), 0)
        num = numerator(F(0), [(F(0), 1)], beta)
        assert engine_constants(beta, [(F(0), 1)]) == {
            F(0): ParamPoly.constant(1, cyc_triple(1))}
        assert constant_poly(num) == ParamPoly.constant(1, cyc_triple(1))

    def test_double_pole_numerator_coefficients(self):
        # (1-w)^2 group of 1/((1-w)^2 w^b): numerator b+1 - bw.
        beta = AffineForm((1,), 0)
        num = numerator(F(0), [(F(0), 1)] * 2, beta)
        assert engine_constants(beta, [(F(0), 1)] * 2) == {
            F(0): poly_from_affine(beta + 1)}
        assert constant_poly(num) == poly_from_affine(beta + 1)
        for b in range(0, 9):
            coeffs = w_coeffs_at(num, (b,))
            assert coeffs[0].to_rational() == b + 1
            assert coeffs[1].to_rational() == -b

    def test_local_series_against_euclid_reference(self):
        # beta = 0 leaves the local coefficients equal to the Taylor series
        # of prod_th 1/(1 - e(th) w) at w = alpha^{-1} + t.  Reference: each
        # factor's geometric series (1/u0) sum_j (e(th)/u0)^j t^j, with u0
        # inverted by Euclid, multiplied out by truncated convolution.
        theta, mu = F(1, 3), 3
        others = [F(0), F(1, 4), F(1, 4), F(5, 6)]
        factors = [(theta, 1)] * mu + [(th, 1) for th in others]
        local = local_series(theta, factors)
        ref = [Cyclotomic.one()] + [Cyclotomic.zero()] * (mu - 1)
        for th in others:
            u0_inv = (1 - cyc_from_phase(th - theta)).inv()
            ratio = cyc_from_phase(th) * u0_inv
            series = [u0_inv * cyc_pow(ratio, j) for j in range(mu)]
            ref = [sum((ref[i] * series[j - i] for i in range(j + 1)),
                       Cyclotomic.zero()) for j in range(mu)]
        assert list(local) == ref

    def test_constant_at_includes_phase(self):
        beta = AffineForm((1,), 0)
        factors = [(F(1, 4), 1), (F(3, 4), 1)]
        num = numerator(F(1, 4), factors, beta)
        a0 = engine_constants(beta, factors)[F(1, 4)]
        assert a0 == constant_poly(num)
        for b in range(0, 8):
            expect = cyc_from_phase(F(b, 4) % 1) * a0.eval((b,))
            assert constant_at(num, (b,)) == expect

    def test_closed_form_constant_against_expansion(self):
        # The engine's one-sum constants, for all roots of the factors at
        # once, against the partial-sum reference and the w^0 coefficient of
        # the numerator expanded from its local coefficients N_j.
        rng = random.Random(6)
        phases = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6)]
        for _ in range(40):
            theta = rng.choice(phases)
            others = [rng.choice([q for q in phases if q != theta])
                      for _ in range(rng.randint(0, 4))]
            beta = AffineForm((rng.randint(-2, 2), rng.randint(-2, 2)),
                              rng.randint(-3, 3))
            factors = ([(theta, 1)] * rng.randint(1, 4)
                       + [(q, 1) for q in others])
            nums = [numerator(th, factors, beta)
                    for th in sorted({theta, *others})]
            consts = list(engine_constants(beta, factors).values())
            assert consts == [constant_poly(num) for num in nums]
            for num, a0 in zip(nums, consts):
                for _ in range(3):
                    b = (rng.randint(-4, 6), rng.randint(-4, 6))
                    phase = cyc_from_phase(num.theta * beta.eval(b))
                    assert phase * a0.eval(b) == constant_at(num, b)

    def test_whole_factor_equals_its_linear_roots(self):
        # 1 - e(q) w^n is the product of its n linear factors
        # 1 - e((q - l)/n) w, so both forms give the same series and the
        # same constant; a factor through theta raises mu by one.
        rng = random.Random(11)
        sixths = [F(k, 6) for k in range(6)]
        seen = set()
        for _ in range(80):
            theta, factors = None, []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 4)
                if theta is not None and rng.random() < 0.6:
                    q = n * theta % 1
                else:
                    q = rng.choice(sixths)
                factors.append((q, n))
                if theta is None:
                    theta = F(q - rng.randrange(n), n) % 1
            linear = [(F(q - l, n) % 1, 1) for q, n in factors
                      for l in range(n)]
            beta = AffineForm((rng.choice((-2, -1, 1, 2)),),
                              rng.randint(-3, 3))
            whole = numerator(theta, factors, beta)
            split = numerator(theta, linear, beta)
            seen.add(whole.mult)
            assert whole.mult == split.mult
            assert list(whole.series) == list(split.series)
            a_whole = engine_constants(beta, factors)[theta]
            a_split = engine_constants(beta, linear)[theta]
            assert a_whole == constant_poly(whole)
            for b in range(-4, 7):
                assert a_whole.eval((b,)) == a_split.eval((b,))
        assert seen == {1, 2, 3, 4}

    def test_matches_object_recurrence(self):
        # Roots of multiplicity 1-3 among other factors, at divisors of 840
        # up to 840 itself: every entry's value and level as on objects.
        rng = random.Random(31)
        levels = [d for d in range(2, 841) if 840 % d == 0]
        seen = set()
        for level in levels[-12:] + rng.sample(levels, 8):
            theta = rng.randrange(level)
            mu = rng.randint(1, 3)
            factors = []
            for _ in range(mu):
                n = rng.randint(1, 3)
                factors.append((n * theta % level, n))
            while len(factors) < mu + 2:
                q, n = rng.randrange(level), rng.randint(1, 4)
                if (n * theta - q) % level:
                    factors.append((q, n))
            rng.shuffle(factors)
            got = pfd_numerator(theta, factors, level)
            want = pfd_numerator_objects(theta, factors, level)
            assert len(got) == mu
            assert [(x[0], tuple(x[1]), x[2]) for x in got] == [
                (x.level, x.num, x.den) for x in want]
            seen.add((mu, max(x[0] for x in got)))
        assert {mu for mu, _ in seen} == {1, 2, 3}
        assert max(level for _, level in seen) == 840

    def test_theta_must_be_a_root(self):
        with pytest.raises(ValueError):
            # 1/2 over level 2 is no root of 1 - w.
            pfd_numerator(1, [(0, 1)], 2)


class TestExpand:
    @pytest.mark.parametrize("order", permutations(range(3)),
                             ids=lambda o: "".join(map(str, o)))
    def test_final_states_merged(self, order, monkeypatch):
        # Every state that reaches the last variable is the least of its
        # Galois conjugates (its phase numerators, factors first, times
        # every unit mod its level), has its own key, every field but the
        # scalar, and a nonzero scalar: a triple of ints in lowest terms.
        import vpf.genfun

        seen = []

        def record(state, l0):
            seen.append(state)
            return final_univariate(state, l0)

        monkeypatch.setattr(vpf.genfun, "final_univariate", record)
        compute(ProblemSpec.from_rows(
            [(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)]), order)
        keys = {(s.exps, s.factors, s.phase, s.level, frozenset(s.guards))
                for s in seen}
        assert seen and len(keys) == len(seen)
        assert not any(Cyclotomic._ints(*s.scalar).is_zero() for s in seen)
        for s in seen:
            level, nums, den = s.scalar
            assert type(nums) is tuple and den > 0
            assert all(type(v) is int for v in (level, den, *nums))
            assert gcd(den, *nums) == 1
        for s in seen:
            w = tuple(f.phase for f in s.factors) + s.phase
            assert w == min(tuple(u * a % s.level for a in w)
                            for u in galois_units(s.level, 1))


class TestLadderLevels:
    """On (1 p q) every factor enters whole at a root of level p or q, so
    compute forms no element above level max(p, q)."""

    @staticmethod
    def _levels(obj):
        if isinstance(obj, dict):
            if "level" in obj:
                yield obj["level"]
            obj = list(obj.values())
        if isinstance(obj, list):
            for v in obj:
                yield from TestLadderLevels._levels(v)

    @pytest.mark.parametrize("p, q", [
        (5, 7), (7, 11), (11, 13), (13, 17), (97, 101)])
    def test_no_level_above_max_pq(self, p, q):
        # The engine's terms, as schema 2 wrote them, and the tables, whose
        # entries are all rational, so the schema-3 JSON has no level left.
        spec = ProblemSpec.from_rows([(1, p, q)])
        terms = [term_to_json(t) for t in raw_terms(spec)]
        assert max(self._levels(terms)) <= max(p, q)
        assert list(self._levels(expr_to_json(compute(spec)))) == []

    def test_1_97_101_against_oracle(self):
        spec = ProblemSpec.from_rows([(1, 97, 101)])
        expr = compute(spec)
        for b in (500, 1500, 9797):
            assert evaluate(expr, (b,)) == count_points(spec, (b,))


class TestDedekindSum:
    def test_empty_product(self):
        assert dedekind_sum(1, F(0), [], 0).to_rational() == 1

    def test_matches_euclid_reference(self):
        # (1/n) sum_l alpha_l^beta / f(alpha_l^{-1}), with alpha_l^{-1} and
        # alpha_l^beta taken by Euclid inversion and repeated multiplication.
        f = [cyc_from_phase(F(1, 3)), Cyclotomic(1, [F(1, 2)])]
        for n, a in ((1, F(1, 4)), (2, F(0)), (3, F(1, 2)), (4, F(2, 3))):
            for beta in (-3, 0, 1, 5):
                ref = Cyclotomic.zero()
                for l in range(n):
                    alpha = cyc_from_phase((a + l) / n)
                    val = Cyclotomic.one()
                    for c in f:
                        val = val * (1 - c * alpha.inv())
                    ref = ref + cyc_pow(alpha, beta) * val.inv()
                assert dedekind_sum(n, a, f, beta) == ref * F(1, n)

    def test_half_coefficient(self):
        # (1/2)(1/(1/2) + 1/(3/2)) = 4/3 for f(w) = 1 - w/2 at alpha = +-1.
        val = dedekind_sum(2, F(0), [F(1, 2)], 0)
        assert val.to_rational() == F(4, 3)

    def test_vanishing_factor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            dedekind_sum(1, F(0), [F(1)], 0)

    @pytest.mark.parametrize("n, a, beta", [
        (2.5, F(0), 0), (2.0, F(0), 0), (1, F(1, 3), 0.5), (1, F(0), "1")])
    def test_non_integer_n_or_beta_rejected(self, n, a, beta):
        # beta = 0.5 at a = 1/3 once ran on to a LevelOverflow, rounding none.
        with pytest.raises(MatrixParseError):
            dedekind_sum(n, a, [], beta)

    @pytest.mark.parametrize("a, f", [
        (0, [0.5]), (0.1, []), (True, []), (F(0), [True]), (F(0), ["1/2"])])
    def test_float_or_bool_phase_or_factor_rejected(self, a, f):
        # [0.5] once gave 4/3, and a = 0.1 ran on to a LevelOverflow.
        with pytest.raises(MatrixParseError):
            dedekind_sum(2, a, f, 0)

    def test_matches_simple_group_numerator(self):
        beta = AffineForm((1,), 0)
        theta = F(0)
        others = [F(1, 3), F(2, 3)]
        num = numerator(theta, [(q, 1) for q in [theta] + others], beta)
        f = [cyc_from_phase(th) for th in others]
        for b in range(0, 7):
            assert constant_at(num, (b,)) == dedekind_sum(1, theta, f, b)

    def test_grouped_equals_per_root_sum(self):
        # S for the group 1 - w^2 equals the sum of its two simple-root
        # numerators in 1/((1-w^2)(1-e(1/3)w) w^b).
        beta = AffineForm((1,), 0)
        roots = [F(0), F(1, 2)]
        other = [F(1, 3)]
        f = [cyc_from_phase(F(1, 3))]
        for b in range(0, 7):
            per_root = sum(
                (constant_at(numerator(
                    th, [(o, 1) for o in roots + other], beta), (b,))
                 for th in roots),
                cyc_from_phase(0) * 0)
            assert per_root == dedekind_sum(2, F(0), f, b)


class TestRandomSeriesInvariance:
    def _random_state(self, rng):
        m = rng.randint(2, 3)
        nf = rng.randint(1, 3)
        specs = []
        for _ in range(nf):
            v = [0] * m
            while not any(v):
                v = [rng.randint(-2, 2) for _ in range(m)]
            q = rng.choice([F(0), F(0), F(1, 2), F(1, 3), F(2, 3)])
            specs.append((q, tuple(v)))
        exps = tuple(AffineForm.unit(m, i) + rng.randint(-1, 1)
                     for i in range(m))
        return make_state(specs, exps=exps)

    def test_elimination_random(self):
        rng = random.Random(42)
        done = 0
        while done < 12:
            st = self._random_state(rng)
            try:
                children = eliminate_last_var(st)
            except UnsupportedMultiplePole:
                continue
            m = st.active
            for _ in range(3):
                b = tuple(rng.randint(0, 5) for _ in range(m))
                total = sum((series_value(c, b) for c in children),
                            series_value(st, b) * 0)
                assert total == series_value(st, b)
            done += 1


def conjugate_state(state: GenFunState, u: int) -> GenFunState:
    """sigma_u(state): every phase numerator times u mod the level, the
    scalar conjugated; u must be a unit mod the level and the scalar's."""
    n = state.level
    factors = tuple(Factor(u * f.phase % n, f.exps, f.column)
                    for f in state.factors)
    return GenFunState(state.exps, factors,
                       tuple(u * a % n for a in state.phase), state.guards,
                       cyc_galois(state.scalar, u), n)


def same_multiset(xs, ys) -> bool:
    """Equal as multisets under ==; the states hold unhashable scalars."""
    ys = list(ys)
    for x in xs:
        for i, y in enumerate(ys):
            if x == y:
                del ys[i]
                break
        else:
            return False
    return not ys


class TestGaloisEquivariance:
    """Every elimination step is defined over Q, so it commutes with each
    sigma_u; this is what lets the engine keep one state per orbit."""

    #: Primes above every level these states reach, so each is a unit
    #: mod all of them.
    PRIMES = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061,
              1063, 1069, 1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123]

    def _random_state(self, rng):
        m = rng.randint(2, 3)
        level = rng.choice([1, 2, 3, 4, 6, 12])
        factors = []
        for k in range(rng.randint(1, 4)):
            v = [0] * m
            while not any(v):
                v = [rng.randint(-2, 3) for _ in range(m)]
            factors.append(Factor(rng.randrange(level), tuple(v), k))
        exps = tuple(AffineForm.unit(m, i) + rng.randint(-1, 1)
                     for i in range(m))
        n = rng.choice([1, 3, 4, 5, 12])
        scalar = cyc_triple(cyc_from_phase(F(rng.randrange(n), n))
                            * rng.randint(1, 3) + rng.randint(-2, 2))
        guards = (Guard(AffineForm((1,) * m, rng.randint(-2, 2))),)[
            :rng.randint(0, 1)]
        return GenFunState(exps, tuple(factors),
                           tuple(rng.randrange(level) for _ in range(m)),
                           guards, scalar, level)

    def test_children_of_conjugate_are_conjugate_children(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            st = self._random_state(rng)
            l0 = rng.choice([1, 2, 3, 4, 6, 12])
            u = rng.choice([p for p in self.PRIMES if (p - 1) % l0 == 0])
            try:
                children = eliminate_last_var(st)
            except UnsupportedMultiplePole:
                with pytest.raises(UnsupportedMultiplePole):
                    eliminate_last_var(conjugate_state(st, u))
                continue
            conj = eliminate_last_var(conjugate_state(st, u))
            assert same_multiset(conj, [conjugate_state(c, u)
                                        for c in children])
            done += 1
