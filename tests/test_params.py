"""Symbolic parameter algebra: affine forms, phases, polynomials, terms,
and the elimination's accumulator step into a term's parts."""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    DimensionMismatch,
    Guard,
    MatrixParseError,
    cyc_from_phase,
)
from vpf.cyclotomic import cyc_triple
from vpf.genfun import GenFunState, accumulate
from vpf.params import EQ_ZERO, GE_ZERO, ParamPoly, PhaseForm, Term, binom_poly

from .helpers import phase_coeffs, poly_add, poly_from_affine


def F(p, q=1):
    return Fraction(p, q)


class TestAffineForm:
    def test_eval_examples(self):
        assert AffineForm((1, -1), -1).eval((3, 1)) == 1
        assert AffineForm((3, -1), 0).eval((2, 4)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineForm((1, 1), 0).eval((1,))

    def test_algebra(self):
        f = AffineForm((1, 0), 2)
        g = AffineForm((0, 3), -1)
        assert (f + g).eval((2, 2)) == f.eval((2, 2)) + g.eval((2, 2))
        assert (f - g).eval((2, 2)) == f.eval((2, 2)) - g.eval((2, 2))
        assert (3 * f).eval((2, 2)) == 3 * f.eval((2, 2))
        assert (f + 5).eval((2, 2)) == f.eval((2, 2)) + 5
        assert (-f).eval((2, 2)) == -f.eval((2, 2))

    def test_unit(self):
        assert AffineForm.unit(3, 1).eval((4, 5, 6)) == 5


class TestPhaseForm:
    def test_coeffs_reduced(self):
        p = PhaseForm((1, 0), 4)
        assert p.eval((5, 100)) == F(1, 4)

    def test_unreduced_coeffs_rejected(self):
        # 3/2, -1/2 and 1/1, as numerators over their levels.
        for num, level in ((3, 2), (-1, 2), (1, 1)):
            with pytest.raises(ValueError):
                PhaseForm((num,), level)
        with pytest.raises(ValueError):
            PhaseForm.from_coeffs((F(3, 2),))

    def test_lowest_terms(self):
        # 2/6 and 4/6 are 1/3 and 2/3, so equal phases are equal forms.
        p = PhaseForm((2, 4), 6)
        assert (p.nums, p.level) == ((1, 2), 3)
        assert p == PhaseForm.from_coeffs((F(1, 3), F(2, 3)))
        assert phase_coeffs(p) == (F(1, 3), F(2, 3))
        assert PhaseForm((0, 0), 5) == PhaseForm((0, 0))

    def test_mod_one_reduction_agrees(self):
        # e(phase(b)) before/after coefficient reduction agree on a box.
        raw = F(7, 4)
        red = raw % 1
        for b in range(-5, 6):
            assert (raw * b) % 1 == (red * b) % 1



class TestParamPoly:
    def test_from_affine_roundtrip(self):
        f = AffineForm((2, -1), 3)
        p = poly_from_affine(f)
        for b in ((0, 0), (1, 5), (-2, 3)):
            assert p.eval(b) == f.eval(b)

    def test_add(self):
        f = poly_from_affine(AffineForm((1,), 1))
        g = poly_from_affine(AffineForm((1,), -1))
        assert poly_add(f, g).eval((5,)) == 10
        assert [(e, Cyclotomic._ints(*c)) for e, c in poly_add(f, g).items()
                ] == [((1,), Cyclotomic(1, [2]))]

    def test_zero_coeffs_dropped(self):
        p = ParamPoly(1, {(1,): cyc_triple(Cyclotomic.zero()),
                          (0,): cyc_triple(2)})
        assert [(e, Cyclotomic._ints(*c)) for e, c in p.items()] == [
            ((0,), Cyclotomic(1, [2]))]

    def test_constant(self):
        p = ParamPoly.constant(2, cyc_triple(F(1, 8)))
        assert [(e, Cyclotomic._ints(*c)) for e, c in p.items()] == [
            ((0, 0), Cyclotomic(1, [F(1, 8)]))]
        assert p.eval((3, -4)) == F(1, 8)

    def test_str_and_repr(self):
        p = ParamPoly(2, {(2, 1): cyc_triple(1), (0, 1): cyc_triple(F(-1, 2)),
                          (1, 0): cyc_triple(3),
                          (0, 0): cyc_triple(cyc_from_phase(F(1, 3)))})
        assert str(p) == "x0^2*x1 + (3)*x0 + (-1/2)*x1 + z3"
        assert repr(p) == "ParamPoly(2, 'x0^2*x1 + (3)*x0 + (-1/2)*x1 + z3')"
        assert (str(ParamPoly(1)), repr(ParamPoly(1))) == (
            "0", "ParamPoly(1, '0')")

    def test_eq_of_rational_ignores_level(self):
        half = Cyclotomic(1, [F(-1, 2)])
        p = ParamPoly(1, {(1,): cyc_triple(half), (0,): cyc_triple(3)})
        q = ParamPoly(1, {(0,): cyc_triple(Cyclotomic(1, [3]).raise_level(5)),
                          (1,): cyc_triple(half.raise_level(12))})
        assert p == q
        r = ParamPoly(1, {(1,): cyc_triple(cyc_from_phase(F(1, 3))),
                          (0,): cyc_triple(3)})
        assert r != p


class TestBinomPoly:
    def test_j_zero_is_one(self):
        beta = AffineForm((1,), 0)
        assert binom_poly(0, beta) == ParamPoly.constant(1, cyc_triple(1))

    def test_j_one_is_beta(self):
        beta = AffineForm((1,), 0)
        assert binom_poly(1, beta) == poly_from_affine(beta)

    def test_j_two(self):
        beta = AffineForm((1,), 0)
        p = binom_poly(2, beta)
        for b in range(-4, 8):
            assert p.eval((b,)) == F(b * (b + 1), 2)

    def test_matches_binomial_coefficients(self):
        beta = AffineForm((1,), 0)
        for j in range(5):
            p = binom_poly(j, beta)
            for b in range(1, 10):
                assert p.eval((b,)) == comb(b + j - 1, j)


class TestGuard:
    def test_satisfied(self):
        g = Guard(AffineForm((1,), 0), GE_ZERO)
        assert g.satisfied((0,)) and g.satisfied((3,))
        assert not g.satisfied((-1,))
        e = Guard(AffineForm((1,), 0), EQ_ZERO)
        assert e.satisfied((0,)) and not e.satisfied((1,))

    def test_trivial(self):
        assert Guard(AffineForm((0,), 5), GE_ZERO).is_trivial()
        assert Guard(AffineForm((0,), 0), EQ_ZERO).is_trivial()
        assert not Guard(AffineForm((1,), 5), GE_ZERO).is_trivial()
        assert not Guard(AffineForm((0,), -1), GE_ZERO).is_trivial()

    def test_unknown_sense_rejected(self):
        with pytest.raises(MatrixParseError):
            Guard(AffineForm((1,), 0), "gt")


def _state(m):
    """A state over m parameters with identity exponents and no factors."""
    return GenFunState(tuple(AffineForm.unit(m, i) for i in range(m)), ())


def _term(step):
    """The Term of a (phase, guards, scalar, level) accumulator step."""
    phase, guards, scalar, level = step
    return Term(PhaseForm(phase, level),
                ParamPoly.constant(len(phase), scalar), guards)


class TestTerm:
    """Term.value, and the engine's accumulator step into a Term's parts."""

    def test_guard_failure_yields_zero(self):
        t = _term(accumulate(_state(1), Guard(AffineForm((1,), 0), GE_ZERO)))
        assert t.value((-1,)).is_zero()
        assert t.value((0,)) == 1

    def test_a2_leaf(self):
        # a+1 under a >= 0, evaluated at a=3.
        t = Term(PhaseForm((0, 0)),
                 poly_from_affine(AffineForm((1, 0), 1)),
                 (Guard(AffineForm((1, 0), 0), GE_ZERO),))
        assert t.value((3, 0)).to_rational() == 4

    def test_eighth_scalar_phase(self):
        # (1/8) e(b/4) at b=2 is -1/8.
        t = Term(PhaseForm((1,), 4),
                 ParamPoly.constant(1, cyc_triple(F(1, 8))))
        assert t.value((2,)).to_rational() == F(-1, 8)

    def test_linear_in_scalar(self):
        # The step multiplies the scalar by c, and the value is linear in it.
        st = replace(_state(1), scalar=cyc_triple(cyc_from_phase(F(1, 3)) * 2))
        g = Guard(AffineForm((1,), 1), GE_ZERO)
        base = accumulate(st, g, cyc_triple(1), 1, 3)  # times e(b/3)
        scaled = accumulate(st, g, cyc_triple(3), 1, 3)
        assert Cyclotomic._ints(*scaled[2]) == Cyclotomic._ints(*base[2]) * 3
        assert scaled[:2] == base[:2] and scaled[3] == base[3]
        for b in range(-2, 4):
            assert _term(scaled).value((b,)) == _term(base).value((b,)) * 3

    def test_always_true_guard_changes_nothing(self):
        st = _state(2)
        step = accumulate(st, Guard(AffineForm((0, 0), 1), GE_ZERO))
        assert step == (st.phase, (), st.scalar, st.level)

    def test_shift_phase_constant_goes_to_scalar(self):
        phase, guards, scalar, level = accumulate(
            _state(1), Guard(AffineForm((1,), 2), GE_ZERO), cyc_triple(1),
            1, 4)
        assert Cyclotomic._ints(*scalar) == cyc_from_phase(F(1, 2))
        assert (phase, level) == ((1,), 4)

    def test_phase_lifted_and_shifted(self):
        # e(b/3) times e((b + 7)/2): the phase 5/6 over level 6, and the
        # constant e(7/2) = -1 in the scalar.
        st = GenFunState((AffineForm.unit(1, 0),), (), (1,), level=3)
        phase, _, scalar, level = accumulate(
            st, Guard(AffineForm((1,), 7), GE_ZERO), cyc_triple(1), 3, 2)
        assert (phase, level) == ((5,), 6)
        assert Cyclotomic._ints(*scalar) == -1

    def test_duplicate_guard_dropped(self):
        g = Guard(AffineForm((1,), 0), GE_ZERO)
        _, guards, _, _ = accumulate(_state(1), g)
        _, guards, _, _ = accumulate(replace(_state(1), guards=guards), g)
        assert guards == (g,)
