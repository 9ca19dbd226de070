"""Summands: each Galois orbit of engine terms collapsed into one polynomial
whose coefficients are tables indexed by residue . b mod modulus.

The raw engine terms, summed with `Term.value` in cyclotomic arithmetic and
averaged over the Galois group each of them stands for, are the reference
for every table."""
from __future__ import annotations

import json
import pickle
import random
import re
import time
from copy import copy as shallow_copy, deepcopy
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from pathlib import Path

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    Guard,
    LevelOverflow,
    NotPointed,
    PreprocessReport,
    ProblemSpec,
    ResultExpr,
    SanityFailure,
    Summand,
    UnsupportedMultiplePole,
    check_pointed,
    compute,
    cyc_from_phase,
    evaluate,
)
from vpf.cyclotomic import cyc_triple, least_conjugate, orbit_table
from vpf.matrixops import mat_vec_int
from vpf.params import EQ_ZERO, ParamPoly, PhaseForm, Term, collapse_terms
from vpf.render import render_expr_latex, render_expr_text
from vpf.serialize import expr_from_json, expr_to_json, summand_to_json

from .helpers import (
    average,
    galois_units,
    raw_terms,
    schema2_doc,
    spec_level,
    summand_value,
    terms_value,
    unmerged_terms,
)


DATA = Path(__file__).parent / "data"


def F(p, q=1):
    return Fraction(p, q)


M34 = [(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)]
A2 = [(1, 0, 1), (0, 1, 1)]
BECK = [(1, 2, 1, 0), (1, 1, 0, 1)]
THREE_ONE = [(1, 1), (3, 1)]
NEGATIVE = [(1, -1, 0), (0, 1, 1)]

#: The thirteen inputs of the benchmark's workloads, with their orders.
BENCH_INPUTS = [pytest.param(M34, order, id="3x4_" + "".join(map(str, order)))
                for order in permutations(range(3))] + [
    pytest.param(A2, None, id="a2"),
    pytest.param(BECK, None, id="beck"),
    pytest.param(THREE_ONE, None, id="three_one"),
    pytest.param(NEGATIVE, None, id="negative"),
    pytest.param([(1, 5, 7)], None, id="p5_q7"),
    pytest.param([(1, 7, 11)], None, id="p7_q11"),
    pytest.param([(1, 11, 13)], None, id="p11_q13"),
]

PHASED = [
    pytest.param([(1, 1)], (F(1, 2), 0), id="one_one_half"),
    pytest.param([(1, 1)], (F(1, 3), 0), id="one_one_third"),
    pytest.param([(1, 2)], (0, F(1, 4)), id="one_two_quarter"),
    pytest.param(A2, (F(1, 2), 0, F(1, 3)), id="a2"),
    pytest.param(THREE_ONE, (0, F(1, 2)), id="three_one"),
    pytest.param(BECK, (F(1, 3), 0, 0, F(1, 2)), id="beck"),
    pytest.param([(1, 5, 7)], (F(1, 2), 0, 0), id="p5_q7"),
    pytest.param(NEGATIVE, (0, F(1, 4), 0), id="negative"),
]


def summands_value(expr, b):
    """The summands' sum at normalized b, rational or cyclotomic."""
    return sum(summand_value(s, b) for s in expr.terms)


def entries(summands):
    """The table entries of the summands, in order."""
    return [x for s in summands for _, t in s.poly for x in t]


def points(m, rng, count=12, lo=-3, hi=14):
    return [tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(count)]


class TestOrbit:
    def test_canonical_generator_is_smallest_multiple(self):
        # Against all units: v = min u * w mod L, and phase = k * v / L.
        rng = random.Random(8)
        dens = [1, 2, 3, 4, 5, 6, 9, 12, 15, 30, 36, 180]
        for _ in range(500):
            phase = tuple(
                F(rng.randrange(d), d)
                for d in (rng.choice(dens) for _ in range(rng.randint(1, 3))))
            n = lcm(*(c.denominator for c in phase))
            w = tuple(int(c * n) for c in phase)
            v, u = least_conjugate(w, n)
            k = pow(u, -1, n)  # as collapse_terms names the phase
            term = Term(PhaseForm(w, n),
                        ParamPoly.constant(len(w), cyc_triple(1)))
            (summand,) = collapse_terms([term], 1)
            assert (summand.modulus, summand.residue) == (n, v)
            assert v == tuple(u * x % n for x in w)
            assert v == min(tuple(a * x % n for x in w)
                            for a in range(n) if gcd(a, n) == 1)
            assert gcd(k, n) == 1 or n == 1
            assert tuple(k * x % n for x in v) == w

    def test_table_entries_are_rotated_sums(self):
        # Entry j is sum_k e(k j / L) c_k, here against Cyclotomic products.
        rng = random.Random(4)
        for modulus in (1, 2, 5, 6, 12, 35, 36, 97):
            units = [k for k in range(modulus) if gcd(k, modulus) == 1] or [0]
            parts = [(rng.choice(units),
                      cyc_from_phase(F(rng.randrange(q), q)) * F(rng.randint(-4, 4), 3)
                      + F(rng.randint(-2, 2)))
                     for q in (1, 3, 4, 10) for _ in range(2)]
            table = orbit_table(
                modulus, [(k, cyc_triple(c)) for k, c in parts], 0)
            assert len(table) == modulus
            for j, entry in enumerate(table):
                ref = sum((cyc_from_phase(F(k * j, modulus)) * c for k, c in parts),
                          Cyclotomic.zero())
                assert entry == ref
                assert isinstance(entry, Fraction) == ref.is_rational()

    # Every entry for the small moduli under every l0 up to 12; a few l0 and
    # two sampled entries for the large ones, where one entry of the
    # reference costs hundreds of conjugates.
    AVERAGED = [*((modulus, l0, None) for modulus, l0 in
                  product((1, 2, 5, 6, 12), range(1, 13))),
                *((modulus, l0, 2) for modulus, l0 in
                  product((35, 36), (1, 6, 12))),
                (97, 10, 2)]

    def test_table_entries_average_conjugates(self):
        # With l0 a pair (k, c) stands for the average of e(u k j / L) *
        # sigma_u(c) over the units u = 1 mod l0, here with each conjugate
        # built from its coefficients times e(u i / level).
        rng = random.Random(5)
        for modulus, l0, sample in self.AVERAGED:
            units = [k for k in range(modulus) if gcd(k, modulus) == 1] or [0]
            parts = [(rng.choice(units),
                      cyc_from_phase(F(rng.randrange(q), q)) * F(rng.randint(-4, 4), 3)
                      + F(rng.randint(-2, 2)))
                     for q in (1, 3, 4, 10) for _ in range(2)]
            table = orbit_table(
                modulus, [(k, cyc_triple(c)) for k, c in parts], l0)
            assert len(table) == modulus
            js = rng.sample(range(modulus), sample) if sample else range(modulus)
            for j in js:
                entry = table[j]
                ref = Cyclotomic.zero()
                for k, c in parts:
                    group = galois_units(lcm(modulus, c.level), l0)
                    for u in group:
                        conj = sum((cyc_from_phase(F(u * i, c.level)) * x
                                    for i, x in enumerate(c.coeffs)),
                                   Cyclotomic.zero())
                        ref += (cyc_from_phase(F(u * k * j, modulus)) * conj
                                * F(1, len(group)))
                assert entry == ref
                assert isinstance(entry, Fraction) == ref.is_rational()

    def test_1_199_211_coin_change(self):
        # Ways to pay b with coins 1, 199 and 211: for each count z of 211s,
        # the 199s range over 0..(b - 211 z) // 199.  The two tables of 199
        # and 211 entries are Ramanujan sums; the budget catches a table
        # build that grows like L^3.
        spec = ProblemSpec.from_rows([(1, 199, 211)])
        start = time.perf_counter()
        expr = compute(spec)
        elapsed = time.perf_counter() - start
        for b in (0, 198, 199, 410, 41989, 50000, 83977, 2 * 199 * 211):
            want = sum((b - 211 * z) // 199 + 1 for z in range(b // 211 + 1))
            assert evaluate(expr, (b,)) == want
        assert evaluate(expr, (-1,)) == 0
        assert elapsed < 0.3, f"compute took {elapsed:.3f} s"


class TestSummandsMatchTerms:
    @pytest.mark.parametrize("rows, order", BENCH_INPUTS)
    def test_benchmark_inputs(self, rows, order):
        spec = ProblemSpec.from_rows(rows)
        expr = compute(spec, order)
        raw = raw_terms(spec, order)
        assert len(expr.terms) <= len(raw)
        for b in points(spec.m, random.Random(len(raw))):
            assert summands_value(expr, b) == average(terms_value(raw, b), 1)

    @pytest.mark.parametrize("rows, box", [
        ([(1, 1)], [range(-10, 201)]),
        (A2, [range(-3, 16)] * 2),
        (BECK, [range(-2, 21)] * 2),
        (THREE_ONE, [range(-2, 21)] * 2),
    ], ids=["criterion_1", "criterion_4", "criterion_5", "criterion_6"])
    def test_acceptance_boxes(self, rows, box):
        spec = ProblemSpec.from_rows(rows)
        expr = compute(spec)
        raw = raw_terms(spec)
        for b in product(*box):
            assert summands_value(expr, b) == average(terms_value(raw, b), 1)

    @pytest.mark.parametrize("rows, phases", PHASED)
    def test_phased_specs(self, rows, phases):
        spec = ProblemSpec.from_rows(rows, phases)
        expr = compute(spec)
        raw = raw_terms(spec)
        for b in points(spec.m, random.Random(3), count=20, lo=-2, hi=9):
            assert summands_value(expr, b) == average(
                terms_value(raw, b), spec_level(spec))

    def test_phased_entries_stay_cyclotomic(self):
        # sum_{x <= b} e(x/3) is 1 + e(1/3) at b = 1 and 0 at b = 2.
        spec = ProblemSpec.from_rows([(1, 1)], phases=(F(1, 3), 0))
        expr = compute(spec)
        entries = [x for s in expr.terms for _, t in s.poly for x in t]
        assert any(isinstance(x, Cyclotomic) for x in entries)
        assert all(isinstance(x, Fraction) or not x.is_rational()
                   for x in entries)
        assert evaluate(expr, (2,)) == 0
        assert evaluate(expr, (1,)) == 1 + cyc_from_phase(F(1, 3))

    def test_phased_value_may_be_negative(self):
        # sum_{x = b} e(x/2) is (-1)^b for b >= 0.
        expr = compute(ProblemSpec.from_rows([(1,)], phases=(F(1, 2),)))
        for b in range(-3, 12):
            value = evaluate(expr, (b,))
            assert isinstance(value, Fraction)
            assert value == ((-1) ** b if b >= 0 else 0)

    def test_non_rational_table_without_phases_is_an_engine_bug(
            self, monkeypatch):
        import vpf.pipeline

        def skewed(terms, l0):
            s = Summand((), 3, (1,), (((0,), (cyc_from_phase(F(1, 3)),) * 3),))
            return (s,)

        monkeypatch.setattr(vpf.pipeline, "collapse_terms", skewed)
        with pytest.raises(SanityFailure, match="not rational"):
            compute(ProblemSpec.from_rows([(1, 1)]))


class TestMergedStates:
    """`expand` merges the states of a level that are Galois conjugates or
    differ only in their scalars, and makes one Term per orbit of roots;
    the unmerged depth-first run with one Term per root is the
    reference."""

    @pytest.mark.parametrize("rows, order", BENCH_INPUTS)
    def test_benchmark_inputs(self, rows, order):
        spec = ProblemSpec.from_rows(rows)
        merged, unmerged = raw_terms(spec, order), unmerged_terms(spec, order)
        for b in points(spec.m, random.Random(5)):
            assert average(terms_value(merged, b), 1) == terms_value(
                unmerged, b)

    @pytest.mark.parametrize("rows, phases", PHASED)
    def test_phased_specs(self, rows, phases):
        spec = ProblemSpec.from_rows(rows, phases)
        merged, unmerged = raw_terms(spec), unmerged_terms(spec)
        for b in points(spec.m, random.Random(6), count=20, lo=-2, hi=9):
            assert average(terms_value(merged, b), spec_level(spec)) == (
                terms_value(unmerged, b))

    def test_fuzz_collapse_equals_reference_collapse(self):
        # The summands of the engine's representatives equal, exactly, those
        # of the reference terms, each of which stands for itself; half the
        # specs have column phases.  Unphased, they are equal down to each
        # entry's level.  Phased, an engine entry lies at a level dividing
        # L0, while the reference, whose pairs stand for themselves, writes
        # it at the level of the pairs; the two are equal at their lcm.
        rng = random.Random(41)
        done = 0
        while done < 50:
            m, d = rng.randint(1, 3), rng.randint(1, 4)
            rows = [tuple(rng.randint(-1, 2) for _ in range(d))
                    for _ in range(m)]
            phases = (tuple(F(rng.randrange(12), 12) for _ in range(d))
                      if done % 2 else ())
            try:
                spec = ProblemSpec.from_rows(rows, phases)
                check_pointed(spec)
                order = tuple(rng.sample(range(m), m))
                reps = collapse_terms(raw_terms(spec, order), spec_level(spec))
            except (NotPointed, UnsupportedMultiplePole):
                continue
            ref = collapse_terms(unmerged_terms(spec, order), 0)
            assert reps == ref
            if not phases:
                assert list(map(summand_to_json, reps)) == list(
                    map(summand_to_json, ref))
            for x, y in zip(entries(reps), entries(ref), strict=True):
                assert type(x) is type(y)
                if isinstance(x, Cyclotomic):
                    assert spec_level(spec) % x.level == 0
                    n = lcm(x.level, y.level)
                    x, y = x.raise_level(n), y.raise_level(n)
                    assert (x.num, x.den) == (y.num, y.den)
            done += 1

    def test_default_order_makes_fewer_terms(self):
        # Without the merge the 3x4 default order makes 518 raw terms.
        spec = ProblemSpec.from_rows(M34)
        assert len(unmerged_terms(spec, (0, 1, 2))) == 518
        assert len(raw_terms(spec, (0, 1, 2))) < 518


class TestSchema2Collapse:
    @pytest.mark.parametrize("rows, order", BENCH_INPUTS)
    def test_raw_terms_collapse_like_compute(self, rows, order):
        # The reader collapses schema-2 terms with compute's own grouping,
        # here from the raw engine terms, whose equal phases share a table.
        spec = ProblemSpec.from_rows(rows)
        doc = json.loads(json.dumps(schema2_doc(spec, order)))
        back = expr_from_json(doc)
        expr = compute(spec, order)
        assert back.terms == expr.terms
        for b in points(spec.m, random.Random(1)):
            assert evaluate(back, b) == evaluate(expr, b)

    def test_phase_order_above_level_cap(self):
        # The phase (1/2, 1/10^12) has order 10^12: finding its group would
        # try 5 * 10^11 units, so the level cap stops it first.
        doc = json.loads((DATA / "one_one_schema2.json").read_text(encoding="utf-8"))
        doc["m"] = 2
        term = doc["terms"][0]
        term["phase"]["coeffs"] = ["1/2", "1/1000000000000"]
        term["guards"] = []
        term["poly"] = [{"exps": [0, 0], "coeff": {"level": 1, "coeffs": ["1"]}}]
        with pytest.raises(LevelOverflow):
            expr_from_json(doc)

    @pytest.mark.parametrize("rows, phases", PHASED)
    def test_phased_round_trip(self, rows, phases):
        expr = compute(ProblemSpec.from_rows(rows, phases))
        back = expr_from_json(json.loads(json.dumps(expr_to_json(expr))))
        assert back.terms == expr.terms


class TestRationalEvaluate:
    """Without column phases evaluate sums integer numerators: no
    cyclotomic number is formed and no Fraction is added or multiplied."""

    CASES = [(A2, None, 2), (BECK, None, 2), (THREE_ONE, None, 2),
             (NEGATIVE, None, 2), ([(1, 5, 7)], None, 1)] + [
        (M34, order, 3) for order in permutations(range(3))]

    @pytest.fixture
    def refuse_arithmetic(self, monkeypatch):
        def arm(cls):
            def refuse(*args):
                raise AssertionError(f"{cls.__name__} arithmetic in evaluate")

            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                monkeypatch.setattr(cls, name, refuse)
        return arm

    def check_without(self, cls, arm):
        # The expected values are taken first, which also builds each plan.
        exprs = [(compute(ProblemSpec.from_rows(rows), order), m)
                 for rows, order, m in self.CASES]
        boxes = [list(product(range(-2, 9 if m < 3 else 6), repeat=m))
                 for _, m in exprs]
        expected = [[evaluate(e, b) for b in box]
                    for (e, _), box in zip(exprs, boxes)]
        arm(cls)
        for (e, _), box, want in zip(exprs, boxes, expected):
            assert [evaluate(e, b) for b in box] == want

    def test_evaluate_is_rational(self, refuse_arithmetic):
        self.check_without(Cyclotomic, refuse_arithmetic)

    def test_hot_path_on_integers(self, refuse_arithmetic):
        self.check_without(Fraction, refuse_arithmetic)

    def test_1_97_101_at_level_9797(self, refuse_arithmetic):
        # Coin change with coins 1, 97, 101: 4999 ways to make 9797 and
        # 5207 to make 10000.
        expr = compute(ProblemSpec.from_rows([(1, 97, 101)]))
        assert len(expr.terms) == 3
        refuse_arithmetic(Cyclotomic)
        assert evaluate(expr, (9797,)) == 4999
        assert evaluate(expr, (10000,)) == 5207
        assert evaluate(expr, (-1,)) == 0


def reference_value(expr, b):
    """evaluate's value before its checks, from the summands one by one at
    the normalized b: a Fraction, or a Cyclotomic when not rational."""
    nb = b if expr.report is None else mat_vec_int(expr.report.unimodular, b)
    value = sum((summand_value(s, nb) for s in expr.terms), Fraction(0))
    if isinstance(value, Cyclotomic) and value.is_rational():
        value = value.to_rational()
    return value


def all_guards_fail(expr, m):
    """Points near the origin where no guard of any summand holds."""
    u = expr.report.unimodular
    return [b for b in product(range(-4, 3), repeat=m)
            if not any(g.satisfied(mat_vec_int(u, b))
                       for s in expr.terms for g in s.guards)]


class TestEvaluationPlan:
    """evaluate reads a plan built once per expression; the summands one by
    one are its reference."""

    @pytest.mark.parametrize("rows, order, phases", [
        pytest.param(*p.values, (), id=p.id) for p in BENCH_INPUTS] + [
        pytest.param(rows, None, phases, id="phased_" + p.id)
        for p in PHASED for rows, phases in [p.values]])
    def test_agrees_with_reference(self, rows, order, phases):
        spec = ProblemSpec.from_rows(rows, phases)
        expr = compute(spec, order)
        dead = all_guards_fail(expr, spec.m)
        assert dead
        for b in points(spec.m, random.Random(5), count=40, lo=-9) + dead:
            got, want = evaluate(expr, b), reference_value(expr, b)
            assert type(got) is type(want) and got == want, b

    @pytest.mark.parametrize("expr", [
        ResultExpr(1, ()),
        # A summand without monomials, one without guards, a modulus-1
        # table and an entry with a denominator: b (b + 1) / 2 + 1.
        ResultExpr(1, (
            Summand((Guard(AffineForm((1,))),), 2, (1,), ()),
            Summand((), 1, (0,), (((2,), (F(1, 2),)), ((1,), (F(1, 2),)),
                                  ((0,), (F(1),)))))),
        # Equality guards beside an inequality, and a residue table.
        ResultExpr(2, (
            Summand((Guard(AffineForm((1, -1)), EQ_ZERO),
                     Guard(AffineForm((1, 0), -3))),
                    3, (1, 2), (((2, 0), (F(1), F(2), F(3))),)),
            Summand((Guard(AffineForm((0, 1), 1), EQ_ZERO),), 1, (0, 0),
                    (((0, 2), (F(7),)),)))),
        # m = 4 under a unimodular transform that is not the identity.
        ResultExpr(4, (
            Summand((Guard(AffineForm((1, 0, -1, 0), 2)),), 6, (1, 0, 3, 5),
                    (((2, 0, 0, 0), tuple(map(F, range(6)))),
                     ((0, 1, 1, 0), (F(0),) * 6), ((0, 0, 0, 2), (F(1),) * 6))),
            Summand((), 1, (0,) * 4, (((0, 0, 2, 2), (F(3),)),))),
            report=PreprocessReport(
                (F(1),) * 4, ((1, 2, 0, -1), (0, 1, 3, 0), (0, 0, 1, -2),
                              (0, 0, 0, 1)), ((1,),) * 4)),
        # Numbers whose decimal text is past Python's int-string limit.
        ResultExpr(1, (Summand((Guard(AffineForm((10**5000,), -10**5000)),),
                               2, (10**5000 + 1,), (((0,), (F(1), F(2))),)),)),
        # One residue form read under three guard sets and under none, and
        # the same residue vector at a second modulus.
        ResultExpr(2, (
            Summand((Guard(AffineForm((1, 0))),), 3, (1, 2),
                    (((0, 0), (F(1), F(2), F(3))),
                     ((1, 0), (F(0), F(1), F(-2))))),
            Summand((Guard(AffineForm((0, 1), -1)),), 3, (1, 2),
                    (((0, 1), (F(5), F(0), F(1))),)),
            Summand((Guard(AffineForm((1, -1)), EQ_ZERO),), 3, (1, 2),
                    (((0, 0), (F(4), F(0), F(0))),)),
            Summand((), 3, (1, 2), (((1, 1), (F(1), F(-1), F(0))),)),
            Summand((Guard(AffineForm((1, 0))),), 6, (1, 2),
                    (((0, 0), tuple(map(F, range(6)))),)))),
        # Modulus-1 tables with denominators 2, 3 and 4 on monomials of
        # degree 0, 1 and 2: b0 (b0 + 1) / 2 + b1 (b1 - 1) / 3 + 7, and
        # (3 b0 b1 + 1) / 4 where b1 = 0.
        ResultExpr(2, (
            Summand((Guard(AffineForm((1, 1))),), 1, (0, 0), (
                ((2, 0), (F(1, 2),)), ((1, 0), (F(1, 2),)),
                ((0, 1), (F(-1, 3),)), ((0, 2), (F(1, 3),)),
                ((0, 0), (F(7),)))),
            Summand((Guard(AffineForm((0, 1)), EQ_ZERO),), 1, (0, 0),
                    (((1, 1), (F(3, 4),)), ((0, 0), (F(1, 4),)))))),
        # Modulus-1 Cyclotomic entries under a phased spec: e(1/3) +
        # b e(2/3) - 2 b, which is -3 at b = 1 and 4 at b = -2, plus 1/2
        # from 10^12 on, which leaves a denominator.
        ResultExpr(1, (
            Summand((Guard(AffineForm((1,))),), 1, (0,), (
                ((0,), (cyc_from_phase(F(1, 3)),)),
                ((1,), (cyc_from_phase(F(2, 3)),)))),
            Summand((), 1, (0,), (((1,), (F(-2),)),)),
            Summand((Guard(AffineForm((1,), -10**12)),), 1, (0,),
                    (((0,), (F(1, 2),)),))),
            spec=ProblemSpec.from_rows([(1, 1)], (F(1, 3), 0))),
    ], ids=["no-summands", "empty-poly", "equality-guards", "m4-transform",
            "huge-numbers", "shared-residue", "modulus-1-denominators",
            "phased-modulus-1-cyclotomic"])
    def test_kernel_edge_cases(self, expr):
        phased = expr.spec is not None and any(expr.spec.phases)
        # Each coordinate near 0, near 10^12 or near -10^12.
        near = [v for c in (0, 10**12, -10**12) for v in (c - 2, c + 1)]
        for b in product(near, repeat=expr.m):
            want = reference_value(expr, b)
            if isinstance(want, Cyclotomic):
                count = phased and want.den == 1
            else:
                count = want.denominator == 1 and (phased or want >= 0)
            if count:
                got = evaluate(expr, b)
                assert type(got) is type(want) and got == want, b
            else:
                with pytest.raises(SanityFailure,
                                   match=re.escape(f": {want}") + "$"):
                    evaluate(expr, b)

    @pytest.mark.parametrize("rows, order", BENCH_INPUTS)
    def test_plan_never_stale(self, rows, order):
        spec = ProblemSpec.from_rows(rows)
        expr = compute(spec, order)
        assert "_plan" not in vars(expr)  # compute compiles no kernel
        fresh, before = replace(expr), repr(expr)
        pts = points(spec.m, random.Random(6), lo=-2, hi=9)
        values = [evaluate(expr, b) for b in pts]
        assert repr(expr) == before and expr == fresh
        # The benchmark's self-test drops the last summand this way.
        short = replace(expr, terms=expr.terms[:-1])
        assert short != expr
        for b in pts:
            want = reference_value(short, b)
            if want.denominator == 1 and want >= 0:
                assert evaluate(short, b) == want
            else:
                with pytest.raises(SanityFailure):
                    evaluate(short, b)
        back = expr_from_json(json.loads(json.dumps(expr_to_json(expr))))
        assert [evaluate(back, b) for b in pts] == values
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr and [evaluate(copy, b) for b in pts] == values
        for other in (shallow_copy(expr), deepcopy(expr)):
            assert "_plan" not in vars(other)
            assert other == expr and [evaluate(other, b) for b in pts] == values


class TestRender:
    def test_tables_printed(self):
        expr = compute(ProblemSpec.from_rows([(1, 2)]))
        text = render_expr_text(expr)
        assert "[1/2 * (b+3/2) if b >= 0]" in text
        assert "[[1/4, -1/4][b mod 2] if b >= 0]" in text
        latex = render_expr_latex(expr)
        assert "[1/4, -1/4][b \\bmod 2]" in latex

    def test_summand_without_monomials(self):
        # expr_from_json accepts an empty "poly"; it adds 0.
        doc = expr_to_json(compute(ProblemSpec.from_rows([(1, 2)])))
        doc["terms"][1]["poly"] = []
        expr = expr_from_json(doc)
        assert render_expr_text(expr).endswith("[0 if b >= 0]")
        assert summands_value(expr, (3,)) == F(3, 2) + F(3, 4)

    def test_no_summands(self):
        assert render_expr_text(ResultExpr(1, ())) == "phi(b) = 0"
        assert render_expr_latex(ResultExpr(2, ())) == "\\phi(a, b) = 0"

    def test_guard_coefficients(self):
        # A coefficient other than +-1 is written with its factor.
        expr = ResultExpr(2, (Summand(
            (Guard(AffineForm((2, -3), -1)), Guard(AffineForm((1, -1)), EQ_ZERO)),
            1, (0, 0), (((1, 0), (F(1),)),)),))
        assert render_expr_text(expr) == (
            "phi(a, b) =\n    [a if 2*a-3*b-1 >= 0 and a-b = 0]")
        assert render_expr_latex(expr) == (
            "\\phi(a, b) = \\left[a\\right]_{2 a-3 b-1 \\ge 0,\\ a-b = 0}")

    def test_every_entry_printed(self):
        expr = compute(ProblemSpec.from_rows([(1, 5, 7)]))
        text = render_expr_text(expr)
        for s in expr.terms:
            for _, table in s.poly:
                if len(set(table)) > 1:
                    assert "[" + ", ".join(map(str, table)) + "]" in text
