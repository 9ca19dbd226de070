"""Acceptance gate: twelve criteria, each with an exact check and a runtime
budget, printing one pass/fail line per criterion."""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from vpf import (
    AffineForm,
    Cyclotomic,
    ProblemSpec,
    UnsupportedMultiplePole,
    check_pointed,
    compute,
    count_points,
    cyc_from_phase,
    evaluate,
    nonnegativize,
    verify_box,
)
from vpf.cli import main as cli_main
from vpf.cyclotomic import cyc_triple
from vpf.errors import NotPointed
from vpf.genfun import (
    Factor,
    GenFunState,
    dedekind_sum,
    eliminate_last_var,
    final_univariate,
    flip,
)
from vpf.matrixops import det_int, mat_vec_int
from vpf.params import ParamPoly

from .helpers import (
    CONE,
    all_root_terms,
    approx,
    conjugate_terms,
    constant_at,
    cp_add,
    cp_divmod,
    cp_linear,
    cp_mul,
    cp_pow,
    cp_series_inv,
    cp_sub,
    engine_constants,
    numerator,
    phase_coeffs,
    phased_state,
    poly_from_affine,
    series_value,
    state_phase,
    substitute_power,
    w_coeffs_at,
)


def F(p, q=1):
    return Fraction(p, q)


@contextmanager
def criterion(num, budget, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {num:2d}: PASS ({elapsed:.2f}s < {budget}s) - {desc}"
    print(line)
    assert elapsed < budget, f"runtime budget exceeded: {line}"


def test_criterion_01_one_one():
    with criterion(1, 1.0, "phi_(1 1)(b) = b+1 for b=0..200, 0 for b<0"):
        expr = compute(ProblemSpec.from_rows([(1, 1)]))
        for b in range(0, 201):
            assert evaluate(expr, (b,)) == b + 1
        for b in range(-10, 0):
            assert evaluate(expr, (b,)) == 0


def test_criterion_02_repeated_pole_numerator():
    with criterion(2, 1.0, "numerator constant of 1/((1-w)^2 w^b) is b+1"):
        beta = AffineForm((1,), 0)
        num = numerator(F(0), [(F(0), 1)] * 2, beta)
        assert engine_constants(beta, [(F(0), 1)] * 2) == {
            F(0): poly_from_affine(beta + 1)}
        for b in range(0, 51):
            assert constant_at(num, (b,)).to_rational() == b + 1


def test_criterion_03_mixed_pole_quarters():
    with criterion(3, 1.0,
                   "1/((1-w^2)(1-w^4) w^b): theta=1/4, 3/4 terms are "
                   "(1/8) e(+-b/4)"):
        st = GenFunState(
            (AffineForm((1,), 0),),
            (Factor(0, (2,)), Factor(0, (4,))))
        eighth = ParamPoly.constant(1, cyc_triple(F(1, 8)))
        by_phase = {phase_coeffs(t.phase)[0]: t for t in all_root_terms(st)}
        for theta in (F(1, 4), F(3, 4)):
            assert by_phase[theta].poly == eighth
        # The engine's one Term for the orbit {1/4, 3/4}, written out over
        # its conjugates, is those two Terms.
        (rep,) = [t for t in final_univariate(st, 1)
                  if phase_coeffs(t.phase)[0] in (F(1, 4), F(3, 4))]
        assert {phase_coeffs(t.phase)[0]: t.poly
                for t in conjugate_terms([rep], 1)} == {
            F(1, 4): eighth, F(3, 4): eighth}


def test_criterion_04_a2_kostant():
    with criterion(4, 5.0, "A2 Kostant verified on [-3,15]^2; min(a,b)+1"):
        spec = ProblemSpec.from_rows([(1, 0, 1), (0, 1, 1)])
        expr = compute(spec)
        report = verify_box(spec, expr, (-3, -3), (15, 15))
        assert report.ok and report.points_checked == 19 * 19
        for a in range(0, 16):
            for b in range(0, 16):
                assert evaluate(expr, (a, b)) == min(a, b) + 1


def test_criterion_05_beck_matrix():
    with criterion(5, 30.0, "Beck matrix (1 2 1 0; 1 1 0 1) on [-2,20]^2"):
        spec = ProblemSpec.from_rows([(1, 2, 1, 0), (1, 1, 0, 1)])
        expr = compute(spec)
        report = verify_box(spec, expr, (-2, -2), (20, 20))
        assert report.ok and report.points_checked == 23 * 23


def test_criterion_06_three_one():
    with criterion(6, 10.0,
                   "(1 1; 3 1): four-summand intermediate and [-2,20]^2 box"):
        spec = ProblemSpec.from_rows([(1, 1), (3, 1)])
        st = GenFunState(
            (AffineForm((1, 0), 0), AffineForm((0, 1), 0)),
            (Factor(0, (1, 3)), Factor(0, (1, 1))))
        children = eliminate_last_var(st)
        assert len(children) == 4
        cube = [c for c in children if c.exps == (AffineForm((3, -1), 0),)]
        assert len(cube) == 3
        seen = set()
        for c in cube:
            assert Cyclotomic._ints(*c.scalar) == F(1, 3)
            (f,) = c.factors
            assert f.exps == (2,)
            l = int(F(f.phase, c.level) * 3)
            seen.add(l)
            # accumulated phase is ((0 - l)/3) b
            assert state_phase(c) == (F(0), F(-l, 3) % 1)
        assert seen == {0, 1, 2}
        (other,) = [c for c in children
                    if c.exps == (AffineForm((1, -1), 0),)]
        assert other.factors == (Factor(0, (-2,)),)
        flipped = flip(other, 0)
        assert Cyclotomic._ints(*flipped.scalar) == -1
        assert flipped.exps == (AffineForm((1, -1), -2),)
        assert flipped.factors == (Factor(0, (2,)),)

        expr = compute(spec)
        report = verify_box(spec, expr, (-2, -2), (20, 20))
        assert report.ok and report.points_checked == 23 * 23


def test_criterion_07_pfd_congruence():
    with criterion(7, 10.0,
                   "PFD congruence sum r_k (s/s_k) = 1 mod s on 100 random "
                   "denominators"):
        rng = random.Random(2024)
        phases = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)]
        beta = AffineForm((1,), 0)
        for _ in range(100):
            nf = rng.randint(1, 4)
            facs = [(rng.choice(phases), rng.randint(1, 4))
                    for _ in range(nf)]
            b = rng.randint(0, 8)
            groups: dict[Fraction, int] = {}
            for q, n in facs:
                for l in range(n):
                    th = F(q - l, n) % 1
                    groups[th] = groups.get(th, 0) + 1
            ordered = sorted(groups.items())
            all_fac = [CONE]
            for th, mu in ordered:
                all_fac = cp_mul(all_fac, cp_pow(cp_linear(th), mu))
            s = [Cyclotomic.zero()] * b + all_fac  # times w^b
            total = []
            for th, mu in ordered:
                num = numerator(th, facs, beta)
                r_k = w_coeffs_at(num, (b,))
                c_k = [CONE]
                for t2, m2 in ordered:
                    if t2 != th:
                        c_k = cp_mul(c_k, cp_pow(cp_linear(t2), m2))
                c_k = [Cyclotomic.zero()] * b + c_k  # times w^b
                total = cp_add(total, cp_mul(r_k, c_k))
            if b > 0:
                r_w = cp_series_inv(all_fac, b)
                total = cp_add(total, cp_mul(r_w, all_fac))
            _, rem = cp_divmod(cp_sub(total, [CONE]), s)
            assert rem == []


def _random_genfun_state(rng):
    m = rng.randint(2, 3)
    nf = rng.randint(1, 4)
    phases = [F(0), F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4)]
    factors = []
    for _ in range(nf):
        v = [0] * m
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(m)]
        factors.append((rng.choice(phases), tuple(v)))
    exps = tuple(AffineForm.unit(m, i) + rng.randint(-1, 1) for i in range(m))
    return phased_state(exps, factors)


def test_criterion_08_series_invariance():
    with criterion(8, 30.0,
                   "eliminate/flip/substitute preserve the series constant "
                   "term on 50 random states"):
        rng = random.Random(777)
        done = 0
        while done < 50:
            st = _random_genfun_state(rng)
            try:
                children = eliminate_last_var(st)
            except UnsupportedMultiplePole:
                continue
            m = st.active
            bs = [tuple(rng.randint(0, 6) for _ in range(m))
                  for _ in range(2)]
            k = rng.randrange(len(st.factors))
            fl = flip(st, k)
            j = rng.randrange(m)
            sub = substitute_power(st, j, rng.randint(2, 3))
            for b in bs:
                ref = series_value(st, b)
                assert series_value(fl, b) == ref
                assert series_value(sub, b) == ref
                total = sum((series_value(c, b) for c in children), ref * 0)
                assert total == ref
            done += 1


def test_criterion_09_dedekind_cross_check():
    with criterion(9, 10.0,
                   "simple-group numerators equal Dedekind sums on 100 "
                   "random instances"):
        rng = random.Random(31)
        phases = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5)]
        checked = 0
        while checked < 100:
            nf = rng.randint(1, 3)
            facs = [(rng.choice(phases), rng.randint(1, 3))
                    for _ in range(nf)]
            roots: dict[Fraction, int] = {}
            per_factor_roots = []
            for q, n in facs:
                ths = [F(q - l, n) % 1 for l in range(n)]
                per_factor_roots.append(ths)
                for th in ths:
                    roots[th] = roots.get(th, 0) + 1
            if any(mu > 1 for mu in roots.values()):
                continue  # only simple groups here
            st = phased_state((AffineForm((1,), 0),),
                              [(q, (n,)) for q, n in facs])
            # The engine's Terms, one per orbit of roots, written out over
            # their conjugates; with l0 the state's level the state is fixed,
            # so the conjugates of one root sum to that root's Term.
            terms = conjugate_terms(final_univariate(st, st.level), st.level)
            ordered = sorted(roots)
            assert {phase_coeffs(t.phase)[0] for t in terms} == set(ordered)
            b = rng.randint(0, 8)
            value = {th: sum((t.value((b,)) for t in terms
                              if phase_coeffs(t.phase)[0] == th),
                             Cyclotomic.zero())
                     for th in ordered}
            # Per-root: each term equals the n=1 Dedekind sum over the rest.
            for th in ordered:
                f = [cyc_from_phase(t2) for t2 in ordered if t2 != th]
                assert value[th] == dedekind_sum(1, th, f, b)
            # Grouped: the sum over one factor's roots equals S_{f,q}(n).
            k = rng.randrange(nf)
            q, n = facs[k]
            mine = set(per_factor_roots[k])
            f = [cyc_from_phase(t2) for t2 in ordered if t2 not in mine]
            grouped = sum((value[th] for th in mine), Cyclotomic.zero())
            assert grouped == dedekind_sum(n, q, f, b)
            checked += 1


def test_criterion_10_cyclotomic_sanity():
    with criterion(10, 5.0,
                   "1000 random add/mul/inv vs complex doubles; exact "
                   "x*inv(x)=1"):
        rng = random.Random(99)
        # Divisors of 60, so every intermediate level stays <= 60.
        levels = [n for n in range(1, 61) if 60 % n == 0]

        def sample():
            n = rng.choice(levels)
            return sum(
                (cyc_from_phase(F(rng.randrange(n), n)) * rng.randint(-3, 3)
                 for _ in range(2)),
                Cyclotomic.zero())

        for _ in range(1000):
            x, y = sample(), sample()
            assert abs(approx(x + y) - (approx(x) + approx(y))) < 1e-9
            assert abs(approx(x * y) - (approx(x) * approx(y))) < 1e-9
            while abs(approx(x)) < 1e-2:
                x = sample()
            inv = x.inv()
            assert x * inv == 1
            assert abs(approx(inv) - 1 / approx(x)) < 1e-9


def test_criterion_11_preprocessing():
    with criterion(11, 30.0,
                   "20 random negative pointed matrices: |det U|=1, UA>=0, "
                   "counts preserved on 5-wide boxes"):
        rng = random.Random(55)
        done = 0
        while done < 20:
            m = rng.randint(1, 3)
            d = rng.randint(1, 3)
            rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                    for _ in range(m)]
            if not any(v < 0 for r in rows for v in r):
                continue
            try:
                spec = ProblemSpec.from_rows(rows)
                y = check_pointed(spec)
            except NotPointed:
                continue
            report = nonnegativize(spec, y)
            assert abs(det_int(report.unimodular)) == 1
            assert all(v >= 0 for row in report.normalized for v in row)
            ua = ProblemSpec.from_rows(report.normalized)

            def boxes(i):
                if i == m:
                    yield ()
                    return
                for rest in boxes(i + 1):
                    for v in range(-2, 3):
                        yield (v,) + rest

            for b in boxes(0):
                assert count_points(spec, b) == count_points(
                    ua, mat_vec_int(report.unimodular, b))
            done += 1


def test_criterion_12_rejection(tmp_path, capsys):
    with criterion(12, 1.0,
                   "(1 -1) exits NotPointed; colliding columns exit "
                   "UnsupportedMultiplePole"):
        cases = [
            ("1 2\n1 -1\n", 2),
            ("2 3\n1 1 2\n1 1 1\n", 3),
            ("3 3\n1 1 0\n1 1 0\n0 0 1\n", 3),
        ]
        for i, (text, code) in enumerate(cases):
            p = tmp_path / f"m{i}.mat"
            p.write_text(text, encoding="utf-8")
            assert cli_main(["compute", str(p)]) == code
        capsys.readouterr()
