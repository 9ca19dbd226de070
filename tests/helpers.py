"""Shared test machinery.

The truncated-series oracle here re-derives the constant-term semantics of a
GenFunState directly from geometric series, independently of the elimination
engine, so engine steps can be checked against it.  The depth-first counter
`count_points_dfs` is the reference for the graded box oracle `box_counts`.
`raw_terms` runs the engine without collapsing its terms into summands;
each of them stands for its average over the Galois group G of the units
u = 1 mod the level L0 of the input phases (`spec_level`), which `average`
and `conjugate_terms` write out through the conjugates sigma_u of
`conjugate` and of the kernel `cyc_galois`.  `all_root_terms` is the
univariate stage with one Term per root and no averaging, and
`unmerged_terms` runs the
engine through it without merging states either: the reference for
`expand`.  `schema2_doc` writes the engine's terms, written out, as
schema-2 expression JSON.  `summand_value`
evaluates one summand on its own, the reference for `evaluate`'s kernel,
and `difference_residual` checks `evaluate` against the difference
equation that phi_A satisfies, at any b, phased specs included.
`phased_state` builds an engine state from rational factor phases;
`state_phase` and `phase_coeffs` read a state's or a term's phase back as
rationals; `poly_from_affine` and `poly_add` build the ParamPolys the
references compare against.  `numerator` records a
root's local series from `genfun.pfd_numerator` with its theta and beta;
`constant_poly` is the partial-sum form of its numerator constant, the
reference for the constants `engine_constants` reads off the Terms of
`all_root_terms`.  `pfd_numerator_objects` is the recurrence of
`pfd_numerator` on `Cyclotomic` objects, the reference for the engine's on
integer triples.
"""
from __future__ import annotations

import cmath
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import mul, sub
from typing import NamedTuple

from vpf import (
    AffineForm,
    Cyclotomic,
    DimensionMismatch,
    Guard,
    ProblemSpec,
    compute,
    cyc_from_phase,
    evaluate,
)
from vpf.cyclotomic import (cyc_add, cyc_galois, cyc_mul, cyc_triple,
                            inv_one_minus_root)
from vpf.genfun import (
    Factor,
    GenFunState,
    _normalize_last,
    accumulate,
    eliminate_last_var,
    expand,
    pfd_numerator,
)
from vpf.matrixops import fm_certificate
from vpf.params import EQ_ZERO, GE_ZERO, ParamPoly, PhaseForm, Term, binom_poly
from vpf.pipeline import preprocess
from vpf.serialize import cyc_to_json, expr_to_json, guard_to_json, rat_to_json


def _last_nonzero(u):
    return max(i for i, v in enumerate(u) if v)


def _phase_counts(factors, goal):
    """Counts, keyed by accumulated phase, of ways to write `goal` as a
    nonnegative combination sum t_k * u_k of the given directions."""
    if not factors:
        return {Fraction(0): 1} if not any(goal) else {}
    p = max(_last_nonzero(u) for _, u in factors)
    if any(goal[i] for i in range(p + 1, len(goal))):
        return {}
    group = [(q, u) for q, u in factors if _last_nonzero(u) == p]
    rest = [(q, u) for q, u in factors if _last_nonzero(u) != p]
    out: dict[Fraction, int] = {}

    def assign(i, remaining, vec, phase):
        if i == len(group):
            if remaining:
                return
            sub = [g - a for g, a in zip(goal, vec)]
            for ph, cnt in _phase_counts(rest, sub).items():
                key = (phase + ph) % 1
                out[key] = out.get(key, 0) + cnt
            return
        q, u = group[i]
        step = u[p]
        t = 0
        while t * step <= remaining:
            assign(i + 1, remaining - t * step,
                   [a + t * v for a, v in zip(vec, u)], (phase + t * q) % 1)
            t += 1

    if goal[p] >= 0:
        assign(0, goal[p], [0] * len(goal), Fraction(0))
    return out


def count_points_dfs(spec, b, certificate=None) -> int:
    """phi_A(b) by depth-first search over the last column's multiplicity.

    Prunes a residual r with y . r < 0, and a residual with a negative entry
    once every remaining column is entrywise nonnegative.
    """
    columns = spec.columns
    y = fm_certificate(columns) if certificate is None else certificate
    # In integers: a positive factor changes neither the signs of y . r
    # nor yr // yc.
    scale = lcm(*(Fraction(yi).denominator for yi in y))
    y = [int(yi * scale) for yi in y]
    yc = [sum(map(mul, y, c)) for c in columns]
    # nonneg_prefix[k]: all columns 0..k are entrywise nonnegative.
    nonneg_prefix = []
    flag = True
    for c in columns:
        flag = flag and all(e >= 0 for e in c)
        nonneg_prefix.append(flag)

    def rec(k: int, r) -> int:
        if k < 0:
            return 1 if not any(r) else 0
        yr = sum(map(mul, y, r))
        if yr < 0:
            return 0
        if nonneg_prefix[k] and min(r) < 0:
            return 0
        c, count = columns[k], 0
        for _ in range(yr // yc[k] + 1):  # r - x c for x = 0, 1, ...
            count += rec(k - 1, r)
            r = tuple(map(sub, r, c))
        return count

    return rec(spec.d - 1, tuple(b))


def phased_state(exps, pairs, columns=False) -> GenFunState:
    """The state z^{-exps} prod_k 1/(1 - e(q_k) z^{v_k}) for (q_k, v_k)
    pairs of rational q_k, its phases numerators over the lcm of the
    denominators of the q_k mod 1; with `columns`, factor k carries input
    column k."""
    qs = [Fraction(q) % 1 for q, _ in pairs]
    level = lcm(*(q.denominator for q in qs))
    factors = tuple(
        Factor(q.numerator * (level // q.denominator), tuple(v),
               k if columns else None)
        for k, (q, (_, v)) in enumerate(zip(qs, pairs)))
    return GenFunState(tuple(exps), factors, level=level)


def state_phase(state: GenFunState) -> tuple:
    """The rational coefficients rho of a state's phase e(rho . b)."""
    return tuple(Fraction(a, state.level) for a in state.phase)


def phase_coeffs(phase: PhaseForm) -> tuple:
    """The rational coefficients rho of a term's phase e(rho . b)."""
    return tuple(Fraction(a, phase.level) for a in phase.nums)


def poly_from_affine(f: AffineForm) -> ParamPoly:
    """The affine form f as a ParamPoly of degree <= 1."""
    m = f.arity
    monos = {}
    for i, c in enumerate(f.coeffs):
        if c:
            monos[tuple(1 if j == i else 0 for j in range(m))] = cyc_triple(c)
    if f.const:
        monos[(0,) * m] = cyc_triple(f.const)
    return ParamPoly(m, monos)


def poly_add(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """p + q, monomial by monomial; a sum that cancels is dropped."""
    monos = dict(p.items())
    for e, c in q.items():
        monos[e] = cyc_add(monos[e], c) if e in monos else c
    return ParamPoly(p.arity, monos)


def series_value(state: GenFunState, b) -> Cyclotomic:
    """Constant-term contribution of a state at concrete b, by expanding every
    factor as a geometric series in its standard-expansion direction: 0 if a
    guard fails, else e(phase(b)) * scalar times the series' constant term."""
    if not all(g.satisfied(b) for g in state.guards):
        return Cyclotomic.zero()
    goal = [f.eval(b) for f in state.exps]
    sign = 1
    phase_const = Fraction(0)
    dirs = []
    for f in state.factors:
        u = list(f.exps)
        q = Fraction(f.phase, state.level)
        if u[_last_nonzero(u)] < 0:
            # 1/(1-e(q)z^v) = -e(-q) z^{-v} / (1 - e(-q) z^{-v})
            sign = -sign
            q = (-q) % 1
            u = [-v for v in u]
            phase_const = (phase_const + q) % 1
            goal = [g - v for g, v in zip(goal, u)]
        dirs.append((q, tuple(u)))
    total = Cyclotomic.zero()
    for ph, cnt in _phase_counts(dirs, goal).items():
        total = total + cyc_from_phase(ph) * cnt
    phase = sum(map(mul, state_phase(state), b), phase_const)
    return (cyc_from_phase(phase) * Cyclotomic._ints(*state.scalar)
            * total * sign)


def substitute_power(state: GenFunState, j: int, n: int) -> GenFunState:
    """Substitute z_j -> z_j^n; the constant term is unchanged.

    `eliminate_last_var` fuses this substitution into child construction;
    here it stands alone so the series identity can be checked by itself.
    """
    assert n >= 1 and 0 <= j < state.active
    if n == 1:
        return state
    exps = tuple(f * n if i == j else f for i, f in enumerate(state.exps))
    factors = tuple(
        Factor(f.phase, tuple(e * n if i == j else e for i, e in enumerate(f.exps)))
        for f in state.factors)
    return replace(state, exps=exps, factors=factors)


def cyc_pow(x: Cyclotomic, n: int) -> Cyclotomic:
    """x^n by square-and-multiply; a negative n inverts x first."""
    base = x.inv() if n < 0 else x
    n = abs(n)
    out = Cyclotomic.one()
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def approx(x: Cyclotomic) -> complex:
    """Double-precision value of x with zeta_N -> exp(2*pi*i/N)."""
    z = cmath.exp(2j * cmath.pi / x.level)
    return sum((complex(c) * z**i for i, c in enumerate(x.coeffs)), 0j)


def terms_value(terms, b) -> Cyclotomic:
    total = Cyclotomic.zero()
    for t in terms:
        total = total + t.value(b)
    return total


def summand_value(s, b):
    """0 if any guard of the Summand s fails at the normalized b, else its
    polynomial at b with each coefficient read from its table at
    residue . b mod modulus."""
    if len(b) != len(s.residue):
        raise DimensionMismatch(
            f"expected {len(s.residue)} parameters, got {len(b)}")
    if not all(g.satisfied(b) for g in s.guards):
        return 0
    j = sum(map(mul, s.residue, b)) % s.modulus
    return sum(table[j] * prod(map(pow, b, exps)) for exps, table in s.poly)


def difference_residual(spec: ProblemSpec, expr, b):
    """sum over subsets T of the columns of (-1)^|T| e(q_T) phi(b - c_T),
    less [b = 0], with phi = evaluate(expr, .) and c_T, q_T the sums of
    T's columns and phases.  The generating function of phi times
    prod_k (1 - e(q_k) z^{c_k}) is 1, so this is zero at every integer b
    when expr is phi_A (Dahmen-Micchelli): a check that needs no oracle."""
    total = -int(not any(b))
    for subset in product((0, 1), repeat=spec.d):
        cols = [c for c, t in zip(spec.columns, subset) if t]
        q = sum((q for q, t in zip(spec.phases, subset) if t), Fraction(0))
        value = evaluate(expr, [x - sum(c[i] for c in cols)
                                for i, x in enumerate(b)])
        term = value if q % 1 == 0 else cyc_from_phase(q % 1) * value
        total = total - term if len(cols) % 2 else total + term
    return total


def spec_level(spec: ProblemSpec) -> int:
    """L0, the level of the column phases: the lcm of their denominators."""
    return lcm(*(q.denominator for q in spec.phases))


def galois_units(n: int, l0: int) -> list:
    """The units u mod n with u = 1 mod gcd(n, l0): the image mod n of the
    group G of the units u = 1 mod l0."""
    h = gcd(n, l0)
    return [u for u in range(1, n + 1) if gcd(u, n) == 1 and (u - 1) % h == 0]


def conjugate(x: Cyclotomic, u: int) -> Cyclotomic:
    """sigma_u(x), the conjugate under zeta -> zeta^u, for an integer u
    prime to the level, by the kernel `cyc_galois`."""
    return Cyclotomic._ints(*cyc_galois(cyc_triple(x), u))


def average(x: Cyclotomic, l0: int) -> Cyclotomic:
    """x averaged over its conjugates sigma_u(x), u in G = units = 1 mod l0."""
    units = galois_units(x.level, l0)
    return sum((conjugate(x, u) for u in units), Cyclotomic.zero()) * Fraction(
        1, len(units))


def conjugate_terms(terms, l0: int) -> list:
    """Each Term's average over G written out: its conjugates sigma_u(t),
    the phase times u and every coefficient conjugated, each divided by the
    number of units u mod the lcm K of the term's levels."""
    out = []
    for t in terms:
        k = lcm(t.phase.level, *(c[0] for _, c in t.poly.items()))
        units = galois_units(k, l0)
        for u in units:
            poly = ParamPoly(t.poly.arity, {
                e: cyc_mul(cyc_galois(c, u), (1, (1,), len(units)))
                for e, c in t.poly.items()})
            phase = PhaseForm(tuple(u * a % t.phase.level
                                    for a in t.phase.nums), t.phase.level)
            out.append(Term(phase, poly, t.guards))
    return out


def raw_terms(spec: ProblemSpec, order=None) -> list:
    """The engine's terms for `spec`, before `compute` collapses them; each
    stands for its average over G (`spec_level`)."""
    order = tuple(range(spec.m)) if order is None else order
    return expand(preprocess(spec).normalized, spec.phases, order)


def all_root_terms(state: GenFunState) -> list:
    """The univariate stage with one Term per root and no averaging: the
    reference for `final_univariate`, whose Terms are one per Galois orbit
    of roots.  Each root theta of multiplicity mu gets its local series s
    from `pfd_numerator` and the Term e(theta beta) sum_{k<mu}
    binom(beta+mu-1-k, mu-1-k) s_k t^k x at t = -e(-theta)."""
    state = _normalize_last(state)
    (beta,) = state.exps
    level = state.level
    factors, c = [], 1
    for f in state.factors:
        if f.exps[0]:
            factors.append((f.phase, f.exps[0]))
        else:
            c = c * Cyclotomic._ints(*inv_one_minus_root(f.phase, level))
    if not factors:
        phase, guards, scalar, n = accumulate(
            state, Guard(beta, EQ_ZERO), cyc_triple(c))
        return [Term(PhaseForm(phase, n),
                     ParamPoly.constant(beta.arity, scalar), guards)]
    lift = lcm(*(n for _, n in factors))
    big = level * lift
    factors = [(q * lift, n) for q, n in factors]
    roots = {(q - l * big) // n % big for q, n in factors for l in range(n)}
    terms = []
    for theta in sorted(roots):
        s = [Cyclotomic._ints(*x) for x in pfd_numerator(theta, factors, big)]
        phase, guards, x, n = accumulate(
            state, Guard(beta, GE_ZERO), cyc_triple(c), theta, lift)
        x = Cyclotomic._ints(*x)
        t = -cyc_from_phase(Fraction(-theta, big))
        mu = len(s)
        poly = binom_poly(mu - 1, beta + 1).scale(cyc_triple(s[0] * x))
        for k in range(1, mu):
            x = x * t
            poly = poly_add(poly, binom_poly(mu - 1 - k, beta + 1).scale(
                cyc_triple(s[k] * x)))
        if poly.items():
            terms.append(Term(PhaseForm(phase, n), poly, guards))
    return terms


def unmerged_terms(spec: ProblemSpec, order=None) -> list:
    """The engine's terms for `spec` with every state eliminated on its own,
    depth first, no states merged and one Term per root (`all_root_terms`):
    the reference for `expand`, each Term standing for itself."""
    order = tuple(range(spec.m)) if order is None else order
    normalized = preprocess(spec).normalized
    exps = tuple(AffineForm.unit(spec.m, i) for i in order)
    stack = [phased_state(exps, [
        (q, [normalized[i][k] for i in order])
        for k, q in enumerate(spec.phases)])]
    terms = []
    while stack:
        st = stack.pop()
        if st.active == 1:
            terms.extend(all_root_terms(st))
        else:
            stack.extend(eliminate_last_var(st))
    return terms


def phase_to_json(p) -> dict:
    return {"coeffs": [rat_to_json(c) for c in phase_coeffs(p)]}


def poly_to_json(p) -> list:
    return [{"exps": list(e), "coeff": cyc_to_json(Cyclotomic._ints(*c))}
            for e, c in sorted(p.items(), key=lambda kv: kv[0])]


def term_to_json(t) -> dict:
    """A term as schema 2 wrote it."""
    return {
        "phase": phase_to_json(t.phase),
        "poly": poly_to_json(t.poly),
        "guards": [guard_to_json(g) for g in t.guards],
    }


def schema2_doc(spec: ProblemSpec, order=None) -> dict:
    """Schema-2 expression JSON holding the engine's raw terms, each written
    out over its Galois orbit, as schema 2 held every term."""
    doc = expr_to_json(compute(spec, order))
    terms = conjugate_terms(raw_terms(spec, order), spec_level(spec))
    doc.update(schema=2, terms=[term_to_json(t) for t in terms])
    return doc


# -- dense univariate polynomials with Cyclotomic coefficients (ascending) --

CZERO = Cyclotomic.zero()
CONE = Cyclotomic.one()


def cp_trim(p):
    end = len(p)
    while end and p[end - 1].is_zero():
        end -= 1
    return list(p[:end])


def cp_mul(p, q):
    if not p or not q:
        return []
    out = [CZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, c in enumerate(q):
            out[i + j] = out[i + j] + a * c
    return cp_trim(out)


def cp_add(p, q):
    out = [CZERO] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] = out[i] + a
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return cp_trim(out)


def cp_sub(p, q):
    return cp_add(p, [-c for c in q])


def cp_divmod(p, q):
    p = list(p)
    q = cp_trim(q)
    assert q
    lead_inv = q[-1].inv()
    out = [CZERO] * max(0, len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = p[i + len(q) - 1] * lead_inv
        if not c.is_zero():
            out[i] = c
            for j, d in enumerate(q):
                p[i + j] = p[i + j] - c * d
    return cp_trim(out), cp_trim(p[: len(q) - 1])


def cp_linear(theta) -> list:
    """1 - e(theta) w."""
    return [CONE, -cyc_from_phase(theta)]


def cp_pow(p, n):
    out = [CONE]
    for _ in range(n):
        out = cp_mul(out, p)
    return out


def cp_series_inv(p, order):
    """Inverse of p as a power series, truncated below w^order."""
    assert not p[0].is_zero()
    inv0 = p[0].inv()
    out = [inv0]
    for k in range(1, order):
        acc = CZERO
        for j in range(1, min(k, len(p) - 1) + 1):
            acc = acc + p[j] * out[k - j]
        out.append(-inv0 * acc)
    return out


class Numerator(NamedTuple):
    """The numerator of root theta, multiplicity `mult`, formal in b:
    alpha^{beta(b)} sum_{j<mult} N_j t^j in t = w - alpha^{-1}
    (alpha = e(theta)), with N_j = sum_{i<=j} binom(beta+i-1, i) (-alpha)^i
    series[j-i]; the phase alpha^beta is kept separate."""

    theta: Fraction
    mult: int
    beta: AffineForm
    series: tuple


def pfd_numerator_objects(theta: int, factors, level: int) -> tuple:
    """`genfun.pfd_numerator` as it was written on `Cyclotomic` objects, one
    object per operation: the reference for the engine's recurrence on
    triples, entry by entry, level included."""
    through = [(n * theta - q) % level == 0 for q, n in factors]
    mu = sum(through)
    if not mu:
        raise ValueError(
            f"{Fraction(theta, level)} is not a root of any factor")
    prod = [Cyclotomic.one()] + [Cyclotomic.zero()] * (mu - 1)
    for (q, n), hit in zip(factors, through):
        if hit and n == 1:
            continue
        g0_inv = (Fraction(1, n) if hit else Cyclotomic._ints(
            *inv_one_minus_root(q - n * theta, level)))
        prod[0] = prod[0] * g0_inv
        if hit:
            h = [-cyc_from_phase(Fraction(i * theta, level)) * comb(n, i + 1)
                 for i in range(1, min(n, mu))]
        else:
            h = [cyc_from_phase(Fraction(q - (n - i) * theta, level))
                 * comb(n, i) for i in range(1, min(n + 1, mu))]
        for j in range(1, mu):
            acc = prod[j]
            for i, c in enumerate(h[:j], 1):
                acc = acc + c * prod[j - i]
            prod[j] = acc * g0_inv
    return tuple(prod)


def local_series(theta, factors) -> tuple:
    """`pfd_numerator` for rational theta and (q_k, n_k) pairs of rational
    q_k, read as numerators over the lcm of their denominators, its series
    read as Cyclotomics."""
    level = lcm(theta.denominator, *(Fraction(q).denominator for q, _ in factors))
    return tuple(Cyclotomic._ints(*x) for x in pfd_numerator(
        theta.numerator * (level // theta.denominator),
        [(int(q * level), n) for q, n in factors], level))


def numerator(theta, factors, beta) -> Numerator:
    """The engine's local series at theta of 1/prod_k (1 - e(q_k) w^{n_k}),
    recorded with the beta of 1/(... w^beta)."""
    series = local_series(theta, factors)
    return Numerator(theta, len(series), beta, series)


def engine_constants(beta, factors) -> dict:
    """A(b) of each root theta of `factors`, read off the engine: the Terms
    that all_root_terms returns for GenFunState((beta,), factors), in
    ascending theta, each divided by e(theta beta.const).  The engine drops
    a zero polynomial, so a root whose `constant_poly` is zero has no Term
    and reads as zero; every other root takes the next Term."""
    roots = sorted({Fraction(q - l, n) % 1 for q, n in factors
                    for l in range(n)})
    state = phased_state((beta,), [(q, (n,)) for q, n in factors])
    terms = iter(all_root_terms(state))
    out = {}
    for theta in roots:
        if not constant_poly(numerator(theta, factors, beta)).items():
            out[theta] = ParamPoly(beta.arity)
            continue
        term = next(terms)
        assert term.phase == PhaseForm.from_coeffs(
            [theta * c % 1 for c in beta.coeffs])
        out[theta] = term.poly.scale(
            cyc_triple(cyc_from_phase(-theta * beta.const)))
    assert next(terms, None) is None
    return out


def w_coeffs_at(num, b) -> list:
    """Coefficients, ascending in w, of a Numerator's polynomial at
    concrete b: alpha^beta sum_{j<mult} N_j (w - alpha^{-1})^j, with
    N_j = sum_{i<=j} binom(beta+i-1, i) (-alpha)^i series[j-i] built from
    integer binomials and expanded by plain polynomial products."""
    beta = num.beta.eval(b)
    alpha = cyc_from_phase(num.theta)
    h = [Fraction(prod(range(beta, beta + i)), factorial(i))
         * cyc_pow(-alpha, i) for i in range(num.mult)]
    out = [CZERO] * num.mult
    base = [CONE]  # (w - alpha^{-1})^j
    for j in range(num.mult):
        n_j = sum((h[i] * num.series[j - i] for i in range(j + 1)), CZERO)
        for i, c in enumerate(base):
            out[i] = out[i] + n_j * c
        base = cp_mul(base, [-cyc_from_phase(-num.theta), CONE])
    phase = cyc_from_phase(num.theta * beta)
    return [phase * c for c in out]


def constant_poly(num) -> ParamPoly:
    """A(b) of a Numerator without the alpha^beta phase: the numerator at
    w = 0 by partial sums.  There t = -alpha^{-1} and (-alpha)^i t^i = 1, so
    A = sum_{i<mult} binom(beta+i-1, i) S_{mult-1-i} with the partial sums
    S_r = sum_{k<=r} series[k] t^k."""
    point = -cyc_from_phase((-num.theta) % 1)  # -alpha^{-1}
    partial = [num.series[0]]
    power = CONE
    for c in num.series[1:]:
        power = power * point
        partial.append(partial[-1] + c * power)
    out = ParamPoly(num.beta.arity)
    for i in range(num.mult):
        out = poly_add(
            out, binom_poly(i, num.beta).scale(cyc_triple(partial[-1 - i])))
    return out


def constant_at(num, b) -> Cyclotomic:
    """A Numerator's value at w = 0 and concrete b, phase included, read
    off the expanded polynomial rather than the engine's closed form."""
    return w_coeffs_at(num, b)[0]

