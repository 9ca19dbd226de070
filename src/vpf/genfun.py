"""The elimination engine.

A GenFunState is z^{-beta(b)} * prod 1/(1 - e(a_k / N) z^{v_k}) times a
phase and a constant scalar under guards.  Every phase is an integer
numerator over the state's level N, and every number is an integer triple
(level, nums, den) of the `cyclotomic` kernels, a Term's coefficients
too, so the engine does no rational bookkeeping and builds no Cyclotomic.
One elimination step rewrites the constant-term functional over the last
active variable as child states with one variable fewer, each moved by
`accumulate`; the univariate stage resolves arbitrary pole multiplicities
into closed Terms, each root's local series times the scalar.  `expand`
runs it all from the normalized matrix, level by level, merging conjugate
and equal states.

Every step commutes with the Galois automorphisms sigma_u: zeta -> zeta^u,
so each state and each Term stands for its average over the group G of the
units u = 1 mod L0, L0 the level of the input phases: one state per orbit
of states, one Term per orbit of roots.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm

from .cyclotomic import (
    Cyclotomic,
    cyc_add,
    cyc_from_phase,
    cyc_galois,
    cyc_lowest,
    cyc_mul,
    cyc_rotate,
    galois_group,
    inv_one_minus_root,
    least_conjugate,
    unit_lift,
)
from .errors import DimensionMismatch, MatrixParseError, UnsupportedMultiplePole
from .matrixops import int_vector, rat_vector, sequence
from .params import (
    EQ_ZERO,
    GE_ZERO,
    AffineForm,
    Guard,
    ParamPoly,
    PhaseForm,
    Term,
    binom_poly,
)

ONE = (1, (1,), 1)  # the triple of 1


@dataclass(frozen=True)
class Factor:
    """Denominator factor 1 - e(phase / N) * z^exps over the active
    variables, N the level of the state that holds it."""

    phase: int
    exps: tuple[int, ...]
    #: 0-based index of the input column this factor came from, carried for
    #: error messages only; equal factors of different columns merge.
    column: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.phase and not any(self.exps):
            raise ValueError("factor 1 - 1 is the zero denominator")


@dataclass(frozen=True)
class GenFunState:
    """z^{-beta(b)} prod_k 1/(1 - e(a_k / N) z^{v_k}) times
    e(phase . b / N) * scalar where every guard holds, 0 elsewhere.  `exps`
    are the exponents beta, one per active variable; forms, guards and phase
    refer to all m parameters.  The scalar, constant in b, is a triple
    (level, nums, den) kept in lowest terms.

    N = `level`, and the factor phases a_k and the phase numerators lie in
    [0, N).  N is kept canonical, gcd(N, a_k, phase) = 1, so equal states
    are equal fields.  Defaults: zero phase, no guards, scalar 1, level 1.
    """

    exps: tuple[AffineForm, ...]
    factors: tuple[Factor, ...]
    phase: tuple[int, ...] | None = None
    guards: tuple[Guard, ...] = ()
    scalar: tuple = ONE
    level: int = 1

    def __post_init__(self):
        if self.phase is None:
            object.__setattr__(self, "phase", (0,) * self.exps[0].arity)
        level, nums, den = cyc_lowest(self.scalar)
        object.__setattr__(self, "scalar", (level, tuple(nums), den))
        n = self.level
        nums = [f.phase for f in self.factors] + list(self.phase)
        if n < 1 or nums and not 0 <= min(nums) <= max(nums) < n:
            raise ValueError(f"phase numerators {nums} are not reduced mod {n}")
        g = gcd(n, *nums)
        if g != 1:
            object.__setattr__(self, "factors", tuple(
                Factor(f.phase // g, f.exps, f.column) for f in self.factors))
            object.__setattr__(self, "phase", tuple(a // g for a in self.phase))
            object.__setattr__(self, "level", n // g)

    @property
    def active(self) -> int:
        return len(self.exps)


def accumulate(state: GenFunState, guard: Guard, c=ONE, s=0, n=1):
    """(phase, guards, scalar, level) of `state` times c * e(s beta(b) / M)
    under `guard` on beta = guard.form, with M = n N: the phase is lifted to
    level M and the constant part of s beta goes to the scalar.  The
    constant c is a triple, and so is the scalar, in lowest terms."""
    guards = state.guards
    if not guard.is_trivial() and guard not in guards:
        guards += (guard,)
    x = state.scalar if c is ONE else cyc_mul(state.scalar, c)
    level = state.level * n
    scalar = cyc_lowest(cyc_rotate(x, s * guard.form.const, level))
    phase = tuple((a * n + s * x) % level
                  for a, x in zip(state.phase, guard.form.coeffs))
    return phase, guards, scalar, level


def flip(state: GenFunState, k: int) -> GenFunState:
    """Replace factor k via 1/(1-e(q)z^v) = -e(-q) z^{-v} / (1-e(-q)z^{-v})."""
    f = state.factors[k]
    q = -f.phase % state.level
    new_factor = Factor(q, tuple(-e for e in f.exps), f.column)
    factors = state.factors[:k] + (new_factor,) + state.factors[k + 1:]
    exps = tuple(beta + v for beta, v in zip(state.exps, f.exps))
    x = cyc_rotate(cyc_mul(state.scalar, (1, (-1,), 1)), q, state.level)
    return GenFunState(exps, factors, state.phase, state.guards, x, state.level)


def _normalize_last(state: GenFunState) -> GenFunState:
    """Flip the factors whose last-variable exponent is negative; a flip
    changes no other factor, so one pass leaves them all >= 0."""
    w = state.active - 1
    for k, f in enumerate(state.factors):
        if f.exps[w] < 0:
            state = flip(state, k)
    return state


def eliminate_last_var(state: GenFunState) -> list[GenFunState]:
    """One elimination step: constant term over the last active variable.

    The children sum to the parent's contribution for every integer b.  The
    power substitution z_j -> z_j^{n_k} is fused into child construction, so
    rational exponents never materialize.  The child of root l of factor k
    (phase a_k / N, last exponent n) lives at level M = n N, shifted by
    s / M with s = l N - a_k.
    """
    if state.active < 2:
        raise DimensionMismatch("eliminate_last_var needs at least 2 variables")
    state = _normalize_last(state)
    w = state.active - 1
    beta_w = state.exps[w]
    level = state.level
    chosen = [k for k, f in enumerate(state.factors) if f.exps[w] > 0]

    if not chosen:
        # No factor involves the variable: const of z^{-beta_w} alone.
        factors = tuple(Factor(f.phase, f.exps[:w], f.column)
                        for f in state.factors)
        return [GenFunState(state.exps[:w], factors,
                            *accumulate(state, Guard(beta_w, EQ_ZERO)))]

    guard = Guard(beta_w, GE_ZERO)
    children = []
    for k in chosen:
        fk = state.factors[k]
        n = fk.exps[w]
        m = level * n
        exps = tuple(n * state.exps[j] - fk.exps[j] * beta_w for j in range(w))
        others = [(ft, tuple(n * ft.exps[j] - ft.exps[w] * fk.exps[j]
                             for j in range(w)))
                  for t, ft in enumerate(state.factors) if t != k]
        for l in range(n):
            s = l * level - fk.phase
            c = (1, (1,), n)
            factors = []
            for ft, v2 in others:
                q2 = (ft.phase * n + ft.exps[w] * s) % m
                if any(v2):
                    factors.append(Factor(q2, v2, ft.column))
                elif q2 == 0:
                    cols = sorted(f.column + 1 for f in (ft, fk)
                                  if f.column is not None)
                    raise UnsupportedMultiplePole(
                        f"with {state.active} active variables, factor "
                        f"(phase {Fraction(ft.phase, level)}, exponents "
                        f"{ft.exps}) shares a root with factor (phase "
                        f"{Fraction(fk.phase, level)}, exponents {fk.exps})"
                        + (f", input columns {cols[0]} and {cols[1]}"
                           if len(cols) == 2 else ""))
                else:
                    c = cyc_lowest(cyc_mul(c, inv_one_minus_root(q2, m)))
            children.append(GenFunState(exps, tuple(factors), *accumulate(
                state, guard, c, -s, n)))
    return children


def pfd_numerator(theta: int, factors, level: int) -> tuple:
    """Local series of the group (1 - e(theta) w)^mu in the decomposition of
    1/prod_k (1 - e(q_k) w^{n_k}): its coefficients s_0..s_{mu-1} in t, as
    triples in lowest terms.

    Phases are integer numerators over `level` R: theta stands for
    theta / R, and `factors` lists the (q_k, n_k) pairs, n_k > 0; mu counts
    those with n_k theta = q_k mod R.  Each enters whole, in the local
    coordinate t = w - alpha^{-1} (alpha = e(theta), alpha w = 1 + alpha t):
    a factor through the root leaves (1 - (alpha w)^n)/(1 - alpha w)
    = sum_{i<n} binom(n, i+1) e(i theta) t^i, any other factor is
    (1 - e(q - n theta)) - sum_{i>=1} binom(n, i) e(q - (n-i) theta) t^i.
    """
    through = [(n * theta - q) % level == 0 for q, n in factors]
    mu = sum(through)
    if not mu:
        raise ValueError(
            f"{Fraction(theta, level)} is not a root of any factor")
    # Product of the factors' inverses mod t^mu: divide the series in place
    # by g = g_0 - sum_{i>=1} h_i t^i, Q_j = (P_j + sum_i h_i Q_{j-i}) / g_0;
    # the h_i are only formed when mu > 1.
    prod = [ONE] + [(1, (0,), 1)] * (mu - 1)
    for (q, n), hit in zip(factors, through):
        if hit and n == 1:
            continue
        g0_inv = ((1, (1,), n) if hit
                  else inv_one_minus_root(q - n * theta, level))
        prod[0] = cyc_mul(prod[0], g0_inv)
        if hit:
            h = [cyc_rotate((1, (-comb(n, i + 1),), 1), i * theta, level)
                 for i in range(1, min(n, mu))]
        else:
            h = [cyc_rotate((1, (comb(n, i),), 1), q - (n - i) * theta, level)
                 for i in range(1, min(n + 1, mu))]
        for j in range(1, mu):
            acc = prod[j]
            for i, c in enumerate(h[:j], 1):
                acc = cyc_add(acc, cyc_mul(c, prod[j - i]))
            prod[j] = cyc_mul(acc, g0_inv)
    return tuple(map(cyc_lowest, prod))


def final_univariate(state: GenFunState, l0: int) -> list[Term]:
    """Resolve the last variable, arbitrary multiplicities, into closed Terms.

    A root theta of multiplicity mu with local series s (`pfd_numerator`)
    contributes e(theta beta(b)) A(b) times the state's phase and scalar x,
    where A is its numerator at w = 0: by the hockey-stick identity
    A(b) x = sum_{k<mu} binom(beta+mu-1-k, mu-1-k) s_k t^k x at
    t = -e(-theta), on a basis binom(beta+r, r) built once for all roots.
    The roots are integer numerators over R = N lcm(n_k).

    The state and its Terms stand for their averages over the group G of
    units u = 1 mod l0.  The units of G that fix the state (u = 1 mod N)
    permute its roots, and the average of the Term of u theta with scalar x
    is that of theta with sigma_u^{-1}(x); so only the least root of each
    orbit gets a Term, whose scalar is the sum of those conjugates of x.
    """
    if state.active != 1:
        raise DimensionMismatch("final_univariate needs exactly 1 variable")
    state = _normalize_last(state)
    beta = state.exps[0]
    level = state.level

    # Factors free of w are constants, folded into the scalar.
    factors = []
    c = ONE
    for f in state.factors:
        if f.exps[0]:
            factors.append((f.phase, f.exps[0]))
        else:
            c = cyc_lowest(cyc_mul(c, inv_one_minus_root(f.phase, level)))

    if not factors:
        phase, guards, scalar, n = accumulate(state, Guard(beta, EQ_ZERO), c)
        return [Term(PhaseForm(phase, n),
                     ParamPoly.constant(beta.arity, scalar), guards)]

    lift = lcm(*(n for _, n in factors))
    big = level * lift
    factors = [(q * lift, n) for q, n in factors]
    # Root l of 1 - e(q/R) w^n is theta = (q - l R) / (n R) = (q - l R)/n over R.
    roots = {(q - l * big) // n % big for q, n in factors for l in range(n)}
    # The units that fix the state are those = 1 mod fixed, and they fix x
    # too when its level divides `fixed`.
    fixed = lcm(level, l0)
    x = state.scalar
    reps = []
    seen = set()
    for theta in sorted(roots):
        if theta in seen:
            continue
        # The orbit of theta = g t' mod big = g n' is g (u t' mod n') over
        # the units u mod n' that are = 1 mod gcd(n', fixed).
        n1 = big // gcd(theta, big)
        units = galois_group(n1, fixed)
        seen.update(u * theta % big for u in units)
        if fixed % x[0] == 0:
            # Every conjugate of x is x: the sum is a factor of the constant.
            rep, cw = state, cyc_lowest(cyc_mul(c, (1, (len(units),), 1)))
        else:
            trace = reduce(cyc_add, (cyc_galois(
                x, unit_lift(u, n1, fixed, x[0])) for u in units))
            if not any(trace[1]):
                continue
            rep, cw = replace(state, scalar=trace), c
        reps.append((theta, rep, cw, pfd_numerator(theta, factors, big)))
    basis = [binom_poly(r, beta + 1)
             for r in range(max((len(s) for *_, s in reps), default=0))]
    guard = Guard(beta, GE_ZERO)
    terms = []
    for theta, rep, cw, s in reps:
        phase, guards, x, n = accumulate(rep, guard, cw, theta, lift)
        monos = {}  # poly's coefficients; a sum that cancels is dropped
        for k, sk in enumerate(s):
            if k:  # t^k times the scalar, t = -e(-theta) at w = 0
                x = cyc_rotate(cyc_mul(x, (1, (-1,), 1)), -theta, big)
            sx = cyc_mul(sk, x)
            for e, b in basis[len(s) - 1 - k].items() if any(sx[1]) else ():
                v = cyc_mul(b, sx)
                monos[e] = cyc_add(monos[e], v) if e in monos else v
        poly = ParamPoly(beta.arity, monos)
        if poly.items():
            terms.append(Term(PhaseForm(phase, n), poly, guards))
    return terms


def _merge_states(states, l0: int) -> list[GenFunState]:
    """One state per orbit of keys under the group G of units u = 1 mod l0.
    A key is every field but the scalar (guards as a set); each state moves
    to its least conjugate (`least_conjugate` of its phase numerators,
    factors first), its scalar x to sigma_u(x), and the scalars of one key
    are summed; a state whose sum is zero is dropped.

    Exact because every state stands for its average over G, which its
    conjugates share, every later step is linear in the scalar, a state's
    value depends on its guards only through their conjunction, and its
    level is canonical.
    """
    merged: dict[tuple, list] = {}
    for st in states:
        n = st.level
        w = tuple(f.phase for f in st.factors) + st.phase
        v, u = least_conjugate(w, n, gcd(n, l0))
        x = cyc_galois(st.scalar, unit_lift(u, n, l0, st.scalar[0]))
        key = (st.exps, tuple(f.exps for f in st.factors), v, n,
               frozenset(st.guards))
        entry = merged.get(key)
        if entry is not None:
            entry[1] = cyc_add(entry[1], x)
            continue
        if u != 1:
            k = len(st.factors)
            st = GenFunState(st.exps, tuple(
                Factor(a, f.exps, f.column) for a, f in zip(v, st.factors)),
                v[k:], st.guards, x, n)
        merged[key] = [st, x]
    return [st if x is st.scalar else replace(st, scalar=x)
            for st, x in merged.values() if any(x[1])]


def expand(normalized, phases, order) -> list[Term]:
    """Closed Terms whose averages over the Galois group G sum to the
    coefficient of z^b in prod_k 1/(1 - e(phases[k]) z^{c_k}), c_k the k-th
    column of the nonnegative matrix `normalized`.

    The rational phases become numerators over their common denominator L0,
    and G is the group of units u = 1 mod L0, which fixes the input; every
    step commutes with each sigma_u.  The rows are eliminated in `order`,
    last first, level by level, merging the states that are conjugate or
    equal: every state of a level is eliminated, and the children of one
    orbit that differ only in their scalars become one state.
    """
    m = len(normalized)
    exps = tuple(AffineForm.unit(m, i) for i in order)
    den = lcm(*(q.denominator for q in phases))
    factors = tuple(Factor(q.numerator * (den // q.denominator),
                           tuple(normalized[i][k] for i in order), k)
                    for k, q in enumerate(phases))
    states = [GenFunState(exps, factors, level=den)]
    for _ in range(m - 1):
        states = _merge_states(
            (child for st in states for child in eliminate_last_var(st)), den)
    return [t for st in states for t in final_univariate(st, den)]


def dedekind_sum(n: int, a_phase: Fraction, f, beta: int) -> Cyclotomic:
    """Generalized Dedekind sum (1/n) sum_{alpha^n = e(a)} alpha^beta / f(alpha^{-1}).

    `f` lists the cyclotomic coefficients c_i of linear factors (1 - c_i w).
    By the constant-term lemma this equals the numerator constant A(0) of the
    group 1 - e(a_phase) w^n in the decomposition of 1/(f(w) (1-e(a)w^n) w^beta).
    """
    n, beta = int_vector((n, beta), "n and beta")
    if n < 1:
        raise MatrixParseError(f"the group size n must be positive, got {n}")
    (a_phase,) = rat_vector((a_phase,), "a_phase")
    f = [c if isinstance(c, Cyclotomic) else Cyclotomic(1, (c,))
         for c in sequence(f, "f")]
    total = Cyclotomic.zero()
    for l in range(n):
        theta = (a_phase + l) / n
        alpha_inv = cyc_from_phase(-theta)
        val = Cyclotomic.one()
        for c in f:
            val = val * (1 - c * alpha_inv)
        if val.is_zero():
            raise ZeroDivisionError(
                f"f vanishes at the root alpha^-1 for l={l}")
        total = total + cyc_from_phase(theta * beta) * val.inv()
    return total * Fraction(1, n)
