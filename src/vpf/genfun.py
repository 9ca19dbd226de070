"""The elimination engine.

A GenFunState is z^{-beta(b)} * prod 1/(1 - e(q_k) z^{v_k}) times a phase
and a constant scalar under guards.  One elimination step rewrites the
constant-term functional over the last active variable as child states with
one variable fewer, each moved by `accumulate`; the univariate stage resolves
arbitrary pole multiplicities into closed Terms, each root's local series
times the scalar.  `expand` runs it all from the normalized matrix, level by
level, merging equal states.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb

from .cyclotomic import Cyclotomic, cyc_from_phase, inv_one_minus_phase
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


@dataclass(frozen=True)
class Factor:
    """Denominator factor 1 - e(phase) * z^exps over the active variables."""

    phase: Fraction
    exps: tuple[int, ...]
    #: 0-based index of the input column this factor came from, carried for
    #: error messages only; equal factors of different columns merge.
    column: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0 <= self.phase < 1:
            raise ValueError(f"factor phase {self.phase} is not reduced mod 1")
        if self.phase == 0 and not any(self.exps):
            raise ValueError("factor 1 - 1 is the zero denominator")


@dataclass(frozen=True)
class GenFunState:
    """z^{-beta(b)} prod_k 1/(1 - e(q_k) z^{v_k}) times e(phase(b)) * scalar
    where every guard holds, 0 elsewhere.  `exps` are the exponents beta, one
    per active variable; forms, guards and phase refer to all m parameters.
    The scalar is constant in b.  Defaults: zero phase, no guards, scalar 1."""

    exps: tuple[AffineForm, ...]
    factors: tuple[Factor, ...]
    phase: PhaseForm | None = None
    guards: tuple[Guard, ...] = ()
    scalar: Cyclotomic = field(default_factory=Cyclotomic.one)

    def __post_init__(self):
        if self.phase is None:
            object.__setattr__(self, "phase", PhaseForm.zero(self.exps[0].arity))

    @property
    def active(self) -> int:
        return len(self.exps)


def accumulate(state: GenFunState, guard: Guard, c=1, q=Fraction(0)):
    """(phase, guards, scalar) of `state` times c * e(q * beta(b)) under `guard`
    on beta = guard.form; the constant part of q * beta goes to the scalar."""
    guards = state.guards
    if not guard.is_trivial() and guard not in guards:
        guards += (guard,)
    scalar = state.scalar * c if c != 1 else state.scalar
    if q * guard.form.const % 1:
        scalar = scalar * cyc_from_phase(q * guard.form.const)
    phase = state.phase.shifted(q, guard.form) if q else state.phase
    return phase, guards, scalar


def flip(state: GenFunState, k: int) -> GenFunState:
    """Replace factor k via 1/(1-e(q)z^v) = -e(-q) z^{-v} / (1-e(-q)z^{-v})."""
    f = state.factors[k]
    q = (-f.phase) % 1
    new_factor = Factor(q, tuple(-e for e in f.exps), f.column)
    factors = state.factors[:k] + (new_factor,) + state.factors[k + 1:]
    exps = tuple(beta + v for beta, v in zip(state.exps, f.exps))
    return GenFunState(exps, factors, state.phase, state.guards,
                       state.scalar * -cyc_from_phase(q))


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
    rational exponents never materialize.
    """
    if state.active < 2:
        raise DimensionMismatch("eliminate_last_var needs at least 2 variables")
    state = _normalize_last(state)
    w = state.active - 1
    beta_w = state.exps[w]
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
        exps = tuple(n * state.exps[j] - fk.exps[j] * beta_w for j in range(w))
        others = [(ft, tuple(n * ft.exps[j] - ft.exps[w] * fk.exps[j]
                             for j in range(w)))
                  for t, ft in enumerate(state.factors) if t != k]
        for l in range(n):
            c = Fraction(1, n)
            shift = Fraction(l - fk.phase, n)
            factors = []
            for ft, v2 in others:
                q2 = (ft.phase + ft.exps[w] * shift) % 1
                if any(v2):
                    factors.append(Factor(q2, v2, ft.column))
                elif q2 == 0:
                    cols = sorted(f.column + 1 for f in (ft, fk)
                                  if f.column is not None)
                    raise UnsupportedMultiplePole(
                        f"with {state.active} active variables, factor "
                        f"(phase {ft.phase}, exponents {ft.exps}) shares "
                        f"a root with factor (phase {fk.phase}, "
                        f"exponents {fk.exps})" + (
                            f", input columns {cols[0]} and {cols[1]}"
                            if len(cols) == 2 else ""))
                else:
                    c = c * inv_one_minus_phase(q2)
            children.append(GenFunState(exps, tuple(factors), *accumulate(
                state, guard, c, -shift)))
    return children


def pfd_numerator(theta: Fraction, factors) -> tuple[Cyclotomic, ...]:
    """Local series of the group (1 - e(theta) w)^mu in the decomposition of
    1/prod_k (1 - e(q_k) w^{n_k}): its coefficients s_0..s_{mu-1} in t.

    `factors` lists the (q_k, n_k) pairs, n_k > 0; mu counts those with
    n_k theta = q_k mod 1.  Each enters whole, in the local coordinate
    t = w - alpha^{-1} (alpha = e(theta), alpha w = 1 + alpha t): a factor
    through the root leaves (1 - (alpha w)^n)/(1 - alpha w)
    = sum_{i<n} binom(n, i+1) e(i theta) t^i, any other factor is
    (1 - e(q - n theta)) - sum_{i>=1} binom(n, i) e(q - (n-i) theta) t^i.
    """
    through = [(n * theta - q).denominator == 1 for q, n in factors]
    mu = sum(through)
    if not mu:
        raise ValueError(f"{theta} is not a root of any factor")
    # Product of the factors' inverses mod t^mu: divide the series in place
    # by g = g_0 - sum_{i>=1} h_i t^i, Q_j = (P_j + sum_i h_i Q_{j-i}) / g_0;
    # the h_i are only formed when mu > 1.
    prod = [Cyclotomic.one()] + [Cyclotomic.zero()] * (mu - 1)
    for (q, n), hit in zip(factors, through):
        if hit and n == 1:
            continue
        g0_inv = Fraction(1, n) if hit else inv_one_minus_phase(q - n * theta)
        prod[0] = prod[0] * g0_inv
        if hit:
            h = [-cyc_from_phase(i * theta) * comb(n, i + 1)
                 for i in range(1, min(n, mu))]
        else:
            h = [cyc_from_phase(q - (n - i) * theta) * comb(n, i)
                 for i in range(1, min(n + 1, mu))]
        for j in range(1, mu):
            acc = prod[j]
            for i, c in enumerate(h[:j], 1):
                acc = acc + c * prod[j - i]
            prod[j] = acc * g0_inv
    return tuple(prod)


def final_univariate(state: GenFunState) -> list[Term]:
    """Resolve the last variable, arbitrary multiplicities, into closed Terms.

    A root theta of multiplicity mu with local series s (`pfd_numerator`)
    contributes e(theta beta(b)) A(b) times the state's phase and scalar x,
    where A is its numerator at w = 0: by the hockey-stick identity
    A(b) x = sum_{k<mu} binom(beta+mu-1-k, mu-1-k) s_k t^k x at
    t = -e(-theta), on a basis binom(beta+r, r) built once for all roots.
    """
    if state.active != 1:
        raise DimensionMismatch("final_univariate needs exactly 1 variable")
    state = _normalize_last(state)
    beta = state.exps[0]

    # Factors free of w are constants, folded into the scalar.
    factors = []
    c = 1
    for f in state.factors:
        if f.exps[0]:
            factors.append((f.phase, f.exps[0]))
        else:
            c = c * inv_one_minus_phase(f.phase)

    if not factors:
        phase, guards, scalar = accumulate(state, Guard(beta, EQ_ZERO), c)
        return [Term(phase, ParamPoly.constant(beta.arity, scalar), guards)]

    roots = {Fraction(q - l, n) % 1 for q, n in factors for l in range(n)}
    series = [(theta, pfd_numerator(theta, factors))
              for theta in sorted(roots)]
    basis = [binom_poly(r, beta + 1)
             for r in range(max(len(s) for _, s in series))]
    guard = Guard(beta, GE_ZERO)
    terms = []
    for theta, s in series:
        phase, guards, x = accumulate(state, guard, c, theta)
        t = -cyc_from_phase(-theta)  # t at w = 0
        mu = len(s)
        poly = basis[mu - 1].scale(s[0] * x)
        for k in range(1, mu):
            x = x * t  # t^k times the scalar
            poly = poly + basis[mu - 1 - k].scale(s[k] * x)
        if not poly.is_zero():
            terms.append(Term(phase, poly, guards))
    return terms


def _merge_states(states) -> list[GenFunState]:
    """One state per key, every field but the scalar (guards as a set), with
    the scalars of its states summed; a state whose sum is zero is dropped.

    Exact because every later step is linear in the scalar and a state's
    value depends on its guards only through their conjunction.
    """
    merged: dict[tuple, GenFunState] = {}
    for st in states:
        key = (st.exps, st.factors, st.phase, frozenset(st.guards))
        first = merged.get(key)
        merged[key] = st if first is None else replace(
            first, scalar=first.scalar + st.scalar)
    return [st for st in merged.values() if not st.scalar.is_zero()]


def expand(normalized, phases, order) -> list[Term]:
    """Closed Terms summing to the coefficient of z^b in
    prod_k 1/(1 - e(phases[k]) z^{c_k}), c_k the k-th column of the
    nonnegative matrix `normalized`.

    The rows are eliminated in `order`, last first, level by level, merging
    equal states: every state of a level is eliminated, and the children
    that differ only in their scalars become one state.
    """
    m = len(normalized)
    exps = tuple(AffineForm.unit(m, i) for i in order)
    factors = tuple(Factor(q, tuple(normalized[i][k] for i in order), k)
                    for k, q in enumerate(phases))
    level = [GenFunState(exps, factors)]
    for _ in range(m - 1):
        level = _merge_states(
            child for st in level for child in eliminate_last_var(st))
    return [t for st in level for t in final_univariate(st)]


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
