"""The elimination engine.

A GenFunState is a guarded slice z^{-beta(b)} * prod 1/(1 - e(q_k) z^{v_k})
mid-recursion, together with an accumulated Term.  One variable-elimination
step rewrites the constant-term functional over the last active variable as
a sum of child states with one variable fewer; the final univariate stage
resolves arbitrary pole multiplicities and emits closed Terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic, cyc_from_phase, inv_one_minus_phase
from .errors import (
    DimensionMismatch,
    MatrixParseError,
    NotCoprime,
    UnsupportedMultiplePole,
)
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

    def __post_init__(self):
        if not 0 <= self.phase < 1:
            raise ValueError(f"factor phase {self.phase} is not reduced mod 1")
        if self.phase == 0 and not any(self.exps):
            raise ValueError("factor 1 - 1 is the zero denominator")


@dataclass(frozen=True)
class GenFunState:
    """Product-form slice with an accumulated Term.

    `exps` are the affine exponents beta of z^{-beta(b)}, one per active
    variable; affine forms and the accumulated Term always refer to the full
    original parameter count.
    """

    exps: tuple[AffineForm, ...]
    factors: tuple[Factor, ...]
    acc: Term

    @property
    def active(self) -> int:
        return len(self.exps)


def flip(state: GenFunState, k: int) -> GenFunState:
    """Replace factor k via 1/(1-e(q)z^v) = -e(-q) z^{-v} / (1-e(-q)z^{-v})."""
    f = state.factors[k]
    q = (-f.phase) % 1
    new_factor = Factor(q, tuple(-e for e in f.exps))
    factors = state.factors[:k] + (new_factor,) + state.factors[k + 1:]
    exps = tuple(beta + v for beta, v in zip(state.exps, f.exps))
    acc = state.acc.scaled(-cyc_from_phase(q))
    return GenFunState(exps, factors, acc)


def _normalize_last(state: GenFunState) -> GenFunState:
    """Flip factors until the last variable's exponents are all >= 0."""
    w = state.active - 1
    while True:
        for k, f in enumerate(state.factors):
            if f.exps[w] < 0:
                state = flip(state, k)
                break
        else:
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
        acc = state.acc.with_guard(Guard(beta_w, EQ_ZERO))
        factors = tuple(Factor(f.phase, f.exps[:w]) for f in state.factors)
        return [GenFunState(state.exps[:w], factors, acc)]

    children = []
    for k in chosen:
        fk = state.factors[k]
        n = fk.exps[w]
        for l in range(n):
            acc = state.acc.with_guard(Guard(beta_w, GE_ZERO))
            acc = acc.scaled(Fraction(1, n))
            acc = acc.shift_phase(Fraction(fk.phase - l, n), beta_w)
            exps = tuple(
                n * state.exps[j] - fk.exps[j] * beta_w for j in range(w))
            factors = []
            for t, ft in enumerate(state.factors):
                if t == k:
                    continue
                vw = ft.exps[w]
                q2 = (ft.phase + vw * Fraction(l - fk.phase, n)) % 1
                v2 = tuple(n * ft.exps[j] - vw * fk.exps[j] for j in range(w))
                if not any(v2):
                    if q2 == 0:
                        raise UnsupportedMultiplePole(
                            "two denominator factors share a root at a "
                            "multivariate stage")
                    acc = acc.scaled(inv_one_minus_phase(q2))
                else:
                    factors.append(Factor(q2, v2))
            children.append(GenFunState(exps, tuple(factors), acc))
    return children


@dataclass(frozen=True)
class PfdNumerator:
    """Numerator of one factor group, formal in b.

    `series[j]` is the coefficient of t^j in the product of the other
    factors' inverses, expanded in the local coordinate t = w - alpha^{-1}
    (alpha = e(theta)).  The numerator is alpha^{beta(b)} sum_{j<mult} N_j t^j
    with N_j = sum_{i<=j} binom(beta+i-1, i) (-alpha)^i series[j-i]; the
    phase alpha^beta is kept separate so the rest stays polynomial in b.
    """

    theta: Fraction
    mult: int
    beta: AffineForm
    series: tuple[Cyclotomic, ...]

    def constant_poly(self) -> ParamPoly:
        """A(b) without the alpha^beta phase: the numerator at w = 0.

        There t = -alpha^{-1} and (-alpha)^i t^i = 1, so
        A = sum_{i<mult} binom(beta+i-1, i) S_{mult-1-i} with the partial
        sums S_r = sum_{k<=r} series[k] t^k.
        """
        point = -cyc_from_phase((-self.theta) % 1)  # -alpha^{-1}
        partial = [self.series[0]]
        power = Cyclotomic.one()
        for c in self.series[1:]:
            power = power * point
            partial.append(partial[-1] + c * power)
        out = ParamPoly.zero(self.beta.arity)
        for i in range(self.mult):
            out = out + binom_poly(i, self.beta).scale(partial[-1 - i])
        return out


def pfd_numerator(theta: Fraction, mu: int, others,
                  beta: AffineForm) -> PfdNumerator:
    """Numerator of the group (1 - e(theta) w)^mu in the decomposition of
    1/(prod factors * w^beta).

    `others` lists the root phases of all remaining linear factors, with
    multiplicity.  Computed by inversion in the truncated local ring at
    w = alpha^{-1}, truncation t^mu.
    """
    if any(th == theta for th in others):
        raise NotCoprime(f"root phase {theta} appears among the other factors")

    # Product of the inverses of the other linear factors, mod t^mu.
    # 1 - e(th) w = u0 (1 - (e(th)/u0) t) with u0 = 1 - e(th - theta), so
    # dividing the series by it is Q_j = (P_j + e(th) Q_{j-1}) / u0, in place.
    prod = [Cyclotomic.one()] + [Cyclotomic.zero()] * (mu - 1)
    for th in others:
        u0_inv = inv_one_minus_phase(th - theta)
        root = cyc_from_phase(th)
        prod[0] = prod[0] * u0_inv
        for j in range(1, mu):
            prod[j] = (prod[j] + root * prod[j - 1]) * u0_inv
    return PfdNumerator(theta, mu, beta, tuple(prod))


def final_univariate(state: GenFunState) -> list[Term]:
    """Resolve the last variable, arbitrary multiplicities, into closed Terms."""
    if state.active != 1:
        raise DimensionMismatch("final_univariate needs exactly 1 variable")
    state = _normalize_last(state)
    acc = state.acc
    beta = state.exps[0]

    # Scalar-only factors fold into the accumulated scalar.
    groups: dict[Fraction, int] = {}
    for f in state.factors:
        n = f.exps[0]
        if n == 0:
            acc = acc.scaled(inv_one_minus_phase(f.phase))
            continue
        for l in range(n):
            theta = Fraction(f.phase - l, n) % 1
            groups[theta] = groups.get(theta, 0) + 1

    if not groups:
        term = acc.with_guard(Guard(beta, EQ_ZERO))
        return [] if term.is_zero() else [term]

    ordered = sorted(groups.items())
    terms = []
    for theta, mu in ordered:
        others = [th for th, m2 in ordered if th != theta for _ in range(m2)]
        num = pfd_numerator(theta, mu, others, beta)
        a0 = num.constant_poly()
        t = acc.with_guard(Guard(beta, GE_ZERO)).shift_phase(theta, beta)
        if a0.is_constant():
            t = t.scaled(a0.constant_value())
        else:
            t = t.times_poly(a0)
        if not t.is_zero():
            terms.append(t)
    return terms


def dedekind_sum(n: int, a_phase: Fraction, f, beta: int) -> Cyclotomic:
    """Generalized Dedekind sum (1/n) sum_{alpha^n = e(a)} alpha^beta / f(alpha^{-1}).

    `f` lists the cyclotomic coefficients c_i of linear factors (1 - c_i w).
    By the constant-term lemma this equals the numerator constant A(0) of the
    group 1 - e(a_phase) w^n in the decomposition of 1/(f(w) (1-e(a)w^n) w^beta).
    """
    if n < 1:
        raise MatrixParseError(f"the group size n must be positive, got {n}")
    total = Cyclotomic.zero()
    for l in range(n):
        theta = (Fraction(a_phase) + l) / n
        alpha_inv = cyc_from_phase(-theta)
        val = Cyclotomic.one()
        for c in f:
            if not isinstance(c, Cyclotomic):
                c = Cyclotomic.from_rational(c)
            val = val * (1 - c * alpha_inv)
        if val.is_zero():
            raise ZeroDivisionError(
                f"f vanishes at the root alpha^-1 for l={l}")
        total = total + cyc_from_phase(theta * beta) * val.inv()
    return total * Fraction(1, n)
