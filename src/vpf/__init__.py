"""Exact closed forms for vector partition functions.

phi_A(b) counts nonnegative integer solutions of A x = b.  This package
computes piecewise quasi-polynomial expressions for phi_A by iterated
partial fraction decomposition of the generating function, with all
arithmetic exact in cyclotomic fields, and verifies them against a
lattice-point oracle: a dynamic program that counts a whole box of b at once.
"""
from .cyclotomic import Cyclotomic, cyc_from_phase, level_cap
from .errors import (
    DimensionMismatch,
    LevelMismatch,
    LevelOverflow,
    MatrixParseError,
    NotPointed,
    NotRational,
    SanityFailure,
    UnsupportedMultiplePole,
    VpfError,
)
from .genfun import (
    Factor,
    GenFunState,
    dedekind_sum,
    eliminate_last_var,
    final_univariate,
    flip,
    pfd_numerator,
)
from .oracle import count_points
from .params import AffineForm, Guard, ParamPoly, PhaseForm, Term, binom_poly
from .pipeline import (
    PreprocessReport,
    ProblemSpec,
    ResultExpr,
    VerifyReport,
    check_pointed,
    compute,
    evaluate,
    nonnegativize,
    verify_box,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
