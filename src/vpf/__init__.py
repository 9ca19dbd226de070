"""Exact closed forms for vector partition functions.

phi_A(b) counts nonnegative integer solutions of A x = b.  This package
computes piecewise quasi-polynomial expressions for phi_A by iterated
partial fraction decomposition of the generating function, with all
arithmetic exact in cyclotomic fields, and verifies them against a
lattice-point oracle: a dynamic program that counts a whole box of b at once.
"""
from types import ModuleType as _ModuleType

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
from .oracle import count_points
from .params import AffineForm, Guard, Summand
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

# The submodules are attributes here too, but no export.
__all__ = sorted(name for name, value in dict(globals()).items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
