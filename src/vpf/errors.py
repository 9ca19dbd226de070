"""Exception hierarchy shared by all modules.

Exit codes used by the CLI are attached where a documented code exists.
"""


class VpfError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class NotPointed(VpfError):
    """The columns of the matrix do not lie in an open half-space."""

    exit_code = 2


class UnsupportedMultiplePole(VpfError):
    """Two denominator factors share a root at a multivariate stage."""

    exit_code = 3


class MatrixParseError(VpfError):
    """Malformed matrix file, parameter vector, or box specification."""

    exit_code = 4


class SanityFailure(VpfError):
    """An evaluation produced a non-rational or negative/non-integer value.

    This always indicates an engine bug, never a user error.
    """

    exit_code = 5


class LevelOverflow(VpfError):
    """A cyclotomic level exceeded the configured cap."""

    exit_code = 6


class LevelMismatch(VpfError):
    """Attempted to embed a cyclotomic into a level its own does not divide."""


class NotRational(VpfError):
    """A cyclotomic expected to be rational is not."""


class DimensionMismatch(VpfError):
    """A parameter vector has the wrong length."""
