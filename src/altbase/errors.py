"""Exception hierarchy shared across the package.

Each family declares the command line's exit status for it, `exit_code`,
and the text its message is printed after, `prefix`.
"""


class AltBaseError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    prefix = ""


class ParseError(AltBaseError):
    """Malformed textual input (word syntax, directive syntax, CLI args)."""

    exit_code = 2


class DigitRangeError(AltBaseError):
    """A digit is negative or exceeds the configured maximum."""

    exit_code = 2


class FailsIfAllZeroTail(AltBaseError):
    """Quasi-greedy transform produced an all-zero tail.

    Cannot happen when every entry is lexicographically above 10^w; kept
    as a defensive check.
    """

    exit_code = 2


class DivisionByEnclosedZero(AltBaseError):
    """Interval division where the divisor encloses zero."""


class NoSignChange(AltBaseError):
    """Root bisection was started on an interval without a sign change."""


class NotPrimitive(AltBaseError):
    """No rotation of the period product is a primitive matrix."""


class ZeroLeadDigit(AltBaseError):
    """A matrix row that must start with a digit >= 1 starts with 0."""

    exit_code = 2


class NoSecondNonzero(AltBaseError):
    """An entry has fewer than two non-zero digits, so no prefix bound exists."""


class DepthExhausted(AltBaseError):
    """A depth limit ran out.

    Iterative synthesis hit max_depth before enclosures stabilised, or a
    gap table has too few rows to class every gap of a coding.
    """

    exit_code = 3

    def __init__(self, message, best=None, depth=None):
        super().__init__(message)
        self.best = best
        self.depth = depth


class Undecidable(AltBaseError):
    """A comparison stayed ambiguous after the refinement cap."""

    exit_code = 4


class FloorUndecidable(Undecidable):
    """A floor decision straddles an integer after the refinement cap."""


class CeilUndecidable(Undecidable):
    """A ceiling decision straddles an integer after the refinement cap."""


class InvariantViolation(AltBaseError):
    """A certificate check failed: an exact identity the mathematics guarantees.

    Raised instead of an assert, so the check also runs under python -O; it
    means a defect in the program or its input handling, not a bad input.
    """

    exit_code = 5
    prefix = "invariant violated: "


class CodingMismatch(AltBaseError):
    """Direct gap coding and S-adic limit disagree."""


class NoLimit(AltBaseError):
    """S-adic composition failed to grow a stable prefix."""

    exit_code = 3


class DLessThanN(AltBaseError):
    """Continued-fraction digit smaller than the scheme parameter N."""

    exit_code = 2
