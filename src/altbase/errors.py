"""Exception hierarchy shared across the package."""


class AltBaseError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AltBaseError):
    """Malformed textual input (word syntax, directive syntax, CLI args)."""


class DigitRangeError(AltBaseError):
    """A digit is negative or exceeds the configured maximum."""


class FailsIfAllZeroTail(AltBaseError):
    """Quasi-greedy transform produced an all-zero tail.

    Cannot happen when every entry is lexicographically above 10^w; kept
    as a defensive check.
    """


class DivisionByEnclosedZero(AltBaseError):
    """Interval division where the divisor encloses zero."""


class NoSignChange(AltBaseError):
    """Root bisection was started on an interval without a sign change."""


class NotPrimitive(AltBaseError):
    """No rotation of the period product is a primitive matrix."""


class ZeroLeadDigit(AltBaseError):
    """A matrix row that must start with a digit >= 1 starts with 0."""


class NoSecondNonzero(AltBaseError):
    """An entry has fewer than two non-zero digits, so no prefix bound exists."""


class DepthExhausted(AltBaseError):
    """A depth limit ran out.

    Iterative synthesis hit max_depth before enclosures stabilised, or a
    gap table has too few rows to class every gap of a coding.
    """

    def __init__(self, message, best=None, depth=None):
        super().__init__(message)
        self.best = best
        self.depth = depth


class FloorUndecidable(AltBaseError):
    """A floor decision straddles an integer after the refinement cap."""


class CeilUndecidable(AltBaseError):
    """A ceiling decision straddles an integer after the refinement cap."""


class Undecidable(AltBaseError):
    """A comparison stayed ambiguous after the refinement cap."""


class InvariantViolation(AltBaseError):
    """A certificate check failed: an exact identity the mathematics guarantees.

    Raised instead of an assert, so the check also runs under python -O; it
    means a defect in the program or its input handling, not a bad input.
    """


class CodingMismatch(AltBaseError):
    """Direct gap coding and S-adic limit disagree."""


class NoLimit(AltBaseError):
    """S-adic composition failed to grow a stable prefix."""


class DLessThanN(AltBaseError):
    """Continued-fraction digit smaller than the scheme parameter N."""
