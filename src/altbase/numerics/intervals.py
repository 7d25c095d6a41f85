"""Dyadic rationals and outward-rounded interval arithmetic.

All certified quantities in the package are carried as closed intervals
whose endpoints are dyadic rationals (integer mantissa times a power of
two).  Addition, subtraction and multiplication of dyadics are exact;
division rounds outward to a requested number of fractional bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..errors import DivisionByEnclosedZero

#: default number of fractional bits kept by rounding operations, and the
#: package-wide default target width 2^-64 of an enclosure.
DEFAULT_PREC = 64

Rational = Union[int, Fraction]


def _floor_scaled(n: int, d: int, prec: int) -> int:
    """floor(n * 2**prec / d) for d > 0, in integers."""
    return (n << prec) // d if prec >= 0 else n // (d << -prec)


class Dyadic:
    """Exact dyadic rational m * 2**e with normalised odd (or zero) mantissa."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            self.m = 0
            self.e = 0
            return
        # strip trailing zero bits so equality is structural
        shift = (m & -m).bit_length() - 1
        self.m = m >> shift
        self.e = e + shift

    @staticmethod
    def from_fraction_floor(x: Rational, prec: int) -> "Dyadic":
        """Largest multiple of 2**-prec that is <= x."""
        fr = Fraction(x)
        return Dyadic(_floor_scaled(fr.numerator, fr.denominator, prec), -prec)

    @staticmethod
    def from_fraction_ceil(x: Rational, prec: int) -> "Dyadic":
        """Smallest multiple of 2**-prec that is >= x."""
        fr = Fraction(x)
        return Dyadic(-_floor_scaled(-fr.numerator, fr.denominator, prec), -prec)

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def round_down(self, prec: int) -> "Dyadic":
        if self.m == 0 or self.e + prec >= 0:
            return self
        shift = -(self.e + prec)
        return Dyadic(self.m >> shift, -prec)

    def round_up(self, prec: int) -> "Dyadic":
        if self.m == 0 or self.e + prec >= 0:
            return self
        shift = -(self.e + prec)
        return Dyadic(-(-self.m >> shift), -prec)

    def _align(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.e, other.e)
        return self.m << (self.e - e), other.m << (other.e - e), e

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._align(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._align(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.m * other.m, self.e + other.e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def _cmp(self, other: "Dyadic") -> int:
        a, b, _ = self._align(other)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.m, self.e))

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def decimal(self, digits: int = 24) -> str:
        """Decimal rendering, exact if short enough, else truncated."""
        if self.e >= 0:
            return str(self.m << self.e)
        sign = "-" if self.m < 0 else ""
        ip, rem = divmod(abs(self.m), 1 << -self.e)
        # the first `digits` decimals at once; m is odd, so rem > 0
        frac, rem = divmod(rem * 10**digits, 1 << -self.e)
        out = str(frac + 10**digits)[1:]
        if rem:
            return f"{sign}{ip}.{out}..."
        return f"{sign}{ip}.{out.rstrip('0')}"

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.e})"

    def to_json(self) -> dict:
        return {"mantissa": self.m, "exponent": self.e, "decimal": self.decimal()}


ZERO = Dyadic(0)
ONE = Dyadic(1)


def _as_dyadic(x: Union[int, Dyadic]) -> Dyadic:
    return x if isinstance(x, Dyadic) else Dyadic(x)


class IntervalReal:
    """Closed interval [lo, hi] with dyadic endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(x: Union[int, Dyadic]) -> "IntervalReal":
        d = _as_dyadic(x)
        return IntervalReal(d, d)

    @staticmethod
    def from_ratio(n: int, d: int, prec: int = DEFAULT_PREC) -> "IntervalReal":
        """[floor, ceil] of n/d (d > 0) on the grid 2**-prec; n/d need not be in lowest terms."""
        lo, hi = _floor_scaled(n, d, prec), -_floor_scaled(-n, d, prec)
        return IntervalReal(Dyadic(lo, -prec), Dyadic(hi, -prec))

    @staticmethod
    def from_fraction(x: Rational, prec: int = DEFAULT_PREC) -> "IntervalReal":
        fr = Fraction(x)
        return IntervalReal.from_ratio(fr.numerator, fr.denominator, prec)

    @staticmethod
    def from_fractions(lo: Rational, hi: Rational, prec: int = DEFAULT_PREC) -> "IntervalReal":
        return IntervalReal(
            Dyadic.from_fraction_floor(lo, prec), Dyadic.from_fraction_ceil(hi, prec)
        )

    # -- basic queries -------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def mid(self) -> Dyadic:
        s = self.lo + self.hi
        return Dyadic(s.m, s.e - 1)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Union[Rational, Dyadic]) -> bool:
        if isinstance(x, Dyadic):
            return self.lo <= x <= self.hi
        fr = Fraction(x)
        return self.lo.as_fraction() <= fr <= self.hi.as_fraction()

    def contains_zero(self) -> bool:
        return self.lo.sign() <= 0 <= self.hi.sign()

    def sign(self) -> int:
        """Certain sign: +1, -1, or 0 when the interval straddles zero."""
        if self.lo.sign() > 0:
            return 1
        if self.hi.sign() < 0:
            return -1
        return 0

    # -- arithmetic ----------------------------------------------------

    def _rounded(self, lo: Dyadic, hi: Dyadic, prec: int | None) -> "IntervalReal":
        if prec is None:
            return IntervalReal(lo, hi)
        return IntervalReal(lo.round_down(prec), hi.round_up(prec))

    def add(self, other: "IntervalReal", prec: int | None = None) -> "IntervalReal":
        return self._rounded(self.lo + other.lo, self.hi + other.hi, prec)

    def sub(self, other: "IntervalReal", prec: int | None = None) -> "IntervalReal":
        return self._rounded(self.lo - other.hi, self.hi - other.lo, prec)

    def mul(self, other: "IntervalReal", prec: int | None = None) -> "IntervalReal":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return self._rounded(min(cands), max(cands), prec)

    def div(self, other: "IntervalReal", prec: int = DEFAULT_PREC) -> "IntervalReal":
        if other.contains_zero():
            raise DivisionByEnclosedZero(f"divisor {other} encloses zero")
        if self.lo.m == 0 and self.hi.m == 0:
            return IntervalReal(ZERO, ZERO)
        a, b = self.lo.as_fraction(), self.hi.as_fraction()
        c, d = other.lo.as_fraction(), other.hi.as_fraction()
        quots = (a / c, a / d, b / c, b / d)
        return IntervalReal(
            Dyadic.from_fraction_floor(min(quots), prec),
            Dyadic.from_fraction_ceil(max(quots), prec),
        )

    def neg(self) -> "IntervalReal":
        return IntervalReal(-self.hi, -self.lo)

    def inflate(self, radius: Rational, prec: int = DEFAULT_PREC) -> "IntervalReal":
        r = Fraction(radius)
        if r < 0:
            raise ValueError("inflation radius must be non-negative")
        return IntervalReal(
            Dyadic.from_fraction_floor(self.lo.as_fraction() - r, prec),
            Dyadic.from_fraction_ceil(self.hi.as_fraction() + r, prec),
        )

    # -- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        return f"[{self.lo.decimal(12)}, {self.hi.decimal(12)}]"

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json()}
