"""Exact arithmetic with one real algebraic number.

Elements live in Q[x]/(modulus), a monic integer modulus, as integer
coefficients over one denominator, and are evaluated at a single isolated
real root.  The modulus need be neither irreducible nor squarefree: a zero
test or an inverse that meets a common factor g of the element and the
modulus decides by a Sturm count inside the isolating bracket whether the
root is a root of g, and keeps the part of the modulus that holds the
root, g itself or modulus/g, so later elements reduce by the smaller one.
Signs of non-zero elements are decided by refining the root bracket,
which always terminates because exact zeros are recognised first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from ..errors import Undecidable
from .intervals import DEFAULT_PREC, Dyadic, IntervalReal
from .polynomials import (
    IntPoly,
    IsolatedRoot,
    exact_div,
    int_divmod,
    int_mul,
    int_poly_gcd,
    sturm_chain,
    sturm_count,
)

# (nums, den): the polynomial sum(nums[i] x^i) / den, ascending, with den > 0,
# gcd(content(nums), den) = 1 and no trailing zero; zero is ((0,), 1).  The
# form is canonical, so equal tuples are equal polynomials.
Elem = tuple[tuple[int, ...], int]


def _normal(nums: list[int], den: int) -> Elem:
    """(nums, den) in canonical form; den may be negative, nums is consumed."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (0,), 1
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    return tuple(nums), den


def _int_inverse(a: Sequence[int], m: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """(s, c) with s*a = c modulo m for a non-zero integer c, or None if gcd(a, m) != 1.

    A pseudo-remainder sequence on (m, a) that applies each elimination step
    to the cofactors of a as well, so r = s*a (mod m) holds for every pair;
    each remainder and its cofactor are divided by their common content.
    """
    r0, r1 = list(m), list(a)
    s0, s1 = [0], [1]
    while len(r1) > 1:
        lead, n = r1[-1], len(r1) - 1
        while len(r0) > n:
            # r0 := lead*r0 - c*x^k*r1 cancels the leading term
            c, k = r0[-1], len(r0) - 1 - n
            r0 = [lead * v for v in r0]
            s0 = [lead * v for v in s0] + [0] * (k + len(s1) - len(s0))
            for i, v in enumerate(r1):
                r0[k + i] -= c * v
            for i, v in enumerate(s1):
                s0[k + i] -= c * v
            while r0 and not r0[-1]:
                r0.pop()
        if not r0:
            return None
        g = gcd(*r0, *s0)
        r0, r1, s0, s1 = r1, [v // g for v in r0], s1, [v // g for v in s0]
    return (s1, r1[0]) if r1[0] else None


class RealAlgebraicField:
    """Q[x]/(modulus) evaluated at an isolated simple real root.

    The modulus is root.poly (linear for an exact root): monic, not
    necessarily squarefree.
    """

    def __init__(self, root: IsolatedRoot):
        modulus = root.poly
        if root.is_exact():
            # rational (dyadic) root: the linear modulus, monic for an integer
            v = root.lo
            modulus = IntPoly([-(v.m << v.e), 1] if v.e >= 0 else [-v.m, 1 << -v.e])
        self._set_modulus(modulus, root.lo, root.hi)

    def _set_modulus(self, modulus: IntPoly, lo: Dyadic, hi: Dyadic) -> None:
        if modulus.coeffs[-1] != 1:
            raise ValueError(f"the field needs a monic modulus, not {modulus}")
        self.modulus = modulus
        self.root = IsolatedRoot(modulus, lo, hi)

    # -- element constructors -------------------------------------------

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def from_fraction(self, q: Fraction | int) -> Elem:
        return (q.numerator,), q.denominator

    def generator(self) -> Elem:
        return self.reduce([0, 1])

    def reduce(self, coeffs: Sequence[Fraction | int]) -> Elem:
        """The element with these ascending rational coefficients."""
        den = lcm(*(c.denominator for c in coeffs))
        return _normal(self._rem([c.numerator * (den // c.denominator) for c in coeffs]), den)

    def _rem(self, c: list[int]) -> list[int]:
        """Integer coefficients reduced below the degree: long division by the monic modulus."""
        return c if len(c) <= self.degree else int_divmod(c, self.modulus.coeffs)[1]

    def _reduced(self, a: Elem) -> Elem:
        """a, reduced if it is longer than the degree (made before a shrink)."""
        if len(a[0]) <= self.degree:
            return a
        return _normal(self._rem(list(a[0])), a[1])

    # -- ring operations ---------------------------------------------------

    def _combine(self, a: Elem, b: Elem, sb: int) -> Elem:
        """a + sb*b over the lcm of the denominators."""
        (an, ad), (bn, bd) = a, b
        den = lcm(ad, bd)
        fa, fb = den // ad, sb * (den // bd)
        out = [fa * v for v in an] + [0] * (len(bn) - len(an))
        for i, v in enumerate(bn):
            out[i] += fb * v
        return _normal(self._rem(out), den)

    def add(self, a: Elem, b: Elem) -> Elem:
        return self._combine(a, b, 1)

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self._combine(a, b, -1)

    def mul(self, a: Elem, b: Elem) -> Elem:
        (an, ad), (bn, bd) = a, b
        return _normal(self._rem(int_mul(an, bn)), ad * bd)

    def scalar_mul(self, q: Fraction | int, a: Elem) -> Elem:
        n = q.numerator
        return _normal(self._rem([n * v for v in a[0]]), a[1] * q.denominator)

    def is_zero(self, a: Elem) -> bool:
        nums = self._reduced(a)[0]
        if nums == (0,):
            return True
        g = int_poly_gcd(IntPoly(nums), self.modulus)
        return g.degree >= 1 and self._split(g)

    def _split(self, g: IntPoly) -> bool:
        """Whether the root is a root of g, a factor of the modulus; keeps the part holding it.

        The modulus becomes g when it holds the root and modulus/g otherwise
        (a primitive factor of a monic polynomial is monic, by Gauss, and so
        is the quotient); the bracket isolates the root on either part.
        """
        if self.root.is_exact():
            holds = g.eval_dyadic_sign(self.root.lo) == 0
        else:
            lo, hi = self.root.lo.as_fraction(), self.root.hi.as_fraction()
            holds = sturm_count(sturm_chain(g), lo, hi) >= 1
        self._set_modulus(g if holds else exact_div(self.modulus, g), self.root.lo, self.root.hi)
        return holds

    def sign(self, a: Elem) -> int:
        # an enclosure that excludes 0 settles the sign; only one that does
        # not needs the exact zero test, which makes the refinement finite
        prec = 32
        s = self._horner(a, prec + 16).sign()
        if s != 0 or self.is_zero(a):
            return s
        while True:
            prec *= 2
            if prec > 1 << 16:
                raise Undecidable(f"sign of a non-zero element unresolved at {prec // 2} bits")
            self.root.refine(prec)
            s = self._horner(a, prec + 16).sign()
            if s != 0:
                return s

    def inv(self, a: Elem) -> Elem:
        while True:
            nums, den = self._reduced(a)
            got = _int_inverse(nums, self.modulus.coeffs)
            if got is not None:
                s, c = got
                return _normal([den * v for v in s], c)
            # a common factor with the modulus: zero at the root means a is
            # zero; otherwise it is divided out of the modulus
            if self._split(int_poly_gcd(IntPoly(nums), self.modulus)):
                raise ZeroDivisionError("inverse of zero element")

    # -- enclosures ---------------------------------------------------------

    def _horner(self, a: Elem, bits: int) -> IntervalReal:
        """One interval Horner pass over the root bracket as it stands, at `bits`."""
        nums, den = self._reduced(a)
        x = self.root.enclosure()
        acc = IntervalReal.exact(0)
        for n in reversed(nums):
            acc = acc.mul(x, bits).add(IntervalReal.from_ratio(n, den, bits), bits)
        return acc

    def enclosure(self, a: Elem, prec: int = DEFAULT_PREC) -> IntervalReal:
        """Interval around the element's value, at most 2**-prec wide."""
        target = Dyadic(1, -prec)
        bits = max(prec + 16, 48)
        while True:
            acc = self._horner(a, bits)
            if acc.width() <= target:
                return acc
            bits *= 2
            if bits > 1 << 20:
                raise Undecidable(f"element enclosure stalled at {bits // 2} bits")
            self.root.refine(bits)

    def compare_int(self, a: Elem, n: int) -> int:
        """Exact trichotomy of the element against an integer."""
        return self.sign(self.sub(a, self.from_fraction(n)))
