"""Exact arithmetic with one real algebraic number.

Elements live in Q[x]/(modulus), a monic integer modulus, as integer
coefficients over one denominator, and are evaluated at a single isolated
real root.  The modulus need not be irreducible: zero tests go through gcd
computations plus Sturm counting inside the isolating bracket, and
inversions shrink the modulus on the fly when a nontrivial factor shows up
(the factor not vanishing at the root is divided out).  Signs of non-zero
elements are decided by refining the root bracket, which always terminates
because exact zeros are recognised first.
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
    int_poly_gcd,
    squarefree_part,
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
    """Q[x]/(modulus) evaluated at an isolated simple real root; monic modulus."""

    def __init__(self, root: IsolatedRoot):
        if root.is_exact():
            # rational (dyadic) root: the linear modulus, monic for an integer
            v = root.lo
            modulus = IntPoly([-(v.m << v.e), 1] if v.e >= 0 else [-v.m, 1 << -v.e])
        else:
            modulus = squarefree_part(root.poly)
        self._set_modulus(modulus, root.lo, root.hi)

    def _set_modulus(self, modulus: IntPoly, lo: Dyadic, hi: Dyadic) -> None:
        if modulus.coeffs[-1] != 1:
            raise ValueError(f"the field needs a monic modulus, not {modulus}")
        self.modulus = modulus
        self.root = IsolatedRoot(modulus, lo, hi)
        self._chain_cache: dict[tuple[int, ...], list[IntPoly]] = {}
        # x^d, x^(d+1), ... mod the modulus, extended as far as a product needs
        self._powers = [[-c for c in modulus.coeffs[:-1]]]

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
        """Integer coefficients reduced below the degree, by the table of powers."""
        d = self.degree
        if len(c) <= d:
            return c
        rows = self._powers
        while len(rows) < len(c) - d:
            # x^(d+j+1) = x * x^(d+j), with x^d = rows[0]
            row = rows[-1]
            top, up = row[-1], [0] + row[:-1]
            rows.append([u + top * v for u, v in zip(up, rows[0])] if top else up)
        out = c[:d]
        for t, row in zip(c[d:], rows):
            if t:
                out = [u + t * v for u, v in zip(out, row)]
        return out

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
        out = [0] * (len(an) + len(bn) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    out[i + j] += x * y
        return _normal(self._rem(out), ad * bd)

    def scalar_mul(self, q: Fraction | int, a: Elem) -> Elem:
        n = q.numerator
        return _normal(self._rem([n * v for v in a[0]]), a[1] * q.denominator)

    def is_zero(self, a: Elem) -> bool:
        nums = self._reduced(a)[0]
        if nums == (0,):
            return True
        g = int_poly_gcd(IntPoly(nums), self.modulus)
        if g.degree < 1:
            return False
        return self._has_root_in_bracket(g)

    def _has_root_in_bracket(self, g: IntPoly) -> bool:
        chain = self._chain_cache.get(g.coeffs)
        if chain is None:
            chain = sturm_chain(g)
            self._chain_cache[g.coeffs] = chain
        if self.root.is_exact():
            return g.eval_dyadic_sign(self.root.lo) == 0
        return sturm_count(chain, self.root.lo.as_fraction(), self.root.hi.as_fraction()) >= 1

    def sign(self, a: Elem) -> int:
        # an enclosure that excludes 0 settles the sign; only one that does
        # not needs the exact zero test, which makes the refinement finite
        prec = 32
        s = self.enclosure(a, prec, refine_until=False).sign()
        if s != 0 or self.is_zero(a):
            return s
        while True:
            prec *= 2
            if prec > 1 << 16:
                raise Undecidable(f"sign of a non-zero element unresolved at {prec // 2} bits")
            self.root.refine(prec)
            s = self.enclosure(a, prec, refine_until=False).sign()
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
            g = int_poly_gcd(IntPoly(nums), self.modulus)
            if self._has_root_in_bracket(g):
                raise ZeroDivisionError("inverse of zero element")
            self._shrink_modulus(exact_div(self.modulus, g))

    def div(self, a: Elem, b: Elem) -> Elem:
        return self.mul(a, self.inv(b))

    def _shrink_modulus(self, new_modulus: IntPoly) -> None:
        # a primitive factor of a monic polynomial is monic (Gauss), and so is the quotient
        self._set_modulus(new_modulus, self.root.lo, self.root.hi)

    # -- enclosures ---------------------------------------------------------

    def enclosure(
        self, a: Elem, prec: int = DEFAULT_PREC, refine_until: bool = True
    ) -> IntervalReal:
        """Interval around the element's value, width <= 2**-prec if refining."""
        nums, den = self._reduced(a)
        coeffs = [Fraction(n, den) for n in reversed(nums)]
        target = Dyadic(1, -prec)
        bits = max(prec + 16, 48)
        while True:
            x = self.root.enclosure()
            acc = IntervalReal.exact(0)
            for c in coeffs:
                acc = acc.mul(x, bits).add(IntervalReal.from_fraction(c, bits), bits)
            if not refine_until or acc.width() <= target:
                return acc
            bits *= 2
            if bits > 1 << 20:
                raise Undecidable(f"element enclosure stalled at {bits // 2} bits")
            self.root.refine(bits)

    def compare_int(self, a: Elem, n: int) -> int:
        """Exact trichotomy of the element against an integer."""
        return self.sign(self.sub(a, self.from_fraction(n)))
