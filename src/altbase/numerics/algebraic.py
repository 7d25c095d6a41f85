"""Exact arithmetic with one real algebraic number.

Elements live in Q[x]/(modulus) and are evaluated at a single isolated
real root.  The modulus need not be irreducible: zero tests go through
gcd computations plus Sturm counting inside the isolating bracket, and
inversions shrink the modulus on the fly when a nontrivial factor shows
up (the factor not vanishing at the root is divided out).  Signs of
non-zero elements are decided by refining the root bracket, which always
terminates because exact zeros are recognised first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import InvariantViolation, Undecidable
from .intervals import Dyadic, IntervalReal
from .polynomials import (
    IntPoly,
    IsolatedRoot,
    _content,
    _trim,
    clear_denominators,
    exact_div,
    int_poly_gcd,
    qdivmod,
    qmul,
    qsub,
    squarefree_part,
    sturm_chain,
    sturm_count,
)

# ascending coefficients; they stay ints while every step kept them integral
Elem = tuple[Fraction | int, ...]


def _fraction_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, s) with s*a = g modulo b and g = gcd(a, b), monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = qdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, qsub(s0, qmul(q, s1))
    if not r0:
        return [], []
    lead = Fraction(r0[-1])
    return [c / lead for c in r0], [c / lead for c in s0]


class RealAlgebraicField:
    """Q[x]/(modulus) evaluated at an isolated simple real root."""

    def __init__(self, root: IsolatedRoot):
        if root.is_exact():
            # rational (dyadic) root: use the exact linear modulus
            v = root.lo
            if v.e >= 0:
                self.modulus = IntPoly([-(v.m << v.e), 1])
            else:
                self.modulus = IntPoly([-v.m, 1 << -v.e])
        else:
            self.modulus = squarefree_part(root.poly)
        self.root = IsolatedRoot(self.modulus, root.lo, root.hi)
        self._chain_cache: dict[tuple[int, ...], list[IntPoly]] = {}

    # -- element constructors -------------------------------------------

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def from_fraction(self, q: Fraction | int) -> Elem:
        return (Fraction(q),)

    def generator(self) -> Elem:
        return self.reduce([Fraction(0), Fraction(1)])

    def reduce(self, coeffs: Sequence[Fraction]) -> Elem:
        _, rem = qdivmod(coeffs, self.modulus.coeffs)
        return tuple(rem) if rem else (Fraction(0),)

    def _reduced(self, a: Sequence[Fraction]) -> Elem:
        """a itself when it is already a remainder by the modulus, else reduce(a)."""
        if type(a) is tuple and 0 < len(a) < len(self.modulus.coeffs) and (
            a[-1] != 0 or len(a) == 1
        ):
            return a
        return self.reduce(a)

    # -- ring operations ---------------------------------------------------

    def _canonical(self, out: Sequence[Fraction]) -> Elem:
        """out without trailing zeros, reduced only when its degree calls for it."""
        c = _trim(out) or (Fraction(0),)
        return c if len(c) < len(self.modulus.coeffs) else self.reduce(c)

    def add(self, a: Elem, b: Elem) -> Elem:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return self._canonical(out)

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self._canonical(qsub(a, b))

    def mul(self, a: Elem, b: Elem) -> Elem:
        return self.reduce(qmul(a, b))

    def scalar_mul(self, q: Fraction | int, a: Elem) -> Elem:
        return self._canonical([q * v for v in a])

    def is_zero(self, a: Elem) -> bool:
        a = self._reduced(a)
        if all(v == 0 for v in a):
            return True
        g = int_poly_gcd(clear_denominators(a), self.modulus)
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
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero element")
        while True:
            a = self._reduced(a)
            mod = [Fraction(c) for c in self.modulus.coeffs]
            g, s = _fraction_xgcd(list(a), mod)
            if len(g) == 1:
                return self.reduce([v / g[0] for v in s])
            # nontrivial common factor; it cannot vanish at the root since
            # the element does not, so divide it out of the modulus.
            g_int = clear_denominators(g)
            if self._has_root_in_bracket(g_int):
                raise InvariantViolation("a factor of a non-zero element vanishes at the root")
            self._shrink_modulus(exact_div(self.modulus, g_int))

    def div(self, a: Elem, b: Elem) -> Elem:
        return self.mul(a, self.inv(b))

    def _shrink_modulus(self, new_modulus: IntPoly) -> None:
        prim = _content(new_modulus.coeffs)
        if new_modulus.coeffs[-1] < 0:
            prim = -prim
        new_modulus = IntPoly([v // prim for v in new_modulus.coeffs])
        self.modulus = new_modulus
        self.root = IsolatedRoot(new_modulus, self.root.lo, self.root.hi)
        self._chain_cache = {}

    # -- enclosures ---------------------------------------------------------

    def enclosure(self, a: Elem, prec: int = 64, refine_until: bool = True) -> IntervalReal:
        """Interval around the element's value, width <= 2**-prec if refining."""
        a = self._reduced(a)
        target = Dyadic(1, -prec)
        bits = max(prec + 16, 48)
        while True:
            x = self.root.enclosure()
            acc = IntervalReal.exact(0)
            for c in reversed(a):
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
