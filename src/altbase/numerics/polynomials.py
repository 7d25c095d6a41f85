"""Exact integer polynomials, characteristic polynomials and root isolation.

Coefficients are stored in ascending order.  Root work is done with exact
sign evaluations at dyadic points plus Sturm-sequence counting, so every
returned enclosure is certified.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ..errors import NoSignChange
from .intervals import Dyadic, IntervalReal


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPoly:
    """Integer polynomial, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = _trim(list(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "IntPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            elif i == 1:
                parts.append(f"{c:+d}*x")
            else:
                parts.append(f"{c:+d}*x^{i}")
        return "IntPoly(" + " ".join(parts) + ")"

    def eval_fraction(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_dyadic_sign(self, x: Dyadic) -> int:
        v = self.eval_fraction(x.as_fraction())
        return (v > 0) - (v < 0)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_out_zero_roots(self) -> tuple["IntPoly", int]:
        """Return (p / x^v, v) where v is the multiplicity of the root 0."""
        v = 0
        c = list(self.coeffs)
        while c and c[0] == 0:
            c.pop(0)
            v += 1
        return IntPoly(c), v


# -- matrix characteristic polynomial and adjugate --------------------------

Matrix = Sequence[Sequence[int]]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def faddeev_leverrier(m: Matrix) -> tuple[IntPoly, list[list[list[int]]]]:
    """Characteristic polynomial plus adjugate of (xI - m), both exact.

    Returns (chi, adj) where chi = det(xI - m) and adj is a matrix of
    ascending coefficient lists with adj(x) = adjugate(xI - m).  All the
    interior integer divisions are exact; this is asserted.
    """
    n = len(m)
    a = [[int(v) for v in row] for row in m]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in ident]
    # adjugate(xI - m) = sum_k M_{k+1} x^(n-1-k)
    adj_terms = [mk]
    for k in range(1, n + 1):
        am = _mat_mul(a, mk)
        tr = sum(am[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        assert r == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[n - k] = q
        if k < n:
            mk = [[am[i][j] + (q if i == j else 0) for j in range(n)] for i in range(n)]
            adj_terms.append(mk)
    adj = [
        [[adj_terms[n - 1 - d][i][j] for d in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return IntPoly(coeffs), adj


# -- Q[x] kernel: ascending Fraction coefficient lists --------------------------


def qmul(x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
    """Product of two coefficient lists (an empty list is the zero polynomial)."""
    if not x or not y:
        return []
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xv in enumerate(x):
        if xv == 0:
            continue
        for j, yv in enumerate(y):
            out[i + j] += xv * yv
    return out


def qsub(x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
    """Difference of two coefficient lists, trailing zeros kept."""
    out = [Fraction(0)] * max(len(x), len(y))
    for i, v in enumerate(x):
        out[i] += v
    for i, v in enumerate(y):
        out[i] -= v
    return out


def qdivmod(
    num: Sequence[Fraction | int], den: Sequence[Fraction | int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of num by den over Q, so num = q*den + r.

    Coefficients may be ints or Fractions; den must end in a non-zero
    leading coefficient.  The remainder has its trailing zeros stripped, so
    deg r < deg den and the zero remainder is the empty list.
    """
    r = list(num)
    while r and r[-1] == 0:
        r.pop()
    d = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(0, len(r) - d)
    while len(r) > d:
        c = Fraction(r[-1], lead)
        k = len(r) - 1 - d
        q[k] = c
        # the leading term cancels exactly, so only the lower ones change
        for i in range(d):
            r[k + i] -= c * den[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r


def clear_denominators(coeffs: Sequence[Fraction]) -> IntPoly:
    """Primitive integer polynomial that is a positive multiple of coeffs."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = _content(ints) or 1
    return IntPoly([v // g for v in ints])


# -- gcd machinery -----------------------------------------------------------


def _content(c: Sequence[int]) -> int:
    g = 0
    for v in c:
        g = gcd(g, abs(v))
    return g


def _primitive(c: Sequence[int]) -> tuple[int, ...]:
    c = _trim(c)
    if not c:
        return c
    g = _content(c)
    sign = 1 if c[-1] > 0 else -1
    g *= sign
    return tuple(v // g for v in c)


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder of a by b (b non-zero), integer arithmetic only."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        la = a[-1]
        a = [v * lb for v in a]
        shift = da - db
        for i, bv in enumerate(b):
            a[shift + i] -= la * bv
        a = list(_trim(a))
        if not a:
            break
    return _trim(a)


def int_poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd of two integer polynomials (positive leading coeff)."""
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    if not a:
        return IntPoly(b)
    if not b:
        return IntPoly(a)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return IntPoly(a)


def exact_div(p: IntPoly, d: IntPoly) -> IntPoly:
    """Quotient p / d; raises ArithmeticError unless it is exact and integral."""
    q, r = qdivmod(p.coeffs, d.coeffs)
    if r:
        raise ArithmeticError("polynomial division was not exact")
    if any(v.denominator != 1 for v in q):
        raise ArithmeticError("polynomial quotient is not integral")
    return IntPoly(v.numerator for v in q)


def squarefree_part(p: IntPoly) -> IntPoly:
    g = int_poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return IntPoly(_primitive(p.coeffs))
    return IntPoly(_primitive(exact_div(IntPoly(_primitive(p.coeffs)), g).coeffs))


# -- Sturm sequences ---------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of the squarefree part of p (so counts are of distinct roots)."""
    sf = squarefree_part(p)
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, rem = qdivmod(chain[-2].coeffs, chain[-1].coeffs)
        if not rem:
            break
        chain.append(clear_denominators([-v for v in rem]))
    return [c for c in chain if not c.is_zero()]


def _variations(chain: Sequence[IntPoly], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly.eval_fraction(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[IntPoly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


# -- dominant-root isolation and bisection -----------------------------------


def _nonroot_near(p: IntPoly, x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """A point near x inside [lo, hi] where p does not vanish."""
    if p.eval_fraction(x) != 0:
        return x
    span = hi - lo
    k = 4
    while True:
        for delta in (span / 2**k, -span / 2**k):
            cand = x + delta
            if lo <= cand <= hi and p.eval_fraction(cand) != 0:
                return cand
        k += 1
        if k > 512:
            raise AssertionError("could not step off a root cluster")


def isolate_largest_root(p: IntPoly, upper: int) -> tuple[Fraction, Fraction]:
    """Interval (a, b] holding exactly the largest real root of p in (0, upper].

    Requires p to have at least one real root in (0, upper] and none above.
    Endpoints are non-roots of p.
    """
    stripped, _ = p.shift_out_zero_roots()
    chain = sturm_chain(stripped)
    a, b = Fraction(0), Fraction(upper)
    while stripped.eval_fraction(b) == 0:
        b += 1
    total = sturm_count(chain, a, b)
    if total < 1:
        raise NoSignChange("no real root in the search range")
    while sturm_count(chain, a, b) > 1:
        mid = _nonroot_near(stripped, (a + b) / 2, a, b)
        if sturm_count(chain, mid, b) >= 1:
            a = mid
        else:
            b = mid
    a = _nonroot_near(stripped, a, a, b)
    return a, b


def integer_roots_in(p: IntPoly, a: Fraction, b: Fraction) -> list[int]:
    """Integer roots of p lying in (a, b]."""
    import math

    lo = math.floor(a) + 1
    hi = math.floor(b)
    return [n for n in range(lo, hi + 1) if p.eval_fraction(n) == 0]


def refine_root_bisect(p: IntPoly, lo: Dyadic, hi: Dyadic, prec: int) -> IntervalReal:
    """Shrink a sign-changing bracket [lo, hi] to width <= 2**-prec.

    If a dyadic midpoint is an exact root, the exact point interval is
    returned.  Raises NoSignChange when the bracket does not bracket.
    """
    slo = p.eval_dyadic_sign(lo)
    shi = p.eval_dyadic_sign(hi)
    if slo == 0:
        return IntervalReal(lo, lo)
    if shi == 0:
        return IntervalReal(hi, hi)
    if slo == shi:
        raise NoSignChange(f"no sign change on [{lo.decimal()}, {hi.decimal()}]")
    target = Dyadic(1, -prec)
    while (hi - lo) > target:
        mid = Dyadic((lo + hi).m, (lo + hi).e - 1)
        smid = p.eval_dyadic_sign(mid)
        if smid == 0:
            return IntervalReal(mid, mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return IntervalReal(lo, hi)


class IsolatedRoot:
    """A single simple real root held by a sign-changing dyadic bracket.

    refine() bisects in place, so successive enclosures are nested; exact
    dyadic hits collapse the bracket to a point.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: IntPoly, lo: Dyadic, hi: Dyadic):
        self.poly = poly
        self.lo = lo
        self.hi = hi

    def enclosure(self) -> IntervalReal:
        return IntervalReal(self.lo, self.hi)

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refine(self, prec: int) -> IntervalReal:
        if self.is_exact():
            return self.enclosure()
        got = refine_root_bisect(self.poly, self.lo, self.hi, prec)
        self.lo, self.hi = got.lo, got.hi
        return got


def isolate_dominant(p: IntPoly, upper: int, prec: int = 64) -> IsolatedRoot:
    """Isolate the largest real root of p in (0, upper] and refine it.

    The dominant root must be simple.  Integer roots are detected exactly
    (charpolys are monic, so every rational root is an integer).
    """
    a, b = isolate_largest_root(p, upper)
    stripped, _ = p.shift_out_zero_roots()
    for n in integer_roots_in(stripped, a, b):
        d = Dyadic(n)
        return IsolatedRoot(stripped, d, d)
    sf = squarefree_part(stripped)
    chain = sturm_chain(sf)
    prec0 = 16
    while True:
        dlo = Dyadic.from_fraction_floor(a, prec0)
        dhi = Dyadic.from_fraction_ceil(b, prec0)
        if (
            sf.eval_dyadic_sign(dlo) != 0
            and sf.eval_dyadic_sign(dhi) != 0
            and sturm_count(chain, dlo.as_fraction(), dhi.as_fraction()) == 1
        ):
            break
        prec0 *= 2
        if prec0 > 4096:
            raise AssertionError("failed to form a dyadic isolation bracket")
    root = IsolatedRoot(sf, dlo, dhi)
    root.refine(prec)
    return root


def alpha_root(p: int, prec: int = 64) -> IntervalReal:
    """Root in [1, 2) of x^p - x^(p-1) - ... - x - 1; exactly 1 when p = 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        one = Dyadic(1)
        return IntervalReal(one, one)
    coeffs = [-1] * p + [1]
    poly = IntPoly(coeffs)
    return refine_root_bisect(poly, Dyadic(1), Dyadic(2), prec)
