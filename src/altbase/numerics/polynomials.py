"""Exact integer polynomials, characteristic polynomials and root isolation.

Coefficients are stored in ascending order, and Z[x] has one product
(int_mul), one division in integers (int_divmod), under exact division and
reduction, and one pseudo-division (_pseudo_divmod), under remainder
sequences and the inverse modulo a polynomial.  A characteristic
polynomial is a small determinant over Z[x]: one fraction-free
elimination of all rows but the first gives the cofactors along the first
row, and the determinant is the expansion along it, so no fraction or
power series appears.  Root work is done with exact sign evaluations at dyadic
points, in integers only, plus Sturm-sequence counting, so every returned
enclosure is certified.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt
from itertools import zip_longest
from typing import Iterable, Sequence

from ..errors import NoSignChange, Undecidable
from .intervals import DEFAULT_PREC, ONE, Dyadic, IntervalReal

_HALF = Dyadic(1, -1)


def _sign_at(coeffs: Sequence[int], x: Dyadic) -> int:
    """Sign of p(m * 2**-s): Horner on 2**(s*deg) * p in ints, the powers of 2**s as shifts."""
    m, s = (x.m << x.e, 0) if x.e >= 0 else (x.m, -x.e)
    acc = 0
    for j, c in enumerate(reversed(coeffs)):
        acc = acc * m + (c << s * j)
    return (acc > 0) - (acc < 0)


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

    def eval_dyadic_sign(self, x: Dyadic) -> int:
        return _sign_at(self.coeffs, x)

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


# -- matrix characteristic polynomial ------------------------------------------

#: a matrix as its rows, each the (column, value) pairs of its non-zero entries
SparseRows = Sequence[Sequence[tuple[int, int]]]


def _shift_depth(sparse: SparseRows) -> int:
    """Least t >= 1 with every row i >= t the unit e_(i-t) on the columns below n - t, else n."""
    n = len(sparse)
    return next((t for t in range(1, n) if all(
        [(c, v) for c, v in sparse[i] if c < n - t] == [(i - t, 1)] for i in range(t, n))), n)


def _e_matrix(sparse: SparseRows) -> list[list[tuple[int, ...]]]:
    """The t x t matrix E(x) over Z[x] with det E = +-det(xI - m), E[r][e] ascending coefficients.

    t = _shift_depth(m) is the least t >= 1 such that every row i >= t of m
    is the unit e_(i-t) on the columns below n - t (t <= q for a product of
    q companion factors).  Column j < n - t of u(xI - m) = 0 gives u_(j+t) =
    x u_j - sum_(d<t) m[d][j] u_d, so u = U(x) c with c = (u_0, ..., u_(t-1)),
    and E(x) is the last t columns of U(x)(xI - m) acting on c (row r is
    column n - t + r): u(xI - m) = 0 exactly when E(x) c = 0.  Eliminating
    the n - t unit pivots is unimodular over Z[x], so det E = +-chi.
    """
    n = len(sparse)
    if any(not 0 <= c < n for row in sparse for c, _ in row):
        raise ValueError(f"a column index lies outside [0, {n}): the matrix must be square")
    t = _shift_depth(sparse)
    top = [dict(row) for row in sparse[:t]]

    def u_row(i: int) -> list[list[int]]:
        # U[i][e], ascending: -m[e] at columns i - t, i - 2t, ..., then [e = i % t] at x^(i // t)
        cols = range(i - t, -1, -t)
        return [[-top[e].get(c, 0) for c in cols] + [int(e == i % t)] for e in range(t)]

    E = [[[0] + f for f in u_row(j)] for j in range(n - t, n)]
    for i, row in enumerate(sparse):
        for c, v in row:
            if c >= n - t:
                for g, f in zip(E[c - n + t], u_row(i)):
                    for l, y in enumerate(f):
                        g[l] -= v * y
    return [[_trim(g) for g in row] for row in E]


def faddeev_leverrier(sparse: SparseRows) -> tuple[IntPoly, list[Sequence[int]]]:
    """chi = det(xI - m), exactly, and the cofactors c along row 0 of E = _e_matrix(m).

    m is any square integer matrix, given as its n sparse rows: row i lists
    the (column, value) pairs of its non-zero entries, each column in [0, n).
    c_e = (-1)^e det(E without row 0 and column e) is int_cofactors(E[1:]),
    ascending coefficient lists, so E(x) c = (det E) e_0 with det E = +-chi:
    one elimination gives both, chi being the Laplace sum of c against row
    0 made monic; n = 0 gives chi = 1 and no c.  The name stays because the
    benchmark's tracing binds altbase.perron.faddeev_leverrier, requires its
    span and reads the degree of chi from its result.
    """
    E = _e_matrix(sparse)
    if not E:
        return IntPoly([1]), []
    c = int_cofactors(E[1:])
    det = _trim([sum(v) for v in zip_longest(*map(int_mul, E[0], c), fillvalue=0)])
    return IntPoly([v * det[-1] for v in det]), c


def int_cofactors(rows: Sequence[Sequence[Sequence[int]]]) -> list[Sequence[int]]:
    """c_e = (-1)^e det(rows without column e), for m rows of m + 1 entries over Z[x].

    c spans the kernel of the rows if their rank is m, else c = 0.  Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968) brings the rows to
    echelon form, skipping a column with no pivot left: the step on pivot
    (k, j) sets each entry (i, l) below and right of it to (piv a_il - a_ij
    a_kl) / prev, prev the pivot before, and every result is a minor of the
    row-swapped input, so each division is exact.  The column f left
    without a pivot gets c_f = (-1)^f s d, d the last pivot (1 for m = 0)
    and s the sign of the swaps, and back substitution gives the rest, its
    divisions exact since c is integral.  O(m^3) products in all.
    """
    B = [list(row) for row in rows]
    m = len(B)
    pivots: list[int] = []
    s, prev = 1, (1,)
    for j in range(m + 1):
        k = len(pivots)
        r = next((r for r in range(k, m) if B[r][j]), None)
        if r is None:
            continue
        if r != k:
            B[k], B[r], s = B[r], B[k], -s
        piv = B[k][j]
        for row in B[k + 1 :]:
            for l in range(j + 1, m + 1):
                a, b = int_mul(piv, row[l]), int_mul(row[j], B[k][l])
                row[l] = int_divmod([x - y for x, y in zip_longest(a, b, fillvalue=0)], prev)[0]
        pivots.append(j)
        prev = piv
    if len(pivots) < m:
        return [()] * (m + 1)
    free = min(set(range(m + 1)).difference(pivots))
    c: list[Sequence[int]] = [()] * (m + 1)
    c[free] = [(-s if free % 2 else s) * v for v in prev]
    for row, j in zip(reversed(B), reversed(pivots)):
        acc: list[int] = []
        for l in range(j + 1, m + 1):
            acc = [x - y for x, y in zip_longest(acc, int_mul(row[l], c[l]), fillvalue=0)]
        c[j] = int_divmod(acc, row[j])[0]
    return c


# -- Z[x] product and division: ascending integer coefficient lists -------------


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a*b on ascending integer coefficient lists (not trimmed)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def int_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by den in Z[x], so num = q*den + r.

    Long division in integers; ArithmeticError at the first quotient
    coefficient that is not an integer, that is when the quotient over Q is
    not integral (never for a monic den).  den ends in a non-zero
    coefficient, r in none, so the zero remainder is the empty list.
    """
    r = list(_trim(num))
    d, lead = len(den) - 1, den[-1]
    q = [0] * max(0, len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + d]
        if lead != 1:
            c, rem = divmod(c, lead)
            if rem:
                raise ArithmeticError("polynomial quotient is not integral")
        if c:
            q[k] = c
            for i in range(d):
                r[k + i] -= c * den[i]
    del r[d:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(f, q, r) with f*a = q*b + r, f = |lc(b)|**steps > 0 and deg r < deg b, in integers.

    b ends in a non-zero coefficient, r in none.  Each step scales r and q by
    |lc(b)| and cancels r's leading term with the sign of lc(b) folded into
    the multiplier (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).
    """
    r = list(_trim(a))
    d, lead = len(b) - 1, b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    f, q = 1, [0] * max(0, len(r) - d)
    while len(r) > d:
        c, k = sign * r[-1], len(r) - 1 - d
        if scale != 1:
            f *= scale
            r = [v * scale for v in r]
            q = [v * scale for v in q]
        q[k] = c
        # the leading term cancels exactly, so only the lower ones change
        for i in range(d):
            r[k + i] -= c * b[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return f, q, r


# -- gcd machinery -----------------------------------------------------------


def _content(c: Sequence[int]) -> int:
    return gcd(*c)


def _primitive(c: Sequence[int]) -> tuple[int, ...]:
    c = _trim(c)
    if not c:
        return c
    g = _content(c)
    sign = 1 if c[-1] > 0 else -1
    g *= sign
    return tuple(v // g for v in c)


def _remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """a, b and then -rem(previous two) made primitive until a zero remainder.

    Each new member is minus the pseudo-remainder of _pseudo_divmod, a
    positive multiple of the remainder, divided by its (positive) content.
    Zero members are left out; the last one is a gcd of a and b.
    """
    chain = [a, b]
    while chain[-1].degree > 0:
        rem = _pseudo_divmod(chain[-2].coeffs, chain[-1].coeffs)[2]
        if not rem:
            break
        g = _content(rem)
        chain.append(IntPoly(-v // g for v in rem))
    return [c for c in chain if not c.is_zero()]


def int_poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd of two integer polynomials (positive leading coeff), from their remainders."""
    chain = _remainders(p, q)
    return IntPoly(_primitive(chain[-1].coeffs) if chain else ())


def int_inverse(a: Sequence[int], m: Sequence[int]) -> tuple[list[int], int] | IntPoly:
    """(s, c) with s*a = c modulo m for a non-zero integer c, or else the primitive gcd of a and m.

    The gcd is m for a = 0.  The remainder sequence of (m, a) by
    _pseudo_divmod carries the cofactor: f*r0 = q*r1 + r gives the member -r
    with the cofactor q*s1 - f*s0, so r = s*a (mod m) for every member
    (Collins, JACM 14, 1967), divided with its cofactor by their content.
    """
    r0, r1 = m, _trim(a)
    s0, s1 = [0], [1]
    while len(r1) > 1:
        f, q, r = _pseudo_divmod(r0, r1)
        if not r:
            break
        s = int_mul(q, s1)  # never shorter than s0
        for i, x in enumerate(s0):
            s[i] -= f * x
        g = gcd(*r, *s)
        r0, r1, s0, s1 = r1, [-v // g for v in r], s1, [v // g for v in s]
    return (s1, r1[0]) if len(r1) == 1 else IntPoly(_primitive(r1 or m))


def exact_div(p: IntPoly, d: IntPoly) -> IntPoly:
    """Quotient p / d; raises ArithmeticError unless it is exact and integral."""
    q, r = int_divmod(p.coeffs, d.coeffs)
    if r:
        raise ArithmeticError("polynomial division was not exact")
    return IntPoly(q)


def squarefree_part(p: IntPoly) -> IntPoly:
    """prim(p) over the primitive last member of its Sturm chain, gcd(p, p'); 0 for 0.

    Both lead positive, so by Gauss the quotient is primitive and integral.
    """
    chain = sturm_chain(p)
    if not chain:
        return p
    return exact_div(IntPoly(_primitive(p.coeffs)), IntPoly(_primitive(chain[-1].coeffs)))


# -- Sturm sequences ---------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """p, p' and their signed remainders: the Sturm chain of p itself.

    Its last member is gcd(p, p') up to a constant.  At non-roots of p its
    variations count distinct roots even when p is not squarefree (Basu,
    Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    return _remainders(p, p.derivative())


def _variations(chain: Sequence[IntPoly], x: Dyadic) -> int:
    signs = [s for s in (_sign_at(poly.coeffs, x) for poly in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[IntPoly], a: Dyadic, b: Dyadic) -> int:
    """Number of distinct real roots in (a, b], for non-roots a and b."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


# -- dominant-root isolation and refinement -----------------------------------

#: refine_root_bisect guesses on the first bracket 2**-bits wide, the second only when
#: the first guess does not snap; its fixed-point steps carry _GUARD_BITS extra bits.
_NEWTON_BITS = (8, 40)
_GUARD_BITS = 32


def _nonroot_near(p: IntPoly, x: Dyadic, lo: Dyadic, hi: Dyadic) -> Dyadic:
    """A point near x inside [lo, hi] where p does not vanish."""
    if _sign_at(p.coeffs, x) != 0:
        return x
    span = hi - lo
    k = 4
    while True:
        step = Dyadic(span.m, span.e - k)
        for cand in (x + step, x - step):
            if lo <= cand <= hi and _sign_at(p.coeffs, cand) != 0:
                return cand
        k += 1
        if k > 512:
            raise Undecidable(f"could not step off a root cluster at {k - 1} bits below the span")


def isolate_largest_root(p: IntPoly, chain: Sequence[IntPoly], upper: int) -> tuple[Dyadic, Dyadic]:
    """Interval (a, b] holding exactly the largest real root of p in (0, upper].

    chain is the Sturm chain of p, and p(0) != 0.  Requires p to have at
    least one real root in (0, upper] and none above.  Endpoints are
    non-roots of p.  A halving counts variations at its midpoint only.
    """
    a, b = Dyadic(0), Dyadic(upper)
    while _sign_at(p.coeffs, b) == 0:
        b += ONE
    va, vb = _variations(chain, a), _variations(chain, b)
    if va - vb < 1:
        raise NoSignChange("no real root in the search range")
    while va - vb > 1:
        mid = _nonroot_near(p, (a + b) * _HALF, a, b)
        vmid = _variations(chain, mid)
        if vmid - vb >= 1:
            a, va = mid, vmid
        else:
            b, vb = mid, vmid
    return a, b


def _newton_guess(p: IntPoly, lo: Dyadic, hi: Dyadic, prec: int) -> Dyadic | None:
    """A point near the root in [lo, hi], about 2**-prec off, or None.

    Fixed-point Newton from the midpoint, doubling the working bits up to
    prec plus a guard (plus the bits that truncated Horner loses to |x|^deg).
    Gives up when p' evaluates to 0 or an iterate leaves [lo, hi].  This is
    only a guess: nothing certified rests on it.
    """
    w = hi - lo
    have = -(w.e + w.m.bit_length())  # the bracket pins about this many bits
    bits_list = []
    b = prec
    while b > max(have // 2, 1):  # a bracket 2**-2 wide or wider pins no bit
        bits_list.append(b)
        b = (b + 1) // 2
    top = max(abs(v.m) >> -v.e if v.e < 0 else abs(v.m) << v.e for v in (lo, hi)) + 1
    extra = _GUARD_BITS + p.degree * top.bit_length()
    coeffs = p.coeffs
    x = Dyadic((lo + hi).m, (lo + hi).e - 1)
    for b in reversed(bits_list):
        bits = b + extra
        s = x.e + bits
        big = x.m << s if s >= 0 else x.m >> -s
        f, df = coeffs[-1] << bits, 0
        for c in coeffs[-2::-1]:
            df = (df * big >> bits) + f
            f = (f * big >> bits) + (c << bits)
        if df == 0:
            return None
        x = Dyadic(big - (f << bits) // df, -bits)
        if not lo <= x <= hi:
            return None
    return x


def _snap(p: IntPoly, lo: Dyadic, slo: int, cell: Dyadic, x: Dyadic) -> IntervalReal | None:
    """The cell of the grid lo + j*cell that holds the root, found near x, or None.

    Starts at the grid point nearest x and walks at most two points toward
    the root; every step is an exact sign evaluation.  Returns a point
    interval when a grid point is the root.  With exactly one root in the
    bracket, the sign at a point tells which side of the root it lies on,
    and the walk cannot pass the bracket's ends, whose signs differ.
    """
    t = x - lo
    sh = t.e - cell.e + 1
    twice = (t.m << sh) // cell.m if sh >= 0 else t.m // (cell.m << -sh)
    j = (twice + 1) // 2
    prev, sprev, step = None, 0, 0
    for _ in range(3):
        g = lo + Dyadic(j * cell.m, cell.e)
        s = p.eval_dyadic_sign(g)
        if s == 0:
            return IntervalReal(g, g)
        if prev is not None and s != sprev:
            return IntervalReal(prev, g) if step > 0 else IntervalReal(g, prev)
        step = 1 if s == slo else -1
        prev, sprev = g, s
        j += step
    return None


def refine_root_bisect(p: IntPoly, lo: Dyadic, hi: Dyadic, prec: int) -> IntervalReal:
    """Shrink a sign-changing bracket [lo, hi] to width <= 2**-prec.

    Returns what bisection returns: after the n halvings that bring the
    width to <= 2**-prec, the cell lo + [j, j+1] * (hi - lo) / 2**n that
    holds the root, or the point interval when a grid point lo + j * (hi -
    lo) / 2**n is the root.  It gets there by guess, snap and verify: bisect
    to a 2**-8 bracket, take a fixed-point Newton guess, snap it to the
    grid and check the signs at the grid points around it exactly.  When
    no cell verifies, it guesses once more at 2**-40, and then only bisects.

    Requires [lo, hi] to hold exactly one root of p, and a simple one: an
    IsolatedRoot bracket (Sturm count 1) or alpha_root's (one positive
    root by Descartes' rule).  Then the verified cell is the bisection cell.
    Raises NoSignChange when the bracket does not bracket.
    """
    slo = p.eval_dyadic_sign(lo)
    shi = p.eval_dyadic_sign(hi)
    if slo == 0:
        return IntervalReal(lo, lo)
    if shi == 0:
        return IntervalReal(hi, hi)
    if slo == shi:
        raise NoSignChange(f"no sign change on [{lo.decimal()}, {hi.decimal()}]")
    w = hi - lo
    n = max(0, w.e + prec + (w.m - 1).bit_length())
    cell = Dyadic(w.m, w.e - n)
    # the bracket is [L, L + W] * 2**e in integers; guess where it first is 2**-bits wide or less
    e = min(lo.e, hi.e)
    L, W = lo.m << (lo.e - e), w.m << (w.e - e)
    guesses = {max(0, w.e + bits + (w.m - 1).bit_length()) for bits in _NEWTON_BITS}
    for k in range(n):
        if k in guesses:
            x = _newton_guess(p, Dyadic(L, e), Dyadic(L + W, e), prec)
            got = _snap(p, Dyadic(L, e), slo, cell, x) if x is not None else None
            if got is not None:
                return got
        L, e = 2 * L, e - 1
        mid = Dyadic(L + W, e)
        smid = p.eval_dyadic_sign(mid)
        if smid == 0:
            return IntervalReal(mid, mid)
        if smid == slo:
            L += W
    return IntervalReal(Dyadic(L, e), Dyadic(L + W, e))


class IsolatedRoot:
    """A single simple real root held by a sign-changing dyadic bracket.

    The bracket holds no other root.  refine() narrows it in place with
    refine_root_bisect (a Newton guess snapped onto the bisection grid and
    verified by exact integer signs), so successive enclosures are nested
    and equal to what plain bisection gives; exact dyadic hits collapse the
    bracket to a point.
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


def isolate_dominant(p: IntPoly, upper: int, prec: int = DEFAULT_PREC) -> IsolatedRoot:
    """Isolate the largest real root of p in (0, upper] and refine it.

    The dominant root must be simple.  refine_root_bisect narrows the isolating
    bracket (a, b] to its cell of width <= 1, with non-root ends, so the largest integer
    in it is the one integer the root can be (a monic charpoly's rational roots are
    integers).  Otherwise the bracket is (a, b] rounded out at the first of 16, 32, ...
    bits that keeps one root between non-roots, or the cell, on (a, b]'s grid, where
    the rounding keeps a and b.  The root is on p's squarefree part, zero roots out.
    """
    p = p.shift_out_zero_roots()[0]
    # one remainder sequence: p's Sturm chain counts, and its last member
    # gives the squarefree part, with the same roots
    chain = sturm_chain(p)
    sf = exact_div(IntPoly(_primitive(p.coeffs)), IntPoly(_primitive(chain[-1].coeffs)))
    a, b = isolate_largest_root(sf, chain, upper)
    cell = refine_root_bisect(sf, a, b, 0)  # the root itself when a grid point is it
    n = cell.hi.round_down(0)
    if cell.lo <= n and sf.eval_dyadic_sign(n) == 0:
        return IsolatedRoot(sf, n, n)
    prec0 = 16
    while (lo := a.round_down(prec0), hi := b.round_up(prec0)) != (a, b):
        if sf.eval_dyadic_sign(lo) and sf.eval_dyadic_sign(hi) and sturm_count(chain, lo, hi) == 1:
            break
        prec0 *= 2
    else:
        lo, hi = cell.lo, cell.hi
    root = IsolatedRoot(sf, lo, hi)
    root.refine(prec)
    return root


# -- cyclotomic factors --------------------------------------------------------


def _orders_up_to(deg: int) -> list[tuple[int, int]]:
    """Every (n, phi(n)) with Euler's phi(n) <= deg, ascending in n."""
    found = [(1, 1)]
    for p in range(2, deg + 2):
        if any(p % f == 0 for f in range(2, isqrt(p) + 1)):
            continue
        for n, phi in list(found):
            pk, phik = p, p - 1
            while phi * phik <= deg:
                found.append((n * pk, phi * phik))
                pk, phik = pk * p, phik * p
    return sorted(found)


@cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial Phi_n, built once per n.

    From Phi_1 = x - 1, one prime factor p at a time: Phi_mp(x) = Phi_m(x^p),
    divided by Phi_m(x) when p does not divide m.
    """
    c, m, rest, p = [-1, 1], 1, n, 2
    while rest > 1:
        while rest % p == 0:
            up = [0] * ((len(c) - 1) * p + 1)
            up[::p] = c
            c = up if m % p == 0 else int_divmod(up, c)[0]
            m *= p
            rest //= p
        p += 1
    return tuple(c)


def drop_trivial_factors(p: IntPoly) -> IntPoly:
    """p without its zero roots and cyclotomic factors, each as often as it divides.

    Every Phi_n with phi(n) <= deg p is tried, so no root of unity is left.
    Division by monic factors keeps the coefficients integral.
    """
    c = list(p.shift_out_zero_roots()[0].coeffs)
    for n, phi in _orders_up_to(len(c) - 1):
        if phi < len(c):
            cyc = _cyclotomic(n)
            q, r = int_divmod(c, cyc)
            while not r:
                c = q
                q, r = int_divmod(c, cyc)
    return IntPoly(c)


def alpha_root(p: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Root in [1, 2) of x^p - x^(p-1) - ... - x - 1; exactly 1 when p = 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        one = Dyadic(1)
        return IntervalReal(one, one)
    coeffs = [-1] * p + [1]
    poly = IntPoly(coeffs)
    return refine_root_bisect(poly, Dyadic(1), Dyadic(2), prec)
