"""Companion-shaped matrix sequences and their periodic Perron fixed point.

A periodic sequence of non-negative integer matrices A_n admits unique
sequences gamma_n > 0 and non-negative row vectors f_n with first entry 1
satisfying gamma_n f_{n-1} = f_n A_n, provided some window product is
positive.  For matrices with no zero row (all shapes here), that window
hypothesis is equivalent to some rotation of the one-period product being
primitive, which is checked, never assumed.

Each A_n is held as its digit row, the first row; the shape puts the unit
subdiagonal (and the Parry corner unit) below it.  Every matrix here, each
A_n and every product Q of them, is held as its sparse rows, the (column,
value) pairs of its non-zero entries, and no k x k matrix is built: Q has
about (p+1)k non-zero entries, so the rotation product, the primitivity
test, the charpoly and the start of the fixed point go through those
entries only.  The fixed point is computed exactly.  Below its p digit
rows Q is a shift by p plus at most p corner units, so its charpoly is
det E(x) for a t x t matrix E over Z[x], t <= p (faddeev_leverrier
eliminates the shift), and one elimination of E's last t - 1 rows gives
the cofactors c along row 0 of E, from which both the charpoly (their
Laplace sum against row 0) and the start of the fixed point come.  The
charpoly's zero roots and cyclotomic factors (artefacts of padding the
periods to a common length) are divided out first; the Perron root
lambda of Q is isolated on what is left, and the field Q(lambda) is
built on that same polynomial, dividing out any other factor that an
inverse runs into.  A left eigenvector u of Q starts from c at lambda,
its first t entries, and the shift gives the others, one multiply by x
each.  u is carried around the cycle unnormalised, u_{n-1} = u_n A_n, by
additions and small integer scalings over the sparse rows (left_mul);
gamma_n = u_{n-1}[0] / u_n[0] costs one inverse per step, and the cycle
closes exactly when u comes back as lambda times itself; by
Perron-Frobenius, u is then a multiple of a positive vector, and neither
gamma nor f_n = u_n / u_n[0], built on first read like every enclosure,
depends on that multiple.  Checks, the summation identities included, are
exact and raise InvariantViolation, not assert, so gamma = 1 is decided,
not approximated, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence, Union

from .bases import FieldOps, _fold
from .errors import InvariantViolation, NotPrimitive, Undecidable, ZeroLeadDigit
from .numerics import (
    DEFAULT_PREC,
    IntervalReal,
    RealAlgebraicField,
    drop_trivial_factors,
    faddeev_leverrier,
    isolate_dominant,
)
from .numerics.algebraic import Elem, _normal
from .numerics.polynomials import SparseRows
from .words import ExpansionList, UPWord


@dataclass(frozen=True)
class ParryShape:
    """First row of digits, identity below-left, extra unit at (h+1, k)."""

    h: int


@dataclass(frozen=True)
class FiniteShape:
    """First row of digits, identity below-left, zero last column below."""


Shape = Union[ParryShape, FiniteShape]


def _is_primitive(rows: SparseRows) -> bool:
    """Some power of the period product with these sparse rows is positive.

    Its (0, 0) entry is at least the product of the leading digits, so it
    is positive, and an irreducible matrix with a positive diagonal entry
    is primitive (Seneta 1981, ch. 1).  Every index reaches 0: row i >= 1
    of each companion factor, in either shape, has a unit at column i - 1,
    so in a product of q factors index i reaches max(i - q, 0).  The
    product is therefore primitive exactly when 0 reaches every index.
    """
    if not rows[0] or rows[0][0][0] != 0:
        raise InvariantViolation("a period product must have a positive corner")
    seen = {0}
    stack = [0]
    while stack:
        for j, _ in rows[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(rows)


def _mat_mul(a: SparseRows, b: SparseRows) -> list[list[tuple[int, int]]]:
    """Product a @ b of sparse rows: one row of b per non-zero of a.

    A companion-shaped a, or a product of p of them, has about (p+1)*k
    non-zeros, so the product costs that many row operations instead of k*k.
    The entries are non-negative, so no sum cancels and no zero is stored.
    """
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for l, v in row:
            for j, w in b[l]:
                acc[j] = acc.get(j, 0) + v * w
        out.append(sorted(acc.items()))
    return out


class MatrixSeq:
    """Purely periodic sequence of companion-shaped non-negative matrices.

    A companion matrix is held as its digit row: rows[n] is the first row of
    A_n, and the shape fixes everything below it, the unit subdiagonal plus,
    for ParryShape(h), one unit at (h+1, k).  The sparse rows, the (column,
    value) pairs of the non-zero entries, are built once per digit row and
    are the only matrix form: products, the charpoly and the fixed point
    read them, and no k x k matrix is built.
    """

    __slots__ = ("rows", "shape", "_sparse")

    def __init__(self, rows: Sequence[Sequence[int]], shape: Shape):
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        if not rows:
            raise ValueError("need at least one matrix")
        k = len(rows[0])
        if k < 2:
            raise ValueError("matrices must have size at least 2")
        h = shape.h if isinstance(shape, ParryShape) else None
        if h is not None and not 1 <= h <= k - 1:
            raise ValueError(f"shape parameter h={h} outside [1, {k - 1}]")
        if any(len(r) != k for r in rows):
            raise ValueError("digit rows must be equally long")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("matrix entries must be non-negative")
        if min(r[0] for r in rows) < 1:
            raise ZeroLeadDigit("leading digit a_{n,1} must be at least 1")
        below = [[(i - 1, 1)] + ([(k - 1, 1)] if i == h else []) for i in range(1, k)]
        self.rows = rows
        self.shape = shape
        self._sparse = tuple([[(j, v) for j, v in enumerate(r) if v], *below] for r in rows)

    @property
    def q(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])

    def digit(self, n: int, j: int) -> int:
        """First-row digit a_{n,j}, j 1-indexed."""
        return self.rows[n % self.q][j - 1]

    def sparse(self, n: int) -> SparseRows:
        """A_n as the (column, value) pairs of its non-zero entries, row by row."""
        return self._sparse[n % self.q]

    def rotation_product(self, n: int) -> SparseRows:
        """Sparse rows of Q_n = A_n A_{n-1} ... A_{n-q+1}, multiplied from the right end.

        Each step multiplies by a companion-shaped left factor, so it costs
        one row operation per non-zero of that factor.
        """
        out = self.sparse(n - self.q + 1)
        for step in range(self.q - 2, -1, -1):
            out = _mat_mul(self.sparse(n - step), out)
        return out

    def primitive_rotation(self) -> tuple[int, SparseRows]:
        """(n, Q_n) for the first rotation n whose product Q_n is primitive, Q_n as sparse rows."""
        for n in range(self.q):
            product = self.rotation_product(n)
            if _is_primitive(product):
                return n, product
        raise NotPrimitive(
            "no rotation of the period product is primitive; "
            "the positivity hypothesis fails"
        )

    def __repr__(self) -> str:
        return f"MatrixSeq(q={self.q}, k={self.k}, {self.shape!r})"


def left_mul(
    field: RealAlgebraicField, u: Sequence[Elem], rows: SparseRows
) -> tuple[Elem, ...]:
    """u A for A given by its sparse rows, by additions and integer scalings."""
    image: list = [None] * len(u)
    for i, row in enumerate(rows):
        for j, v in row:
            t = u[i] if v == 1 else field.scalar_mul(v, u[i])
            image[j] = t if image[j] is None else field.add(image[j], t)
    zero = field.from_fraction(0)
    return tuple(zero if e is None else e for e in image)


# -- builders -----------------------------------------------------------------


def build_parry_matrices(lst: ExpansionList) -> tuple[MatrixSeq, int, int]:
    """Digit rows for p quasi-greedy words, aligned to preperiod Mp, period Np.

    (A_n)_{1,j} = a_{(j-n) mod p, j}; below sits the identity plus one extra
    unit at (Mp+1, (M+N)p).  Purely periodic inputs are unrolled one period
    into the preperiod so that h = Mp >= 1.
    """
    p = lst.p
    entries: list[UPWord] = []
    for a in lst.entries:
        if not isinstance(a, UPWord):
            raise ValueError("matrix construction needs ultimately periodic entries")
        if a.is_zero_tail():
            raise ValueError("entries must be quasi-greedy (no tail of zeros)")
        entries.append(a)

    max_pre = max(len(a.preperiod) for a in entries)
    m_steps = max(1, -(-max_pre // p))
    np_len = p
    for a in entries:
        np_len = lcm(np_len, len(a.period))
    n_steps = np_len // p
    k = (m_steps + n_steps) * p
    # the rows lead with entries[(1 - n) % p].digit(1), so MatrixSeq checks every entry
    rows = [[entries[(j - n) % p].digit(j) for j in range(1, k + 1)] for n in range(p)]
    return MatrixSeq(rows, ParryShape(m_steps * p)), m_steps, n_steps


def build_finite_matrices(directive: Sequence[Sequence[int]]) -> MatrixSeq:
    """Finite-shape digit rows for a purely periodic substitution directive.

    directive[m] is the parameter tuple of the m-th substitution in the
    period; matrix A_n takes its first row from the tuple at index
    (-n) mod q, matching the indexing a_{m} <-> directive[m-1] extended
    periodically to all integers.
    """
    params = list(directive)
    q = len(params)
    return MatrixSeq([params[(-n) % q] for n in range(q)], FiniteShape())


# -- the fixed point -----------------------------------------------------------


@dataclass
class FixedPoint:
    """The exact fixed point in Q(lambda), enclosed on read.

    u_elems[n] is the unnormalised left vector u_n and u_lead_invs[n] the
    inverse of its first entry; gamma_vs_one is the exact trichotomy of each
    gamma_n against 1.  gammas, lam, f_elems (f_n = u_n / u_n[0]) and fs are
    built on first read.  Every enclosure is certified and at most
    2^-tol_bits wide whatever the order of reads, but its endpoints depend
    on how far other enclosures had refined the field's shared root before
    that read.  dataclasses.replace(fp, tol_bits=t) encloses the same point
    at t bits.
    """

    shape: Shape
    field: RealAlgebraicField
    rotation: int
    gamma_elems: tuple[Elem, ...]
    gamma_vs_one: tuple[int, ...]
    u_elems: tuple[tuple[Elem, ...], ...]
    u_lead_invs: tuple[Elem, ...]
    tol_bits: int

    @property
    def q(self) -> int:
        return len(self.gamma_elems)

    @property
    def k(self) -> int:
        return len(self.u_elems[0])

    @cached_property
    def gammas(self) -> tuple[IntervalReal, ...]:
        field, one = self.field, IntervalReal.exact(1)
        out = []
        for g, cmp in zip(self.gamma_elems, self.gamma_vs_one):
            if cmp == 0:
                out.append(one)
            else:
                # certify the strict lower bound by signing gamma - 1
                gm1 = field.sub(g, field.from_fraction(1))
                out.append(_certified_enclosure(field, gm1, 1, self.tol_bits).add(one))
        return tuple(out)

    @cached_property
    def lam(self) -> IntervalReal:
        return _certified_enclosure(self.field, self.field.generator(), 1, self.tol_bits)

    @cached_property
    def f_elems(self) -> tuple[tuple[Elem, ...], ...]:
        field = self.field
        return tuple(
            tuple(field.mul(e, inv) for e in row)
            for row, inv in zip(self.u_elems, self.u_lead_invs)
        )

    @cached_property
    def fs(self) -> tuple[tuple[IntervalReal, ...], ...]:
        # f_n >= 0 (a Perron vector times A_n's, all >= 0, over its first entry): sign 0 or 1
        field = self.field
        return tuple(
            tuple(
                _certified_enclosure(field, e, 0 if field.is_zero(e) else 1, self.tol_bits)
                for e in row
            )
            for row in self.f_elems
        )


def _certified_enclosure(
    field: RealAlgebraicField, elem: Elem, sign: int, tol_bits: int
) -> IntervalReal:
    """Enclosure of width <= 2^-tol_bits whose lower bound certifies `sign`."""
    if sign == 0:
        # the element is exactly zero even if its representative is not
        return IntervalReal.exact(0)
    bits = tol_bits
    while True:
        enc = field.enclosure(elem, bits)
        if enc.lo.sign() == sign:
            return enc
        bits *= 2
        if bits > 1 << 20:
            raise Undecidable(f"sign certification stalled at {bits // 2} bits")


def _perron_field(product: SparseRows) -> tuple[RealAlgebraicField, tuple[Elem, ...]]:
    """Q(lambda) for the Perron root lambda of a primitive product, and a left eigenvector at lambda.

    The root is isolated on the charpoly without its zero roots and
    cyclotomic factors, and the field is built on that polynomial.  lambda
    stays: no row of Q is zero and row 0 sums to >= 2, so lambda > 1.  Any
    other factor is divided out later by the field (RealAlgebraicField.inv).

    The first t = len(c) entries are the cofactors c along row 0 of E
    (faddeev_leverrier) reduced in Q(lambda), and E(lambda) c = det
    E(lambda) e_0 = 0.  c != 0: every u = U(lambda) c meets the first n - t
    columns of u(lambda I - Q) = 0, so the right Perron vector w > 0 of the
    primitive Q gives (w_(n-t), ..., w_(n-1)) E(lambda) = 0, and E(lambda)
    has rank t - 1 (lambda is simple); the rows of the rank-one adj
    E(lambda) are multiples of that positive vector, so its column 0, c, is
    not 0.  Row i >= t of Q is the unit e_(i-t) below column n - t, so
    column j < n - t of u(lambda I - Q) = 0 gives u_(j+t) = x u_j -
    sum_(d<t) Q[d][j] u_d at x = lambda.  The entries are integral (E is,
    the modulus is monic): a step is one multiply by x, one cancel against
    it and at most t integer scalings.
    """
    chi, c = faddeev_leverrier(product)
    upper = max(sum(v for _, v in row) for row in product)
    field = RealAlgebraicField(isolate_dominant(drop_trivial_factors(chi), upper))
    mod, t = field.modulus.coeffs, len(c)
    top = [dict(row) for row in product[:t]]
    u = [list(e) + [0] * (len(mod) - 1 - len(e)) for e, _ in map(field.reduce, c)]
    for j in range(len(product) - t):
        w = [a - u[j][-1] * m for a, m in zip([0] + u[j][:-1], mod)]
        for d, row in enumerate(top):
            if v := row.get(j):
                w = [a - v * y for a, y in zip(w, u[d])]
        u.append(w)
    return field, tuple(_normal(w, 1) for w in u)


def periodic_fixed_point(ms: MatrixSeq, tol_bits: int = DEFAULT_PREC) -> FixedPoint:
    """Solve gamma_n f_{n-1} = f_n A_n for a periodic companion sequence.

    Finds a primitive rotation, builds Q(lambda) on the Perron factor of its
    product, starts a left eigenvector u from the cofactors of E(lambda)
    (_perron_field), and propagates it unnormalised around the cycle.  Every
    enclosure the result gives is at most 2^-tol_bits wide; gamma_vs_one
    records the exact comparisons.  InvariantViolation if a check fails.
    """
    q = ms.q
    n_star, product = ms.primitive_rotation()
    field, start = _perron_field(product)
    lam = field.generator()

    u_elems: list = [None] * q
    invs: list = [None] * q
    gamma_elems: list = [None] * q
    u = start
    for step in range(q):
        n = n_star - step
        try:
            inv = field.inv(u[0])
        except ZeroDivisionError:  # u_n[0] != 0 when the start is a Perron eigenvector
            raise InvariantViolation("a propagated first entry is zero") from None
        u_elems[n % q], invs[n % q] = u, inv
        u = left_mul(field, u, ms.sparse(n))
        # gamma_n f_{n-1} = f_n A_n with f_n = u_n / u_n[0] and u_{n-1} = u_n A_n
        gamma_elems[n % q] = field.mul(u[0], inv)

    # cycle closure: u_{n*} Q = lambda u_{n*}
    for got, want in zip(u, start):
        if not field.is_zero(field.sub(got, field.mul(lam, want))):
            raise InvariantViolation("fixed point failed to close")

    # the q gammas multiply to the Perron root
    prod = field.from_fraction(1)
    for g in gamma_elems:
        prod = field.mul(prod, g)
    if not field.is_zero(field.sub(prod, lam)):
        raise InvariantViolation("gamma product must equal lambda")

    gamma_vs_one = tuple(field.compare_int(g, 1) for g in gamma_elems)
    if min(gamma_vs_one) < (1 if isinstance(ms.shape, ParryShape) else 0):
        raise InvariantViolation("parry shapes force every gamma > 1, finite shapes gamma >= 1")

    return FixedPoint(
        shape=ms.shape,
        field=field,
        rotation=n_star % q,
        gamma_elems=tuple(gamma_elems),
        gamma_vs_one=gamma_vs_one,
        u_elems=tuple(u_elems),
        u_lead_invs=tuple(invs),
        tol_bits=tol_bits,
    )


# -- identity checks -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    n: int
    item: str
    ok: bool


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_identities(ms: MatrixSeq, fp: FixedPoint) -> IdentityReport:
    """Decide the telescoping summation identities exactly in Q(lambda).

    For the Parry shape, item 2 expresses 1 by the first h digits plus an
    f-correction and item 3 closes the tail; for the finite shape a single
    sum over all k columns equals 1.  Each sum is the value of a finite
    digit word with an f-entry (or 0) as its tail, read in the base
    beta_i = gamma_{-i} of the fixed point, so one exact zero test of its
    difference from the target decides it.
    """
    field, q, k = fp.field, ms.q, ms.k
    zero, one = field.from_fraction(0), field.from_fraction(1)
    ops = FieldOps(field, [fp.gamma_elems[(-i) % q] for i in range(q)])

    def f(n: int, j: int) -> Elem:
        return fp.f_elems[n % q][j - 1]

    def check(n: int, item: str, first: int, last: int, tail: Elem, target: Elem) -> IdentityCheck:
        """Whether the word of digits a_{n+j,j}, j = first..last, followed by
        tail, is worth target over the denominators gamma_{n+first} ... gamma_{n+j}."""
        digits = [ms.digit(n + j, j) for j in range(first, last + 1)]
        acc = _fold(ops, -(n + first - 1), digits, tail)
        return IdentityCheck(n, item, field.is_zero(field.sub(acc, target)))

    checks: list[IdentityCheck] = []
    for n in range(q):
        if isinstance(ms.shape, ParryShape):
            h = ms.shape.h
            checks.append(check(n, "unit-sum", 1, h, f(n + h, h + 1), one))
            checks.append(check(n, "tail-sum", h + 1, k, f(n + k, h + 1), f(n + h, h + 1)))
        else:
            checks.append(check(n, "unit-sum", 1, k, zero, one))
    return IdentityReport(tuple(checks))
