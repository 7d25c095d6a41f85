"""Companion-shaped matrix sequences and their periodic Perron fixed point.

A periodic sequence of non-negative integer matrices A_n admits unique
sequences gamma_n > 0 and non-negative row vectors f_n with first entry 1
satisfying gamma_n f_{n-1} = f_n A_n, provided some window product is
positive.  For matrices with no zero row (all shapes here), that window
hypothesis is equivalent to some rotation of the one-period product being
primitive, which is checked, never assumed.

The fixed point is computed exactly and uses the companion shape at every
step.  Each A_n has a dense first row and a unit below the diagonal, and a
product Q of p of them has about (p+1)k non-zero entries, so the rotation
product and the Faddeev-LeVerrier adjugate of (xI - Q) go through those
entries only.  The Perron root lambda of Q is isolated on the squarefree
charpoly; the field Q(lambda) is then built on what is left after its
cyclotomic factors (artefacts of padding the periods to a common length)
are divided out, with the same isolating bracket, and it divides out any
other factor that an inverse runs into.  The first adjugate row at lambda
is a left eigenvector u of Q.  It is carried around the cycle
unnormalised, u_{n-1} = u_n A_n, by additions and small integer scalings;
gamma_n = u_{n-1}[0] / u_n[0] costs one inverse per step, and the cycle
closes exactly when u comes back as lambda times itself.  Since every
A_n >= 0, only the k entries of the starting u need a sign check.  The
normalised f_n = u_n / u_n[0] and their enclosures are built
on first access.  Checks raise InvariantViolation, not assert, so quantities
like gamma = 1 are decided, not approximated, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import InvariantViolation, NotPrimitive, Undecidable, ZeroLeadDigit
from .numerics import (
    IntervalReal,
    IsolatedRoot,
    RealAlgebraicField,
    drop_trivial_factors,
    faddeev_leverrier,
    isolate_dominant,
)
from .numerics.algebraic import Elem
from .numerics.polynomials import _mat_mul, sparse_rows
from .words import ExpansionList, UPWord

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ParryShape:
    """First row of digits, identity below-left, extra unit at (h+1, k)."""

    h: int


@dataclass(frozen=True)
class FiniteShape:
    """First row of digits, identity below-left, zero last column below."""


Shape = Union[ParryShape, FiniteShape]


def _as_int_matrix(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in m)


def _is_primitive(m: IntMatrix) -> bool:
    """Some power of m is positive; checked up to the Wielandt bound."""
    k = len(m)
    base = [sum(1 << j for j in range(k) if m[i][j]) for i in range(k)]
    full = (1 << k) - 1
    power = base[:]
    for _ in range((k - 1) ** 2 + 1):
        if all(row == full for row in power):
            return True
        power = [
            _or_rows(power[i], base) for i in range(k)
        ]
    return False


def _or_rows(mask: int, rows: list[int]) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= rows[i]
        mask >>= 1
        i += 1
    return out


class MatrixSeq:
    """Purely periodic sequence of companion-shaped non-negative matrices."""

    __slots__ = ("matrices", "shape", "_sparse")

    def __init__(self, matrices: Sequence[Sequence[Sequence[int]]], shape: Shape):
        mats = tuple(_as_int_matrix(m) for m in matrices)
        if not mats:
            raise ValueError("need at least one matrix")
        k = len(mats[0])
        if k < 2:
            raise ValueError("matrices must have size at least 2")
        if isinstance(shape, ParryShape) and not 1 <= shape.h <= k - 1:
            raise ValueError(f"shape parameter h={shape.h} outside [1, {k - 1}]")
        for a in mats:
            self._check_shape(a, k, shape)
        self.matrices = mats
        self.shape = shape
        self._sparse = tuple(sparse_rows(a) for a in mats)

    @staticmethod
    def _check_shape(a: IntMatrix, k: int, shape: Shape) -> None:
        if len(a) != k or any(len(row) != k for row in a):
            raise ValueError("matrices must be square and equally sized")
        if any(v < 0 for row in a for v in row):
            raise ValueError("matrix entries must be non-negative")
        if a[0][0] < 1:
            raise ZeroLeadDigit("leading digit a_{n,1} must be at least 1")
        unit_row = shape.h if isinstance(shape, ParryShape) else None
        for i in range(1, k):
            for j in range(k):
                expected = 1 if j == i - 1 else 0
                if i == unit_row and j == k - 1:
                    expected = 1
                if a[i][j] != expected:
                    raise ValueError(
                        f"row {i + 1} violates the companion shape at column {j + 1}"
                    )

    @property
    def q(self) -> int:
        return len(self.matrices)

    @property
    def k(self) -> int:
        return len(self.matrices[0])

    def matrix(self, n: int) -> IntMatrix:
        return self.matrices[n % self.q]

    def digit(self, n: int, j: int) -> int:
        """First-row digit a_{n,j}, j 1-indexed."""
        return self.matrices[n % self.q][0][j - 1]

    def sparse(self, n: int) -> list[list[tuple[int, int]]]:
        """A_n as the (column, value) pairs of its non-zero entries, row by row."""
        return self._sparse[n % self.q]

    def rotation_product(self, n: int) -> IntMatrix:
        """Q_n = A_n A_{n-1} ... A_{n-q+1}, multiplied from the right end.

        Each step multiplies by a companion-shaped left factor, so it costs
        one row operation per non-zero of that factor.
        """
        out = self.matrix(n - self.q + 1)
        for step in range(self.q - 2, -1, -1):
            out = _mat_mul(self.sparse(n - step), out)
        return tuple(tuple(row) for row in out)

    def primitive_rotation(self) -> tuple[int, IntMatrix]:
        """(n, Q_n) for the first rotation n whose product Q_n is primitive."""
        for n in range(self.q):
            product = self.rotation_product(n)
            if _is_primitive(product):
                return n, product
        raise NotPrimitive(
            "no rotation of the period product is primitive; "
            "the positivity hypothesis fails"
        )

    def to_json(self) -> dict:
        tag = (
            {"shape": "parry", "h": self.shape.h}
            if isinstance(self.shape, ParryShape)
            else {"shape": "finite"}
        )
        return {**tag, "k": self.k, "period": self.q,
                "matrices": [[list(r) for r in m] for m in self.matrices]}

    def __repr__(self) -> str:
        return f"MatrixSeq(q={self.q}, k={self.k}, {self.shape!r})"


# -- builders -----------------------------------------------------------------


def build_parry_matrices(lst: ExpansionList) -> tuple[MatrixSeq, int, int]:
    """Matrices for p quasi-greedy words, aligned to preperiod Mp, period Np.

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
        if a.digit(1) < 1:
            raise ZeroLeadDigit("expansion must not start with digit 0")
        entries.append(a)

    max_pre = max(len(a.preperiod) for a in entries)
    m_steps = max(1, -(-max_pre // p))
    np_len = p
    for a in entries:
        np_len = lcm(np_len, len(a.period))
    n_steps = np_len // p
    k = (m_steps + n_steps) * p
    h = m_steps * p

    mats = []
    for n in range(p):
        first = [entries[(j - n) % p].digit(j) for j in range(1, k + 1)]
        rows = [first]
        for i in range(1, k):
            row = [0] * k
            row[i - 1] = 1
            if i == h:
                row[k - 1] = 1
            rows.append(row)
        mats.append(rows)
    return MatrixSeq(mats, ParryShape(h)), m_steps, n_steps


def build_finite_matrices(directive: Sequence[Sequence[int]]) -> MatrixSeq:
    """Finite-shape matrices for a purely periodic substitution directive.

    directive[m] is the parameter tuple of the m-th substitution in the
    period; matrix A_n takes its first row from the tuple at index
    (-n) mod q, matching the indexing a_{m} <-> directive[m-1] extended
    periodically to all integers.
    """
    params = [tuple(int(v) for v in c) for c in directive]
    if not params:
        raise ValueError("directive must be non-empty")
    k = len(params[0])
    if any(len(c) != k for c in params):
        raise ValueError("all directive tuples must have the same length")
    q = len(params)
    mats = []
    for n in range(q):
        first = list(params[(-n) % q])
        rows = [first]
        for i in range(1, k):
            row = [0] * k
            row[i - 1] = 1
            rows.append(row)
        mats.append(rows)
    return MatrixSeq(mats, FiniteShape())


# -- the fixed point -----------------------------------------------------------


@dataclass
class SpectralData:
    """Exact form of the fixed point inside Q(lambda).

    u_elems[n] is the unnormalised left vector u_n and u_lead_invs[n] the
    inverse of its first entry; f_elems[n] = u_n / u_n[0] is built on first
    read.
    """

    field: RealAlgebraicField
    rotation: int
    lam: Elem
    gamma_elems: tuple[Elem, ...]
    u_elems: tuple[tuple[Elem, ...], ...]
    u_lead_invs: tuple[Elem, ...]

    @cached_property
    def f_elems(self) -> tuple[tuple[Elem, ...], ...]:
        field = self.field
        return tuple(
            tuple(field.mul(e, inv) for e in row)
            for row, inv in zip(self.u_elems, self.u_lead_invs)
        )


class _EnclosedOnRead:
    """FixedPoint.fs, a dataclass field whose default None means "not built yet".

    The first read encloses spectral.f_elems and keeps the result.  As a
    descriptor-typed field it still goes through the generated __init__,
    __eq__, __repr__ and dataclasses.replace.
    """

    def __get__(self, fp, owner=None):
        if fp is None:
            return None  # the field's default
        fs = fp.__dict__["_fs"]
        if fs is None:
            # every f_n >= 0 was certified on the starting vector, so the sign is 0 or 1
            field = fp.spectral.field
            fs = fp.__dict__["_fs"] = tuple(
                tuple(
                    _certified_enclosure(field, e, 0 if field.is_zero(e) else 1, fp.tol_bits)
                    for e in row
                )
                for row in fp.spectral.f_elems
            )
        return fs

    def __set__(self, fp, value):
        fp.__dict__["_fs"] = value


@dataclass
class FixedPoint:
    """Certified enclosures of the fixed point, each at most 2^-tol_bits wide.

    fs is enclosed on first read, from the field's root as refined by then.
    The intervals are certified whatever the order of reads, but their
    endpoints depend on how far other enclosures had refined that shared
    root before.
    """

    shape: Shape
    gammas: tuple[IntervalReal, ...]
    gamma_vs_one: tuple[int, ...]  # exact trichotomy of gamma_n against 1
    lam: IntervalReal
    spectral: SpectralData
    tol_bits: int
    fs: tuple[tuple[IntervalReal, ...], ...] = _EnclosedOnRead()

    @property
    def q(self) -> int:
        return len(self.gammas)

    @property
    def k(self) -> int:
        return len(self.spectral.u_elems[0])

    def refined(self, tol_bits: int) -> "FixedPoint":
        if tol_bits <= self.tol_bits:
            return self
        return _enclose_fixed_point(self.shape, self.spectral, self.gamma_vs_one, tol_bits)


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


def _enclose_fixed_point(
    shape: Shape, sp: SpectralData, gamma_vs_one: tuple[int, ...], tol_bits: int
) -> FixedPoint:
    field = sp.field
    gammas = []
    for g, cmp in zip(sp.gamma_elems, gamma_vs_one):
        if cmp == 0:
            gammas.append(IntervalReal.exact(1))
        else:
            # certify the strict lower bound by signing gamma - 1
            enc = _certified_enclosure(field, field.sub(g, field.from_fraction(1)), 1, tol_bits)
            gammas.append(enc.add(IntervalReal.exact(1)))
    lam = _certified_enclosure(field, sp.lam, 1, tol_bits)
    return FixedPoint(shape, tuple(gammas), gamma_vs_one, lam, sp, tol_bits)


def _perron_field(product: IntMatrix) -> tuple[RealAlgebraicField, list[list[list[int]]]]:
    """Q(lambda) for the Perron root lambda of a primitive product, and adj(xI - Q).

    The root is isolated on the squarefree charpoly, and the field is built
    on that polynomial without its cyclotomic factors, in the same bracket,
    so the refinement grid is the same.  Any other factor left over is
    divided out later by the field itself (RealAlgebraicField.inv).
    """
    chi, adj = faddeev_leverrier(product)
    root = isolate_dominant(chi, max(sum(row) for row in product))
    if not root.is_exact():
        root = IsolatedRoot(drop_trivial_factors(root.poly), root.lo, root.hi)
    return RealAlgebraicField(root), adj


def periodic_fixed_point(ms: MatrixSeq, tol_bits: int = 64) -> FixedPoint:
    """Solve gamma_n f_{n-1} = f_n A_n for a periodic companion sequence.

    Finds a primitive rotation, builds Q(lambda) on the Perron factor of its
    product, takes the first adjugate row at lambda as the left eigenvector
    u, and propagates it unnormalised around the cycle.  Every interval
    returned has width <= 2^-tol_bits; gamma_vs_one records the exact
    comparisons.  InvariantViolation if a certificate check fails.
    """
    q, k = ms.q, ms.k
    n_star, product = ms.primitive_rotation()
    field, adj = _perron_field(product)
    lam = field.generator()
    zero = field.from_fraction(0)

    start = tuple(field.reduce(adj[0][j]) for j in range(k))
    signs = [field.sign(e) for e in start]
    if signs[0] <= 0:
        raise InvariantViolation("adjugate corner must be positive at the Perron root")
    if min(signs) < 0:
        raise InvariantViolation("fixed-point vectors must be non-negative")

    u_elems: list = [None] * q
    invs: list = [None] * q
    gamma_elems: list = [None] * q
    u = start
    for step in range(q):
        n = n_star - step
        inv = field.inv(u[0])
        u_elems[n % q], invs[n % q] = u, inv
        image: list = [None] * k
        for i, row in enumerate(ms.sparse(n)):
            for j, v in row:
                t = u[i] if v == 1 else field.scalar_mul(v, u[i])
                image[j] = t if image[j] is None else field.add(image[j], t)
        # gamma_n f_{n-1} = f_n A_n with f_n = u_n / u_n[0] and u_{n-1} = u_n A_n
        gamma_elems[n % q] = field.mul(image[0], inv)
        u = tuple(zero if e is None else e for e in image)

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

    sp = SpectralData(
        field=field,
        rotation=n_star % q,
        lam=lam,
        gamma_elems=tuple(gamma_elems),
        u_elems=tuple(u_elems),
        u_lead_invs=tuple(invs),
    )
    return _enclose_fixed_point(ms.shape, sp, gamma_vs_one, tol_bits)


# -- identity checks -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    n: int
    item: str
    ok: bool
    enclosure: IntervalReal
    target: IntervalReal


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_identities(ms: MatrixSeq, fp: FixedPoint) -> IdentityReport:
    """Evaluate the telescoping summation identities in interval arithmetic.

    For the Parry shape, item 2 expresses 1 by the first h digits plus an
    f-correction and item 3 closes the tail; for the finite shape a single
    sum over all k columns equals 1.  A check passes when the target value
    lies inside (or overlaps, for interval targets) the computed enclosure,
    so widening enclosures never turns a true identity into a failure.
    """
    q, k = ms.q, ms.k
    one = IntervalReal.exact(1)

    def gamma(n: int) -> IntervalReal:
        return fp.gammas[n % q]

    def f(n: int, j: int) -> IntervalReal:
        return fp.fs[n % q][j - 1]

    checks: list[IdentityCheck] = []
    for n in range(q):
        if isinstance(ms.shape, ParryShape):
            h = ms.shape.h
            denom = one
            acc = IntervalReal.exact(0)
            for j in range(1, h + 1):
                denom = denom.mul(gamma(n + j))
                acc = acc.add(IntervalReal.exact(ms.digit(n + j, j)).div(denom))
            acc = acc.add(f(n + h, h + 1).div(denom))
            checks.append(IdentityCheck(n, "unit-sum", acc.contains(Fraction(1)), acc, one))

            denom = one
            acc = IntervalReal.exact(0)
            for j in range(h + 1, k + 1):
                denom = denom.mul(gamma(n + j))
                acc = acc.add(IntervalReal.exact(ms.digit(n + j, j)).div(denom))
            acc = acc.add(f(n + k, h + 1).div(denom))
            target = f(n + h, h + 1)
            ok = acc.intersect(target) is not None
            checks.append(IdentityCheck(n, "tail-sum", ok, acc, target))
        else:
            denom = one
            acc = IntervalReal.exact(0)
            for j in range(1, k + 1):
                denom = denom.mul(gamma(n + j))
                acc = acc.add(IntervalReal.exact(ms.digit(n + j, j)).div(denom))
            checks.append(IdentityCheck(n, "unit-sum", acc.contains(Fraction(1)), acc, one))
    return IdentityReport(tuple(checks))
