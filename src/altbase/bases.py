"""Periodic alternate bases and the value backends they compute in.

A periodic alternate base of period p is the tuple (beta_0, ..., beta_{p-1})
with every beta > 1; index arithmetic is mod p, so beta_{n+p} = beta_n for
all integers n.  The library takes and stores the betas in this ascending
order; only the CLI text and the certificate JSON print the paper's display
order (beta_{p-1}, ..., beta_0).  The value of a fractional digit word
a_1 a_2 ... read at shift i is

    sum_{n >= 1} a_n / (beta_{i-1} beta_{i-2} ... beta_{i-n}),

with the base indices descending.  Integer digits a_{N-1} ... a_0 carry the
weights 1, beta_0, beta_1 beta_0, and so on.  Every such sum in the library
is one Horner fold, _fold, from the innermost digit, on either backend.

Digit extraction needs floors, ceilings, and comparisons against 1 that are
actually correct, so a base can carry an exact backend: arithmetic in a real
algebraic number field, which is Q(lambda) when the betas come from a Perron
eigenvector and Q[x]/(x) when every beta is a fraction.  A base given no
backend computes in its outward-rounded beta enclosures, and any decision
the intervals cannot settle raises instead of guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import CeilUndecidable, FloorUndecidable, Undecidable
from .numerics import Dyadic, IntervalReal, IntPoly, IsolatedRoot
from .numerics.algebraic import Elem, RealAlgebraicField
from .numerics.intervals import DEFAULT_PREC, ONE
from .words import UPWord, format_word

Rational = Union[int, Fraction]


class FieldOps:
    """Exact arithmetic in a real algebraic field containing the betas."""

    exact = True

    def __init__(self, field: RealAlgebraicField, beta_elems: Sequence[Elem]):
        self.field = field
        self.beta_elems = tuple(beta_elems)
        # divisor -> inverse.  An inverse stays valid when the field shrinks
        # its modulus: the new modulus divides the old one, and mul reduces
        # the product by it.
        self._inverses: dict[Elem, Elem] = {}
        self._delta: Optional[Elem] = None

    @property
    def p(self) -> int:
        return len(self.beta_elems)

    def lift(self, q: Rational) -> Elem:
        return self.field.from_fraction(Fraction(q))

    def beta(self, i: int) -> Elem:
        return self.beta_elems[i % self.p]

    def delta(self) -> Elem:
        """The period product, computed once; every shift shares it."""
        if self._delta is None:
            out = self.lift(1)
            for b in self.beta_elems:
                out = self.field.mul(out, b)
            self._delta = out
        return self._delta

    def add(self, a, b):
        return self.field.add(a, b)

    def sub(self, a, b):
        return self.field.sub(a, b)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def div(self, a, b):
        inv = self._inverses.get(b)
        if inv is None:
            inv = self._inverses[b] = self.field.inv(b)
        return self.field.mul(a, inv)

    def sign(self, a) -> int:
        return self.field.sign(a)

    def is_zero(self, a) -> bool:
        return self.field.is_zero(a)

    def floor(self, a) -> int:
        enc = self.field.enclosure(a, 32)
        m = math.floor(enc.lo.as_fraction())
        # enc.lo <= a, so m <= a; push up until m+1 exceeds the element
        while self.field.compare_int(a, m + 1) >= 0:
            m += 1
        return m

    def ceil(self, a) -> int:
        m = self.floor(a)
        return m if self.field.compare_int(a, m) == 0 else m + 1

    def enclosure(self, a, prec: int = DEFAULT_PREC) -> IntervalReal:
        return self.field.enclosure(a, prec)

    def interval_ops(self, prec: int) -> "IntervalOps":
        """Interval backend on the betas enclosed to width <= 2^-prec."""
        return IntervalOps(tuple(self.field.enclosure(b, prec) for b in self.beta_elems), prec)

    def shifted(self, i: int) -> "FieldOps":
        p = self.p
        elems = tuple(self.beta_elems[(j + i) % p] for j in range(p))
        ops = FieldOps(self.field, elems)
        ops._delta = self._delta
        return ops


class IntervalOps:
    """Outward-rounded interval arithmetic; decisions can be undecidable."""

    exact = False

    def __init__(self, betas: Sequence[IntervalReal], prec: int = DEFAULT_PREC):
        self.betas = tuple(betas)
        self.prec = prec

    @property
    def p(self) -> int:
        return len(self.betas)

    def lift(self, q) -> IntervalReal:
        if isinstance(q, IntervalReal):
            return q
        return IntervalReal.from_fraction(Fraction(q), self.prec)

    def beta(self, i: int) -> IntervalReal:
        return self.betas[i % self.p]

    def delta(self) -> IntervalReal:
        out = IntervalReal.exact(1)
        for b in self.betas:
            out = out.mul(b, self.prec)
        return out

    def add(self, a, b):
        return a.add(b, self.prec)

    def sub(self, a, b):
        return a.sub(b, self.prec)

    def mul(self, a, b):
        return a.mul(b, self.prec)

    def div(self, a, b):
        return a.div(b, self.prec)

    def sign(self, a: IntervalReal) -> int:
        if a.is_point() and a.lo.sign() == 0:
            return 0
        s = a.sign()
        if s == 0:
            raise Undecidable(f"sign of {a} straddles zero")
        return s

    def is_zero(self, a: IntervalReal) -> bool:
        return a.is_point() and a.lo.sign() == 0

    def floor(self, a: IntervalReal) -> int:
        lo = math.floor(a.lo.as_fraction())
        hi = math.floor(a.hi.as_fraction())
        if lo != hi:
            raise FloorUndecidable(f"floor of {a} spans {lo}..{hi}")
        return lo

    def ceil(self, a: IntervalReal) -> int:
        lo = math.ceil(a.lo.as_fraction())
        hi = math.ceil(a.hi.as_fraction())
        if lo != hi:
            raise CeilUndecidable(f"ceiling of {a} spans {lo}..{hi}")
        return lo

    def enclosure(self, a: IntervalReal, prec: int = DEFAULT_PREC) -> IntervalReal:
        return a

    def interval_ops(self, prec: int) -> "IntervalOps":
        """The same enclosures, with arithmetic rounded at prec bits."""
        return IntervalOps(self.betas, prec)

    def shifted(self, i: int) -> "IntervalOps":
        p = self.p
        return IntervalOps(tuple(self.betas[(j + i) % p] for j in range(p)), self.prec)


def _fold(ops, shift: int, digits: Sequence[int], tail):
    """Value of 0 . digits followed by tail, read at the given shift.

    Horner from the innermost digit: tail <- (tail + d_n) / beta_{shift-n}
    for n = len(digits), ..., 1, which gives sum_n d_n / (beta_{shift-1} ...
    beta_{shift-n}) plus tail over the whole product.
    """
    for n in range(len(digits), 0, -1):
        tail = ops.div(ops.add(tail, ops.lift(digits[n - 1])), ops.beta(shift - n))
    return tail


def _val_word(ops, shift: int, w: UPWord):
    """Backend value of the fractional word w read at the given shift.

    The period, repeated to mm = lcm(|period|, p) digits, is folded and
    scaled by d / (d - 1), d = delta^(mm / p); the preperiod folds around it.
    """
    m = len(w.period)
    mm = math.lcm(m, ops.p)
    acc = _fold(ops, shift - len(w.preperiod), w.period * (mm // m), ops.lift(0))
    d = ops.lift(1)
    for _ in range(mm // ops.p):
        d = ops.mul(d, ops.delta())
    tail = ops.div(ops.mul(acc, d), ops.sub(d, ops.lift(1)))
    return _fold(ops, shift, w.preperiod, tail)


def _as_interval(b, prec: int) -> IntervalReal:
    if isinstance(b, IntervalReal):
        return b
    return IntervalReal.from_fraction(Fraction(b), prec)


class AlternateBase:
    """A periodic alternate base (beta_0, ..., beta_{p-1}) and its value backend.

    `betas` holds the enclosures in that ascending order and `ops` the
    backend: the exact one it was given, else intervals over `betas`.
    `qg_words`, the quasi-greedy expansions of 1 per shift, must be worth 1
    on an exact backend, and a word whose enclosed value excludes 1 is
    refused on an interval one; synthesis and coding.gap_table attach their
    own.
    """

    def __init__(
        self,
        betas,
        *,
        ops=None,
        qg_words: Optional[Sequence[UPWord]] = None,
        prec: int = DEFAULT_PREC,
    ):
        betas = tuple(_as_interval(b, prec) for b in betas)
        if not betas:
            raise ValueError("need at least one beta")
        for b in betas:
            if not b.lo > ONE:
                raise ValueError(f"every beta must be certified > 1, got {b}")
        if ops is not None and ops.p != len(betas):
            raise ValueError(f"a backend of period {ops.p} for {len(betas)} betas")
        self.betas = betas
        self.ops = ops = ops or IntervalOps(betas, prec)
        self.prec = prec
        if qg_words is not None:
            qg_words = tuple(qg_words)
            if len(qg_words) != len(betas):
                raise ValueError("need one quasi-greedy word per shift")
            for i, w in enumerate(qg_words):
                gap = ops.sub(_val_word(ops, i, w), ops.lift(1))
                # an exact backend decides the value; an enclosure can only refute it
                if not (ops.is_zero(gap) if ops.exact else gap.contains_zero()):
                    raise ValueError(f"word {format_word(w)} is not worth 1 at shift {i}")
        self.qg_words = qg_words
        # coding.gap_table memo, keyed by (shift mod p, depth)
        self._gap_tables: dict[tuple[int, int], object] = {}

    @classmethod
    def from_rationals(
        cls, betas: Sequence[Rational], prec: int = DEFAULT_PREC
    ) -> "AlternateBase":
        """Base from rational betas (beta_0, ..., beta_{p-1}) with the exact backend."""
        betas = [Fraction(b) for b in betas]
        # rationals are the constants of Q[x]/(x), evaluated at the root 0
        field = RealAlgebraicField(IsolatedRoot(IntPoly([0, 1]), Dyadic(0), Dyadic(0)))
        elems = tuple(field.from_fraction(b) for b in betas)
        return cls(betas, ops=FieldOps(field, elems), prec=prec)

    @classmethod
    def from_fixed_point(cls, fp, prec: int = DEFAULT_PREC) -> "AlternateBase":
        """Base (beta_i)_{i} with beta_i = gamma_{(-i) mod q} of a Perron fixed point."""
        q = len(fp.gammas)
        elems = tuple(fp.gamma_elems[(-i) % q] for i in range(q))
        enc = tuple(fp.gammas[(-i) % q] for i in range(q))
        return cls(enc, ops=FieldOps(fp.field, elems), prec=prec)

    @property
    def p(self) -> int:
        return len(self.betas)

    def beta(self, n: int) -> IntervalReal:
        """Enclosure of beta_n, indices taken mod p."""
        return self.betas[n % self.p]

    def qg_word(self, i: int) -> UPWord:
        if self.qg_words is None:
            raise ValueError("base carries no quasi-greedy expansion data")
        return self.qg_words[i % self.p]

    def shifted(self, i: int) -> "AlternateBase":
        """The base S^i(B) with beta'_n = beta_{n+i}."""
        p = self.p
        betas = tuple(self.betas[(j + i) % p] for j in range(p))
        out = AlternateBase(betas, ops=self.ops.shifted(i), prec=self.prec)
        if self.qg_words is not None:
            out.qg_words = tuple(self.qg_words[(j + i) % p] for j in range(p))
        return out

    def refine(self, prec: int) -> "AlternateBase":
        """Re-enclose the betas to width <= 2^-prec; an interval-only base comes back as is."""
        if not self.ops.exact:
            return self
        out = AlternateBase(self.ops.interval_ops(prec).betas, ops=self.ops, prec=prec)
        out.qg_words = self.qg_words
        return out

    def __repr__(self) -> str:
        return f"AlternateBase({self.betas!r})"
