"""Greedy and quasi-greedy expansions in periodic alternate bases.

Value convention: a fractional word a_1 a_2 ... read at shift i of the base
is worth sum_{n>=1} a_n / (beta_{i-1} beta_{i-2} ... beta_{i-n}); integer
digits a_{N-1} ... a_0 are worth a_0 + a_1 beta_0 + a_2 beta_1 beta_0 + ...
Word values come from bases._val_word, which val_up encloses.

The greedy digits of x >= 1 start from the least N with
x < beta_{N-1} ... beta_0; then r_{N-1} = x / (beta_{N-1} ... beta_0) and
a_n = floor(beta_n r_n), r_{n-1} = beta_n r_n - a_n for n < N.  The
quasi-greedy expansion of 1 at shift i keeps its remainder in (0, 1] by
taking ceilings minus one instead of floors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Iterator, NamedTuple, Optional, Union

from .bases import AlternateBase, _val_word
from .errors import Undecidable
from .numerics import IntervalReal
from .words import UPWord, shift_suffix


def val_up(base: AlternateBase, shift: int, w: UPWord) -> IntervalReal:
    """Enclosure of val at the given shift of the base; exact backends give points.

    With a rational or field backend the value is computed in closed form
    (the periodic tail is a geometric factor delta^(period/p) / (that - 1)),
    so dyadic rational answers come back as exact point intervals and
    everything else is outward-rounded at base.prec only at the very end;
    base.refine(bits) gives other bits.
    """
    ops = base.ops
    if not ops.exact:
        ops = ops.interval_ops(base.prec)
    return ops.enclosure(_val_word(ops, shift, w), base.prec)


class GreedyExpansion(NamedTuple):
    """Greedy digits of x: integer part a_{N-1}..a_0, then a_{-1}..a_{-count}."""

    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...]
    terminated: bool  # remainder certified exactly zero

    @property
    def n(self) -> int:
        return len(self.int_digits)


def _expansion_ops(base: AlternateBase, x):
    """Choose the value backend and lift x into it."""
    ops = base.ops
    if isinstance(x, IntervalReal):
        if x.is_point() and ops.exact:
            return ops, ops.lift(x.lo.as_fraction())
        return ops.interval_ops(base.prec), x
    return ops, ops.lift(Fraction(x))


def greedy_expand(
    base: AlternateBase, x: Union[int, Fraction, IntervalReal], count: int
) -> GreedyExpansion:
    """Greedy expansion of x >= 0: all integer digits plus count fractional ones.

    Raises FloorUndecidable (or Undecidable) when the base is held only as
    intervals too wide to pin a digit down; exact backends always decide.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    ops, v = _expansion_ops(base, x)
    if ops.sign(v) < 0:
        raise ValueError("greedy expansion needs x >= 0")
    # least N with x < beta_{N-1} ... beta_0
    n_int = 0
    prod = ops.lift(1)
    while ops.sign(ops.sub(prod, v)) <= 0:
        prod = ops.mul(prod, ops.beta(n_int))
        n_int += 1
    r = ops.div(v, prod) if n_int > 0 else v
    # digits a_{N-1} ... a_0, then a_{-1} ... a_{-count}
    digits: list[int] = []
    for n in (*range(n_int - 1, -1, -1), *range(-1, -count - 1, -1)):
        t = ops.mul(ops.beta(n), r)
        a = ops.floor(t)
        digits.append(a)
        r = ops.sub(t, ops.lift(a))
    return GreedyExpansion(tuple(digits[:n_int]), tuple(digits[n_int:]), ops.is_zero(r))


def quasi_greedy_expand_one(
    base: AlternateBase, shift: int, count: int
) -> tuple[int, ...]:
    """First count digits of the quasi-greedy expansion of 1 at the given shift.

    The remainder starts at 1 and stays in (0, 1]: each digit is
    ceil(beta_{shift-n} * r) - 1.  Raises CeilUndecidable when an
    interval-only base cannot certify a ceiling.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return tuple(d for d, _ in islice(_qg_steps(base.ops, shift), count))


def _qg_steps(ops, shift: int) -> Iterator[tuple[int, object]]:
    """(digit, remainder after it) of the quasi-greedy expansion of 1, forever."""
    r = ops.lift(1)
    n = 0
    while True:
        n += 1
        t = ops.mul(ops.beta(shift - n), r)
        d = ops.ceil(t) - 1
        r = ops.sub(t, ops.lift(d))
        yield d, r


class GreedyVerdict(NamedTuple):
    ok: bool
    violation_k: Optional[int] = None  # least k with a suffix value >= 1

    def __bool__(self) -> bool:
        return self.ok


def is_greedy(base: AlternateBase, w: UPWord) -> GreedyVerdict:
    """Decide whether the fractional word w is a greedy expansion in the base.

    w is greedy exactly when, for every k >= 1, the suffix a_k a_{k+1} ...
    read at shift 1-k has value strictly below 1.  Suffix/shift pairs repeat
    after the preperiod with period lcm(|period|, p), so finitely many
    checks settle it.  Raises Undecidable when an interval-only base leaves
    some suffix value straddling 1.
    """
    ops = base.ops
    kmax = len(w.preperiod) + lcm(len(w.period), base.p)
    for k in range(1, kmax + 1):
        suffix = shift_suffix(w, k - 1)
        if ops.exact:
            if ops.sign(ops.sub(_val_word(ops, 1 - k, suffix), ops.lift(1))) >= 0:
                return GreedyVerdict(False, k)
        else:
            enc = val_up(base, 1 - k, suffix)
            if enc.lo.as_fraction() >= 1:
                return GreedyVerdict(False, k)
            if not enc.hi.as_fraction() < 1:
                raise Undecidable(
                    f"suffix value at k={k} straddles 1: {enc}; refine the base"
                )
    return GreedyVerdict(True)
