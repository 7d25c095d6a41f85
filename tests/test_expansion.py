import math
import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from altbase.bases import AlternateBase, FieldOps, IntervalOps, _fold, _val_word
from altbase.errors import (
    CeilUndecidable,
    FloorUndecidable,
    Undecidable,
)
from altbase.expansion import (
    GreedyExpansion,
    greedy_expand,
    is_greedy,
    quasi_greedy_expand_one,
    val_up,
)
from altbase.numerics import Dyadic, IntervalReal, IntPoly, IsolatedRoot
from altbase.numerics.algebraic import RealAlgebraicField
from altbase.synthesis import synthesize_periodic
from altbase.words import ExpansionList, UPWord, canonicalize, parse_word

GOLDEN = IntPoly([-1, -1, 1])


def golden_base() -> AlternateBase:
    field = RealAlgebraicField(IsolatedRoot(GOLDEN, Dyadic(1), Dyadic(2)))
    phi = field.generator()
    enc = field.enclosure(phi, 64)
    return AlternateBase((enc,), ops=FieldOps(field, (phi,)), prec=64)


BASE2 = AlternateBase.from_rationals([2])
BASE32 = AlternateBase.from_rationals([2, 3])


def words(pre, per):
    return canonicalize(tuple(pre), tuple(per))


# -- base plumbing -----------------------------------------------------------


def test_base_orientation():
    # the betas are given as (beta_0, ..., beta_{p-1})
    assert BASE32.p == 2
    assert BASE32.beta(0).contains(Fraction(2))
    assert BASE32.beta(1).contains(Fraction(3))
    assert BASE32.beta(-1).contains(Fraction(3))
    assert BASE32.beta(2).contains(Fraction(2))
    assert BASE32.ops.delta() == BASE32.ops.lift(6)


def test_base_rejects_beta_at_most_one():
    with pytest.raises(ValueError):
        AlternateBase.from_rationals([1])
    with pytest.raises(ValueError):
        AlternateBase.from_rationals([2, Fraction(9, 10)])
    with pytest.raises(ValueError, match="at least one beta"):
        AlternateBase([])
    with pytest.raises(ValueError, match="one quasi-greedy word per shift"):
        AlternateBase([2, 3], qg_words=(UPWord((), (1,)),))
    with pytest.raises(ValueError, match="no quasi-greedy"):
        BASE32.qg_word(0)


def test_shifted_rotates_indices():
    s = BASE32.shifted(1)
    assert s.beta(0).contains(Fraction(3))
    assert s.beta(1).contains(Fraction(2))
    # shifting by the period is the identity
    s2 = BASE32.shifted(2)
    assert s2.beta(0).contains(Fraction(2))


def test_refine_tightens_enclosures():
    base = golden_base()
    tight = base.refine(128)
    assert tight.beta(0).width() <= Dyadic(1, -128)


# -- val_up ------------------------------------------------------------------


def test_val_one_in_base_two():
    v = val_up(BASE2, 0, words((), (1,)))
    assert v.is_point() and v.contains(Fraction(1))


def test_val_exact_one_both_shifts():
    v0 = val_up(BASE32, 0, words((), (2, 1)))
    assert v0.is_point() and v0.contains(Fraction(1))
    v1 = val_up(BASE32, 1, words((), (1, 2)))
    assert v1.is_point() and v1.contains(Fraction(1))


def test_val_21_in_base_two():
    # 2/2 + 1/4 + 2/8 + 1/16 + ... = 5/3, not dyadic so not a point
    v = val_up(BASE2, 0, words((), (2, 1)))
    assert v.contains(Fraction(5, 3))
    assert v.width() <= Dyadic(1, -60)


def test_val_shift_agrees_with_shifted_base():
    w = words((1,), (2, 1))
    for i in range(4):
        a = val_up(BASE32, i, w)
        b = val_up(BASE32.shifted(i), 0, w)
        assert a.lo == b.lo and a.hi == b.hi
        assert a.width() <= Dyadic(1, -60)


def test_val_preperiod_horner():
    # 0.1(0)^w in base 2 is 1/2
    v = val_up(BASE2, 0, words((1,), (0,)))
    assert v.is_point() and v.contains(Fraction(1, 2))


def test_val_interval_base_encloses_truth():
    wide = AlternateBase(
        (IntervalReal.from_fractions(Fraction(2), Fraction(201, 100)),)
    )
    v = val_up(wide, 0, words((), (1,)))
    # true values run over [1/1.01, 1] as beta runs over the enclosure
    assert v.contains(Fraction(1)) and v.contains(Fraction(100, 101))


# -- greedy ------------------------------------------------------------------


def test_greedy_three_quarters_base_two():
    e = greedy_expand(BASE2, Fraction(3, 4), 3)
    assert e.int_digits == ()
    assert e.frac_digits == (1, 1, 0)
    assert e.terminated


def test_greedy_seven_base_two():
    e = greedy_expand(BASE2, 7, 2)
    assert e.int_digits == (1, 1, 1)
    assert e.frac_digits == (0, 0)
    assert e.terminated


def test_greedy_one_in_golden():
    e = greedy_expand(golden_base(), 1, 3)
    assert e.int_digits == (1,)
    assert e.frac_digits == (0, 0, 0)
    assert e.terminated


def test_greedy_two_in_golden():
    # 2 = phi + phi^-2
    e = greedy_expand(golden_base(), 2, 4)
    assert e.int_digits == (1, 0)
    assert e.frac_digits == (0, 1, 0, 0)
    assert e.terminated


def test_greedy_five_sixths_alternating():
    e = greedy_expand(BASE32, Fraction(5, 6), 3)
    assert e.int_digits == ()
    assert e.frac_digits == (2, 1, 0)
    assert e.terminated


def test_greedy_rejects_negative():
    with pytest.raises(ValueError):
        greedy_expand(BASE2, Fraction(-1, 2), 2)


def test_greedy_point_interval_base_works():
    # exact dyadic betas stay points through interval arithmetic
    plain = AlternateBase((IntervalReal.exact(2),))
    e = greedy_expand(plain, Fraction(3, 4), 3)
    assert e.frac_digits == (1, 1, 0) and e.terminated


def test_greedy_wide_interval_base_raises():
    wide = AlternateBase(
        (IntervalReal.from_fractions(Fraction(2), Fraction(201, 100)),)
    )
    with pytest.raises((FloorUndecidable, Undecidable)):
        greedy_expand(wide, Fraction(499, 1000), 4)


def frac_values():
    return st.fractions(min_value=0, max_value=4, max_denominator=1000)


@st.composite
def rational_bases(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    betas = [
        draw(
            st.fractions(
                min_value=Fraction(11, 10), max_value=4, max_denominator=12
            )
        )
        for _ in range(p)
    ]
    return AlternateBase.from_rationals(betas)


def reconstruct(base: AlternateBase, e: GreedyExpansion) -> tuple[Fraction, Fraction]:
    # constants of Q[x]/(x), ascending: one numerator over the denominator
    asc = [Fraction(e[0][0], e[1]) for e in base.ops.beta_elems]
    p = len(asc)
    val = Fraction(0)
    weight = Fraction(1)
    for n, a in enumerate(reversed(e.int_digits)):
        val += a * weight
        weight *= asc[n % p]
    prod = Fraction(1)
    for n, a in enumerate(e.frac_digits, start=1):
        prod *= asc[(-n) % p]
        val += Fraction(a, 1) / prod
    return val, prod


def _series(asc, shift: int, digits, tail=Fraction(0)) -> Fraction:
    """sum_n d_n / (beta_{shift-1} ... beta_{shift-n}) plus tail over the last product."""
    total, prod = Fraction(0), Fraction(1)
    for n, d in enumerate(digits, start=1):
        prod *= asc[(shift - n) % len(asc)]
        total += d / prod
    return total + tail / prod


_digit_lists = st.lists(st.integers(0, 4), max_size=4)


@seed(27)
@settings(max_examples=80, deadline=None)
@given(rational_bases(), st.integers(-5, 5), _digit_lists, _digit_lists.filter(bool),
       st.fractions(0, 3, max_denominator=7))
def test_fold_and_val_word_match_the_fraction_closed_form(base, shift, pre, per, tail):
    ops = base.ops
    asc = [Fraction(e[0][0], e[1]) for e in ops.beta_elems]
    got = _fold(ops, shift, pre, ops.lift(tail))
    assert ops.is_zero(ops.sub(got, ops.lift(_series(asc, shift, pre, tail))))
    # the word pre (per)^w: digits and base indices repeat after pre and
    # lcm(|per|, p) more digits, scaled by one over that many betas
    w = words(pre, per)
    ell, mm = len(w.preperiod), lcm(len(w.period), len(asc))
    cycle = w.period * (mm // len(w.period))
    ratio = _series(asc, shift - ell, [0] * mm, Fraction(1))
    want = _series(asc, shift, w.preperiod, _series(asc, shift - ell, cycle) / (1 - ratio))
    assert ops.is_zero(ops.sub(_val_word(ops, shift, w), ops.lift(want)))
    assert val_up(base, shift, w).contains(want)
    assert _val_word(ops.interval_ops(64), shift, w).contains(want)


def _reference_val_word(ops, shift, w):
    """The word's value digit by digit: the period repeated to mm = lcm(|period|, p)
    digits, folded one beta at a time and scaled by d / (d - 1), d = delta^(mm / p)."""
    m = len(w.period)
    mm = lcm(m, ops.p)
    acc = _fold(ops, shift - len(w.preperiod), w.period * (mm // m), ops.lift(0))
    d = ops.lift(1)
    for _ in range(mm // ops.p):
        d = ops.mul(d, ops.delta())
    return _fold(ops, shift, w.preperiod, ops.div(ops.mul(acc, d), ops.sub(d, ops.lift(1))))


# admissible lists for p = 1..5 whose Perron fields have degree 3 or 4
FIXED_POINT_ROWS = (
    ("(302)",),
    ("3(2)", "32(1200)"),
    ("31(2)", "3(1)", "30(02)"),
    ("(2)", "3(01)", "3022(21)", "3(0110)"),
    ("30(21221)", "(2)", "3(20210)", "3(1)", "311(2)"),
)


@cache
def _fixed_point_base(texts):
    return synthesize_periodic(ExpansionList(tuple(parse_word(t) for t in texts)))[0]


def _block_words(p, rng):
    """Words with every preperiod length 0..p and every period length 1..p + 2."""
    out = []
    for pre_len in range(p + 1):
        for per_len in range(1, p + 3):
            pre = [rng.randint(0, 3) for _ in range(pre_len)]
            per = [rng.randint(0, 3) for _ in range(per_len - 1)] + [4]
            if pre:
                pre[-1] = 0  # never the period's last digit, so the preperiod stays
            out.append(UPWord(pre, per))
    return out


@pytest.mark.parametrize("base", [
    *(pytest.param(texts, id=f"p{len(texts)}") for texts in FIXED_POINT_ROWS),
    pytest.param((Fraction(3, 2),), id="rational-p1"),
    pytest.param((Fraction(5, 2), 3, Fraction(7, 5)), id="rational-p3"),
    pytest.param((2, Fraction(9, 4), Fraction(4, 3), 3), id="rational-p4"),
])
def test_val_word_by_period_blocks_equals_the_digit_fold(base):
    base = (_fixed_point_base(base) if isinstance(base[0], str)
            else AlternateBase.from_rationals(base))
    ops, p = base.ops, base.p
    field = ops.field
    ws = _block_words(p, random.Random(p))
    assert {len(w.preperiod) % p for w in ws} == set(range(p))
    assert any(len(w.period) > 1 and math.gcd(len(w.period), p) == 1 for w in ws)
    intervals = ops.interval_ops(64)
    for shift in range(-1, p + 1):
        for w in ws:
            got = _val_word(ops, shift, w)
            assert got == _reference_val_word(ops, shift, w)
            enc, exact = _val_word(intervals, shift, w), field.enclosure(got, 200)
            assert enc.lo <= exact.lo and exact.hi <= enc.hi


@settings(max_examples=60, deadline=None)
@given(rational_bases(), frac_values())
def test_greedy_roundtrip(base, x):
    e = greedy_expand(base, x, 40)
    val, prod = reconstruct(base, e)
    assert 0 <= x - val < 1 / prod
    if e.terminated:
        assert x == val


@settings(max_examples=40, deadline=None)
@given(frac_values())
def test_greedy_truncation_is_greedy(x):
    # a greedy word truncated to a finite prefix is still greedy
    e = greedy_expand(BASE32, x, 12)
    w = canonicalize(e.frac_digits, (0,))
    assert is_greedy(BASE32, w).ok


# -- quasi-greedy ------------------------------------------------------------


def test_qg_base_two_all_ones():
    assert quasi_greedy_expand_one(BASE2, 0, 6) == (1, 1, 1, 1, 1, 1)


def test_qg_golden_alternates():
    assert quasi_greedy_expand_one(golden_base(), 0, 6) == (1, 0, 1, 0, 1, 0)


def test_qg_alternating_base_both_shifts():
    assert quasi_greedy_expand_one(BASE32, 0, 6) == (2, 1, 2, 1, 2, 1)
    assert quasi_greedy_expand_one(BASE32, 1, 6) == (1, 2, 1, 2, 1, 2)


def test_qg_wide_interval_base_raises():
    wide = AlternateBase(
        (IntervalReal.from_fractions(Fraction(2), Fraction(201, 100)),)
    )
    with pytest.raises(CeilUndecidable):
        quasi_greedy_expand_one(wide, 0, 2)


@settings(max_examples=40, deadline=None)
@given(rational_bases(), st.integers(min_value=0, max_value=2))
def test_qg_partial_sums_bracket_one(base, shift):
    count = 30
    digits = quasi_greedy_expand_one(base, shift, count)
    asc = [Fraction(e[0][0], e[1]) for e in base.ops.beta_elems]
    p = len(asc)
    total = Fraction(0)
    prod = Fraction(1)
    for n, d in enumerate(digits, start=1):
        prod *= asc[(shift - n) % p]
        total += Fraction(d, 1) / prod
    # remainder r/prod with r in (0, 1]
    assert 0 < 1 - total <= 1 / prod


# -- is_greedy ---------------------------------------------------------------


def test_golden_11_not_greedy():
    v = is_greedy(golden_base(), words((1, 1), (0,)))
    assert not v.ok and v.violation_k == 1


def test_golden_qg_word_not_greedy():
    v = is_greedy(golden_base(), words((), (1, 0)))
    assert not v.ok and v.violation_k == 1


def test_golden_violation_inside_tail():
    # 0(10)^w: the k=1 value is 1/phi but the k=2 suffix has value 1
    v = is_greedy(golden_base(), words((0,), (1, 0)))
    assert not v.ok and v.violation_k == 2


def test_base_two_greedy_word():
    assert is_greedy(BASE2, words((1, 0, 1), (0,))).ok


def test_alternating_greedy_and_not():
    assert is_greedy(BASE32, words((2, 1), (0,))).ok
    v = is_greedy(BASE32, words((), (2, 1)))
    assert not v.ok and v.violation_k == 1


def test_is_greedy_undecidable_on_interval_base():
    field = RealAlgebraicField(IsolatedRoot(GOLDEN, Dyadic(1), Dyadic(2)))
    enc = field.enclosure(field.generator(), 64)
    plain = AlternateBase((enc,))  # enclosure only, no backend
    with pytest.raises(Undecidable):
        is_greedy(plain, words((), (1, 0)))


def test_digit_too_large_is_caught():
    v = is_greedy(BASE2, words((2,), (0,)))
    assert not v.ok and v.violation_k == 1


# -- exact backend bookkeeping -------------------------------------------------


def test_field_ops_inverts_each_divisor_once(monkeypatch):
    calls = []
    real_inv = RealAlgebraicField.inv
    monkeypatch.setattr(RealAlgebraicField, "inv", lambda self, a: calls.append(a) or real_inv(self, a))
    # (x^2-x-1)(x-3) with the bracket on the golden ratio
    field = RealAlgebraicField(IsolatedRoot(IntPoly([3, 2, -4, 1]), Dyadic(3, -1), Dyadic(7, -2)))
    phi = field.generator()
    ops = FieldOps(field, (phi,))
    one = ops.lift(1)
    ops.div(one, phi)  # inverted modulo the cubic
    ops.div(one, field.reduce([Fraction(-3), Fraction(1)]))  # x - 3 shrinks the modulus
    assert field.degree == 2
    # the cached inverse, reduced by the new modulus, is 1/phi = phi - 1
    assert ops.div(one, phi) == ((-1, 1), 1)
    assert len(calls) == 2


def test_field_skips_reduce_of_remainders(monkeypatch):
    field = RealAlgebraicField(IsolatedRoot(GOLDEN, Dyadic(1), Dyadic(2)))
    phi = field.generator()
    calls = []
    real_rem = RealAlgebraicField._rem
    monkeypatch.setattr(RealAlgebraicField, "_rem", lambda self, c: calls.append(c) or real_rem(self, c))
    assert not field.is_zero(phi)
    assert field.is_zero(field.from_fraction(0))
    assert field.enclosure(phi, 64).width() <= Dyadic(1, -64)
    assert calls == []
    # phi^2 - phi - 1 written out is not a remainder, so it is reduced
    assert field.is_zero(((-1, -1, 1), 1))
    assert len(calls) == 1


def test_field_ops_delta_is_computed_once(monkeypatch):
    field = RealAlgebraicField(IsolatedRoot(GOLDEN, Dyadic(1), Dyadic(2)))
    phi = field.generator()
    ops = FieldOps(field, (phi, field.add(phi, field.from_fraction(1))))
    calls = []
    real_mul = RealAlgebraicField.mul
    monkeypatch.setattr(RealAlgebraicField, "mul", lambda self, a, b: calls.append(a) or real_mul(self, a, b))
    delta = ops.delta()
    assert ops.delta() is delta
    # the period product does not depend on the shift
    assert ops.shifted(1).delta() is delta
    assert len(calls) == 2
    assert field.is_zero(field.sub(delta, field.mul(phi, field.mul(phi, phi))))


# -- the interval backend's edges ------------------------------------------------


def test_interval_ops_lift_keeps_an_interval_and_signs_only_what_excludes_zero():
    ops = IntervalOps([IntervalReal.exact(2)])
    x = IntervalReal(Dyadic(1), Dyadic(3))
    assert ops.lift(x) is x
    assert ops.sign(IntervalReal.exact(0)) == 0
    with pytest.raises(Undecidable, match="straddles zero"):
        ops.sign(IntervalReal(Dyadic(-1), Dyadic(1)))


def test_interval_only_base_shifts_its_backend_and_refines_to_itself():
    b = AlternateBase([IntervalReal(Dyadic(5, -1), Dyadic(11, -2)), 3], prec=80)
    s = b.shifted(1)
    assert not s.ops.exact
    assert s.betas == s.ops.betas == (b.betas[1], b.betas[0])
    assert s.ops.prec == 80
    assert b.refine(256) is b


def test_greedy_of_an_interval_on_an_exact_base_runs_on_intervals():
    base = AlternateBase.from_rationals([2])
    exact = greedy_expand(base, Fraction(5, 8), 3)
    wide = greedy_expand(base, IntervalReal(Dyadic(5, -3), Dyadic(5 * 2**17 + 1, -20)), 3)
    assert exact == GreedyExpansion((), (1, 0, 1), True)
    assert wide == GreedyExpansion((), (1, 0, 1), False)  # the remainder is no point


def test_is_greedy_finds_a_violation_on_an_interval_base():
    v = is_greedy(AlternateBase([2]), UPWord((), (1,)))  # (1)^omega is worth exactly 1 in base 2
    assert not v.ok and v.violation_k == 1
