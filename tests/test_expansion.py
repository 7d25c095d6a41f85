from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altbase.bases import AlternateBase, FieldOps, IntervalOps
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
from altbase.words import canonicalize

GOLDEN = IntPoly([-1, -1, 1])


def golden_base() -> AlternateBase:
    field = RealAlgebraicField(IsolatedRoot(GOLDEN, Dyadic(1), Dyadic(2)))
    phi = field.generator()
    enc = field.enclosure(phi, 64)
    return AlternateBase((enc,), ops=FieldOps(field, (phi,)), prec=64)


BASE2 = AlternateBase.from_rationals([2])
BASE32 = AlternateBase.from_rationals([3, 2])


def words(pre, per):
    return canonicalize(tuple(pre), tuple(per))


# -- base plumbing -----------------------------------------------------------


def test_base_orientation():
    # display order is (beta_{p-1}, ..., beta_0)
    assert BASE32.p == 2
    assert BASE32.beta(0).contains(Fraction(2))
    assert BASE32.beta(1).contains(Fraction(3))
    assert BASE32.beta(-1).contains(Fraction(3))
    assert BASE32.beta(2).contains(Fraction(2))
    assert BASE32.delta().contains(Fraction(6))


def test_base_rejects_beta_at_most_one():
    with pytest.raises(ValueError):
        AlternateBase.from_rationals([1])
    with pytest.raises(ValueError):
        AlternateBase.from_rationals([2, Fraction(9, 10)])


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
