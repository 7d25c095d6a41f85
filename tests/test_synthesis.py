import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altbase.bases import AlternateBase
from altbase.errors import DepthExhausted, NoSecondNonzero
from altbase.expansion import quasi_greedy_expand_one, val_up
from altbase.numerics import Dyadic, IntervalReal, IntPoly
from altbase.perron import ParryShape
from altbase.synthesis import (
    UNIQUE_BY_ALPHA,
    UNIQUE_BY_LEAD_DIGIT,
    UNIQUE_BY_UP,
    UNKNOWN,
    BoundsCert,
    bounds,
    certificate_json,
    certify,
    synthesize_general,
    synthesize_periodic,
    verify_value_one,
)
from altbase.words import DigitStream, ExpansionList, canonicalize, check_parry

GOLDEN = IntPoly([-1, -1, 1])
ONE_PLUS_SQRT3 = IntPoly([-2, -2, 1])


def brackets_root(enc: IntervalReal, poly: IntPoly) -> bool:
    lo = poly.eval_fraction(enc.lo.as_fraction())
    hi = poly.eval_fraction(enc.hi.as_fraction())
    if lo == 0 or hi == 0:
        return True
    return (lo < 0) != (hi < 0)


def words(*parts) -> ExpansionList:
    return ExpansionList(
        tuple(canonicalize(pre, per) for pre, per in parts), digit_max=9
    )


LAZY21 = lambda n: 2 if n % 2 == 1 else 1


# -- bounds -------------------------------------------------------------------


def test_bounds_single_21():
    cert = bounds(words(((), (2, 1))))
    assert (cert.H, cert.L, cert.C) == (2, 2, 3)
    assert cert.lower == Fraction(9, 8)


def test_bounds_pair():
    cert = bounds(words(((), (2, 1)), ((), (1, 2))))
    assert (cert.H, cert.L, cert.C) == (2, 2, 5)
    assert cert.lower == Fraction(25, 24)


def test_bounds_all_ones():
    cert = bounds(words(((), (1,))))
    assert (cert.H, cert.L, cert.C) == (1, 2, 2)
    assert cert.lower == Fraction(4, 3)


def test_bounds_later_second_nonzero():
    # 1 0 0 1 ... needs a length-4 prefix for two non-zeros
    cert = bounds(words(((1, 0, 0), (1,))))
    assert cert.L == 4


def test_bounds_stream_uses_declared_digit_bound():
    s = DigitStream(LAZY21, digit_max=7, description="wide-declared")
    cert = bounds(ExpansionList((s,), digit_max=7))
    assert cert.H == 7 and cert.L == 2


def test_bounds_rejects_single_nonzero():
    with pytest.raises(NoSecondNonzero):
        bounds(words(((2,), (0,))))
    s = DigitStream(lambda n: 1 if n == 1 else 0, digit_max=1, description="10^w")
    with pytest.raises(NoSecondNonzero):
        bounds(ExpansionList((s,), digit_max=1))


def test_e_bound_formula():
    cert = BoundsCert(2, 2, 3, Fraction(9, 8))
    assert cert.e_bound(5) == Fraction(2) / (Fraction(9, 8) ** 5 * Fraction(1, 8))


# -- synthesize_periodic ------------------------------------------------------


def test_synthesize_pair_gives_three_two():
    base, fp = synthesize_periodic(words(((), (2, 1)), ((), (1, 2))), 64)
    assert base.p == 2
    b1, b0 = base.betas
    assert b1.is_point() and b1.contains(Fraction(3))
    assert b0.is_point() and b0.contains(Fraction(2))
    assert isinstance(fp.shape, ParryShape)
    # the backend is exact: quasi-greedy digits come straight back
    assert quasi_greedy_expand_one(base, 0, 8) == (2, 1) * 4
    assert quasi_greedy_expand_one(base, 1, 8) == (1, 2) * 4


def test_synthesize_21_gives_one_plus_sqrt3():
    base, _ = synthesize_periodic(words(((), (2, 1))), 64)
    b = base.beta(0)
    assert brackets_root(b, ONE_PLUS_SQRT3)
    assert b.width() <= Dyadic(1, -64)


def test_synthesize_all_ones_gives_two():
    base, _ = synthesize_periodic(words(((), (1,))))
    assert base.beta(0).is_point() and base.beta(0).contains(Fraction(2))


def test_synthesize_golden():
    base, _ = synthesize_periodic(words(((), (1, 0))))
    assert brackets_root(base.beta(0), GOLDEN)


def test_synthesize_transforms_zero_tail():
    # greedy 2 0^w in base 2: transform yields 1^w, so beta = 2
    base, _ = synthesize_periodic(words(((2,), (0,))))
    assert base.beta(0).contains(Fraction(2))
    assert base.qg_word(0) == canonicalize((), (1,))


def test_synthesize_rejects_streams():
    s = DigitStream(LAZY21, digit_max=2, description="s")
    with pytest.raises(TypeError):
        synthesize_periodic(ExpansionList((s,), digit_max=2))


def test_synthesized_betas_inside_bounds():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base, _ = synthesize_periodic(lst, 64)
    cert = bounds(lst)
    for b in base.betas:
        assert b.lo.as_fraction() > cert.lower
        assert b.hi.as_fraction() <= cert.C


@st.composite
def parry_lists(draw):
    p = draw(st.integers(min_value=1, max_value=2))
    entries = []
    for _ in range(p):
        pre = tuple(draw(st.lists(st.integers(0, 2), min_size=0, max_size=2)))
        per = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
        first = draw(st.integers(2, 3))
        if pre:
            pre = (first,) + pre[1:]
        else:
            per = (first,) + per[1:]
        w = canonicalize(pre, per)
        assume(not w.is_zero_word())
        entries.append(w)
    lst = ExpansionList(tuple(entries), digit_max=9)
    assume(check_parry(lst).ok)
    return lst


@settings(max_examples=25, deadline=None)
@given(parry_lists())
def test_roundtrip_and_bounds_on_random_lists(lst):
    base, _ = synthesize_periodic(lst, 48)
    cert = bounds(ExpansionList(base.qg_words, lst.digit_max))
    for i in range(lst.p):
        want = base.qg_word(i).digits(30)
        assert quasi_greedy_expand_one(base, i, 30) == want
    for b in base.betas:
        assert b.lo.as_fraction() > cert.lower
        assert b.hi.as_fraction() <= cert.C
    for r in verify_value_one(base, ExpansionList(base.qg_words, lst.digit_max)):
        assert r.contains_zero()


# -- verify_value_one ---------------------------------------------------------


def test_residuals_zero_for_realized_pair():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base = AlternateBase.from_rationals([3, 2])
    for r in verify_value_one(base, lst):
        assert r.is_point() and r.contains_zero()


def test_residual_excludes_zero_for_wrong_base():
    # val of (21)^w in base 2 is 5/3, residual 2/3
    base = AlternateBase.from_rationals([2])
    (r,) = verify_value_one(base, words(((), (2, 1))))
    assert not r.contains_zero()
    assert r.contains(Fraction(2, 3))


def test_residual_excludes_zero_for_perturbed_base():
    lst = words(((), (2, 1)), ((), (1, 2)))
    perturbed = AlternateBase.from_rationals([3, Fraction(21, 10)])
    rs = verify_value_one(perturbed, lst)
    assert any(not r.contains_zero() for r in rs)


def test_residual_stream_partial_check():
    base = AlternateBase.from_rationals([2])
    ones = DigitStream(lambda n: 1, digit_max=1, description="ones")
    (r,) = verify_value_one(base, ExpansionList((ones,), digit_max=1))
    assert r.contains_zero()
    assert r.width() <= Dyadic(1, -32)


# -- synthesize_general -------------------------------------------------------


def lazy_list() -> ExpansionList:
    s = DigitStream(LAZY21, digit_max=2, description="lazy21")
    return ExpansionList((s,), digit_max=2)


def test_general_matches_periodic_path():
    gen, depth = synthesize_general(lazy_list(), tol_bits=40, max_depth=200)
    per, _ = synthesize_periodic(words(((), (2, 1))), 64)
    assert depth <= 200
    g, p = gen.beta(0), per.beta(0)
    assert g.contains_interval(p)
    assert brackets_root(g, ONE_PLUS_SQRT3)
    mid_dist = abs((g.mid() - p.mid()).as_fraction())
    assert mid_dist <= Fraction(1, 2**40)
    # inflation radius obeys the uniform tail bound
    cert = bounds(lazy_list())
    assert g.width().as_fraction() <= 2 * cert.e_bound(depth) + Fraction(1, 2**48)


def test_general_constant_stream():
    ones = DigitStream(lambda n: 1, digit_max=1, description="ones")
    base, depth = synthesize_general(
        ExpansionList((ones,), digit_max=1), tol_bits=40, max_depth=200
    )
    assert base.beta(0).contains(Fraction(2))
    assert depth <= 20


def test_general_depth_exhausted_reports_best():
    with pytest.raises(DepthExhausted) as info:
        synthesize_general(lazy_list(), tol_bits=40, max_depth=8)
    err = info.value
    assert err.depth == 8
    assert err.best is not None
    # best is the exact base of the deepest truncation, near 1+sqrt(3)
    mid = err.best.beta(0).mid().as_fraction()
    assert abs(mid - (1 + Fraction(17320508, 10**7))) < Fraction(1, 100)


def test_general_accepts_up_entries_too():
    base, _ = synthesize_general(words(((), (2, 1))), tol_bits=30, max_depth=120)
    assert brackets_root(base.beta(0), ONE_PLUS_SQRT3)


# -- certify ------------------------------------------------------------------


def test_certificate_for_pair():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base, _ = synthesize_periodic(lst, 64)
    cert = certify(lst, base)
    assert cert.parry_ok == (True, True)
    assert cert.uniqueness == UNIQUE_BY_UP
    assert cert.classification == ("quasi-greedy", "quasi-greedy")
    assert cert.ok


def test_certificate_greedy_classification():
    lst = words(((2,), (0,)))
    base, _ = synthesize_periodic(lst)
    cert = certify(lst, base)
    assert cert.classification == ("greedy",)
    assert cert.uniqueness == UNIQUE_BY_UP
    assert cert.ok


def test_certificate_lead_digit_rule():
    base, _ = synthesize_general(lazy_list(), tol_bits=30, max_depth=60)
    cert = certify(lazy_list(), base)
    assert cert.uniqueness == UNIQUE_BY_LEAD_DIGIT


def test_certificate_alpha_rule():
    # first digit 1 blocks the lead-digit rule; p=1 has alpha = 1 exactly
    ones = DigitStream(lambda n: 1, digit_max=1, description="ones")
    lst = ExpansionList((ones,), digit_max=1)
    base, _ = synthesize_general(lst, tol_bits=40, max_depth=60)
    cert = certify(lst, base)
    assert cert.uniqueness == UNIQUE_BY_ALPHA


def test_certificate_unknown_rule():
    # p=2 with a beta enclosure that dips below the golden ratio
    s0 = DigitStream(lambda n: 2 if n == 1 else 1, digit_max=2, description="s0")
    s1 = DigitStream(lambda n: 1, digit_max=2, description="s1")
    lst = ExpansionList((s0, s1), digit_max=2)
    base = AlternateBase.from_rationals([2, Fraction(3, 2)])
    cert = certify(lst, base)
    assert cert.uniqueness == UNKNOWN


def test_certificate_flags_violations():
    lst = words(((1, 2, 0), (0,)))  # 120 0^w fails admissibility at shift 1
    base = AlternateBase.from_rationals([2])
    cert = certify(lst, base)
    assert cert.parry_ok == (False,)
    assert not cert.ok


def test_distinct_lists_synthesize_disjoint_bases():
    a, _ = synthesize_periodic(words(((), (2, 1))), 64)
    b, _ = synthesize_periodic(words(((), (2, 2))), 64)
    x, y = a.beta(0), b.beta(0)
    assert x.hi < y.lo or y.hi < x.lo
    c, _ = synthesize_periodic(words(((), (2, 1)), ((), (1, 2))), 64)
    d, _ = synthesize_periodic(words(((), (3, 1)), ((), (1, 3))), 64)
    x, y = c.beta(1), d.beta(1)
    assert x.hi < y.lo or y.hi < x.lo


def test_certificate_json_shape_and_determinism():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base, _ = synthesize_periodic(lst, 64)
    payload = certificate_json(base, certify(lst, base))
    assert set(payload) == {
        "p",
        "betas",
        "residuals",
        "parry",
        "uniqueness",
        "classification",
    }
    assert payload["p"] == 2 and len(payload["betas"]) == 2
    assert payload["betas"][0]["lo"]["mantissa"] == 3
    again = certificate_json(base, certify(lst, base))
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_val_up_consistency_after_synthesis():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base, _ = synthesize_periodic(lst, 64)
    for i in range(2):
        v = val_up(base, i, base.qg_word(i))
        assert v.is_point() and v.contains(Fraction(1))
