import dataclasses
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altbase.bases import AlternateBase, FieldOps
from altbase.coding import derive_qg_words
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
from altbase.words import (
    DigitStream,
    ExpansionList,
    UPWord,
    canonicalize,
    check_parry,
    quasi_greedy_transform,
)
from test_numerics import eval_fraction

GOLDEN = IntPoly([-1, -1, 1])
ONE_PLUS_SQRT3 = IntPoly([-2, -2, 1])


def brackets_root(enc: IntervalReal, poly: IntPoly) -> bool:
    lo = eval_fraction(poly, enc.lo.as_fraction())
    hi = eval_fraction(poly, enc.hi.as_fraction())
    if lo == 0 or hi == 0:
        return True
    return (lo < 0) != (hi < 0)


def words(*parts) -> ExpansionList:
    return ExpansionList(tuple(canonicalize(pre, per) for pre, per in parts))


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
    cert = bounds(ExpansionList((s,)))
    assert cert.H == 7 and cert.L == 2


def test_bounds_rejects_single_nonzero():
    with pytest.raises(NoSecondNonzero):
        bounds(words(((2,), (0,))))
    s = DigitStream(lambda n: 1 if n == 1 else 0, digit_max=1, description="10^w")
    with pytest.raises(NoSecondNonzero):
        bounds(ExpansionList((s,)))


def test_e_bound_formula():
    cert = BoundsCert(2, 2, 3, Fraction(9, 8))
    assert cert.e_bound(5) == Fraction(2) / (Fraction(9, 8) ** 5 * Fraction(1, 8))


# -- synthesize_periodic ------------------------------------------------------


def test_synthesize_pair_gives_three_two():
    base, fp = synthesize_periodic(words(((), (2, 1)), ((), (1, 2))), 64)
    assert base.p == 2
    b0, b1 = base.betas
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
        synthesize_periodic(ExpansionList((s,)))


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
    lst = ExpansionList(tuple(entries))
    assume(check_parry(lst).ok)
    return lst


@settings(max_examples=25, deadline=None)
@given(parry_lists())
def test_roundtrip_and_bounds_on_random_lists(lst):
    base, _ = synthesize_periodic(lst, 48)
    cert = bounds(ExpansionList(base.qg_words))
    for i in range(lst.p):
        want = base.qg_word(i).digits(30)
        assert quasi_greedy_expand_one(base, i, 30) == want
    for b in base.betas:
        assert b.lo.as_fraction() > cert.lower
        assert b.hi.as_fraction() <= cert.C
    for r in verify_value_one(base, ExpansionList(base.qg_words)):
        assert r.contains_zero()


# -- verify_value_one ---------------------------------------------------------


def _patched_bounds(monkeypatch, **ends):
    """bounds() with these ends replaced, and the list of precisions refine() is asked for."""
    from altbase import synthesis

    real, calls, refine = synthesis.bounds, [], AlternateBase.refine
    monkeypatch.setattr(synthesis, "bounds", lambda lst: dataclasses.replace(real(lst), **ends))
    monkeypatch.setattr(AlternateBase, "refine", lambda self, prec: calls.append(prec) or refine(self, prec))
    return calls


def test_refinement_clears_a_lower_bound_the_first_enclosure_straddles(monkeypatch):
    lst = words(((), (2, 1)))  # 1 + sqrt(3)
    beta = synthesize_periodic(lst, tol_bits=200)[0].betas[0]
    lower = beta.lo.as_fraction() - Fraction(1, 2**100)  # below beta, inside a 2^-64 enclosure
    assert synthesize_periodic(lst, tol_bits=64)[0].betas[0].lo.as_fraction() <= lower
    calls = _patched_bounds(monkeypatch, lower=lower)
    base, _ = synthesize_periodic(lst, tol_bits=64)
    assert calls == [128]
    got = base.betas[0]
    assert lower < got.lo.as_fraction() and got.hi.as_fraction() <= bounds(lst).C


# beta = 1 + sqrt(3) lies in (lower, C] = (9/8, 3]: no enclosure of it has
# its lower end above 3, nor its upper end at most 2
@pytest.mark.parametrize("ends", [{"lower": Fraction(3)}, {"C": 2}])
def test_refinement_that_cannot_meet_the_bounds_exits_five(capsys, monkeypatch, ends):
    from altbase.cli import main

    calls = _patched_bounds(monkeypatch, **ends)
    code = main(["synthesize", "-p", "1", "(21)", "--tol", "64"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.startswith("error: invariant violated: beta enclosures settled outside (lower, C]")
    assert "Traceback" not in err
    assert calls == [128, 256, 512, 1024, 2048, 4096]  # max(4096, 64 * tol) bits at most


def test_residuals_zero_for_realized_pair():
    lst = words(((), (2, 1)), ((), (1, 2)))
    base = AlternateBase.from_rationals([2, 3])
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
    perturbed = AlternateBase.from_rationals([Fraction(21, 10), 3])
    rs = verify_value_one(perturbed, lst)
    assert any(not r.contains_zero() for r in rs)


def test_residual_stream_partial_check():
    base = AlternateBase.from_rationals([2])
    ones = DigitStream(lambda n: 1, digit_max=1, description="ones")
    (r,) = verify_value_one(base, ExpansionList((ones,)))
    assert r.contains_zero()
    assert r.width() <= Dyadic(1, -32)


def test_residual_stream_endpoints_are_pinned():
    # the stream lane folds depth digits in interval arithmetic and adds the
    # tail bound; these endpoints are the ones of a term-by-term Horner loop
    base = AlternateBase.from_rationals([Fraction(5, 2), 3])
    s0 = DigitStream(lambda n: 2 if n % 3 == 1 else 1, digit_max=2, description="s0")
    s1 = DigitStream(lambda n: n % 2, digit_max=1, description="s1")
    r0, r1 = verify_value_one(base, ExpansionList((s0, s1)), depth=40)
    assert (r0.lo, r0.hi) == (Dyadic(252704505613261969, -61), Dyadic(2021636044906095831, -64))
    assert (r1.lo, r1.hi) == (Dyadic(2483215548383978099, -62), Dyadic(2483215548383978109, -62))


# -- synthesize_general -------------------------------------------------------


def lazy_list() -> ExpansionList:
    s = DigitStream(LAZY21, digit_max=2, description="lazy21")
    return ExpansionList((s,))


def test_general_matches_periodic_path():
    gen, depth = synthesize_general(lazy_list(), tol_bits=40, max_depth=200)
    per, _ = synthesize_periodic(words(((), (2, 1))), 64)
    assert depth <= 200
    g, p = gen.beta(0), per.beta(0)
    assert g.lo <= p.lo and p.hi <= g.hi
    assert brackets_root(g, ONE_PLUS_SQRT3)
    mid_dist = abs((g.mid() - p.mid()).as_fraction())
    assert mid_dist <= Fraction(1, 2**40)
    # inflation radius obeys the uniform tail bound
    cert = bounds(lazy_list())
    assert g.width().as_fraction() <= 2 * cert.e_bound(depth) + Fraction(1, 2**48)


def test_general_constant_stream():
    ones = DigitStream(lambda n: 1, digit_max=1, description="ones")
    base, depth = synthesize_general(
        ExpansionList((ones,)), tol_bits=40, max_depth=200
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
    lst = ExpansionList((ones,))
    base, _ = synthesize_general(lst, tol_bits=40, max_depth=60)
    cert = certify(lst, base)
    assert cert.uniqueness == UNIQUE_BY_ALPHA


def test_certificate_unknown_rule():
    # p=2 with a beta enclosure that dips below the golden ratio
    s0 = DigitStream(lambda n: 2 if n == 1 else 1, digit_max=2, description="s0")
    s1 = DigitStream(lambda n: 1, digit_max=2, description="s1")
    lst = ExpansionList((s0, s1))
    base = AlternateBase.from_rationals([Fraction(3, 2), 2])
    cert = certify(lst, base)
    assert cert.uniqueness == UNKNOWN


def test_certificate_flags_violations():
    lst = words(((1, 2, 0), (0,)))  # 120 0^w fails admissibility at shift 1
    base = AlternateBase.from_rationals([2])
    cert = certify(lst, base)
    assert cert.parry_ok == (False,)
    assert not cert.ok


@pytest.mark.parametrize(
    "lst",
    [words(((), (2, 1, 1))), words(((), (2, 2)), ((), (3, 1)))],
    ids=["(211)", "(22) (31)"],
)
def test_certify_decides_value_one_exactly(lst):
    # beta_0 + 2^-1000 lies inside every printed enclosure, so only the
    # field can tell that the words are no longer worth 1
    base, _ = synthesize_periodic(lst)
    assert certify(lst, base).ok
    field = base.ops.field
    nudged = field.add(base.ops.beta(0), field.from_fraction(Fraction(1, 2**1000)))
    ops = FieldOps(field, (nudged, *base.ops.beta_elems[1:]))
    cert = certify(lst, AlternateBase(base.betas, ops=ops, prec=base.prec))
    assert cert.parry_ok == (True,) * lst.p
    assert not cert.ok
    assert not any(r.contains_zero() for r in cert.residuals)


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


def _census_words(digit_max, pre_max, per_max):
    """Every canonical word with preperiod <= pre_max, period <= per_max and lead digit >= 1."""
    found = {
        UPWord(pre, per)
        for lp in range(pre_max + 1)
        for lq in range(1, per_max + 1)
        for pre in product(range(digit_max + 1), repeat=lp)
        for per in product(range(digit_max + 1), repeat=lq)
    }
    return sorted((w for w in found if w.digit(1) >= 1), key=lambda w: (w.preperiod, w.period))


@pytest.mark.parametrize("p, digit_max, pre_max, per_max, lists, admissible", [
    (1, 3, 2, 3, 912, 317),
    (2, 2, 1, 2, 324, 90),
])
def test_census_admissible_lists_come_back_as_their_own_expansions(
    p, digit_max, pre_max, per_max, lists, admissible
):
    """Every list of these families that passes Parry is the list of expansions of 1 of its base.

    The exact round trip: the quasi-greedy words derived from the
    synthesized base, by exact cycle detection in Q(lambda), are the
    quasi-greedy transform of the list.  The words include those with a
    zero tail, and 1(0), which is not above 1 0^w, counts as a list that
    does not pass.  The ROADMAP's census counts (900 lists, 309 admissible;
    256 and 73) come from an enumeration without the zero-tail words.
    """
    seen = passed = 0
    for entries in product(_census_words(digit_max, pre_max, per_max), repeat=p):
        seen += 1
        try:
            lst = ExpansionList(entries)
        except ValueError:
            continue
        if not check_parry(lst).ok:
            continue
        passed += 1
        base, _ = synthesize_periodic(lst)
        assert derive_qg_words(base) == quasi_greedy_transform(lst.entries), entries
    assert (seen, passed) == (lists, admissible)
