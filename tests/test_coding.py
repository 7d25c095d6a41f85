"""Substitutions, B-integer enumeration, gap tables, faithful codings."""

from fractions import Fraction

import pytest

from altbase import coding
from altbase.bases import AlternateBase
from altbase.coding import (
    BInteger,
    Directive,
    Substitution,
    WindowedBase,
    ar_letter_map,
    ar_to_eta,
    base_from_directive,
    derive_qg_words,
    enumerate_b_integers,
    eta,
    faithful_coding,
    gap_substitution,
    gap_table,
    ncf_to_eta,
    sadic_limit,
)
from altbase.errors import DepthExhausted, DLessThanN, NoLimit
from altbase.expansion import greedy_expand, is_greedy, val_up
from altbase.numerics import Dyadic, IntPoly
from altbase.numerics.algebraic import RealAlgebraicField
from altbase.synthesis import synthesize_periodic
from altbase.words import ExpansionList, UPWord, parse_word


def brackets_root(enc, poly: IntPoly) -> bool:
    lo, hi = enc.lo.as_fraction(), enc.hi.as_fraction()
    return poly.eval_fraction(lo) * poly.eval_fraction(hi) < 0


def word_str(w) -> str:
    return "".join(map(str, w))


GOLDEN = IntPoly([-1, -1, 1])
SQRT3P1 = IntPoly([-2, -2, 1])
TRIBONACCI = IntPoly([-1, -1, -1, 1])


# -- substitution families ------------------------------------------------------


def test_eta_examples():
    assert eta((1, 1)).rules == ((0, (0, 1)), (1, (0,)))
    assert eta((2, 2)).rules == ((0, (0, 0, 1)), (1, (0, 0)))
    assert eta((1, 1, 1)).rules == ((0, (0, 1)), (1, (0, 2)), (2, (0,)))


def test_eta_rejects_bad_blocks():
    with pytest.raises(ValueError):
        eta((1, 2))
    with pytest.raises(ValueError):
        eta((2,))
    with pytest.raises(ValueError):
        eta((1, 0))


def test_substitution_apply_and_domain():
    s = eta((2, 1))
    assert s.domain == (0, 1)
    assert s.apply((0, 1, 0)) == (0, 0, 1, 0, 0, 0, 1)
    with pytest.raises(KeyError):
        s.image(2)


def test_ar_letter_maps():
    l0 = ar_letter_map(2, 0)
    assert l0.image(0) == (0,) and l0.image(1) == (0, 1)
    l1 = ar_letter_map(2, 1)
    assert l1.image(0) == (1, 0) and l1.image(1) == (1,)
    with pytest.raises(ValueError):
        ar_letter_map(2, 2)


def test_ar_to_eta_examples():
    assert ar_to_eta(3, (1, 1)).blocks == ((1, 1, 1), (1, 1, 1))
    assert ar_to_eta(2, (3, 1)).blocks == ((3, 1), (1, 1))
    with pytest.raises(ValueError):
        ar_to_eta(1, (2,))
    with pytest.raises(ValueError):
        ar_to_eta(2, (0,))


def test_ncf_to_eta_examples():
    assert ncf_to_eta(2, (2, 2)).blocks == ((2, 2), (2, 2))
    assert ncf_to_eta(1, (1, 2, 1)).blocks == ((1, 1), (2, 1), (1, 1))
    with pytest.raises(DLessThanN):
        ncf_to_eta(3, (2,))


def test_directive_validation():
    with pytest.raises(ValueError):
        Directive(())
    with pytest.raises(ValueError):
        Directive(((1, 1), (1, 1, 1)))


# -- S-adic limits ---------------------------------------------------------------


def test_sadic_fibonacci_prefix():
    assert word_str(sadic_limit(eta((1, 1)), 13)) == "0100101001001"


def test_sadic_tribonacci_prefix():
    assert word_str(sadic_limit(eta((1, 1, 1)), 13)) == "0102010010201"


def test_sadic_matches_plain_iteration():
    def iterate(sub, length):
        w = (0,)
        while len(w) < length:
            w = sub.apply(w)
        return w[:length]

    for c in ((1, 1), (2, 2), (1, 1, 1)):
        assert sadic_limit(eta(c), 200) == iterate(eta(c), 200)


def test_sadic_no_limit_paths():
    with pytest.raises(NoLimit):
        sadic_limit(Substitution.from_map({0: (0,)}), 5)
    with pytest.raises(NoLimit):
        sadic_limit(Substitution.from_map({0: (1, 0), 1: (0,)}), 5)
    with pytest.raises(NoLimit):
        sadic_limit(Directive(((1, 1),), periodic=False), 30)


def test_sadic_zero_length():
    assert sadic_limit(eta((1, 1)), 0) == ()


def test_ar_regularity():
    # the eta directive of a regular Arnoux-Rauzy product generates the same
    # word as composing the letter maps directly
    for k, exps in ((2, (3, 1)), (2, (2, 1)), (3, (1, 1, 1)), (3, (2, 2, 2))):
        maps = []
        for n, a in enumerate(exps):
            maps.extend([ar_letter_map(k, n % k)] * a)
        assert sadic_limit(ar_to_eta(k, exps), 200) == sadic_limit(maps, 200)


# -- B-integer enumeration -------------------------------------------------------


def test_enumerate_base_two():
    base = AlternateBase.from_rationals([2])
    ints = enumerate_b_integers(base, 6)
    assert [b.digits for b in ints] == [(), (1,), (1, 0), (1, 1), (1, 0, 0), (1, 0, 1)]
    for n, b in enumerate(ints):
        assert b.value.is_point() and b.value.lo.as_fraction() == n


def test_enumerate_golden_zeckendorf():
    base = base_from_directive(Directive(((1, 1),)))
    ints = enumerate_b_integers(base, 6)
    assert [b.digits for b in ints] == [
        (),
        (1,),
        (1, 0),
        (1, 0, 0),
        (1, 0, 1),
        (1, 0, 0, 0),
    ]
    phi = base.beta(0)
    phi2 = phi.mul(phi, 64)
    assert phi2.contains_interval(ints[3].value) or ints[3].value.contains_interval(phi2)
    assert ints[2].value.lo == phi.lo and ints[2].value.hi == phi.hi


def test_enumerate_pair_base_consecutive():
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    base, _ = synthesize_periodic(lst)
    ints = enumerate_b_integers(base, 8)
    assert [b.digits for b in ints] == [
        (),
        (1,),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]
    for n, b in enumerate(ints):
        assert b.value.contains(Fraction(n))
        assert b.value.width() <= Dyadic(1, -60)


def test_enumerate_values_increase():
    for base in (
        base_from_directive(Directive(((1, 1),))),
        base_from_directive(Directive(((2, 2), (1, 1)))),
    ):
        ints = enumerate_b_integers(base, 20)
        for a, b in zip(ints, ints[1:]):
            assert a.value.certainly_lt(b.value)


def _digit_value(ops, digits):
    """Reference value sum a_n beta_{n-1} ... beta_0, rebuilt from the digits."""
    v = ops.lift(0)
    weight = ops.lift(1)
    for n, a in enumerate(reversed(digits)):
        if a:
            v = ops.add(v, ops.mul(ops.lift(a), weight))
        weight = ops.mul(weight, ops.beta(n))
    return v


@pytest.mark.parametrize(
    "make",
    [
        lambda: base_from_directive(Directive(((1, 1),))),
        lambda: base_from_directive(Directive(((1, 1, 1),))),
        lambda: base_from_directive(Directive(((2, 2), (1, 1)))),
        lambda: AlternateBase.from_rationals([3, 2]),
    ],
    ids=["golden", "tribonacci", "22-11", "rational-3-2"],
)
def test_enumerate_exact_values_match_digits(make):
    base = make()
    ops = base.value_ops()
    for b in enumerate_b_integers(base, 200):
        assert ops.is_zero(ops.sub(b.exact, _digit_value(ops, b.digits)))


def test_binteger_value_encloses_exact():
    base = base_from_directive(Directive(((1, 1),)))
    b = enumerate_b_integers(base, 5)[4]
    assert b.value.width() <= Dyadic(1, -base.prec)
    assert b.value.contains_interval(base.value_ops().enclosure(b.exact, 2 * base.prec))
    # equality and repr go by the digits only
    assert b == BInteger(b.digits, None, base)
    assert "exact" not in repr(b)


def test_enumerate_aperiodic_rational_base_skips_derivation(monkeypatch):
    # the quasi-greedy expansion of 1 in base 3/2 never becomes periodic, so
    # deriving its words would run to the cap and find nothing
    calls = []
    monkeypatch.setattr(coding, "derive_qg_words", lambda *a: calls.append(a))
    base = AlternateBase.from_rationals([Fraction(3, 2)])
    ints = enumerate_b_integers(base, 40)
    assert calls == []
    for b in ints:
        g = greedy_expand(base, b.value, 4)
        assert (g.int_digits, g.terminated) == (b.digits, True)
    for a, b in zip(ints, ints[1:]):
        assert a.value.certainly_lt(b.value)


def test_enumerate_interval_only_base():
    base = AlternateBase([Fraction(2)])
    assert base.ops is None
    ints = enumerate_b_integers(base, 6)
    assert [b.digits for b in ints] == [(), (1,), (1, 0), (1, 1), (1, 0, 0), (1, 0, 1)]
    for n, b in enumerate(ints):
        assert b.value.contains(Fraction(n))


def test_enumerate_rejects_zero_count():
    with pytest.raises(ValueError):
        enumerate_b_integers(AlternateBase.from_rationals([2]), 0)


# -- quasi-greedy word derivation -------------------------------------------------


def test_derive_qg_words_rational_bases():
    assert derive_qg_words(AlternateBase.from_rationals([2])) == (UPWord((), (1,)),)
    got = derive_qg_words(AlternateBase.from_rationals([3, 2]))
    assert got == (UPWord((), (2, 1)), UPWord((), (1, 2)))


def test_derive_qg_words_rejects_aperiodic():
    base = AlternateBase.from_rationals([Fraction(3, 2)])
    with pytest.raises(ValueError):
        derive_qg_words(base, cap=200)


def test_derive_qg_words_needs_exact_backend():
    base = AlternateBase([Fraction(2)])  # interval backend only
    with pytest.raises(ValueError):
        derive_qg_words(base)


# -- gap tables -------------------------------------------------------------------


def test_gap_table_golden():
    base = base_from_directive(Directive(((1, 1),)))
    t = gap_table(base, 0, depth=8)
    assert t.alphabet == (0, 1)
    assert t.pi == (0, 1, 0, 1, 0, 1, 0, 1)
    assert t.deltas[0].is_point() and t.deltas[0].lo.as_fraction() == 1
    # the second gap is phi - 1, a root of x^2 + x - 1
    assert brackets_root(t.deltas[1], IntPoly([-1, 1, 1]))
    assert t.deltas[0].certainly_gt(t.deltas[1])


def test_gap_table_base_two_single_class():
    base = AlternateBase.from_rationals([2])
    t = gap_table(base, 0, depth=6)
    assert t.alphabet == (0,)
    assert set(t.pi) == {0}
    assert all(d.is_point() and d.lo.as_fraction() == 1 for d in t.deltas)


def test_gap_table_tribonacci():
    base = base_from_directive(Directive(((1, 1, 1),)))
    t = gap_table(base, 0, depth=9)
    assert t.alphabet == (0, 1, 2)
    assert t.pi == (0, 1, 2) * 3
    # strict chain 1 = delta_0 > delta_1 > delta_2, with delta_1 = beta - 1
    assert t.deltas[0].certainly_gt(t.deltas[1])
    assert t.deltas[1].certainly_gt(t.deltas[2])
    assert brackets_root(t.deltas[1], IntPoly([-2, 0, 2, 1]))


def test_gap_table_pair_base_single_class():
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    base, _ = synthesize_periodic(lst)
    for m in (0, 1):
        t = gap_table(base, m, depth=6)
        assert t.alphabet == (0,)
        assert t.deltas[0].is_point() and t.deltas[0].lo.as_fraction() == 1


def test_gap_table_shift_periodic():
    base = base_from_directive(Directive(((2, 2), (1, 1))))
    a, b = gap_table(base, 0), gap_table(base, 2)
    assert a.pi == b.pi and a.alphabet == b.alphabet


def test_gap_table_memo_per_shift(monkeypatch):
    calls = []
    real = coding._val_word
    monkeypatch.setattr(coding, "_val_word", lambda *a: calls.append(a) or real(*a))
    base = base_from_directive(Directive(((2, 2), (1, 1))))
    t0 = gap_table(base, 0)
    t2 = gap_table(base, 2)
    assert t2.m == 2
    assert (t2.pi, t2.alphabet, t2.deltas) == (t0.pi, t0.alphabet, t0.deltas)
    built = len(calls)
    assert built == 16
    assert gap_table(base, 0) == t0 and gap_table(base, 2) == t2
    assert len(calls) == built
    assert base.shifted(1)._gap_tables == {}


def test_gap_table_rejects_bad_value_data():
    base = AlternateBase(
        [Fraction(2)],
        ops=AlternateBase.from_rationals([2]).ops,
        qg_words=(UPWord((), (2,)),),
    )
    with pytest.raises(ValueError):
        gap_table(base)


def test_gap_table_needs_an_exact_backend():
    base = AlternateBase([Fraction(2)], qg_words=(UPWord((), (1,)),))
    with pytest.raises(ValueError, match="synthesize_periodic"):
        gap_table(base)
    with pytest.raises(ValueError, match="synthesize_periodic"):
        faithful_coding(base, 10)
    # the same words give the exact base the message points to
    exact, _ = synthesize_periodic(ExpansionList(base.qg_words))
    assert gap_table(exact).alphabet == (0,)


@pytest.mark.parametrize("depth", [0, -1])
def test_gap_table_rejects_nonpositive_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        gap_table(AlternateBase.from_rationals([2]), depth=depth)


def test_gap_table_json_shape():
    base = base_from_directive(Directive(((1, 1),)))
    blob = gap_table(base, 0, depth=4).to_json()
    assert set(blob) == {"shift", "delta", "pi", "alphabet"}
    assert blob["pi"] == [0, 1, 0, 1]
    assert all({"lo", "hi"} <= set(d) for d in blob["delta"])


# -- the eta correspondence --------------------------------------------------------


def test_phi_matches_eta_golden():
    base = base_from_directive(Directive(((1, 1),)))
    assert gap_substitution(base, 0) == eta((1, 1))


def test_phi_matches_eta_tribonacci():
    base = base_from_directive(Directive(((1, 1, 1),)))
    assert gap_substitution(base, 0) == eta((1, 1, 1))


def test_phi_matches_eta_directive_blocks():
    blocks = ((2, 2), (1, 1))
    base = base_from_directive(Directive(blocks))
    for m in range(4):
        assert gap_substitution(base, m) == eta(blocks[m % 2])
    sq3 = base_from_directive(Directive(((2, 2),)))
    assert gap_substitution(sq3, 0) == eta((2, 2))


# -- faithful codings ---------------------------------------------------------------


def test_coding_fibonacci():
    base = base_from_directive(Directive(((1, 1),)))
    assert word_str(faithful_coding(base, 13)) == "0100101001001"


def test_coding_tribonacci():
    base = base_from_directive(Directive(((1, 1, 1),)))
    assert word_str(faithful_coding(base, 7)) == "0102010"


def test_coding_base_two_constant():
    base = AlternateBase.from_rationals([2])
    assert word_str(faithful_coding(base, 5)) == "00000"


def test_coding_agreement_long():
    # the direct gap classification and the S-adic limit are compared inside
    # faithful_coding; here we also pin the word to the directive's own limit
    cases = (((1, 1),), ((2, 2),), ((1, 1, 1),), ((2, 2), (1, 1)))
    for blocks in cases:
        base = base_from_directive(Directive(blocks))
        assert faithful_coding(base, 200) == sadic_limit(Directive(blocks), 200)


def test_coding_pair_base_constant():
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    base, _ = synthesize_periodic(lst)
    assert faithful_coding(base, 200) == (0,) * 200


def test_coding_mul_and_row_counts(monkeypatch):
    base = base_from_directive(Directive(((1, 1),)))
    counts = {"mul": 0, "val_word": 0}
    real_mul = RealAlgebraicField.mul
    real_val_word = coding._val_word

    def mul(self, a, b):
        counts["mul"] += 1
        return real_mul(self, a, b)

    def val_word(*args):
        counts["val_word"] += 1
        return real_val_word(*args)

    monkeypatch.setattr(RealAlgebraicField, "mul", mul)
    monkeypatch.setattr(coding, "_val_word", val_word)
    faithful_coding(base, 1000)
    assert counts["mul"] <= 4 * 1000
    assert counts["val_word"] == base.p * 16


def test_coding_shallow_table_raises():
    base = base_from_directive(Directive(((1, 1, 1),)))
    with pytest.raises(DepthExhausted):
        faithful_coding(base, 30, depth=2)


# -- bases from directives -----------------------------------------------------------


def test_directive_base_golden():
    base = base_from_directive(Directive(((1, 1),)))
    assert base.p == 1
    assert brackets_root(base.beta(0), GOLDEN)
    assert base.qg_word(0) == UPWord((), (1, 0))


def test_directive_base_sqrt3():
    base = base_from_directive(Directive(((2, 2),)))
    assert brackets_root(base.beta(0), SQRT3P1)
    assert base.qg_word(0) == UPWord((), (2, 1))
    # the greedy expansion of 1 carries value exactly 1 and beats its suffixes
    v = val_up(base, 0, parse_word("22(0)"))
    assert v.is_point() and v.lo.as_fraction() == 1
    assert not is_greedy(base, base.qg_word(0)).ok


def test_directive_base_tribonacci():
    base = base_from_directive(Directive(((1, 1, 1),)), tol_bits=80)
    assert brackets_root(base.beta(0), TRIBONACCI)
    assert base.beta(0).width() <= Dyadic(1, -80)
    assert base.qg_word(0) == UPWord((), (1, 1, 0))


def test_directive_base_two_blocks():
    base = base_from_directive(Directive(((2, 2), (1, 1))))
    assert base.p == 2
    assert base.qg_word(0) == UPWord((), (1,))
    assert base.qg_word(1) == UPWord((), (2, 0))
    for i in (0, 1):
        v = val_up(base, i, base.qg_word(i))
        assert v.is_point() and v.lo.as_fraction() == 1


def test_window_constant_two_two():
    periodic = base_from_directive(Directive(((2, 2),)))
    w1 = base_from_directive(Directive(((2, 2),)), window=1)
    # the windowed beta is phi^2, a root of x^2 - 3x + 1, not 1 + sqrt 3
    assert brackets_root(w1.beta(0), IntPoly([1, -3, 1]))
    x, y = w1.beta(0), periodic.beta(0)
    assert x.hi < y.lo or y.hi < x.lo
    w2 = base_from_directive(Directive(((2, 2), (2, 2))), window=2)
    assert brackets_root(w2.beta(1), IntPoly([20, -10, 1]))


def test_window_aperiodic_directive():
    d = Directive(((3, 1), (2, 1), (1, 1)), periodic=False)
    w = base_from_directive(d, tol_bits=80)
    assert isinstance(w, WindowedBase)
    assert len(w.betas) == 3
    assert w.width() <= Dyadic(1, -80)
    # the first beta sits above the first directive entry
    assert w.beta(0).lo.as_fraction() > 3
    with pytest.raises(IndexError):
        w.beta(3)


def test_window_bounds_checked():
    d = Directive(((2, 2),))
    with pytest.raises(ValueError):
        base_from_directive(d, window=0)
    with pytest.raises(ValueError):
        base_from_directive(d, window=2)


def test_derived_qg_words_are_memoised_on_the_base(monkeypatch):
    calls = []
    real = coding.derive_qg_words
    monkeypatch.setattr(coding, "derive_qg_words", lambda base, *a: calls.append(base) or real(base, *a))
    base = AlternateBase.from_rationals([3, 2])
    word = faithful_coding(base, 200)
    assert len(calls) == 1
    assert faithful_coding(base, 200) == word
    assert len(calls) == 1
