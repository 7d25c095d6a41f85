"""Substitutions, B-integer enumeration, gap tables, faithful codings."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altbase import coding
from altbase.bases import AlternateBase, FieldOps
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
from altbase.cli import main
from altbase.errors import CodingMismatch, DepthExhausted, DLessThanN, NoLimit
from altbase.expansion import greedy_expand, is_greedy, val_up
from altbase.numerics import Dyadic, IntPoly, IsolatedRoot, alpha_root
from altbase.numerics.algebraic import RealAlgebraicField, _normal
from altbase.synthesis import synthesize_periodic
from altbase.words import (ExpansionList, UPWord, check_parry, lex_compare_up, parse_word,
                           shift_suffix)
from test_numerics import eval_fraction


def brackets_root(enc, poly: IntPoly) -> bool:
    lo, hi = enc.lo.as_fraction(), enc.hi.as_fraction()
    return eval_fraction(poly, lo) * eval_fraction(poly, hi) < 0


def is_exact_root(ops, poly: IntPoly, v) -> bool:
    """Whether poly(v) is exactly zero in the base's backend."""
    acc = ops.lift(0)
    for c in reversed(poly.coeffs):
        acc = ops.add(ops.mul(acc, v), ops.lift(c))
    return ops.is_zero(acc)


def is_one(ops, v) -> bool:
    return ops.is_zero(ops.sub(v, ops.lift(1)))


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
    v = ints[3].value
    assert (phi2.lo <= v.lo and v.hi <= phi2.hi) or (v.lo <= phi2.lo and phi2.hi <= v.hi)
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
            assert a.value.hi < b.value.lo


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
        lambda: AlternateBase.from_rationals([2, 3]),
        # weight denominators 2^n, on the digit scan
        lambda: AlternateBase.from_rationals([Fraction(3, 2)]),
        # betas 7/2 and 20/7: weight denominators 1 and 2, on the rank table
        lambda: synthesize_periodic(ExpansionList((parse_word("(2)"), parse_word("3(1)"))))[0],
    ],
    ids=["golden", "tribonacci", "22-11", "rational-3-2", "rational-three-halves", "2-3(1)"],
)
def test_enumerate_exact_values_match_digits(make):
    base = make()
    ops = base.ops
    for b in enumerate_b_integers(base, 200):
        assert ops.is_zero(ops.sub(b.exact, _digit_value(ops, b.digits)))
        # values are carried over one shared denominator, but leave canonical
        assert _normal(list(b.exact[0]), b.exact[1]) == b.exact


def test_binteger_value_encloses_exact():
    base = base_from_directive(Directive(((1, 1),)))
    b = enumerate_b_integers(base, 5)[4]
    assert b.value.width() <= Dyadic(1, -base.prec)
    finer = base.ops.enclosure(b.exact, 2 * base.prec)
    assert b.value.lo <= finer.lo and finer.hi <= b.value.hi
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
        assert a.value.hi < b.value.lo


def test_enumerate_interval_only_base():
    base = AlternateBase([Fraction(2)])
    assert not base.ops.exact
    ints = enumerate_b_integers(base, 6)
    assert [b.digits for b in ints] == [(), (1,), (1, 0), (1, 1), (1, 0, 0), (1, 0, 1)]
    for n, b in enumerate(ints):
        assert b.value.contains(Fraction(n))


def test_enumerate_rejects_zero_count():
    with pytest.raises(ValueError):
        enumerate_b_integers(AlternateBase.from_rationals([2]), 0)


ORACLE_BASES = {
    "golden": lambda: base_from_directive(Directive(((1, 1),))),
    "tribonacci": lambda: base_from_directive(Directive(((1, 1, 1),))),
    "22-11": lambda: base_from_directive(Directive(((2, 2), (1, 1)))),
    "21-2(12)": lambda: synthesize_periodic(
        ExpansionList((parse_word("(21)"), parse_word("2(12)")))
    )[0],
}


def _brute_force_b_integers(words, max_len):
    """Every word of length <= max_len whose suffixes, followed by 0^omega,
    are below the quasi-greedy word of their length, in radix order."""
    p = len(words)
    digits = range(max(w.max_digit() for w in words) + 1)
    found = [()]
    for n in range(1, max_len + 1):
        for word in product(digits, repeat=n):
            if not word[0]:
                continue
            padded = UPWord(word, (0,))
            if all(
                lex_compare_up(shift_suffix(padded, j), words[(n - j) % p]) < 0
                for j in range(n)
            ):
                found.append(word)
    return found


@pytest.mark.parametrize("name", sorted(ORACLE_BASES))
def test_enumerate_matches_brute_force(name):
    # both paths, the rank automaton and the quasi-greedy digit scan of the
    # same base stripped of its words, against a filter of all short words
    base = ORACLE_BASES[name]()
    expected = _brute_force_b_integers(base.qg_words, 10)
    bare = AlternateBase(base.betas, ops=base.ops, prec=base.prec)
    for b in (base, bare):
        ints = enumerate_b_integers(b, len(expected) + 1)
        assert [x.digits for x in ints[:-1]] == expected
        assert len(ints[-1].digits) == 11


def _zero_tail_free_words():
    digit = st.integers(0, 3)
    period = st.lists(digit, min_size=1, max_size=3).filter(any)
    word = st.builds(UPWord, st.lists(digit, max_size=3), period)
    return st.lists(word, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    _zero_tail_free_words(),
    st.lists(st.tuples(st.integers(0, 4), st.lists(st.integers(0, 3), max_size=5)), max_size=8),
)
def test_rank_table_matches_direct_comparison(words, probes):
    table = coding._RankTable(words)
    tails = table.tails
    assert all(lex_compare_up(a, b) < 0 for a, b in zip(tails, tails[1:]))
    assert {shift_suffix(w, 1) for w in tails} <= set(tails)
    assert [tails[i] for i in table.qg] == list(words)

    def rank(word):
        padded = UPWord(word, (0,))
        return sum(lex_compare_up(t, padded) < 0 for t in tails)

    def qg_digit(shift, n):
        return words[shift % len(words)].digit(n)

    assert rank(()) == 0
    for a, w in probes:
        grown = (a,) + tuple(w)
        r = table.row(a)[rank(tuple(w))]
        assert r == rank(grown)
        for shift in range(len(words)):
            below = coding._word_below_qg(grown, qg_digit, shift)
            assert (r <= table.qg[shift]) == below


def test_rank_table_rejects_zero_tail_words():
    with pytest.raises(ValueError):
        coding._RankTable((UPWord((1,), (0,)),))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(UPWord, st.lists(st.integers(0, 3), max_size=3),
                          st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
                .filter(UPWord.gt_ten_zero), min_size=1, max_size=4))
@example([UPWord((), (2, 1))])
@example([UPWord((), (2, 1, 1)), UPWord((), (1, 2, 1)), UPWord((), (1, 1, 2))])
def test_rank_table_parry_violation_is_check_parry_first(words):
    # the table's tail indices decide the conditions check_parry decides on digits
    report = check_parry(ExpansionList(tuple(words)))
    got = coding._RankTable(words).parry_violation()
    v = None if report.ok else report.violations[0]
    assert got == (None if v is None else (v.entry, v.shift))


@pytest.mark.parametrize(
    "make",
    [
        ORACLE_BASES["golden"],
        ORACLE_BASES["21-2(12)"],
        lambda: AlternateBase.from_rationals([2, 3]),  # words derived for the gap table
    ],
    ids=["golden", "21-2(12)", "rational-2-3"],
)
def test_coding_never_scans_quasi_greedy_digits(make, monkeypatch):
    def scan(*args):
        raise AssertionError("digit scan on a base with quasi-greedy words")

    monkeypatch.setattr(coding, "_word_below_qg", scan)
    assert len(faithful_coding(make(), 300)) == 300


def test_enumerate_stops_at_the_count(monkeypatch):
    # base 10^6 - 1 has one B-integer per lead digit at length 1; the old
    # enumeration built the whole level before cutting it to the count
    base, _ = synthesize_periodic(ExpansionList((UPWord((), (999_998,)),)))
    built = []
    real = coding.BInteger
    monkeypatch.setattr(coding, "BInteger", lambda *a: built.append(1) or real(*a))
    ints = enumerate_b_integers(base, 5)
    assert [b.digits for b in ints] == [(), (1,), (2,), (3,), (4,)]
    assert len(built) == 5


def test_coding_makes_no_field_call_per_b_integer(monkeypatch):
    # values and gaps of one denominator are integer vectors: the field is
    # called for the tables and the first sight of each gap only
    calls = []
    real = RealAlgebraicField._combine
    monkeypatch.setattr(
        RealAlgebraicField, "_combine", lambda *a: calls.append(1) or real(*a)
    )
    counts = []
    for length in (500, 2000):
        calls.clear()
        faithful_coding(base_from_directive(Directive(((1, 1),))), length)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _eager_b_integers(words, count):
    """Digits of the first B-integers, level by level: each lead digit extends
    the earlier words, in order, while the whole word stays below the
    quasi-greedy word of its length."""
    out = [()]
    n = 0
    while len(out) < count:
        n += 1
        qg = words[n % len(words)]
        level = list(out)
        for lead in range(1, qg.digit(1) + 1):
            for d in level:
                word = (lead,) + (0,) * (n - 1 - len(d)) + d
                if lex_compare_up(UPWord(word, (0,)), qg) >= 0:
                    break
                out.append(word)
    return out[:count]


@pytest.mark.parametrize(
    "make, words",
    [
        (ORACLE_BASES["golden"], None),
        (ORACLE_BASES["21-2(12)"], None),
        (lambda: synthesize_periodic(ExpansionList((parse_word("2(1)"),)))[0], None),
        # the digit scan, on an exact and on an interval-only backend
        (lambda: AlternateBase.from_rationals([2, 3]), (UPWord((), (2, 1)), UPWord((), (1, 2)))),
        (lambda: AlternateBase([Fraction(2), Fraction(3)]), (UPWord((), (2, 1)), UPWord((), (1, 2)))),
    ],
    ids=["golden", "21-2(12)", "2(1)", "rational-2-3", "interval-2-3"],
)
def test_b_integers_are_a_sequence_built_on_read(make, words):
    base = make()
    ops = base.ops
    count = 150
    ints = enumerate_b_integers(base, count)
    expected = _eager_b_integers(words or base.qg_words, count)
    assert len(ints) == count
    assert [b.digits for b in ints] == expected
    for b in ints:
        ref = _digit_value(ops, b.digits)
        if ops.exact:
            assert b.exact == _normal(list(ref[0]), ref[1])
        else:  # the same interval operations in the same order
            assert (b.exact.lo, b.exact.hi) == (ref.lo, ref.hi)
    assert list(ints) == [ints[i] for i in range(count)]
    assert ints[-1] == ints[count - 1] and ints[-count] == ints[0]
    assert ints[3:9] == tuple(ints[i] for i in range(3, 9))
    assert ints[::-40] == (ints[149], ints[109], ints[69], ints[29])
    assert ints[count:] == ()
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            ints[i]


def test_coding_builds_no_b_integer(monkeypatch):
    built = []
    real = coding.BInteger
    monkeypatch.setattr(coding, "BInteger", lambda *a: built.append(1) or real(*a))
    assert len(faithful_coding(ORACLE_BASES["golden"](), 2000)) == 2000
    assert built == []


def _one_letter_off(word):
    k = len(word) // 2
    return word[:k] + (1 - word[k],) + word[k + 1:]


def _first_image_off(sub):
    """The substitution with the last letter of the image of 0 flipped: 0 -> 00 on golden."""
    rules = dict(sub.rules)
    rules[0] = rules[0][:-1] + (1 - rules[0][-1],)
    return Substitution.from_map(rules)


@pytest.mark.parametrize(
    "name, corrupt",
    [("sadic_limit", _one_letter_off), ("gap_substitution", _first_image_off)],
)
def test_a_one_letter_disagreement_is_a_coding_mismatch(name, corrupt, monkeypatch, capsys):
    real = getattr(coding, name)
    monkeypatch.setattr(coding, name, lambda *a, **k: corrupt(real(*a, **k)))
    with pytest.raises(CodingMismatch):
        faithful_coding(ORACLE_BASES["golden"](), 300)
    assert main(["code", "--directive", "1,1", "--len", "40", "--check"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: direct ")
    assert "Traceback" not in out.err


# -- quasi-greedy word derivation -------------------------------------------------


def test_derive_qg_words_rational_bases():
    assert derive_qg_words(AlternateBase.from_rationals([2])) == (UPWord((), (1,)),)
    got = derive_qg_words(AlternateBase.from_rationals([2, 3]))
    assert got == (UPWord((), (2, 1)), UPWord((), (1, 2)))


def test_backend_period_must_match_the_betas():
    # a period-1 backend would compute every shift with beta 2
    with pytest.raises(ValueError, match="period 1"):
        AlternateBase([2, 3], ops=AlternateBase.from_rationals([2]).ops)
    got = derive_qg_words(AlternateBase.from_rationals([2, 3]))
    assert got == (UPWord((), (2, 1)), UPWord((), (1, 2)))


def test_derive_qg_words_finds_a_preperiod():
    base, _ = synthesize_periodic(ExpansionList((parse_word("2(1)"),)))
    bare = AlternateBase(base.betas, ops=base.ops, prec=base.prec)
    assert derive_qg_words(bare) == (UPWord((2,), (1,)),)


@st.composite
def periodic_directives(draw):
    k = draw(st.integers(2, 3))
    q = draw(st.integers(1, 3))
    block = st.lists(st.integers(1, 3), min_size=k, max_size=k).map(
        lambda c: tuple(sorted(c, reverse=True))
    )
    return Directive(tuple(draw(block) for _ in range(q)))


@given(periodic_directives())
@settings(max_examples=40, deadline=None)
def test_directive_words_match_the_words_derived_from_the_betas(directive):
    # base_from_directive attaches these words unchecked, and code --check reads them
    base = base_from_directive(directive)
    bare = AlternateBase(base.betas, ops=base.ops, prec=base.prec)
    assert base.qg_words == derive_qg_words(bare)


def test_words_that_fail_parry_are_refused():
    # (12) is worth 1 in its synthesized base, so the value check passes it,
    # but its suffix (21) lies above it: it is not a quasi-greedy expansion
    base, _ = synthesize_periodic(ExpansionList((parse_word("(12)"),)))
    AlternateBase(base.betas, ops=base.ops, qg_words=base.qg_words, prec=base.prec)
    with pytest.raises(ValueError, match="Parry"):
        enumerate_b_integers(base, 12)
    with pytest.raises(ValueError, match="Parry"):
        faithful_coding(base, 20)
    # S^j(w_i) is compared with w_{i-j}: the rotations of (211) pass in one order only
    for texts, ok in ((("(211)", "(121)", "(112)"), True), (("(112)", "(121)", "(211)"), False)):
        base, _ = synthesize_periodic(ExpansionList(tuple(map(parse_word, texts))))
        if ok:
            assert len(enumerate_b_integers(base, 12)) == 12
        else:
            with pytest.raises(ValueError, match="Parry"):
                enumerate_b_integers(base, 12)
    # 0(2) is worth 1 in base 2, so the base takes it, but it starts below 1 0^w
    base2 = AlternateBase.from_rationals([2])
    base = AlternateBase(base2.betas, ops=base2.ops, qg_words=(UPWord((0,), (2,)),))
    with pytest.raises(ValueError, match="above 1 0"):
        enumerate_b_integers(base, 4)


def test_derive_qg_words_rejects_aperiodic():
    base = AlternateBase.from_rationals([Fraction(3, 2)])
    with pytest.raises(ValueError):
        derive_qg_words(base, cap=200)


def test_derive_qg_words_needs_exact_backend():
    base = AlternateBase([Fraction(2)])  # interval backend only
    with pytest.raises(ValueError):
        derive_qg_words(base)


@pytest.mark.parametrize(
    "modulus",
    [GOLDEN, IntPoly([3, 2, -4, 1])],
    ids=["golden", "golden-times-x-minus-3"],
)
def test_derive_qg_words_by_value(modulus):
    # bracketed on the golden ratio, (x^2-x-1)(x-3) is reducible: phi^2 - phi
    # and 1 are one value in two representations, so the repeat is found by value
    field = RealAlgebraicField(IsolatedRoot(modulus, Dyadic(3, -1), Dyadic(7, -2)))
    phi = field.generator()
    base = AlternateBase((field.enclosure(phi, 64),), ops=FieldOps(field, (phi,)), prec=64)
    assert derive_qg_words(base, cap=200) == (UPWord((), (1, 0)),)
    # gaps keyed on raw numerators may miss on equal values; the miss is exact
    assert faithful_coding(base, 300) == sadic_limit(Directive(((1, 1),)), 300)


@pytest.mark.parametrize(
    "coeffs, zero",
    [((-1, -1, 1), True), ((-3, 1), False)],
    ids=["x^2-x-1", "x-3"],
)
def test_zero_test_keeps_the_factor_holding_the_root(coeffs, zero):
    # the golden-times-(x-3) field above: a zero test that meets a factor of
    # the modulus keeps x^2-x-1, the part holding the root, whichever factor
    # it met, so B-integer numerators stay small
    field = RealAlgebraicField(IsolatedRoot(IntPoly([3, 2, -4, 1]), Dyadic(3, -1), Dyadic(7, -2)))
    phi = field.generator()
    base = AlternateBase((field.enclosure(phi, 64),), ops=FieldOps(field, (phi,)), prec=64)
    assert field.is_zero(field.reduce(coeffs)) is zero
    assert field.modulus.coeffs == GOLDEN.coeffs
    assert faithful_coding(base, 300) == sadic_limit(Directive(((1, 1),)), 300)
    ints = enumerate_b_integers(base, 301)
    assert max(abs(v).bit_length() for b in ints for v in b.exact[0]) <= 7


# -- gap tables -------------------------------------------------------------------


def test_gap_table_golden():
    base = base_from_directive(Directive(((1, 1),)))
    t = gap_table(base, 0, depth=8)
    assert t.alphabet == (0, 1)
    assert t.pi == (0, 1, 0, 1, 0, 1, 0, 1)
    ops = base.ops
    assert is_one(ops, t.values[0])
    # the second gap is phi - 1, the positive root of x^2 + x - 1
    assert is_exact_root(ops, IntPoly([-1, 1, 1]), t.values[1]) and ops.sign(t.values[1]) > 0
    assert ops.sign(ops.sub(t.values[0], t.values[1])) > 0


def test_gap_table_base_two_single_class():
    base = AlternateBase.from_rationals([2])
    t = gap_table(base, 0, depth=6)
    assert t.alphabet == (0,)
    assert set(t.pi) == {0}
    assert all(is_one(base.ops, v) for v in t.values)


def test_gap_table_tribonacci():
    base = base_from_directive(Directive(((1, 1, 1),)))
    t = gap_table(base, 0, depth=9)
    assert t.alphabet == (0, 1, 2)
    assert t.pi == (0, 1, 2) * 3
    # strict chain 1 = delta_0 > delta_1 > delta_2, with delta_1 = beta - 1,
    # the positive root of x^3 + 2x^2 - 2
    ops, v = base.ops, t.values
    assert is_one(ops, v[0])
    assert ops.sign(ops.sub(v[0], v[1])) > 0 and ops.sign(ops.sub(v[1], v[2])) > 0
    assert is_exact_root(ops, IntPoly([-2, 0, 2, 1]), v[1]) and ops.sign(v[1]) > 0


def test_gap_table_pair_base_single_class():
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    base, _ = synthesize_periodic(lst)
    for m in (0, 1):
        t = gap_table(base, m, depth=6)
        assert t.alphabet == (0,)
        assert is_one(base.ops, t.values[0])


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
    assert (t2.pi, t2.alphabet, t2.values) == (t0.pi, t0.alphabet, t0.values)
    # one call per distinct tail: the 16 rows of the shift-0 table have 2
    built = len(calls)
    assert built == 2
    assert gap_table(base, 0) == t0 and gap_table(base, 2) == t2
    assert len(calls) == built
    assert base.shifted(1)._gap_tables == {}


def test_gap_table_rejects_bad_value_data():
    with pytest.raises(ValueError, match="not worth 1"):
        base = AlternateBase(
            [Fraction(2)],
            ops=AlternateBase.from_rationals([2]).ops,
            qg_words=(UPWord((), (2,)),),
        )
        gap_table(base)
    # words attached after construction skip that check and meet row 0's
    base = AlternateBase.from_rationals([2])
    base.qg_words = (UPWord((), (2,)),)
    with pytest.raises(ValueError, match="value 1"):
        gap_table(base)


def test_interval_base_refutes_words_not_worth_1():
    # an enclosure never shows that a value is 1, but one that excludes 1
    # refutes the word: base 2 given (2) listed (2,) and (1, 0) as B-integers
    with pytest.raises(ValueError, match="not worth 1"):
        AlternateBase([2], qg_words=(UPWord((), (2,)),))
    base = AlternateBase([2], qg_words=(UPWord((), (1,)),))
    assert not base.ops.exact and base.qg_word(0) == UPWord((), (1,))
    golden = AlternateBase([alpha_root(2)], qg_words=(UPWord((), (1, 0)),))
    assert not golden.ops.exact and golden.qg_word(0) == UPWord((), (1, 0))


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


DENSE_LISTS = (("(21)", "(12)"), ("(2)", "3(1)"), ("(22)", "(31)"), ("(211)",))


def _dense_coding(base, length):
    """Every consecutive gap of the materialised B-integers, classed exactly."""
    ops, table = base.ops, gap_table(base, 0)
    ints = [b.exact for b in enumerate_b_integers(base, length + 1)]
    gaps = [ops.sub(b, a) for a, b in zip(ints, ints[1:])]
    letters = {g: coding._row_with_value(ops, g, table.alphabet, table.values) for g in set(gaps)}
    return tuple(map(letters.__getitem__, gaps))


@given(
    st.one_of(
        periodic_directives().map(base_from_directive),
        st.sampled_from(DENSE_LISTS).map(
            lambda texts: synthesize_periodic(ExpansionList(tuple(map(parse_word, texts))))[0]
        ),
    ),
    st.integers(1, 600),
)
@settings(max_examples=30, deadline=None)
def test_block_coding_matches_the_dense_gaps(base, length):
    # lengths that end inside a block, on its edge or next to it
    dense = _dense_coding(base, length)
    assert None not in dense
    assert coding._class_gaps(base, gap_table(base, 0), length) == dense


def _golden_x3_field() -> RealAlgebraicField:
    """Q[x]/((x^2 - x - 1)(x - 3)) at the golden ratio: a reducible modulus."""
    return RealAlgebraicField(IsolatedRoot(IntPoly([3, 2, -4, 1]), Dyadic(3, -1), Dyadic(7, -2)))


@st.composite
def _golden_x3_elems(draw):
    """(a0 + a1 x + t (x^2 - x - 1)) / d: its value at the golden ratio does not depend on t."""
    a0, a1, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
    return _normal([a0 - t, a1 - t, t], draw(st.integers(1, 3)))


def _exact_scan(ops, v, rows, values):
    return next((r for r in rows if ops.is_zero(ops.sub(v, values[r]))), None)


@given(st.lists(_golden_x3_elems(), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
# 1 and 1 + (x^2 - x - 1) are equal at the root under different keys
@example([((1,), 1), ((0, -1, 1), 1)])
@example([((0, -1, 1), 1), ((1,), 1), ((0, -1, 1), 1)])
def test_key_first_classing_matches_the_exact_scan(values):
    # first-occurrence classing, as the gap tables do it: the key-first field
    # and the scanning field each shrink their modulus when a zero test splits it
    keyed, scanned = _golden_x3_field(), _golden_x3_field()
    rows: list[int] = []
    for n, v in enumerate(values):
        hit = coding._row_with_value(keyed, v, rows, values)
        assert hit == _exact_scan(scanned, v, rows, values)
        if hit is None:
            rows.append(n)


def test_gap_table_builds_each_tail_once_per_position(monkeypatch):
    # an entry's tails repeat with its period past its preperiod, so a table
    # of any depth builds at most |pre| + |period| of them per entry
    built = []
    real = coding.shift_suffix
    monkeypatch.setattr(coding, "shift_suffix", lambda u, j: built.append(u) or real(u, j))
    base = base_from_directive(Directive(((2, 2), (1, 1))))
    for m in range(base.p):
        built.clear()
        table = coding._build_gap_table(base, m, 16)
        assert len(table.pi) == 16
        for w in base.qg_words:
            assert built.count(w) <= len(w.preperiod) + len(w.period)


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
    # the 16 rows of the one table have the 2 tails (10)^w and (01)^w
    assert counts["val_word"] == 2


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


# (lo, hi) of every windowed beta at tol 64, as (mantissa, exponent) pairs
WINDOW_PINS = {
    ((1, 1),): [
        ((29847458893032750101, -64), (14923729446516375051, -63)),
    ],
    ((2, 2), (1, 1)): [
        ((48294202966742301717, -64), (24147101483371150859, -63)),
        (
            (322248692378058555662563388166208061381025953317, -157),
            (1288994769512234222650253552664832245524103813269, -159),
        ),
    ],
    ((3, 2, 1), (2, 2, 1)): [
        ((283289360796073603355, -66), (141644680398036801679, -65)),
        (
            (1945654800918018712707879107269921191463158005467, -159),
            (3891309601836037425415758214539842382926316010943, -160),
        ),
    ],
}


@pytest.mark.parametrize(
    "blocks", list(WINDOW_PINS), ids=lambda b: ";".join(",".join(map(str, c)) for c in b)
)
def test_window_betas_pinned(blocks):
    pins = WINDOW_PINS[blocks]
    for window in range(1, len(blocks) + 1):
        base = base_from_directive(Directive(blocks), tol_bits=64, window=window)
        got = [((b.lo.m, b.lo.e), (b.hi.m, b.hi.e)) for b in base.betas]
        assert got == pins[:window]


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
    base = AlternateBase.from_rationals([2, 3])
    word = faithful_coding(base, 200)
    assert len(calls) == 1
    assert faithful_coding(base, 200) == word
    assert len(calls) == 1
    # the derived words are the base's words, and its copies carry them
    words = (UPWord((), (2, 1)), UPWord((), (1, 2)))
    assert base.qg_words == words and base.qg_word(1) == words[1]
    assert base.shifted(1).qg_words == words[::-1]
    assert base.refine(128).qg_words == words
