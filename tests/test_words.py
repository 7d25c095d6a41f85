from itertools import count
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from altbase.errors import DigitRangeError, ParseError
from altbase.words import (
    DEFAULT_DIGIT_MAX,
    EQ,
    GREEDY,
    GT,
    LT,
    DigitStream,
    ExpansionList,
    ParryViolation,
    UPWord,
    canonicalize,
    check_parry,
    format_word,
    lex_compare_up,
    parse_word,
    quasi_greedy_transform,
    shift_suffix,
)


def W(pre, per):
    return UPWord(pre, per)


# -- canonical form -----------------------------------------------------------


def test_canonicalize_primitivizes_period():
    u = canonicalize((), (2, 1, 2, 1))
    assert u.preperiod == () and u.period == (2, 1)


def test_canonicalize_absorbs_preperiod():
    u = canonicalize((2,), (1, 2))
    assert u.preperiod == () and u.period == (2, 1)


def test_canonicalize_leaves_canonical_alone():
    u = canonicalize((1, 2), (0,))
    assert u.preperiod == (1, 2) and u.period == (0,)


def test_canonicalize_empty_period_rejected():
    with pytest.raises(ParseError):
        UPWord((1,), ())


def test_digit_indexing():
    u = W((1, 2), (0,))
    assert u.digits(5) == (1, 2, 0, 0, 0)
    u = W((), (2, 1))
    assert [u.digit(n) for n in (1, 2, 3, 4)] == [2, 1, 2, 1]


def test_digit_range_checked():
    with pytest.raises(DigitRangeError):
        UPWord((), (2**32,))
    with pytest.raises(DigitRangeError):
        UPWord((-1,), (1,))


# -- lexicographic comparison -------------------------------------------------


def test_lex_examples():
    assert lex_compare_up(W((), (2, 1)), W((), (1, 2))) == GT
    assert lex_compare_up(W((), (1, 0)), W((1,), (0, 1))) == EQ
    assert lex_compare_up(W((1, 2), (0,)), W((), (1, 2))) == LT


def test_lex_equal_means_same_canonical():
    assert W((1,), (0, 1)) == W((), (1, 0))


words_strategy = st.builds(
    UPWord,
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
)


@given(words_strategy, words_strategy)
def test_lex_antisymmetric(u, v):
    assert lex_compare_up(u, v) == -lex_compare_up(v, u)
    if lex_compare_up(u, v) == EQ:
        assert u == v


@given(words_strategy, words_strategy, words_strategy)
@settings(max_examples=60)
def test_lex_transitive(u, v, w):
    if lex_compare_up(u, v) <= 0 and lex_compare_up(v, w) <= 0:
        assert lex_compare_up(u, w) <= 0


@given(words_strategy)
def test_canonical_idempotent(u):
    again = canonicalize(u.preperiod, u.period)
    assert again == u


@given(
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_canonical_preserves_stream(pre, per, reps, pad):
    # pad the preperiod with copies of the period's tail and repeat the period
    raw_pre = tuple(pre) + tuple(per) * pad
    raw_per = tuple(per) * reps
    u = UPWord(raw_pre, raw_per)
    n = len(raw_pre) + 2 * len(raw_per)
    naive = (raw_pre + raw_per * (n // len(raw_per) + 1))[:n]
    assert u.digits(n) == tuple(naive)


# -- suffixes -----------------------------------------------------------------


def test_shift_examples():
    assert shift_suffix(W((), (2, 1)), 1) == W((), (1, 2))
    assert shift_suffix(W((1, 2), (0,)), 2) == W((), (0,))
    # 2(12)^w is the same stream as (21)^w, so dropping three digits
    # lands on (12)^w, exactly as dropping one does
    assert shift_suffix(W((2,), (1, 2)), 3) == W((), (1, 2))


@given(words_strategy, st.integers(0, 8))
def test_shift_matches_digits(u, j):
    s = shift_suffix(u, j)
    assert s.digits(10) == tuple(u.digit(j + n) for n in range(1, 11))


# -- quasi-greedy transform ---------------------------------------------------


def test_transform_base2():
    (d,) = quasi_greedy_transform((W((2,), (0,)),))
    assert d == W((), (1,))


def test_transform_golden():
    (d,) = quasi_greedy_transform((W((1, 1), (0,)),))
    assert d == W((), (1, 0))


def test_transform_p2_cyclic():
    d0, d1 = quasi_greedy_transform((W((2,), (0,)), W((3,), (0,))))
    assert d0 == W((), (1, 2))
    assert d1 == W((), (2, 1))


def test_transform_leaves_nonzero_tails():
    a = W((), (2, 1))
    (d,) = quasi_greedy_transform((a,))
    assert d is a


def test_transform_chains_into_a_periodic_word():
    # 2(0) becomes 1 followed by the entry one step back, (21): 1(21) = (12)
    zero_tail, periodic = W((2,), (0,)), W((), (2, 1))
    d0, d1 = quasi_greedy_transform((zero_tail, periodic))
    assert d0 == W((1,), (2, 1))
    assert d0.digits(6) == (1, 2, 1, 2, 1, 2)
    assert d1 is periodic


def test_transform_chains_into_a_stream():
    stream = DigitStream(lambda n: 2 if n == 1 else 1, digit_max=3, description="2 1^w")
    d0, d1 = quasi_greedy_transform((W((2,), (0,)), stream))
    assert isinstance(d0, DigitStream)
    assert d0.digits(6) == (1, 2, 1, 1, 1, 1)
    assert d0.digit_max == 3
    assert d0.description == "2 1^w+prefix"
    assert d1 is stream


def test_transform_rejects_zero_start():
    with pytest.raises(ValueError):
        quasi_greedy_transform((W((0, 1), (0,)),))


@st.composite
def greedy_candidates(draw):
    first = draw(st.integers(2, 5))
    body = draw(st.lists(st.integers(0, first - 1), max_size=4))
    return UPWord((first, *body), (0,))


@given(st.lists(greedy_candidates(), min_size=1, max_size=3))
def test_transform_output_has_no_zero_tail(entries):
    for d in quasi_greedy_transform(tuple(entries)):
        assert not d.is_zero_tail()


@given(st.lists(greedy_candidates(), min_size=1, max_size=3))
def test_transform_agrees_before_last_nonzero(entries):
    out = quasi_greedy_transform(tuple(entries))
    for t, d in zip(entries, out):
        # position of the final non-zero digit of the zero-tail word t
        ell = max(k for k, a in enumerate(t.preperiod, start=1) if a)
        assert d.digits(ell - 1) == t.digits(ell - 1)
        assert d.digit(ell) == t.digit(ell) - 1


# -- Parry check --------------------------------------------------------------


def test_parry_quasi_valid():
    report = check_parry(ExpansionList((W((), (2, 1)),)))
    assert report.ok and not report.partial


def test_parry_greedy_violation():
    report = check_parry(ExpansionList((W((1, 2), (0,)),)))
    assert not report.ok
    v = min(report.violations, key=lambda v: v.shift)
    assert v.shift == 1 and v.entry == 0


def test_parry_p2_valid():
    report = check_parry(ExpansionList((W((), (2, 1)), W((), (1, 2)))))
    assert report.ok


def test_parry_greedy_golden_valid():
    # 110^w is the greedy expansion of 1 in the golden base
    report = check_parry(ExpansionList((W((1, 1), (0,)),)))
    assert report.ok


@given(st.lists(greedy_candidates(), min_size=1, max_size=3))
@settings(max_examples=60)
def test_parry_transform_preserves_validity(entries):
    lst = ExpansionList(tuple(entries))
    if check_parry(lst).ok:
        out = ExpansionList(quasi_greedy_transform(tuple(entries)))
        assert check_parry(out).ok


def parry_reference(lst):
    """The per-pair check: each shifted entry walked against its target word."""
    entries, p = lst.entries, lst.p
    bound = max(len(a.preperiod) for a in entries) + lcm(p, *(len(a.period) for a in entries))
    violations = []
    for i in range(p):
        strict = lst.mode(i) == GREEDY
        for j in range(1, bound + 1):
            u, v = shift_suffix(entries[i], j), entries[(i - j) % p]
            cmp = lex_compare_up(u, v)
            if cmp > 0 or (cmp == 0 and strict):
                pos = next(n for n in count(1) if u.digit(n) != v.digit(n)) if cmp else None
                violations.append(ParryViolation(i, j, pos))
    return tuple(violations), bound


@st.composite
def expansion_candidates(draw):
    """A greedy (0^w tail) or quasi-greedy candidate above 1 0^w."""
    first = draw(st.integers(1, 3))
    pre = draw(st.lists(st.integers(0, 3), max_size=4))
    per = (0,) if draw(st.booleans()) else draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    word = W((first, *pre), per)
    if not word.gt_ten_zero():
        word = W((first + 1, *pre), per)
    return word


@st.composite
def shared_period_lists(draw):
    """1-5 candidates whose periods are prefixes of one period up to rotation,
    each with a fresh preperiod or a digit put in front of the entry before
    it, so that suffixes meet equal targets (equality hits, and strict ones on
    zero tails) or agree beyond the longest period."""
    per = draw(st.just([0]) | st.lists(st.integers(0, 3), min_size=1, max_size=4))
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        first = draw(st.integers(1, 3))
        if entries and draw(st.booleans()):
            pre, tail = entries[-1].preperiod, entries[-1].period
        else:
            tail = per[:draw(st.integers(1, len(per)))]
            r = draw(st.integers(0, len(tail) - 1))
            pre, tail = draw(st.lists(st.integers(0, 3), max_size=2)), tail[r:] + tail[:r]
        word = W((first, *pre), tail)
        entries.append(word if word.gt_ten_zero() else W((first + 1, *pre), tail))
    return entries


@given(st.lists(expansion_candidates(), min_size=1, max_size=5) | shared_period_lists())
@settings(max_examples=300)
def test_parry_report_matches_per_pair_reference(entries):
    # one comparison window for the whole list gives each pair's verdict and
    # first-difference position
    lst = ExpansionList(tuple(entries))
    report = check_parry(lst)
    assert (report.violations, report.checked_up_to) == parry_reference(lst)
    assert not report.partial


def test_parry_window_reaches_the_fine_wilf_length():
    # the suffix (112) of 2(112) and (1121) agree on 3 + 4 - 1 - 1 = 5 digits,
    # the most that periods 3 and 4 allow, and first differ at digit 6: past
    # max preperiod + longest period, inside the one window
    lst = ExpansionList((W((2,), (1, 1, 2)), W((), (1, 1, 2, 1))))
    report = check_parry(lst)
    assert report.violations[0] == ParryViolation(0, 1, 6)
    assert (report.violations, report.checked_up_to) == parry_reference(lst)


@given(st.lists(st.integers(0, 2), max_size=4),
       st.just([0]) | st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_gt_ten_zero_reads_the_digits(pre, per):
    u = W(pre, per)
    d1 = u.digit(1)
    assert u.gt_ten_zero() == (d1 >= 2 or (d1 == 1 and not shift_suffix(u, 1).is_zero_word()))


@st.composite
def quasi_greedy_candidates(draw):
    """A candidate above 1 0^w whose period holds a non-zero digit."""
    first = draw(st.integers(1, 3))
    pre = draw(st.lists(st.integers(0, 3), max_size=4))
    per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    return W((first, *pre), per)


@given(st.lists(quasi_greedy_candidates(), min_size=1, max_size=3))
@settings(max_examples=200)
def test_parry_streams_report_the_words_violations(entries):
    # read as streams to the words' complete depth, quasi-greedy words give
    # the same violations; a greedy word is left out, since a stream entry
    # is never strict
    report = check_parry(ExpansionList(tuple(entries)))
    streams = ExpansionList(tuple(DigitStream(w.digit, description=repr(w)) for w in entries))
    got = check_parry(streams, depth=report.checked_up_to)
    assert got.partial and got.checked_up_to == report.checked_up_to
    assert got.violations == report.violations


def test_parry_stream_partial():
    stream = DigitStream(lambda n: 2 if n == 1 else 1, description="2 1^w")
    report = check_parry(ExpansionList((stream,)), depth=32)
    assert report.partial and report.ok


def test_parry_stream_violation_by_digit():
    # the suffix 2 1 2 1 ... lies above 1 2 1 2 ..., decided at its first digit
    stream = DigitStream(lambda n: 1 if n % 2 else 2, description="(12)")
    report = check_parry(ExpansionList((stream,)), depth=8)
    assert report.partial and not report.ok
    assert report.violations[0] == ParryViolation(0, 1, 1)


def test_parry_stream_violation_by_equality():
    # a greedy entry must stay strictly below; 1^12 0^w equals 1^w over the window
    ones = DigitStream(lambda n: 1, description="1^w")
    report = check_parry(ExpansionList((W((2,) + (1,) * 12, (0,)), ones)), depth=8)
    assert not report.ok
    assert report.violations[0] == ParryViolation(0, 1, None)


def test_expansion_list_rejects_ten_zero():
    with pytest.raises(ValueError):
        ExpansionList((W((1,), (0,)),))


# -- text format --------------------------------------------------------------


def test_parse_and_format_roundtrip():
    for text, pre, per in [
        ("2(12)", (), (2, 1)),
        ("(21)", (), (2, 1)),
        ("120(0)", (1, 2), (0,)),
        ("[12,3](4,1)", (12, 3), (4, 1)),
    ]:
        u = parse_word(text)
        assert (u.preperiod, u.period) == (pre, per)
        assert parse_word(format_word(u)) == u


def test_parse_rejects_garbage():
    for bad in ["21", "2(1", "2)1(", "(a)", "()", "[1,2(3)"]:
        with pytest.raises(ParseError):
            parse_word(bad)


wide_digit = st.integers(0, 9) | st.integers(10, DEFAULT_DIGIT_MAX)


@given(st.builds(
    UPWord,
    st.lists(wide_digit, max_size=4),
    st.lists(wide_digit, min_size=1, max_size=4),
))
def test_format_parse_identity(u):
    assert parse_word(format_word(u)) == u


def test_one_digit_comma_parts():
    # a lone digit above 9 keeps its comma, which parse_word reads back
    assert format_word(UPWord((), (10,))) == "(10,)"
    assert format_word(UPWord((10,), (1,))) == "[10,](1,)"
    assert format_word(UPWord((12, 3), (4, 1))) == "[12,3](4,1)"
    assert parse_word("(10,)") == UPWord((), (10,))
    assert parse_word("[10,](0)") == UPWord((10,), (0,))
    assert parse_word("[10, ](0 ,)") == UPWord((10,), (0,))
    # without the comma the part is read digit by digit, as before
    assert parse_word("(10)") == UPWord((), (1, 0))
    for bad in ["(10,,)", "(,)", "[,](1)", "(,10)"]:
        with pytest.raises(ParseError):
            parse_word(bad)
