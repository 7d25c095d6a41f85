"""The records keep the equality, hashing, immutability and repr they had as
frozen dataclasses; the expected strings are those the dataclasses printed."""

import re
from fractions import Fraction

import pytest

from altbase import (
    BInteger,
    BoundsCert,
    Certificate,
    Directive,
    ExpansionList,
    GapTable,
    GreedyExpansion,
    GreedyVerdict,
    Substitution,
    WindowedBase,
)
from altbase.numerics import IntervalReal
from altbase.perron import FiniteShape, IdentityCheck, IdentityReport, ParryShape
from altbase.words import DigitStream, parse_word

# IntervalReal compares by identity, so the records below share these
ZERO, TWO, THREE = (IntervalReal.exact(n) for n in (0, 2, 3))

# (build, a record that differs from it in a compared field, its repr)
RECORDS = [
    (lambda: ExpansionList((parse_word("2(1)"), parse_word("(21)"))),
     ExpansionList((parse_word("(21)"),)),
     "ExpansionList(entries=(UPWord('2(1)'), UPWord('(21)')))"),
    (lambda: GreedyExpansion((1, 0), (2,), True), GreedyExpansion((1, 0), (2,), False),
     "GreedyExpansion(int_digits=(1, 0), frac_digits=(2,), terminated=True)"),
    (lambda: GreedyVerdict(False, 3), GreedyVerdict(False, 4),
     "GreedyVerdict(ok=False, violation_k=3)"),
    (lambda: GreedyVerdict(True), GreedyVerdict(False), "GreedyVerdict(ok=True, violation_k=None)"),
    (lambda: ParryShape(2), ParryShape(3), "ParryShape(h=2)"),
    (FiniteShape, ParryShape(0), "FiniteShape()"),
    (lambda: IdentityCheck(1, "2", True), IdentityCheck(1, "2", False),
     "IdentityCheck(n=1, item='2', ok=True)"),
    (lambda: IdentityReport((IdentityCheck(0, "3", False),)), IdentityReport(()),
     "IdentityReport(checks=(IdentityCheck(n=0, item='3', ok=False),))"),
    (lambda: BoundsCert(2, 2, 5, Fraction(25, 24)), BoundsCert(2, 2, 5, Fraction(9, 8)),
     "BoundsCert(H=2, L=2, C=5, lower=Fraction(25, 24))"),
    (lambda: Certificate((True, False), (ZERO,), "UniqueByUP", ("greedy",)),
     Certificate((True, True), (ZERO,), "UniqueByUP", ("greedy",)),
     "Certificate(parry_ok=(True, False), residuals=([0, 0],), uniqueness='UniqueByUP', "
     "classification=('greedy',))"),
    (lambda: Substitution(((0, (0, 1)), (1, (0,)))), Substitution(((0, (0, 1)), (1, ()))),
     "Substitution(0->01, 1->0)"),
    (lambda: Directive(((2, 1), (1, 1))), Directive(((2, 1), (1, 1)), periodic=False),
     "Directive(blocks=((2, 1), (1, 1)), periodic=True)"),
    (lambda: Directive([[2, 2]], periodic=False), Directive(((2, 2),)),
     "Directive(blocks=((2, 2),), periodic=False)"),
    (lambda: BInteger((1, 0), 7, None), BInteger((1, 1), 7, None), "BInteger(digits=(1, 0))"),
    (lambda: GapTable(0, (0, 1, 0), (0, 1), ("a", "b", "c")),
     GapTable(1, (0, 1, 0), (0, 1), ("a", "b", "c")),
     "GapTable(m=0, pi=(0, 1, 0), alphabet=(0, 1))"),
    (lambda: WindowedBase((TWO,)), WindowedBase((THREE,)),
     "WindowedBase(betas=([2, 2],))"),
]


@pytest.mark.parametrize("build, other, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_equality_hash_immutability_and_repr(build, other, text):
    rec, twin = build(), build()
    assert rec == twin and not rec != twin and hash(rec) == hash(twin)
    assert rec != other and other != rec
    assert repr(rec) == text
    for name in (*getattr(rec, "_fields", ()), *getattr(rec, "__slots__", ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_excluded_fields_take_no_part_in_equality():
    assert BInteger((1, 0), 7, None) == BInteger((1, 0), 8, object())
    assert hash(BInteger((1, 0), 7, None)) == hash(BInteger((1, 0), 8, object()))
    table = GapTable(0, (0, 1, 0), (0, 1), ("a", "b", "c"))
    assert table == GapTable(0, (0, 1, 0), (0, 1), None)
    assert hash(table) == hash(GapTable(0, (0, 1, 0), (0, 1), None))


def test_slot_records_equal_only_their_own_class():
    # as with a dataclass, equal field values in another class (a tuple too) are not equal
    assert FiniteShape() != ()
    assert ExpansionList((parse_word("(21)"),)) != (parse_word("(21)"),)
    assert Directive(((1, 1),)) != (((1, 1),), True)
    assert BInteger((1, 0), 7, None) != ((1, 0),)
    assert GapTable(0, (0,), (0,), ()) != (0, (0,), (0,))
    assert Substitution(((0, (1,)),)) != (((0, (1,)),),)


def test_record_truth_values():
    assert not GreedyVerdict(False, 3)
    assert GreedyVerdict(True)
    assert bool(FiniteShape()) is True


@pytest.mark.parametrize("entries, message", [
    ((), "need at least one entry"),
    ((parse_word("1(0)"),), "UPWord('1(0)') is not lexicographically above 1 0^w"),
    ((parse_word("(1)"), parse_word("0(1)")),
     "UPWord('0(1)') is not lexicographically above 1 0^w"),
    ((DigitStream(lambda n: 0, 1, "zeros"),), "stream entry must start with a non-zero digit"),
])
def test_expansion_list_errors(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExpansionList(entries)


@pytest.mark.parametrize("blocks, message", [
    ((), "need at least one block"),
    (((1,),), "directive blocks need arity at least 2"),
    (((1, 2),), "directive block (1, 2) is not non-increasing"),
    (((1, 1), (1, 1, 1)), "all blocks must share one arity"),
    (((0, 1),), "directive entries must be at least 1"),
])
def test_directive_errors(blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Directive(blocks)
