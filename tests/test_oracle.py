"""Optional oracle lane: sympy factors the charpolys and checks Sturm counts,
squarefree parts and field arithmetic.

Skipped when sympy is not installed; the declared test dependencies do not
include it.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from test_acceptance import corpus_p1, corpus_plists  # noqa: E402

from altbase.perron import _perron_field, build_parry_matrices  # noqa: E402
from altbase.numerics import (  # noqa: E402
    IntPoly,
    faddeev_leverrier,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from altbase.words import ExpansionList, parse_word, quasi_greedy_transform  # noqa: E402
from test_numerics import _poly_mul, eval_fraction  # noqa: E402

X = sympy.Symbol("x")

ROADMAP_ROWS = [
    ["3(1)", "2(21)", "(211)"],
    ["3(12)", "2(211)", "(2111)", "31(1)", "(22)"],
]


def _lists():
    rows = [ExpansionList(tuple(parse_word(w) for w in row)) for row in ROADMAP_ROWS]
    return rows + corpus_p1() + corpus_plists()


def _perron_factor(chi, lo, hi):
    """The irreducible factor of chi with a root in [lo, hi], primitive, lead > 0."""
    poly = sympy.Poly(list(reversed(chi.coeffs)), X)
    found = []
    for factor, _ in poly.factor_list()[1]:
        if factor.count_roots(lo, hi) > 0:
            found.append(factor)
    assert len(found) == 1
    return tuple(int(c) for c in reversed(found[0].all_coeffs()))


def test_field_modulus_is_the_minimal_polynomial_of_lambda():
    lists = _lists()
    assert len(lists) == 252
    for lst in lists:
        entries = quasi_greedy_transform(lst.entries)
        ms, _, _ = build_parry_matrices(ExpansionList(entries))
        _, product = ms.primitive_rotation()
        field, _ = _perron_field(product)
        chi, _ = faddeev_leverrier(product)
        lo, hi = field.root.lo.as_fraction(), field.root.hi.as_fraction()
        assert field.modulus.coeffs == _perron_factor(chi, lo, hi), lst


ORACLE_ROWS = [
    ["3(12)", "2(211)", "(2111)", "31(1)", "(22)"],  # p=5, field degree 6
    ["(2111111111111)", "(31111)"],  # L=130, k = 132, field degree 17
]


def _sym(elem):
    nums, den = elem
    return sympy.Poly([sympy.Rational(n, den) for n in reversed(nums)], X, domain="QQ")


def test_field_mul_and_inv_match_sympy():
    rng = random.Random(7)
    for row in ORACLE_ROWS:
        lst = ExpansionList(tuple(parse_word(w) for w in row))
        ms, _, _ = build_parry_matrices(ExpansionList(quasi_greedy_transform(lst.entries)))
        _, product = ms.primitive_rotation()
        field, adj_row = _perron_field(product)
        m = _sym((field.modulus.coeffs, 1))
        # adjugate entries at lambda (the eigenvector the fixed point starts
        # from), the generator, and small random elements with denominators
        elems = [field.reduce(adj_row[j]) for j in range(0, ms.k, max(1, ms.k // 6))]
        elems.append(field.generator())
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(field.degree)]
            elems.append(field.reduce(coeffs))
        for a in elems:
            for b in elems[::2]:
                assert _sym(field.mul(a, b)) == (_sym(a) * _sym(b)).rem(m)
            assert _sym(field.inv(a)) == _sym(a).invert(m)


def _normalised(coeffs):
    """Ascending integer coefficients divided by their content, leading one positive."""
    g = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return tuple(c // g for c in coeffs)


def test_sturm_counts_and_squarefree_parts_match_sympy():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        factors = [[rng.randint(-6, 6) for _ in range(rng.randint(2, 4))]
                   for _ in range(rng.randint(1, 3))]
        factors += factors[: rng.randint(0, 1)]  # a repeated factor in about half
        p = IntPoly(functools.reduce(_poly_mul, factors))
        if p.degree < 1:
            continue
        sym = sympy.Poly(list(reversed(p.coeffs)), X)
        want = [int(c) for c in reversed(sym.sqf_part().all_coeffs())]
        assert squarefree_part(p).coeffs == _normalised(want), p
        chain = sturm_chain(p)
        for _ in range(6):
            a, b = sorted(Fraction(rng.randint(-300, 300), rng.randint(1, 16)) for _ in range(2))
            if a == b or eval_fraction(p, a) == 0 or eval_fraction(p, b) == 0:
                continue
            lo, hi = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
            assert sturm_count(chain, a, b) == sym.count_roots(lo, hi), (p, a, b)
            checked += 1
    assert checked > 1000
