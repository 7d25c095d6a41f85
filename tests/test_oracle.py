"""Optional oracle lane: sympy checks the charpolys, the Perron start
against the first row of the adjugate of xI - Q (up to its scale), factors
the charpolys, and checks Sturm counts, squarefree parts and field
arithmetic; mpmath solves the value-1 equations of the anchor rows.

Skipped when sympy (which brings mpmath) is not installed; the declared
test dependencies do not include it.
"""

import functools
import math
import random
from fractions import Fraction
from math import lcm

import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from test_acceptance import corpus_p1, corpus_plists  # noqa: E402

from altbase.perron import _perron_field, build_parry_matrices  # noqa: E402
from altbase.synthesis import synthesize_periodic  # noqa: E402
from altbase.numerics import (  # noqa: E402
    Dyadic,
    IntPoly,
    drop_trivial_factors,
    faddeev_leverrier,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from altbase.words import ExpansionList, parse_word, quasi_greedy_transform  # noqa: E402
from test_numerics import _poly_mul, eval_fraction  # noqa: E402
from test_perron import assert_start_is_a_multiple_of, dense  # noqa: E402

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


def _product(row):
    lst = ExpansionList(tuple(parse_word(w) for w in row))
    ms, _, _ = build_parry_matrices(ExpansionList(quasi_greedy_transform(lst.entries)))
    return ms.primitive_rotation()[1]


def test_whole_charpoly_matches_sympy():
    # every coefficient, on the p=5 anchor product (k = 65) and the L=130 one (k = 132)
    for row, k in zip(ORACLE_ROWS, (65, 132)):
        product = _product(row)
        assert len(product) == k
        chi, _ = faddeev_leverrier(product)
        want = sympy.Matrix(dense(product, k)).charpoly(X).all_coeffs()
        assert chi.coeffs == tuple(int(c) for c in reversed(want)), row


def _adjugate_row(q):
    """adj(xI - q)[0] as ascending coefficient lists, from sympy's charpoly chi of q.

    adj(xI - q) = (chi(x) - chi(q)) / (x - q) = sum_m c_m sum_(i<m) x^(m-1-i)
    q^i, as chi(q) = 0; row 0 needs only the rows e_0 q^i, taken in
    sympy's ZZ.
    """
    k = len(q)
    c = [int(v) for v in reversed(sympy.Matrix(q).charpoly(X).all_coeffs())]
    mat = DomainMatrix([[sympy.ZZ(v) for v in row] for row in q], (k, k), sympy.ZZ)
    rows = [DomainMatrix([[sympy.ZZ(int(j == 0)) for j in range(k)]], (1, k), sympy.ZZ)]
    for _ in range(k - 1):
        rows.append(rows[-1] * mat)
    powers = [[int(v) for v in r.to_list()[0]] for r in rows]  # e_0 q^i
    return [[sum(c[i + d + 1] * powers[i][j] for i in range(k - d)) for d in range(k)]
            for j in range(k)]


def test_adjugate_row_matches_sympy():
    # the start is a non-zero multiple of adj(lambda I - Q)[0], reduced mod
    # the field modulus, on the p=3 anchor (k = 9, t = 3) and the p=5 anchor
    # (k = 65, t = 5); on the first, the row is sympy's adjugate in ZZ[x]
    # (at k = 65, DomainMatrix.adjugate takes about a minute)
    for row, k, t in ((ROADMAP_ROWS[0], 9, 3), (ROADMAP_ROWS[1], 65, 5)):
        product = _product(row)
        assert len(product) == k and len(faddeev_leverrier(product)[1]) == t
        q = dense(product, k)
        adj_row = _adjugate_row(q)
        if k == 9:
            ring = sympy.ZZ[X]
            xi_minus_q = DomainMatrix(
                [[ring.from_sympy((X if i == j else 0) - q[i][j]) for j in range(k)]
                 for i in range(k)],
                (k, k),
                ring,
            )
            adj = xi_minus_q.adjugate()
            for j, col in enumerate(adj_row):
                assert adj[0, j].element == ring.from_sympy(sum(c * X**d for d, c in enumerate(col))), j
        field, start = _perron_field(product)
        assert_start_is_a_multiple_of(field, start, adj_row)


def test_dropped_charpoly_is_chi_without_its_trivial_factors():
    # what drop_trivial_factors keeps has no root of unity and no zero root
    # but keeps the minimal polynomial of lambda; what it drops is x^a times
    # cyclotomic factors, repeated ones included
    for row in ORACLE_ROWS:
        product = _product(row)
        chi, _ = faddeev_leverrier(product)
        field, _ = _perron_field(product)
        lo, hi = field.root.lo.as_fraction(), field.root.hi.as_fraction()
        whole = sympy.Poly(list(reversed(chi.coeffs)), X)
        kept = sympy.Poly(list(reversed(drop_trivial_factors(chi).coeffs)), X)
        minimal = sympy.Poly(list(reversed(_perron_factor(chi, lo, hi))), X)
        assert kept.rem(minimal).is_zero, row
        assert all(not f.is_cyclotomic and f != sympy.Poly(X) for f, _ in kept.factor_list()[1])
        dropped, rest = whole.div(kept)
        assert rest.is_zero
        assert all(f.is_cyclotomic or f == sympy.Poly(X) for f, _ in dropped.factor_list()[1])


def _sym(elem):
    nums, den = elem
    return sympy.Poly([sympy.Rational(n, den) for n in reversed(nums)], X, domain="QQ")


def test_field_mul_and_inv_match_sympy():
    rng = random.Random(7)
    for row in ORACLE_ROWS:
        lst = ExpansionList(tuple(parse_word(w) for w in row))
        ms, _, _ = build_parry_matrices(ExpansionList(quasi_greedy_transform(lst.entries)))
        _, product = ms.primitive_rotation()
        field, start = _perron_field(product)
        m = _sym((field.modulus.coeffs, 1))
        # entries of the eigenvector the fixed point starts from, the
        # generator, and small random elements with denominators
        elems = [start[j] for j in range(0, ms.k, max(1, ms.k // 6))]
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
        chain = sturm_chain(p)  # p's own chain: repeated factors stay in it
        for _ in range(6):
            # dyadic points m / 2^k with k in 0..4
            a, b = sorted((Dyadic(rng.randint(-300, 300), -rng.randint(0, 4)) for _ in range(2)),
                          key=Dyadic.as_fraction)
            fa, fb = a.as_fraction(), b.as_fraction()
            if a == b or eval_fraction(p, fa) == 0 or eval_fraction(p, fb) == 0:
                continue
            lo, hi = (sympy.Rational(f.numerator, f.denominator) for f in (fa, fb))
            assert sturm_count(chain, a, b) == sym.count_roots(lo, hi), (p, a, b)
            checked += 1
    assert checked > 1000


def _mp_value(betas, shift, w):
    """Value of the word w at the given shift (expansion.py's convention), closed form."""
    p, ell = len(betas), len(w.preperiod)
    block_len = lcm(len(w.period), p)
    digits = list(w.preperiod) + list(w.period) * (block_len // len(w.period))
    head = block = mpmath.mpf(0)
    den = mpmath.mpf(1)
    for n, a in enumerate(digits, 1):
        den *= betas[(shift - n) % p]
        if n <= ell:
            head += a / den
        else:
            block += a / den
    # the block repeats with its denominators times delta^(block_len / p)
    return head + block / (1 - 1 / mpmath.fprod(betas) ** (block_len // p))


def _mp_fraction(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_anchor_betas_match_mpmath():
    # the p=3, p=5 and L=130 rows: a 200-digit root of the value-1 equations,
    # started from the certified midpoints, agrees with every beta enclosure.
    # The enclosures come out narrower (about 10^-356) than the mpmath root's
    # own error (about 10^-201), so agreement is asked to 10^-180.
    slack = Fraction(1, 10**180)
    with mpmath.workdps(200):
        for row in [ROADMAP_ROWS[0], *ORACLE_ROWS]:
            lst = ExpansionList(tuple(parse_word(w) for w in row))
            base, _ = synthesize_periodic(lst, tol_bits=600)
            mids = []
            for b in base.betas:
                assert b.width().as_fraction() <= Fraction(1, 2**600)
                mid = (b.lo.as_fraction() + b.hi.as_fraction()) / 2
                mids.append(mpmath.mpf(mid.numerator) / mid.denominator)

            def residuals(*betas):
                return [_mp_value(betas, i, w) - 1 for i, w in enumerate(lst.entries)]

            root = mpmath.findroot(residuals, mids)
            for i, b in enumerate(base.betas):
                r = _mp_fraction(root[i])
                assert b.lo.as_fraction() - slack <= r <= b.hi.as_fraction() + slack, (row, i)
