from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from altbase.errors import DivisionByEnclosedZero, Undecidable
from altbase.numerics import (
    Dyadic,
    IntervalReal,
    IntPoly,
    RealAlgebraicField,
    alpha_root,
    faddeev_leverrier,
    int_poly_gcd,
    isolate_dominant,
    refine_root_bisect,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from altbase.numerics import polynomials
from altbase.numerics.polynomials import IsolatedRoot, _nonroot_near, exact_div, qdivmod
from altbase.perron import _certified_enclosure


def brackets_root(enc: IntervalReal, poly: IntPoly) -> bool:
    """Certify that a root of `poly` lies inside enc via exact endpoint signs."""
    at_lo = poly.eval_fraction(enc.lo.as_fraction())
    at_hi = poly.eval_fraction(enc.hi.as_fraction())
    return at_lo == 0 or at_hi == 0 or (at_lo < 0) != (at_hi < 0)


GOLDEN = IntPoly([-1, -1, 1])  # x^2 - x - 1, root (1+sqrt5)/2
GOLDEN_CONJ = IntPoly([-1, 1, 1])  # root (sqrt5-1)/2
SQRT17_SHIFT = IntPoly([-2, 3, 1])  # root (sqrt17-3)/2


# -- dyadics and intervals ------------------------------------------------------


def test_dyadic_normalisation():
    assert Dyadic(4, 0) == Dyadic(1, 2)
    assert Dyadic(0, 17) == Dyadic(0, 0)
    assert (Dyadic(3, -1) + Dyadic(1, -1)) == Dyadic(2, 0)


@given(st.fractions(max_denominator=1000), st.integers(1, 80))
def test_dyadic_rounding_brackets(x, prec):
    lo = Dyadic.from_fraction_floor(x, prec)
    hi = Dyadic.from_fraction_ceil(x, prec)
    assert lo.as_fraction() <= x <= hi.as_fraction()
    assert hi.as_fraction() - lo.as_fraction() <= Fraction(1, 2**prec)


def test_interval_examples():
    one = IntervalReal.exact(1)
    two = IntervalReal.exact(2)
    s = one.add(two)
    assert s.lo == Dyadic(3) and s.hi == Dyadic(3)
    prod = IntervalReal(Dyadic(1), Dyadic(2)).mul(IntervalReal(Dyadic(-1), Dyadic(1)))
    assert prod.lo == Dyadic(-2) and prod.hi == Dyadic(2)
    third = one.div(IntervalReal.exact(3), 8)
    assert third.contains(Fraction(1, 3))
    assert third.width().as_fraction() <= Fraction(1, 2**8)


def test_division_by_enclosed_zero():
    with pytest.raises(DivisionByEnclosedZero):
        IntervalReal.exact(1).div(IntervalReal(Dyadic(-1), Dyadic(1)))


fraction_st = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@given(fraction_st, fraction_st, fraction_st, fraction_st, st.sampled_from("+-*/"))
@settings(max_examples=150)
def test_interval_ops_enclose_pointwise(a1, a2, b1, b2, op):
    a_lo, a_hi = min(a1, a2), max(a1, a2)
    b_lo, b_hi = min(b1, b2), max(b1, b2)
    a = IntervalReal.from_fractions(a_lo, a_hi)
    b = IntervalReal.from_fractions(b_lo, b_hi)
    apply = {"+": a.add, "-": a.sub, "*": a.mul, "/": a.div}[op]
    if op == "/" and b_lo <= 0 <= b_hi:
        with pytest.raises(DivisionByEnclosedZero):
            apply(b)
        return
    out = apply(b)
    for x in (a_lo, a_hi, (a_lo + a_hi) / 2):
        for y in (b_lo, b_hi, (b_lo + b_hi) / 2):
            exact = {"+": x + y, "-": x - y, "*": x * y, "/": None}[op]
            if exact is None:
                exact = Fraction(x) / Fraction(y)
            assert out.contains(exact)


# -- characteristic polynomials --------------------------------------------------


def test_charpoly_identity():
    chi = faddeev_leverrier([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[0]
    assert chi.coeffs == (-1, 3, -3, 1)


def test_charpoly_examples():
    assert faddeev_leverrier([[2, 1, 2], [1, 0, 1], [0, 1, 0]])[0].coeffs == (0, -2, -2, 1)
    assert faddeev_leverrier([[1, 1], [1, 0]])[0].coeffs == (-1, -1, 1)


small_matrix = st.integers(0, 4)


@given(st.lists(st.lists(small_matrix, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(small_matrix, min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=40)
def test_charpoly_block_triangular(a, c):
    block = [
        a[0] + [1, 2],
        a[1] + [3, 4],
        [0, 0] + c[0],
        [0, 0] + c[1],
    ]
    chi = faddeev_leverrier(block)[0]
    ca, cc = faddeev_leverrier(a)[0], faddeev_leverrier(c)[0]
    prod = [0] * 5
    for i, x in enumerate(ca.coeffs):
        for j, y in enumerate(cc.coeffs):
            prod[i + j] += x * y
    assert chi.coeffs == tuple(prod)
    assert chi.degree == 4


@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(-4, 4))
@settings(max_examples=40)
def test_adjugate_identity(m, x0):
    chi, adj = faddeev_leverrier(m)
    adj_at = [[IntPoly(adj[i][j]).eval_fraction(x0) for j in range(3)] for i in range(3)]
    xi_minus_m = [[(x0 if i == j else 0) - m[i][j] for j in range(3)] for i in range(3)]
    prod = [
        [sum(adj_at[i][l] * xi_minus_m[l][j] for l in range(3)) for j in range(3)]
        for i in range(3)
    ]
    want = chi.eval_fraction(x0)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (want if i == j else 0)


# -- gcd, squarefree, Sturm ------------------------------------------------------


def test_squarefree_part():
    # (x-1)^2 (x+1)
    p = IntPoly([1, -1, -1, 1])
    assert squarefree_part(p).coeffs == (-1, 0, 1)


def test_gcd():
    a = IntPoly([2, 1])  # x + 2
    b = IntPoly([1, 1])  # x + 1
    prod = IntPoly([2, 5, 4, 1])  # (x+1)^2 (x+2)
    assert int_poly_gcd(prod, IntPoly([1, 2, 1])).coeffs == (1, 2, 1)
    assert int_poly_gcd(a, b).degree == 0


def test_sturm_counts():
    p = IntPoly([6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    chain = sturm_chain(p)
    assert sturm_count(chain, Fraction(0), Fraction(2)) == 2
    assert sturm_count(chain, Fraction(3, 2), Fraction(2)) == 1
    assert sturm_count(chain, Fraction(-2), Fraction(0)) == 2
    assert sturm_count(chain, Fraction(2), Fraction(10)) == 0


# -- root isolation ---------------------------------------------------------------


def test_perron_root_golden():
    enc = refine_root_bisect(GOLDEN, Dyadic(1), Dyadic(2), 64)
    assert brackets_root(enc, GOLDEN)
    assert enc.width().as_fraction() <= Fraction(1, 10**12)


def test_perron_root_one_plus_sqrt3():
    p = IntPoly([-2, -2, 1])  # root 1 + sqrt3
    enc = refine_root_bisect(p, Dyadic(2), Dyadic(3), 64)
    assert brackets_root(enc, p)


def test_perron_root_exact_hit():
    enc = refine_root_bisect(IntPoly([-1, 1]), Dyadic(1, -1), Dyadic(3, -1), 64)
    assert enc.is_point() and enc.lo == Dyadic(1)


def test_alpha_root_values():
    assert alpha_root(1).is_point()
    assert alpha_root(1).lo == Dyadic(1)
    enc2 = alpha_root(2)
    assert brackets_root(enc2, GOLDEN)
    enc3 = alpha_root(3, prec=40)
    poly = IntPoly([-1, -1, -1, 1])
    assert poly.eval_fraction(enc3.lo.as_fraction()) < 0 < poly.eval_fraction(enc3.hi.as_fraction())
    assert enc3.width().as_fraction() <= Fraction(1, 2**40)


def test_isolate_dominant_refinement_nests():
    root = isolate_dominant(IntPoly([-1, -1, 1]), 2, prec=32)
    first = root.enclosure()
    second = root.refine(200)
    assert first.contains_interval(second)
    assert second.width().as_fraction() <= Fraction(1, 2**200)


def test_isolate_dominant_exact_integer():
    root = isolate_dominant(IntPoly([0, -2, 1]), 5)  # x(x-2)
    assert root.is_exact()
    assert root.enclosure().lo == Dyadic(2)


@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-2**40, 2**40), st.integers(-90, 20))
@settings(max_examples=200)
def test_eval_dyadic_sign_matches_fraction(coeffs, m, e):
    p, x = IntPoly(coeffs), Dyadic(m, e)
    v = p.eval_fraction(x.as_fraction())
    assert p.eval_dyadic_sign(x) == (v > 0) - (v < 0)


def test_nonroot_near_gives_up_with_undecidable():
    with pytest.raises(Undecidable, match="512 bits"):
        _nonroot_near(IntPoly([]), Fraction(1), Fraction(0), Fraction(2))


def test_isolate_dominant_bracket_cap_raises_undecidable(monkeypatch):
    # roots 5/3 and 5/3 + 2^-20: no 16-bit dyadic bracket separates them
    p = IntPoly([5 * (5 * 2**20 + 3), -(30 * 2**20 + 9), 9 * 2**20])
    assert isolate_dominant(p, 2).enclosure().lo.as_fraction() > Fraction(5, 3)
    monkeypatch.setattr(polynomials, "_BRACKET_BITS_MAX", 16)
    with pytest.raises(Undecidable, match="16 bits"):
        isolate_dominant(p, 2)


def test_faddeev_leverrier_inexact_division_raises(monkeypatch):
    monkeypatch.setattr(polynomials, "_mat_mul", lambda a, b: [[1, 0], [0, 0]])
    with pytest.raises(ArithmeticError):
        faddeev_leverrier([[0, 1], [1, 0]])


# -- refinement against plain bisection -------------------------------------------


def _bisect_reference(p: IntPoly, lo: Dyadic, hi: Dyadic, prec: int) -> IntervalReal:
    """One exact sign per output bit: the bisection refine_root_bisect must match."""
    slo = p.eval_dyadic_sign(lo)
    shi = p.eval_dyadic_sign(hi)
    if slo == 0:
        return IntervalReal(lo, lo)
    if shi == 0:
        return IntervalReal(hi, hi)
    target = Dyadic(1, -prec)
    while (hi - lo) > target:
        mid = Dyadic((lo + hi).m, (lo + hi).e - 1)
        smid = p.eval_dyadic_sign(mid)
        if smid == 0:
            return IntervalReal(mid, mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return IntervalReal(lo, hi)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_factor = st.one_of(
    # 2^k x - a: a root on a dyadic grid
    st.tuples(st.integers(-2**70, 2**70), st.integers(0, 70)).map(lambda t: [-t[0], 2 ** t[1]]),
    st.lists(st.integers(-30, 30), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
)


@st.composite
def isolated_roots(draw):
    """(p, lo, hi): p squarefree, one root of p in [lo, hi], none at lo or hi."""
    coeffs = [1]
    for f in draw(st.lists(_factor, min_size=1, max_size=3)):
        coeffs = _poly_mul(coeffs, f)
    p = squarefree_part(IntPoly(coeffs))
    assume(p.degree >= 1)
    chain = sturm_chain(p)
    # a power of two beyond every root, so that dyadic roots land on the bisection grid
    bound = Dyadic(1, sum(abs(c) for c in p.coeffs).bit_length())

    def count(lo, hi):
        return sturm_count(chain, lo.as_fraction(), hi.as_fraction())

    lo, hi = -bound, bound
    total = count(lo, hi)
    assume(total >= 1)
    k = draw(st.integers(0, total - 1))  # the k-th root from the left in (lo, hi]
    first = draw(st.sampled_from([Dyadic(1, -1), Dyadic(3, -2), Dyadic(5, -4)]))
    splits = [first] + [Dyadic(j, -5) for j in range(1, 32, 2)]
    while count(lo, hi) > 1:
        mid = next(m for m in (lo + (hi - lo) * f for f in splits) if p.eval_dyadic_sign(m))
        left = count(lo, mid)
        if k < left:
            hi = mid
        else:
            lo, k = mid, k - left
    return p, lo, hi


@given(isolated_roots(), st.integers(8, 3000))
@settings(max_examples=60, deadline=None)
def test_refine_matches_bisection(root, prec):
    p, lo, hi = root
    got = refine_root_bisect(p, lo, hi, prec)
    want = _bisect_reference(p, lo, hi, prec)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_refine_root_on_a_deep_grid_point():
    p = IntPoly([-(2**59 + 1), 2**60])
    got = refine_root_bisect(p, Dyadic(0), Dyadic(1), 4096)
    assert got.is_point() and got.lo == Dyadic(2**59 + 1, -60)


def test_nested_refines_match_bisection():
    for p, lo, hi in (
        (IntPoly([-1, -1, -1, -1, 1]), Dyadic(1), Dyadic(2)),
        (IntPoly([3, 2, -4, 1]), Dyadic(3, -1), Dyadic(7, -2)),  # (x^2-x-1)(x-3)
    ):
        root = IsolatedRoot(p, lo, hi)
        for prec in (100, 5000):
            want = _bisect_reference(p, lo, hi, prec)
            got = root.refine(prec)
            assert (got.lo, got.hi) == (want.lo, want.hi)
            lo, hi = want.lo, want.hi


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_alpha_root_matches_bisection(p):
    poly = IntPoly([-1] * p + [1])
    for prec in (8, 64, 1000, 3000):
        got = alpha_root(p, prec)
        want = _bisect_reference(poly, Dyadic(1), Dyadic(2), prec)
        assert (got.lo, got.hi) == (want.lo, want.hi)


# -- algebraic field ---------------------------------------------------------------


def golden_field() -> RealAlgebraicField:
    return RealAlgebraicField(isolate_dominant(IntPoly([-1, -1, 1]), 2))


def test_field_golden_relations():
    f = golden_field()
    phi = f.generator()
    assert f.is_zero(f.sub(f.mul(phi, phi), f.add(phi, f.from_fraction(1))))
    assert f.sign(f.sub(phi, f.from_fraction(1))) == 1
    assert f.compare_int(phi, 2) == -1
    inv = f.inv(phi)
    assert f.is_zero(f.sub(inv, f.sub(phi, f.from_fraction(1))))
    assert f.is_zero(f.sub(f.mul(phi, inv), f.from_fraction(1)))


def test_field_enclosure_width():
    f = golden_field()
    enc = f.enclosure(f.generator(), 100)
    assert enc.width().as_fraction() <= Fraction(1, 2**100)
    assert brackets_root(enc, GOLDEN)


def test_field_modulus_shrinks_on_reducible_input():
    # (x^2-x-1)(x-3); the bracket pins the golden ratio
    poly = IntPoly([3, 2, -4, 1])
    root = IsolatedRoot(poly, Dyadic(3, -1), Dyadic(7, -2))  # [1.5, 1.75]
    f = RealAlgebraicField(root)
    assert f.degree == 3
    e = f.reduce([Fraction(-3), Fraction(1)])  # x - 3, invertible at the root
    inv = f.inv(e)
    assert f.is_zero(f.sub(f.mul(e, inv), f.from_fraction(1)))
    assert f.degree == 2


def test_certified_enclosure_budget_raises():
    # a sign that can never be certified must hit the bit budget, not hang
    f = RealAlgebraicField(IsolatedRoot(IntPoly([0, 1]), Dyadic(0), Dyadic(0)))
    with pytest.raises(Undecidable):
        _certified_enclosure(f, f.from_fraction(1), -1, 64)


# -- the Q[x] kernel -------------------------------------------------------------

qcoeff = st.integers(-20, 20) | st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.lists(qcoeff, max_size=7), st.lists(qcoeff, max_size=3), qcoeff.filter(bool))
@settings(max_examples=100)
def test_qdivmod_identity(num, den_low, den_lead):
    den = den_low + [den_lead]
    q, r = qdivmod(num, den)
    assert len(r) < len(den) and (not r or r[-1] != 0)
    back = [Fraction(0)] * max(len(num), len(q) + len(den) - 1, len(r), 1)
    for i, qv in enumerate(q):
        for j, dv in enumerate(den):
            back[i + j] += qv * dv
    for i, rv in enumerate(r):
        back[i] += rv
    assert back[: len(num)] == list(num) and not any(back[len(num):])


def test_exact_div_raises_on_inexact_quotient():
    assert exact_div(IntPoly([-1, 0, 1]), IntPoly([1, 1])).coeffs == (-1, 1)
    with pytest.raises(ArithmeticError):
        exact_div(IntPoly([1, 0, 1]), IntPoly([1, 1]))  # x^2 + 1 = (x+1)(x-1) + 2
    with pytest.raises(ArithmeticError):
        exact_div(IntPoly([1, 1]), IntPoly([2, 2]))  # exact, but the quotient is 1/2
