from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, isqrt, lcm

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import pytest

from altbase.errors import DivisionByEnclosedZero, NoSignChange, Undecidable
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
from altbase.numerics import algebraic, polynomials
from altbase.numerics.polynomials import (
    IsolatedRoot,
    _e_matrix,
    _nonroot_near,
    exact_div,
    int_cofactors,
    int_divmod,
    isolate_largest_root,
)
from altbase.perron import _certified_enclosure


def eval_fraction(poly: IntPoly, x: Fraction | int) -> Fraction:
    """poly(x) by Horner in Fractions: the exact reference for signs at endpoints."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def brackets_root(enc: IntervalReal, poly: IntPoly) -> bool:
    """Certify that a root of `poly` lies inside enc via exact endpoint signs."""
    at_lo = eval_fraction(poly, enc.lo.as_fraction())
    at_hi = eval_fraction(poly, enc.hi.as_fraction())
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


def decimal_reference(x: Dyadic, digits: int) -> str:
    """Dyadic.decimal one Fraction digit at a time: the rendering it must keep."""
    fr = x.as_fraction()
    if fr.denominator == 1:
        return str(fr.numerator)
    sign = "-" if fr < 0 else ""
    ip, rem = divmod(abs(fr), 1)
    out = []
    for _ in range(digits):
        d, rem = divmod(rem * 10, 1)
        out.append(str(d))
        if rem == 0:
            break
    return f"{sign}{ip}.{''.join(out)}{'' if rem == 0 else '...'}"


@given(st.integers(-(2**200), 2**200), st.integers(-300, 40), st.integers(0, 40))
@settings(max_examples=300)
def test_decimal_matches_fraction_reference(m, e, digits):
    x = Dyadic(m, e)
    assert x.decimal(digits) == decimal_reference(x, digits)


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


def _charpoly(m):
    """faddeev_leverrier on a dense matrix, passed as its sparse rows."""
    from test_perron import sparse_rows  # test_perron imports this module at its top

    return faddeev_leverrier(sparse_rows(m))


def test_charpoly_identity():
    chi = _charpoly([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[0]
    assert chi.coeffs == (-1, 3, -3, 1)


def test_charpoly_examples():
    assert _charpoly([[2, 1, 2], [1, 0, 1], [0, 1, 0]])[0].coeffs == (0, -2, -2, 1)
    assert _charpoly([[1, 1], [1, 0]])[0].coeffs == (-1, -1, 1)


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
    chi = _charpoly(block)[0]
    ca, cc = _charpoly(a)[0], _charpoly(c)[0]
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
    # the returned c at x0 is column 0 of adj E(x0), the cofactors along
    # row 0 that the Perron start takes, and E(x0) times it is det E(x0) e_0
    # = +-chi(x0) e_0
    from test_perron import sparse_rows

    chi, c = _charpoly(m)
    E = _e_matrix(sparse_rows(m))
    t = len(E)
    assert 1 <= t <= 3 and all(len(row) == t for row in E) and len(c) == t
    at = [[eval_fraction(IntPoly(g), x0) for g in row] for row in E]
    col = [(-1) ** e * _det([r[:e] + r[e + 1 :] for r in at[1:]]) for e in range(t)]
    assert [eval_fraction(IntPoly(g), x0) for g in c] == col
    prod = [sum(a * v for a, v in zip(row, col)) for row in at]
    want = eval_fraction(chi, x0)
    assert prod in ([want] + [0] * (t - 1), [-want] + [0] * (t - 1))


small_poly = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: tuple(IntPoly(c).coeffs))


@given(st.integers(0, 4).flatmap(lambda m: st.lists(
    st.lists(small_poly, min_size=m + 1, max_size=m + 1), min_size=m, max_size=m)),
       st.data())
@settings(max_examples=150)
def test_int_cofactors_match_laplace(rows, data):
    # c_e = (-1)^e det(rows without column e) as polynomials of degree <= 2m,
    # so agreement at 2m + 1 points is equality; repeated rows reach rank < m
    m = len(rows)
    if m >= 2 and data.draw(st.booleans()):
        rows[1] = list(rows[0])
    c = int_cofactors(rows)
    assert len(c) == m + 1
    for x0 in range(-m, m + 1):
        at = [[eval_fraction(IntPoly(g), x0) for g in row] for row in rows]
        want = [(-1) ** e * _det([r[:e] + r[e + 1 :] for r in at]) for e in range(m + 1)]
        assert [eval_fraction(IntPoly(g), x0) for g in c] == want


def _det(rows):
    """Determinant by expansion along the first row: the reference for small matrices."""
    if not rows:
        return 1
    return sum((-1) ** e * v * _det([r[:e] + r[e + 1 :] for r in rows[1:]]) for e, v in enumerate(rows[0]))


# -- gcd, squarefree, Sturm ------------------------------------------------------


def test_squarefree_part():
    # (x-1)^2 (x+1)
    p = IntPoly([1, -1, -1, 1])
    assert squarefree_part(p).coeffs == (-1, 0, 1)
    # -2 (x-3)^2: the chain stops at p' = -4x + 12, which is not primitive
    assert squarefree_part(IntPoly([-18, 12, -2])).coeffs == (-3, 1)
    assert squarefree_part(IntPoly([-5])).coeffs == (1,)
    assert squarefree_part(IntPoly([])).is_zero()


def test_gcd():
    a = IntPoly([2, 1])  # x + 2
    b = IntPoly([1, 1])  # x + 1
    prod = IntPoly([2, 5, 4, 1])  # (x+1)^2 (x+2)
    assert int_poly_gcd(prod, IntPoly([1, 2, 1])).coeffs == (1, 2, 1)
    assert int_poly_gcd(a, b).degree == 0


def test_sturm_counts():
    p = IntPoly([6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    chain = sturm_chain(p)
    assert sturm_count(chain, Dyadic(0), Dyadic(2)) == 2
    assert sturm_count(chain, Dyadic(3, -1), Dyadic(2)) == 1
    assert sturm_count(chain, Dyadic(-2), Dyadic(0)) == 2
    assert sturm_count(chain, Dyadic(2), Dyadic(10)) == 0
    # p's own chain counts distinct roots when p is not squarefree: x^2 - 2 twice, x^2 - 3 once
    chain = sturm_chain(IntPoly(_poly_mul([6, 0, -5, 0, 1], [-2, 0, 1])))
    assert sturm_count(chain, Dyadic(0), Dyadic(2)) == 2
    assert sturm_count(chain, Dyadic(-2), Dyadic(3, -1)) == 3


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
    assert eval_fraction(poly, enc3.lo.as_fraction()) < 0 < eval_fraction(poly, enc3.hi.as_fraction())
    assert enc3.width().as_fraction() <= Fraction(1, 2**40)


def test_isolate_dominant_refinement_nests():
    root = isolate_dominant(IntPoly([-1, -1, 1]), 2, prec=32)
    first = root.enclosure()
    second = root.refine(200)
    assert first.lo <= second.lo and second.hi <= first.hi
    assert second.width().as_fraction() <= Fraction(1, 2**200)


def test_isolate_dominant_exact_integer():
    root = isolate_dominant(IntPoly([0, -2, 1]), 5)  # x(x-2)
    assert root.is_exact()
    assert root.enclosure().lo == Dyadic(2)


@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-2**40, 2**40), st.integers(-90, 20))
@settings(max_examples=200)
def test_eval_dyadic_sign_matches_fraction(coeffs, m, e):
    p, x = IntPoly(coeffs), Dyadic(m, e)
    v = eval_fraction(p, x.as_fraction())
    assert p.eval_dyadic_sign(x) == (v > 0) - (v < 0)


@st.composite
def _points_near_roots(draw):
    """(coeffs, m, s): an odd m, and a polynomial with a root within 2**(1-s) of m / 2**s."""
    s = draw(st.integers(1, 600))
    m = 2 * draw(st.integers(-(2 << s), 2 << s)) + 1
    near = [-(m + draw(st.integers(-2, 2))), 1 << s]
    return _poly_mul(draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=6)), near), m, s


@given(_points_near_roots())
@settings(max_examples=200)
def test_shift_horner_sign_matches_the_fraction_horner(point):
    # an odd mantissa keeps the exponent at -s, so the shift Horner runs
    coeffs, m, s = point
    p = IntPoly(coeffs)
    v = eval_fraction(p, Fraction(m, 1 << s))
    assert p.eval_dyadic_sign(Dyadic(m, -s)) == (v > 0) - (v < 0)


def test_nonroot_near_gives_up_with_undecidable():
    with pytest.raises(Undecidable, match="512 bits"):
        _nonroot_near(IntPoly([]), Dyadic(1), Dyadic(0), Dyadic(2))


def _isolation(p: IntPoly, upper: int) -> tuple[IntPoly, Dyadic, Dyadic]:
    """The squarefree part isolate_dominant works on and its isolating bracket (a, b]."""
    q = p.shift_out_zero_roots()[0]
    sf = squarefree_part(q)
    return (sf, *isolate_largest_root(sf, sturm_chain(q), upper))


def _assert_bracket_is_the_unit_cell_refined(p: IntPoly, upper: int) -> None:
    """isolate_dominant's bracket sits in the unit cell and refines as bisection does."""
    sf, a, b = _isolation(p, upper)
    assert (a.round_down(16), b.round_up(16)) == (a, b)  # so no rounding moves (a, b]
    cell = refine_root_bisect(sf, a, b, 0)
    for prec in (0, 16, 300):
        root = isolate_dominant(p, upper, prec)
        assert cell.lo <= root.lo and root.hi <= cell.hi
        if root.is_exact():  # an integer root, decided in the cell
            assert sf.eval_dyadic_sign(root.lo) == 0 and root.lo.e >= 0
            continue
        for lo, hi in ((cell.lo, cell.hi), (a, b)):
            want = _bisect_reference(sf, lo, hi, prec)
            assert (root.lo, root.hi) == (want.lo, want.hi)


def test_isolate_dominant_separates_close_roots_with_no_bracket_cap():
    # roots 5/3 and 5/3 + 2^-20: no 16-bit dyadic bracket separates them
    p = IntPoly([5 * (5 * 2**20 + 3), -(30 * 2**20 + 9), 9 * 2**20])
    assert isolate_dominant(p, 2).enclosure().lo.as_fraction() > Fraction(5, 3)
    # (a, b] off the 16-bit grid is rounded out at 16, 32, ... bits, and the
    # search ends by the bits a and b take, with no cap; the second has a
    # 17-bit a whose 16-bit rounding still holds one root
    close = (p, 2)
    off_grid = (IntPoly(reduce(_poly_mul, [[-6, 3, 1], [1, -6, 1, 2]] + [[1, -4, 0, 3]] * 2)), 4702)
    for p, upper in (close, off_grid):
        _, a, b = _isolation(p, upper)
        assert (a.round_down(16), b.round_up(16)) != (a, b)
        for prec in (0, 32, 300):
            root = isolate_dominant(p, upper, prec)
            assert (root.poly, root.lo, root.hi) == _fraction_isolate_dominant(p, upper, prec)


@pytest.mark.parametrize("p, upper", [
    (GOLDEN, 2),
    (IntPoly([-1, -1, -1, 1]), 2),  # tribonacci
    (IntPoly([3, 2, -4, 1]), 5),  # (x^2 - x - 1)(x - 3): the root 3 is an integer
    (IntPoly([0, 0, -2, 0, 1]), 7),  # x^2 (x^2 - 2): zero roots go first
    (IntPoly([-5, 2]), 3),  # 5/2 is on no grid of (0, 3]
])
def test_isolate_dominant_bracket_is_the_refined_unit_cell(p, upper):
    _assert_bracket_is_the_unit_cell_refined(p, upper)


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
        return sturm_count(chain, lo, hi)

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


SQRT2 = IntPoly([-2, 0, 1])
_S = isqrt(2 << 84)  # floor(sqrt(2) * 2**42)


@given(isolated_roots(), st.integers(8, 3000))
@settings(max_examples=60, deadline=None)
# the Newton guess comes before the first halving on a bracket 2**-40 or
# 3 * 2**-42 wide and after it on one 5 * 2**-42 wide
@example((SQRT2, Dyadic(_S - 1, -42), Dyadic(_S + 3, -42)), 200)
@example((SQRT2, Dyadic(_S - 1, -42), Dyadic(_S + 2, -42)), 200)
@example((SQRT2, Dyadic(_S - 2, -42), Dyadic(_S + 3, -42)), 200)
@example((IntPoly([-5, 0, 1]), Dyadic(2), Dyadic(4)), 8)  # ends with exponents 1 and 2
@example((IntPoly([-5, 0, 1]), Dyadic(2), Dyadic(4)), 100)
def test_refine_matches_bisection(root, prec):
    p, lo, hi = root
    got = refine_root_bisect(p, lo, hi, prec)
    want = _bisect_reference(p, lo, hi, prec)
    assert (got.lo, got.hi) == (want.lo, want.hi)


_GUESS_BRACKETS = (
    (Dyadic(_S - 1, -42), Dyadic(_S + 3, -42)),  # 2**-40 wide
    (Dyadic(_S - 1, -42), Dyadic(_S + 2, -42)),  # 3 * 2**-42
    (Dyadic(_S - 2, -42), Dyadic(_S + 3, -42)),  # 5 * 2**-42
    (Dyadic(1), Dyadic(2)),
)


def _recorded_guesses(monkeypatch, fail_first: bool) -> list:
    """The bracket widths _newton_guess is called on; with fail_first its first guess is lo."""
    seen = []
    real = polynomials._newton_guess

    def recording(p, lo, hi, prec):
        seen.append(hi - lo)
        return lo if fail_first and len(seen) == 1 else real(p, lo, hi, prec)

    monkeypatch.setattr(polynomials, "_newton_guess", recording)
    return seen


@pytest.mark.parametrize("bracket, width", zip(_GUESS_BRACKETS, [
    Dyadic(1, -40), Dyadic(3, -42), Dyadic(5, -42), Dyadic(1, -8),
]))
def test_newton_guess_starts_on_the_first_bracket_at_most_2_8_wide(monkeypatch, bracket, width):
    seen = _recorded_guesses(monkeypatch, fail_first=False)
    refine_root_bisect(SQRT2, *bracket, 200)
    assert seen == [width]


@pytest.mark.parametrize("lo, hi, width", [
    # a bracket already 2**-40 wide or less gets its one guess at once
    (*_GUESS_BRACKETS[0], [Dyadic(1, -40)]),
    (*_GUESS_BRACKETS[1], [Dyadic(3, -42)]),
    (*_GUESS_BRACKETS[2], [Dyadic(5, -42), Dyadic(5, -43)]),
    (*_GUESS_BRACKETS[3], [Dyadic(1, -8), Dyadic(1, -40)]),
])
def test_newton_guess_starts_on_the_first_bracket_at_most_2_40_wide(monkeypatch, lo, hi, width):
    # the first guess is forced off the root, so its snap fails: the second
    # comes on the first bracket 2**-40 wide or less, and bisection decides
    # what no guess verifies
    seen = _recorded_guesses(monkeypatch, fail_first=True)
    got = refine_root_bisect(SQRT2, lo, hi, 200)
    assert seen == width
    want = _bisect_reference(SQRT2, lo, hi, 200)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_newton_guess_ends_on_a_wide_bracket():
    # a bracket 2**-2 wide or wider pins no bit, so the working bits still halve to an end
    for lo, hi in ((Dyadic(1), Dyadic(2)), (Dyadic(0), Dyadic(4)), (Dyadic(5, -2), Dyadic(6, -2))):
        for prec in (0, 1, 2, 64):
            x = polynomials._newton_guess(SQRT2, lo, hi, prec)
            assert x is None or lo <= x <= hi


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


def test_field_inverse_of_an_integer_element_is_a_fraction():
    f = golden_field()
    inv = f.inv(f.from_fraction(2))
    # 1/2: integer coefficients over one denominator
    assert inv == ((1,), 2)
    assert all(type(c) is int for c in inv[0]) and type(inv[1]) is int


def _count_gcds(monkeypatch, *modules):
    """The list that each int_poly_gcd call, bound in any of modules, appends its arguments to."""
    calls = []
    for mod in modules:
        real = mod.int_poly_gcd
        monkeypatch.setattr(mod, "int_poly_gcd", lambda p, q, real=real: calls.append((p, q)) or real(p, q))
    return calls


def test_is_zero_of_a_constant_runs_no_gcd(monkeypatch):
    calls = _count_gcds(monkeypatch, algebraic)
    f = golden_field()
    assert not f.is_zero(f.from_fraction(Fraction(-3, 2)))
    assert f.is_zero(f.from_fraction(0))
    assert calls == []
    # a non-constant element still asks the gcd
    assert not f.is_zero(f.generator())
    assert len(calls) == 1


def test_a_failed_inverse_runs_one_remainder_sequence(monkeypatch):
    calls = _count_gcds(monkeypatch, algebraic, polynomials)

    def field():  # (x^2-x-1)(x-3), the bracket [1.5, 1.75] pins the golden ratio
        return RealAlgebraicField(IsolatedRoot(IntPoly([3, 2, -4, 1]), Dyadic(3, -1), Dyadic(7, -2)))

    f = field()
    # 1/(phi - 3) = -(phi + 2)/5; the factor x - 3 leaves the modulus
    assert f.inv(f.reduce([-3, 1])) == ((-2, -1), 5)
    assert f.modulus.coeffs == (-1, -1, 1)
    f = field()
    with pytest.raises(ZeroDivisionError):
        f.inv(f.reduce([-1, -1, 1]))  # zero at the root, not in Q[x]/(modulus)
    assert f.modulus.coeffs == (-1, -1, 1)
    assert calls == []


def test_add_sub_scalar_mul_skip_reduce(monkeypatch):
    f = golden_field()
    phi = f.generator()
    # record each integer vector that is long enough to need reducing
    calls = []
    real_rem = RealAlgebraicField._rem
    monkeypatch.setattr(
        RealAlgebraicField, "_rem",
        lambda self, c: (len(c) > self.degree and calls.append(c)) or real_rem(self, c),
    )
    assert f.add(phi, ((1, -1), 1)) == ((1,), 1)
    assert f.sub(phi, phi) == ((0,), 1)
    assert f.scalar_mul(3, phi) == ((0, 3), 1)
    assert f.add(((2, 3), 1), ((1,), 1)) == ((3, 3), 1)
    assert calls == []
    # a product has degree 2 and must be reduced
    assert f.mul(phi, phi) == ((1, 1), 1)
    assert len(calls) == 1


# -- the integer kernel against a Fraction reference -------------------------------
#
# qdivmod is long division over Q.  _FractionField does the same field
# arithmetic on lists of Fractions: schoolbook products reduced by qdivmod,
# and inverses by the extended Euclidean algorithm over Q, dividing a common
# factor out of the modulus.


def qdivmod(num, den):
    """Quotient and remainder of num by den over Q, as Fraction lists; r has no trailing zero."""
    r = [Fraction(v) for v in num]
    while r and r[-1] == 0:
        r.pop()
    d = len(den) - 1
    q = [Fraction(0)] * max(0, len(r) - d)
    while len(r) > d:
        c, k = r[-1] / den[-1], len(r) - 1 - d
        q[k] = c
        for i in range(d + 1):
            r[k + i] -= c * den[i]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _qmul(x, y):
    out = [Fraction(0)] * max(len(x) + len(y) - 1, 0)
    for i, xv in enumerate(x):
        for j, yv in enumerate(y):
            out[i + j] += xv * yv
    return out


def _qsub(x, y):
    out = [Fraction(0)] * max(len(x), len(y))
    for i, v in enumerate(x):
        out[i] += v
    for i, v in enumerate(y):
        out[i] -= v
    return out


def _fraction_xgcd(a, b):
    """(g, s) with s*a = g modulo b and g = gcd(a, b), monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = qdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _qsub(s0, _qmul(q, s1))
    lead = Fraction(r0[-1])
    return [c / lead for c in r0], [c / lead for c in s0]


class _FractionField:
    def __init__(self, modulus):
        self.m = [Fraction(c) for c in modulus]

    def reduce(self, c):
        return qdivmod(c, self.m)[1]

    def add(self, a, b):
        return self.reduce(_qsub(a, [-v for v in b]))

    def sub(self, a, b):
        return self.reduce(_qsub(a, b))

    def mul(self, a, b):
        return self.reduce(_qmul(a, b))

    def scalar_mul(self, q, a):
        return self.reduce([q * v for v in a])

    def inv(self, a):
        while True:
            g, s = _fraction_xgcd(self.reduce(a), self.m)
            if len(g) == 1:
                return self.reduce(s)
            # a is non-zero at the root, so its common factor is divided out
            self.m = qdivmod(self.m, g)[0]


def _value(e):
    """The kernel element (nums, den) as ascending Fractions without trailing zeros."""
    nums, den = e
    assert den > 0 and gcd(den, *nums) == 1 and (nums == (0,) or nums[-1] != 0)
    return [Fraction(v, den) for v in nums] if nums != (0,) else []


P5_FACTOR = [-144, -257, -441, -537, -351, -256, 1]  # Perron factor of the p=5 row
GOLDEN_C = [-1, -1, 1]
CUBIC = [-1, -1, -1, 1]


def _field_case(name):
    """(field, irreducible factor of lambda, extra factor or None)."""
    # moduli taken as given, in a bracket around the golden ratio; (x+1)^2
    # makes a monic modulus that is not squarefree
    given_moduli = {"golden*(x-3)": [-3, 1], "golden*(x+1)^2": [1, 2, 1]}
    if name in given_moduli:
        extra = given_moduli[name]
        poly = IntPoly(_poly_mul(GOLDEN_C, extra))
        return RealAlgebraicField(IsolatedRoot(poly, Dyadic(3, -1), Dyadic(7, -2))), GOLDEN_C, extra
    factor, extra = {
        "golden": (GOLDEN_C, None),
        "cubic": (CUBIC, None),
        "p5": (P5_FACTOR, None),
        "cubic*(x^2+1)": (CUBIC, [1, 0, 1]),
        "p5*(x^2+1)": (P5_FACTOR, [1, 0, 1]),
    }[name]
    poly = IntPoly(_poly_mul(factor, extra) if extra else factor)
    return RealAlgebraicField(isolate_dominant(poly, 1024)), factor, extra


_coeffs = st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7), max_size=14)
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "sub", "mul", "scalar", "inv"]),
              st.integers(0, 99), st.integers(0, 99),
              st.fractions(-5, 5, max_denominator=6)),
    min_size=1, max_size=12,
)


@given(
    st.sampled_from(["golden", "cubic", "p5", "golden*(x-3)", "golden*(x+1)^2", "cubic*(x^2+1)",
                     "p5*(x^2+1)"]),
    st.lists(_coeffs, min_size=1, max_size=3),
    _ops,
    st.integers(0, 12),
)
@settings(max_examples=120, deadline=None)
def test_field_kernel_matches_the_fraction_route(case, starts, ops, shrink_at):
    f, factor, extra = _field_case(case)
    ref = _FractionField(f.modulus.coeffs)
    pool = [(f.reduce(c), ref.reduce([Fraction(v) for v in c])) for c in starts]
    pool.append((f.generator(), ref.reduce([Fraction(0), Fraction(1)])))
    for step, (op, i, j, q) in enumerate(ops):
        if step == shrink_at and extra is not None:
            # the extra factor is invertible at the root, and inverting it
            # divides it out of the modulus in both fields
            e = f.reduce(extra)
            pool.append((f.inv(e), ref.inv([Fraction(v) for v in extra])))
            assert f.modulus.coeffs == tuple(factor) and ref.m == [Fraction(v) for v in factor]
        (a, ra), (b, rb) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "inv":
            if f.is_zero(a):
                with pytest.raises(ZeroDivisionError):
                    f.inv(a)
                continue
            got = (f.inv(a), ref.inv(ra))
        elif op == "scalar":
            got = (f.scalar_mul(q, a), ref.scalar_mul(q, ra))
        else:
            got = (getattr(f, op)(a, b), getattr(ref, op)(ra, rb))
        assert ref.reduce(_value(got[0])) == ref.reduce(got[1])
        assert [Fraction(c) for c in f.modulus.coeffs] == ref.m
        pool.append(got)
    # every element, stale ones included, reads the same through the new modulus
    for e, r in pool:
        assert ref.reduce(_value(e)) == ref.reduce(r)
        assert _value(f._reduced(e)) == ref.reduce(r)


def test_field_rejects_a_non_monic_modulus():
    with pytest.raises(ValueError):
        RealAlgebraicField(IsolatedRoot(IntPoly([-1, 2]), Dyadic(1, -1), Dyadic(1, -1)))
    with pytest.raises(ValueError):
        RealAlgebraicField(IsolatedRoot(IntPoly([-1, -1, 2]), Dyadic(0), Dyadic(2)))


def test_certified_enclosure_budget_raises():
    # a sign that can never be certified must hit the bit budget, not hang
    f = RealAlgebraicField(IsolatedRoot(IntPoly([0, 1]), Dyadic(0), Dyadic(0)))
    with pytest.raises(Undecidable):
        _certified_enclosure(f, f.from_fraction(1), -1, 64)


# -- cyclotomic and integer-root factors ----------------------------------------------


def _product(*factors):
    return IntPoly(reduce(_poly_mul, factors))


def test_cyclotomic_polynomials():
    assert polynomials._cyclotomic(1) == (-1, 1)
    assert polynomials._cyclotomic(2) == (1, 1)
    assert polynomials._cyclotomic(12) == (1, 0, -1, 0, 1)
    assert polynomials._cyclotomic(9) == (1, 0, 0, 1, 0, 0, 1)
    assert polynomials._cyclotomic(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    for n in range(1, 60):
        c = polynomials._cyclotomic(n)
        # x^n - 1 is the product of Phi_d over the divisors d of n
        assert exact_div(IntPoly([-1] + [0] * (n - 1) + [1]), IntPoly(c)).degree == n - len(c) + 1
    phi = {n: p for n, p in polynomials._orders_up_to(12)}
    assert phi[13] == 12 and phi[36] == 12 and 26 in phi and 14 not in [n for n, p in phi.items() if p > 12]
    assert max(phi) == 42


def test_drop_trivial_factors():
    golden = [-1, -1, 1]
    p = _product(golden, [0, 1], [-1, 1], [1, 1], [1, 1, 1], [1, 0, -1, 0, 1], [-2, 1], [3, 1])
    # x, x - 1, x + 1, Phi_3 and Phi_12 go; the integer roots 2 and -3 stay
    assert polynomials.drop_trivial_factors(p) == _product(golden, [-2, 1], [3, 1])
    # each factor goes as often as it divides: x^2 (x-1)^3 (x+1)^2 Phi_3^2 Phi_8
    phi3, phi8 = [1, 1, 1], [1, 0, 0, 0, 1]
    p = _product([0, 0, 1], [-1, 1], [-1, 1], [-1, 1], [1, 1], [1, 1], phi3, phi3, phi8,
                 golden, [-2, 1])
    assert polynomials.drop_trivial_factors(p) == _product(golden, [-2, 1])
    # Phi_36 has degree 12, and x^2 - 3x - 1 is not cyclotomic
    phi36 = polynomials._cyclotomic(36)
    assert polynomials.drop_trivial_factors(_product([-1, -3, 1], phi36)).coeffs == (-1, -3, 1)


def test_drop_trivial_factors_builds_each_cyclotomic_once():
    polynomials._cyclotomic.cache_clear()
    p = _product([-1, -1, 1], [1, 1, 1], [1, 0, -1, 0, 1])  # degree 8
    assert polynomials.drop_trivial_factors(p).coeffs == (-1, -1, 1)
    first = polynomials._cyclotomic.cache_info()
    assert first.misses >= 1
    # a second call on the same degree builds no Phi_n
    q = _product([-1, -3, 1], [-2, 1], [1, 1], [1, 0, 0, 0, 0, 0, 1])
    assert polynomials.drop_trivial_factors(q).coeffs == (2, 5, -5, 1)
    second = polynomials._cyclotomic.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def test_isolate_dominant_decides_integer_roots_from_the_bisection_cell():
    def point(p, upper):
        root = isolate_dominant(p, upper)
        assert root.is_exact()
        return root.lo

    # x^2 - 7x + 10 = (x - 2)(x - 5); (x - 5)(x^2 - 2) also has the root sqrt 2
    assert point(IntPoly([10, -7, 1]), 9) == Dyadic(5)
    assert point(_product([-5, 1], [-2, 0, 1]), 9) == Dyadic(5)
    # the first bisection midpoint of (0, 6] is the root
    assert point(IntPoly([-3, 1]), 6) == Dyadic(3)
    # the rational root 5/2 keeps a bracket, and so does sqrt 5, whose unit
    # cell (135/64, 9/4] has the root 2 = floor(9/4) just below it
    got = isolate_dominant(IntPoly([-5, 2]), 3)
    assert got.lo.as_fraction() < Fraction(5, 2) < got.hi.as_fraction()
    got = isolate_dominant(_product([-2, 1], [-5, 0, 1]), 4)
    assert got.lo.as_fraction() ** 2 < 5 < got.hi.as_fraction() ** 2
    # a wide bracket costs about log2 of its width in sign evaluations
    calls = []
    real = IntPoly.eval_dyadic_sign
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntPoly, "eval_dyadic_sign", lambda self, x: calls.append(x) or real(self, x))
        n = 10**12 + 39
        assert point(IntPoly([-n, 1]), 2**60) == Dyadic(n)
    assert len(calls) <= 64 + 4


# -- the Z[x] kernel -------------------------------------------------------------

icoeff = st.integers(-20, 20)


@given(st.lists(icoeff, max_size=9), st.lists(icoeff, max_size=3), st.lists(icoeff, min_size=1, max_size=5),
       icoeff.filter(bool))
@settings(max_examples=100)
def test_int_divmod_identity(num, den_low, quot, den_lead):
    # any num by a monic den: num = q*den + r with deg r < deg den
    den = den_low + [1]
    q, r = int_divmod(num, den)
    assert len(r) < len(den) and (not r or r[-1] != 0)
    assert all(type(v) is int for v in q + r)
    back = _poly_mul(q, den) if q else [0]
    back += [0] * (len(r) - len(back))
    for i, rv in enumerate(r):
        back[i] += rv
    assert IntPoly(back) == IntPoly(num)
    # an exact product by a non-monic den: the quotient comes back, no remainder
    den = den_low + [den_lead]
    q, r = int_divmod(_poly_mul(quot, den), den)
    assert r == [] and IntPoly(q) == IntPoly(quot)


@given(st.lists(icoeff, max_size=8), st.lists(icoeff, max_size=3), icoeff.filter(bool))
@settings(max_examples=150)
@example([0, 0, 6, 0], [1, 3], -2)  # untrimmed num, a negative lead, an integral quotient
@example([1, 0, 1], [1], -2)  # x^2 + 1 by 1 - 2x: the quotient -x/2 - 1/4 is not integral
def test_int_divmod_matches_division_over_q(num, den_low, den_lead):
    den = den_low + [den_lead]
    q, r = qdivmod(num, den)
    if all(v.denominator == 1 for v in q):
        assert int_divmod(num, den) == (q, r)
    else:
        # a leading coefficient of den that does not divide one met on the way
        with pytest.raises(ArithmeticError):
            int_divmod(num, den)


@given(st.lists(icoeff, max_size=9), st.lists(icoeff, max_size=3), icoeff.filter(bool))
@settings(max_examples=150)
@example([1, 2, 3, 4, 5], [3, 1], -2)
@example([0, 0, 5, 0, 0], [], -3)  # untrimmed a, a constant divisor
def test_pseudo_divmod_identity(a, b_low, b_lead):
    # f*a = q*b + r for any lead of b: the remainder sequences of the gcd,
    # Sturm and inverse code divide by members neither monic nor positive
    b = b_low + [b_lead]
    f, q, r = polynomials._pseudo_divmod(a, b)
    assert len(r) < len(b) and (not r or r[-1] != 0)
    assert all(type(v) is int for v in q + r)
    steps = max(0, IntPoly(a).degree - len(b) + 2)
    assert f > 0 and f in {abs(b_lead) ** j for j in range(steps + 1)}
    back = _poly_mul(q, b) if q else [0]
    back += [0] * (len(r) - len(back))
    for i, rv in enumerate(r):
        back[i] += rv
    assert IntPoly(back) == IntPoly(f * v for v in a)


@given(st.lists(icoeff, max_size=2), st.lists(icoeff, min_size=1, max_size=3), st.lists(icoeff, max_size=3))
@settings(max_examples=150)
@example([], [-1, -1], [])  # a = 0: the gcd is the modulus x^2 - x - 1 itself
@example([-3], [-1, -1], [2, -5])  # a common factor x - 3 and a negative lead
def test_int_inverse_is_an_inverse_or_the_gcd(common_low, h_low, k):
    # m = common*h is monic; a = common*k reduced modulo m keeps the common factor
    common = common_low + [1]
    m = _poly_mul(common, h_low + [1])
    a = int_divmod(_poly_mul(common, k or [0]), m)[1] or [0]
    got = polynomials.int_inverse(a, m)
    g = int_poly_gcd(IntPoly(a), IntPoly(m))
    if g.degree == 0:
        assert isinstance(got, tuple)
        s, c = got
        assert c != 0 and all(type(v) is int for v in s)
        sa = _poly_mul(s, a)
        sa[0] -= c
        assert int_divmod(sa, m)[1] == []  # s*a = c modulo m
    else:
        assert got == g


def _fraction_sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain by division over Q, each -remainder scaled to a primitive integer polynomial."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, rem = qdivmod(chain[-2].coeffs, chain[-1].coeffs)
        if not rem:
            break
        den = lcm(*(v.denominator for v in rem))
        ints = [int(-v * den) for v in rem]
        g = gcd(*ints)
        chain.append(IntPoly(v // g for v in ints))
    return [c for c in chain if not c.is_zero()]


@given(st.lists(st.lists(st.integers(-12, 12), min_size=2, max_size=4), min_size=1, max_size=3),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_sturm_chain_matches_the_fraction_route(factors, square_first):
    if square_first:
        factors = factors + factors[:1]
    p = IntPoly(reduce(_poly_mul, factors))
    assume(p.degree >= 1)
    # the chain of p as drawn: repeated factors, negative and non-unit
    # leading coefficients stay
    assert sturm_chain(p) == _fraction_sturm_chain(p)


@given(st.integers(-2**80, 2**80), st.integers(1, 2**40), st.integers(-40, 200))
@settings(max_examples=150)
def test_from_ratio_is_floor_and_ceil(n, d, prec):
    got = IntervalReal.from_ratio(n, d, prec)
    scaled = Fraction(n, d) * Fraction(2) ** prec
    assert (got.lo, got.hi) == (Dyadic(floor(scaled), -prec), Dyadic(ceil(scaled), -prec))
    want = IntervalReal.from_fraction(Fraction(n, d), prec)
    assert (got.lo, got.hi) == (want.lo, want.hi)


@given(st.integers(-2**80, 2**80), st.integers(-100, 40), st.integers(0, 90))
@settings(max_examples=150)
def test_round_down_and_up_are_floor_and_ceil(m, e, prec):
    x = Dyadic(m, e)
    scaled = x.as_fraction() * 2**prec
    assert x.round_down(prec) == Dyadic(floor(scaled), -prec)
    assert x.round_up(prec) == Dyadic(ceil(scaled), -prec)


# (modulus, bracket) of fields whose bracket is not a positive one from isolate_dominant
_BRACKETS = {
    "negative root": ([-1, 1, 1], Dyadic(-2), Dyadic(-1)),  # x^2 + x - 1 on [-2, -1]
    "straddles 0": ([-1, 3, 1], Dyadic(-1), Dyadic(1)),  # x^2 + 3x - 1 on [-1, 1]
    "integer ends": ([-5, 0, 1], Dyadic(2), Dyadic(4)),  # x^2 - 5 on [2, 4]: exponents 1 and 2
    "integer root": ([-6, 1, 1], Dyadic(2), Dyadic(2)),  # (x + 3)(x - 2) at the point 2
}


@given(st.sampled_from(["golden", "cubic", "p5", "golden*(x-3)", *_BRACKETS]), _coeffs,
       st.integers(1, 400), st.sampled_from([None, 3, 70]))
@settings(max_examples=120, deadline=None)
def test_enclosure_matches_the_from_fraction_horner(case, coeffs, prec, refine):
    # the integer Horner against IntervalReal's at every sign of the bracket
    # and of the accumulator, on brackets whose ends have exponents < 0 and > 0
    if case in _BRACKETS:
        poly, lo, hi = _BRACKETS[case]
        f = RealAlgebraicField(IsolatedRoot(IntPoly(poly), lo, hi))
    else:
        f = _field_case(case)[0]
    if refine is not None:
        f.root.refine(refine)
    a = f.reduce(coeffs)
    bits, x = max(prec + 16, 48), f.root.enclosure()
    got = f._horner(a, bits)
    want = IntervalReal.exact(0)
    nums, den = a
    for n in reversed(nums):
        want = want.mul(x, bits).add(IntervalReal.from_fraction(Fraction(n, den), bits), bits)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_exact_div_raises_on_inexact_quotient():
    assert exact_div(IntPoly([-1, 0, 1]), IntPoly([1, 1])).coeffs == (-1, 1)
    with pytest.raises(ArithmeticError):
        exact_div(IntPoly([1, 0, 1]), IntPoly([1, 1]))  # x^2 + 1 = (x+1)(x-1) + 2
    with pytest.raises(ArithmeticError):
        exact_div(IntPoly([1, 1]), IntPoly([2, 2]))  # exact, but the quotient is 1/2


# -- isolation on p's own Sturm chain against the Fraction route --------------------
#
# _fraction_isolate_dominant is the isolation that takes the squarefree part
# through a gcd over Q, counts on that part's Sturm chain and bisects in
# Fractions, re-counting both ends of the bracket at every halving.
# isolate_dominant must give the same (poly, lo, hi) from p's own chain at
# dyadic points.


def _fraction_sign(p: IntPoly, x: Fraction) -> int:
    v = eval_fraction(p, x)
    return (v > 0) - (v < 0)


def _fraction_count(chain: list[IntPoly], a: Fraction, b: Fraction) -> int:
    def variations(x):
        signs = [s for s in (_fraction_sign(q, x) for q in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b) if a < b else 0


def _fraction_nonroot_near(p: IntPoly, x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    if _fraction_sign(p, x):
        return x
    for k in range(4, 513):
        for cand in (x + (hi - lo) / 2**k, x - (hi - lo) / 2**k):
            if lo <= cand <= hi and _fraction_sign(p, cand):
                return cand
    raise Undecidable("no non-root near the point")


def _fraction_integer_root_in(p: IntPoly, a: Fraction, b: Fraction) -> int | None:
    sa = _fraction_sign(p, a)
    while b - a >= 1:
        mid = (a + b) / 2
        s = _fraction_sign(p, mid)
        if s == 0:
            return mid.numerator if mid.denominator == 1 else None
        if s == sa:
            a = mid
        else:
            b = mid
    n = floor(b)
    return n if n > a and _fraction_sign(p, Fraction(n)) == 0 else None


def _primitive_ints(coeffs: list[int]) -> list[int]:
    g = gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return [c // g for c in coeffs]


def _fraction_isolate_dominant(p: IntPoly, upper: int, prec: int) -> tuple[IntPoly, Dyadic, Dyadic]:
    p = p.shift_out_zero_roots()[0]
    g = _fraction_xgcd(p.coeffs, p.derivative().coeffs)[0]
    g = _primitive_ints([int(c * lcm(*(v.denominator for v in g))) for c in g])
    sf = exact_div(IntPoly(_primitive_ints(p.coeffs)), IntPoly(g))
    chain = _fraction_sturm_chain(sf)
    a, b = Fraction(0), Fraction(upper)
    while _fraction_sign(sf, b) == 0:
        b += 1
    if _fraction_count(chain, a, b) < 1:
        raise NoSignChange("no real root in the search range")
    while _fraction_count(chain, a, b) > 1:
        mid = _fraction_nonroot_near(sf, (a + b) / 2, a, b)
        if _fraction_count(chain, mid, b) >= 1:
            a = mid
        else:
            b = mid
    a = _fraction_nonroot_near(sf, a, a, b)
    n = _fraction_integer_root_in(sf, a, b)
    if n is not None:
        return sf, Dyadic(n), Dyadic(n)
    prec0 = 16
    while True:
        dlo, dhi = Dyadic.from_fraction_floor(a, prec0), Dyadic.from_fraction_ceil(b, prec0)
        lo, hi = dlo.as_fraction(), dhi.as_fraction()
        if _fraction_sign(sf, lo) and _fraction_sign(sf, hi):
            if _fraction_count(chain, lo, hi) == 1:
                break
        prec0 *= 2
    root = IsolatedRoot(sf, dlo, dhi)
    root.refine(prec)
    return sf, root.lo, root.hi


@pytest.mark.parametrize("factors, sf, lo", [
    # the chain ends in x - 1, and the root is (3 + sqrt5)/2
    ([[-1, 1], [-1, 1], [1, -3, 1]], (-1, 4, -4, 1), Fraction(5, 2)),
    # the chain ends in x - 2, and the largest root is the repeated one, 2
    ([[-2, 1], [-2, 1], [1, 1]], (-2, -1, 1), Fraction(2)),
    # the chain stops at p' = 2x - 6, which is not primitive
    ([[-3, 1], [-3, 1]], (-3, 1), Fraction(3)),
])
def test_isolate_dominant_on_repeated_factors(factors, sf, lo):
    p = _product(*factors)
    root = isolate_dominant(p, 8)
    assert root.poly.coeffs == sf
    assert (root.poly, root.lo, root.hi) == _fraction_isolate_dominant(p, 8, 64)
    assert brackets_root(root.enclosure(), root.poly)
    assert lo <= root.lo.as_fraction() < lo + 1
    assert root.enclosure().width().as_fraction() <= Fraction(1, 2**64)


_small_factor = st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                          st.sampled_from([-3, -2, -1, 1, 2, 3])).map(lambda t: t[0] + [t[1]])


@given(st.tuples(st.integers(-6, 6), st.integers(1, 6)), st.lists(_small_factor, max_size=1),
       _small_factor, st.integers(2, 3), st.sampled_from([32, 64, 300]))
@settings(max_examples=100, deadline=None)
def test_isolate_dominant_matches_the_fraction_route_on_repeated_factors(bc, rest, twice, times, prec):
    # x^2 + bx - c has a positive root; `twice` divides p 2 or 3 times
    p = IntPoly(reduce(_poly_mul, [[-bc[1], bc[0], 1]] + rest + [twice] * times))
    upper = sum(abs(c) for c in p.coeffs)
    sf, lo, hi = want = _fraction_isolate_dominant(p, upper, prec)
    # the largest root is simple: gcd(p, p') has no root in its bracket
    g = exact_div(IntPoly(_primitive_ints(p.shift_out_zero_roots()[0].coeffs)), sf)
    if lo == hi:
        assume(g.eval_dyadic_sign(lo) != 0)
    else:
        assume(_fraction_count(_fraction_sturm_chain(g), lo.as_fraction(), hi.as_fraction()) == 0)
    root = isolate_dominant(p, upper, prec)
    assert (root.poly, root.lo, root.hi) == want


def test_isolate_dominant_runs_one_remainder_sequence(monkeypatch):
    calls = []
    real = polynomials._remainders

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(polynomials, "_remainders", counting)
    for factors in ([[-1, 1], [-1, 1], [1, -3, 1]], [[-2, 1], [-2, 1], [1, 1]], [[-1, -1, 1]]):
        calls.clear()
        isolate_dominant(_product(*factors), 8)
        assert len(calls) == 1


def test_isolate_largest_root_counts_once_per_halving(monkeypatch):
    # roots 49/16 and 25/8 sit close: the halvings end at 2, 3, 7/2, 13/4, 25/8
    # (a root, stepped off to 201/64) and 393/128
    sf = _product([-49, 16], [-25, 8], [-2, 0, 1], [-1, 1])
    chain = sturm_chain(IntPoly(_poly_mul(sf.coeffs, [-1, 0, 1])))  # x - 1 twice, x + 1 once
    counted, halvings = [], []
    real_variations, real_near = polynomials._variations, polynomials._nonroot_near

    def variations(chain, x):
        counted.append(x)
        return real_variations(chain, x)

    def near(*args):
        halvings.append(args)
        return real_near(*args)

    monkeypatch.setattr(polynomials, "_variations", variations)
    monkeypatch.setattr(polynomials, "_nonroot_near", near)
    a, b = polynomials.isolate_largest_root(sf, chain, 4)
    assert (a, b) == (Dyadic(393, -7), Dyadic(201, -6))
    assert len(halvings) == 6 and len(counted) == 2 + len(halvings)
