from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, lcm

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
from altbase.numerics.polynomials import IsolatedRoot, _nonroot_near, exact_div, int_divmod
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
    # the first row of adj(xI - m) times (xI - m) is chi(x) e_1
    chi, row = faddeev_leverrier(m)
    assert len(row) == 3 and all(len(c) == 3 for c in row)
    row_at = [eval_fraction(IntPoly(c), x0) for c in row]
    xi_minus_m = [[(x0 if i == j else 0) - m[i][j] for j in range(3)] for i in range(3)]
    prod = [sum(row_at[l] * xi_minus_m[l][j] for l in range(3)) for j in range(3)]
    want = eval_fraction(chi, x0)
    assert prod == [want, 0, 0]


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


def test_field_inverse_of_an_integer_element_is_a_fraction():
    f = golden_field()
    inv = f.inv(f.from_fraction(2))
    # 1/2: integer coefficients over one denominator
    assert inv == ((1,), 2)
    assert all(type(c) is int for c in inv[0]) and type(inv[1]) is int


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
    if name == "golden*(x-3)":
        poly = IntPoly(_poly_mul(GOLDEN_C, [-3, 1]))
        return RealAlgebraicField(IsolatedRoot(poly, Dyadic(3, -1), Dyadic(7, -2))), GOLDEN_C, [-3, 1]
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
    st.sampled_from(["golden", "cubic", "p5", "golden*(x-3)", "cubic*(x^2+1)", "p5*(x^2+1)"]),
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
    assert polynomials._cyclotomic(1) == [-1, 1]
    assert polynomials._cyclotomic(2) == [1, 1]
    assert polynomials._cyclotomic(12) == [1, 0, -1, 0, 1]
    assert polynomials._cyclotomic(9) == [1, 0, 0, 1, 0, 0, 1]
    assert polynomials._cyclotomic(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]
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
    # x, x - 1, x + 1, Phi_3 and Phi_8 go; the integer roots 2 and -3 stay
    assert polynomials.drop_trivial_factors(p) == _product(golden, [-2, 1], [3, 1])
    # Phi_36 has degree 12, and x^2 - 3x - 1 is not cyclotomic
    phi36 = polynomials._cyclotomic(36)
    assert polynomials.drop_trivial_factors(_product([-1, -3, 1], phi36)).coeffs == (-1, -3, 1)


def test_integer_root_in():
    # x^2 - 7x + 10 = (x - 2)(x - 5); (x - 5)(x^2 - 2) has no integer root in (2, 9]
    assert polynomials.integer_root_in(IntPoly([10, -7, 1]), Fraction(3), Fraction(100)) == 5
    assert polynomials.integer_root_in(IntPoly([10, -7, 1]), Fraction(1), Fraction(3)) == 2
    p = _product([-5, 1], [-2, 0, 1])
    assert polynomials.integer_root_in(p, Fraction(1), Fraction(2)) is None
    assert polynomials.integer_root_in(p, Fraction(2), Fraction(9)) == 5
    # a wide bracket costs about log2 of its width in sign evaluations
    calls = []
    real = polynomials._sign_at

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_sign_at", counting)
        n = 10**12 + 39
        assert polynomials.integer_root_in(IntPoly([-n, 1]), Fraction(0), Fraction(2**60)) == n
    assert len(calls) <= 64


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
def test_int_divmod_matches_division_over_q(num, den_low, den_lead):
    den = den_low + [den_lead]
    q, r = qdivmod(num, den)
    if all(v.denominator == 1 for v in q):
        assert int_divmod(num, den) == (q, r)
    else:
        # a leading coefficient of den that does not divide one met on the way
        with pytest.raises(ArithmeticError):
            int_divmod(num, den)


def _fraction_sturm_chain(sf: IntPoly) -> list[IntPoly]:
    """Sturm chain by division over Q, each -remainder scaled to a primitive integer polynomial."""
    chain = [sf, sf.derivative()]
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
    assert sturm_chain(p) == _fraction_sturm_chain(squarefree_part(p))
    if int_poly_gcd(p, p.derivative()).degree == 0:
        # squarefree as drawn, so negative and non-unit leading coefficients stay
        assert polynomials._sturm_chain(p) == _fraction_sturm_chain(p)


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


@given(st.sampled_from(["golden", "cubic", "p5", "golden*(x-3)"]), _coeffs, st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_enclosure_matches_the_from_fraction_horner(case, coeffs, prec):
    f = _field_case(case)[0]
    a = f.reduce(coeffs)
    got = f.enclosure(a, prec, refine_until=False)
    bits, x = max(prec + 16, 48), f.root.enclosure()
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
