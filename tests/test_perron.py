import dataclasses
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altbase.errors import InvariantViolation, NotPrimitive, ZeroLeadDigit
from altbase.numerics import Dyadic, IntPoly, IntervalReal, faddeev_leverrier
from altbase.numerics.polynomials import _e_matrix, int_mul
from altbase.perron import (
    FiniteShape,
    MatrixSeq,
    ParryShape,
    _certified_enclosure,
    _is_primitive,
    _perron_field,
    build_finite_matrices,
    build_parry_matrices,
    check_identities,
    left_mul,
    periodic_fixed_point,
)
from altbase.words import ExpansionList, canonicalize, check_parry, parse_word, quasi_greedy_transform
from test_numerics import eval_fraction


def brackets_root(enc: IntervalReal, poly: IntPoly) -> bool:
    at_lo = eval_fraction(poly, enc.lo.as_fraction())
    at_hi = eval_fraction(poly, enc.hi.as_fraction())
    return at_lo == 0 or at_hi == 0 or (at_lo < 0) != (at_hi < 0)


def words(*parts):
    return ExpansionList(tuple(canonicalize(pre, per) for pre, per in parts))


# -- builders -------------------------------------------------------------------


def test_parry_matrices_single_word():
    ms, m, n = build_parry_matrices(words(((), (2, 1))))
    assert (m, n) == (1, 2)
    assert ms.shape == ParryShape(1)
    assert ms.q == 1 and ms.k == 3
    assert dense(ms.sparse(0), ms.k) == ((2, 1, 2), (1, 0, 1), (0, 1, 0))


def test_parry_matrices_ones():
    ms, m, n = build_parry_matrices(words(((), (1,))))
    assert (m, n) == (1, 1)
    assert dense(ms.sparse(0), ms.k) == ((1, 1), (1, 1))


def test_parry_matrices_two_words():
    ms, m, n = build_parry_matrices(words(((), (2, 1)), ((), (1, 2))))
    assert (m, n) == (1, 1)
    assert ms.q == 2 and ms.k == 4
    assert ms.shape == ParryShape(2)
    assert dense(ms.sparse(0), ms.k)[0] == (1, 1, 1, 1)
    assert dense(ms.sparse(1), ms.k)[0] == (2, 2, 2, 2)
    # extra unit sits at row h+1 = 3, column k = 4
    assert dense(ms.sparse(0), ms.k)[2] == (0, 1, 0, 1)
    assert dense(ms.sparse(1), ms.k)[2] == (0, 1, 0, 1)


def test_parry_matrices_preperiod():
    ms, m, n = build_parry_matrices(words(((2,), (1,))))
    assert (m, n) == (1, 1)
    assert dense(ms.sparse(0), ms.k) == ((2, 1), (1, 1))


def test_parry_matrices_reject_zero_tail():
    lst = words(((2,), (0,)))
    with pytest.raises(ValueError):
        build_parry_matrices(lst)


def test_finite_matrices():
    ms = build_finite_matrices([(1, 1)])
    assert dense(ms.sparse(0), ms.k) == ((1, 1), (1, 0))
    assert ms.shape == FiniteShape()
    ms = build_finite_matrices([(2, 2)])
    assert dense(ms.sparse(0), ms.k) == ((2, 2), (1, 0))
    ms = build_finite_matrices([(1, 1, 1)])
    assert dense(ms.sparse(0), ms.k) == ((1, 1, 1), (1, 0, 0), (0, 1, 0))


def test_finite_matrices_orientation():
    ms = build_finite_matrices([(1, 1), (2, 2)])
    assert dense(ms.sparse(0), ms.k)[0] == (1, 1)
    assert dense(ms.sparse(1), ms.k)[0] == (2, 2)
    assert dense(ms.sparse(-1), ms.k)[0] == (2, 2)


def test_shape_validation():
    with pytest.raises(ZeroLeadDigit):
        MatrixSeq([[0, 1]], FiniteShape())
    with pytest.raises(ValueError):
        MatrixSeq([[1, 1]], ParryShape(2))  # h out of range
    with pytest.raises(ValueError):
        MatrixSeq([[1, -1]], FiniteShape())
    with pytest.raises(ValueError):
        MatrixSeq([[1, 1], [1, 1, 1]], FiniteShape())  # unequal digit rows
    with pytest.raises(ValueError):
        MatrixSeq([[1]], FiniteShape())
    with pytest.raises(ValueError):
        MatrixSeq([], FiniteShape())


def test_matrix_seq_accessors():
    ms = build_finite_matrices([(1, 1), (2, 2)])
    assert ms.digit(0, 1) == 1
    assert ms.digit(1, 2) == 2
    assert ms.digit(3, 2) == 2


def test_rotation_product():
    ms = build_finite_matrices([(1, 1), (2, 2)])
    a0, a1 = dense(ms.sparse(0), ms.k), dense(ms.sparse(1), ms.k)
    q0 = dense(ms.rotation_product(0), ms.k)
    assert q0 == tuple(
        tuple(sum(a0[i][l] * a1[l][j] for l in range(2)) for j in range(2))
        for i in range(2)
    )


# -- fixed points -----------------------------------------------------------------


GOLDEN = IntPoly([-1, -1, 1])
GOLDEN_CONJ = IntPoly([-1, 1, 1])


def test_fixed_point_fibonacci():
    ms = build_finite_matrices([(1, 1)])
    fp = periodic_fixed_point(ms)
    assert fp.q == 1 and fp.k == 2
    assert fp.gamma_vs_one == (1,)
    assert brackets_root(fp.gammas[0], GOLDEN)
    assert brackets_root(fp.lam, GOLDEN)
    assert fp.fs[0][0].is_point() and fp.fs[0][0].lo == Dyadic(1)
    assert brackets_root(fp.fs[0][1], GOLDEN_CONJ)
    assert fp.gammas[0].width().as_fraction() <= Fraction(1, 2**64)


def test_fixed_point_parry_word():
    ms, _, _ = build_parry_matrices(words(((), (2, 1))))
    fp = periodic_fixed_point(ms)
    one_plus_sqrt3 = IntPoly([-2, -2, 1])
    assert brackets_root(fp.gammas[0], one_plus_sqrt3)
    assert brackets_root(fp.lam, one_plus_sqrt3)
    # f = (1, sqrt3 - 1, 1)
    assert fp.fs[0][0].is_point() and fp.fs[0][0].lo == Dyadic(1)
    assert brackets_root(fp.fs[0][1], IntPoly([-2, 2, 1]))
    assert fp.fs[0][2].contains(Fraction(1))


def test_fixed_point_integer_pair():
    ms, _, _ = build_parry_matrices(words(((), (2, 1)), ((), (1, 2))))
    fp = periodic_fixed_point(ms)
    assert fp.q == 2
    assert fp.gammas[0].is_point() and fp.gammas[0].lo == Dyadic(2)
    assert fp.gammas[1].is_point() and fp.gammas[1].lo == Dyadic(3)
    assert fp.lam.is_point() and fp.lam.lo == Dyadic(6)
    for row in fp.fs:
        for entry in row:
            assert entry.is_point() and entry.lo == Dyadic(1)


def test_fixed_point_three_periodic():
    # period-3 finite-shape family whose gamma_0 equals 1 exactly
    ms = build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)])
    assert dense(ms.sparse(1), ms.k) == ((1, 0, 1), (1, 0, 0), (0, 1, 0))
    assert dense(ms.sparse(2), ms.k) == ((1, 1, 0), (1, 0, 0), (0, 1, 0))
    fp = periodic_fixed_point(ms)

    assert fp.gamma_vs_one == (0, 1, 1)
    assert fp.gammas[0].is_point() and fp.gammas[0].lo == Dyadic(1)
    # gamma_1 = (3+sqrt17)/4, gamma_2 = (1+sqrt17)/2, lambda = (5+sqrt17)/2
    assert brackets_root(fp.gammas[1], IntPoly([-1, -3, 2]))
    assert brackets_root(fp.gammas[2], IntPoly([-4, -1, 1]))
    assert brackets_root(fp.lam, IntPoly([2, -5, 1]))

    # f_0 = (1, 0, (sqrt17-3)/2) with the zero decided exactly
    assert fp.fs[0][0].is_point() and fp.fs[0][0].lo == Dyadic(1)
    assert fp.fs[0][1].is_point() and fp.fs[0][1].lo == Dyadic(0)
    assert brackets_root(fp.fs[0][2], IntPoly([-2, 3, 1]))
    # f_1 = (1, (sqrt17-1)/4, 0), f_2 = (1, (sqrt17-1)/2, 1)
    assert fp.fs[1][2].is_point() and fp.fs[1][2].lo == Dyadic(0)
    assert brackets_root(fp.fs[1][1], IntPoly([-2, 1, 2]))
    assert brackets_root(fp.fs[2][1], IntPoly([-4, 1, 1]))
    assert fp.fs[2][2].contains(Fraction(1))


def test_fixed_point_refinement():
    ms = build_finite_matrices([(1, 1)])
    fp = periodic_fixed_point(ms, tol_bits=32)
    coarse = fp.gammas[0]
    finer = dataclasses.replace(fp, tol_bits=128)
    # the same exact point, enclosed anew at the finer tolerance
    assert finer.field is fp.field and finer.gamma_elems is fp.gamma_elems
    fine = finer.gammas[0]
    assert fine.width().as_fraction() <= Fraction(1, 2**128)
    assert (coarse.lo <= fine.lo and fine.hi <= coarse.hi) or brackets_root(fine, GOLDEN)
    assert fp.gammas[0] is coarse


def test_not_primitive():
    ms = MatrixSeq([[1, 0]], FiniteShape())
    with pytest.raises(NotPrimitive):
        periodic_fixed_point(ms)


# -- identities -------------------------------------------------------------------


def test_identities_fibonacci():
    ms = build_finite_matrices([(1, 1)])
    fp = periodic_fixed_point(ms)
    report = check_identities(ms, fp)
    assert report.ok
    assert len(report.checks) == 1
    assert report.checks[0].item == "unit-sum"


def test_identities_parry():
    ms, _, _ = build_parry_matrices(words(((), (2, 1)), ((), (1, 2))))
    fp = periodic_fixed_point(ms)
    report = check_identities(ms, fp)
    assert report.ok
    items = [(c.n, c.item) for c in report.checks]
    assert (0, "unit-sum") in items and (0, "tail-sum") in items
    assert len(report.checks) == 4


def test_identities_three_periodic():
    ms = build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)])
    fp = periodic_fixed_point(ms)
    assert check_identities(ms, fp).ok


def test_identities_survive_widening():
    ms = build_finite_matrices([(1, 1)])
    fp = periodic_fixed_point(ms)
    widened = dataclasses.replace(fp)
    widened.gammas = tuple(g.inflate(Fraction(1, 1000)) for g in fp.gammas)
    widened.fs = tuple(tuple(e.inflate(Fraction(1, 1000)) for e in row) for row in fp.fs)
    assert check_identities(ms, widened).ok


def test_identities_catch_corruption():
    # the check reads the exact data, so one gamma or one digit off fails it
    ms = build_finite_matrices([(1, 1)])
    fp = periodic_fixed_point(ms)
    field = fp.field
    corrupted = dataclasses.replace(
        fp, gamma_elems=(field.add(fp.gamma_elems[0], field.from_fraction(1)),)
    )
    report = check_identities(ms, corrupted)
    assert not report.ok
    assert [(c.n, c.item, c.ok) for c in report.checks] == [(0, "unit-sum", False)]
    report = check_identities(build_finite_matrices([(1, 2)]), fp)
    assert [(c.n, c.item, c.ok) for c in report.checks] == [(0, "unit-sum", False)]
    # on a Parry shape every digit enters exactly one identity, and that one fails
    ms, _, _ = build_parry_matrices(words(((), (2, 1)), ((), (1, 2))))
    fp = periodic_fixed_point(ms)
    for i in range(ms.q):
        for j in range(ms.k):
            rows = [list(r) for r in ms.rows]
            rows[i][j] += 1
            report = check_identities(MatrixSeq(rows, ms.shape), fp)
            assert sum(not c.ok for c in report.checks) == 1, (i, j)


# -- structured products and the unnormalised propagation ---------------------------


def dense(rows, k):
    """The k x k matrix with these sparse rows, as a tuple of tuples."""
    out = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        for j, v in row:
            out[i][j] = v
    return tuple(map(tuple, out))


def sparse_rows(m):
    """Each row of a dense matrix as its (column, value) pairs with a non-zero value."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m]


def _dense_mul(a, b):
    """a @ b, each row of the product a combination of the rows of b (zeros of a skipped)."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def _dense_faddeev_leverrier(m):
    """The dense O(k^4) Faddeev-LeVerrier recursion: the reference for faddeev_leverrier."""
    n = len(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    terms = [mk]
    for k in range(1, n + 1):
        am = _dense_mul(m, mk)
        q, r = divmod(-sum(am[i][i] for i in range(n)), k)
        assert r == 0
        coeffs[n - k] = q
        mk = [[am[i][j] + (q if i == j else 0) for j in range(n)] for i in range(n)]
        terms.append(mk)
    adj = [[[terms[n - 1 - d][i][j] for d in range(n)] for j in range(n)] for i in range(n)]
    return coeffs, adj


def _assert_e_times_c_is_chi_e0(sparse, chi, c, adj=None):
    """E(x) c = s chi e_0 in Z[x], exactly, with s = +-1, and c = s adj(xI - m)[n - t][:t].

    c is column 0 of adj E(x), so E(x) c = (det E) e_0 with det E = +-chi.
    With u = U(x) c, whose first t entries are c, u (xI - m) is E(x) c on
    the last t columns and 0 on the others, so u = s adj(xI - m)[n - t]
    when adj, the dense adjugate, is given.
    """
    E = _e_matrix(sparse)
    assert len(c) == len(E)
    image = []
    for row in E:
        acc = []
        for g, x in zip(row, c, strict=True):
            prod = int_mul(g, x)
            acc += [0] * (len(prod) - len(acc))
            for i, v in enumerate(prod):
                acc[i] += v
        image.append(IntPoly(acc).coeffs)
    s = 1 if image[0] == chi.coeffs else -1
    assert image == [tuple(s * v for v in chi.coeffs)] + [()] * (len(E) - 1)
    if adj is not None:
        row = adj[len(sparse) - len(E)][: len(E)]
        assert [IntPoly(x).coeffs for x in c] == [IntPoly(s * v for v in r).coeffs for r in row]


@st.composite
def digit_rows_and_shapes(draw, max_k=7, max_q=3):
    k = draw(st.integers(2, max_k))
    q = draw(st.integers(1, max_q))
    h = draw(st.integers(1, k - 1))
    shape = ParryShape(h) if draw(st.booleans()) else FiniteShape()
    rows = [
        [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in range(k - 1)]
        for _ in range(q)
    ]
    return rows, shape


def companion_seqs(max_k=7, max_q=3):
    return digit_rows_and_shapes(max_k, max_q).map(lambda args: MatrixSeq(*args))


@given(digit_rows_and_shapes())
@settings(max_examples=60, deadline=None)
def test_matrix_is_its_digit_row_and_shape(rows_shape):
    rows, shape = rows_shape
    ms = MatrixSeq(rows, shape)
    k = len(rows[0])
    h = shape.h if isinstance(shape, ParryShape) else None
    for n, row in enumerate(rows):
        a = dense(ms.sparse(n), ms.k)
        assert a[0] == tuple(row)
        # below row 0: the unit subdiagonal, the Parry corner at (h, k-1), zeros elsewhere
        for i in range(1, k):
            assert a[i] == tuple(int(j == i - 1 or (i == h and j == k - 1)) for j in range(k))
        assert ms.sparse(n) == sparse_rows(a)


@given(companion_seqs(max_k=12, max_q=5), st.integers(0, 5))
@example(
    MatrixSeq(
        [
            [3, 1, 2, 0, 0, 1, 2, 0, 0, 1, 0, 2],
            [1] * 12,
            [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
            [1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0],
            [2, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1],
        ],
        ParryShape(11),
    ),
    3,
)
@settings(max_examples=60, deadline=None)
def test_sparse_products_match_dense(ms, n):
    # products of up to 5 factors of size up to 12, the Parry corner at h = k - 1 among them
    want = dense(ms.sparse(n), ms.k)
    for step in range(1, ms.q):
        want = _dense_mul(want, dense(ms.sparse(n - step), ms.k))
    product = ms.rotation_product(n)
    assert product == sparse_rows(want)
    chi, c = faddeev_leverrier(product)
    coeffs, dense_adj = _dense_faddeev_leverrier(want)
    assert chi.coeffs == IntPoly(coeffs).coeffs
    _assert_e_times_c_is_chi_e0(product, chi, c, dense_adj)


@st.composite
def square_matrices(draw):
    """Small integer matrices mixing unit rows, which shrink the charpoly's determinant, and others.

    "cycle" rows are units that follow a permutation, so they close cycles
    of shift rows (all of them: a permutation matrix, the identity among
    them); "unit" rows put their unit anywhere, so several can share a
    column; the other rows are zero, all ones, a single 2, or arbitrary
    entries of either sign.
    """
    k = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(k)))
    rows = []
    for r in range(k):
        kind = draw(st.sampled_from(("cycle", "cycle", "unit", "zero", "ones", "two", "any")))
        if kind == "any":
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
        else:
            col = perm[r] if kind == "cycle" else draw(st.integers(0, k - 1))
            v = {"cycle": 1, "unit": 1, "zero": 0, "ones": 1, "two": 2}[kind]
            rows.append([v if kind == "ones" or j == col else 0 for j in range(k)])
    return rows


@given(square_matrices())
@example([[5]])
@example([[1]])
@example([[0, 0], [0, 0]])
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
@example([[1, 1, 1], [2, 0, 0], [0, 1, 0]])
@example([[0, -1], [1, 0]])
@example([[0, 1, 0], [1, 0, 0], [1, 0, 0]])
# a product of q = 2 companion factors plus a 1 at (4, 0), left of column n - q:
# only t = 4 leaves every row i >= t the unit e_(i-t) below column n - t
@example([[3, 0, 1, 1, 1], [2, 0, 1, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 1, 0, 0]])
# no unit row, so t = n
@example([[1, 2, 0, 1], [0, 3, 1, 0], [2, 0, 0, -1], [-1, 1, 2, 1]])
@settings(max_examples=300, deadline=None)
def test_charpoly_and_row_match_dense_recursion(m):
    chi, c = faddeev_leverrier(sparse_rows(m))
    coeffs, dense_adj = _dense_faddeev_leverrier(m)
    assert chi.coeffs == IntPoly(coeffs).coeffs
    _assert_e_times_c_is_chi_e0(sparse_rows(m), chi, c, dense_adj)


def test_primitive_rotation_returns_its_product():
    ms = build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)])
    n, product = ms.primitive_rotation()
    assert product == ms.rotation_product(n)


def _is_primitive_walk(m):
    """Reference: some Boolean power of m up to the Wielandt bound is positive."""
    k = len(m)
    base = [sum(1 << j for j in range(k) if m[i][j]) for i in range(k)]
    full = (1 << k) - 1
    power = base[:]
    for _ in range((k - 1) ** 2 + 1):
        if all(row == full for row in power):
            return True
        nxt = []
        for mask in power:
            out = 0
            for i in range(k):
                if mask >> i & 1:
                    out |= base[i]
            nxt.append(out)
        power = nxt
    return False


@given(companion_seqs(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_primitivity_matches_the_power_walk(ms, n):
    product = ms.rotation_product(n)
    assert _is_primitive(product) == _is_primitive_walk(dense(product, ms.k))


@given(digit_rows_and_shapes())
@settings(max_examples=100, deadline=None)
def test_sparse_rotation_products_and_primitivity_match_dense(rows_shape):
    # every rotation product is the dense product of the dense factors, held
    # as sparse rows (ascending columns, no zero stored), and primitive_rotation
    # picks the first rotation whose Boolean powers reach a positive matrix
    ms = MatrixSeq(*rows_shape)
    k = ms.k
    verdicts = []
    for n in range(ms.q):
        want = dense(ms.sparse(n), k)
        for step in range(1, ms.q):
            want = _dense_mul(want, dense(ms.sparse(n - step), k))
        product = ms.rotation_product(n)
        assert product == sparse_rows(want)
        verdicts.append(_is_primitive_walk(want))
        assert _is_primitive(product) == verdicts[-1]
    if any(verdicts):
        n = verdicts.index(True)
        assert ms.primitive_rotation() == (n, ms.rotation_product(n))
    else:
        with pytest.raises(NotPrimitive):
            ms.primitive_rotation()


@given(digit_rows_and_shapes())
@settings(max_examples=60, deadline=None)
def test_every_index_of_a_rotation_product_reaches_index_0(rows_shape):
    # the fact _is_primitive rests on: it walks forward from 0 only
    ms = MatrixSeq(*rows_shape)
    for n in range(ms.q):
        backward = [[] for _ in range(ms.k)]
        for i, row in enumerate(ms.rotation_product(n)):
            for j, _ in row:
                backward[j].append(i)
        seen, stack = {0}, [0]
        while stack:
            for i in backward[stack.pop()]:
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        assert seen == set(range(ms.k))


def test_charpoly_needs_every_column_inside_the_matrix():
    assert faddeev_leverrier([[(0, 1), (1, 1)], [(0, 1)]])[0].coeffs == (-1, -1, 1)
    # the 0 x 0 matrix: chi = det of nothing = 1, and no cofactor
    chi, c = faddeev_leverrier([])
    assert (chi.coeffs, c) == ((1,), [])
    for bad in ([[(0, 1), (2, 1)], [(0, 1)]], [[(0, 1)], [(-1, 1)]]):
        with pytest.raises(ValueError, match="outside"):
            faddeev_leverrier(bad)


def test_primitivity_verdicts_and_corner_check():
    # irreducible with a positive corner: primitive
    assert _is_primitive(sparse_rows(((1, 1, 0), (0, 0, 1), (1, 0, 0))))
    # index 0 reaches nothing else
    assert not _is_primitive(sparse_rows(((1, 0), (1, 0))))
    # strongly connected but periodic; a period product never looks like this
    with pytest.raises(InvariantViolation):
        _is_primitive(sparse_rows(((0, 1), (1, 0))))


LAZY_CASES = [
    lambda: build_finite_matrices([(1, 1)]),
    lambda: build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)]),
    lambda: build_parry_matrices(words(((), (2, 1))))[0],
    lambda: build_parry_matrices(words(((), (2, 1)), ((), (1, 2))))[0],
    lambda: build_parry_matrices(words(((3,), (1,)), ((2,), (2, 1)), ((), (2, 1, 1))))[0],
]


def ends(row):
    return [(e.lo, e.hi) for e in row]


@pytest.mark.parametrize("make", LAZY_CASES)
def test_lazy_fs_equals_eager_fs(make):
    ms = make()
    fp = periodic_fixed_point(ms)
    # nothing normalised or enclosed until asked for
    assert not {"gammas", "lam", "f_elems", "fs"} & fp.__dict__.keys()
    # the gammas first, as every reader in the package does: their enclosures
    # refine the shared root, and the endpoints below depend on that
    fp.gammas
    lazy = fp.fs
    assert fp.fs is lazy
    # eager reference: f_{n*} = u_{n*} / u_{n*}[0], then gamma_n f_{n-1} = f_n A_n
    field, q, k = fp.field, ms.q, ms.k
    start = fp.u_elems[fp.rotation]
    f = [field.mul(e, field.inv(start[0])) for e in start]
    eager = {fp.rotation: f}
    for step in range(q - 1):
        n = fp.rotation - step
        a = dense(ms.sparse(n), ms.k)
        image = []
        for j in range(k):
            acc = field.from_fraction(0)
            for i in range(k):
                acc = field.add(acc, field.scalar_mul(a[i][j], f[i]))
            image.append(acc)
        f = [field.mul(e, field.inv(fp.gamma_elems[n % q])) for e in image]
        eager[(n - 1) % q] = f
    for n in range(q):
        assert fp.f_elems[n] == tuple(eager[n])
        assert fp.f_elems[n][0] == ((1,), 1)
        signs = [field.sign(e) for e in eager[n]]
        assert min(signs) >= 0
        assert ends(lazy[n]) == ends(
            _certified_enclosure(field, e, s, fp.tol_bits) for e, s in zip(eager[n], signs)
        )
    # the enclosures are not fields: a replaced record encloses the same point anew
    assert {fld.name for fld in dataclasses.fields(fp)}.isdisjoint({"gammas", "lam", "f_elems", "fs"})
    again = dataclasses.replace(fp).fs
    assert again is not lazy
    for old_row, new_row in zip(lazy, again):
        for old, new in zip(old_row, new_row):
            assert old.lo <= new.hi and new.lo <= old.hi


def _certifies(field, elem, enc, tol_bits):
    """enc is at most 2^-tol_bits wide and holds elem, decided by exact signs."""
    if enc.width().as_fraction() > Fraction(1, 2**tol_bits):
        return False
    lo, hi = (field.from_fraction(x.as_fraction()) for x in (enc.lo, enc.hi))
    return field.sign(field.sub(elem, lo)) >= 0 and field.sign(field.sub(hi, elem)) >= 0


@pytest.mark.parametrize("tol_bits", [24, 200])
@pytest.mark.parametrize("make", LAZY_CASES)
def test_enclosures_certified_in_any_read_order(make, tol_bits):
    fp = periodic_fixed_point(make(), tol_bits=tol_bits)
    field = fp.field
    # fs and lam first: the shared root is refined for them before any gamma
    fs, lam, gammas = fp.fs, fp.lam, fp.gammas
    assert lam.lo.sign() > 0 and _certifies(field, field.generator(), lam, tol_bits)
    for g, enc, cmp in zip(fp.gamma_elems, gammas, fp.gamma_vs_one):
        if cmp:
            assert enc.lo.as_fraction() > 1
        else:
            assert enc.is_point() and enc.lo == Dyadic(1)
        assert _certifies(field, g, enc, tol_bits)
    for elems, encs in zip(fp.f_elems, fs):
        for e, enc in zip(elems, encs):
            assert enc.lo.sign() == (0 if field.is_zero(e) else 1)
            assert _certifies(field, e, enc, tol_bits)


P5_ROW = words(((3,), (1, 2)), ((2,), (2, 1, 1)), ((), (2, 1, 1, 1)), ((3, 1), (1,)), ((), (2, 2)))


def test_p5_field_is_built_on_the_perron_factor(monkeypatch):
    # k = 65 and a squarefree charpoly of degree 18; the Perron factor has degree 6
    import altbase.perron as perron
    from altbase.numerics import RealAlgebraicField
    from altbase.synthesis import synthesize_periodic

    built, shrinks = [], []

    class Recording(RealAlgebraicField):
        def __init__(self, root):
            super().__init__(root)
            built.append(self.degree)

        def _set_modulus(self, modulus, lo, hi):
            if hasattr(self, "modulus"):  # set again after construction: a shrink
                shrinks.append(modulus)
            super()._set_modulus(modulus, lo, hi)

    monkeypatch.setattr(perron, "RealAlgebraicField", Recording)
    base, fp = synthesize_periodic(P5_ROW)
    assert fp.k == 65
    assert built == [6]
    assert shrinks == []
    assert fp.field.modulus.coeffs == (-144, -257, -441, -537, -351, -256, 1)


def test_large_perron_root_costs_few_sign_evaluations(monkeypatch):
    # p = 10 words (91): lambda is about 9.2^10 ~ 4.4e9, and the isolating
    # bracket (0, upper] spans that many integers; the integer-root test must
    # bisect it, not step through it
    from altbase.numerics import polynomials
    from altbase.synthesis import synthesize_periodic

    calls = []
    real = polynomials._sign_at
    monkeypatch.setattr(polynomials, "_sign_at", lambda *a: calls.append(a) or real(*a))
    base, fp = synthesize_periodic(words(*[((), (9, 1))] * 10))
    assert fp.lam.lo.as_fraction() > 4 * 10**9
    assert fp.field.degree == 2
    assert len(calls) < 2000


# -- the start vector from the cofactors of E(lambda) --------------------------


def assert_start_is_a_multiple_of(field, start, row):
    """start = a row in Q(lambda) with a != 0, row given as ascending integer coefficient lists."""
    row = [field.reduce(c) for c in row]
    assert not field.is_zero(start[0]) and not field.is_zero(row[0])
    for s, r in zip(start, row, strict=True):
        assert field.is_zero(field.sub(field.mul(s, row[0]), field.mul(start[0], r)))


def _assert_start_is_a_multiple_of_the_adjugate_row(ms):
    # the start's scale is free: it is a non-zero multiple of adj(lambda I - Q)[0]
    _, product = ms.primitive_rotation()
    field, start = _perron_field(product)
    assert_start_is_a_multiple_of(field, start, _dense_faddeev_leverrier(dense(product, ms.k))[1][0])


def _parry_seq(texts):
    entries = quasi_greedy_transform(tuple(parse_word(t) for t in texts))
    return build_parry_matrices(ExpansionList(entries))[0]


def _period_workload_rows():
    """The word lists of the period workload's synthesize jobs at seeds 1 and 2."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    rows = []
    for seed in (1, 2):
        for job in jobs.build("period", seed):
            argv = job["argv"]
            if argv[0] == "synthesize":
                p = int(argv[argv.index("-p") + 1])
                rows.append(argv[3:3 + p])
    return rows


def test_start_vector_on_the_period_workload_and_the_anchors():
    rows = _period_workload_rows()
    assert len(rows) >= 10
    ks = []
    anchors = [("3(1)", "2(21)", "(211)"), ("3(12)", "2(211)", "(2111)", "31(1)", "(22)")]
    for texts in dict.fromkeys(list(map(tuple, rows)) + anchors):  # each list once
        ms = _parry_seq(texts)
        ks.append(ms.k)
        _assert_start_is_a_multiple_of_the_adjugate_row(ms)
    assert max(ks) >= 40 and 65 in ks


@pytest.mark.parametrize("texts", [["(21)"], ["(2)"], ["2(1)"], ["(1)"], ["31(2)"], ["(201)"], ["(9)"]])
def test_start_vector_for_one_word(texts):
    _assert_start_is_a_multiple_of_the_adjugate_row(_parry_seq(texts))


@pytest.mark.parametrize("directive", [
    [(1, 1)], [(2, 1)], [(1, 1, 1)], [(2, 2), (1, 1)], [(3, 2, 1)], [(1, 1, 1), (1, 1, 0), (1, 0, 1)],
])
def test_start_vector_on_finite_products(directive):
    _assert_start_is_a_multiple_of_the_adjugate_row(build_finite_matrices(directive))


@st.composite
def admissible_lists(draw):
    p = draw(st.integers(1, 4))
    entries = []
    for _ in range(p):
        pre = draw(st.lists(st.integers(0, 2), max_size=p))
        per = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))
        first = draw(st.integers(1, 3))
        if pre:
            pre[0] = first
        else:
            per[0] = first
        w = canonicalize(tuple(pre), tuple(per))
        assume(w.digit(1) >= 2 or any(w.digits(len(w.preperiod) + len(w.period) + 1)[1:]))
        entries.append(w)
    lst = ExpansionList(tuple(entries))
    assume(check_parry(lst).ok)
    return lst


@given(admissible_lists())
@settings(max_examples=60, deadline=None)
def test_start_vector_on_admissible_lists(lst):
    entries = quasi_greedy_transform(lst.entries)
    _assert_start_is_a_multiple_of_the_adjugate_row(build_parry_matrices(ExpansionList(entries))[0])


@given(digit_rows_and_shapes(max_k=12, max_q=5))
@settings(max_examples=60, deadline=None)
def test_start_is_a_left_eigenvector(rows_shape):
    # start != 0 and start Q = lambda start, exactly, for either shape and t up to 5
    ms = MatrixSeq(*rows_shape)
    try:
        _, product = ms.primitive_rotation()
    except NotPrimitive:
        assume(False)
    field, start = _perron_field(product)
    lam = field.generator()
    assert not all(field.is_zero(s) for s in start)
    for got, s in zip(left_mul(field, start, product), start, strict=True):
        assert field.is_zero(field.sub(got, field.mul(lam, s)))


@pytest.mark.parametrize("directive", [
    [(2, 1)],
    [(2, 2, 1), (1, 1, 1)],
    [(3, 2, 2, 1, 1), (2, 2, 1, 1, 1), (1, 1, 1, 1, 1)],
    [(3, 3, 2, 1), (3, 3, 3, 2), (3, 2, 2, 1), (3, 2, 2, 1)],
    [(3, 3, 2, 2, 1), (3, 2, 1, 1, 1), (3, 2, 2, 1, 1), (3, 3, 2, 1, 1), (3, 2, 2, 2, 1)],
])
def test_kernel_solves_e_at_lambda(directive):
    # t = q = 1..5: E(x) c = +-chi e_0 in Z[x], so E(lambda) c = 0, c is not
    # 0 at lambda, and t = 1 gives c = (1)
    _, product = build_finite_matrices(directive).primitive_rotation()
    chi, c = faddeev_leverrier(product)
    assert len(c) == len(directive)
    if len(c) == 1:
        assert c == [[1]]
    adj = _dense_faddeev_leverrier(dense(product, len(product)))[1]
    _assert_e_times_c_is_chi_e0(product, chi, c, adj)
    field, start = _perron_field(product)
    assert not all(field.is_zero(x) for x in start[: len(c)])
