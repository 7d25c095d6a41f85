"""End-to-end acceptance: one test and one printed verdict per criterion."""

import random
import time
from fractions import Fraction

from altbase.bases import AlternateBase
from altbase.coding import Directive, base_from_directive, eta, faithful_coding, sadic_limit
from altbase.expansion import is_greedy, quasi_greedy_expand_one
from altbase.perron import (
    build_finite_matrices,
    build_parry_matrices,
    check_identities,
    periodic_fixed_point,
)
from altbase.synthesis import bounds, synthesize_general, synthesize_periodic, verify_value_one
from altbase.words import DigitStream, ExpansionList, UPWord, canonicalize, check_parry, parse_word

SEED = 20260815
TOL_40 = Fraction(1, 2**40)
TOL_64 = Fraction(1, 2**64)


def as_fraction(dy) -> Fraction:
    return dy.as_fraction()


def bisect_sqrt(n: int, iters: int = 80) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(0), Fraction(n)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- shared randomized corpus -----------------------------------------------------


_CACHE: dict = {}


def random_up_word(rng) -> UPWord:
    pre = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8)))
    if not any(per):
        raise ValueError
    return canonicalize(pre, per)


def corpus_p1():
    """200 random single-word lists passing the lexicographic conditions."""
    if "p1" in _CACHE:
        return _CACHE["p1"]
    rng = random.Random(SEED)
    out = []
    while len(out) < 200:
        try:
            w = random_up_word(rng)
            lst = ExpansionList((w,))
        except Exception:
            continue
        if w.digit(1) < 1 or not check_parry(lst).ok:
            continue
        out.append(lst)
    _CACHE["p1"] = out
    return out


def corpus_plists():
    """50 random lists with p in {2, 3}."""
    if "plists" in _CACHE:
        return _CACHE["plists"]
    rng = random.Random(SEED + 1)
    out = []
    while len(out) < 50:
        p = rng.choice((2, 3))
        entries = []
        for _ in range(p):
            lead = rng.randint(2, 4)
            per = (lead,) + tuple(rng.randint(0, lead) for _ in range(rng.randint(0, 3)))
            if not any(per):
                continue
            entries.append(canonicalize((), per))
        if len(entries) != p:
            continue
        try:
            lst = ExpansionList(tuple(entries))
        except Exception:
            continue
        if not check_parry(lst).ok:
            continue
        out.append(lst)
    _CACHE["plists"] = out
    return out


def synthesized(lst):
    key = ("synth", id(lst))
    if key not in _CACHE:
        _CACHE[key] = synthesize_periodic(lst, tol_bits=48)
    return _CACHE[key]


def oracle_beta_bracket(word: UPWord, terms: int = 420, iters: int = 60, prec: int = 100):
    """Bisection on 1 = sum a_n x^n, x = 1/beta, independent of the solver.

    Evaluates the series in fixed point with floor rounding; the total
    understatement is below terms * 2^(-prec) / (1 - x), far under the
    bisection resolution, and the truncation tail is bounded because every
    nine-digit window of a quasi-greedy word contains a non-zero digit.
    """
    digs = word.digits(terms)
    scale = 60

    def f_scaled(xm: int) -> int:
        acc = 0
        for a in reversed(digs):
            acc = ((acc + (a << prec)) * xm) >> scale
        return acc - (1 << prec)

    lo_m, hi_m = (1 << scale) // 100, (1 << scale) * 999 // 1000
    assert f_scaled(lo_m) < 0 < f_scaled(hi_m)
    for _ in range(iters):
        mid = (lo_m + hi_m) // 2
        if f_scaled(mid) < 0:
            lo_m = mid
        else:
            hi_m = mid
    denom = 1 << scale
    return Fraction(denom, hi_m), Fraction(denom, lo_m)  # bracket for beta


# -- criteria ------------------------------------------------------------------------


def test_criterion_1_remark_reproduction():
    start = time.perf_counter()
    ms = build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)])
    fp = periodic_fixed_point(ms, tol_bits=64)
    s17lo, s17hi = bisect_sqrt(17)
    tol = Fraction(1, 10**12)
    assert fp.gammas[0].is_point() and as_fraction(fp.gammas[0].lo) == 1
    targets = [
        (fp.gammas[1], (3 + s17lo) / 4, (3 + s17hi) / 4),
        (fp.gammas[2], (1 + s17lo) / 2, (1 + s17hi) / 2),
        (fp.fs[0][2], (-3 + s17lo) / 2, (-3 + s17hi) / 2),
    ]
    for enc, tlo, thi in targets:
        assert tlo - tol <= as_fraction(enc.lo) and as_fraction(enc.hi) <= thi + tol
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: remark fixed point gamma_0=1, sqrt17 values, {elapsed:.3f}s")


def test_criterion_2_exact_pair_synthesis():
    start = time.perf_counter()
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    base, _ = synthesize_periodic(lst, tol_bits=64)
    for i, target in ((0, 2), (1, 3)):
        b = base.beta(i)
        assert as_fraction(b.lo) <= target <= as_fraction(b.hi)
        assert as_fraction(b.hi) - as_fraction(b.lo) <= TOL_64
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 2: (21),(12) -> betas (2,3) at width <= 2^-64, {elapsed:.3f}s")


def test_criterion_3_renyi_oracle_equivalence():
    start = time.perf_counter()
    worst = Fraction(0)
    for lst in corpus_p1():
        base, _ = synthesized(lst)
        blo, bhi = oracle_beta_bracket(lst.entries[0])
        mid = (as_fraction(base.beta(0).lo) + as_fraction(base.beta(0).hi)) / 2
        dist = max(abs(mid - blo), abs(mid - bhi))
        worst = max(worst, dist)
        assert dist <= Fraction(1, 10**9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 3: 200 words vs bisection oracle, worst {float(worst):.2e}, {elapsed:.1f}s")


def test_criterion_4_roundtrip_property():
    checked = 0
    for lst in corpus_p1() + corpus_plists():
        base, _ = synthesized(lst)
        for i, entry in enumerate(lst.entries):
            assert quasi_greedy_expand_one(base, i, 50) == entry.digits(50)
            checked += 1
    print(f"\n[PASS] criterion 4: quasi-greedy roundtrip, 50 digits at {checked} shifts")


def test_criterion_5_bounds_property():
    checked = 0
    for lst in corpus_p1() + corpus_plists():
        base, _ = synthesized(lst)
        cert = bounds(lst)
        for i in range(base.p):
            b = base.beta(i)
            assert cert.lower < as_fraction(b.lo)
            assert as_fraction(b.hi) <= cert.C
            checked += 1
    print(f"\n[PASS] criterion 5: all {checked} synthesized betas inside (C^L/(C^L-1), C]")


def test_criterion_6_identity_suite():
    checked = 0
    for lst in corpus_p1()[:60] + corpus_plists():
        base, fp = synthesized(lst)
        ms, _, _ = build_parry_matrices(lst)
        report = check_identities(ms, fp)
        assert report.ok, [c for c in report.checks if not c.ok]
        checked += 1
    boundary = periodic_fixed_point(
        build_finite_matrices([(1, 1, 1), (1, 1, 0), (1, 0, 1)]), tol_bits=64
    )
    assert boundary.gammas[0].is_point() and as_fraction(boundary.gammas[0].lo) == 1
    print(f"\n[PASS] criterion 6: identities hold on {checked} fixed points; boundary gamma_0 = 1 exact")


def test_criterion_7_coding_agreement():
    for blocks in (((1, 1),), ((2, 2),), ((1, 1, 1),)):
        base = base_from_directive(Directive(blocks))
        # faithful_coding itself compares the direct and S-adic paths
        word = faithful_coding(base, 200)
        assert word == sadic_limit(Directive(blocks), 200)
    pair, _ = synthesize_periodic(ExpansionList((parse_word("(21)"), parse_word("(12)"))))
    assert faithful_coding(pair, 200) == (0,) * 200

    def iterate(sub, length):
        w = (0,)
        while len(w) < length:
            w = sub.apply(w)
        return w[:length]

    fib = base_from_directive(Directive(((1, 1),)))
    assert faithful_coding(fib, 200) == iterate(eta((1, 1)), 200)
    trib = base_from_directive(Directive(((1, 1, 1),)))
    assert faithful_coding(trib, 200) == iterate(eta((1, 1, 1)), 200)
    print("\n[PASS] criterion 7: direct gap coding = S-adic limit at length 200; classical prefixes match")


def test_criterion_8_general_case_convergence():
    lazy = DigitStream(lambda n: 2 if n % 2 == 1 else 1, digit_max=2, description="lazy21")
    lst = ExpansionList((lazy,))
    general, depth = synthesize_general(lst, tol_bits=40, max_depth=200)
    assert depth <= 200
    periodic, _ = synthesize_periodic(ExpansionList((parse_word("(21)"),)), tol_bits=64)
    gmid = (as_fraction(general.beta(0).lo) + as_fraction(general.beta(0).hi)) / 2
    pmid = (as_fraction(periodic.beta(0).lo) + as_fraction(periodic.beta(0).hi)) / 2
    assert abs(gmid - pmid) <= TOL_40
    cert = bounds(lst)
    h, c = cert.H, cert.lower
    e_n = Fraction(h) / (c**depth * (c - 1))
    assert cert.e_bound(depth) == e_n
    inflated = general.beta(0).inflate(e_n)
    assert as_fraction(inflated.lo) <= pmid <= as_fraction(inflated.hi)
    print(f"\n[PASS] criterion 8: lazy (21) converged at depth {depth} within 2^-40; inflation obeys E(N)")


def test_criterion_9_negative_tests():
    report = check_parry(ExpansionList((parse_word("120(0)"),)))
    assert not report.ok and report.violations[0].shift == 1

    for blocks in (((1, 1),), ((2, 2),)):
        base = base_from_directive(Directive(blocks))
        assert not is_greedy(base, base.qg_word(0)).ok
    for lst in corpus_p1()[:10]:
        base, _ = synthesized(lst)
        assert not is_greedy(base, base.qg_word(0)).ok

    perturbed = AlternateBase.from_rationals([Fraction(21, 10), 3])
    lst = ExpansionList((parse_word("(21)"), parse_word("(12)")))
    residuals = verify_value_one(perturbed, lst)
    assert all(as_fraction(r.lo) > 0 for r in residuals)
    print("\n[PASS] criterion 9: 120(0) fails at shift 1; quasi-greedy words not greedy; perturbed residuals exclude 0")
