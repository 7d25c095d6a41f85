"""Build the alternate base realizing prescribed expansions of 1.

Given p candidate expansions (one per shift), the periodic path runs the
quasi-greedy transform, assembles the Parry companion matrices, and reads
the betas off the Perron fixed point: beta_i = gamma_{(-i) mod p}.  The
general path truncates lazily presented entries to length N, pads with
1^omega, synthesizes each truncation, and certifies the limit with the
uniform error bound H / (c^N (c - 1)).

Every synthesized base satisfies val_{S^i(B)}(0 . a_i) = 1; whether a_i is
the greedy or quasi-greedy expansion of 1 in that base is a separate
question answered by the Parry conditions, which is why validation and
synthesis are decoupled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bases import AlternateBase, _fold, _val_word
from .errors import DepthExhausted, InvariantViolation, NoSecondNonzero
from .expansion import val_up
from .numerics import DEFAULT_PREC, Dyadic, IntervalReal
from .numerics.intervals import ONE
from .numerics.polynomials import alpha_root
from .perron import FixedPoint, _certified_enclosure, build_parry_matrices, periodic_fixed_point
from .words import (
    ExpansionList,
    UPWord,
    canonicalize,
    check_parry,
    quasi_greedy_transform,
)

UNIQUE_BY_UP = "UniqueByUP"
UNIQUE_BY_LEAD_DIGIT = "UniqueByLeadDigit"
UNIQUE_BY_ALPHA = "UniqueByAlpha"
UNKNOWN = "Unknown"

_STREAM_SCAN_CAP = 4096


@dataclass(frozen=True)
class BoundsCert:
    """Digit bound H, two-nonzero prefix length L, and the derived range.

    Every base realizing the expansions has C^L/(C^L-1) < beta_i <= C with
    C = Hp+1; `lower` doubles as the uniform constant c of the general
    construction.
    """

    H: int
    L: int
    C: int
    lower: Fraction

    def e_bound(self, n: int) -> Fraction:
        """Tail defect bound H / (c^n (c - 1)) for length-n truncations."""
        c = self.lower
        return Fraction(self.H) / (c**n * (c - 1))


def bounds(lst: ExpansionList) -> BoundsCert:
    """Bounds certificate for a list of quasi-greedy candidate entries.

    Ultimately periodic entries contribute their exact maximal digit;
    streams contribute their declared digit bound, which keeps H sound
    without reading the whole sequence.  L comes from one scan for the
    second non-zero digit, to pre + 2 * per + 1 digits for a word and to
    _STREAM_SCAN_CAP for a stream.
    """
    h = 0
    ell = 2
    for a in lst.entries:
        if isinstance(a, UPWord):
            # a period holding a non-zero digit shows two within two periods
            h, horizon = max(h, a.max_digit()), len(a.preperiod) + 2 * len(a.period) + 1
        else:
            h, horizon = max(h, a.digit_max), _STREAM_SCAN_CAP
        nonzero = (n for n in range(1, horizon + 1) if a.digit(n))
        next(nonzero, None)
        pos = next(nonzero, None)
        if pos is None:
            raise NoSecondNonzero(f"{a!r} shows no second non-zero digit in {horizon} places")
        ell = max(ell, pos)
    c_cap = h * lst.p + 1
    return BoundsCert(h, ell, c_cap, Fraction(c_cap**ell, c_cap**ell - 1))


def _inside_bounds(base: AlternateBase, cert: BoundsCert) -> bool:
    for b in base.betas:
        if not b.lo.as_fraction() > cert.lower:
            return False
        if not b.hi.as_fraction() <= cert.C:
            return False
    return True


def synthesize_periodic(
    lst: ExpansionList, tol_bits: int = DEFAULT_PREC
) -> tuple[AlternateBase, FixedPoint]:
    """Exact base for ultimately periodic entries, via the Perron fixed point.

    Runs the quasi-greedy transform, builds the Parry companion matrices,
    and maps beta_i = gamma_{(-i) mod p}.  The returned base carries the
    number-field backend and the transformed words, and its enclosures are
    refined until they sit inside (lower, C] from bounds().
    """
    entries = quasi_greedy_transform(lst.entries)
    if not all(isinstance(a, UPWord) for a in entries):
        raise TypeError("periodic synthesis needs ultimately periodic entries")
    qg = ExpansionList(entries)
    seq, _, _ = build_parry_matrices(qg)
    fp = periodic_fixed_point(seq, tol_bits=tol_bits)
    base = AlternateBase.from_fixed_point(fp, prec=tol_bits)
    base.qg_words = entries  # value 1 by construction, so not checked again
    cert = bounds(qg)
    bits = tol_bits
    while not _inside_bounds(base, cert):
        bits *= 2
        if bits > max(4096, 64 * tol_bits):
            raise InvariantViolation("beta enclosures settled outside (lower, C]")
        base = base.refine(bits)
    return base, fp


def _abs_interval(v: IntervalReal) -> IntervalReal:
    if v.lo.sign() >= 0:
        return v
    if v.hi.sign() <= 0:
        return v.neg()
    hi = max(-v.lo, v.hi)
    return IntervalReal(Dyadic(0), hi)


def verify_value_one(
    base: AlternateBase, lst: ExpansionList, depth: int = 64
) -> tuple[IntervalReal, ...]:
    """Residual enclosures |val_{S^i(B)}(0 . a_i) - 1|, one per shift.

    Ultimately periodic entries are evaluated in closed form.  On an exact
    backend value 1 is decided: a residual that contains 0 without being
    the point 0 is settled by the field, and a word not worth exactly 1
    gets a residual refined until it excludes 0.  Streams, and words on an
    interval-only base, are only enclosed (streams summed to `depth` digits
    with the tail enclosed by their declared digit bound), so a residual
    there that contains 0 means "not refuted", not "verified".
    """
    one = IntervalReal.exact(1)
    out = []
    for i, a in enumerate(lst.entries):
        if isinstance(a, UPWord):
            enc = val_up(base, i, a)
        else:
            prec = max(base.prec, DEFAULT_PREC)
            ops = base.ops.interval_ops(prec)
            acc = _fold(ops, i, a.digits(depth), ops.lift(0))
            prod_lo = Fraction(1)
            for n in range(1, depth + 1):
                prod_lo *= ops.beta(i - n).lo.as_fraction()
            m = min(b.lo.as_fraction() for b in base.betas)
            tail_hi = Fraction(a.digit_max) / (prod_lo * (m - 1))
            enc = acc.add(IntervalReal.from_fractions(Fraction(0), tail_hi, prec))
        res = _abs_interval(enc.sub(one))
        if isinstance(a, UPWord) and base.ops.exact and res.contains_zero() and not res.is_point():
            # the enclosure cannot refute value 1, so the field decides it
            field = base.ops.field
            gap = field.sub(_val_word(base.ops, i, a), field.from_fraction(1))
            if s := field.sign(gap):
                res = _certified_enclosure(field, field.scalar_mul(s, gap), 1, base.prec)
        out.append(res)
    return tuple(out)


def _hausdorff(a: IntervalReal, b: IntervalReal) -> Dyadic:
    lo = a.lo - b.lo
    hi = a.hi - b.hi
    lo = -lo if lo.sign() < 0 else lo
    hi = -hi if hi.sign() < 0 else hi
    return max(lo, hi)


def synthesize_general(
    lst: ExpansionList, tol_bits: int = 40, max_depth: int = 200
) -> tuple[AlternateBase, int]:
    """Base enclosure for lazily presented entries, by truncation.

    For increasing N the length-N prefixes padded with 1^omega are
    synthesized exactly; once consecutive truncations agree within
    2^-tol_bits the last one is inflated by the uniform tail bound
    H/(c^N(c-1)) and returned together with the achieved depth.  Raises
    DepthExhausted (carrying the best base and depth) when max_depth is
    hit first.
    """
    entries = quasi_greedy_transform(lst.entries)
    cert = bounds(ExpansionList(entries))
    tol = Dyadic(1, -tol_bits)
    prev_words: Optional[tuple[UPWord, ...]] = None
    prev: Optional[tuple[IntervalReal, ...]] = None
    best: Optional[AlternateBase] = None
    stable_since = 0

    def finish(raw: tuple[IntervalReal, ...], n: int):
        inflated = tuple(b.inflate(cert.e_bound(n), tol_bits + 16) for b in raw)
        if all(b.lo > ONE for b in inflated):
            return AlternateBase(inflated, prec=tol_bits + 16), n
        return None  # tail bound still too coarse to keep the base above 1

    for n in range(max(cert.L, 2), max_depth + 1):
        words_n = tuple(canonicalize(a.digits(n), (1,)) for a in entries)
        if words_n == prev_words:
            # trailing 1s were absorbed into the tail, so this is the same
            # truncation as before.  Identical truncations carry no new
            # information and must not count as agreement; but once the
            # padding hypothesis has survived for as long as the whole
            # prefix before it, accept the plateau as converged.
            if n - stable_since >= max(stable_since, 4):
                done = finish(prev, n)
                if done is not None:
                    return done
            continue
        base_n, _ = synthesize_periodic(ExpansionList(words_n), tol_bits=tol_bits + 16)
        raw = base_n.betas
        if prev is not None and all(
            _hausdorff(a, b) <= tol for a, b in zip(raw, prev)
        ):
            done = finish(raw, n)
            if done is not None:
                return done
        prev_words = words_n
        prev = raw
        best = base_n
        stable_since = n
    raise DepthExhausted(
        f"no agreement within 2^-{tol_bits} by depth {max_depth}",
        best=best,
        depth=max_depth,
    )


@dataclass(frozen=True)
class Certificate:
    """Parry verdicts, value-1 residuals, and a uniqueness flag for a base."""

    parry_ok: tuple[bool, ...]
    residuals: tuple[IntervalReal, ...]
    uniqueness: str
    classification: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.parry_ok) and all(r.contains_zero() for r in self.residuals)


def certify(lst: ExpansionList, base: AlternateBase) -> Certificate:
    """Certificate for a base produced by a synthesize operation on lst.

    Uniqueness tries the sufficient conditions in order, strongest
    first: all entries ultimately periodic; all first digits at least 2;
    every beta strictly above the root of X^p = X^{p-1} + ... + 1.
    """
    report = check_parry(lst)
    bad = {v.entry for v in report.violations}
    parry_ok = tuple(i not in bad for i in range(lst.p))
    residuals = verify_value_one(base, lst)
    if lst.all_up():
        uniqueness = UNIQUE_BY_UP
    elif all(a.digit(1) >= 2 for a in lst.entries):
        uniqueness = UNIQUE_BY_LEAD_DIGIT
    else:
        alpha = alpha_root(lst.p, prec=max(base.prec, DEFAULT_PREC))
        if all(b.lo > alpha.hi for b in base.betas):
            uniqueness = UNIQUE_BY_ALPHA
        else:
            uniqueness = UNKNOWN
    classification = lst.modes
    return Certificate(parry_ok, residuals, uniqueness, classification)


def certificate_json(base: AlternateBase, cert: Certificate) -> dict:
    """JSON payload for a synthesized base plus its certificate, betas in display order."""
    return {
        "p": base.p,
        "betas": [b.to_json() for b in reversed(base.betas)],
        "residuals": [r.to_json() for r in cert.residuals],
        "parry": list(cert.parry_ok),
        "uniqueness": cert.uniqueness,
        "classification": list(cert.classification),
    }
