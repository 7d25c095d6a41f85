"""Codings of B-integers and the substitution machinery behind them.

A B-integer is a value whose greedy expansion has no fractional part.  The
gaps between consecutive B-integers of a shifted base S^m(B) take finitely
many values Delta_{m,n} = val_{S^m(B)}(0 . tail of d_{m+n} after position n),
and labelling each gap by the first row where its value occurs turns the
integer set into an infinite word: the faithful coding.  That word is also
an S-adic limit of substitutions phi_m read off the gap tables, which is
how Fibonacci, Tribonacci, Arnoux-Rauzy and N-continued-fraction words
arise from alternate bases.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .bases import AlternateBase
from .errors import (
    CodingMismatch,
    DepthExhausted,
    DLessThanN,
    InvariantViolation,
    NoLimit,
    Undecidable,
)
from .expansion import _qg_steps, _val_word
from .numerics import DEFAULT_PREC, Dyadic, IntervalReal
from .perron import build_finite_matrices, periodic_fixed_point
from .words import UPWord, canonicalize, shift_suffix

ONE = Dyadic(1)


# -- substitutions ------------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """A letter-to-word map; letters are small non-negative integers."""

    rules: tuple[tuple[int, tuple[int, ...]], ...]

    @staticmethod
    def from_map(images: Mapping[int, Sequence[int]]) -> "Substitution":
        rules = tuple(sorted((j, tuple(w)) for j, w in images.items()))
        return Substitution(rules)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.rules)

    def image(self, j: int) -> tuple[int, ...]:
        for letter, w in self.rules:
            if letter == j:
                return w
        raise KeyError(f"letter {j} not in domain {self.domain}")

    def apply(self, word: Iterable[int]) -> tuple[int, ...]:
        out: list[int] = []
        for j in word:
            out.extend(self.image(j))
        return tuple(out)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{j}->{''.join(map(str, w)) if w else 'e'}" for j, w in self.rules
        )
        return f"Substitution({body})"


def eta(c: Sequence[int]) -> Substitution:
    """The substitution 0 -> 0^c_1 1, ..., k-2 -> 0^c_{k-1} (k-1), k-1 -> 0^c_k.

    Defined for monotone tuples c_1 >= ... >= c_k >= 1 with k >= 2; these
    generate the codings of the directive-built bases.
    """
    c = tuple(c)
    _check_block(c)
    k = len(c)
    images = {}
    for j in range(k - 1):
        images[j] = (0,) * c[j] + (j + 1,)
    images[k - 1] = (0,) * c[k - 1]
    return Substitution.from_map(images)


def ar_letter_map(k: int, i: int) -> Substitution:
    """Arnoux-Rauzy map L_i on k letters: i -> i and j -> i j otherwise."""
    if not 0 <= i < k:
        raise ValueError("letter out of range")
    images = {j: (i,) if j == i else (i, j) for j in range(k)}
    return Substitution.from_map(images)


def _check_block(c: tuple[int, ...]) -> None:
    if len(c) < 2:
        raise ValueError("directive blocks need arity at least 2")
    if any(a < 1 for a in c):
        raise ValueError("directive entries must be at least 1")
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        raise ValueError(f"directive block {c} is not non-increasing")


@dataclass(frozen=True)
class Directive:
    """A sequence of monotone blocks c = (c_1,...,c_k), one per substitution.

    `periodic` means the blocks repeat forever; otherwise they are a finite
    window of a longer, unspecified directive.
    """

    blocks: tuple[tuple[int, ...], ...]
    periodic: bool = True

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")
        blocks = tuple(tuple(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for c in blocks:
            _check_block(c)
        arities = {len(c) for c in blocks}
        if len(arities) != 1:
            raise ValueError("all blocks must share one arity")

    @property
    def arity(self) -> int:
        return len(self.blocks[0])

    def substitutions(self) -> tuple[Substitution, ...]:
        return tuple(eta(c) for c in self.blocks)


def ar_to_eta(k: int, exponents: Sequence[int], periodic: bool = True) -> Directive:
    """Directive for the regular Arnoux-Rauzy product L_0^{a_1} L_1^{a_2} ...

    Each exponent a contributes one block (a,...,a,1) of arity k, since
    L_0^a R equals eta over that block and the rotations telescope.
    """
    if k < 2:
        raise ValueError("need at least two letters")
    exps = tuple(exponents)
    if any(a < 1 for a in exps):
        raise ValueError("exponents must be at least 1")
    return Directive(tuple((a,) * (k - 1) + (1,) for a in exps), periodic)


def ncf_to_eta(n: int, ds: Sequence[int], periodic: bool = True) -> Directive:
    """Directive of pairs (d, N) for the continued-fraction maps 0 -> 0^d 1, 1 -> 0^N."""
    if n < 1:
        raise ValueError("N must be at least 1")
    ds = tuple(ds)
    for d in ds:
        if d < n:
            raise DLessThanN(f"partial quotient {d} below N = {n}")
    return Directive(tuple((d, n) for d in ds), periodic)


SubsLike = Union[Substitution, Directive, Sequence[Substitution], Callable[[int], Substitution]]


def _subs_provider(subs: SubsLike) -> tuple[Callable[[int], Substitution], Optional[int]]:
    """Normalize to (provider, limit): limit is the window length if finite."""
    if isinstance(subs, Substitution):
        return (lambda n: subs), None
    if isinstance(subs, Directive):
        seq = subs.substitutions()
        if subs.periodic:
            return (lambda n: seq[n % len(seq)]), None
        return (lambda n: seq[n]), len(seq)
    if callable(subs):
        return subs, None
    seq = tuple(subs)
    return (lambda n: seq[n % len(seq)]), None


def sadic_limit(subs: SubsLike, length: int, max_steps: int = 10_000) -> tuple[int, ...]:
    """First `length` letters of lim phi_0 phi_1 ... phi_{n-1}(0).

    Sequences of substitutions are cycled; an aperiodic Directive is a
    finite window and may legitimately run out.  Raises NoLimit when the
    stable prefix stops growing (or is contradicted) before reaching the
    requested length.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return ()
    provider, window = _subs_provider(subs)
    maps: Optional[dict[int, tuple[int, ...]]] = None  # None = identity
    word: tuple[int, ...] = (0,)
    stalls = 0
    for step in range(max_steps):
        if window is not None and step >= window:
            raise NoLimit(
                f"directive window exhausted at length {len(word)} < {length}"
            )
        phi = provider(step)
        new: dict[int, tuple[int, ...]] = {}
        for j in phi.domain:
            img: list[int] = []
            for i in phi.image(j):
                img.extend(maps[i] if maps is not None else (i,))
                if len(img) >= length:
                    break
            new[j] = tuple(img[:length])
        maps = new
        if 0 not in maps:
            raise NoLimit("letter 0 left the domain")
        prev, word = word, maps[0]
        if word[: len(prev)] != prev[: len(word)]:
            raise NoLimit("composition is not prefix-stable")
        if len(word) >= length:
            return word[:length]
        if len(word) == len(prev):
            stalls += 1
            if stalls > 64:
                raise NoLimit(f"prefix stopped growing at length {len(word)}")
        else:
            stalls = 0
    raise NoLimit(f"no stable prefix of length {length} within {max_steps} steps")


# -- quasi-greedy digit access -------------------------------------------------


def derive_qg_words(base: AlternateBase, cap: int = 4096) -> tuple[UPWord, ...]:
    """Recover the quasi-greedy expansions of 1 as ultimately periodic words.

    Runs the quasi-greedy loop with an exact backend until the pair
    (remainder, shift residue) repeats; the digits between the two visits
    form the period.  Bases whose expansion never closes up within the cap
    (for example beta = 3/2) are rejected.
    """
    ops = base.value_ops()
    if not ops.exact:
        raise ValueError("deriving quasi-greedy words needs an exact backend")
    p = base.p
    out = []
    for shift in range(p):
        digits: list[int] = []
        # state before each digit -> number of digits before it
        seen = {(ops.lift(1), (shift - 1) % p): 0}
        for d, r in _qg_steps(ops, shift):
            digits.append(d)
            if len(digits) >= cap:
                raise ValueError(
                    "quasi-greedy expansion does not become periodic "
                    f"within {cap} digits"
                )
            state = (r, (shift - len(digits) - 1) % p)
            if state in seen:
                s = seen[state]
                out.append(canonicalize(digits[:s], digits[s:]))
                break
            seen[state] = len(digits)
    return tuple(out)


def _qg_digit_source(base: AlternateBase):
    """digit(shift, n) of the quasi-greedy expansions of 1.

    Reads the base's words when it has them, given or already derived for a
    gap table; otherwise runs the quasi-greedy loop once per shift residue,
    keeping the digits it has produced.
    """
    words = base.qg_words or base._derived_qg_words
    if words is not None:
        return lambda shift, n: words[shift % base.p].digit(n)
    ops = base.value_ops()
    # generators start lazily, so a residue that is never read costs nothing
    streams = [([], _qg_steps(ops, i)) for i in range(base.p)]

    def digit(shift: int, n: int) -> int:
        digits, steps = streams[shift % base.p]
        while len(digits) < n:
            digits.append(next(steps)[0])
        return digits[n - 1]

    return digit


# -- B-integers ----------------------------------------------------------------


@dataclass(frozen=True)
class BInteger:
    """A B-integer: its integer-part digits and its value in the base's backend."""

    digits: tuple[int, ...]  # a_{N-1} ... a_0, empty for zero
    exact: object = dataclasses.field(compare=False, repr=False)
    base: AlternateBase = dataclasses.field(compare=False, repr=False)

    @property
    def value(self) -> IntervalReal:
        """Enclosure of the value at base.prec, computed on access."""
        return self.base.value_ops().enclosure(self.exact, self.base.prec)


def _word_below_qg(word: tuple[int, ...], qg_digit, shift: int, scan_cap: int = 10_000) -> bool:
    """Whether word 0^omega <_lex the quasi-greedy expansion at the shift."""
    for t, a in enumerate(word, start=1):
        d = qg_digit(shift, t)
        if a != d:
            return a < d
    # word exhausted; strict unless the quasi-greedy word is all zero beyond,
    # which cannot last since it has no zero tail
    for t in range(len(word) + 1, len(word) + 1 + scan_cap):
        if qg_digit(shift, t) > 0:
            return True
    raise Undecidable("no non-zero quasi-greedy digit found within scan cap")


def enumerate_b_integers(base: AlternateBase, count: int) -> tuple[BInteger, ...]:
    """The `count` smallest B-integers with their digit words and exact values.

    Words are generated in radix order (length, then lexicographic), which
    for admissible words coincides with value order; a length-N word
    a_{N-1}..a_0 is admissible when every suffix a_{n-1}..a_0 0^omega is
    lexicographically below the quasi-greedy expansion of 1 at shift n.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    ops = base.value_ops()
    qg_digit = _qg_digit_source(base)
    out = [BInteger((), ops.lift(0), base)]
    # suffix-admissible words of the current length, leading zeros allowed,
    # in lexicographic order, paired with their backend values
    level: list[tuple[tuple[int, ...], object]] = [((), ops.lift(0))]
    n = 0
    weight = ops.lift(1)  # beta_{n-1} ... beta_0
    while len(out) < count:
        n += 1
        cap = qg_digit(n, 1)
        nxt: list[tuple[tuple[int, ...], object]] = []
        for lead in range(cap + 1):
            step = ops.mul(ops.lift(lead), weight) if lead else None
            for word, value in level:
                grown = (lead,) + word
                if lead and not _word_below_qg(grown, qg_digit, n):
                    continue
                v = ops.add(value, step) if lead else value
                nxt.append((grown, v))
                if lead and len(out) < count:
                    out.append(BInteger(grown, v, base))
        level = nxt
        weight = ops.mul(weight, ops.beta(n - 1))
    return tuple(out[:count])


# -- gap tables and the faithful coding -----------------------------------------


@dataclass(frozen=True)
class GapTable:
    """Gap values of S^m(B)-integers with first-occurrence classing."""

    m: int
    deltas: tuple[IntervalReal, ...]
    pi: tuple[int, ...]  # pi[n] = first row with the same value
    alphabet: tuple[int, ...]  # representative rows, in order of appearance
    values: tuple = dataclasses.field(compare=False, repr=False)  # backend row values

    def to_json(self) -> dict:
        return {
            "shift": self.m,
            "delta": [d.to_json() for d in self.deltas],
            "pi": list(self.pi),
            "alphabet": list(self.alphabet),
        }


def gap_table(base: AlternateBase, m: int = 0, depth: int = 16) -> GapTable:
    """Delta_{m,n} for n < depth, classed by exact value equality.

    Needs an exact backend, since equality of gap values is decided in the
    number field and never by overlapping enclosures.  A base known only
    through its quasi-greedy words gets one from
    synthesize_periodic(ExpansionList(words)).  Every index is taken mod p,
    so the base keeps one table per shift residue and depth, and a shift
    m >= p gets that table relabelled with m.
    """
    if depth < 1:
        raise ValueError("gap table depth must be at least 1")
    if not base.value_ops().exact:
        raise ValueError(
            "gap tables need an exact backend; synthesize the base from its "
            "quasi-greedy words with synthesize_periodic"
        )
    key = (m % base.p, depth)
    table = base._gap_tables.get(key)
    if table is None:
        table = _build_gap_table(base, key[0], depth)
        base._gap_tables[key] = table
    return table if table.m == m else dataclasses.replace(table, m=m)


def _build_gap_table(base: AlternateBase, m: int, depth: int) -> GapTable:
    ops = base.value_ops()
    words = base.qg_words or base._derived_qg_words
    if words is None:
        words = base._derived_qg_words = derive_qg_words(base)
    vals = []
    for n in range(depth):
        tail = shift_suffix(words[(m + n) % base.p], n)
        vals.append(_val_word(ops, m, tail))
    if ops.sign(ops.sub(vals[0], ops.lift(1))) != 0:
        raise ValueError("quasi-greedy data does not give value 1; bad base")
    pi: list[int] = []
    for n, v in enumerate(vals):
        hit = None
        for r in range(n):
            if r == pi[r] and ops.is_zero(ops.sub(v, vals[r])):
                hit = r
                break
        pi.append(n if hit is None else hit)
    alphabet = tuple(n for n, r in enumerate(pi) if r == n)
    deltas = tuple(ops.enclosure(v, base.prec) for v in vals)
    return GapTable(m, deltas, tuple(pi), alphabet, tuple(vals))


def gap_substitution(
    base: AlternateBase, m: int = 0, depth: int = 16
) -> Substitution:
    """The substitution phi_m: letter n -> 0^{d_{m+n+1, n+1}} pi_m(n+1).

    Maps the alphabet of the shift-(m+1) table into words over the shift-m
    table; composing phi_0 phi_1 ... and applying to 0 recovers the
    faithful coding as an S-adic limit.
    """
    table_m = gap_table(base, m, depth)
    table_next = gap_table(base, m + 1, depth)
    qg_digit = _qg_digit_source(base)
    images = {}
    for n in table_next.alphabet:
        if n + 1 >= depth:
            raise DepthExhausted(
                f"gap table of depth {depth} is too shallow for the alphabet "
                f"of shift {m + 1}; raise --depth",
                depth=depth,
            )
        images[n] = (0,) * qg_digit(m + n + 1, n + 1) + (table_m.pi[n + 1],)
    return Substitution.from_map(images)


def _class_gaps(base: AlternateBase, table: GapTable, length: int) -> tuple[int, ...]:
    """Direct coding: class the consecutive gaps of the first B-integers.

    Every gap equals some Delta_{0,n}, so a gap that matches no table row
    means the table depth ran out.
    """
    ops = base.value_ops()
    ints = enumerate_b_integers(base, length + 1)
    # a gap comes out reduced, as a canonical (nums, den) pair, so equal keys
    # are the same element of Q[x]/(modulus): a gap seen before keeps its letter
    seen: dict = {}
    word: list[int] = []
    for a, b in zip(ints, ints[1:]):
        gap = ops.sub(b.exact, a.exact)
        letter = seen.get(gap)
        if letter is None:
            for r in table.alphabet:
                if ops.is_zero(ops.sub(gap, table.values[r])):
                    letter = seen[gap] = r
                    break
        if letter is None:
            raise DepthExhausted(
                f"a gap value is missing from the gap table of depth "
                f"{len(table.deltas)}; raise --depth",
                depth=len(table.deltas),
            )
        word.append(letter)
    return tuple(word)


def faithful_coding(base: AlternateBase, length: int, depth: int = 16) -> tuple[int, ...]:
    """The coding of the B-integer gaps, cross-checked two ways.

    Computes the direct gap classification and the S-adic limit of the
    phi_m substitutions and raises CodingMismatch unless they agree.
    """
    table0 = gap_table(base, 0, depth)
    direct = _class_gaps(base, table0, length)
    phis = tuple(gap_substitution(base, m, depth) for m in range(base.p))
    sadic = sadic_limit(phis, length)
    if direct != sadic:
        raise CodingMismatch(
            f"direct {direct[:16]}... and S-adic {sadic[:16]}... disagree"
        )
    return direct


# -- bases from directives -------------------------------------------------------


@dataclass(frozen=True)
class WindowedBase:
    """Exact beta enclosures for a finite directive window.

    betas are displayed like an alternate base, (beta_{w-1}, ..., beta_0),
    but carry no periodicity: they describe the window only, under the
    all-ones tail convention below index 0.
    """

    betas: tuple[IntervalReal, ...]

    def beta(self, n: int) -> IntervalReal:
        w = len(self.betas)
        if not 0 <= n < w:
            raise IndexError("window index out of range")
        return self.betas[w - 1 - n]

    def width(self) -> Dyadic:
        return max(b.width() for b in self.betas)


def _directive_qg_word(blocks: tuple[tuple[int, ...], ...], shift: int) -> UPWord:
    """Quasi-greedy expansion of 1 at a shift of the periodic directive base.

    Digits come in arity-k chunks: the chunk for index m reads the blocks
    at m-1, m-2, ..., m-k (descending, mod the directive period), with the
    last entry lowered by one, and then recurses at m-k.
    """
    q = len(blocks)
    k = len(blocks[0])
    period_len = lcm(k, q)
    digits: list[int] = []
    m = shift
    for _ in range(period_len // k):
        for j in range(1, k):
            digits.append(blocks[(m - j) % q][j - 1])
        digits.append(blocks[(m - k) % q][k - 1] - 1)
        m -= k
    return canonicalize((), digits)


def base_from_directive(
    directive: Directive, tol_bits: int = DEFAULT_PREC, window: Optional[int] = None
):
    """Base whose B-integer coding realizes the directive's S-adic word.

    Periodic directives give a genuine alternate base (period = number of
    blocks) through the finite-shape Perron fixed point, with the
    quasi-greedy words attached.  A window (or an aperiodic directive)
    instead evaluates the all-ones-tail construction exactly: the bottom
    left eigenvector is the k-bonacci one, and each block pushes it up one
    level, so every beta in the window is exact in Q(alpha_k).
    """
    if directive.periodic and window is None:
        seq = build_finite_matrices(directive.blocks)
        fp = periodic_fixed_point(seq, tol_bits=tol_bits)
        qg = tuple(
            _directive_qg_word(directive.blocks, i) for i in range(len(directive.blocks))
        )
        return AlternateBase.from_fixed_point(fp, qg_words=qg, prec=tol_bits)
    k = directive.arity
    blocks = directive.blocks
    if window is None:
        window = len(blocks)
    if not 1 <= window <= len(blocks):
        raise ValueError("window must select a prefix of the directive")
    tail_seq = build_finite_matrices([(1,) * k])
    tail_fp = periodic_fixed_point(tail_seq, tol_bits=tol_bits)
    field = tail_fp.spectral.field
    g = list(tail_fp.spectral.f_elems[0])  # k-bonacci left eigenvector, g[0] = 1
    betas: list = []
    for c in blocks[:window]:
        # image of g under the block matrix (first row c, unit subdiagonal)
        img = [field.from_fraction(0)] * k
        for j in range(k):
            img[j] = field.scalar_mul(c[j], g[0])
            if j + 1 < k:
                img[j] = field.add(img[j], g[j + 1])
        beta = img[0]
        if field.compare_int(beta, 1) <= 0:
            raise InvariantViolation("a block of a monotone directive gives beta <= 1")
        betas.append(beta)
        inv = field.inv(beta)
        g = [field.mul(x, inv) for x in img]
    enc = tuple(field.enclosure(b, tol_bits) for b in betas)
    return WindowedBase(tuple(reversed(enc)))
