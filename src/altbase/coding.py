"""Codings of B-integers and the substitution machinery behind them.

A B-integer is a value whose greedy expansion has no fractional part.  The
gaps between consecutive B-integers of a shifted base S^m(B) take finitely
many values Delta_{m,n} = val_{S^m(B)}(0 . tail of d_{m+n} after position n),
and labelling each gap by the first row where its value occurs turns the
integer set into an infinite word: the faithful coding.  That word is also
an S-adic limit of substitutions phi_m read off the gap tables, which is
how Fibonacci, Tribonacci, Arnoux-Rauzy and N-continued-fraction words
arise from alternate bases.

B-integers are enumerated by prepending digits to admissible words, a
block per lead digit: each block translates the first B-integers, so only
its first gap is new.  On a base that carries its quasi-greedy words, which
must pass the Parry check, a block's length is one bisection on the words'
ranks among their sorted tails; other bases scan the digits.  Gap tables
hold exact values only, and a base's first gap table derives its words
(base.qg_words) if it has none.
"""

from __future__ import annotations

import dataclasses
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, starmap, zip_longest
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Mapping, Optional, Union

from .bases import AlternateBase, _val_word
from .errors import (
    CodingMismatch,
    DepthExhausted,
    DLessThanN,
    InvariantViolation,
    NoLimit,
    Undecidable,
)
from .expansion import _qg_steps
from .numerics import DEFAULT_PREC, Dyadic, IntervalReal
from .numerics.algebraic import _normal
from .perron import (
    FiniteShape,
    MatrixSeq,
    build_finite_matrices,
    left_mul,
    periodic_fixed_point,
)
from .words import (ExpansionList, ParryReport, UPWord, canonicalize, check_parry,
                    format_word, shift_suffix)

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


SubsLike = Union[Substitution, Directive, Sequence[Substitution]]


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
    if isinstance(subs, Substitution):
        seq: tuple[Substitution, ...] = (subs,)
    elif isinstance(subs, Directive):
        seq = subs.substitutions()
    else:
        seq = tuple(subs)
    window = len(seq) if isinstance(subs, Directive) and not subs.periodic else None
    maps: Optional[dict[int, tuple[int, ...]]] = None  # None = identity
    word: tuple[int, ...] = (0,)
    stalls = 0
    for step in range(max_steps):
        if window is not None and step >= window:
            raise NoLimit(
                f"directive window exhausted at length {len(word)} < {length}"
            )
        phi = seq[step % len(seq)]
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

    The quasi-greedy loop maps a state (remainder, shift residue) to the next
    one, so its digits repeat from the first state that recurs.  Brent's
    cycle search finds that state by exact value: equal elements of a field
    with a reducible modulus can differ in representation.  Bases whose
    expansion does not close up within the cap (for example beta = 3/2) are
    rejected.
    """
    ops = base.ops
    if not ops.exact:
        raise ValueError("deriving quasi-greedy words needs an exact backend")
    p = base.p

    def same(x, y) -> bool:
        return x[1] == y[1] and ops.is_zero(ops.sub(x[0], y[0]))

    out = []
    for shift in range(p):
        digits: list[int] = []
        states = [(ops.lift(1), (shift - 1) % p)]  # states[n]: after n digits
        # the period lam: the hare walks one digit at a time from the
        # tortoise, which jumps to the hare at every power of two
        power = lam = 1
        tortoise = 0
        for d, r in _qg_steps(ops, shift):
            digits.append(d)
            states.append((r, (shift - len(digits) - 1) % p))
            if same(states[tortoise], states[-1]):
                break
            if len(digits) >= cap:
                raise ValueError(
                    "quasi-greedy expansion does not become periodic "
                    f"within {cap} digits"
                )
            if power == lam:
                tortoise, power, lam = len(digits), 2 * power, 0
            lam += 1
        # the preperiod mu: the first state that recurs lam digits later
        mu = 0
        while not same(states[mu], states[mu + lam]):
            mu += 1
        out.append(canonicalize(digits[:mu], digits[mu : mu + lam]))
    return tuple(out)


def _qg_digit_source(base: AlternateBase):
    """digit(shift, n) of the quasi-greedy expansions of 1.

    Reads the base's words when it has them, given or already derived for a
    gap table; otherwise runs the quasi-greedy loop once per shift residue,
    keeping the digits it has produced.
    """
    words = base.qg_words
    if words is not None:
        return lambda shift, n: words[shift % base.p].digit(n)
    ops = base.ops
    # generators start lazily, so a residue that is never read costs nothing
    streams = [([], _qg_steps(ops, i)) for i in range(base.p)]

    def digit(shift: int, n: int) -> int:
        digits, steps = streams[shift % base.p]
        while len(digits) < n:
            digits.append(next(steps)[0])
        return digits[n - 1]

    return digit


# -- B-integers ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BInteger:
    """A B-integer: its integer-part digits and its value in the base's backend."""

    digits: tuple[int, ...]  # a_{N-1} ... a_0, empty for zero
    exact: object = dataclasses.field(compare=False, repr=False)
    base: AlternateBase = dataclasses.field(compare=False, repr=False)

    @property
    def value(self) -> IntervalReal:
        """Enclosure of the value at base.prec, computed on access."""
        return self.base.ops.enclosure(self.exact, self.base.prec)


def _word_below_qg(word: tuple[int, ...], qg_digit, shift: int, scan_cap: int = 10_000) -> bool:
    """Whether word 0^omega <_lex the quasi-greedy expansion at the shift.

    The digit scan for bases that carry no quasi-greedy words.
    """
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


class _RankTable:
    """Ranks of finite words among the tails of the quasi-greedy words.

    T is the set of tails of the words, sorted lexicographically.  A finite
    word w has rank r(w) = #{tau in T : tau < w 0^omega}; no tail ends in
    0^omega, so w 0^omega equals no tail and it lies below the tail of index
    i exactly when r(w) <= i.  Prepending the digit a maps rank r to
    row(a)[r] = #{tau : tau_1 < a} + #{tau : tau_1 = a, index(S tau) < r}.
    This is the alternate-base Parry automaton; its shift is sofic because
    every word is ultimately periodic (Charlier & Cisternino 2021).
    """

    def __init__(self, words: Sequence[UPWord]):
        if any(w.is_zero_tail() for w in words):
            raise ValueError("a quasi-greedy word cannot end in 0^omega")
        tails = {
            shift_suffix(w, j) for w in words for j in range(len(w.preperiod) + len(w.period))
        }
        # two tails that differ do so within this many digits
        horizon = max(len(w.preperiod) for w in words) + lcm(*(len(w.period) for w in words))
        self.tails = tuple(sorted(tails, key=lambda t: t.digits(horizon)))
        index = {t: i for i, t in enumerate(self.tails)}
        self.qg = tuple(index[w] for w in words)  # index of each shift's word
        self._first = [t.digit(1) for t in self.tails]  # non-decreasing
        self._next = [index[shift_suffix(t, 1)] for t in self.tails]
        self._rows: dict[int, list[int]] = {}

    def row(self, a: int) -> list[int]:
        """row(a)[r]: the rank of a w for any word w of rank r."""
        row = self._rows.get(a)
        if row is None:
            lo, hi = bisect_left(self._first, a), bisect_right(self._first, a)
            marks = [0] * (len(self.tails) + 1)
            for i in range(lo, hi):
                marks[self._next[i] + 1] += 1
            row = self._rows[a] = [lo + c for c in accumulate(marks)]
        return row


class BIntegers(Sequence):
    """The first B-integers in value order, each built when it is read.

    The words of length n + 1 that start with a nonzero digit come in
    blocks, one per lead a = 1, 2, ...: a W_n + x_0, ..., a W_n + x_{c-1},
    where W_n = beta_{n-1} ... beta_0 and x_0 = 0 < x_1 < ... are the
    B-integers of the shorter words.  Each lead below the first digit d of
    the quasi-greedy word at shift n + 1 takes the whole list, and lead d,
    the last, a prefix of it.  The sequence keeps only the blocks and the
    weights W_n: item i of the block from `start` is a W_n + item i - start,
    and its digits and exact value are rebuilt from that chain of leads when
    it is read.  Inside a block, (a W_n + x_{j+1}) - (a W_n + x_j) = x_{j+1} - x_j
    exactly, so a block's gaps are those of the B-integers it translates,
    but for its first.
    """

    def __init__(self, base: AlternateBase, count: int):
        self.base = base
        self.blocks: list[tuple[int, int, int, int]] = []  # (start, stop, n, lead)
        self.weights: list = [base.ops.lift(1)]  # weights[n] = W_n
        self._count = count

    @cached_property
    def _dens(self) -> list[int]:
        """_dens[n]: the lcm of the denominators of W_0, ..., W_n (exact backend)."""
        return list(accumulate((w[1] for w in self.weights), lcm))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self._count))))
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("B-integer index out of range")
        leads = self._leads(i)
        return BInteger(self._word(leads, leads[0][0] + 1 if leads else 0),
                        self._exact(leads), self.base)

    def _leads(self, i: int) -> list[tuple[int, int]]:
        """(n, a) of each nonzero digit a of item i, worth a W_n, from the top."""
        out = []
        while i:
            start, _, n, a = self.blocks[bisect_right(self.blocks, i, key=itemgetter(0)) - 1]
            out.append((n, a))
            i -= start
        return out

    @staticmethod
    def _word(leads, length: int) -> tuple[int, ...]:
        digits = [0] * length
        for n, a in leads:
            digits[-1 - n] = a
        return tuple(digits)

    def _nums(self, leads, den: int) -> list[int]:
        """Numerators over den of the sum of a W_n, den a multiple of each W_n's denominator."""
        out: list[int] = []
        for n, a in leads:
            nums, wden = self.weights[n]
            f = a * (den // wden)
            out = list(starmap(add, zip_longest(out, [f * x for x in nums], fillvalue=0)))
        return out

    def _exact(self, leads):
        ops = self.base.ops
        if not leads:
            return ops.lift(0)
        if ops.exact:
            den = self._dens[leads[0][0]]
            return _normal(self._nums(leads, den), den)
        v = ops.lift(0)  # the interval order of the lead-by-lead walk
        for n, a in reversed(leads):
            v = ops.add(v, ops.mul(ops.lift(a), self.weights[n]))
        return v

    def gap(self, i: int):
        """Item i minus item i - 1, exact and canonical, for 0 < i < len on an exact backend."""
        top = self._leads(i)
        den = self._dens[top[0][0]]
        return _normal(self._nums(top + [(n, -a) for n, a in self._leads(i - 1)], den), den)


def enumerate_b_integers(
    base: AlternateBase, count: int, report: Optional[ParryReport] = None
) -> BIntegers:
    """The `count` smallest B-integers with their digit words and exact values.

    Words come in radix order (length, then lexicographic), which for
    admissible words is value order; a length-N word a_{N-1}..a_0 is
    admissible when every suffix a_{n-1}..a_0 0^omega is lexicographically
    below the quasi-greedy expansion of 1 at shift n.  With leading zeros,
    the words of length n are the B-integers found so far, in order, and
    each nonzero lead digit a extends a prefix of them: the block a W_n + x_j
    of BIntegers.  On a base that carries its quasi-greedy words, which must
    pass the Parry check (or ValueError), the words' ranks among the sorted
    tails are non-decreasing, and so is _RankTable.row(a), so a block's
    length is one bisection; a base without words bisects with the
    quasi-greedy digit scan.  `report` is check_parry on the base's words
    when the caller already has it, else it is computed.  Enumeration stops
    at `count`, and each BInteger is built when it is read.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    ops = base.ops
    qg_digit = _qg_digit_source(base)
    words = base.qg_words
    table = _RankTable(words) if words is not None else None
    if table is not None:
        # after the table, so that a zero-tail word gets the table's error
        if report is None:
            report = check_parry(ExpansionList(words))
        if not report.ok:
            v = report.violations[0]
            raise ValueError(
                f"word {format_word(words[v.entry])} at shift {v.entry} fails Parry at j={v.shift}"
            )
    ints = BIntegers(base, count)
    # rank[j]: the rank of item j as a word of the current length
    rank, size, n = [0], 1, 0
    while size < count:
        if n:
            ints.weights.append(ops.mul(ints.weights[-1], ops.beta(n - 1)))
        level = size  # the B-integers of words of length <= n
        for lead in range(1, qg_digit(n + 1, 1) + 1):
            if table is not None:
                row = table.row(lead)
                c = bisect_left(rank, bisect_right(row, table.qg[(n + 1) % base.p]), 0, level)
                rank.extend(map(row.__getitem__, rank[:c]))
            else:
                def above(j: int) -> bool:
                    word = (lead,) + ints._word(ints._leads(j), n)
                    return not _word_below_qg(word, qg_digit, n + 1)
                c = bisect_left(range(level), True, key=above)
            c = min(c, count - size)
            ints.blocks.append((size, size + c, n, lead))
            size += c
            if size == count:
                break
        if table is not None:  # only now may the level's words take a leading 0
            rank[:level] = map(table.row(0).__getitem__, rank[:level])
        n += 1
    return ints


# -- gap tables and the faithful coding -----------------------------------------


@dataclass(frozen=True)
class GapTable:
    """Gap values of S^m(B)-integers, exact in the base's field, with first-occurrence classing."""

    m: int
    pi: tuple[int, ...]  # pi[n] = first row with the same value
    alphabet: tuple[int, ...]  # representative rows, in order of appearance
    values: tuple = dataclasses.field(compare=False, repr=False)  # exact row values


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
    if not base.ops.exact:
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


def _row_with_value(ops, v, rows: Sequence[int], values: Sequence) -> Optional[int]:
    """The first of the rows whose value equals v exactly, or None.

    rows is an alphabet, of pairwise distinct values, so a row keyed as v is the
    one: equal keys are equal polynomials.  Only a miss runs zero tests, for equal
    values under other keys (a reducible modulus, or a key from a larger one).
    """
    for r in rows:
        if values[r] == v:
            return r
    return next((r for r in rows if ops.is_zero(ops.sub(v, values[r]))), None)


def _build_gap_table(base: AlternateBase, m: int, depth: int) -> GapTable:
    """Row n is the value at shift m of word (m + n) mod p after n digits.

    Past its preperiod a word's tails repeat with its period, so each word builds
    at most |pre| + |period| of them, and each distinct tail is valued once.
    """
    ops = base.ops
    words = base.qg_words
    if words is None:
        words = base.qg_words = derive_qg_words(base)
    by_pos: dict[tuple[int, int], object] = {}  # (entry, position) -> value
    by_tail: dict[UPWord, object] = {}
    vals = []
    for n in range(depth):
        i = (m + n) % base.p
        pre = len(words[i].preperiod)
        pos = (i, n if n <= pre else pre + (n - pre) % len(words[i].period))
        if pos not in by_pos:
            tail = shift_suffix(words[i], pos[1])
            if tail not in by_tail:
                by_tail[tail] = _val_word(ops, m, tail)
            by_pos[pos] = by_tail[tail]
        vals.append(by_pos[pos])
    if ops.sign(ops.sub(vals[0], ops.lift(1))) != 0:
        raise ValueError("quasi-greedy data does not give value 1; bad base")
    pi: list[int] = []
    alphabet: list[int] = []
    for n, v in enumerate(vals):
        hit = _row_with_value(ops, v, alphabet, vals)
        if hit is None:
            alphabet.append(n)
        pi.append(n if hit is None else hit)
    return GapTable(m, tuple(pi), tuple(alphabet), tuple(vals))


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
    images = {}  # the tables left base.qg_words set, derived if missing
    for n in table_next.alphabet:
        if n + 1 >= depth:
            raise DepthExhausted(
                f"gap table of depth {depth} is too shallow for the alphabet "
                f"of shift {m + 1}; raise --depth",
                depth=depth,
            )
        images[n] = (0,) * base.qg_word(m + n + 1).digit(n + 1) + (table_m.pi[n + 1],)
    return Substitution.from_map(images)


def _class_gaps(
    base: AlternateBase, table: GapTable, length: int, report: Optional[ParryReport] = None
) -> tuple[int, ...]:
    """Direct coding: class the consecutive gaps of the first B-integers.

    A block of B-integers translates the first ones, so its gaps repeat the
    word's first letters and only its first gap is classed.  Every gap
    equals some Delta_{0,n}, so a gap that matches no table row means the
    table depth ran out.
    """
    ops = base.ops
    ints = enumerate_b_integers(base, length + 1, report)
    word: list[int] = []
    for start, stop, _, _ in ints.blocks:
        letter = _row_with_value(ops, ints.gap(start), table.alphabet, table.values)
        if letter is None:
            raise DepthExhausted(
                f"a gap value is missing from the gap table of depth "
                f"{len(table.pi)}; raise --depth",
                depth=len(table.pi),
            )
        word.append(letter)
        word.extend(word[: stop - start - 1])
    return tuple(word)


def faithful_coding(
    base: AlternateBase, length: int, depth: int = 16, report: Optional[ParryReport] = None
) -> tuple[int, ...]:
    """The coding of the B-integer gaps, cross-checked two ways.

    Computes the direct gap classification and the S-adic limit of the
    phi_m substitutions and raises CodingMismatch unless they agree.
    `report` goes to enumerate_b_integers.
    """
    table0 = gap_table(base, 0, depth)
    direct = _class_gaps(base, table0, length, report)
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

    betas are stored like those of an alternate base, (beta_0, ...,
    beta_{w-1}), but carry no periodicity: they describe the window only,
    under the all-ones tail convention below index 0.
    """

    betas: tuple[IntervalReal, ...]

    def beta(self, n: int) -> IntervalReal:
        if not 0 <= n < len(self.betas):
            raise IndexError("window index out of range")
        return self.betas[n]

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
        base = AlternateBase.from_fixed_point(fp, prec=tol_bits)
        base.qg_words = tuple(
            _directive_qg_word(directive.blocks, i) for i in range(len(directive.blocks))
        )
        return base
    k = directive.arity
    blocks = directive.blocks
    if window is None:
        window = len(blocks)
    if not 1 <= window <= len(blocks):
        raise ValueError("window must select a prefix of the directive")
    tail_seq = build_finite_matrices([(1,) * k])
    tail_fp = periodic_fixed_point(tail_seq, tol_bits=tol_bits)
    field = tail_fp.field
    g = tail_fp.f_elems[0]  # k-bonacci left eigenvector, g[0] = 1
    seq = MatrixSeq(blocks[:window], FiniteShape())
    betas: list = []
    for i in range(window):
        img = left_mul(field, g, seq.sparse(i))  # g times block i's companion matrix
        beta = img[0]
        if field.compare_int(beta, 1) <= 0:
            raise InvariantViolation("a block of a monotone directive gives beta <= 1")
        betas.append(beta)
        inv = field.inv(beta)
        g = [field.mul(x, inv) for x in img]
    return WindowedBase(tuple(field.enclosure(b, tol_bits) for b in betas))
