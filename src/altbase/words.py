"""Ultimately periodic digit words, lexicographic tests and the Parry check.

Words are infinite digit sequences presented as preperiod + repeating
period.  The canonical form uses the primitive period and the shortest
preperiod, so equality of streams is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import DigitRangeError, FailsIfAllZeroTail, ParseError

#: digits must fit an unsigned machine word by default
DEFAULT_DIGIT_MAX = 2**32 - 1

Word = tuple[int, ...]


def _check_digits(digits: Iterable[int], digit_max: int) -> tuple[int, ...]:
    out = tuple(int(d) for d in digits)
    for d in out:
        if d < 0 or d > digit_max:
            raise DigitRangeError(f"digit {d} outside [0, {digit_max}]")
    return out


def _canonical_parts(preperiod: Sequence[int], period: Sequence[int]) -> tuple[Word, Word]:
    """Primitive period plus minimal preperiod for an ultimately periodic word."""
    pre = tuple(preperiod)
    per = tuple(period)
    if not per:
        raise ParseError("period must be non-empty")
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return pre, per


class UPWord:
    """Canonical ultimately periodic word over non-negative integer digits."""

    __slots__ = ("preperiod", "period")

    def __init__(
        self,
        preperiod: Sequence[int] = (),
        period: Sequence[int] = (0,),
        digit_max: int = DEFAULT_DIGIT_MAX,
    ):
        pre = _check_digits(preperiod, digit_max)
        per = _check_digits(period, digit_max)
        self.preperiod, self.period = _canonical_parts(pre, per)

    def digit(self, n: int) -> int:
        """1-indexed digit of the infinite word."""
        if n < 1:
            raise IndexError("digit positions start at 1")
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        return self.period[(n - 1 - len(self.preperiod)) % len(self.period)]

    def digits(self, count: int) -> Word:
        return tuple(self.digit(n) for n in range(1, count + 1))

    def is_zero_tail(self) -> bool:
        return self.period == (0,)

    def is_zero_word(self) -> bool:
        return self.period == (0,) and not self.preperiod

    def max_digit(self) -> int:
        return max(self.preperiod + self.period)

    def gt_ten_zero(self) -> bool:
        """Strictly above 1 0^w in lexicographic order."""
        d1 = self.digit(1)
        if d1 >= 2:
            return True
        if d1 == 0:
            return False
        return not shift_suffix(self, 1).is_zero_word()

    def second_nonzero_pos(self) -> int | None:
        """Position of the second non-zero digit, scanning one period past the first."""
        first = None
        horizon = len(self.preperiod) + 2 * len(self.period) + 1
        for n in range(1, horizon + 1):
            if self.digit(n) != 0:
                if first is None:
                    first = n
                else:
                    return n
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPWord):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def __repr__(self) -> str:
        return f"UPWord({format_word(self)!r})"


def canonicalize(raw_preperiod: Sequence[int], raw_period: Sequence[int]) -> UPWord:
    """Canonical word encoding raw_preperiod followed by raw_period forever."""
    return UPWord(raw_preperiod, raw_period)


LT, EQ, GT = -1, 0, 1


def lex_compare_up(u: UPWord, v: UPWord, with_pos: bool = False):
    """Compare two infinite words; returns LT/EQ/GT = -1/0/+1 (optionally with position).

    Agreement up to max(preperiod lengths) + lcm(period lengths) forces
    equality, so the walk is finite.
    """
    bound = max(len(u.preperiod), len(v.preperiod)) + lcm(len(u.period), len(v.period))
    for n in range(1, bound + 1):
        a, b = u.digit(n), v.digit(n)
        if a != b:
            r = 1 if a > b else -1
            return (r, n) if with_pos else r
    return (0, None) if with_pos else 0


def shift_suffix(u: UPWord, j: int) -> UPWord:
    """Canonical word formed by the digits from position j+1 onwards."""
    if j < 0:
        raise ValueError("shift must be non-negative")
    if j <= len(u.preperiod):
        return UPWord(u.preperiod[j:], u.period)
    r = (j - len(u.preperiod)) % len(u.period)
    return UPWord((), u.period[r:] + u.period[:r])


class DigitStream:
    """Lazily evaluated digit sequence: provider(n) gives the n-th digit, n >= 1."""

    def __init__(
        self,
        provider: Callable[[int], int],
        digit_max: int = DEFAULT_DIGIT_MAX,
        description: str = "stream",
    ):
        self._provider = provider
        self._cache: dict[int, int] = {}
        self.digit_max = digit_max
        self.description = description

    def digit(self, n: int) -> int:
        if n < 1:
            raise IndexError("digit positions start at 1")
        d = self._cache.get(n)
        if d is None:
            d = int(self._provider(n))
            if d < 0 or d > self.digit_max:
                raise DigitRangeError(f"stream digit {d} outside [0, {self.digit_max}]")
            self._cache[n] = d
        return d

    def digits(self, count: int) -> Word:
        return tuple(self.digit(n) for n in range(1, count + 1))

    def __repr__(self) -> str:
        return f"DigitStream({self.description})"


Entry = Union[UPWord, DigitStream]

GREEDY = "greedy"
QUASI_GREEDY = "quasi-greedy"


@dataclass(frozen=True)
class ExpansionList:
    """A length-p list of candidate expansions of 1, one per base index.

    entries[i] is the candidate attached to shift i.  Ultimately periodic
    entries ending in 0^w are greedy candidates; all others (including
    streams) are quasi-greedy candidates.
    """

    entries: tuple[Entry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("need at least one entry")
        for a in self.entries:
            if isinstance(a, UPWord):
                if not a.gt_ten_zero():
                    raise ValueError(f"{a!r} is not lexicographically above 1 0^w")
            else:
                if a.digit(1) < 1:
                    raise ValueError("stream entry must start with a non-zero digit")

    @property
    def p(self) -> int:
        return len(self.entries)

    def mode(self, i: int) -> str:
        a = self.entries[i]
        if isinstance(a, UPWord) and a.is_zero_tail():
            return GREEDY
        return QUASI_GREEDY

    @property
    def modes(self) -> tuple[str, ...]:
        return tuple(self.mode(i) for i in range(self.p))

    def all_up(self) -> bool:
        return all(isinstance(a, UPWord) for a in self.entries)


def quasi_greedy_transform(entries: Sequence[Entry]) -> tuple[Entry, ...]:
    """Replace every zero-tail entry by its quasi-greedy companion.

    A zero-tail word t(1)..t(l) 0^w with t(l) >= 1 turns into
    t(1)..t(l-1) (t(l)-1) followed by the companion of the entry l steps
    back (cyclically); chains that close on themselves unroll into a
    periodic word.  Entries without a zero tail pass through unchanged;
    streams count as having no zero tail.
    """
    p = len(entries)
    for a in entries:
        if a.digit(1) < 1:
            raise ValueError("entries must start with a non-zero digit")

    def finite_part(w: UPWord) -> tuple[Word, int]:
        # a canonical zero-tail word ends its preperiod on its last non-zero
        # digit, and that preperiod is not empty since digit 1 is non-zero
        head = list(w.preperiod)
        head[-1] -= 1
        return tuple(head), len(head)

    def prefixed_stream(prefix: Word, s: DigitStream) -> DigitStream:
        k = len(prefix)

        def provider(n: int, _prefix=prefix, _s=s, _k=k) -> int:
            return _prefix[n - 1] if n <= _k else _s.digit(n - _k)

        bound = max((s.digit_max, *prefix)) if prefix else s.digit_max
        return DigitStream(provider, bound, f"{s.description}+prefix")

    out: list[Entry] = list(entries)
    for start in range(p):
        a = entries[start]
        if not isinstance(a, UPWord) or not a.is_zero_tail():
            continue
        acc: list[int] = []
        seen: dict[int, int] = {}
        cur = start
        while True:
            e = entries[cur]
            if isinstance(e, DigitStream):
                out[start] = prefixed_stream(tuple(acc), e)
                break
            if not e.is_zero_tail():
                out[start] = UPWord(tuple(acc) + e.preperiod, e.period)
                break
            if cur in seen:
                cycle = tuple(acc[seen[cur]:])
                if all(d == 0 for d in cycle):
                    raise FailsIfAllZeroTail("transform produced an all-zero tail")
                out[start] = UPWord(tuple(acc[: seen[cur]]), cycle)
                break
            seen[cur] = len(acc)
            head, ell = finite_part(e)
            acc.extend(head)
            cur = (cur - ell) % p
    return tuple(out)


@dataclass(frozen=True)
class ParryViolation:
    entry: int
    shift: int
    position: int | None  # digit position that decided, None for an equality hit

    def describe(self) -> str:
        where = f"decided at digit {self.position}" if self.position else "exact equality"
        return f"entry {self.entry}, suffix shift {self.shift}: {where}"


@dataclass(frozen=True)
class ParryReport:
    p: int
    violations: tuple[ParryViolation, ...]
    checked_up_to: int
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _parry_bound(entries: Sequence[UPWord], p: int) -> int:
    max_pre = max(len(a.preperiod) for a in entries)
    l = p
    for a in entries:
        l = lcm(l, len(a.period))
    return max_pre + l


def check_parry(lst: ExpansionList, depth: int | None = None) -> ParryReport:
    """Check the lexicographic admissibility conditions of an expansion list.

    Entry i must satisfy, for every j >= 1, suffix_j(a_i) <= a_{(i-j) mod p},
    strictly when entry i is a greedy candidate.  For ultimately periodic
    entries the pairs (suffix word, target entry) recur with period
    lcm(period lengths, p) once j clears every preperiod, so checking up to
    max preperiod + that lcm is complete.  Stream entries are checked up to
    `depth` digit positions and the report is marked partial.
    """
    p = lst.p
    violations: list[ParryViolation] = []

    if lst.all_up():
        entries = [a for a in lst.entries if isinstance(a, UPWord)]
        bound = _parry_bound(entries, p)
        # digits 1..2*bound of each entry; no window below reaches past them,
        # since max preperiod + the lcm of any two periods is at most bound
        unrolled = [a.preperiod + a.period * (2 * bound // len(a.period) + 1) for a in entries]
        for i in range(p):
            mode_strict = lst.mode(i) == GREEDY
            pre, per = len(entries[i].preperiod), len(entries[i].period)
            for j in range(1, bound + 1):
                t = (i - j) % p
                target = entries[t]
                # two words that agree this far are equal (see lex_compare_up)
                n = max(pre - j, len(target.preperiod)) + lcm(per, len(target.period))
                suffix, head = unrolled[i][j:j + n], unrolled[t][:n]
                if suffix > head or (suffix == head and mode_strict):
                    _, pos = lex_compare_up(shift_suffix(entries[i], j), target, with_pos=True)
                    violations.append(ParryViolation(i, j, pos))
        return ParryReport(p, tuple(violations), bound)

    if depth is None:
        depth = 64
    for i in range(p):
        mode_strict = lst.mode(i) == GREEDY
        a = lst.entries[i]
        for j in range(1, depth + 1):
            target = lst.entries[(i - j) % p]
            decided = False
            for n in range(1, depth + 1):
                x, y = a.digit(j + n), target.digit(n)
                if x != y:
                    if x > y:
                        violations.append(ParryViolation(i, j, n))
                    decided = True
                    break
            if not decided and mode_strict:
                # equality over the whole window; strict mode cannot confirm
                violations.append(ParryViolation(i, j, None))
    return ParryReport(p, tuple(violations), depth, partial=True)


# -- textual form -------------------------------------------------------------


def parse_word(text: str, digit_max: int = DEFAULT_DIGIT_MAX) -> UPWord:
    """Parse `pre(period)`; digits above 9 use brackets/commas: [12,3](4,1), (10,)."""
    s = text.strip()
    if not s.endswith(")") or "(" not in s:
        raise ParseError(f"expected pre(period), got {text!r}")
    idx = s.index("(")
    pre_str, per_str = s[:idx], s[idx + 1 : -1]
    if ")" in pre_str or "(" in per_str:
        raise ParseError(f"unbalanced parentheses in {text!r}")

    def parse_digits(chunk: str, bracketed_ok: bool) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        if bracketed_ok and chunk.startswith("["):
            if not chunk.endswith("]"):
                raise ParseError(f"unclosed bracket in {text!r}")
            chunk = chunk[1:-1]
        if "," in chunk:
            parts = [c.strip() for c in chunk.split(",")]
            if not parts[-1]:
                parts.pop()  # one trailing comma, as in (10,)
        else:
            parts = list(chunk)
        try:
            return tuple(int(c) for c in parts)
        except ValueError as exc:
            raise ParseError(f"bad digit in {text!r}") from exc

    pre = parse_digits(pre_str, bracketed_ok=True)
    per = parse_digits(per_str, bracketed_ok=False)
    if not per:
        raise ParseError(f"empty period in {text!r}")
    try:
        return UPWord(pre, per, digit_max)
    except DigitRangeError as exc:
        raise ParseError(str(exc)) from exc


def format_word(u: UPWord) -> str:
    """Text that parse_word reads back as u: (10,) for the period 10, not (10)."""
    if u.max_digit() <= 9:
        pre = "".join(str(d) for d in u.preperiod)
        per = "".join(str(d) for d in u.period)
        return f"{pre}({per})"

    def commas(digits: tuple[int, ...]) -> str:
        return ",".join(str(d) for d in digits) + ("," if len(digits) == 1 else "")

    if not u.preperiod:
        return f"({commas(u.period)})"
    return f"[{commas(u.preperiod)}]({commas(u.period)})"
