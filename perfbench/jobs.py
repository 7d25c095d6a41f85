"""Seeded job lists for the four benchmark workloads.

This module must not import altbase: a change to the program must not be
able to reshape its own workload.  Admissibility (the Parry conditions),
matrix sizes and the expected exit codes are worked out here from the
words themselves.

A job is a dict:
  id      stable name, unique within the workload
  argv    the arguments handed to altbase.cli.main
  kind    "validate", "synthesize" or "code"
  expect  reference-free expectations: exit code, p, tol, classification,
          the directive blocks of a code job, ...
  anchor  True for the fixed ROADMAP rows, which run regardless of seed
"""

from __future__ import annotations

import random
from math import lcm

WORKLOADS = ("precision", "period", "coding", "batch")
DEFAULT_SEED = 1

# The untimed warm-up job of each workload's process.
WARMUP = {
    "precision": ["synthesize", "-p", "2", "(21)", "(12)", "--format", "json"],
    "period": ["synthesize", "-p", "2", "(21)", "(12)", "--format", "json"],
    "coding": ["code", "--directive", "1,1", "--len", "40", "--check"],
    "batch": ["validate", "-p", "2", "(21)", "(12)", "--format", "json"],
}


# -- ultimately periodic words -------------------------------------------------
# A word is (pre, per): digit tuples of the preperiod and the repeating period.


def canon(pre, per):
    """Primitive period and shortest preperiod, as the CLI parser prints them."""
    pre, per = tuple(pre), tuple(per)
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return pre, per


def digit(w, n):
    """1-indexed digit of the infinite word."""
    pre, per = w
    if n <= len(pre):
        return pre[n - 1]
    return per[(n - 1 - len(pre)) % len(per)]


def shift(w, j):
    """The word from position j+1 on (not canonicalized)."""
    pre, per = w
    if j <= len(pre):
        return pre[j:], per
    r = (j - len(pre)) % len(per)
    return (), per[r:] + per[:r]


def prefix(w, n):
    pre, per = w
    return (pre + per * (n // len(per) + 1))[:n]


def lex_cmp(u, v):
    """-1, 0 or 1; agreement over max preperiod + lcm of periods means equal."""
    bound = max(len(u[0]), len(v[0])) + lcm(len(u[1]), len(v[1]))
    a, b = prefix(u, bound), prefix(v, bound)
    return (a > b) - (a < b)


def is_greedy(w):
    return w[1] == (0,)


def above_ten(w):
    """Strictly above 1 0^omega, which the CLI requires of every entry."""
    d1 = digit(w, 1)
    return d1 >= 2 or (d1 == 1 and canon(*shift(w, 1)) != ((), (0,)))


def admissible(words):
    """Parry conditions: S^j(a_i) <= a_{(i-j) mod p}, strict for greedy a_i.

    Pairs (suffix, target) recur once j passes every preperiod and a
    multiple of the lcm of p and the period lengths, so that many shifts
    decide.
    """
    p = len(words)
    bound = max(len(w[0]) for w in words) + lcm(p, *(len(w[1]) for w in words))
    for i, w in enumerate(words):
        for j in range(1, bound + 1):
            c = lex_cmp(shift(w, j), words[(i - j) % p])
            if c > 0 or (c == 0 and is_greedy(w)):
                return False
    return True


def matrix_k(words):
    """Size of the Parry companion matrices for quasi-greedy (non-zero tail) words."""
    p = len(words)
    m = max(1, -(-max(len(w[0]) for w in words) // p))
    return m * p + lcm(p, *(len(w[1]) for w in words))


def fmt(w):
    pre, per = w
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"


def classification(words):
    return ["greedy" if is_greedy(w) else "quasi-greedy" for w in words]


# -- job constructors ----------------------------------------------------------


def _synth(jid, words, tol, anchor=False, skip_parry=False, ok=True):
    p = len(words)
    argv = ["synthesize", "-p", str(p), *map(fmt, words), "--format", "json"]
    if tol != 64:
        argv += ["--tol", str(tol)]
    if skip_parry:
        argv.append("--skip-parry")
    expect = {"exit": 0 if ok else 1, "p": p, "tol": tol}
    if ok:
        expect["classification"] = classification(words)
        expect["admissible"] = admissible(words)
    return {"id": jid, "argv": argv, "kind": "synthesize", "expect": expect,
            "anchor": anchor}


def _validate(jid, words, ok, anchor=False):
    p = len(words)
    argv = ["validate", "-p", str(p), *map(fmt, words), "--format", "json"]
    return {"id": jid, "argv": argv, "kind": "validate",
            "expect": {"exit": 0 if ok else 1, "p": p}, "anchor": anchor}


def _code_directive(jid, blocks, length, anchor=False):
    text = ";".join(",".join(map(str, b)) for b in blocks)
    argv = ["code", "--directive", text, "--len", str(length), "--check"]
    return {"id": jid, "argv": argv, "kind": "code",
            "expect": {"exit": 0, "len": length, "check": True,
                       "blocks": [list(b) for b in blocks]},
            "anchor": anchor}


def _code_base(jid, words, length):
    argv = ["code", "--base", *map(fmt, words), "--len", str(length)]
    return {"id": jid, "argv": argv, "kind": "code",
            "expect": {"exit": 0, "len": length, "check": False}, "anchor": False}


def _parse_words(texts):
    out = []
    for t in texts:
        pre, per = t[:-1].split("(")
        out.append(canon(tuple(map(int, pre)), tuple(map(int, per))))
    return out


P3 = _parse_words(["3(1)", "2(21)", "(211)"])
P5 = _parse_words(["3(12)", "2(211)", "(2111)", "31(1)", "(22)"])
R21 = _parse_words(["(21)"])


def anchors(workload):
    """The ROADMAP baseline rows: the same jobs for every seed."""
    if workload == "precision":
        return [_synth(f"anchor.21.tol{t}", R21, t, anchor=True) for t in (64, 1024, 4096)]
    if workload == "period":
        return [
            # both rows fail the Parry conditions, so synthesis skips the check
            _validate("anchor.p3.validate", P3, ok=False, anchor=True),
            _validate("anchor.p5.validate", P5, ok=False, anchor=True),
            _synth("anchor.p3.tol64", P3, 64, anchor=True, skip_parry=True),
            _synth("anchor.p3.tol2048", P3, 2048, anchor=True, skip_parry=True),
            _synth("anchor.p5.tol64", P5, 64, anchor=True, skip_parry=True),
        ]
    if workload == "coding":
        jobs = [_code_directive(f"anchor.golden.len{n}", [(1, 1)], n, anchor=True)
                for n in (250, 500, 1000, 2000)]
        jobs.append(_code_directive("anchor.tribonacci.len500", [(1, 1, 1)], 500,
                                    anchor=True))
        return jobs
    if workload == "batch":
        return [_validate("anchor.21.validate", R21, ok=True, anchor=True),
                _synth("anchor.21.tol64", R21, 64, anchor=True)]
    raise ValueError(f"unknown workload {workload!r}")


# -- generated lists ---------------------------------------------------------


def _random_qg_word(rng, pre_len, per_len, lead_max):
    """A quasi-greedy candidate: leading digit 1..lead_max, non-zero tail."""
    while True:
        digits = [rng.randint(1, lead_max)]
        digits += [rng.randint(0, max(1, lead_max - 1)) for _ in range(pre_len + per_len - 1)]
        pre, per = digits[:pre_len], digits[pre_len:]
        if any(per):
            w = canon(pre, per)
            if above_ten(w):
                return w


def _admissible_qg_list(rng, p, k_range, lead_max, max_pre, per_lens, tries=20000):
    """Rejection-sample an admissible list whose matrix size lies in k_range.

    Lengths are drawn first and tested on their own, which is cheap; the
    digits are drawn only for lengths that can give a size in range.
    """
    for _ in range(tries):
        lens = [(rng.randint(0, max_pre), rng.choice(per_lens)) for _ in range(p)]
        if matrix_k([((0,) * a, (0,) * b) for a, b in lens]) not in k_range:
            continue
        words = [_random_qg_word(rng, a, b, lead_max) for a, b in lens]
        if matrix_k(words) in k_range and admissible(words):
            return words
    raise RuntimeError(f"no admissible list with p={p}, k in {k_range}")


# Each workload is a fixed corpus (drawn once from a fixed seed, the same
# for every --seed) plus a smaller seeded part.  The corpus holds most of a
# pass's time and its heaviest jobs, so pass times and latency percentiles
# stay within the metric bounds from seed to seed; the seeded part keeps a
# change from being tuned to one list.  Slots fix the structure (p, matrix
# size k, tol, arity, length) and leave the digits to the random stream.

# precision: (p, tol) slots, 3 <= k <= 8
PRECISION_CORPUS = ((1, 1024), (2, 1024), (3, 1024)) * 4
PRECISION_SEEDED = ((1, 768), (2, 768), (3, 768), (2, 768))

# period: (p, k range) slots at tol 64.  The seeded lists are the smallest
# (k 20-22), so the median and the tail fall on corpus and anchor jobs.
PERIOD_CORPUS = ((2, range(40, 49)), (2, range(40, 49)), (2, range(30, 35)),
                 (3, range(30, 34)), (2, range(30, 35)))
PERIOD_SEEDED = ((2, range(20, 23)), (3, range(21, 23)))

# coding: ("directive", arity, blocks, len) or ("base", p, len) slots.  The
# seeded jobs are the shortest, so the median and the tail fall on corpus
# and anchor jobs.
CODING_CORPUS = (("directive", 2, 1, 300), ("directive", 3, 1, 300), ("base", 2, 300))
CODING_SEEDED = (("directive", 2, 2, 150), ("base", 1, 150))

# batch: (number of lists, largest p); each list gives a validate and a
# synthesize job.  The slowest jobs (p = 3) come from the corpus only, so
# that the latency tail does not move with the seed.
BATCH_CORPUS = (180, 3)
BATCH_SEEDED = (60, 2)
BATCH_SHARES = {"admissible": 0.6, "inadmissible": 0.25, "malformed": 0.15}


def _precision(rng, prefix, slots):
    jobs = []
    for n, (p, tol) in enumerate(slots):
        while True:
            words = _admissible_qg_list(rng, p, range(3, 9), 3, 1, (1, 2, 3))
            # a list of one-digit pure periods has integer betas: no refinement
            if any(w[0] or len(w[1]) > 1 for w in words):
                break
        jobs.append(_synth(f"{prefix}.{n}.p{p}.tol{tol}", words, tol))
    return jobs


def _period(rng, prefix, slots):
    jobs = []
    for n, (p, ks) in enumerate(slots):
        words = _admissible_qg_list(rng, p, ks, 3, 2, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
        jobs.append(_synth(f"{prefix}.{n}.p{p}.k{matrix_k(words)}", words, 64))
    return jobs


def _monotone_block(rng, arity):
    return tuple(sorted((rng.randint(1, 2) for _ in range(arity)), reverse=True))


def _coding(rng, prefix, slots):
    jobs = []
    for n, slot in enumerate(slots):
        if slot[0] == "directive":
            _, arity, q, length = slot
            blocks = [_monotone_block(rng, arity) for _ in range(q)]
            jobs.append(_code_directive(f"{prefix}.{n}.k{arity}.q{q}.len{length}",
                                        blocks, length))
        else:
            _, p, length = slot
            words = _admissible_qg_list(rng, p, range(2, 7), 3, 1, (1, 2))
            jobs.append(_code_base(f"{prefix}.{n}.base.p{p}.len{length}", words, length))
    return jobs


def _random_word(rng):
    """A short word over digits 0..3; one in five is greedy (ends in 0^omega)."""
    pre = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.2:
        return canon(pre, (0,))
    per = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    if not any(per):
        per[-1] = 1
    return canon(pre[: rng.randint(0, len(pre))], per) if rng.random() < 0.5 else canon(pre, per)


def _malformed(rng, n):
    """An argv tail that the CLI must reject with exit 2, and what is wrong."""
    p = rng.randint(1, 3)
    words = [fmt(_random_word(rng)) for _ in range(p)]
    kind = n % 6
    if kind == 0:
        return ["-p", str(p + 1), *words], "word count"
    if kind == 1:
        words[0] = words[0][:-1]
        return ["-p", str(p), *words], "unbalanced"
    if kind == 2:
        words[-1] = "2x" + words[-1]
        return ["-p", str(p), *words], "bad digit"
    if kind == 3:
        words[0] = words[0].split("(")[0] + "()"
        return ["-p", str(p), *words], "empty period"
    if kind == 4:
        words[0] = "0" + words[0]
        return ["-p", str(p), *words], "lead digit 0"
    return ["-p", str(p), *words, "--tol", "4"], "tol below 8"


def _batch(rng, prefix, slot):
    n_lists, p_max = slot
    counts = {k: round(n_lists * v) for k, v in BATCH_SHARES.items()}
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    jobs = []
    for n, kind in enumerate(kinds):
        if kind == "malformed":
            tail, why = _malformed(rng, n)
            for cmd in ("validate", "synthesize"):
                jobs.append({"id": f"{prefix}.{n}.{cmd}.malformed",
                             "argv": [cmd, *tail, "--format", "json"],
                             "kind": cmd, "expect": {"exit": 2, "why": why},
                             "anchor": False})
            continue
        want = kind == "admissible"
        while True:
            p = rng.randint(1, p_max)
            words = [_random_word(rng) for _ in range(p)]
            if all(above_ten(w) for w in words) and admissible(words) == want:
                break
        jobs.append(_validate(f"{prefix}.{n}.validate.{kind}", words, want))
        jobs.append(_synth(f"{prefix}.{n}.synthesize.{kind}", words, 64, ok=want))
    return jobs


_PARTS = {
    "precision": (_precision, PRECISION_CORPUS, PRECISION_SEEDED),
    "period": (_period, PERIOD_CORPUS, PERIOD_SEEDED),
    "coding": (_coding, CODING_CORPUS, CODING_SEEDED),
    "batch": (_batch, BATCH_CORPUS, BATCH_SEEDED),
}


def build(workload, seed):
    """The job list of one pass: seeded jobs, then the corpus, then the anchors.

    Ids of corpus and anchor jobs start with "corpus." and "anchor."; they
    are the same for every seed.
    """
    make, corpus, seeded = _PARTS[workload]
    jobs = (make(random.Random(f"{workload}:{seed}"), f"seeded.{workload}", seeded)
            + make(random.Random(f"{workload}:corpus"), "corpus", corpus)
            + anchors(workload))
    ids = [j["id"] for j in jobs]
    if len(set(ids)) != len(ids):
        raise RuntimeError("job ids must be unique")
    return jobs
