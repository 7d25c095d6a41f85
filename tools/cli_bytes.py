"""Fingerprint the CLI's bytes on every benchmark argv and around them.

    python3 tools/cli_bytes.py SRC OUT

SRC is the `src` directory of the checkout to run (so two checkouts can be
compared with one copy of this script), OUT the file to write.  The argv
are every distinct argv of the four workloads of perfbench/jobs.py at
seeds 1-3, plus the text form of each JSON job (`--format text` in place of
`--format json`), then the argv of tests/cli_pins.json, then a fixed-seed
sample of `near_miss_argv`: command lines one or two edits away from
well-formed ones, which probe where the CLI's own reader hands a line to
argparse, then `sweep_argv`: `code --check` at every length 1-40, so that
some coding ends on or next to each edge of a block of B-integers, then
`synthesize_argv`: `synthesize` on a fixed-seed sample of admissible lists
for p = 1-5 whose first entry takes every period length 1-6 and every
preperiod length 0-p, in text and JSON, so that the fixed point and the
word values meet every period block and preperiod residue, then
`validate_argv`: `validate` and `synthesize`, in text and JSON, on
fixed-seed lists for p = 1-5 (preperiod up to 3, period up to 4, digits up
to 3, zero tails and entries equal up to rotation), half of them failing
Parry, and on two lists with long pairwise-coprime periods, then
`directive_argv`: `code --directive ... --len 60 --check`, in text and
JSON, on fixed-seed periodic directives of q = 3-5 non-increasing blocks
of one arity in q-5 with entries 1-3, whose finite-shape products need a
t x t start with t = q, then `wide_argv`: `synthesize`, in text and JSON,
on fixed-seed admissible lists for p = 6-12, whose period products need a
t x t start with t = p (the other families reach t <= 5).  Each
one runs in-process through `altbase.cli.main` with COLUMNS=80 and an
empty stdin, and OUT gets one line per argv: the sha256 of (exit code,
stdout, stderr), then the argv as JSON.  Two runs
over the same perfbench/jobs.py list the same argv in the same order, so
`cmp` on their outputs is the byte check of a change.

The byte check cannot vouch for `isolate_dominant`'s rounding search, the
path that rounds λ's bracket ends out when they lie off the 2^-16 grid: no
argv here ends its isolation off that grid, and neither did any of 780,317
random admissible lists (p <= 3, preperiod <= 3, period <= 5, digits <= 3,
repeated entries included).  Two tests of tests/test_numerics.py guard that
path instead:
`test_isolate_dominant_separates_close_roots_with_no_bracket_cap` and
`test_isolate_dominant_matches_the_fraction_route_on_repeated_factors`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3)
NEAR_MISS_SEED, NEAR_MISS_SAMPLE = 0, 400
SYNTHESIZE_SEED = 0
VALIDATE_SEED, VALIDATE_PER_P = 0, 12
DIRECTIVE_SEED, DIRECTIVE_PER_Q = 0, 6
WIDE_SEED, WIDE_PER_P = 0, 2
# three coprime period lengths: the Parry bound is 505, and the second list
# has 955 violations
LONG_PERIOD_LISTS = (["3(1000001)", "3(10000001)", "3(100000001)"],
                     ["3(1234567)", "3(12345670)", "3(123456701)"])

# quick well-formed command lines that near_miss_argv edits
WELL_FORMED = (
    ["validate", "-p", "2", "(21)", "(12)"],
    ["validate", "-p", "1", "120(0)", "--format", "json", "--depth", "8"],
    ["synthesize", "-p", "1", "(21)", "--tol", "64"],
    ["synthesize", "-p", "2", "(21)", "(12)", "--skip-parry", "--format", "json"],
    ["code", "--directive", "1,1", "--len", "13", "--check"],
    ["code", "--base", "(2)", "--len", "5", "--format", "json"],
    ["code", "--len", "20", "--directive", "2,2;1,1", "--depth", "16", "--tol", "64"],
)
OPTIONS = ("-p", "--format", "--tol", "--depth", "--directive", "--base", "--len",
           "--check", "--skip-parry")
INTEGER = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")  # Arabic-Indic digits


def _int_spelling(rng: random.Random, value: str) -> str:
    """Another spelling of an int value; int() takes all but the last three."""
    return rng.choice([
        "+" + value, " " + value, value + " ", "0" + value, value.translate(INTEGER),
        value[:1] + "_" + value[1:] if len(value) > 1 else value,
        "-" + value, "7" * 4301, "0x10", "1e3",
    ])


def _edit(rng: random.Random, argv: list[str]) -> list[str]:
    """argv after one random edit at the grammar's edges."""
    argv = list(argv)
    at = rng.randrange(1, len(argv) + 1)
    opts = [i for i, t in enumerate(argv) if t in OPTIONS]
    valued = [i for i in opts if i + 1 < len(argv) and argv[i] not in ("--check", "--skip-parry")]
    kind = rng.randrange(13)
    if kind == 0 and opts:  # an abbreviation, or a wrong case
        i = rng.choice(opts)
        argv[i] = rng.choice([argv[i][:rng.randrange(2, max(3, len(argv[i])))], argv[i].upper()])
    elif kind == 1 and valued:  # --tol=64, -p2
        i = rng.choice(valued)
        argv[i:i + 2] = [argv[i] + rng.choice(["=", ""]) + argv[i + 1]]
    elif kind == 2 and valued:  # an int spelled otherwise, or a choice in upper case
        i = rng.choice(valued) + 1
        argv[i] = argv[i].upper() if argv[i] in ("json", "text") else _int_spelling(rng, argv[i])
    elif kind == 3 and opts:  # an option or flag given twice
        i = rng.choice(opts)
        argv[at:at] = argv[i:i + 1 + (i in valued)]
    elif kind == 4:  # the last token moved to a random place
        argv.insert(at - (at == len(argv)), argv.pop())
    elif kind == 5:  # a separator, stdin, or an empty word
        argv.insert(at, rng.choice(["--", "-", ""]))
    elif kind == 6:  # help, an unknown option, a negative number
        argv.insert(at, rng.choice(["-h", "--help", "--bogus", "-x", "-3"]))
    elif kind == 7:  # another command, the same arguments
        argv[0] = rng.choice(["validate", "synthesize", "code"])
    elif kind == 8:  # a token dropped
        del argv[max(at - 1, 1)]
    elif kind == 9:  # --base with no words
        argv += ["--base"] if "--base" not in argv else []
        i = argv.index("--base") + 1
        while i < len(argv) and not argv[i].startswith("-"):
            del argv[i]
    elif kind == 10:  # a depth below 1
        argv += ["--depth", rng.choice(["0", "-5", "1"])]
    elif kind == 11:  # a flag of another command
        argv.insert(at, rng.choice(["--check", "--skip-parry"]))
    elif kind == 12:  # a bare word at a random place
        argv.insert(at, rng.choice(["(21)", "(1)", "x"]))
    return argv


def near_miss_argv(seed: int, count: int) -> list[list[str]]:
    """count command lines, each one or two seeded edits from WELL_FORMED."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        argv = rng.choice(WELL_FORMED)
        for _ in range(rng.randint(1, 2)):
            argv = _edit(rng, argv)
        out.append(argv)
    return out


# the sources of sweep_argv: three directive arities, two periods, two lists
SWEEP_SOURCES = (
    ["--directive", "1,1"], ["--directive", "2,1"], ["--directive", "1,1,1"],
    ["--directive", "2,2;1,1"], ["--directive", "3,2,1"],
    ["--base", "(21)", "(12)"], ["--base", "2(1)"],
)


def sweep_argv() -> list[list[str]]:
    """code --check on each source at lengths 1-40, then at 40 with --depth 1 and 2."""
    out = [["code", *source, "--len", str(n), "--check"]
           for source in SWEEP_SOURCES for n in range(1, 41)]
    out += [["code", *source, "--len", "40", "--check", "--depth", depth]
            for source in SWEEP_SOURCES for depth in ("1", "2")]
    return out


def synthesize_argv() -> list[list[str]]:
    """synthesize on one admissible list per (p, period length, preperiod length) of entry 0.

    The other entries draw a preperiod length 0-p and a period length 1-6;
    perfbench/jobs.py draws the digits (lead 1-3) and decides admissibility.
    """
    jobs = _jobs()
    rng = random.Random(SYNTHESIZE_SEED)
    out = []
    for p in range(1, 6):
        for per_len in range(1, 7):
            for pre_len in range(p + 1):
                while True:
                    words = [jobs._random_qg_word(rng, pre_len, per_len, 3)]
                    words += [jobs._random_qg_word(rng, rng.randint(0, p), rng.randint(1, 6), 3)
                              for _ in range(p - 1)]
                    if jobs.admissible(words):
                        break
                argv = ["synthesize", "-p", str(p), *map(jobs.fmt, words)]
                out += [argv, argv + ["--format", "json"]]
    return out


def _validate_word(rng: random.Random, jobs, words: list) -> tuple:
    """A word above 1 0^w, sometimes with a zero tail, sometimes a suffix of an
    earlier word of the list (a rotation, for a purely periodic one) or that
    word behind one more digit, so that suffixes meet equal targets."""
    while True:
        kind = rng.randrange(5)
        if kind == 0 and words:
            w = rng.choice(words)
            w = jobs.canon(*jobs.shift(w, rng.randint(1, len(w[0]) + len(w[1]))))
        elif kind == 1 and words:
            pre, per = rng.choice(words)
            w = jobs.canon((rng.randint(1, 3), *pre[:2]), per)
        else:
            pre = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(rng.randint(0, 2))]
            per = [0] if kind == 2 else [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
            w = jobs.canon(pre, per)
        if jobs.above_ten(w):
            return w


def validate_argv() -> list[list[str]]:
    """validate and synthesize, text and JSON, on VALIDATE_PER_P lists per p = 1-5,
    half of them admissible, then on LONG_PERIOD_LISTS."""
    jobs = _jobs()
    rng = random.Random(VALIDATE_SEED)
    lists = []
    for p in range(1, 6):
        wanted = {True: VALIDATE_PER_P // 2, False: VALIDATE_PER_P // 2}
        while any(wanted.values()):
            words: list = []
            for _ in range(p):
                words.append(_validate_word(rng, jobs, words))
            ok = jobs.admissible(words)
            if wanted[ok]:
                wanted[ok] -= 1
                lists.append(list(map(jobs.fmt, words)))
    return [[command, "-p", str(len(words)), *words, *form]
            for words in lists + list(LONG_PERIOD_LISTS)
            for command in ("validate", "synthesize")
            for form in ((), ("--format", "json"))]


def directive_argv() -> list[list[str]]:
    """code --check, text and JSON, on DIRECTIVE_PER_Q periodic directives per q = 3-5."""
    rng = random.Random(DIRECTIVE_SEED)
    out = []
    for q in range(3, 6):
        for _ in range(DIRECTIVE_PER_Q):
            arity = rng.randint(q, 5)
            blocks = [sorted((rng.randint(1, 3) for _ in range(arity)), reverse=True)
                      for _ in range(q)]
            argv = ["code", "--directive", ";".join(",".join(map(str, b)) for b in blocks),
                    "--len", "60", "--check"]
            out += [argv, argv + ["--format", "json"]]
    return out


def wide_argv() -> list[list[str]]:
    """synthesize, text and JSON, on WIDE_PER_P lists per p = 6-12 of words 3w(v), w and v over 0-2.

    Every suffix of such a word leads with a digit below 3, so every list
    is admissible; w has length 0-2 and v, not all zeros, length 1-3.
    """
    jobs = _jobs()
    rng = random.Random(WIDE_SEED)
    out = []
    for p in range(6, 13):
        for _ in range(WIDE_PER_P):
            words = []
            for _ in range(p):
                per = [0]
                while not any(per):
                    per = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
                pre = [3] + [rng.randint(0, 2) for _ in range(rng.randint(0, 2))]
                words.append(jobs.canon(pre, per))
            argv = ["synthesize", "-p", str(p), *map(jobs.fmt, words)]
            out += [argv, argv + ["--format", "json"]]
    return out


def pin_argv() -> list[list[str]]:
    with open(os.path.join(HERE, os.pardir, "tests", "cli_pins.json"), encoding="utf-8") as fh:
        return [pin["argv"] for pin in json.load(fh)]


def _jobs():
    """The perfbench/jobs.py module."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import jobs

    return jobs


def benchmark_argv() -> list[list[str]]:
    """Distinct argv of every workload at SEEDS, each JSON job also as text."""
    jobs = _jobs()
    out, seen = [], set()
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for job in jobs.build(workload, seed):
                argv = job["argv"]
                forms = [argv]
                if "--format" in argv and argv[argv.index("--format") + 1] == "json":
                    text = list(argv)
                    text[argv.index("--format") + 1] = "text"
                    forms.append(text)
                for form in forms:
                    if tuple(form) not in seen:
                        seen.add(tuple(form))
                        out.append(form)
    return out


def fingerprint(main, argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO("")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main(args: list[str]) -> int:
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    src, path = args
    os.environ["COLUMNS"] = "80"
    all_argv = (benchmark_argv() + pin_argv()
                + near_miss_argv(NEAR_MISS_SEED, NEAR_MISS_SAMPLE) + sweep_argv()
                + synthesize_argv() + validate_argv() + directive_argv() + wide_argv())
    sys.path.insert(0, os.path.abspath(src))
    from altbase.cli import main as cli_main

    with open(path, "w", encoding="utf-8") as fh:
        for argv in all_argv:
            fh.write(f"{fingerprint(cli_main, argv)} {json.dumps(argv)}\n")
    print(f"{len(all_argv)} argv written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
