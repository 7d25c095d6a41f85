"""Fingerprint the CLI's bytes on every benchmark argv.

    python3 tools/cli_bytes.py SRC OUT

SRC is the `src` directory of the checkout to run (so two checkouts can be
compared with one copy of this script), OUT the file to write.  The argv
are every distinct argv of the four workloads of perfbench/jobs.py at
seeds 1-3, plus the text form of each JSON job (`--format text` in place of
`--format json`).  Each one runs in-process through `altbase.cli.main`
with COLUMNS=80 and an empty stdin, and OUT gets one line per argv: the
sha256 of (exit code, stdout, stderr), then the argv as JSON.  Two runs
over the same perfbench/jobs.py list the same argv in the same order, so
`cmp` on their outputs is the byte check of a change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3)


def benchmark_argv() -> list[list[str]]:
    """Distinct argv of every workload at SEEDS, each JSON job also as text."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import jobs

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
    all_argv = benchmark_argv()
    sys.path.insert(0, os.path.abspath(src))
    from altbase.cli import main as cli_main

    with open(path, "w", encoding="utf-8") as fh:
        for argv in all_argv:
            fh.write(f"{fingerprint(cli_main, argv)} {json.dumps(argv)}\n")
    print(f"{len(all_argv)} argv written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
