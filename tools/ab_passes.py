"""Time two checkouts against each other in one process, pass by pass.

    python3 tools/ab_passes.py SRC_A SRC_B WORKLOAD [SEED] [PASSES]

SRC_A and SRC_B are the `src` directories of the two checkouts.  The
script imports `altbase.cli` from SRC_A, drops every `altbase` module from
`sys.modules`, and imports it again from SRC_B, so both sides run in one
interpreter on one machine state.  It then alternates passes over the jobs
of `perfbench/jobs.build(WORKLOAD, SEED)` (SEED defaults to 1, PASSES, the
passes per side, to 10); pair i runs A first when i is even.  Every job
runs in-process through `main` with stdout and stderr captured, after one
untimed warm-up job per side.

Prints each side's median pass time with the interquartile range of its
pass times (the spread against which a level or a gain is judged), the
median of the B/A pair ratios and the number of pairs in which B was
faster.  Exits 1 when the two sides
differ in exit code, stdout or stderr on any job of the first pair.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_main(src: str):
    """altbase.cli.main imported from src, after dropping any altbase already loaded."""
    for name in [n for n in sys.modules if n == "altbase" or n.startswith("altbase.")]:
        del sys.modules[name]
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    try:
        import altbase.cli
    finally:
        sys.path.remove(src)
    if not os.path.realpath(altbase.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"altbase was imported from {altbase.cli.__file__}, not from {src}")
    return altbase.cli.main


def iqr(xs: list[float]) -> float:
    """Distance between the first and third quartiles of xs; 0 for a single value."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def run_pass(main, job_list) -> tuple[float, list]:
    """(seconds, [(exit code, stdout, stderr) per job]) of one pass."""
    outputs = []
    start = time.perf_counter()
    for job in job_list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job["argv"]))
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def main(argv: list[str]) -> int:
    if not 3 <= len(argv) <= 5 or len(argv) == 5 and int(argv[4]) < 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src_a, src_b, workload = argv[:3]
    seed = int(argv[3]) if len(argv) > 3 else 1
    passes = int(argv[4]) if len(argv) > 4 else 10
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import jobs

    job_list = jobs.build(workload, seed)
    mains = {"A": load_main(src_a), "B": load_main(src_b)}
    for side in mains.values():
        run_pass(side, [{"argv": jobs.WARMUP[workload]}])
    times: dict[str, list[float]] = {"A": [], "B": []}
    differ: list[str] = []
    for i in range(passes):
        order = "AB" if i % 2 == 0 else "BA"
        got = {}
        for side in order:
            dt, got[side] = run_pass(mains[side], job_list)
            times[side].append(dt)
        if i == 0:
            differ = [j["id"] for j, a, b in zip(job_list, got["A"], got["B"]) if a != b]
    for side, src in (("A", src_a), ("B", src_b)):
        print(f"{side}  median pass {statistics.median(times[side]):.4f} s  "
              f"IQR {iqr(times[side]):.4f} s  ({src})")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    won = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"B/A median pair ratio {statistics.median(ratios):.3f}; "
          f"B faster in {won} of {passes} pairs ({workload}, seed {seed}, {len(job_list)} jobs)")
    if differ:
        print(f"{len(differ)} jobs differ between A and B, first: {differ[0]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
