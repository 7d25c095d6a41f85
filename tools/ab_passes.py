"""Time two checkouts against each other, pass by pass or set-up by set-up.

    python3 tools/ab_passes.py [--setup] SRC_A SRC_B WORKLOAD [SEED] [PASSES]

SRC_A and SRC_B are the `src` directories of the two checkouts.  The
script imports `altbase.cli` from SRC_A, drops every `altbase` module from
`sys.modules`, and imports it again from SRC_B, so both sides run in one
interpreter on one machine state.  It then alternates passes over the jobs
of `perfbench/jobs.build(WORKLOAD, SEED)` (SEED defaults to 1, PASSES, the
passes per side, to 10); pair i runs A first when i is even.  Every job
runs in-process through `main` with stdout and stderr captured, after one
untimed warm-up job per side.

One interpreter cannot time start-up, so with --setup each run is a fresh
`<checkout>/perfbench/worker.py --workload WORKLOAD --seed SEED
--setup-only`, the checkout being the directory above SRC, alternated
between the sides in the same order.  Each set-up time is rescaled to
reference machine speed with `perfbench/speed.scale("setup", ...)` and the
speed the worker sampled, as `perfbench/run.py` rescales it.

Prints each side's median time with its quartiles and interquartile range
(the spread against which a level or a gain is judged), the median of the
B/A pair ratios and the number of pairs in which B was faster.  In pass
mode it exits 1 when the two sides differ in exit code, stdout or stderr on
any job of the first pair.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
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


def quartiles(xs: list[float]) -> tuple[float, float]:
    """First and third quartiles of xs; both xs[0] for a single value."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


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


def setup_time(src: str, workload: str, seed: int, speed) -> float:
    """One fresh set-up of the checkout above src, rescaled to reference speed."""
    root = os.path.dirname(os.path.realpath(src))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "worker.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["setup_s"] * speed.scale("setup", res["speed"])


def main(argv: list[str]) -> int:
    setup = argv[:1] == ["--setup"]
    argv = argv[setup:]
    if not 3 <= len(argv) <= 5 or len(argv) == 5 and int(argv[4]) < 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src_a, src_b, workload = argv[:3]
    seed = int(argv[3]) if len(argv) > 3 else 1
    passes = int(argv[4]) if len(argv) > 4 else 10
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import jobs
    import speed

    srcs = {"A": src_a, "B": src_b}
    times: dict[str, list[float]] = {"A": [], "B": []}
    differ: list[str] = []
    if setup:
        for i in range(passes):
            for side in "AB" if i % 2 == 0 else "BA":
                times[side].append(setup_time(srcs[side], workload, seed, speed))
    else:
        job_list = jobs.build(workload, seed)
        mains = {"A": load_main(src_a), "B": load_main(src_b)}
        for side in mains.values():
            run_pass(side, [{"argv": jobs.WARMUP[workload]}])
        for i in range(passes):
            got = {}
            for side in "AB" if i % 2 == 0 else "BA":
                dt, got[side] = run_pass(mains[side], job_list)
                times[side].append(dt)
            if i == 0:
                differ = [j["id"] for j, a, b in zip(job_list, got["A"], got["B"]) if a != b]
    what = "set-up" if setup else "pass"
    for side, src in srcs.items():
        q1, q3 = quartiles(times[side])
        print(f"{side}  median {what} {statistics.median(times[side]):.4f} s  "
              f"quartiles {q1:.4f}-{q3:.4f} s  IQR {q3 - q1:.4f} s  ({src})")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    won = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"B/A median pair ratio {statistics.median(ratios):.3f}; "
          f"B faster in {won} of {passes} pairs ({workload}, seed {seed}, {what})")
    if differ:
        print(f"{len(differ)} jobs differ between A and B, first: {differ[0]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
