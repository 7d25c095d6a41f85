"""One workload process: run a seeded job list through altbase.cli.main.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S [--passes P] [--spans FILE]

The first form times a fresh interpreter from its first statement to the
job list being ready (`import altbase` plus building the list), samples the
machine's speed (speed.py) and exits.  The second runs one untimed warm-up
job, then timed passes over the job list, one job at a time, and prints one
JSON object with the pass times, every job's latencies, the machine's speed
during each pass and the first pass's outputs.  Speed samples are taken
between jobs and left out of every time.  With --spans the process is
traced (see tracing.py) and the spans are written to FILE.

Passes run until --seconds have gone by, but at least --passes of them;
a pass is started only if it is expected to end in time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEED_EVERY_S = 0.25  # sample the machine's speed (speed.py) this often


def import_cli():
    """altbase.cli from this checkout's sources, never from anywhere else."""
    sys.path.insert(0, SRC)
    import altbase.cli

    where = os.path.realpath(altbase.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"altbase was imported from {where}, not from {SRC}")
    return altbase.cli


def run_job(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.

    An exception escaping main() is a program defect: the exit code is
    None and the traceback goes to stderr, where the check fails it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t
    return rc, out.getvalue(), err.getvalue(), dt


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--spans")
    ns = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import jobs
    import speed

    cli = import_cli()
    job_list = jobs.build(ns.workload, ns.seed)
    setup_s = time.perf_counter() - T0
    if ns.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "speed": statistics.median(speed.sample() for _ in range(5))}))
        return 0

    run_job(cli, jobs.WARMUP[ns.workload])
    rec = None
    if ns.spans:
        import tracing

        rec = tracing.install()

    passes: list[float] = []
    pass_speed: list[float] = []
    latency = {j["id"]: [] for j in job_list}
    outputs: dict = {}
    unstable: dict = {}
    start = time.perf_counter()
    while len(passes) < ns.passes or (
        time.perf_counter() - start + statistics.median(passes) <= ns.seconds
    ):
        t_pass = time.perf_counter()
        samples: list[float] = []
        sampling = 0.0  # kernel time, left out of the pass time
        last = -SPEED_EVERY_S
        for n, job in enumerate(job_list):
            now = time.perf_counter()
            if now - last >= SPEED_EVERY_S:
                samples.append(speed.sample())
                last = time.perf_counter()
                sampling += last - now
            if rec is not None:
                rec.begin_job(n)
            rc, out, err, dt = run_job(cli, job["argv"])
            if rec is not None:
                rec.end_job()
            latency[job["id"]].append(dt)
            if not passes:
                outputs[job["id"]] = [rc, out, err]
            elif outputs[job["id"]] != [rc, out, err]:
                unstable.setdefault(job["id"], []).append(len(passes))
        passes.append(time.perf_counter() - t_pass - sampling)
        pass_speed.append(statistics.median(samples))

    result = {
        "passes": passes,
        "pass_speed": pass_speed,
        "latency": latency,
        "outputs": outputs,
        "unstable": unstable,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        rec.dump(ns.spans)
        result["trace"] = {
            "counts": dict(rec.counts),
            "maxima": dict(rec.maxima),
            "job_counts": {job_list[n]["id"]: dict(c) for n, c in rec.job_counts.items()},
            "reused": sorted(rec.reused),
            "missing_sites": tracing.missing_sites(rec),
        }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
