"""altbase benchmark: seeded CLI job lists, checked, timed end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the sources in ./src.
Workloads (see jobs.py and NOTES.md): precision, period, coding, batch.

--trace 0 measures with no wrapper installed: the median set-up time of
several fresh interpreters, then one worker process that runs passes over
the job list for S seconds (at least three), one job at a time.  Times are
reported at reference machine speed (speed.py); the raw ones are in the
details line.
--trace 1 runs an untraced pass, a traced pass and another untraced pass,
each in a fresh process, checks that all three print the same outputs, and
reports the per-layer self times and counts from the spans.

Every job's output is checked (check.py).  The last line of stdout is the
result object; the line before it holds the details: failing jobs and
their causes, per-anchor medians, the tail percentile, the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import jobs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_RUNS = 8
MIN_PASSES = 3
TAIL_BEYOND = 10
DEADLINE_S = 170

ALL = jobs.WORKLOADS

# (metric, unit, workloads whose traced run must record at least one call).
# Metrics with no workload listed count wasted or optional work, or are
# derived from outputs; they may read 0.
PER_LAYER = (
    ("cli.main.self_s", "s", ALL),
    ("cli.byte_identical_ratio", "1", ()),
    ("words.check_parry.self_s", "s", ("batch",)),
    ("words.check_parry.calls", "count", ("batch",)),
    ("words.parse_word.self_s", "s", ("batch",)),
    ("intervals.interval_ops.calls", "count", ("precision",)),
    ("intervals.as_fraction.calls", "count", ("precision",)),
    ("polynomials.faddeev_leverrier.self_s", "s", ("period",)),
    ("polynomials.faddeev_leverrier.calls", "count", ("period",)),
    ("polynomials.charpoly_degree_max", "count", ("period",)),
    ("polynomials.refine_root_bisect.self_s", "s", ("precision",)),
    ("polynomials.refine_root_bisect.calls", "count", ("precision",)),
    ("polynomials.eval_dyadic_sign.calls", "count", ("precision",)),
    ("polynomials.eval_dyadic_sign.calls_anchor_21_tol4096", "count", ("precision",)),
    ("polynomials.isolate_dominant.self_s", "s", ("batch",)),
    ("polynomials.sturm.self_s", "s", ("batch",)),
    ("polynomials.int_poly_gcd.self_s", "s", ("coding",)),
    ("polynomials.int_poly_gcd.calls", "count", ("coding",)),
    ("algebraic.mul.self_s", "s", ("coding", "period")),
    ("algebraic.mul.calls", "count", ("coding", "period")),
    ("algebraic.reduce.self_s", "s", ("coding", "period")),
    ("algebraic.reduce.calls", "count", ("coding", "period")),
    ("algebraic.is_zero.self_s", "s", ("coding",)),
    ("algebraic.is_zero.calls", "count", ("coding",)),
    ("algebraic.is_zero.zero_ratio", "1", ("coding",)),
    ("algebraic.inv.self_s", "s", ("period",)),
    ("algebraic.inv.calls", "count", ("period",)),
    ("algebraic.degree_built_max", "count", ("period",)),
    ("algebraic.degree_final_max", "count", ("period",)),
    ("algebraic.enclosure.self_s", "s", ("precision",)),
    ("algebraic.enclosure.calls", "count", ("precision",)),
    ("algebraic.sign.self_s", "s", ("precision", "batch")),
    ("perron.periodic_fixed_point.self_s", "s", ("period",)),
    ("perron.periodic_fixed_point.calls", "count", ("period",)),
    ("perron.rotation_product.self_s", "s", ("period",)),
    ("perron.primitive_rotation.self_s", "s", ("period",)),
    ("perron.build_parry_matrices.self_s", "s", ("period",)),
    ("perron.matrix_k_max", "count", ("period",)),
    ("synthesis.synthesize_periodic.self_s", "s", ("batch", "period")),
    ("synthesis.synthesize_periodic.calls", "count", ("batch", "period")),
    ("synthesis.certify.self_s", "s", ("batch", "period")),
    ("synthesis.verify_value_one.self_s", "s", ("batch", "period")),
    ("expansion.val_up.self_s", "s", ("batch", "period")),
    ("bases.AlternateBase.refine.calls", "count", ()),
    ("coding.faithful_coding.self_s", "s", ("coding",)),
    ("coding.enumerate_b_integers.self_s", "s", ("coding",)),
    ("coding.b_integers", "count", ("coding",)),
    ("coding.gap_table.self_s", "s", ("coding",)),
    ("coding.gap_table.calls", "count", ("coding",)),
    ("coding.gap_table.useful_ratio", "1", ("coding",)),
    ("coding.gap_substitution.self_s", "s", ("coding",)),
    ("coding.sadic_limit.self_s", "s", ("coding",)),
    ("coding.base_from_directive.self_s", "s", ("coding",)),
    ("trace.overhead_ratio", "1", ()),
)


END_TO_END = ("setup_s", "wall_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "pass_ratio")


def declared_metrics():
    """(end-to-end names, per-layer names) from BENCHMARK.json, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return (tuple(m["name"] for m in spec["end_to_end"]),
            tuple(m["name"] for m in spec["per_layer"]))


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    src.update(name.encode() + b"\0" + f.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": git_commit(),
            "src_sha256": src.hexdigest()}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def worker(self, *extra: str) -> dict:
        """Run worker.py to completion and return its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        left = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(left, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(extra)} exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        return json.loads(proc.stdout.splitlines()[-1])


def load_refs(workload: str, seed: int) -> dict:
    """Committed references: corpus and anchors for every seed, all jobs for the default seed."""
    path = os.path.join(HERE, "refs", f"{workload}.json")
    with open(path) as f:
        refs = json.load(f)
    if seed == refs["seed"]:
        return refs["jobs"]
    return {k: v for k, v in refs["jobs"].items() if not k.startswith("seeded.")}


def check_outputs(job_list, result, refs):
    """Per job: (cause or None, byte-identical or None)."""
    out = {}
    for job in job_list:
        rc, stdout, stderr = result["outputs"][job["id"]]
        out[job["id"]] = check.check_job(job, rc, stdout, stderr, refs.get(job["id"]))
    return out


def quantile(values, q):
    """Linear interpolation between order statistics (type 7)."""
    s = sorted(values)
    h = q * (len(s) - 1)
    i = math.floor(h)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (h - i) * (s[i + 1] - s[i])


def tail_quantile(jobs_per_pass):
    """The percentile with TAIL_BEYOND of the executions of MIN_PASSES passes
    beyond it; it depends only on the job count, so every run of a workload
    reports the same percentile."""
    return max(1 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass), 0.5)


def run_plain(runner: Runner, job_list, refs, seconds: float):
    # half the set-up samples before the timed process and half after, so
    # that their median spans the machine's speed over the whole run
    setups = [runner.worker("--setup-only") for _ in range(SETUP_RUNS // 2)]
    res = runner.worker("--seconds", str(seconds), "--passes", str(MIN_PASSES))
    setups += [runner.worker("--setup-only") for _ in range(SETUP_RUNS // 2)]
    checks = check_outputs(job_list, res, refs)
    n_pass = len(res["passes"])
    attempted = len(job_list) * n_pass
    failures = {}
    failed = 0
    for job in job_list:
        cause, _ = checks[job["id"]]
        if cause is not None:
            failures[job["id"]] = cause
            failed += n_pass
        elif job["id"] in res["unstable"]:
            bad = res["unstable"][job["id"]]
            failures[job["id"]] = f"output changed in passes {bad}"
            failed += len(bad)
    # times at reference speed: each pass (and each set-up process) is
    # rescaled by the machine speed sampled while it ran
    scale = [speed.scale(runner.workload, s) for s in res["pass_speed"]]
    passes = [t * f for t, f in zip(res["passes"], scale)]
    setup = [s["setup_s"] * speed.scale("setup", s["speed"]) for s in setups]
    # each job's latency is its median over the passes, which keeps one slow
    # pass from moving the percentiles
    per_job = [statistics.median(t * f for t, f in zip(res["latency"][j["id"]], scale))
               for j in job_list]
    q_tail = tail_quantile(len(job_list))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (quantile(per_job, q_tail), "s"),
        "peak_rss_mb": (res["maxrss_kib"] / 1024, "MiB"),
        "pass_ratio": (1 - failed / attempted, "1"),
    }
    detail = {
        "raw": {"passes_s": res["passes"], "pass_speed_s": res["pass_speed"],
                "setup_s": [s["setup_s"] for s in setups],
                "setup_speed_s": [s["speed"] for s in setups],
                "wall_s": statistics.median(res["passes"])},
        "jobs_per_pass": len(job_list),
        "fail_ratio": failed / attempted,
        "failures": failures,
        "job_tail": {"percentile": 100 * q_tail, "jobs": len(per_job),
                     "executions": attempted},
        "anchors_median_s": {j["id"]: statistics.median(res["latency"][j["id"]])
                             for j in job_list if j["anchor"]},
        "anchors_median_at_ref_s": {j["id"]: t for j, t in zip(job_list, per_job)
                                    if j["anchor"]},
        "byte_identical": _byte_identical(checks),
    }
    return metrics, detail, attempted, failed


def _byte_identical(checks):
    same = [s for _, s in checks.values() if s is not None]
    return sum(same) / len(same) if same else None


def run_traced(runner: Runner, job_list, refs):
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{runner.workload}-{runner.seed}.bin")
    # untraced passes before and after the traced one, so that the overhead
    # ratio compares against the machine's speed on both sides of it
    plain = runner.worker("--passes", "1")
    traced = runner.worker("--passes", "1", "--spans", spans_path)
    after = runner.worker("--passes", "1")
    names, arrays = tracing.load_spans(spans_path)
    own = tracing.self_times(names, arrays)
    tr = traced["trace"]
    problems = {}
    failed = 0
    checks = {}
    for label, res in (("untraced", plain), ("traced", traced), ("untraced after", after)):
        checks[label] = check_outputs(job_list, res, refs)
        for jid, (cause, _) in checks[label].items():
            if cause is not None:
                problems[f"{label} {jid}"] = cause
                failed += 1
    for job in job_list:
        if not plain["outputs"][job["id"]] == traced["outputs"][job["id"]] \
                == after["outputs"][job["id"]]:
            problems[f"traced {job['id']}"] = "output differs from the untraced run"
            failed += 1

    def calls(name):
        if name in own:
            return own[name][0]
        return tr["counts"].get(name, 0)

    total_s = sum(sum(lat) for lat in traced["latency"].values())
    values = {}
    for metric, unit, _ in PER_LAYER:
        if metric.endswith(".self_s"):
            v = own.get(metric[: -len(".self_s")], (0, 0.0))[1]
        elif metric.endswith(".calls"):
            v = calls(metric[: -len(".calls")])
        elif metric.endswith("_max"):
            v = tr["maxima"].get(metric, 0)
        else:
            v = None
        values[metric] = v
    def at_ref(res):
        return res["passes"][0] * speed.scale(runner.workload, res["pass_speed"][0])

    untraced_s = at_ref(plain) + at_ref(after)
    zero_tests = calls("algebraic.is_zero")
    gap_calls = calls("coding.gap_table")
    anchor = tr["job_counts"].get("anchor.21.tol4096", {})
    values.update({
        "cli.byte_identical_ratio": _byte_identical(checks["traced"]) or 0.0,
        "polynomials.eval_dyadic_sign.calls_anchor_21_tol4096":
            anchor.get("polynomials.eval_dyadic_sign", 0),
        "algebraic.is_zero.zero_ratio":
            tr["counts"].get("algebraic.is_zero.true", 0) / zero_tests if zero_tests else 0.0,
        "coding.b_integers": tr["counts"].get("coding.b_integers", 0),
        "coding.gap_table.useful_ratio":
            tr["counts"].get("coding.gap_table.distinct_shifts", 0) / gap_calls
            if gap_calls else 0.0,
        "trace.overhead_ratio": 2 * at_ref(traced) / untraced_s - 1,
    })
    missing = []
    for metric, _, needed in PER_LAYER:
        if runner.workload not in needed:
            continue
        base = metric.rsplit(".", 1)[0]
        seen = calls(base) if (metric.endswith(".self_s") or metric.endswith(".calls")) \
            else values[metric]
        if not seen:
            missing.append(metric)
    if missing:
        problems["coverage"] = f"no calls recorded for {missing}"
    if tr["missing_sites"]:
        problems["binding sites"] = f"not wrapped: {tr['missing_sites']}"
    if tr["reused"]:
        problems["fresh state"] = f"objects reused across jobs in {tr['reused']}"
    ranked = sorted(own.items(), key=lambda kv: -kv[1][1])
    detail = {
        "problems": problems,
        "untraced_pass_s": [plain["passes"][0], after["passes"][0]],
        "traced_pass_s": traced["passes"][0],
        "spans": len(arrays[0]),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "self_time_share": {name: round(s / total_s, 4) for name, (_, s) in ranked[:8]},
    }
    metrics = {m: (values[m], unit) for m, unit, _ in PER_LAYER}
    attempted = 3 * len(job_list)
    return metrics, detail, attempted, failed, not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "altbase", "cli.py")):
        return fail(f"no altbase sources under {os.path.join(ROOT, 'src')}")

    declared = declared_metrics()
    if declared and declared != (END_TO_END, tuple(m for m, _, _ in PER_LAYER)):
        return fail("BENCHMARK.json and perfbench/run.py name different metrics")

    runner = Runner(ns.workload, ns.seed)
    job_list = jobs.build(ns.workload, ns.seed)
    refs = load_refs(ns.workload, ns.seed)
    try:
        if ns.trace:
            metrics, detail, attempted, failed, ok = run_traced(runner, job_list, refs)
        else:
            metrics, detail, attempted, failed = run_plain(runner, job_list, refs, ns.seconds)
            ok = failed == 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    detail.update({"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
                   "env": environment()})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
