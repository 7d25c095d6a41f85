"""Record the committed references from the program as it is now.

    python3 perfbench/make_refs.py [workload ...]

Runs the default seed's job list of each workload once and writes
refs/<workload>.json.  Only jobs that pass the reference-free checks are
recorded; a job that fails them stays without a reference and keeps
failing, so a defect is never written down as the expected answer.
Re-record only when a change is meant to alter the output, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import jobs  # noqa: E402
from run import Runner  # noqa: E402


def main(argv) -> int:
    for workload in argv or jobs.WORKLOADS:
        job_list = jobs.build(workload, jobs.DEFAULT_SEED)
        res = Runner(workload, jobs.DEFAULT_SEED).worker("--passes", "1")
        records = {}
        for job in job_list:
            rc, out, err = res["outputs"][job["id"]]
            cause, _ = check.check_job(job, rc, out, err, None)
            if cause is None:
                records[job["id"]] = check.summarize(job, rc, out, err)
            else:
                print(f"{workload}: {job['id']} not recorded: {cause}")
        path = os.path.join(HERE, "refs", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            # one job per line, so that a re-recording diffs job by job
            f.write('{"seed": %d, "jobs": {\n' % jobs.DEFAULT_SEED)
            f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                               for k, v in sorted(records.items())))
            f.write("\n}}\n")
        print(f"{workload}: {len(records)}/{len(job_list)} jobs recorded in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
