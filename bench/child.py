"""Timed passes of a benchmark workload, in a process of their own.

Usage: python3 bench/child.py JOB_JSON

``run.py`` writes the job file and reads back the result file it names. The
process runs passes back to back and starts another only while a typical
pass still fits in the job's time budget. The machine speed probe runs
before the first pass, after each one, and (untraced) between operations. Running apart from set-up and
checking makes ``ru_maxrss`` the peak memory of the passes alone.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    tracer = tracing.Tracer()
    if job["trace"]:
        tracer.install()
    records, elapsed = [], []
    start = time.perf_counter()
    probe = speed.Probe()
    probe.sample(speed.AROUND)
    while True:
        index = job["first_index"] + len(records)
        out = Path(job["work"]) / f"pass_{index}"
        out.mkdir(parents=True)
        tracer.run_id = f"pass{index}"
        t0 = time.perf_counter()
        record = wl.run_pass(Path(job["input"]), out, job["seed"], job["size"], tracer,
                             None if job["trace"] else probe)
        t1 = time.perf_counter()
        elapsed.append(t1 - t0)
        probe.sample(speed.AROUND)
        for op in record["ops"] + record.get("other", []):
            op["scale"] = probe.scale(op["start"], op["start"] + op["ms"] / 1000.0)
        records.append(dict(record, index=index, scale=probe.scale(t0, t1)))
        if time.perf_counter() - start + statistics.median(elapsed) > job["budget_s"]:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"] and wl.decompose is not None:
        tracer.run_id = "decompose"
        wl.decompose(Path(job["input"]), tracer)
    result = {"passes": records, "rss_mb": rss_mb, "spans": tracer.spans}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
