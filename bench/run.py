"""The commtrack benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 bench/run.py --workload detect_static --seed 1 --seconds 25 --trace 0

The run sets up the workload's inputs from the seed (several times, to time
set-up), then starts one fresh process per timed pass until ``--seconds``
is used up, checks every operation's output, and prints a readable summary
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``).
With ``--trace 1`` half the time goes to untraced passes and half to traced
ones, and the metrics are the per-layer ones (``tracing.PER_LAYER``); the
spans of every traced pass are written to ``.bench_work/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

# Times are wall times scaled to nominal machine speed (see speed.py).
END_TO_END = {
    "run_s": "s",            # median time of one pass
    "setup_s": "s",          # median time to write the inputs from the seed
    "work_per_s": "unit/s",  # workload units over all passes / their time
    "peak_rss_mb": "MB",     # peak RSS of the process that ran the passes
    "op_ms_p50": "ms",       # median over operations of each one's median time
}
# Reported in the summary only: zero, or defined on some workloads only.
SUMMARY_ONLY = {
    "op_ms_p90": "ms", "ops_failed_frac": "ratio", "modularity": "Q",
    "nmi_planted": "ratio", "stability_nmi": "ratio", "matched_frac": "ratio",
}
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


def run_phases(wl, seed: int, size: dict, inp: Path, work: Path, seconds: float, trace: bool) -> list:
    """One process of back-to-back passes per phase: untraced for the whole
    time, or with tracing half the time untraced and half traced."""
    phases = [False, True] if trace else [False]
    out = []
    for traced in phases:
        job = {"src": str(ROOT / "src"), "workload": wl.name, "seed": seed, "size": size,
               "input": str(inp), "work": str(work), "trace": traced, "budget_s": seconds / len(phases),
               "first_index": 1000 * len(out), "result": str(work / f"phase_{len(out)}.json")}
        job_path = work / f"phase_{len(out)}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        phase = {"traced": traced, "passes": [], "rss_mb": None, "spans": [], "error": ""}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            if proc.returncode == 0:
                phase.update(json.loads(Path(job["result"]).read_text(encoding="utf-8")))
            else:
                phase["error"] = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        except subprocess.TimeoutExpired:
            phase["error"] = f"passes took longer than {CHILD_TIMEOUT_S} s"
        out.append(phase)
    return out


def scaled_wall(record: dict) -> float:
    """A pass's time at nominal machine speed: each timed stretch scaled by
    the probe samples next to it, the rest of the pass by those of the pass."""
    stretches = record["ops"] + record.get("other", [])
    raw = sum(op["ms"] for op in stretches) / 1000.0
    scaled = sum(op["ms"] * op["scale"] for op in stretches) / 1000.0
    return scaled + (record["wall_s"] - raw) * record["scale"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    size = workloads.SIZES[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inp = work / "input"

    setup_s, generate_s = [], []
    probe = speed.Probe()
    probe.sample(speed.AROUND)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inp, ignore_errors=True)
        inp.mkdir(parents=True)
        clock = {}
        t0 = time.perf_counter()
        expect = wl.setup(seed, size, inp, clock)
        t1 = time.perf_counter()
        probe.sample(speed.AROUND)
        setup_s.append((t1 - t0) * probe.scale(t0, t1))
        generate_s.append(clock["generate_s"] * probe.scale(t0, t1))

    phases = run_phases(wl, seed, size, inp, work, seconds, trace)

    attempted = failed = 0
    problems, quality, cache = [], {}, {}
    for phase in phases:
        if phase["error"]:
            attempted += wl.n_ops(size)
            failed += wl.n_ops(size)
            problems.append(f"{'traced' if phase['traced'] else 'untraced'} passes failed: {phase['error']}")
        for record in phase["passes"]:
            try:
                v = wl.check(expect, inp, work / f"pass_{record['index']}", record, cache)
            except Exception as exc:  # output the check cannot even read: every operation failed
                v = workloads.Verdicts(ok=[False] * wl.n_ops(size), problems=[f"check raised {exc!r}"])
            attempted += len(v.ok)
            failed += v.ok.count(False)
            problems.extend(f"pass {record['index']}: {msg}" for msg in v.problems)
            for key, value in v.quality.items():
                quality.setdefault(key, []).append(value)

    plain = [ph for ph in phases if not ph["traced"] and not ph["error"]]
    traced = [ph for ph in phases if ph["traced"] and not ph["error"]]
    result = {
        "workload": wl, "seed": seed, "size": size, "problems": problems,
        "n_passes": [len(ph["passes"]) for ph in phases],
        "attempted": attempted, "failed": failed, "setup_s": setup_s,
        "quality": {k: statistics.mean(v) for k, v in quality.items()},
    }
    if plain:
        records = plain[0]["passes"]
        walls = [scaled_wall(r) for r in records]
        # every pass runs the same operations on the same inputs, in the same order;
        # a pass with another number of operations has failed its checks
        per_pass = [[op["ms"] * op["scale"] for op in r["ops"]] for r in records
                    if len(r["ops"]) == wl.n_ops(size)]
        result["ops_ms"] = [ms for ops in per_pass for ms in ops]
        result["raw_run_s"] = statistics.median(r["wall_s"] for r in records)
        result["scale"] = statistics.median(r["scale"] for r in records)
        result["end_to_end"] = {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s),
            "work_per_s": sum(r["units"] for r in records) / sum(walls),
            "peak_rss_mb": plain[0]["rss_mb"],
            "op_ms_p50": (statistics.median(statistics.median(t) for t in zip(*per_pass))
                          if per_pass else None),
        }
    if trace and traced and plain:
        spans = traced[0]["spans"]
        (work / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
        scales = {f"pass{r['index']}": r["scale"] for r in traced[0]["passes"]}
        scales["decompose"] = statistics.median(scales.values())
        result["per_layer"] = tracing.summarize(spans, scales, traced[0]["passes"], plain[0]["passes"],
                                                statistics.median(generate_s))
        result["self_times"] = tracing.self_time_table(spans, scales)
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_summary(res: dict, trace: bool) -> None:
    wl = res["workload"]
    print(f"workload {wl.name} (seed {res['seed']}): {wl.why}")
    print(f"  passes per phase (untraced, traced) {res['n_passes']}; "
          f"{res['attempted']} operations ({wl.op}), {res['failed']} failed")
    for problem in res["problems"][:10]:
        print(f"  CHECK FAILED {problem}")
    e2e = res.get("end_to_end", {})
    for name, unit in END_TO_END.items():
        note = f"  ({wl.unit} per second)" if name == "work_per_s" else ""
        note = f"  (n={len(res['ops_ms'])})" if name == "op_ms_p50" else note
        print(f"  {name:16s} {'n/a' if e2e.get(name) is None else _fmt(e2e[name])} {unit}{note}")
    if "scale" in res:
        print(f"  unscaled run_s {_fmt(res['raw_run_s'])} s; median machine speed factor {_fmt(res['scale'])}")
    ops_ms = res.get("ops_ms", [])
    q = res["quality"]
    extra = {
        "op_ms_p90": (float(sorted(ops_ms)[math.ceil(0.9 * len(ops_ms)) - 1]) if len(ops_ms) >= P90_MIN_SAMPLES
                      else None, f"n={len(ops_ms)}, needs {P90_MIN_SAMPLES}"),
        "ops_failed_frac": (res["failed"] / res["attempted"] if res["attempted"] else None, ""),
    }
    for name in ("modularity", "nmi_planted", "stability_nmi", "matched_frac"):
        extra[name] = (q.get(name), "not produced by this workload")
    for name, (value, why) in extra.items():
        shown = f"{_fmt(value)} {SUMMARY_ONLY[name]}" if value is not None else f"n/a ({why})"
        print(f"  {name:16s} {shown}")
    if "mi_p0" in q:
        print(f"  trend: mean MI {_fmt(q['mi_p0'])} nats at p=0, {_fmt(q['mi_p1'])} nats at p=1")
    if trace and "per_layer" in res:
        print("  self time per traced pass (span, calls, inclusive s, self s):")
        for span, calls, incl, own in res["self_times"]:
            print(f"    {span:28s} {calls:8.1f} {incl:10.4f} {own:10.4f}")
        import tracing
        for name, unit in tracing.PER_LAYER.items():
            print(f"  {name:28s} {_fmt(res['per_layer'][name])} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "commtrack" / "__init__.py").is_file():
        print(f"error: no commtrack sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = tracing.PER_LAYER if args.trace else END_TO_END
    values = res.get("per_layer" if args.trace else "end_to_end")
    if values is None:
        print(f"error: no pass of {args.workload} completed: {res['problems'][:3]}", file=sys.stderr)
        return 1
    print_summary(res, bool(args.trace))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
