"""Smoke tests of the benchmark itself, at tiny scale.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from commtrack.cli import main as commtrack_main

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)
SUMMARY_METRICS = ("run_s", "setup_s", "work_per_s", "peak_rss_mb", "op_ms_p50", "op_ms_p90",
                   "ops_failed_frac", "modularity", "nmi_planted", "stability_nmi", "matched_frac")
# every property of each workload at a size these tests run in seconds
TINY = {
    "cdr_ingest": {"nodes": 600, "hubs": 2},
    "detect_static": {"graphs": 2, "nodes": 600},
    "track_timeline": {"nodes": 600, "steps": 3},
    "stability_sweep": {"nodes": 300, "communities": 10, "seeds": 2, "transitions": 2},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Runs of the benchmark at tiny size, with their work files under tmp_path."""
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / ".bench_work")
    return tmp_path / ".bench_work"


def bench(workload: str, trace: int, capsys) -> list:
    """The command's output lines at tiny size."""
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
    assert code == 0, capsys.readouterr().err
    return capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_names_what_the_command_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, tiny, capsys):
    *summary, last = bench(workload, 0, capsys)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in summary if line.startswith("  ")}
    assert set(SUMMARY_METRICS) <= printed


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_per_layer_metric(workload, tiny, capsys):
    result = json.loads(bench(workload, 1, capsys)[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # top-level spans account for the traced pass time; at full size the
    # glue between calls is well under 1%
    assert 0.8 < values["trace.coverage"] <= 1.0 + 1e-9
    spans = json.loads((tiny / workload / "trace.json").read_text(encoding="utf-8"))
    assert spans and all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans)
    layer_time = {"cdr_ingest": "ingest.self_s", "detect_static": "louvain.static_s",
                  "track_timeline": "tracker.save_s", "stability_sweep": "cli.run_sweep_s"}
    assert values[layer_time[workload]] > 0


def _corrupt(workload: str, monkeypatch, change):
    wl = workloads.WORKLOADS[workload]

    def setup(*args):
        return change(wl.setup(*args))
    monkeypatch.setitem(workloads.WORKLOADS, workload, dataclasses.replace(wl, setup=setup))


@pytest.mark.parametrize("workload, change", [
    ("cdr_ingest", lambda e: dict(e, edges=set(list(e["edges"])[1:]))),
    ("cdr_ingest", lambda e: dict(e, rejected=e["rejected"] + 1)),
    ("stability_sweep", lambda e: dict(e, seeds=e["seeds"] + 1)),
])
def test_a_corrupted_expectation_counts_operations_as_failed(workload, change, monkeypatch, tiny):
    _corrupt(workload, monkeypatch, change)
    res = run.run_workload(workload, 3, 0.5, False)
    assert res["attempted"] >= 1
    assert 0 < res["failed"] <= res["attempted"]
    assert res["problems"]


def test_without_the_package_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect_static", "--seed", "3", "--seconds", "0.5",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- the benchmark's passes write what the matching commtrack subcommand writes ---


def _setup(workload: str, root: Path):
    inp, out = root / "input", root / "pass"
    inp.mkdir()
    out.mkdir()
    size = TINY[workload]
    expect = workloads.WORKLOADS[workload].setup(5, size, inp, {})
    workloads.WORKLOADS[workload].run_pass(inp, out, 5, size, tracing.Tracer(), speed.Probe())
    return inp, out, size, expect


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cdr_ingest_matches_commtrack_ingest(tmp_path):
    inp, out, _, _ = _setup("cdr_ingest", tmp_path)
    cdr = [str(p) for p in sorted(inp.glob("cdr_*.csv"))]
    assert commtrack_main(["ingest", "--cdr", *cdr, "--month", workloads.WINDOW_MONTH, "--span", "3",
                           "--cap", str(workloads.CAP), "-o", str(tmp_path / "cli.tsv")]) == 0
    assert (tmp_path / "cli.tsv").read_bytes() == (out / "social.graph.tsv").read_bytes()


def test_detect_static_matches_commtrack_detect(tmp_path):
    inp, out, size, _ = _setup("detect_static", tmp_path)
    for k in range(size["graphs"]):
        cli_out = tmp_path / f"cli{k}.tsv"
        assert commtrack_main(["detect", "--graph", str(inp / f"g{k}.graph.tsv"), "--seed", "5",
                               "-o", str(cli_out)]) == 0
        assert cli_out.read_bytes() == (out / f"g{k}.partition.tsv").read_bytes()


def test_track_timeline_matches_commtrack_track(tmp_path):
    inp, out, size, _ = _setup("track_timeline", tmp_path)
    cli_dir = tmp_path / "cli_timeline"
    for k in range(size["steps"]):
        stability = ["--p", str(workloads.TRACK_P), "--q", str(workloads.TRACK_Q)] if k else []
        assert commtrack_main(["track", "--timeline", str(cli_dir), "--add",
                               str(inp / f"step_{k}.graph.tsv"), "--seed", "5", *stability]) == 0
    assert _files(cli_dir) == _files(out / "timeline")


def test_stability_sweep_matches_commtrack_sweep(tmp_path):
    inp, out, size, _ = _setup("stability_sweep", tmp_path)

    def rows(path):  # the runtime column is the one column that is not reproducible
        with open(path, newline="", encoding="utf-8") as fh:
            return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in csv.DictReader(fh)]
    for j in range(size["transitions"]):
        cli_out = tmp_path / f"cli{j}.csv"
        assert commtrack_main(["sweep", "--graph-t", str(inp / f"t{j}_step_0.graph.tsv"),
                               "--graph-t1", str(inp / f"t{j}_step_1.graph.tsv"), "--p", "0,25,50,75,100",
                               "--q", "0,50", "--seeds", f"1..{size['seeds']}", "-o", str(cli_out)]) == 0
        assert rows(cli_out) == rows(out / f"sweep_{j}.csv")


def test_a_sweep_that_does_not_split_into_cells_fails_every_cell(tmp_path):
    inp, out, size, expect = _setup("stability_sweep", tmp_path)
    record = workloads.pass_stability_sweep(inp, out, 5, size, tracing.Tracer(), None)
    cells = workloads.WORKLOADS["stability_sweep"].n_ops(size)
    assert workloads.check_stability_sweep(expect, inp, out, record, {}).ok == [True] * cells
    v = workloads.check_stability_sweep(expect, inp, out, dict(record, ops=record["ops"][1:]), {})
    assert v.ok == [False] * cells and v.problems
