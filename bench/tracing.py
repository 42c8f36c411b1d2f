"""Spans around calls into commtrack's public functions, for the traced run.

A span records its name, start, end, parent span and run id, plus counts
taken from the call's arguments and result. Spans stay in memory and are
written out when the pass ends. Nothing inside the package is changed:
``Tracer.install`` replaces each public function named in ``SPAN_NAMES``
wherever a ``commtrack`` module looks it up (for example
``commtrack.louvain.aggregate_by_partition``, which the optimizer calls), so
internal callees get spans of their own. A layer's self time is its spans'
duration minus that of their child spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

# public function -> span name "<layer>.<stem>"; the layer is the package module
SPAN_NAMES = {
    "ingest_pipeline": "ingest.pipeline",
    "aggregate_window": "ingest.aggregate",
    "symmetrize": "ingest.symmetrize",
    "filter_high_degree": "ingest.filter",
    "read_edge_tsv": "graph.read_edge_tsv",
    "write_edge_tsv": "graph.write_edge_tsv",
    "read_partition_tsv": "graph.read_partition_tsv",
    "write_partition_tsv": "graph.write_partition_tsv",
    "aggregate_by_partition": "graph.aggregate",
    "louvain_static": "louvain.static",
    "louvain_dynamic": "louvain.dynamic",
    "from_previous": "louvain.context",
    "renumber_partition": "louvain.renumber",
    "modularity": "louvain.modularity",
    "compare": "metrics.compare",
    "bootstrap": "tracker.bootstrap",
    "step": "tracker.step",
    "save_timeline": "tracker.save",
    "load_timeline": "tracker.load",
    "run_sweep": "cli.run_sweep",
    "write_sweep_csv": "cli.write_sweep_csv",
}
# stages ingest_pipeline fuses; the traced cdr_ingest run calls them one by one
INGEST_STAGES = ("parse", "aggregate", "symmetrize", "filter")

# Every per-layer metric the traced run prints, with its unit. Times and
# counts are per timed pass (mean over the traced passes).
PER_LAYER = {
    "ingest.pipeline_s": "s", "ingest.parse_s": "s", "ingest.aggregate_s": "s",
    "ingest.symmetrize_s": "s", "ingest.filter_s": "s", "ingest.self_s": "s",
    "ingest.lines": "count", "ingest.rejected": "count", "ingest.in_window": "count",
    "ingest.directed_pairs": "count", "ingest.mutual_edges": "count",
    "ingest.hubs_removed": "count", "ingest.edge_yield": "ratio",
    "graph.read_edge_tsv_s": "s", "graph.write_edge_tsv_s": "s",
    "graph.read_partition_tsv_s": "s", "graph.write_partition_tsv_s": "s",
    "graph.aggregate_s": "s", "graph.self_s": "s", "graph.bytes_read": "bytes",
    "graph.bytes_written": "bytes",
    "louvain.static_s": "s", "louvain.dynamic_s": "s", "louvain.context_s": "s",
    "louvain.renumber_s": "s", "louvain.modularity_s": "s", "louvain.self_s": "s",
    "louvain.levels": "count", "louvain.level1_sweeps": "count", "louvain.sweeps": "count",
    "louvain.moves": "count", "louvain.n_fixed": "count", "louvain.n_pref": "count",
    "louvain.node_visits": "count", "louvain.move_ratio": "ratio",
    "metrics.compare_s": "s", "metrics.compare_calls": "count", "metrics.self_s": "s",
    "tracker.bootstrap_s": "s", "tracker.step_s": "s", "tracker.step_self_s": "s",
    "tracker.save_s": "s", "tracker.load_s": "s", "tracker.self_s": "s",
    "tracker.files_written": "count", "tracker.bytes_written": "bytes",
    "tracker.bytes_read": "bytes",
    "cli.run_sweep_s": "s", "cli.sweep_cells": "count", "cli.self_s": "s",
    "synth.generate_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _dir_state(directory) -> Dict[str, tuple]:
    d = Path(directory)
    if not d.is_dir():
        return {}
    return {p.name: (st.st_size, st.st_mtime_ns, st.st_ino) for p in d.iterdir() for st in [p.stat()]}


def _louvain_counts(_state, _args, _kwargs, result) -> dict:
    report = result[1]
    return {
        "levels": len(report.levels),
        "level1_sweeps": report.levels[0].sweeps if report.levels else 0,
        "sweeps": sum(s.sweeps for s in report.levels),
        "moves": sum(s.moves for s in report.levels),
        "n_fixed": report.n_fixed,
        "n_pref": report.n_pref,
        # computed from RunReport: every sweep visits every node of its level
        "node_visits": sum(s.sweeps * s.n_nodes for s in report.levels),
    }


def _ingest_counts(_state, _args, _kwargs, result) -> dict:
    report = result[1]
    return {
        "lines": report.rejections.n_lines,
        "rejected": report.rejections.n_rejected,
        "in_window": report.n_in_window,
        "directed_pairs": report.n_directed_pairs,
        "mutual_edges": report.filter.n_edges_before,
        "hubs_removed": report.filter.n_removed,
    }


def _save_counts(before, args, kwargs, _result) -> dict:
    """Files the save created or modified, and their sizes."""
    after = _dir_state(_arg(args, kwargs, 1, "directory"))
    changed = [name for name, state in after.items() if before.get(name) != state]
    return {"files_written": len(changed), "bytes_written": sum(after[n][0] for n in changed)}


def _load_counts(_state, args, kwargs, _result) -> dict:
    """Timeline metadata read by the load; its graph and partition reads are
    counted by their own spans."""
    d = Path(_arg(args, kwargs, 0, "directory"))
    return {"bytes_read": _size(d / "meta.json") + _size(d / "history.jsonl")}


# function name -> (before(args, kwargs) -> state, after(state, args, kwargs, result) -> counts)
_HOOKS = {
    "read_edge_tsv": (None, lambda s, a, k, r: {"bytes_read": _size(_arg(a, k, 0, "path"))}),
    "read_partition_tsv": (None, lambda s, a, k, r: {"bytes_read": _size(_arg(a, k, 0, "path"))}),
    "write_edge_tsv": (None, lambda s, a, k, r: {"bytes_written": _size(_arg(a, k, 1, "path"))}),
    "write_partition_tsv": (None, lambda s, a, k, r: {"bytes_written": _size(_arg(a, k, 1, "path"))}),
    "louvain_static": (None, _louvain_counts),
    "louvain_dynamic": (None, _louvain_counts),
    "ingest_pipeline": (None, _ingest_counts),
    "run_sweep": (None, lambda s, a, k, r: {"sweep_cells": len(r)}),
    "save_timeline": (lambda a, k: _dir_state(_arg(a, k, 1, "directory")), _save_counts),
    "load_timeline": (None, _load_counts),
}


class Tracer:
    """Collects spans in memory. Until ``install`` is called it records only
    the spans the benchmark opens itself."""

    def __init__(self):
        self.spans: List[dict] = []
        self.run_id = ""
        self._stack: List[int] = []
        self._paused = 0

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield None
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Bookkeeping between timed operations records no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name: str):
        before, after = _HOOKS.get(fn.__name__, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after:
                rec["counts"].update(after(state, args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap the package's public functions for the rest of this process
        (a pass process, which exits after its passes)."""
        from commtrack import DynamicContext

        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "commtrack" and not modname.startswith("commtrack."):
                continue
            for attr, name in SPAN_NAMES.items():
                fn = mod.__dict__.get(attr)
                if callable(fn) and getattr(fn, "__name__", None) == attr:
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(fn, name)
                    setattr(mod, attr, wrappers[fn])
        original = DynamicContext.__dict__["from_previous"]
        DynamicContext.from_previous = classmethod(self._wrap(original.__func__, SPAN_NAMES["from_previous"]))


def summarize(spans: List[dict], scales: Dict[str, float], traced: List[dict], untraced: List[dict],
              generate_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced passes (run ids
    ``pass*``) and of the ingest stage decomposition (``decompose``), and
    the pass records of both phases. Times are scaled to nominal machine
    speed by their run's ``scales`` entry; times and counts are per pass:
    totals over the traced passes divided by their number."""
    dur = [(s["end"] - s["start"]) * scales[s["run"]] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]

    total, staged = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        layer, stem = s["name"].split(".", 1)
        if s["run"] == "decompose":
            if layer == "ingest" and stem in INGEST_STAGES:
                staged[f"ingest.{stem}_s"] += dur[i]
            continue
        total[f"{layer}.self_s"] += dur[i] - child[i]
        if layer != "ingest" or stem == "pipeline":
            total[f"{s['name']}_s"] += dur[i]
        if s["name"] == "tracker.step":
            total["tracker.step_self_s"] += dur[i] - child[i]
        if s["name"] == "metrics.compare":
            total["metrics.compare_calls"] += 1
        if s["parent"] is None:
            total["covered_s"] += dur[i]
        for c, value in s["counts"].items():
            total[f"{layer}.{c}"] += value
        if layer == "graph" and _inside(spans, i, "tracker.load"):
            total["tracker.bytes_read"] += s["counts"].get("bytes_read", 0)

    traced_walls = [r["wall_s"] * r["scale"] for r in traced]
    n = max(1, len(traced_walls))
    out = {name: total[name] / n for name in PER_LAYER}
    out.update(staged)
    out["ingest.edge_yield"] = _ratio(total["ingest.mutual_edges"], total["ingest.directed_pairs"])
    out["louvain.move_ratio"] = _ratio(total["louvain.moves"], total["louvain.node_visits"])
    out["synth.generate_s"] = generate_s
    out["trace.wall_s"] = sum(traced_walls) / n
    out["trace.coverage"] = _ratio(total["covered_s"], sum(traced_walls))
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(r["wall_s"] * r["scale"] for r in untraced))
    return out


def _inside(spans: List[dict], i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def self_time_table(spans: List[dict], scales: Dict[str, float]) -> List[tuple]:
    """(span name, calls per pass, inclusive s per pass, self s per pass) for
    the timed passes, largest self time first."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += (s["end"] - s["start"]) * scales[s["run"]]
    rows: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    n_passes = len({s["run"] for s in spans if s["run"].startswith("pass")})
    for i, s in enumerate(spans):
        if not s["run"].startswith("pass"):
            continue
        d = (s["end"] - s["start"]) * scales[s["run"]]
        row = rows[s["name"]]
        row[0] += 1
        row[1] += d
        row[2] += d - children[i]
    n = max(1, n_passes)
    table = [(name, r[0] / n, r[1] / n, r[2] / n) for name, r in rows.items()]
    return sorted(table, key=lambda r: -r[3])

