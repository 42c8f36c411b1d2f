"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload has three parts:

* ``setup_*`` turns the workload seed into input files (it calls
  ``commtrack.synth.generate`` and the TSV writers, so its cost is ``setup_s``)
  and returns what the checks need to know about those inputs;
* ``pass_*`` is one timed pass. It calls the package's public functions in
  the order the matching ``commtrack`` subcommand calls them, files in and
  files out, and returns one record per operation (its start and
  milliseconds; "other" lists timed stretches that are not operations).
  Between operations, and
  outside their timing, it samples the machine speed ``probe`` (None in
  traced runs);
* ``check_*`` judges every operation of a finished pass from its output
  files and records, and returns one verdict per operation plus the quality
  numbers of the pass.

Functions are looked up as module attributes at call time (``graph.read_edge_tsv``
rather than an imported name) so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import inspect
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import commtrack
from commtrack import cli, graph, ingest, louvain, metrics, synth, tracker

# --- shared parameters -----------------------------------------------------------

MONTHS = ("2012-01", "2012-02", "2012-03", "2012-04")  # 2012-01 is outside the window
WINDOW_MONTH = "2012-04"
SPAN_MONTHS = 3
CAP = 200
TRACK_P, TRACK_Q, TRACK_R = 0.5, 0.25, 0.51
SWEEP_P = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_Q = (0.0, 0.5)
P_IN = 0.12
INTER_DEGREE = 4.0  # expected cross-community neighbours per node in planted graphs

# Workload sizes the benchmark measures.
SIZES = {
    "cdr_ingest": {"nodes": 7_000, "hubs": 30},
    "detect_static": {"graphs": 10, "nodes": 4_000},
    "track_timeline": {"nodes": 4_000, "steps": 7},
    "stability_sweep": {"nodes": 2000, "communities": 50, "seeds": 5, "transitions": 2},
}


def planted_spec(nodes: int, seed: int, steps: int = 1, churn: float = 0.0,
                 migrate: float = 0.0) -> synth.SynthSpec:
    """Planted partition with communities of 100 nodes (or fewer on tiny graphs)."""
    communities = max(2, nodes // 100)
    size = nodes / communities
    return synth.SynthSpec(
        n_nodes=nodes, n_communities=communities, p_in=P_IN,
        p_out=INTER_DEGREE / (nodes - size), churn_rate=churn, migrate_rate=migrate,
        steps=steps, seed=seed,
    )


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def timed_generate(spec: synth.SynthSpec, clock: Dict[str, float]):
    t0 = time.perf_counter()
    out = synth.generate(spec)
    clock["generate_s"] = clock.get("generate_s", 0.0) + time.perf_counter() - t0
    return out


@dataclass
class Verdicts:
    """Per-operation check results of one pass and the quality numbers it yields."""

    ok: List[bool] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)

    def add(self, ok: bool, problem: str) -> None:
        self.ok.append(bool(ok))
        if not ok:
            self.problems.append(problem)


# --- cdr_ingest ----------------------------------------------------------------------
# Four monthly CDR files drawn from a planted graph. Per undirected planted
# edge: 70% both directions inside the window, 20% one way only, 10% both
# directions but only in 2012-01 (outside the window). A few dozen hub ids
# talk both ways with more than CAP distinct nodes, so the cap removes them.
# Every timestamp is distinct to the second, and 0.5% of lines are malformed.

_BAD_LINES = (
    lambda a, b, ts: f"{a},{b},{ts}",                          # field_count
    lambda a, b, ts: f"{a},{b},2012-13-45T25:61:00,call,12",   # bad_timestamp
    lambda a, b, ts: f"{a},{b},{ts},fax,3",                    # bad_kind
    lambda a, b, ts: f"{a},{b},{ts},call,-7",                  # bad_duration
    lambda a, b, ts: f"{a},{a},{ts},call,30",                  # self_record
    lambda a, b, ts: f"{a},{b},{ts},sms,9",                    # sms_nonzero_duration
    lambda a, b, ts: f",{b},{ts},sms,0",                       # empty_id
)


def setup_cdr_ingest(seed: int, size: dict, inp: Path, clock: Dict[str, float]) -> dict:
    (g, _planted), = timed_generate(planted_spec(size["nodes"], seed), clock)
    rng = np.random.default_rng(sub_seed(seed, 1))
    ids = list(g.ids.ids)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    keep = rows < g.nbr
    u, v = rows[keep], g.nbr[keep]
    kind = rng.choice(3, size=len(u), p=[0.7, 0.2, 0.1])  # 0 mutual, 1 one-way, 2 outside window

    hub_u, hub_v = [], []
    for h in range(size["hubs"]):
        ids.append(f"h{h}")
        contacts = rng.choice(g.n, size=int(rng.integers(CAP + 1, CAP + 121)), replace=False)
        hub_u.append(np.full(len(contacts), len(ids) - 1))
        hub_v.append(contacts)
    if hub_u:
        u = np.concatenate([u] + hub_u)
        v = np.concatenate([v] + hub_v)
        kind = np.concatenate([kind] + [np.zeros(len(x), dtype=kind.dtype) for x in hub_u])

    # directed pairs: mutual kinds emit both directions, one-way a random one
    flip = rng.random(len(u)) < 0.5
    one_way = kind == 1
    src = np.concatenate([np.where(one_way & flip, v, u), v[~one_way]])
    dst = np.concatenate([np.where(one_way & flip, u, v), u[~one_way]])
    pair_kind = np.concatenate([kind, kind[~one_way]])
    # records per directed pair: the first in a window month (2012-01 for the
    # outside-window kind), extras anywhere except that the outside kind stays out
    n_rec = 1 + rng.poisson(0.3, size=len(src))
    rec_pair = np.repeat(np.arange(len(src)), n_rec)
    first = np.ones(len(rec_pair), dtype=bool)
    first[1:] = rec_pair[1:] != rec_pair[:-1]
    rec_kind = pair_kind[rec_pair]
    month = np.where(first, rng.integers(1, 4, size=len(rec_pair)), rng.integers(0, 4, size=len(rec_pair)))
    month = np.where(rec_kind == 2, 0, month)
    is_call = rng.random(len(rec_pair)) < 0.6
    duration = np.where(is_call, rng.integers(1, 3600, size=len(rec_pair)), 0)

    n_bad = round(0.005 * len(rec_pair))
    bad_month = rng.integers(0, 4, size=n_bad)
    n_lines = 0
    for m, label in enumerate(MONTHS):
        sel = np.nonzero(month == m)[0]
        sel = sel[rng.permutation(len(sel))]
        bad_here = int(np.sum(bad_month == m))
        start = np.datetime64(label, "M").astype("datetime64[s]")
        seconds = int(((np.datetime64(label, "M") + 1).astype("datetime64[s]") - start).astype(np.int64))
        offsets = np.sort(rng.choice(seconds, size=len(sel) + bad_here, replace=False))
        stamps = np.datetime_as_string(start + offsets.astype("timedelta64[s]"), unit="s").tolist()
        lines = [
            f"{ids[a]},{ids[b]},{ts},{'call' if c else 'sms'},{d}"
            for a, b, ts, c, d in zip(src[rec_pair[sel]].tolist(), dst[rec_pair[sel]].tolist(),
                                      stamps[:len(sel)], is_call[sel].tolist(), duration[sel].tolist())
        ]
        for j in range(bad_here):
            a, b = rng.integers(0, g.n, size=2).tolist()
            if a == b:
                b = (b + 1) % g.n
            pos = int(rng.integers(0, len(lines) + 1))
            lines.insert(pos, _BAD_LINES[j % len(_BAD_LINES)](ids[a], ids[b], stamps[len(sel) + j]))
        with open(inp / f"cdr_{label}.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        n_lines += len(lines)

    # what ingest must produce: mutual in-window pairs, then the one-pass cap
    mutual = kind == 0
    mu, mv = u[mutual], v[mutual]
    degree = np.bincount(np.concatenate([mu, mv]), minlength=len(ids))
    hub = degree > CAP
    nodes = set(np.nonzero(degree > 0)[0].tolist()) - set(np.nonzero(hub)[0].tolist())
    kept = ~hub[mu] & ~hub[mv]
    edges = {tuple(sorted((ids[a], ids[b]))) for a, b in zip(mu[kept].tolist(), mv[kept].tolist())}
    return {
        "lines": n_lines,
        "rejected": n_bad,
        "hubs": int(hub.sum()),
        "nodes": {ids[i] for i in nodes},
        "edges": edges,
    }


def _cdr_lines(inp: Path):
    """The monthly files chained into one stream, as `commtrack ingest --cdr` reads them."""
    for name in sorted(inp.glob("cdr_*.csv")):
        with open(name, "r", encoding="utf-8") as fh:
            yield from fh


def pass_cdr_ingest(inp: Path, out: Path, seed: int, size: dict, tracer, probe) -> dict:
    t0 = time.perf_counter()
    g, report = ingest.ingest_pipeline(
        _cdr_lines(inp), ingest.WindowSpec.from_label(WINDOW_MONTH, span_months=SPAN_MONTHS),
        cap=CAP, weight_mode="unit", max_rejected_fraction=1.0,
    )
    graph.write_edge_tsv(g, out / "social.graph.tsv")
    wall = time.perf_counter() - t0
    rej = report.rejections
    return {
        "wall_s": wall,
        "units": rej.n_lines,
        "ops": [{"start": t0, "ms": wall * 1000.0, "lines": rej.n_lines, "rejected": rej.n_rejected,
                 "hubs_removed": report.filter.n_removed}],
    }


def decompose_cdr_ingest(inp: Path, tracer) -> None:
    """The stages ``ingest_pipeline`` fuses, called one by one on the same input
    (traced run only, outside the timed pass)."""
    window = ingest.WindowSpec.from_label(WINDOW_MONTH, span_months=SPAN_MONTHS)
    with tracer.span("ingest.parse"):
        records = list(ingest.iter_parse_cdr(_cdr_lines(inp), ingest.RejectionReport()))
    counts = ingest.aggregate_window(records, window)
    del records
    g = ingest.symmetrize(counts, "unit")
    del counts
    ingest.filter_high_degree(g, CAP)


def read_edge_file(path: Path):
    """The edge set and node set of an edge TSV, read without the package."""
    edges, nodes, weights = set(), set(), set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 1:
                nodes.add(parts[0])
                continue
            edges.add(tuple(sorted(parts[:2])))
            nodes.update(parts[:2])
            weights.add(parts[2] if len(parts) > 2 else "1")
    return edges, nodes, weights


def check_cdr_ingest(expect: dict, inp: Path, out: Path, record: dict, cache: dict) -> Verdicts:
    v = Verdicts()
    op = record["ops"][0]
    edges, nodes, weights = read_edge_file(out / "social.graph.tsv")
    got = (edges, nodes, weights <= {"1"}, op["lines"], op["rejected"], op["hubs_removed"])
    want = (expect["edges"], expect["nodes"], True, expect["lines"], expect["rejected"], expect["hubs"])
    v.add(got == want, f"ingest output differs from the generator's expectation: "
          f"{len(edges ^ expect['edges'])} edges, {len(nodes ^ expect['nodes'])} nodes, "
          f"counts (lines, rejected, hubs) {got[3:]} vs {want[3:]}")
    return v


# --- detect_static ---------------------------------------------------------------------
# Several planted graphs per pass, each run through `commtrack detect` without
# a previous partition. Level-1 sweep counts differ from graph to graph; a
# few graphs per pass keep that difference from dominating a seed's figure.


def setup_detect_static(seed: int, size: dict, inp: Path, clock: Dict[str, float]) -> dict:
    for k in range(size["graphs"]):
        (g, planted), = timed_generate(planted_spec(size["nodes"], sub_seed(seed, k)), clock)
        graph.write_edge_tsv(g, inp / f"g{k}.graph.tsv")
        graph.write_partition_tsv(planted, inp / f"g{k}.planted.tsv")
    return {"graphs": size["graphs"]}


def pass_detect_static(inp: Path, out: Path, seed: int, size: dict, tracer, probe) -> dict:
    ops, units, wall = [], 0, 0.0
    for k in range(len(list(inp.glob("g*.graph.tsv")))):
        t0 = time.perf_counter()
        g = graph.read_edge_tsv(inp / f"g{k}.graph.tsv")
        part, report = louvain.louvain_static(g, louvain.LouvainConfig(rng_seed=seed, node_order="index"))
        part = louvain.renumber_partition(part)
        graph.write_partition_tsv(part, out / f"g{k}.partition.tsv")
        dt = time.perf_counter() - t0
        wall += dt
        units += g.n_edges
        ops.append({"start": t0, "ms": dt * 1000.0, "final_q": report.final_q})
        if probe:
            probe.sample(2)
    return {"wall_s": wall, "units": units, "ops": ops}


def check_detect_static(expect: dict, inp: Path, out: Path, record: dict, graphs: dict) -> Verdicts:
    """``graphs`` caches each input graph and its planted partition across passes."""
    v = Verdicts()
    qs, nmis = [], []
    for k, op in enumerate(record["ops"]):
        if k not in graphs:
            g = graph.read_edge_tsv(inp / f"g{k}.graph.tsv")
            graphs[k] = (g, graph.read_partition_tsv(inp / f"g{k}.planted.tsv", graph=g))
        g, planted = graphs[k]
        try:
            part = graph.read_partition_tsv(out / f"g{k}.partition.tsv", graph=g)
        except commtrack.InputError as exc:
            v.add(False, f"graph {k}: partition does not cover the graph: {exc}")
            continue
        q = louvain.modularity(g, part)
        v.add(math.isfinite(q) and abs(q - op["final_q"]) <= 1e-9,
              f"graph {k}: recomputed Q {q!r} != reported {op['final_q']!r}")
        qs.append(q)
        nmis.append(metrics.compare(planted, part).normalized_mi())
    v.quality = {"modularity": float(np.mean(qs)) if qs else math.nan,
                 "nmi_planted": float(np.mean(nmis)) if nmis else math.nan}
    return v


# --- track_timeline ----------------------------------------------------------------
# One `commtrack track --add` per month on a drifting sequence. Every call
# reloads and rewrites the whole timeline directory, so persistence grows with
# the step count while the pinned, seeded Louvain run stays cheap.


def setup_track_timeline(seed: int, size: dict, inp: Path, clock: Dict[str, float]) -> dict:
    spec = planted_spec(size["nodes"], seed, steps=size["steps"], churn=0.05, migrate=0.03)
    for k, (g, planted) in enumerate(timed_generate(spec, clock)):
        graph.write_edge_tsv(g, inp / f"step_{k}.graph.tsv")
        graph.write_partition_tsv(planted, inp / f"step_{k}.planted.tsv")
    return {"steps": size["steps"]}


def pass_track_timeline(inp: Path, out: Path, seed: int, size: dict, tracer, probe) -> dict:
    d = out / "timeline"
    ops, units, wall = [], 0, 0.0
    prev = None
    for k in range(len(list(inp.glob("step_*.graph.tsv")))):
        t0 = time.perf_counter()
        g = graph.read_edge_tsv(inp / f"step_{k}.graph.tsv")
        if (d / "meta.json").exists():
            tl = tracker.load_timeline(d)
            idx = len(tl.steps)
            step_seed = tracker.derive_step_seed(seed, idx)
            tracker.step(tl, g, TRACK_P, TRACK_Q, step_seed,
                         louvain.LouvainConfig(rng_seed=step_seed), metrics.MatchConfig(TRACK_R))
        else:
            tl = tracker.bootstrap(g, louvain.LouvainConfig(rng_seed=tracker.derive_step_seed(seed, 0)))
        tracker.save_timeline(tl, d)
        dt = time.perf_counter() - t0
        wall += dt
        units += g.n_edges
        with tracer.paused():
            ops.append(_track_op_record(t0, dt, k, tl, prev))
        prev = tl.last.partition
        if probe:
            probe.sample(2)
    # the last append is reloaded here; earlier ones by the append after them
    with tracer.paused():
        reloaded = tracker.load_timeline(d)
    ops[-1]["reload_ok"] &= assignment(reloaded.last.partition) == assignment(prev)
    return {"wall_s": wall, "units": units, "ops": ops}


def assignment(part) -> dict:
    """Node id -> label; files may list the nodes of a partition in another order."""
    return dict(zip(part.ids.ids, part.labels.tolist()))


def _track_op_record(t0: float, dt: float, k: int, tl, prev) -> dict:
    """What the checks need from one append, taken from the in-memory timeline."""
    op = {"start": t0, "ms": dt * 1000.0, "n_steps": len(tl.steps), "n_history": len(tl.history),
          "reload_ok": True, "pins_kept": True, "n_pinned": 0}
    if k == 0:
        return op
    before, after = tl.steps[-2].partition, tl.last.partition
    op["reload_ok"] = assignment(before) == assignment(prev)
    pinned = tl.events[-1].fixed_ids
    op["n_pinned"] = len(pinned)
    op["pins_kept"] = all(after.label_of(x) == before.label_of(x) for x in pinned)
    report = tl.history[-1]
    op["modularity"] = report.modularity_next
    op["stability_nmi"] = report.normalized_mi()
    op["matched_frac"] = report.n_matching / report.n_communities_b
    return op


def check_track_timeline(expect: dict, inp: Path, out: Path, record: dict, cache: dict) -> Verdicts:
    v = Verdicts()
    for k, op in enumerate(record["ops"]):
        v.add(op["n_steps"] == k + 1 and op["n_history"] == k and op["reload_ok"] and op["pins_kept"],
              f"append {k}: steps {op['n_steps']}, history {op['n_history']}, "
              f"reload_ok {op['reload_ok']}, pins_kept {op['pins_kept']}")
    tl = tracker.load_timeline(out / "timeline")
    nmis = []
    for k, st in enumerate(tl.steps):
        planted = graph.read_partition_tsv(inp / f"step_{k}.planted.tsv")
        nmis.append(metrics.compare(planted, st.partition).normalized_mi())
    later = record["ops"][1:]
    v.quality = {
        "modularity": float(np.mean([op["modularity"] for op in later])) if later else math.nan,
        "nmi_planted": float(np.mean(nmis)),
        "stability_nmi": float(np.mean([op["stability_nmi"] for op in later])) if later else math.nan,
        "matched_frac": float(np.mean([op["matched_frac"] for op in later])) if later else math.nan,
    }
    return v


# --- stability_sweep -------------------------------------------------------------------
# The paper's stability experiment (acceptance criteria 07-09): drifting
# transitions of a 2000-node graph, every (p, q) cell for several Louvain
# seeds, one `commtrack sweep` per transition. Small graphs, so fixed per-call
# costs dominate each cell. The baseline detections' cost differs from graph
# to graph; two transitions per pass keep that from dominating a seed's figure.


def setup_stability_sweep(seed: int, size: dict, inp: Path, clock: Dict[str, float]) -> dict:
    for j in range(size["transitions"]):
        spec = synth.SynthSpec(n_nodes=size["nodes"], n_communities=size["communities"], p_in=0.2,
                               p_out=0.005, churn_rate=0.1, migrate_rate=0.05, steps=2,
                               seed=sub_seed(seed, j))
        for k, (g, _planted) in enumerate(timed_generate(spec, clock)):
            graph.write_edge_tsv(g, inp / f"t{j}_step_{k}.graph.tsv")
    return {"seeds": size["seeds"], "transitions": size["transitions"]}


def sweep_spec(n_seeds: int):
    return commtrack.SweepSpec(p_values=SWEEP_P, q_values=SWEEP_Q, seeds=list(range(1, n_seeds + 1)))


class _ReturnMarks:
    """Notes when chosen functions return inside the module that defines
    ``run_sweep``, so one sweep splits into per-cell times. In a cell,
    ``compare`` is the last call; the baselines end with ``renumber_partition``.
    After every ``PROBE_EVERY``-th mark it samples the speed probe and notes
    how long that took, so the time can be taken out of the pass's."""

    PROBE_EVERY = 4

    def __init__(self, namespace: dict, names, probe):
        self.ns, self.names, self.probe = namespace, names, probe
        self.marks, self.saved = [], {}

    def __enter__(self):
        for name in self.names:
            fn = self.saved[name] = self.ns[name]
            self.ns[name] = self._marking(name, fn)
        return self

    def _marking(self, name: str, fn: Callable):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            t = time.perf_counter()
            probed = 0.0
            if self.probe and (len(self.marks) + 1) % self.PROBE_EVERY == 0:
                probed = self.probe.sample(2)
            self.marks.append((name, t, result, probed))
            return result
        return marked

    def __exit__(self, *exc):
        self.ns.update(self.saved)


def pass_stability_sweep(inp: Path, out: Path, seed: int, size: dict, tracer, probe) -> dict:
    spec = sweep_spec(size["seeds"])
    namespace = inspect.unwrap(commtrack.run_sweep).__globals__
    with _ReturnMarks(namespace, ("renumber_partition", "compare"), probe) as rm:
        t0 = time.perf_counter()
        rows = 0
        for j in range(size["transitions"]):
            g_t = graph.read_edge_tsv(inp / f"t{j}_step_0.graph.tsv")
            g_t1 = graph.read_edge_tsv(inp / f"t{j}_step_1.graph.tsv")
            results = commtrack.run_sweep(g_t, g_t1, spec, louvain.LouvainConfig(node_order="index"))
            with open(out / f"sweep_{j}.csv", "w", encoding="utf-8", newline="") as fh:
                cli.write_sweep_csv(results, fh)
            rows += len(results)
        wall = time.perf_counter() - t0 - sum(m[3] for m in rm.marks)
    ops, baselines, last = [], [], t0
    for name, t, result, probed in rm.marks:
        if name == "compare":
            ops.append({"start": last, "ms": (t - last) * 1000.0, "nmi": result.normalized_mi(),
                        "matched_frac": result.n_matching / result.n_communities_b})
        else:  # reading the graphs and the baseline detections, timed like operations
            baselines.append({"start": last, "ms": (t - last) * 1000.0})
        last = t + probed
    return {"wall_s": wall, "units": rows, "ops": ops, "other": baselines}


def check_stability_sweep(expect: dict, inp: Path, out: Path, record: dict, cache: dict) -> Verdicts:
    v = Verdicts()
    sweeps = []
    for j in range(expect["transitions"]):
        with open(out / f"sweep_{j}.csv", "r", encoding="utf-8", newline="") as fh:
            sweeps.append(list(csv.DictReader(fh)))
    rows = [r for sweep in sweeps for r in sweep]
    grid = [(p, q, s) for p in SWEEP_P for q in SWEEP_Q for s in range(1, expect["seeds"] + 1)]
    # each cell's time and comparison come from splitting the sweeps at their
    # ``compare`` calls; a split that does not give one per cell fails them all
    split_ok = len(record["ops"]) == len(grid) * len(sweeps)
    if not split_ok:
        v.problems.append(f"the sweeps split into {len(record['ops'])} timed cells, "
                          f"not {len(grid) * len(sweeps)}")
    mi_at = {0.0: [], 1.0: []}
    for r in rows:
        mi_at.get(float(r["p_pct"]) / 100.0, []).append(float(r["mi_nats"]))
    trend_ok = bool(mi_at[0.0]) and bool(mi_at[1.0]) and np.mean(mi_at[1.0]) > np.mean(mi_at[0.0])
    if not trend_ok:
        v.problems.append(f"mean MI at p=1 {mi_at[1.0] and np.mean(mi_at[1.0])} is not above "
                          f"p=0 {mi_at[0.0] and np.mean(mi_at[0.0])}")
    for j, sweep in enumerate(sweeps):
        for i, cell in enumerate(grid):
            r = sweep[i] if i < len(sweep) else None
            ok = (trend_ok and split_ok and r is not None and len(sweep) == len(grid)
                  and (float(r["p_pct"]) / 100.0, float(r["q_pct"]) / 100.0, int(r["seed"])) == cell
                  and all(math.isfinite(float(r[c])) for c in ("mi_nats", "modularity")))
            v.add(ok, f"transition {j} cell {i}: row {r} is not the finite row of grid cell {cell}")
    v.quality = {
        "modularity": float(np.mean([float(r["modularity"]) for r in rows])) if rows else math.nan,
        "stability_nmi": float(np.mean([op["nmi"] for op in record["ops"]])) if record["ops"] else math.nan,
        "matched_frac": float(np.mean([op["matched_frac"] for op in record["ops"]])) if record["ops"] else math.nan,
        "mi_p0": float(np.mean(mi_at[0.0])) if mi_at[0.0] else math.nan,
        "mi_p1": float(np.mean(mi_at[1.0])) if mi_at[1.0] else math.nan,
    }
    return v


# --- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what work_per_s counts
    op: str  # what one operation is
    setup: Callable
    run_pass: Callable
    check: Callable
    n_ops: Callable[[dict], int]  # operations per pass, from the workload size
    decompose: Optional[Callable] = None  # extra traced calls outside the timed pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cdr_ingest", "streamed CDR parse, window, mutual-edge rule and degree cap on "
                 "distinct timestamps; Louvain does no work", "CDR lines", "one ingest run",
                 setup_cdr_ingest, pass_cdr_ingest, check_cdr_ingest, lambda size: 1,
                 decompose_cdr_ingest),
        Workload("detect_static", "cold Louvain on planted graphs: the level-1 move loop "
                 "dominates; no ingest, no tracker", "graph edges", "one detect run",
                 setup_detect_static, pass_detect_static, check_detect_static,
                 lambda size: size["graphs"]),
        Workload("track_timeline", "monthly track --add: timeline load and save grow with the "
                 "step count while pinned Louvain stays cheap", "step edges", "one append",
                 setup_track_timeline, pass_track_timeline, check_track_timeline,
                 lambda size: size["steps"]),
        Workload("stability_sweep", "the paper's p x q sweep on two 2000-node transitions: fixed "
                 "per-call costs dominate, 100 cells per pass", "sweep cells", "one sweep cell",
                 setup_stability_sweep, pass_stability_sweep, check_stability_sweep,
                 lambda size: len(SWEEP_P) * len(SWEEP_Q) * size["seeds"] * size["transitions"]),
    )
}
