"""Acceptance gate: the thirteen product-level criteria.

Each test prints exactly one verdict line, so a bare ``pytest -s`` run reads
as a checklist. Exact-equivalence criteria run against the independent
oracles in oracles.py; trend criteria run the full stability sweep on a
drifting synthetic pair at the stated configuration.
"""

import csv
import os
import random
import tempfile
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import commtrack.louvain as louvain
from commtrack.cli import SweepSpec, main, run_sweep
from commtrack.graph import Partition, build_graph, read_edge_tsv
from commtrack.ingest import WindowSpec, filter_high_degree, ingest_pipeline, symmetrize
from commtrack.louvain import (
    DynamicContext,
    LouvainConfig,
    louvain_dynamic,
    louvain_static,
    modularity,
    renumber_partition,
)
from commtrack.metrics import MatchConfig, compare
from commtrack.synth import SynthSpec, generate

from oracles import (
    edge_list,
    oracle_entropy,
    oracle_modularity,
    oracle_mutual_information,
    oracle_sweep,
    random_graph,
    random_labels,
    sweep_backends,
)


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def _drift_pair(seed: int, n=120, k=6, p_in=0.35, p_out=0.02):
    spec = SynthSpec(n_nodes=n, n_communities=k, p_in=p_in, p_out=p_out,
                     churn_rate=0.1, migrate_rate=0.1, steps=2, seed=seed)
    (g0, _), (g1, _) = generate(spec)
    return g0, g1


# --- 1..3: oracle equivalence ---------------------------------------------------


def test_criterion_01_modularity_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, edges = random_graph(rng, max_nodes=12, max_edges=50)
        g = build_graph(edges, nodes=range(n))
        labels = random_labels(rng, n)
        got = modularity(g, Partition(g.ids, np.asarray(labels)))
        want = oracle_modularity(n, edges, labels)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(1, "modularity matches brute-force oracle on 200 random graphs",
             ok, f"max |dQ|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gain_oracle_equivalence(monkeypatch):
    # one production level-1 sweep (``_one_level``, which the optimizer runs at
    # every level) replayed decision by decision against brute-force gains, on
    # every sweep backend
    ok = True
    details = []
    for name, sweep in sweep_backends().items():
        monkeypatch.setattr(louvain, "_sweep", sweep)
        rng = np.random.default_rng(202)
        cfg = LouvainConfig(max_passes_per_level=1)
        worst = 0.0
        wrong = n_moves = n_stays = done = 0
        while done < 500:
            n, edges = random_graph(rng, max_nodes=10, max_edges=30)
            if n < 2:
                continue
            g = build_graph(edges, nodes=range(n))
            labels = random_labels(rng, n)
            movable = (rng.random(n) >= 0.2).tolist()
            start = louvain._level_start(g, np.asarray(labels, dtype=np.int64), ())
            uniq, dense, stats = louvain._one_level(g, start, movable, [False] * n, cfg, random.Random(0), 1)
            keys = uniq[dense]
            want, moves, _ = oracle_sweep(n, edges, labels, movable, range(n), louvain.MIN_GAIN)
            wrong += keys.tolist() != want
            q_after = stats.sweep_q[0] if stats.sweep_q else stats.q_start
            worst = max(worst, abs(q_after - stats.q_start - sum(m[2] for m in moves)))
            n_moves += len(moves)
            n_stays += sum(movable) - len(moves)
            done += 1
        ok = ok and wrong == 0 and worst <= 1e-12
        details.append(f"{name} sweep: {wrong} sweeps differ, {n_moves} moves, {n_stays} stays, "
                       f"max |dQ|={worst:.2e}")
    _verdict(2, "every level-1 move decision matches brute-force gains on 500 cases",
             ok, "; ".join(details))


def test_criterion_03_mutual_information_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    worst_self = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 101))
        la = rng.integers(0, max(2, n // 3), size=n).tolist()
        lb = rng.integers(0, max(2, n // 4), size=n).tolist()
        ids = list(range(n))
        a = Partition(build_graph([], nodes=ids).ids, np.asarray(la))
        b = Partition(build_graph([], nodes=ids).ids, np.asarray(lb))
        worst = max(worst, abs(compare(a, b).mi_nats - oracle_mutual_information(la, lb)))
        worst_self = max(worst_self, abs(compare(a, a).mi_nats - oracle_entropy(la)))
    ok = worst <= 1e-12 and worst_self <= 1e-12
    _verdict(3, "mutual information matches contingency oracle on 200 pairs",
             ok, f"max |dMI|={worst:.2e}, max |MI(a,a)-H(a)|={worst_self:.2e}")


# --- 4..6: optimizer guarantees ---------------------------------------------------


def test_criterion_04_fixed_nodes_never_move():
    violations = 0
    runs = 0
    for i in range(100):
        p = (0.25, 0.5, 0.75, 1.0)[i % 4]
        g0, g1 = _drift_pair(seed=1000 + i, n=80 + (i % 3) * 30)
        prev = renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=i))[0])
        ctx = DynamicContext.from_previous(prev, g1, p, 0.0, seed=i)
        part, _ = louvain_dynamic(g1, ctx, LouvainConfig(rng_seed=i))
        for idx in ctx.fixed.tolist():
            ext = g1.ids.ids[int(idx)]
            if part.label_of(ext) != prev.label_of(ext):
                violations += 1
        runs += 1
    ok = violations == 0 and runs == 100
    _verdict(4, "pinned nodes keep their previous label in 100 randomized runs",
             ok, f"{violations} violations")


def test_criterion_05_baseline_identity_p0_q0():
    mismatches = 0
    for i in range(50):
        g0, g1 = _drift_pair(seed=2000 + i, n=70 + (i % 4) * 20)
        cfg = LouvainConfig(rng_seed=i, node_order="shuffled" if i % 2 else "index")
        prev = renumber_partition(louvain_static(g0, cfg)[0])
        ctx = DynamicContext.from_previous(prev, g1, 0.0, 0.0, seed=i)
        dyn, _ = louvain_dynamic(g1, ctx, cfg)
        sta, _ = louvain_static(g1, cfg, init=Partition(g1.ids, ctx.init_labels))
        if dyn != sta:
            mismatches += 1
    ok = mismatches == 0
    _verdict(5, "p=0,q=0 identical to seeded detection on 50 instances",
             ok, f"{mismatches} mismatches")


def test_criterion_06_modularity_monotone_and_bounded():
    rng = np.random.default_rng(606)
    bad = 0
    runs = 0
    reports = []
    for i in range(20):
        n, edges = random_graph(rng, max_nodes=40, max_edges=160, loops=False)
        g = build_graph(edges, nodes=range(n))
        reports.append(louvain_static(g, LouvainConfig(rng_seed=i))[1])
    for i in range(10):
        g0, g1 = _drift_pair(seed=3000 + i)
        prev = renumber_partition(louvain_static(g0)[0])
        ctx = DynamicContext.from_previous(prev, g1, 0.5, 0.5, seed=i)
        reports.append(louvain_dynamic(g1, ctx)[1])
    for rep in reports:
        runs += 1
        for stats in rep.levels:
            qs = [stats.q_start] + stats.sweep_q
            if any(b < a - 1e-9 for a, b in zip(qs, qs[1:])):
                bad += 1
        for prev_l, next_l in zip(rep.levels, rep.levels[1:]):
            if next_l.q_start < prev_l.q_end - 1e-9:
                bad += 1
        if not (-0.5 - 1e-12 <= rep.final_q <= 1.0 + 1e-12):
            bad += 1
    ok = bad == 0 and runs == 30
    _verdict(6, "Q non-decreasing across sweeps and levels; final Q in [-0.5, 1]",
             ok, f"{runs} runs, {bad} violations")


# --- 7..9: figure trends at desk scale -----------------------------------------------


@pytest.fixture(scope="module")
def figure_sweep():
    spec = SynthSpec(n_nodes=2000, n_communities=50, p_in=0.2, p_out=0.005,
                     churn_rate=0.1, migrate_rate=0.05, steps=2, seed=4242)
    (g0, _), (g1, _) = generate(spec)
    sweep = SweepSpec(p_values=[0.0, 0.25, 0.5, 0.75, 1.0], q_values=[0.0],
                      seeds=list(range(1, 11)))
    t0 = time.perf_counter()
    rows = run_sweep(g0, g1, sweep)
    elapsed = time.perf_counter() - t0
    means = {}
    for p in sweep.p_values:
        rs = [r for r in rows if r.p == p]
        means[p] = (
            float(np.mean([r.mi_nats for r in rs])),
            float(np.mean([r.matching_count for r in rs])),
            float(np.mean([r.modularity_next for r in rs])),
        )
    return {"means": means, "elapsed": elapsed, "n_rows": len(rows)}


def test_criterion_07_mi_rises_with_p(figure_sweep):
    means = figure_sweep["means"]
    ps = sorted(means)
    mi = [means[p][0] for p in ps]
    rho, _ = spearmanr(ps, mi)
    ok = (mi[-1] > mi[0]) and (rho > 0) and figure_sweep["elapsed"] < 120.0
    _verdict(7, "mean MI strictly larger at p=100% than p=0%, Spearman > 0",
             ok, f"MI {mi[0]:.3f}->{mi[-1]:.3f}, rho={rho:.3f}, "
                 f"sweep {figure_sweep['elapsed']:.1f}s")


def test_criterion_08_matching_peaks_at_p100(figure_sweep):
    means = figure_sweep["means"]
    mc = {p: means[p][1] for p in means}
    ok = mc[1.0] >= mc[0.0] and mc[1.0] >= max(mc.values())
    _verdict(8, "mean matching count at p=100% >= p=0% and maximal over grid",
             ok, f"match {mc[0.0]:.1f}->{mc[1.0]:.1f}, grid max {max(mc.values()):.1f}")


def test_criterion_09_modularity_cost_bounded(figure_sweep):
    means = figure_sweep["means"]
    q0, q1 = means[0.0][2], means[1.0][2]
    margin = (q0 - q1) / q0 if q0 > 0 else float("inf")
    ok = margin <= 0.15
    _verdict(9, "stability costs at most 15% relative modularity at p=100%",
             ok, f"Q {q0:.4f}->{q1:.4f}, margin {margin:.2%}")


# --- 10..12: structural guarantees -----------------------------------------------


def test_criterion_10_matching_uniqueness():
    rng = np.random.default_rng(1010)
    duplicated = 0
    for _ in range(500):
        n = int(rng.integers(2, 70))
        ids = list(range(n))
        id_map = build_graph([], nodes=ids).ids
        a = Partition(id_map, rng.integers(0, 9, size=n))
        b = Partition(id_map, rng.integers(0, 9, size=n))
        r = 0.501 + 0.499 * float(rng.random())
        pairs = compare(a, b, cfg=MatchConfig(r=r)).matching
        lefts = [x for x, _ in pairs]
        rights = [y for _, y in pairs]
        if len(set(lefts)) != len(pairs) or len(set(rights)) != len(pairs):
            duplicated += 1
    ok = duplicated == 0
    _verdict(10, "no community ever gets two matching partners (500 pairs, r > 0.5)",
             ok, f"{duplicated} duplicates")


def test_criterion_11_end_to_end_determinism(tmp_path):
    def one_run(root):
        os.makedirs(root, exist_ok=True)
        syn = os.path.join(root, "syn")
        assert main(["synth", "--nodes", "300", "--communities", "8", "--p-in", "0.3",
                     "--p-out", "0.01", "--churn", "0.1", "--migrate", "0.05",
                     "--steps", "2", "--seed", "17", "-o", syn]) == 0
        part0 = os.path.join(root, "p0.tsv")
        assert main(["detect", "--graph", os.path.join(syn, "step_0.graph.tsv"),
                     "--seed", "3", "-o", part0]) == 0
        part1 = os.path.join(root, "p1.tsv")
        assert main(["detect", "--graph", os.path.join(syn, "step_1.graph.tsv"),
                     "--prev-partition", part0, "--p", "0.5", "--q", "0.25",
                     "--seed", "5", "-o", part1]) == 0
        sweep = os.path.join(root, "sweep.csv")
        assert main(["sweep", "--graph-t", os.path.join(syn, "step_0.graph.tsv"),
                     "--graph-t1", os.path.join(syn, "step_1.graph.tsv"),
                     "--p", "0,50,100", "--q", "0,50", "--seeds", "1..3",
                     "-o", sweep]) == 0
        return syn, part0, part1, sweep

    r1 = one_run(str(tmp_path / "run1"))
    r2 = one_run(str(tmp_path / "run2"))

    identical = True
    for k in range(2):
        for suffix in (f"step_{k}.graph.tsv", f"step_{k}.planted.tsv"):
            with open(os.path.join(r1[0], suffix), "rb") as f1, \
                 open(os.path.join(r2[0], suffix), "rb") as f2:
                identical &= f1.read() == f2.read()
    for a, b in ((r1[1], r2[1]), (r1[2], r2[2])):
        with open(a, "rb") as f1, open(b, "rb") as f2:
            identical &= f1.read() == f2.read()
    with open(r1[3]) as f1, open(r2[3]) as f2:
        rows1 = [row[:-1] for row in csv.reader(f1)]
        rows2 = [row[:-1] for row in csv.reader(f2)]
    identical &= rows1 == rows2
    _verdict(11, "repeated synth->detect->sweep runs are byte-identical "
                 "(timing column excluded)", identical)


def test_criterion_12_ingestion_semantics():
    # symmetrization: enumerate every direction combination
    counts = {
        ("A", "B"): 2, ("B", "A"): 1,  # both
        ("A", "C"): 1,                 # one way
        ("D", "C"): 2, ("C", "D"): 3,  # both
        ("E", "A"): 2,                 # one way
    }
    g = symmetrize(counts)
    edge_set = {tuple(sorted(e[:2])) for e in edge_list(g)}
    expect = set()
    endpoints = {x for pair in counts for x in pair}
    for a in endpoints:
        for b in endpoints:
            if a < b and (a, b) in counts and (b, a) in counts:
                expect.add((a, b))
    sym_ok = edge_set == expect == {("A", "B"), ("C", "D")}
    # every retained edge has both directed counterparts (re-scan)
    rescan_ok = all((u, v) in counts and (v, u) in counts for u, v in edge_set)

    # degree filter: exactly the nodes above cap, measured on the input, one pass
    star = build_graph([("hub", f"leaf{i}") for i in range(201)] + [("leaf0", "leaf1")])
    out, rep = filter_high_degree(star, cap=200)
    filt_ok = rep.removed == ["hub"] and out.n == 201 and out.n_edges == 1
    boundary = build_graph([("h", f"x{i}") for i in range(200)])
    out2, rep2 = filter_high_degree(boundary, cap=200)
    filt_ok &= rep2.removed == [] and out2.n_edges == 200
    # input-degree semantics: re-filtering removes nothing further
    out3, rep3 = filter_high_degree(out, cap=200)
    filt_ok &= rep3.removed == []

    ok = sym_ok and rescan_ok and filt_ok
    _verdict(12, "edges need both directions; degree cap removes exactly input-degree > cap",
             ok)


# --- 13: scale -----------------------------------------------------------------


def test_criterion_13_million_edge_scale_smoke():
    t_start = time.perf_counter()
    spec = SynthSpec(n_nodes=100_000, n_communities=1000, p_in=0.12, p_out=8e-5,
                     steps=1, seed=999)
    (g, _), = generate(spec)
    n_edges = g.n_edges
    stamps = ["2012-01-15T10:00:00", "2012-02-10T11:30:00", "2012-03-20T09:05:00"]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cdr.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("origin,target,timestamp,kind,duration_s\n")
            k = 0
            for u, v, _w in edge_list(g):
                ts = stamps[k % 3]
                k += 1
                fh.write(f"{u},{v},{ts},call,30\n{v},{u},{ts},call,45\n")
        del g
        t0 = time.perf_counter()
        window = WindowSpec.from_label("2012-03", span_months=3)
        with open(path, "r", encoding="utf-8") as fh:
            g2, report = ingest_pipeline(fh, window, cap=200)
        t1 = time.perf_counter()
        part, rep = louvain_static(g2, LouvainConfig(rng_seed=1))
        t2 = time.perf_counter()
        elapsed = t2 - t0
    sane = g2.n_edges == n_edges and rep.final_q > 0.3 and part.covers(g2)
    ok = sane and elapsed < 300.0 and n_edges >= 1_000_000
    stages = ", ".join(f"{name} {report.seconds[name]:.2f}s" for name in ("parse", "aggregate", "symmetrize"))
    _verdict(13, "1M-edge ingest + detect completes under 5 minutes",
             ok, f"{n_edges} edges, ingest+detect {elapsed:.1f}s (ingest_pipeline {t1 - t0:.1f}s: {stages}; "
                 f"louvain_static {t2 - t1:.2f}s on the {louvain.KERNEL} sweep), Q={rep.final_q:.3f}, "
                 f"total {time.perf_counter() - t_start:.1f}s")
