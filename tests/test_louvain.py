"""Optimizer behavior: gains, seeding, pinning, steering, termination."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commtrack.louvain as louvain
from commtrack import _native
from commtrack.errors import InputError
from commtrack.graph import Graph, IdMap, Partition, build_graph, write_edge_tsv
from commtrack.louvain import (
    DynamicContext,
    LouvainConfig,
    derive_seed,
    louvain_dynamic,
    louvain_static,
    modularity,
    renumber_partition,
    round_half_up,
)
from commtrack.metrics import compare
from commtrack.synth import SynthSpec, generate

from oracles import (
    agg_backends,
    canonical_blocks,
    oracle_renumber,
    oracle_sweep,
    random_churned_ids,
    random_graph,
    random_labels,
    singleton_partition,
    sweep_backends,
)


def two_triangles():
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], nodes=range(6))


# --- config and helpers ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(InputError):
        LouvainConfig(max_passes_per_level=0)
    with pytest.raises(InputError):
        LouvainConfig(node_order="sideways")


def test_round_half_up():
    assert round_half_up(0.0) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(2.5) == 3


def test_sampling_sizes_and_determinism():
    sample = louvain._sample_without_replacement
    pop = list(range(100))
    for p in (0.0, 0.25, 0.5, 0.753, 1.0):
        got = sample(pop, p, seed=9)
        assert len(got) == round_half_up(p * 100)
        assert set(got.tolist()) <= set(pop)
    a = sample(pop, 0.3, seed=5)
    b = sample(pop, 0.3, seed=5)
    c = sample(pop, 0.3, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)


# --- level-1 sweep vs full recomputation ------------------------------------------


def test_level_one_sweep_matches_oracle(monkeypatch):
    # pinned, preferential and shuffled-order nodes in one production sweep,
    # on every sweep backend; criterion 02 covers the plain rule on more
    # cases. Every other case is a simple unit-weight graph started from
    # singletons, where equal scores are common and test the tie-break.
    for sweep in sweep_backends().values():
        monkeypatch.setattr(louvain, "_sweep", sweep)
        rng = np.random.default_rng(11)
        cfg = LouvainConfig(max_passes_per_level=1, node_order="shuffled", rng_seed=5)
        restricted = 0
        done = 0
        while done < 120:
            n, edges = random_graph(rng, max_nodes=10, max_edges=25)
            if n < 2:
                continue
            if done % 2 == 0:
                edges = sorted({(min(u, v), max(u, v), 1.0) for u, v, _ in edges if u != v})
            g = build_graph(edges, nodes=range(n))
            labels = random_labels(rng, n) if done % 2 else list(range(n))
            movable = (rng.random(n) >= 0.2).tolist()
            pref = (rng.random(n) < 0.5).tolist()
            prev = set(rng.choice(max(labels) + 1, size=max(1, max(labels) // 2), replace=False).tolist())
            start = louvain._level_start(g, np.asarray(labels, dtype=np.int64), sorted(prev))
            uniq, dense, stats = louvain._one_level(g, start, movable, pref, cfg, random.Random(cfg.rng_seed), 1)
            keys = uniq[dense]
            order = list(range(n))
            random.Random(cfg.rng_seed).shuffle(order)
            want, moves, steered = oracle_sweep(n, edges, labels, movable, order, louvain.MIN_GAIN, pref, prev)
            assert keys.tolist() == want
            q_after = stats.sweep_q[0] if stats.sweep_q else stats.q_start
            assert q_after - stats.q_start == pytest.approx(sum(m[2] for m in moves), abs=1e-12)
            restricted += steered
            done += 1
        assert restricted > 0


def test_equal_scores_go_to_smallest_key(monkeypatch):
    # node 7's best candidates, the communities of nodes 6 and 8, score the
    # same in exact arithmetic; a score computed as w - k * tot / 2m splits
    # them by rounding and picks label 8
    edges = [(0, 1), (0, 2), (0, 5), (0, 7), (0, 8), (1, 7), (1, 8), (2, 4), (2, 5),
             (2, 7), (3, 4), (4, 6), (5, 6), (6, 7)]
    edges = [(u, v, 1.0) for u, v in edges]
    n = 10
    g = build_graph(edges, nodes=range(n))
    cfg = LouvainConfig(max_passes_per_level=1, node_order="shuffled", rng_seed=5)
    order = list(range(n))
    random.Random(cfg.rng_seed).shuffle(order)
    want, _, _ = oracle_sweep(n, edges, list(range(n)), [True] * n, order, louvain.MIN_GAIN)
    assert want[7] == 6
    for sweep in sweep_backends().values():
        monkeypatch.setattr(louvain, "_sweep", sweep)
        start = louvain._level_start(g, np.arange(n, dtype=np.int64), ())
        uniq, dense, _ = louvain._one_level(g, start, [True] * n, [False] * n, cfg, random.Random(cfg.rng_seed), 1)
        keys = uniq[dense]
        assert keys.tolist() == want


def _level_labels(rng, n, kind):
    """int64 labels of one of four kinds: sorted and distinct (``_level_start``
    takes them as its slots), sorted with repeats, distinct in random order,
    and random with repeats; negative, gapped and near both int64 ends."""
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    pool = np.unique(np.concatenate([[lo, lo + 1, -1, 0, hi - 1, hi], rng.integers(-2**62, 2**62, size=2 * n)]))
    if kind == "increasing":
        return np.sort(rng.choice(pool, size=n, replace=False))
    if kind == "sorted repeats":
        return np.sort(rng.choice(pool[: max(1, n // 2)], size=n))
    if kind == "distinct":
        return rng.permutation(rng.choice(pool, size=n, replace=False))
    return rng.choice(pool[: max(1, n // 2)], size=n)


def test_one_level_hands_on_dense_labels(monkeypatch):
    # a level's (uniq, dense) is np.unique of the keys it ends with: the live
    # keys, sorted, and each node's rank among them, on every sweep body,
    # whether or not the level took its keys as the slots
    rng = np.random.default_rng(18)
    for sweep in sweep_backends().values():
        monkeypatch.setattr(louvain, "_sweep", sweep)
        for case in range(240):
            n, edges = random_graph(rng, max_nodes=12, max_edges=30)
            g = build_graph(edges, nodes=range(n))
            kind = ("increasing", "sorted repeats", "distinct", "repeats")[case % 4]
            labels = _level_labels(rng, n, kind)
            cfg = LouvainConfig(max_passes_per_level=(1, 100)[case // 4 % 2],
                                node_order=("index", "shuffled")[case // 8 % 2], rng_seed=case)
            movable = rng.random(n) >= 0.2
            pref = rng.random(n) < 0.5
            prev = np.unique(labels[rng.random(n) < 0.5])
            start = louvain._level_start(g, labels, prev)
            uniq, dense, stats = louvain._one_level(g, start, movable, pref, cfg, random.Random(case), 1)
            want_uniq, want_dense = np.unique(uniq[dense], return_inverse=True)
            assert uniq.dtype == dense.dtype == np.int64
            assert uniq.tolist() == want_uniq.tolist() and dense.tolist() == want_dense.tolist()
            assert stats.n_communities_end == len(uniq)
            assert set(uniq.tolist()) <= set(labels.tolist())
            assert np.array_equal(uniq[dense][~movable], labels[~movable])


# --- static optimization -----------------------------------------------------------


def test_static_finds_two_triangles():
    g = two_triangles()
    part, report = louvain_static(g)
    assert canonical_blocks(part.labels.tolist()) == [(0, 1, 2), (3, 4, 5)]
    assert report.final_q == pytest.approx(0.5, abs=1e-12)
    assert modularity(g, part) == pytest.approx(report.final_q, abs=1e-9)


def test_static_empty_and_single_node():
    g0 = build_graph([])
    part, report = louvain_static(g0)
    assert part.n == 0 and report.final_q == 0.0
    g1 = build_graph([], nodes=["a"])
    part, report = louvain_static(g1)
    assert part.labels.tolist() == [0]


def test_static_seeded_never_scores_below_seed():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, edges = random_graph(rng, max_nodes=14, max_edges=40)
        g = build_graph(edges, nodes=range(n))
        seed_part = Partition(g.ids, np.asarray(random_labels(rng, n)))
        q_seed = modularity(g, seed_part)
        part, report = louvain_static(g, init=seed_part)
        assert report.final_q >= q_seed - 1e-12
        assert modularity(g, part) == pytest.approx(report.final_q, abs=1e-9)


def test_static_shuffled_order_is_reproducible():
    g = two_triangles()
    cfg = LouvainConfig(rng_seed=77, node_order="shuffled")
    p1, _ = louvain_static(g, cfg)
    p2, _ = louvain_static(g, cfg)
    assert p1 == p2


def test_monotone_q_within_runs():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n, edges = random_graph(rng, max_nodes=20, max_edges=60, loops=False)
        g = build_graph(edges, nodes=range(n))
        _, report = louvain_static(g)
        for stats in report.levels:
            qs = [stats.q_start] + stats.sweep_q
            for a, b in zip(qs, qs[1:]):
                assert b >= a - 1e-9
        for prev, nxt in zip(report.levels, report.levels[1:]):
            assert nxt.q_start == pytest.approx(prev.q_end, abs=1e-9)
        assert -0.5 - 1e-12 <= report.final_q <= 1.0 + 1e-12


# --- dynamic context ----------------------------------------------------------------


def test_context_from_previous_shapes():
    g0 = two_triangles()
    prev, _ = louvain_static(g0)
    prev = renumber_partition(prev)
    g1 = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (6, 3)], nodes=[0, 1, 2, 3, 4, 6])
    ctx = DynamicContext.from_previous(prev, g1, p=0.5, q=0.5, seed=3)
    survivors = {0, 1, 2, 3, 4}
    assert len(ctx.fixed) == round_half_up(0.5 * len(survivors))
    assert len(ctx.pref) == round_half_up(0.5 * 6)
    assert {g1.ids.ids[int(i)] for i in ctx.fixed} <= survivors
    # new node 6 got a fresh singleton label beyond the previous ones
    lab6 = int(ctx.init_labels[g1.ids.index[6]])
    assert lab6 not in ctx.prev_labels
    ctx.validate(g1)


@pytest.mark.parametrize("str_ids", [False, True], ids=["int", "str"])
def test_context_from_previous_matches_dict_reference_on_churned_node_sets(str_ids):
    rng = np.random.default_rng(31 + str_ids)
    for trial in range(80):
        prev_ids, next_ids = random_churned_ids(rng, str_ids)
        prev_labels = [int(x) for x in rng.integers(-5, 40, size=len(prev_ids))]
        prev = Partition(IdMap(prev_ids), np.array(prev_labels, dtype=np.int64))
        g_next = build_graph([], nodes=next_ids)
        start = None if trial % 3 else int(rng.integers(100, 200))
        p, q, seed = float(rng.random()), float(rng.random()), int(rng.integers(0, 1000))
        ctx = DynamicContext.from_previous(prev, g_next, p, q, seed, fresh_label_start=start)

        label_of = dict(zip(prev_ids, prev_labels))
        fresh = start if start is not None else max(prev_labels, default=-1) + 1
        init, survivors = [], []
        for i, x in enumerate(next_ids):
            if x in label_of:
                init.append(label_of[x])
                survivors.append(i)
            else:
                init.append(fresh)
                fresh += 1
        assert ctx.init_labels.tolist() == init
        assert ctx.init_labels.dtype == np.int64
        sample = louvain._sample_without_replacement
        assert ctx.fixed.tolist() == sample(survivors, p, derive_seed(seed, 0)).tolist()
        assert set(ctx.fixed.tolist()) <= set(survivors)
        assert ctx.pref.tolist() == sample(list(range(len(next_ids))), q, derive_seed(seed, 1)).tolist()
        assert ctx.prev_labels.tolist() == sorted(set(prev_labels))
        assert ctx.prev_labels.dtype == np.int64


def test_context_rejects_bad_fractions():
    g = two_triangles()
    prev = Partition(g.ids, np.zeros(6, dtype=np.int64))
    with pytest.raises(InputError):
        DynamicContext.from_previous(prev, g, p=1.5, q=0.0, seed=0)


def test_context_rejects_fresh_labels_past_int64():
    g = build_graph([(0, 1)], nodes=[0, 1])
    prev = Partition(g.ids, np.array([0, 2**63 - 1]))
    DynamicContext.from_previous(prev, g, 0.5, 0.5, seed=0)
    g_next = build_graph([(0, 1), (1, 2)], nodes=[0, 1, 2])
    with pytest.raises(InputError, match="int64"):
        DynamicContext.from_previous(prev, g_next, 0.0, 0.0, seed=0)
    with pytest.raises(InputError, match="int64"):
        DynamicContext.from_previous(Partition(g.ids, np.array([0, 1])), g_next, 0.0, 0.0, seed=0,
                                     fresh_label_start=2**63)


def test_seeded_init_matches_context():
    g0 = two_triangles()
    prev, _ = louvain_static(g0)
    g1 = build_graph([(0, 1), (5, 7)], nodes=[0, 1, 5, 7])
    ctx = DynamicContext.from_previous(prev, g1, 0.0, 0.0, seed=0)
    init = Partition(g1.ids, ctx.init_labels)
    assert init.label_of(0) == prev.label_of(0)
    assert init.label_of(5) == prev.label_of(5)
    fresh = init.label_of(7)
    assert fresh not in prev.labels_set


@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_sweep_cells_match_cells_seeded_from_fresh_baselines(order):
    # run_sweep's cells share each baseline's ranking, seeding and level-1
    # start; a cell built from a fresh copy of its baseline (labels and ids),
    # sharing nothing, gives the same row
    from commtrack.metrics import MatchConfig
    from commtrack.sweep import SweepSpec, run_sweep

    (g0, _), (g1, _) = _planted(6, nodes=600, steps=2, churn=0.1, migrate=0.05)
    cfg = LouvainConfig(node_order=order)
    spec = SweepSpec([0.0, 0.5, 1.0], [0.0, 0.5], [2, 7])
    got = [(r.p, r.q, r.seed, r.mi_nats, r.matching_count, r.modularity_next) for r in run_sweep(g0, g1, spec, cfg)]
    base = {s: renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=s, node_order=order))[0])
            for s in ((2,) if order == "index" else (2, 7))}
    want = []
    for p in spec.p_values:
        for q in spec.q_values:
            for s in spec.seeds:
                b = base[s if order == "shuffled" else 2]
                prev, ref = (Partition(IdMap(b.ids.ids), b.labels) for _ in range(2))
                ctx = DynamicContext.from_previous(prev, g1, p, q, seed=derive_seed(s, 2))
                part, _ = louvain_dynamic(g1, ctx, LouvainConfig(rng_seed=derive_seed(s, 3), node_order=order))
                report = compare(ref, part, g1, MatchConfig(spec.r))
                want.append((p, q, s, report.mi_nats, report.n_matching, report.modularity_next))
    assert repr(got) == repr(want)

    # one seeding per (baseline, next graph, fresh_label_start): contexts
    # of one seeding share it, and each triple seeds apart
    b = base[2]
    seeding = louvain._Seeding(b, g1, None)
    first, again = seeding.context(0.5, 0.5, 5), seeding.context(0.0, 1.0, 9)
    assert again._seeding is first._seeding is seeding and again.init_labels is first.init_labels
    g1_copy = Graph(g1.ids, g1.indptr, g1.nbr, g1.wgt, g1.self_loops)
    triples = [(g1, None), (g0, None), (g1_copy, None), (g1, 10**6)]
    ctx = [louvain._Seeding(b, g, f).context(0.5, 0.5, 5) for g, f in triples]
    assert len({id(c._seeding) for c in ctx}) == 4
    for c, (g, f) in zip(ctx, triples):  # each equals a context seeded afresh
        d = DynamicContext.from_previous(b, g, 0.5, 0.5, seed=5, fresh_label_start=f)
        assert d._seeding is not c._seeding
        fields = ("prev_labels", "fixed", "pref", "init_labels")
        assert all(np.array_equal(getattr(c, k), getattr(d, k)) for k in fields)
        for e in (c, d):
            assert not e.init_labels.flags.writeable and not e.prev_labels.flags.writeable
    surviving = np.isin(g1.ids.ids, b.ids.ids)
    fresh_start = int(b.labels.max()) + 1
    assert ctx[0].init_labels.tolist() == ctx[2].init_labels.tolist() == first.init_labels.tolist()
    assert ctx[1].init_labels.tolist() == b.labels.tolist()
    assert ctx[0].init_labels[~surviving].tolist() == list(range(fresh_start, fresh_start + (~surviving).sum()))
    assert ctx[3].init_labels[~surviving].tolist() == list(range(10**6, 10**6 + (~surviving).sum()))
    assert ctx[3].init_labels[surviving].tolist() == ctx[0].init_labels[surviving].tolist()
    # the shared level-1 start serves only the graph and the labels it was built from
    loops_only = Graph(g1.ids, np.zeros(g1.n + 1, dtype=np.int64), [], [], np.ones(g1.n))
    relabelled = replace(first, init_labels=np.arange(g1.n, dtype=np.int64))
    for g, c in ((loops_only, first), (g1, relabelled)):
        unseeded = DynamicContext(c.prev_labels, c.fixed, c.pref, c.init_labels)
        runs = [louvain_dynamic(g, c), louvain_dynamic(g, unseeded)]
        assert len({(part.labels.tobytes(), repr(report)) for part, report in runs}) == 1


@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_sweep_cells_with_the_same_draws_share_one_run(order, monkeypatch):
    # under index order a run is fixed by its pinned and steered draws: one
    # run per distinct pair of draws, whose rows equal rows of cells seeded
    # afresh; shuffled order runs every cell
    from commtrack import sweep
    from commtrack.metrics import MatchConfig
    from commtrack.sweep import SweepSpec, run_sweep

    (g0, _), (g1, _) = _planted(6, nodes=300, steps=2, churn=0.1, migrate=0.05)
    cfg = LouvainConfig(node_order=order)
    # 0.001 draws none of either population and 0.999 all of it; 0.5 and 0.501
    # draw the same sizes, so with the same seed the same sets
    spec = SweepSpec([0.0, 0.001, 0.5, 0.501, 0.999, 1.0], [0.0, 0.5, 0.501, 1.0], [2, 7])
    n_surviving = int(np.isin(g1.ids.ids, g0.ids.ids).sum())
    for size in (n_surviving, g1.n):
        assert (round_half_up(0.001 * size), round_half_up(0.999 * size)) == (0, size)
        assert round_half_up(0.5 * size) == round_half_up(0.501 * size)
    calls = []

    def counting(*args):
        calls.append(args)
        return louvain_dynamic(*args)
    monkeypatch.setattr(sweep, "louvain_dynamic", counting)
    rows = run_sweep(g0, g1, spec, cfg)
    got = [(r.p, r.q, r.seed, r.mi_nats, r.matching_count, r.modularity_next) for r in rows]

    base = {s: renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=s, node_order=order))[0])
            for s in (spec.seeds[:1] if order == "index" else spec.seeds)}
    want, draws, runtime = [], set(), {}
    for p in spec.p_values:
        for q in spec.q_values:
            for s in spec.seeds:
                b = base[s if order == "shuffled" else spec.seeds[0]]
                prev, ref = (Partition(IdMap(b.ids.ids), b.labels) for _ in range(2))
                ctx = DynamicContext.from_previous(prev, g1, p, q, seed=derive_seed(s, 2))
                part, _ = louvain_dynamic(g1, ctx, LouvainConfig(rng_seed=derive_seed(s, 3), node_order=order))
                report = compare(ref, part, g1, MatchConfig(spec.r))
                want.append((p, q, s, report.mi_nats, report.n_matching, report.modularity_next))
                draw = (ctx.fixed.tobytes(), ctx.pref.tobytes())
                draws.add(draw)
                runtime.setdefault(draw, set()).add(rows[len(want) - 1].runtime_ms)
    assert repr(got) == repr(want)
    n_cells = len(spec.p_values) * len(spec.q_values) * len(spec.seeds)
    if order == "index":
        assert len(calls) == len(draws) < n_cells
        assert all(len(times) == 1 for times in runtime.values())  # a shared run's time
    else:
        assert len(calls) == n_cells


@pytest.fixture(scope="module")
def seeded_pair():
    g0, g1 = _drifting_pair(3)
    return g1, renumber_partition(louvain_static(g0)[0])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32), st.integers(0, 2**64 - 1),
       st.integers(0, 2**64 - 1))
def test_index_order_runs_do_not_read_the_run_seed(seeded_pair, p, q, draw_seed, seed_a, seed_b):
    # what lets a sweep share one run between cells: under index order only
    # the draws, not the run's own seed, decide the run
    g1, prev = seeded_pair
    ctx = DynamicContext.from_previous(prev, g1, p, q, seed=draw_seed)
    (a, report_a), (b, report_b) = (louvain_dynamic(g1, ctx, LouvainConfig(rng_seed=s)) for s in (seed_a, seed_b))
    assert a.labels.tolist() == b.labels.tolist()
    assert repr(report_a) == repr(report_b)


def test_seedings_live_only_as_long_as_the_call_that_uses_them(monkeypatch):
    # no partition keeps a seeding: each tracker step seeds once and a sweep
    # once per baseline, and every seeding dies with the call that built it
    import gc
    import weakref

    from commtrack import tracker
    from commtrack.sweep import SweepSpec, run_sweep

    built = []
    init = louvain._Seeding.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(louvain._Seeding, "__init__", recording)
    assert not hasattr(Partition(IdMap("ab"), [0, 1]), "__dict__")
    assert all("seed" not in slot for slot in Partition.__slots__)

    def made_by(call):
        del built[:]
        call()
        gc.collect()
        assert built and all(ref() is None for ref in built)
        return len(built)

    snapshots = _planted(4, nodes=300, steps=7, churn=0.1, migrate=0.05)
    tl = tracker.bootstrap(snapshots[0][0])
    for k, (g, _) in enumerate(snapshots[1:], start=1):
        assert made_by(lambda: tracker.step(tl, g, 0.5, 0.5, seed=k)) == 1
    assert len(tl.steps) == 7
    (g0, _), (g1, _) = snapshots[:2]
    spec = SweepSpec([0.0, 1.0], [0.0, 0.5], [2, 7, 9])
    assert made_by(lambda: run_sweep(g0, g1, spec, LouvainConfig(node_order="index"))) == 1
    assert made_by(lambda: run_sweep(g0, g1, spec, LouvainConfig(node_order="shuffled"))) == 3


# --- dynamic runs -----------------------------------------------------------------


def _drifting_pair(seed, n=80, k=6):
    spec = SynthSpec(
        n_nodes=n, n_communities=k, p_in=0.4, p_out=0.02,
        churn_rate=0.1, migrate_rate=0.1, steps=2, seed=seed,
    )
    (g0, _), (g1, _) = generate(spec)
    return g0, g1


def test_baseline_identity_p0_q0():
    for seed in range(8):
        g0, g1 = _drifting_pair(seed)
        prev = renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=seed))[0])
        ctx = DynamicContext.from_previous(prev, g1, 0.0, 0.0, seed=seed)
        cfg = LouvainConfig(rng_seed=seed)
        dyn, _ = louvain_dynamic(g1, ctx, cfg)
        sta, _ = louvain_static(g1, cfg, init=Partition(g1.ids, ctx.init_labels))
        assert dyn == sta


def test_fixed_nodes_keep_labels():
    for seed, p in [(0, 0.25), (1, 0.5), (2, 0.75), (3, 1.0)]:
        g0, g1 = _drifting_pair(seed)
        prev = renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=seed))[0])
        ctx = DynamicContext.from_previous(prev, g1, p, 0.0, seed=seed)
        part, report = louvain_dynamic(g1, ctx)
        assert report.n_fixed == len(ctx.fixed)
        for i in ctx.fixed.tolist():
            ext = g1.ids.ids[int(i)]
            assert part.label_of(ext) == prev.label_of(ext)


def test_fixed_nodes_keep_labels_with_pref_active():
    g0, g1 = _drifting_pair(5)
    prev = renumber_partition(louvain_static(g0)[0])
    ctx = DynamicContext.from_previous(prev, g1, 0.6, 0.7, seed=12)
    part, _ = louvain_dynamic(g1, ctx)
    for i in ctx.fixed.tolist():
        ext = g1.ids.ids[int(i)]
        assert part.label_of(ext) == prev.label_of(ext)


def test_p1_identical_snapshot_is_identity():
    g = two_triangles()
    prev = renumber_partition(louvain_static(g)[0])
    ctx = DynamicContext.from_previous(prev, g, 1.0, 0.0, seed=4)
    part, _ = louvain_dynamic(g, ctx)
    assert part == prev


def _two_triangles_and_newcomers(lone_triangle):
    """Two triangles seeded as two communities, a new node tied to each, and
    optionally a new triangle tied to neither."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 0), (6, 1), (6, 2), (7, 3), (7, 4), (7, 5)]
    if lone_triangle:
        edges += [(8, 9), (9, 10), (8, 10)]
    g = build_graph(edges, nodes=range(11 if lone_triangle else 8))
    prev = Partition(IdMap(range(6)), np.array([0, 0, 0, 1, 1, 1]))
    return g, DynamicContext.from_previous(prev, g, 1.0, 0.0, seed=4)


def test_a_level_whose_every_community_is_pinned_ends_the_run():
    # the newcomers join the pinned triangles at level 1; a second level
    # could move neither supernode, so the run ends after one
    g, ctx = _two_triangles_and_newcomers(lone_triangle=False)
    part, report = louvain_dynamic(g, ctx)
    assert part.labels.tolist() == [0, 0, 0, 1, 1, 1, 0, 1]
    assert len(report.levels) == 1 and report.levels[0].moves == 2
    assert report.final_q == report.levels[-1].q_end
    assert report.final_q == pytest.approx(modularity(g, part), abs=1e-9)


def test_a_community_without_a_pinned_node_still_aggregates():
    g, ctx = _two_triangles_and_newcomers(lone_triangle=True)
    part, report = louvain_dynamic(g, ctx)
    assert part.labels.tolist()[:8] == [0, 0, 0, 1, 1, 1, 0, 1]
    assert len(set(part.labels.tolist()[8:])) == 1
    assert len(report.levels) == 2 and report.levels[1].n_nodes == 3
    assert report.final_q == pytest.approx(modularity(g, part), abs=1e-9)


def test_static_runs_end_only_on_a_level_that_gains_nothing():
    # a static run pins nothing, so only the move and gain rules end it
    for seed in range(3):
        (g, _), = _planted(seed, nodes=1000)
        _, report = louvain_static(g, LouvainConfig(rng_seed=seed))
        last = report.levels[-1]
        assert len(report.levels) > 1
        assert last.moves == 0 or last.q_end - last.q_start < louvain.MIN_GAIN


def test_pref_restriction_only_targets_previous_labels(monkeypatch):
    # test_level_one_sweep_matches_oracle checks that steered nodes only pick
    # previous labels; here, the steering reaches level 1 and no level above
    real = louvain._one_level
    seen = []

    def spy(lg, start, movable, pref_flags, cfg, rng, level):
        seen.append((level, pref_flags, start))
        return real(lg, start, movable, pref_flags, cfg, rng, level)

    monkeypatch.setattr(louvain, "_one_level", spy)
    for seed in range(6):
        g0, g1 = _drifting_pair(seed, n=60, k=5)
        prev = renumber_partition(louvain_static(g0)[0])
        ctx = DynamicContext.from_previous(prev, g1, 0.0, 1.0, seed=seed)
        seen.clear()
        louvain_dynamic(g1, ctx)
        assert len(seen) > 1
        level, pref_flags, (slot_key, *_, slot_is_prev) = seen[0]
        assert level == 1 and np.array_equal(slot_is_prev, np.isin(slot_key, ctx.prev_labels)) and slot_is_prev.any()
        assert np.array_equal(pref_flags, np.ones(g1.n, bool))
        assert all(not flags.any() and not start[-1].any() for _, flags, start in seen[1:])


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_INT64 | st.integers(-5, 5), min_size=1, max_size=30),
       st.lists(_INT64 | st.integers(-5, 5), max_size=30), st.sampled_from(["distinct", "sorted", "as drawn"]),
       st.booleans())
@example([-(2**63), -1, 0, 2**63 - 1], [2**63 - 1, -(2**63), 5], "as drawn", False)
@example([2, 7, 2, -4], [7, 7, -4, -4], "sorted", True)
@example([3, 1, 2], [], "distinct", True)
def test_level_start_marks_previous_slots_as_isin_does(keys, prev, form, as_list):
    # the slot marks against np.isin on previous labels sorted and distinct
    # (as a seeding hands them), sorted with repeats, or as drawn (a context
    # built by hand), negative, int64-extreme or none (the shortcut's zeros)
    prev = {"distinct": sorted(set(prev)), "sorted": sorted(prev), "as drawn": prev}[form]
    prev = prev if as_list else np.asarray(prev, dtype=np.int64)
    g = build_graph([], nodes=range(len(keys)))
    slot_key, *_, slot_is_prev = louvain._level_start(g, np.asarray(keys, dtype=np.int64), prev)
    assert slot_is_prev.dtype == np.uint8
    assert np.array_equal(slot_is_prev, np.isin(slot_key, np.asarray(prev, dtype=np.int64)))


@pytest.mark.parametrize("order", ["index", "shuffled"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_movable_masks_free_exactly_the_communities_without_a_pin(monkeypatch, p, order):
    # _run marks each level's frozen supernodes through its node map; they are
    # the ones keyed by a pinned node's start label, the level's slot keys above
    # level 1. Runs seeded from singletons climb more levels than those seeded
    # from a detection, so some maps compose over two aggregations.
    real = louvain._one_level
    seen = []

    def spy(lg, start, movable, *rest):
        seen.append((start[0], np.array(movable)))
        return real(lg, start, movable, *rest)

    monkeypatch.setattr(louvain, "_one_level", spy)
    upper, frozen_upper, frozen_third = 0, 0, 0
    for seed in range(8):
        g0, g1 = _drifting_pair(seed, n=120, k=8)
        for prev in (renumber_partition(louvain_static(g0)[0]), singleton_partition(g0)):
            ctx = DynamicContext.from_previous(prev, g1, p, 0.5, seed=seed)
            seen.clear()
            louvain_dynamic(g1, ctx, LouvainConfig(rng_seed=seed, node_order=order))
            (_, first), *levels = seen
            assert np.array_equal(first, ~np.isin(np.arange(g1.n), ctx.fixed))
            for level, (slot_key, movable) in enumerate(levels, start=2):
                assert np.array_equal(movable, ~np.isin(slot_key, ctx.init_labels[ctx.fixed]))
                upper += 1
                frozen_upper += not movable.all()
                frozen_third += level >= 3 and not movable.all()
    assert upper > 0
    assert frozen_upper == (0 if p == 0.0 else upper)
    if p == 0.3:  # coverage: some node maps compose over two aggregations with pins in them
        assert frozen_third > 0


def test_pref_never_forces_a_move():
    # steering restricts choices; a steered node with no gain stays put
    g = build_graph([(0, 1)], nodes=[0, 1])
    prev = Partition(g.ids, np.array([0, 1]))
    ctx = DynamicContext.from_previous(prev, g, 0.0, 1.0, seed=1)
    part, _ = louvain_dynamic(g, ctx)
    q_before = modularity(g, prev)
    assert modularity(g, part) >= q_before - 1e-12


def test_dynamic_validates_context_against_graph():
    g0 = two_triangles()
    prev, _ = louvain_static(g0)
    other = build_graph([(0, 1)], nodes=[0, 1])
    ctx = DynamicContext.from_previous(prev, g0, 0.5, 0.0, seed=0)
    with pytest.raises(InputError, match="context built for 6 nodes, graph has 2"):
        louvain_dynamic(other, ctx)


@pytest.mark.parametrize("field,index", [("fixed", 6), ("pref", 6), ("fixed", -1), ("pref", -1)])
def test_dynamic_rejects_context_indices_outside_graph(field, index):
    g = two_triangles()
    prev, _ = louvain_static(g)
    ctx = DynamicContext.from_previous(prev, g, 0.5, 0.5, seed=0)
    setattr(ctx, field, np.append(getattr(ctx, field)[:-1], index).astype(np.int64))
    with pytest.raises(InputError, match=f"context {field} set references nodes outside the graph"):
        louvain_dynamic(g, ctx)


def test_renumber_partition_first_seen():
    g = build_graph([(0, 1), (2, 3)], nodes=range(4))
    part = Partition(g.ids, np.array([9, 9, 4, 9]))
    ren = renumber_partition(part, start=10)
    assert ren.labels.tolist() == [10, 10, 11, 10]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62) | st.integers(0, 5), max_size=40), st.integers(0, 1000))
def test_renumber_partition_matches_dict_oracle(labels, start):
    part = Partition(IdMap(range(len(labels))), np.asarray(labels, dtype=np.int64))
    assert renumber_partition(part, start=start).labels.tolist() == oracle_renumber(labels, start)


def test_labels_persist_through_levels():
    # a seeded run that only merges keeps the winning previous labels alive
    g = two_triangles()
    prev = Partition(g.ids, np.array([3, 3, 3, 8, 8, 8]))
    part, _ = louvain_static(g, init=prev)
    assert part.labels_set == {3, 8}


# --- active-node sweeps ----------------------------------------------------------------


def _planted(seed, nodes=2000, steps=1, churn=0.0, migrate=0.0):
    """Planted partition with communities of 100 nodes, about 4 cross neighbours each."""
    return generate(SynthSpec(
        n_nodes=nodes, n_communities=nodes // 100, p_in=0.12, p_out=4.0 / (nodes - 100),
        churn_rate=churn, migrate_rate=migrate, steps=steps, seed=seed,
    ))


def _dynamic_run(seed, p, q, drift=0.05):
    (g0, _), (g1, _) = _planted(seed, nodes=1000, steps=2, churn=drift, migrate=drift)
    prev = renumber_partition(louvain_static(g0, LouvainConfig(rng_seed=seed))[0])
    ctx = DynamicContext.from_previous(prev, g1, p, q, seed=seed)
    return g1, ctx, lambda cfg: louvain_dynamic(g1, ctx, cfg)


def _level_one(run, cfg, monkeypatch):
    """Level-1 keys before and after phase 1, the movable flags, and its stats."""
    seen = {}
    real = louvain._one_level

    def spy(lg, start, movable, *rest):
        uniq, dense, stats = real(lg, start, movable, *rest)
        if stats.level == 1:
            seen.update(init=start[0][start[1]], keys=uniq[dense], movable=np.array(movable), stats=stats)
        return uniq, dense, stats

    with monkeypatch.context() as m:
        m.setattr(louvain, "_one_level", spy)
        run(cfg)
    return seen


def _check_active_sweeps(g, run, monkeypatch):
    full = _level_one(run, LouvainConfig(), monkeypatch)
    stats, movable = full["stats"], full["movable"]
    assert stats.sweeps < LouvainConfig().max_passes_per_level
    assert len(stats.sweep_visited) == len(stats.sweep_moves) == len(stats.sweep_q) == stats.sweeps
    assert stats.sweep_visited[0] == int(movable.sum())
    assert stats.sweep_moves[-1] == 0
    assert stats.moves == sum(stats.sweep_moves)
    assert sum(stats.sweep_visited) < stats.sweeps * stats.n_nodes
    # replay the level one sweep at a time: a node changes key in a sweep iff it moved
    before = full["init"]
    for t in range(1, stats.sweeps):
        after = _level_one(run, LouvainConfig(max_passes_per_level=t), monkeypatch)["keys"]
        moved = np.flatnonzero(after != before)
        assert len(moved) == stats.sweep_moves[t - 1]
        active = np.zeros(g.n, dtype=bool)
        active[moved] = True
        for u in moved.tolist():
            active[g.nbr[g.indptr[u]:g.indptr[u + 1]]] = True
        assert stats.sweep_visited[t] == int((active & movable).sum())
        before = after
    assert np.array_equal(before, full["keys"])


def test_active_sweeps_static_planted(monkeypatch):
    (g, _), = _planted(3)
    _check_active_sweeps(g, lambda cfg: louvain_static(g, cfg), monkeypatch)


def test_active_sweeps_dynamic_pinned(monkeypatch):
    g1, ctx, run = _dynamic_run(4, p=0.5, q=0.25, drift=0.2)
    assert len(ctx.fixed) > 0
    _check_active_sweeps(g1, run, monkeypatch)


def test_sweep_bodies_keep_only_the_move_rule(monkeypatch):
    # _one_level alone schedules: each visit is the level's order less the
    # pinned nodes, cut to what the last sweep marked; a body's returned
    # mask marks exactly the nodes whose slot it changed and their neighbours
    (planted, _), = _planted(8, nodes=600)
    rng = np.random.default_rng(13)
    graphs = [planted] + [build_graph(random_graph(rng, 40, 120)[1], nodes=range(40)) for _ in range(4)]
    for body in sweep_backends().values():
        calls = []

        def spy(visit, lv):
            before = lv.node_slot.copy()
            moved, active = body(visit, lv)
            calls.append((visit.tolist(), before, lv.node_slot.copy(), moved, np.array(active)))
            return moved, active

        monkeypatch.setattr(louvain, "_sweep", spy)
        for i, g in enumerate(graphs):
            for order_kind in ("index", "shuffled"):
                n = g.n
                cfg = LouvainConfig(node_order=order_kind, rng_seed=i)
                labels = np.asarray(random_labels(rng, n) if i % 2 else range(n), dtype=np.int64)
                movable = rng.random(n) >= 0.3
                pref = rng.random(n) < 0.5
                prev = np.unique(labels[rng.random(n) < 0.5])
                calls.clear()
                start = louvain._level_start(g, labels, prev)
                _, _, stats = louvain._one_level(g, start, movable, pref, cfg, random.Random(i), 1)
                order = list(range(n))
                if order_kind == "shuffled":
                    random.Random(i).shuffle(order)
                level_order = [u for u in order if movable[u]]
                assert len(calls) == stats.sweeps > 1
                marked = np.ones(n, dtype=bool)
                for visit, before, after, moved, active in calls:
                    assert all(movable[u] for u in visit)
                    assert visit == [u for u in level_order if marked[u]]
                    changed = np.flatnonzero(before != after)
                    assert moved == len(changed)
                    want = np.zeros(n, dtype=np.uint8)
                    want[changed] = 1
                    for u in changed.tolist():
                        want[g.nbr[g.indptr[u]:g.indptr[u + 1]]] = 1
                    assert active.dtype == np.uint8 and active.tolist() == want.tolist()
                    marked = active != 0


def test_report_lists_visits_per_level():
    (g, _), = _planted(5)
    _, report = louvain_static(g)
    levels = report.as_dict()["levels"]
    assert [lv["visited"] for lv in levels] == [sum(s.sweep_visited) for s in report.levels]
    assert levels[0]["visited"] < levels[0]["sweeps"] * g.n


def test_final_q_matches_modularity_static():
    for seed in range(3):
        (g, _), = _planted(seed, nodes=1000)
        part, report = louvain_static(g, LouvainConfig(rng_seed=seed))
        assert report.final_q == pytest.approx(modularity(g, part), abs=1e-9)
        singletons = singleton_partition(g)
        assert report.levels[0].q_start == pytest.approx(modularity(g, singletons), abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("q", [0.0, 0.5])
def test_final_q_matches_modularity_dynamic(p, q):
    g1, ctx, run = _dynamic_run(6, p, q)
    part, report = run(LouvainConfig(rng_seed=6))
    assert report.final_q == pytest.approx(modularity(g1, part), abs=1e-9)
    init = Partition(g1.ids, ctx.init_labels)
    assert report.levels[0].q_start == pytest.approx(modularity(g1, init), abs=1e-9)


def test_planted_quality_holds():
    for seed in range(1, 11):
        (g, planted), = _planted(seed)
        part, report = louvain_static(g, LouvainConfig(rng_seed=seed))
        assert report.final_q >= modularity(g, planted) - 1e-3
        assert compare(planted, part).normalized_mi() >= 0.99


# --- sweep backends ------------------------------------------------------------------


def _runs_of_every_shape(seed):
    """``_runs_of_a_transition`` on a 4000-node planted transition and on
    random float-weight graphs."""
    (g0, _), (g1, _) = _planted(seed, nodes=4000, steps=2, churn=0.05, migrate=0.03)
    rng = np.random.default_rng(seed)
    graphs = [(g0, g1)]
    for _ in range(10):
        n = int(rng.integers(50, 400))
        u, v = rng.integers(0, n, size=(2, 4 * n))
        edges = list(zip(u.tolist(), v.tolist(), (rng.random(4 * n) * 3).tolist()))
        g = build_graph(edges, nodes=range(n))
        graphs.append((g, g))
    return [run for g_t, g_t1 in graphs for run in _runs_of_a_transition(g_t, g_t1, seed)]


def _runs_of_a_transition(g_t, g_t1, seed):
    """Labels and report repr of a static run on ``g_t`` and of dynamic runs
    on ``g_t1`` from it, in both node orders."""
    out = []
    for order in ("index", "shuffled"):
        cfg = LouvainConfig(rng_seed=seed, node_order=order)
        part, report = louvain_static(g_t, cfg)
        out.append((part.labels.tolist(), repr(report)))
        prev = renumber_partition(part)
        for p, q in ((0.0, 0.0), (0.5, 0.25), (0.0, 1.0), (1.0, 1.0)):
            part, report = louvain_dynamic(g_t1, DynamicContext.from_previous(prev, g_t1, p, q, seed), cfg)
            out.append((part.labels.tolist(), repr(report)))
    return out


def _by_body(monkeypatch, runs):
    """``runs()`` under each body of this machine, with every Louvain kernel
    switched together: the sweep, the community sums and the aggregation."""
    backends = sweep_backends()
    if len(backends) < 2:
        pytest.skip("only the Python sweep is available")
    out = {}
    for name, sweep in backends.items():
        sums, project = agg_backends()[name]
        monkeypatch.setattr(louvain, "_sweep", sweep)
        monkeypatch.setattr(louvain, "_sums", sums)
        monkeypatch.setattr("commtrack.graph._project", project)
        out[name] = runs()
    return out


def test_sweep_backends_are_bit_identical(monkeypatch):
    # labels, every LevelStats field and final_q, compared through repr,
    # which round-trips every float bit
    runs = _by_body(monkeypatch, lambda: [_runs_of_every_shape(seed) for seed in (1, 2)])
    assert runs["c"] == runs["python"]


def test_sweep_backends_are_bit_identical_on_an_lfr_graph(lfr, monkeypatch):
    g = lfr[0]
    runs = _by_body(monkeypatch, lambda: _runs_of_a_transition(g, g, seed=1))
    assert runs["c"] == runs["python"]


@st.composite
def _sweep_calls(draw):
    """One level for a ``_sweep`` call: a small graph with integer or float
    weights, loops and repeats, random slots with their sums, random pref
    and previous-slot marks, and distinct visited nodes in random order."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    weight = draw(st.sampled_from([st.just(1.0), st.integers(1, 4).map(float), st.floats(0.001, 4.0)]))
    g = build_graph(draw(st.lists(st.tuples(node, node, weight), max_size=30)), nodes=range(n))
    if draw(st.booleans()):  # singletons, as a static run starts: equal scores are common
        c, slot = n, np.arange(n, dtype=np.int64)
    else:
        c = draw(st.integers(1, n + 2))
        slot = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), dtype=np.int64)
    marks = (draw(st.lists(st.booleans(), min_size=k, max_size=k)) for k in (n, c))
    pref, is_prev = (np.array(m, dtype=np.uint8) for m in marks)
    visit = np.array(draw(st.permutations(range(n)))[:draw(st.integers(0, n))], dtype=np.int64)
    return g, slot, c, pref, is_prev, visit


_TIE = np.zeros(3, dtype=np.uint8)  # node 0's two neighbours score alike: the smaller slot must win


@pytest.mark.skipif(len(sweep_backends()) < 2, reason="only the Python sweep is available")
@settings(max_examples=300, deadline=None)
@given(_sweep_calls())
@example((build_graph([(0, 1), (0, 2)], nodes=range(3)), np.arange(3), 3, _TIE, _TIE, np.arange(3)))
# node 0's row reaches slots 0, 1 and 2, every slot of the level, then slot 2
# again: the compiled sweep stores that repeat in touched[c]
@example((build_graph([(0, v, float(v)) for v in range(1, 5)], nodes=range(5)), np.array([0, 0, 1, 2, 2]), 3,
          np.zeros(5, dtype=np.uint8), np.zeros(3, dtype=np.uint8), np.arange(5)))
# every entry of node 0's row lies in its own slot
@example((build_graph([(0, 1, 0.5), (0, 2, 1 / 3)], nodes=range(3)), np.zeros(3, dtype=np.int64), 1,
          np.zeros(3, dtype=np.uint8), np.zeros(1, dtype=np.uint8), np.arange(3)))
def test_sweep_bodies_agree_call_by_call(call):
    # two sweeps of one level: all of the level's visit list, then in the same
    # order those the first marked active; moves, the active mask and the
    # slots and sums left behind must agree bit for bit
    g, slot, c, pref, is_prev, visit = call
    com_in, com_tot = louvain._sums_py(g, slot, c)
    two_m = g.total_weight_2m
    runs = {}
    for name, sweep in sweep_backends().items():
        lv = louvain._Level(g, slot.copy(), com_in.copy(), com_tot.copy(), pref, is_prev,
                            two_m, louvain.MIN_GAIN * two_m * two_m / 2.0)
        order, runs[name] = visit, []
        for _ in range(2):
            moved, active = sweep(order, lv)
            runs[name].append((moved, active.tobytes(), *(a.tobytes() for a in (lv.node_slot, lv.com_in, lv.com_tot))))
            order = order[active[order] != 0]
    assert runs["c"] == runs["python"]


SRC = str(Path(louvain.__file__).resolve().parents[1])
KERNEL_PROBE = "import commtrack.louvain as louvain; print(louvain.KERNEL)"


def _python(args, **env):
    """Run the interpreter on ``args`` with warnings as errors and the package
    on the path; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args], env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_bound_kernels_are_the_ones_the_wrappers_call():
    # _bind types each kernel from its definition in _native.c; a definition
    # its pattern misses would go untyped, so the kernels it finds must be
    # exactly those the _x_c wrappers call
    import re

    defs = _native._KERNEL_DEF.findall(_native._SOURCE.read_text(encoding="utf-8"))
    wrappers = "".join(p.read_text(encoding="utf-8") for p in _native._SOURCE.parent.glob("*.py"))
    called = set(re.findall(r"_native\.call\(\"(commtrack_\w+)\"", wrappers))
    assert sorted(name for _, name, _ in defs) == sorted(called) and len(called) == 8
    if _native.LIB is not None:
        for _, name, params in defs:
            assert len(getattr(_native.LIB, name).argtypes) == params.count(",") + 1


def test_a_failed_build_leaves_no_file_and_reports_the_compiler(tmp_path, monkeypatch):
    def failing_link(cmd, **kwargs):  # a linker that fails removes its output
        os.unlink(cmd[cmd.index("-o") + 1])
        raise subprocess.CalledProcessError(1, cmd)
    monkeypatch.setattr(subprocess, "run", failing_link)
    with pytest.raises(subprocess.CalledProcessError):
        _native._compile(str(tmp_path / "lib.so"))
    assert os.listdir(tmp_path) == []


def test_kernel_fallback_and_cache(tmp_path, monkeypatch):
    (g, _), = _planted(5, nodes=1000)
    graph = tmp_path / "g.tsv"
    write_edge_tsv(g, graph)

    # no compiler and an empty cache: the Python sweep runs, silently, and
    # detect writes the bytes the kernel writes
    no_cc = {"CC": "false", "XDG_CACHE_HOME": str(tmp_path / "empty")}
    assert _python(["-c", KERNEL_PROBE], **no_cc) == (0, "python\n", "")
    code, out, err = _python(["-m", "commtrack.cli", "--help"], **no_cc)
    assert (code, out.startswith("usage:"), err) == (0, True, "")
    runs = {}
    for name, env in (("python", no_cc), ("kernel", {})):
        part_file = tmp_path / f"{name}.tsv"
        detect = ["-m", "commtrack.cli", "detect", "--graph", str(graph), "--seed", "1", "-o", str(part_file)]
        runs[name] = _python(detect, **env), part_file.read_bytes()
    assert runs["python"] == runs["kernel"]
    assert runs["python"][0][0] == 0

    # sweep too, in both node orders: every column but the runtime is
    # byte-identical, and so are the exit code, stdout and stderr
    snapshots = [tmp_path / f"t{k}.tsv" for k in range(2)]
    for (g_k, _), path in zip(_planted(6, nodes=1000, steps=2, churn=0.1, migrate=0.05), snapshots):
        write_edge_tsv(g_k, path)
    sweep_csv = tmp_path / "sweep.csv"
    for order in ("index", "shuffled"):
        sweeps = {}
        for name, env in (("python", no_cc), ("kernel", {})):
            sweep = ["-m", "commtrack.cli", "sweep", "--graph-t", str(snapshots[0]), "--graph-t1",
                     str(snapshots[1]), "--p", "0,50,100", "--q", "0,50", "--seeds", "1..2",
                     "--order", order, "-o", str(sweep_csv)]
            result = _python(sweep, **env)
            rows = sweep_csv.read_text(encoding="utf-8").splitlines()
            sweeps[name] = result, [row.rsplit(",", 1)[0] for row in rows]
        assert sweeps["python"] == sweeps["kernel"]
        assert sweeps["python"][0][0] == 0 and len(sweeps["python"][1]) == 1 + 3 * 2 * 2

    # ingest too: every rejection reason, decided in C or deferred to the
    # validator, in an order that tests the report's insertion order; the
    # --max-rejected failure prints that report
    cdr = tmp_path / "calls.csv"
    cdr.write_text("\n".join([
        "origin,target,timestamp,kind,duration_s",
        "a,b,2012-03-05T10:00:00,call,-5",       # bad_duration, deferred
        "a,b,2012-03-05T10:00:00",               # field_count
        "b,a,2012-03-05T10:00:00,sms,0",
        "a,b,2012-03-05T10:00:00,call,7",
        "a,b,2012-03-05T10:00:00,sms,+3",        # sms_nonzero_duration, deferred
        "a,\u00e9,2012-03-05T10:00:00,call,1",
        "\u00e9,a,2012-03-05 10:00:00,call,1",
        ",b,2012-03-05T10:00:00,call,1",         # empty_id
        "c,c,2012-03-05T10:00:00,call,1",        # self_record
        "a,b,2012-02-30T10:00:00,call,1",        # bad_timestamp
        "a,b,yesterday,call,1",
        "a,b,2012-03-05T10:00:00,fax,1",         # bad_kind
        "a,b,2012-03-05T10:00:00,call,soon",
        "a,b,2012-03-05T10:00:00,sms,12",
        "",
        "b,c,2011-03-05T10:00:00,call,1",
    ]) + "\n", encoding="utf-8")
    ingests = {}
    for name, env in (("python", no_cc), ("kernel", {})):
        for limit in ([], ["--max-rejected", "0"]):
            graph_file = tmp_path / "social.tsv"
            graph_file.unlink(missing_ok=True)
            ingest = ["-m", "commtrack.cli", "ingest", "--cdr", str(cdr), "--month", "2012-03", *limit,
                      "-o", str(graph_file)]
            result = _python(ingest, **env)
            ingests[name, bool(limit)] = result, graph_file.read_bytes() if graph_file.exists() else None
    for limited in (False, True):
        assert ingests["python", limited] == ingests["kernel", limited]
    assert ingests["python", False][0][0] == 0 and ingests["python", False][1]
    assert ingests["python", True][0][0] == 2 and ingests["python", True][1] is None
    assert "reasons: {'bad_duration': 2, 'field_count': 1, 'sms_nonzero_duration': 2," in ingests["python", True][0][2]

    # a cold cache gets the library; a corrupt file at the cache path is
    # rebuilt when a compiler exists, and never loaded when none does; every
    # build leaves the library alone, with no temporary file
    cache_home = str(tmp_path / "cache")
    monkeypatch.setenv("XDG_CACHE_HOME", cache_home)
    path = Path(_native.cache_path())
    if louvain.KERNEL == "c":
        assert _python(["-c", KERNEL_PROBE], XDG_CACHE_HOME=cache_home) == (0, "c\n", "")
        assert os.listdir(path.parent) == [path.name]
        path.write_bytes(b"not a shared library")
        assert _python(["-c", KERNEL_PROBE], XDG_CACHE_HOME=cache_home) == (0, "c\n", "")
        assert path.read_bytes()[:4] == b"\x7fELF"
        assert os.listdir(path.parent) == [path.name]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a shared library")
    assert _python(["-c", KERNEL_PROBE], CC="false", XDG_CACHE_HOME=cache_home) == (0, "python\n", "")
    assert os.listdir(path.parent) == [path.name]
