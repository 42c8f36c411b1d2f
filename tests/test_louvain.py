"""Optimizer behavior: gains, seeding, pinning, steering, termination."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commtrack.louvain as louvain
from commtrack.errors import InputError
from commtrack.graph import IdMap, Partition, build_graph
from commtrack.louvain import (
    DynamicContext,
    LouvainConfig,
    derive_seed,
    louvain_dynamic,
    louvain_static,
    modularity,
    renumber_partition,
    round_half_up,
    seeded_init,
)
from commtrack.metrics import compare
from commtrack.synth import SynthSpec, generate

from oracles import (
    canonical_blocks,
    oracle_renumber,
    oracle_sweep,
    random_churned_ids,
    random_graph,
    random_labels,
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
    with pytest.raises(InputError):
        sample(pop, 1.2, seed=0)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)


# --- level-1 sweep vs full recomputation ------------------------------------------


def test_level_one_sweep_matches_oracle():
    # pinned, preferential and shuffled-order nodes in one production sweep;
    # criterion 02 covers the plain rule on more cases. Every other case is a
    # simple unit-weight graph started from singletons, where equal scores are
    # common and test the tie-break.
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
        keys, stats = louvain._one_level(
            g, np.asarray(labels, dtype=np.int64), movable, pref, frozenset(prev),
            cfg, random.Random(cfg.rng_seed), 1,
        )
        order = list(range(n))
        random.Random(cfg.rng_seed).shuffle(order)
        want, moves, steered = oracle_sweep(n, edges, labels, movable, order, louvain.MIN_GAIN, pref, prev)
        assert keys.tolist() == want
        q_after = stats.sweep_q[0] if stats.sweep_q else stats.q_start
        assert q_after - stats.q_start == pytest.approx(sum(m[2] for m in moves), abs=1e-12)
        restricted += steered
        done += 1
    assert restricted > 0


def test_equal_scores_go_to_smallest_key():
    # node 7's best candidates, the communities of nodes 6 and 8, score the
    # same in exact arithmetic; a score computed as w - k * tot / 2m splits
    # them by rounding and picks label 8
    edges = [(0, 1), (0, 2), (0, 5), (0, 7), (0, 8), (1, 7), (1, 8), (2, 4), (2, 5),
             (2, 7), (3, 4), (4, 6), (5, 6), (6, 7)]
    edges = [(u, v, 1.0) for u, v in edges]
    n = 10
    g = build_graph(edges, nodes=range(n))
    cfg = LouvainConfig(max_passes_per_level=1, node_order="shuffled", rng_seed=5)
    keys, _ = louvain._one_level(
        g, np.arange(n, dtype=np.int64), [True] * n, None, frozenset(),
        cfg, random.Random(cfg.rng_seed), 1,
    )
    order = list(range(n))
    random.Random(cfg.rng_seed).shuffle(order)
    want, _, _ = oracle_sweep(n, edges, list(range(n)), [True] * n, order, louvain.MIN_GAIN)
    assert want[7] == 6
    assert keys.tolist() == want


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
        assert ctx.prev_labels == frozenset(prev_labels)


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
        seeded_init(Partition(g.ids, np.array([0, 1])), g_next, fresh_label_start=2**63)


def test_seeded_init_matches_context():
    g0 = two_triangles()
    prev, _ = louvain_static(g0)
    g1 = build_graph([(0, 1), (5, 7)], nodes=[0, 1, 5, 7])
    init = seeded_init(prev, g1)
    assert init.label_of(0) == prev.label_of(0)
    assert init.label_of(5) == prev.label_of(5)
    fresh = init.label_of(7)
    assert fresh not in prev.labels_set


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
        sta, _ = louvain_static(g1, cfg, init=seeded_init(prev, g1))
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


def test_pref_restriction_only_targets_previous_labels(monkeypatch):
    # test_level_one_sweep_matches_oracle checks that steered nodes only pick
    # previous labels; here, the steering reaches level 1 and no level above
    real = louvain._one_level
    seen = []

    def spy(lg, keys, movable, pref_flags, prev_labels, cfg, rng, level):
        seen.append((level, pref_flags, prev_labels))
        return real(lg, keys, movable, pref_flags, prev_labels, cfg, rng, level)

    monkeypatch.setattr(louvain, "_one_level", spy)
    for seed in range(6):
        g0, g1 = _drifting_pair(seed, n=60, k=5)
        prev = renumber_partition(louvain_static(g0)[0])
        ctx = DynamicContext.from_previous(prev, g1, 0.0, 1.0, seed=seed)
        seen.clear()
        louvain_dynamic(g1, ctx)
        assert len(seen) > 1
        level, pref_flags, prev_labels = seen[0]
        assert level == 1 and prev_labels == ctx.prev_labels
        assert pref_flags == [True] * g1.n
        assert all(flags is None for _, flags, _ in seen[1:])


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

    def spy(lg, keys, movable, *rest):
        out, stats = real(lg, keys, movable, *rest)
        if stats.level == 1:
            seen.update(init=np.array(keys), keys=np.array(out), movable=np.array(movable), stats=stats)
        return out, stats

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
        singletons = Partition.singletons(g)
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
