"""Timeline orchestration: bootstrap, stepping, lineage, persistence."""

import numpy as np
import pytest

import commtrack.tracker as tracker
from commtrack.errors import InputError
from commtrack.graph import build_graph, read_edge_tsv, write_edge_tsv
from commtrack.louvain import LouvainConfig, modularity
from commtrack.metrics import MatchConfig
from commtrack.synth import SynthSpec, generate
from commtrack.tracker import (
    bootstrap,
    derive_step_seed,
    load_timeline,
    save_timeline,
    step,
)

from oracles import best_partition_exhaustive, canonical_blocks


def two_triangles():
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], nodes=range(6))


def test_bootstrap_empty_graph():
    tl = bootstrap(build_graph([]))
    assert tl.last.partition.n == 0
    assert tl.label_counter == 0
    assert tl.history == []


def test_bootstrap_two_triangles_matches_exhaustive_optimum():
    g = two_triangles()
    tl = bootstrap(g)
    part = tl.last.partition
    best_q, best_blocks = best_partition_exhaustive(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    )
    assert canonical_blocks(part.labels.tolist()) == [tuple(sorted(b)) for b in sorted(map(sorted, best_blocks))]
    assert sorted(part.labels_set) == [0, 1]
    assert tl.label_counter == 2


def test_bootstrap_determinism():
    g = two_triangles()
    t1 = bootstrap(g, LouvainConfig(rng_seed=5))
    t2 = bootstrap(g, LouvainConfig(rng_seed=5))
    assert t1.last.partition == t2.last.partition


def _drift_sequence(seed=8, steps=3):
    spec = SynthSpec(n_nodes=90, n_communities=6, p_in=0.4, p_out=0.02,
                     churn_rate=0.1, migrate_rate=0.1, steps=steps, seed=seed)
    return [g for g, _ in generate(spec)]


def test_step_identical_graph_p1_keeps_partition():
    g = two_triangles()
    tl = bootstrap(g)
    prev = tl.last.partition
    step(tl, g, p=1.0, q=0.0, seed=3)
    assert tl.last.partition == prev
    report = tl.history[-1]
    assert report.n_matching == len(prev.labels_set)


def test_step_disjoint_node_sets_aborts_cleanly():
    g = two_triangles()
    tl = bootstrap(g)
    other = build_graph([(10, 11)], nodes=[10, 11])
    with pytest.raises(InputError):
        step(tl, other, p=0.0, q=0.0, seed=1)
    assert len(tl.steps) == 1
    assert tl.history == []
    assert tl.events == []


def test_step_on_empty_timeline_rejected():
    from commtrack.tracker import Timeline

    with pytest.raises(InputError):
        step(Timeline(), two_triangles(), 0.0, 0.0, 0)


def test_history_and_events_lengths():
    graphs = _drift_sequence()
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=1))
    for i, g in enumerate(graphs[1:], start=1):
        step(tl, g, p=0.5, q=0.1, seed=derive_step_seed(42, i))
    assert len(tl.history) == len(tl.steps) - 1
    assert len(tl.events) == len(tl.steps) - 1
    for report in tl.history:
        assert report.mi_nats >= 0.0
        assert report.modularity_next is not None


def test_fixed_nodes_hold_across_each_step():
    graphs = _drift_sequence(seed=12)
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=2))
    for i, g in enumerate(graphs[1:], start=1):
        prev = tl.last.partition
        step(tl, g, p=0.6, q=0.0, seed=derive_step_seed(7, i))
        cur = tl.last.partition
        ev = tl.events[-1]
        assert ev.n_fixed == len(ev.fixed_ids)
        for x in ev.fixed_ids:
            assert cur.label_of(x) == prev.label_of(x)


def test_label_freshness_monotone():
    graphs = _drift_sequence(seed=30, steps=4)
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=3))
    seen_at: dict = {}
    for k, st in enumerate(tl.steps):
        for lab in st.partition.labels_set:
            seen_at.setdefault(lab, k)
    for i, g in enumerate(graphs[1:], start=1):
        counter_before = tl.label_counter
        step(tl, g, p=0.3, q=0.2, seed=derive_step_seed(9, i))
        new_labels = tl.last.partition.labels_set
        for lab in new_labels:
            first = seen_at.setdefault(lab, len(tl.steps) - 1)
            # a label first seen now must be fresh (>= counter before the step)
            if first == len(tl.steps) - 1:
                assert lab >= counter_before
    # origin bookkeeping agrees with first appearance
    for lab, first in seen_at.items():
        assert tl.label_origins[lab] == first


def test_births_and_deaths_are_unmatched_labels():
    graphs = _drift_sequence(seed=14)
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=4))
    prev_labels = tl.last.partition.labels_set
    step(tl, graphs[1], p=0.0, q=0.0, seed=5)
    ev = tl.events[-1]
    report = tl.history[-1]
    matched_prev = {a for a, _ in report.matching}
    matched_next = {b for _, b in report.matching}
    next_labels = tl.last.partition.labels_set
    assert set(ev.deaths) == prev_labels - next_labels - matched_prev
    assert set(ev.births) == next_labels - prev_labels - matched_next


def test_save_load_roundtrip(tmp_path):
    graphs = _drift_sequence(seed=19)
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=6))
    for i, g in enumerate(graphs[1:], start=1):
        step(tl, g, p=0.4, q=0.1, seed=derive_step_seed(3, i),
             match_cfg=MatchConfig(0.51))
    d = tmp_path / "tl"
    save_timeline(tl, d)
    clone = load_timeline(d)
    assert len(clone.steps) == len(tl.steps)
    assert clone.label_counter == tl.label_counter
    assert clone.history == tl.history
    for a, b in zip(tl.steps, clone.steps):
        assert a.snapshot_id == b.snapshot_id
        assert set(a.graph.ids.ids) == set(str(x) for x in b.graph.ids.ids)
        for x in a.partition.ids.ids:
            assert a.partition.label_of(x) == b.partition.label_of(str(x))
    for ea, eb in zip(tl.events, clone.events):
        assert (ea.step_index, ea.births, ea.deaths, ea.n_fixed, ea.n_pref) == (
            eb.step_index, eb.births, eb.deaths, eb.n_fixed, eb.n_pref)
    assert {int(k) for k in clone.label_origins} == set(tl.label_origins)


def test_load_missing_directory_rejected(tmp_path):
    with pytest.raises(InputError):
        load_timeline(tmp_path / "nothing_here")


def test_derive_step_seed_stable():
    assert derive_step_seed(5, 1) == derive_step_seed(5, 1)
    assert derive_step_seed(5, 1) != derive_step_seed(5, 2)


# --- write-once persistence -------------------------------------------------------


def _stored_sequence(tmp_path, seed=21, steps=4):
    """Snapshot graphs as `commtrack track` sees them: read back from TSV, so
    node ids are strings."""
    paths = []
    for k, g in enumerate(_drift_sequence(seed=seed, steps=steps)):
        path = tmp_path / f"in_{k}.graph.tsv"
        write_edge_tsv(g, path)
        paths.append(path)
    return [read_edge_tsv(path) for path in paths]


def _append(d, graphs, k):
    """One `track --add`: load (or bootstrap), step, save."""
    if k == 0:
        tl = bootstrap(graphs[0], LouvainConfig(rng_seed=derive_step_seed(5, 0)))
    else:
        tl = load_timeline(d)
        step(tl, graphs[k], p=0.5, q=0.25, seed=derive_step_seed(5, k),
             cfg=LouvainConfig(rng_seed=derive_step_seed(5, k)))
    save_timeline(tl, d)
    return tl


def _in_memory_timeline(graphs):
    tl = bootstrap(graphs[0], LouvainConfig(rng_seed=derive_step_seed(5, 0)))
    for k in range(1, len(graphs)):
        step(tl, graphs[k], p=0.5, q=0.25, seed=derive_step_seed(5, k),
             cfg=LouvainConfig(rng_seed=derive_step_seed(5, k)))
    return tl


def _edge_set(g):
    return {(min(u, v), max(u, v), w) for u, v, w in g.edges()}


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_append_never_rewrites_committed_steps(tmp_path):
    graphs = _stored_sequence(tmp_path)
    d = tmp_path / "tl"
    seen = {}
    for k in range(len(graphs)):
        _append(d, graphs, k)
        files = _files(d)
        for name, data in seen.items():
            if name.startswith("step_"):
                assert files[name] == data, f"{name} changed at append {k}"
        seen = files
    # the incremental directory equals one save of the same in-memory timeline
    fresh = tmp_path / "fresh"
    save_timeline(_in_memory_timeline(graphs), fresh)
    assert _files(fresh) == _files(d)


def test_load_and_append_read_no_stored_graph(tmp_path, monkeypatch):
    graphs = _stored_sequence(tmp_path, steps=3)
    d = tmp_path / "tl"
    for k in range(2):
        _append(d, graphs, k)
    calls = []
    real_read = tracker.read_edge_tsv
    monkeypatch.setattr(tracker, "read_edge_tsv", lambda path: calls.append(path) or real_read(path))
    _append(d, graphs, 2)
    assert calls == []
    tl = load_timeline(d)
    g0 = tl.steps[0].graph
    assert calls == [d / "step_0.graph.tsv"]
    assert tl.steps[0].graph is g0
    assert _edge_set(g0) == _edge_set(graphs[0])
    # once read, the graph indexes its step's partition, as in memory
    built = _in_memory_timeline(graphs)
    for st, ref in zip(tl.steps, built.steps):
        assert st.partition.covers(st.graph)
        assert modularity(st.graph, st.partition) == pytest.approx(modularity(ref.graph, ref.partition))


def test_stored_graph_not_covered_by_partition_rejected(tmp_path):
    graphs = _stored_sequence(tmp_path, steps=2)
    d = tmp_path / "tl"
    _append(d, graphs, 0)
    ppath = d / "step_0.partition.tsv"
    ppath.write_text("".join(ppath.read_text(encoding="utf-8").splitlines(True)[1:]), encoding="utf-8")
    tl = load_timeline(d)
    with pytest.raises(InputError):
        tl.steps[0].graph


def test_save_into_other_directory_writes_every_step(tmp_path):
    graphs = _stored_sequence(tmp_path, steps=3)
    d = tmp_path / "tl"
    for k in range(3):
        _append(d, graphs, k)
    tl = load_timeline(d)
    other = tmp_path / "copy"
    save_timeline(tl, other)
    assert sorted(p.name for p in other.iterdir()) == sorted(p.name for p in d.iterdir())
    clone = load_timeline(other)
    assert clone.history == tl.history
    for a, b in zip(tl.steps, clone.steps):
        assert a.partition == b.partition
        assert _edge_set(a.graph) == _edge_set(b.graph)


def test_save_into_other_directory_keeps_unread_step_bytes(tmp_path):
    graphs = _stored_sequence(tmp_path, steps=2)
    d = tmp_path / "tl"
    for k in range(2):
        _append(d, graphs, k)
    # the same graph in a form write_edge_tsv does not produce: lines reversed,
    # endpoints swapped, weights written as floats
    gpath = d / "step_0.graph.tsv"
    lines = gpath.read_text(encoding="utf-8").splitlines()
    swapped = ["\t".join([f[1], f[0], repr(float(f[2]))]) for f in (ln.split("\t") for ln in lines)]
    gpath.write_text("\n".join(reversed(swapped)) + "\n", encoding="utf-8")
    assert _edge_set(load_timeline(d).steps[0].graph) == _edge_set(graphs[0])
    save_timeline(load_timeline(d), tmp_path / "copy")
    assert _files(tmp_path / "copy") == _files(d)
    # saved elsewhere, then back into the directory its unread graphs live in
    before = _files(d)
    again = load_timeline(d)
    save_timeline(again, tmp_path / "again")
    save_timeline(again, d)
    assert _files(d) == before == _files(tmp_path / "again")


class _Interrupted(OSError):
    pass


def _interrupt_partition_write(monkeypatch):
    def boom(part, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("half a line")
        raise _Interrupted("disk full")
    monkeypatch.setattr(tracker, "write_partition_tsv", boom)


def _interrupt_commit(monkeypatch):
    def boom(src, dst):
        raise _Interrupted("rename failed")
    monkeypatch.setattr(tracker.os, "replace", boom)


@pytest.mark.parametrize("interrupt", [_interrupt_partition_write, _interrupt_commit])
def test_interrupted_append_keeps_last_commit(tmp_path, monkeypatch, interrupt):
    graphs = _stored_sequence(tmp_path)
    clean = tmp_path / "clean"
    for k in range(len(graphs)):
        _append(clean, graphs, k)

    d = tmp_path / "tl"
    for k in range(2):
        _append(d, graphs, k)
    committed = load_timeline(d)
    with monkeypatch.context() as m:
        interrupt(m)
        with pytest.raises(_Interrupted):
            _append(d, graphs, 2)
    tl = load_timeline(d)
    assert len(tl.steps) == 2
    assert tl.history == committed.history
    assert tl.last.partition == committed.last.partition
    # the next appends overwrite what the interrupted one left behind
    for k in range(2, len(graphs)):
        _append(d, graphs, k)
    assert _files(d) == _files(clean)


def test_uncommitted_history_tail_is_ignored(tmp_path):
    graphs = _stored_sequence(tmp_path, steps=3)
    d = tmp_path / "tl"
    for k in range(2):
        _append(d, graphs, k)
    before = _files(d)
    with open(d / "history.jsonl", "ab") as fh:
        fh.write(b'{"mi_nats": 0.')
    (d / "step_2.graph.tsv").write_text("junk\tjunk\tjunk\tjunk\n", encoding="utf-8")
    tl = load_timeline(d)
    assert len(tl.steps) == 2 and len(tl.history) == 1
    save_timeline(tl, d)
    assert (d / "history.jsonl").read_bytes() == before["history.jsonl"]


@pytest.mark.parametrize("text", [
    "",
    '{"n_steps": 2, "snapshot_ids": ["0", ',
    "not json at all",
    "[1, 2, 3]",
    '{"n_steps": 1, "snapshot_ids": ["0"], "label_counter": 2, "events": []}',
    '{"n_steps": 3, "snapshot_ids": ["0"], "label_counter": 2, "events": [], "label_origins": {}}',
])
def test_garbled_meta_rejected(tmp_path, text):
    graphs = _stored_sequence(tmp_path, steps=2)
    d = tmp_path / "tl"
    _append(d, graphs, 0)
    (d / "meta.json").write_text(text, encoding="utf-8")
    with pytest.raises(InputError):
        load_timeline(d)
