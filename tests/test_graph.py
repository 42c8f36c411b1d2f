"""Core graph structure: construction, aggregation, text round-trips."""

import re

import numpy as np
import pytest

from commtrack.errors import InputError
from commtrack.graph import (
    Graph,
    IdMap,
    Partition,
    aggregate_by_partition,
    build_graph,
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from commtrack.louvain import modularity

from oracles import edge_list, oracle_modularity, random_graph, random_labels, singleton_partition


def test_idmap_bijection_and_duplicates():
    m = IdMap(["a", "b", "c"])
    assert len(m) == 3
    assert m.index["b"] == 1
    assert "c" in m and "z" not in m
    with pytest.raises(InputError):
        IdMap(["a", "a"])


def test_build_graph_basic_shape():
    g = build_graph([("a", "b"), ("b", "c", 2.0)])
    assert g.n == 3
    assert g.n_edges == 2
    assert g.total_weight_2m == 6.0
    b = g.ids.index["b"]
    nbrs, wts = g.nbr[g.indptr[b]:g.indptr[b + 1]], g.wgt[g.indptr[b]:g.indptr[b + 1]]
    assert sorted(g.ids.ids[int(v)] for v in nbrs) == ["a", "c"]
    assert sorted(wts.tolist()) == [1.0, 2.0]


def test_build_graph_merges_duplicates_and_orientations():
    g = build_graph([(0, 1, 1.0), (1, 0, 2.0), (0, 1, 0.5)], nodes=range(2))
    assert g.n_edges == 1
    assert g.wgt.tolist() == [3.5, 3.5]
    assert g.total_weight_2m == 7.0


def test_build_graph_self_loops_double_in_degree():
    g = build_graph([(0, 0, 2.0), (0, 1, 1.0)], nodes=range(2))
    assert g.self_loops.tolist() == [2.0, 0.0]
    assert g.degrees.tolist() == [5.0, 1.0]
    assert g.total_weight_2m == 6.0
    assert g.n_edges == 1


def test_build_graph_only_loops():
    g = build_graph([(0, 0, 1.0), (1, 1, 3.0)], nodes=range(2))
    assert g.n_edges == 0
    assert g.wgt.dtype == np.float64
    assert g.total_weight_2m == 8.0


def test_build_graph_rejects_negative_weight():
    with pytest.raises(InputError):
        build_graph([(0, 1, -1.0)])


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_build_graph_rejects_non_finite_weight(w, tmp_path):
    with pytest.raises(InputError):
        build_graph([(0, 1, 1.0), (1, 2, w)])
    path = tmp_path / "g.tsv"
    path.write_text(f"a\tb\t1\nb\tc\t{w}\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_edge_tsv(path)


def test_build_graph_rejects_weight_sum_whose_square_overflows():
    with pytest.raises(InputError, match="overflows"):
        build_graph([("a", "b", 1e308), ("b", "a", 1e308)])
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(InputError, match="overflows"):
        build_graph([(u, v, 1e160) for u, v in triangles])
    assert build_graph([(u, v, 1e150) for u, v in triangles]).total_weight_2m == 1.2e151


def test_isolated_nodes_via_nodes_argument():
    g = build_graph([("a", "b")], nodes=["z", "a", "b"])
    assert g.ids.ids == ["z", "a", "b"]
    assert g.neighbor_counts().tolist() == [0, 1, 1]


def test_first_seen_order_is_deterministic():
    g1 = build_graph([("x", "y"), ("y", "z")])
    g2 = build_graph([("x", "y"), ("y", "z")])
    assert g1.ids == g2.ids
    assert np.array_equal(g1.nbr, g2.nbr)


def test_partition_singletons_and_from_mapping(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    p = singleton_partition(g)
    assert p.labels.tolist() == [0, 1, 2]
    q = Partition(g.ids, np.array([5, 5, 9]))
    assert q.label_of("a") == 5 and q.label_of("c") == 9
    assert q.labels.tolist() == [5, 5, 9]
    # a partition file read against a graph is aligned to the graph's ids
    path = tmp_path / "p.tsv"
    path.write_text("c\t9\na\t5\nb\t5\n", encoding="utf-8")
    assert read_partition_tsv(path, graph=g) == q
    path.write_text("a\t1\nb\t1\n", encoding="utf-8")  # partial cover
    with pytest.raises(InputError, match="covers 2 of 3 nodes"):
        read_partition_tsv(path, graph=g)
    path.write_text("a\t1\nb\t1\nnope\t2\n", encoding="utf-8")
    with pytest.raises(InputError, match="unknown node 'nope'"):
        read_partition_tsv(path, graph=g)
    path.write_text("a\t1\nnope\t2\n", encoding="utf-8")  # an unknown node is named before the count
    with pytest.raises(InputError, match="unknown node 'nope'"):
        read_partition_tsv(path, graph=g)


def test_partition_covers_and_equality():
    g = build_graph([("a", "b")])
    h = build_graph([("a", "b")])
    p = Partition(g.ids, np.array([0, 0]))
    assert p.covers(g) and p.covers(h)
    assert p == Partition(h.ids, np.array([0, 0]))
    assert p != Partition(h.ids, np.array([0, 1]))


# --- known modularity values (worked out by hand and by the dense oracle) ----


def two_triangles():
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], nodes=range(6))


def test_modularity_one_community_is_zero():
    g = two_triangles()
    assert modularity(g, Partition(g.ids, np.zeros(6, dtype=np.int64))) == pytest.approx(0.0, abs=1e-15)


def test_modularity_two_triangles_half():
    g = two_triangles()
    p = Partition(g.ids, np.array([0, 0, 0, 1, 1, 1]))
    assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)


def test_modularity_triangle_singletons():
    g = build_graph([(0, 1), (1, 2), (0, 2)], nodes=range(3))
    assert modularity(g, singleton_partition(g)) == pytest.approx(-1.0 / 3.0, abs=1e-12)


# --- aggregation ---------------------------------------------------------------


def test_aggregate_two_triangles_collapses_to_loops():
    g = two_triangles()
    p = Partition(g.ids, np.array([0, 0, 0, 1, 1, 1]))
    agg = aggregate_by_partition(g, p)
    assert agg.n == 2
    assert agg.ids.ids == [0, 1]
    assert agg.self_loops.tolist() == [3.0, 3.0]
    assert agg.n_edges == 0
    assert agg.total_weight_2m == g.total_weight_2m


def test_aggregate_keeps_crossing_weight():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], nodes=range(4))
    p = Partition(g.ids, np.array([10, 10, 20, 20]))
    agg = aggregate_by_partition(g, p)
    assert agg.ids.ids == [10, 20]
    # internal: (0,1) and (2,3); crossing: (1,2), (3,0), (0,2)
    assert agg.self_loops.tolist() == [1.0, 1.0]
    nbrs, wts = agg.nbr[agg.indptr[0]:agg.indptr[1]], agg.wgt[agg.indptr[0]:agg.indptr[1]]
    assert nbrs.tolist() == [1] and wts.tolist() == [3.0]
    assert agg.total_weight_2m == g.total_weight_2m


def test_aggregate_weights_are_bitwise_symmetric():
    # float weights summed in two orders can differ in the last bit; the two
    # stored orientations of a supernode pair must not
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 150))
        edges = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.random())) for _ in range(m)]
        g = build_graph(edges, nodes=range(n))
        agg = aggregate_by_partition(g, Partition(g.ids, rng.integers(0, 4, size=n)))
        rows = np.repeat(np.arange(agg.n), np.diff(agg.indptr))
        w = dict(zip(zip(rows.tolist(), agg.nbr.tolist()), agg.wgt.tolist()))
        assert all(w[(v, u)] == x for (u, v), x in w.items())


def test_aggregate_preserves_modularity_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n, edges = random_graph(rng)
        g = build_graph(edges, nodes=range(n))
        labels = np.asarray(random_labels(rng, n), dtype=np.int64)
        part = Partition(g.ids, labels)
        q1 = modularity(g, part)
        agg = aggregate_by_partition(g, part)
        q2 = modularity(agg, singleton_partition(agg))
        assert q2 == pytest.approx(q1, abs=1e-12)


def test_aggregate_matches_oracle_total_weight():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, edges = random_graph(rng)
        g = build_graph(edges, nodes=range(n))
        labels = random_labels(rng, n)
        agg = aggregate_by_partition(g, Partition(g.ids, np.asarray(labels)))
        assert agg.total_weight_2m == pytest.approx(g.total_weight_2m, abs=1e-9)


def test_aggregate_rejects_foreign_partition():
    g = two_triangles()
    other = build_graph([(0, 1)], nodes=range(2))
    with pytest.raises(InputError):
        aggregate_by_partition(g, singleton_partition(other))


# --- text round-trips -----------------------------------------------------------


def test_edge_tsv_roundtrip(tmp_path):
    g = build_graph(
        [("a", "b", 2.0), ("b", "c", 1.0), ("d", "d", 1.5)], nodes=["a", "b", "c", "d", "lonely"]
    )
    path = tmp_path / "g.tsv"
    write_edge_tsv(g, path)
    h = read_edge_tsv(path)
    assert set(h.ids.ids) == {"a", "b", "c", "d", "lonely"}
    assert sorted(edge_list(h)) == sorted(edge_list(g))
    assert h.total_weight_2m == g.total_weight_2m


def test_edge_tsv_comments_and_default_weight(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# header\na\tb\nb\tc\t2\n\nloner\n", encoding="utf-8")
    g = read_edge_tsv(path)
    assert g.n == 4
    assert ("b", "c", 2.0) in edge_list(g)
    assert g.neighbor_counts()[g.ids.index["loner"]] == 0


def test_edge_tsv_bad_inputs(tmp_path):
    p1 = tmp_path / "bad1.tsv"
    p1.write_text("a\tb\tnotanumber\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_edge_tsv(p1)
    p2 = tmp_path / "bad2.tsv"
    p2.write_text("a\tb\t1\t2\t3\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_edge_tsv(p2)


def test_partition_tsv_roundtrip(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    part = Partition(g.ids, np.array([1, 1, 2]))
    path = tmp_path / "p.tsv"
    write_partition_tsv(part, path)
    aligned = read_partition_tsv(path, graph=g)
    assert aligned == part
    standalone = read_partition_tsv(path)
    assert standalone.label_of("c") == 2


def test_partition_tsv_rejects_duplicates_and_bad_labels(tmp_path):
    p1 = tmp_path / "dup.tsv"
    p1.write_text("a\t1\na\t2\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_partition_tsv(p1)
    p2 = tmp_path / "bad.tsv"
    p2.write_text("a\tx\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_partition_tsv(p2)


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1, 10**20])
def test_partition_tsv_rejects_labels_outside_int64(tmp_path, label):
    path = tmp_path / "p.tsv"
    path.write_text(f"a\t{2**63 - 1}\nb\t{-(2**63)}\n", encoding="utf-8")
    assert read_partition_tsv(path).labels.tolist() == [2**63 - 1, -(2**63)]
    path.write_text(f"a\t1\nb\t{label}\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}:2: label {str(label)!r} is outside")):
        read_partition_tsv(path)


@pytest.mark.parametrize("bad", ["", "a\tb", "a\rb", "a\nb", "#a"])
def test_tsv_writers_reject_ids_that_do_not_read_back(tmp_path, bad):
    g = build_graph([("x", bad), ("x", "y")])
    for write, obj in ((write_edge_tsv, g), (write_partition_tsv, singleton_partition(g))):
        path = tmp_path / "out.tsv"
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            write(obj, path)
        assert not path.exists()


def test_tsv_writers_keep_ids_with_inner_hash_and_spaces(tmp_path):
    g = build_graph([("a#b", " s "), ("a#b", "x")], nodes=["lone "])
    write_edge_tsv(g, tmp_path / "g.tsv")
    write_partition_tsv(singleton_partition(g), tmp_path / "p.tsv")
    assert read_edge_tsv(tmp_path / "g.tsv").ids == g.ids
    assert read_partition_tsv(tmp_path / "p.tsv").ids == g.ids


def test_modularity_matches_oracle_small_random():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n, edges = random_graph(rng)
        g = build_graph(edges, nodes=range(n))
        labels = random_labels(rng, n)
        got = modularity(g, Partition(g.ids, np.asarray(labels)))
        want = oracle_modularity(n, edges, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_subgraph_matches_build_graph_on_kept_edges():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n, edges = random_graph(rng)
        g = build_graph([(f"v{u}", f"v{v}", w) for u, v, w in edges], nodes=[f"v{u}" for u in range(n)])
        keep = rng.random(g.n) < rng.random()
        sub = g.subgraph(keep)
        kept = [x for x, k in zip(g.ids.ids, keep) if k]
        want = build_graph([(u, v, w) for u, v, w in edge_list(g) if u in kept and v in kept], nodes=kept)
        assert sub.ids.ids == want.ids.ids
        for got_a, want_a in zip((sub.indptr, sub.nbr, sub.wgt, sub.self_loops),
                                 (want.indptr, want.nbr, want.wgt, want.self_loops)):
            assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a)
        assert sub.total_weight_2m == want.total_weight_2m


def test_subgraph_rejects_mask_of_wrong_length():
    g = build_graph([("a", "b")])
    with pytest.raises(InputError):
        g.subgraph(np.ones(3, dtype=bool))
