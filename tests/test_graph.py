"""Core graph structure: construction, aggregation, text round-trips."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import commtrack.graph as graph
import commtrack.louvain as louvain
from commtrack.errors import InputError, InternalInvariantError
from commtrack.graph import (
    Graph,
    IdMap,
    Partition,
    aggregate_by_partition,
    build_graph,
    graph_from_edges,
    project,
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from commtrack.louvain import modularity
from commtrack.synth import SynthSpec, generate

from oracles import (
    agg_backends,
    build_backends,
    edge_list,
    graph_bytes,
    oracle_build_graph,
    oracle_modularity,
    random_graph,
    random_labels,
    singleton_partition,
)


def test_idmap_bijection_and_duplicates():
    m = IdMap(["a", "b", "c"])
    assert len(m) == 3
    assert m.index["b"] == 1
    assert "c" in m and "z" not in m
    with pytest.raises(InputError):
        IdMap(["a", "a"])


def test_idmap_positions_remembers_its_last_join():
    # a repeated join of one list object returns the remembered, read-only
    # result; any other list, even an equal one, is joined afresh
    m = IdMap(["a", 3, "c", ("t", 1)])

    def fresh(ids):
        return np.fromiter((m.index.get(x, -1) for x in ids), dtype=np.int64, count=len(ids))

    first = ["c", "zz", 3, ("t", 1), "a", 4]
    second = [3, "a", "missing"]
    pos = m.positions(first)
    assert pos.tolist() == fresh(first).tolist() == [2, -1, 1, 3, 0, -1]
    assert m.positions(first) is pos and pos.dtype == np.int64
    assert not pos.flags.writeable
    with pytest.raises(ValueError):
        pos[0] = 7
    equal = list(first)
    again = m.positions(equal)
    assert again is not pos and again.tolist() == pos.tolist()
    for ids in (first, second, first, second, second, equal, []):
        got = m.positions(ids)
        assert got.tolist() == fresh(ids).tolist() and not got.flags.writeable
    assert m.positions(second).tolist() == [1, 0, -1]
    assert IdMap([]).positions(second).tolist() == [-1, -1, -1]


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


# the path 0 - 1 - 2 with a self-loop on 1: indptr, nbr, wgt, self_loops
_PATH = ([0, 1, 3, 4], [1, 0, 2, 1], [1.0, 1.0, 2.0, 2.0], [0.0, 0.5, 0.0])


@pytest.mark.parametrize(
    "field, value",
    [
        (0, [0, 1, 3]),  # indptr of the wrong length
        (0, [0, 1, 3, 4, 4]),
        (0, [1, 1, 3, 4]),  # not starting at 0
        (0, [0, 3, 1, 4]),  # decreasing
        (0, [0, 1, 3, 3]),  # last entry not len(nbr)
        (0, [0, 1, 3, 5]),
        (1, [1, 0, 3, 1]),  # a neighbour outside [0, n)
        (1, [1, -1, 2, 1]),
        (2, [1.0, 1.0, 2.0]),  # wgt of the wrong length
        (3, [0.0, 0.5]),  # self_loops of the wrong length
        (3, [0.0, 0.5, 0.0, 0.0]),
    ],
)
def test_graph_rejects_an_invalid_csr(field, value):
    arrays = [np.array(a) for a in _PATH]
    arrays[field] = np.array(value)
    with pytest.raises(InternalInvariantError, match="not a valid CSR adjacency"):
        Graph(IdMap(range(3)), *arrays)


def test_graph_stores_c_contiguous_kernel_arrays():
    strided = np.zeros(8)
    strided[::2] = _PATH[2]
    given = np.array(_PATH[0], dtype=np.int32), _PATH[1], strided[::2], np.array(_PATH[3], dtype=np.float32)
    g = Graph(IdMap(range(3)), *given)
    arrays = (g.indptr, g.nbr, g.wgt, g.self_loops)
    assert [a.dtype for a in arrays] == [np.int64, np.int64, np.float64, np.float64]
    assert all(a.flags.c_contiguous for a in arrays)
    assert [a.tolist() for a in arrays] == list(_PATH)
    assert g._kernel_pointers() == tuple(a.ctypes.data for a in (*arrays, g.degrees))
    # arrays that already are C-contiguous int64 and float64 are kept, not copied
    given = [np.array(a, dtype=np.int64 if i < 2 else np.float64) for i, a in enumerate(_PATH)]
    h = Graph(IdMap(range(3)), *given)
    assert all(a is b for a, b in zip((h.indptr, h.nbr, h.wgt, h.self_loops), given))


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
    for bad in (5, [5, 5, 9, 9], [[5, 5, 9]]):  # shapes (), (n + 1,) and (1, n)
        with pytest.raises(InputError, match=re.escape(f"shape {np.shape(bad)} for 3 nodes")):
            Partition(g.ids, bad)
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


def test_partition_ranking_is_np_unique_of_its_own_read_only_labels(tmp_path):
    # the optimizer and renumber_partition hand their ranking to the
    # partition; every other partition ranks its labels on first use
    spec = SynthSpec(n_nodes=300, n_communities=5, p_in=0.2, p_out=0.01, churn_rate=0.1, steps=2, seed=3)
    (g0, _), (g1, _) = generate(spec)
    static = louvain.louvain_static(g0)[0]
    base = louvain.renumber_partition(static, start=7)
    dynamic = louvain.louvain_dynamic(g1, louvain.DynamicContext.from_previous(base, g1, 0.5, 0.5, seed=1))[0]
    handed = (static, base, dynamic)
    assert all(part._ranked is not None for part in handed)
    path = tmp_path / "p.tsv"
    write_partition_tsv(dynamic, path)
    caller = np.array([5, -3, 5, 2**62, -3, 0])
    plain = Partition(IdMap("abcdef"), caller)
    parts = handed + (read_partition_tsv(path), read_partition_tsv(path, g1), plain, Partition(IdMap([]), []))
    for part in parts:
        want = np.unique(part.labels, return_inverse=True, return_counts=True)
        got = part.ranked
        assert part.ranked is got
        assert [(a.dtype, a.tolist()) for a in got] == [(np.dtype(np.int64), a.tolist()) for a in want]
        assert not part.labels.flags.writeable and not any(a.flags.writeable for a in got)
    with pytest.raises(ValueError, match="read-only"):
        plain.labels[0] = 1
    assert caller.flags.writeable
    caller[0] = 6  # the partition holds its own copy
    assert plain.labels.tolist() == [5, -3, 5, 2**62, -3, 0]
    assert plain.labels_set == {5, -3, 2**62, 0} and repr(plain) == "Partition(n=6, communities=4)"


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


# --- the bodies of the community sums and the projection ---------------------------


_WEIGHTS = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1 / 3, 5e-324, 1e-300]),
)


@st.composite
def _graph_and_maps(draw):
    """A random graph with self-loops, isolated nodes and float weights (or
    none at all), a node map as ``project`` takes it, and community indices
    as the sums take them."""
    n = draw(st.integers(0, 14))
    nodes = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(nodes, nodes, _WEIGHTS), max_size=60)) if n else []
    g = build_graph(edges, nodes=range(n))
    kind = draw(st.sampled_from(["any", "kept", "permutation", "one", "none"]))
    if kind == "permutation":  # a stored step re-indexed into its partition's order
        c, new_index = n, draw(st.permutations(range(n)))
    elif kind == "one":
        c, new_index = 1, [0] * n
    elif kind == "none":
        c, new_index = draw(st.integers(0, 3)), [-1] * n
    else:
        c = draw(st.integers(1, n + 1))
        lo = -1 if kind == "any" else 0
        new_index = draw(st.lists(st.integers(lo, c - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n + 1)) if n else 0
    dense = draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=n, max_size=n))
    return g, c, np.asarray(new_index, dtype=np.int64), k, np.asarray(dense, dtype=np.int64)


# new node 1's rows mix entries left out (-1), entries inside it, lower and
# higher neighbours, and reach all three new nodes before repeating them
_MIXED_ROWS = build_graph(
    [(0, 0, 1.5), (0, 1, 0.1), (0, 2, 2.0), (0, 3, 1 / 3), (0, 4, 2.5), (0, 5, 0.1), (0, 6, 1e-300),
     (1, 2, 3.0), (1, 4, 1 / 3), (1, 3, 0.7), (2, 4, 1.0), (3, 6, 4.0)],
    nodes=range(7),
)


@settings(max_examples=400, deadline=None)
@given(case=_graph_and_maps())
@example(case=(_MIXED_ROWS, 3, np.array([1, 1, -1, 0, 2, 2, 0]), 2, np.array([0, 0, 1, 1, 1, 0, 0])))
def test_sum_and_projection_bodies_are_bit_identical(case):
    _sum_and_projection_bodies_agree(*case)


def test_sum_and_projection_bodies_agree_on_an_lfr_graph(lfr):
    g, _, part = lfr
    keys, dense = np.unique(part.labels, return_inverse=True)
    _sum_and_projection_bodies_agree(g, len(keys), dense, len(keys), dense)


def _sum_and_projection_bodies_agree(g, c, new_index, k, dense):
    ids = IdMap(range(c))
    projected, sums = {}, {}
    for name, (sums_body, project_body) in agg_backends().items():
        projected[name] = graph_bytes(project_body(g, ids, new_index))
        sums[name] = [(a.dtype.str, a.tobytes()) for a in sums_body(g, dense, k)]
    assert all(x == projected["python"] for x in projected.values())
    assert all(x == sums["python"] for x in sums.values())


def test_projection_and_sums_reject_indices_out_of_bounds(monkeypatch):
    # a wrong length, or an entry outside [-1, c) for project and [0, c) for
    # the sums, fails at the kernel boundary on either body
    g = build_graph([(0, 1), (1, 2), (2, 3)], nodes=range(4))
    ids = IdMap(range(3))
    short, long = [0, 1, 2], [0, 1, 2, 0, 1]
    for sums_body, project_body in agg_backends().values():
        monkeypatch.setattr(graph, "_project", project_body)
        monkeypatch.setattr(louvain, "_sums", sums_body)
        assert project(g, ids, np.array([0, 1, 2, -1])).n_edges == 2
        for bad in (short, long, [0, 1, 2, -2], [0, 1, 2, 3]):
            with pytest.raises(InternalInvariantError):
                project(g, ids, np.array(bad))
        for bad in (short, long, [0, 1, 2, -1], [0, 1, 2, 3]):
            with pytest.raises(InternalInvariantError):
                louvain._community_sums(g, np.array(bad), 3)


# --- the bodies of the CSR builder ---------------------------------------------------


@st.composite
def _edge_entries(draw):
    """Node count, index entries ``(u, v, w)`` with parallel entries in both
    orientations, loops and isolated nodes (or no entry at all), and the
    starting self-loops."""
    n = draw(st.integers(0, 10))
    nodes = st.integers(0, max(n - 1, 0))
    weights = _WEIGHTS | st.just(-0.0)
    entries = draw(st.lists(st.tuples(nodes, nodes, weights), max_size=40)) if n else []
    entries += [(v, u, w) for u, v, w in draw(st.lists(st.sampled_from(entries), max_size=10))] if entries else []
    loops = draw(st.lists(st.sampled_from([0.0, 0.5, 1 / 3, 5e-324]), min_size=n, max_size=n))
    cols = list(zip(*entries)) or [(), (), ()]
    u, v = (np.array(col, dtype=np.int64) for col in cols[:2])
    return n, u, v, np.array(cols[2], dtype=np.float64), np.array(loops, dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(case=_edge_entries())
def test_builder_bodies_are_bit_identical(case):
    _builder_bodies_agree(*case)


def test_builder_bodies_agree_on_an_lfr_graph(lfr):
    g, (u, v, w), _ = lfr
    _builder_bodies_agree(g.n, u, v, w, np.zeros(g.n))


def _builder_bodies_agree(n, u, v, w, loops):
    ids = IdMap(range(n))
    built = {name: graph_bytes(body(ids, u, v, w, loops.copy())) for name, body in build_backends().items()}
    assert all(x == built["python"] for x in built.values())
    if not loops.any():  # the dictionary builder starts every loop at 0.0
        want = oracle_build_graph(zip(u.tolist(), v.tolist(), w.tolist()), nodes=range(n))
        assert built["python"] == graph_bytes(want)


def test_builder_sums_parallel_entries_in_input_order():
    # (1e16 + 1) + 1 != 1e16 + (1 + 1): the order of the sum shows in its bits
    u, v = np.array([0, 1, 0, 2, 2]), np.array([1, 0, 1, 2, 2])
    w = np.array([1e16, 1.0, 1.0, 1e16, 1.0])
    for body in build_backends().values():
        g = body(IdMap("abc"), u, v, w, np.array([0.0, 0.0, 1.0]))
        assert g.wgt.tolist() == [1e16, 1e16] and g.self_loops.tolist() == [0.0, 0.0, 1e16 + 1.0 + 1.0]
        assert g.indptr.tolist() == [0, 1, 2, 2] and g.nbr.tolist() == [1, 0]


def test_builder_rejects_indices_out_of_bounds(monkeypatch):
    # a wrong length, or an endpoint outside [0, n), fails at the kernel
    # boundary on either body
    ids = IdMap("abc")
    w = np.ones(2)
    for body in build_backends().values():
        monkeypatch.setattr(graph, "_build", body)
        assert graph_from_edges(ids, np.array([0, 1]), np.array([1, 2]), w).n_edges == 2
        for u, v in (([0, 1, 2], [1, 2]), ([0, 3], [1, 2]), ([0, 1], [-1, 2]), ([0, 1], [1, 3])):
            with pytest.raises(InternalInvariantError):
                graph_from_edges(ids, np.array(u), np.array(v), w)


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


@st.composite
def _weighted_graphs(draw):
    """Up to 12 nodes, some isolated; distinct edges and self-loops with
    unit, integer or float weights; a label per node."""
    n = draw(st.integers(1, 12))
    weight = draw(st.sampled_from([st.just(1.0), st.integers(1, 9).map(float),
                                   st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)]))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda e: tuple(sorted(e)))
    pairs = draw(st.lists(ends, min_size=1, max_size=30, unique=True))
    edges = [(u, v, draw(weight)) for u, v in pairs]
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return n, edges, labels


@settings(max_examples=300, deadline=None)
@given(_weighted_graphs())
def test_modularity_matches_networkx(case):
    # an oracle written outside this package, with its own self-loop
    # convention: a loop adds 2w to its node's degree and w to its community
    nx = pytest.importorskip("networkx")
    n, edges, labels = case
    g = build_graph(edges, nodes=range(n))
    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_weighted_edges_from(edges)
    communities = [{u for u in range(n) if labels[u] == lab} for lab in set(labels)]
    want = nx.community.modularity(ng, communities, weight="weight")
    assert modularity(g, Partition(g.ids, np.asarray(labels))) == pytest.approx(want, rel=0, abs=1e-12)


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
