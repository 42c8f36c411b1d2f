"""Partition comparison measures against brute-force counting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commtrack import metrics
from commtrack.errors import InputError
from commtrack.graph import IdMap, Partition, build_graph
from commtrack.metrics import (
    ComparisonReport,
    MatchConfig,
    compare,
)

from oracles import (
    oracle_entropy,
    oracle_modularity,
    oracle_mutual_information,
    random_churned_ids,
    twin_compare,
    twin_contingency,
)


def _part(ids, labels):
    return Partition(IdMap(ids), np.asarray(labels, dtype=np.int64))


def test_match_config_range():
    MatchConfig(0.51)
    MatchConfig(0.99)
    for bad in (0.5, 0.0, 1.0, 1.2, -1.0):
        with pytest.raises(InputError):
            MatchConfig(bad)


# --- mutual information -----------------------------------------------------------


def test_mi_of_identical_halves_is_ln2():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    assert compare(a, a).mi_nats == pytest.approx(math.log(2), abs=1e-12)


def test_mi_against_constant_partition_is_zero():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    b = _part([1, 2, 3, 4], [7, 7, 7, 7])
    assert compare(a, b).mi_nats == 0.0


def test_mi_uses_only_common_nodes():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    b = _part([3, 4, 5, 6], [5, 5, 9, 9])  # common: {3, 4}, both constant there
    assert compare(a, b).mi_nats == pytest.approx(0.0, abs=1e-12)


def test_mi_empty_intersection_rejected():
    a = _part([1, 2], [0, 0])
    b = _part([3, 4], [0, 0])
    with pytest.raises(InputError):
        compare(a, b)


def test_mi_matches_oracle_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        la = rng.integers(0, max(1, n // 3) + 1, size=n).tolist()
        lb = rng.integers(0, max(1, n // 4) + 1, size=n).tolist()
        ids = list(range(n))
        a, b = _part(ids, la), _part(ids, lb)
        got = compare(a, b).mi_nats
        want = oracle_mutual_information(la, lb)
        assert got == pytest.approx(want, abs=1e-12)
        # symmetry and self-information
        assert compare(b, a).mi_nats == pytest.approx(got, abs=1e-12)
        assert compare(a, a).mi_nats == pytest.approx(oracle_entropy(la), abs=1e-12)
        # bounded by the smaller entropy
        assert got <= min(oracle_entropy(la), oracle_entropy(lb)) + 1e-12
        assert got >= 0.0


def test_entropy_of_community_sizes():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    assert compare(a, a).entropy_a == pytest.approx(math.log(2), abs=1e-12)


def test_one_community_entropy_is_positive_zero():
    # -sum(p log p) over p = [1.0] is -0.0, which JSON writes as "-0.0"
    a = _part([1, 2, 3], [4, 4, 4])
    b = _part([1, 2, 3], [9, 9, 9])
    report = compare(a, b)
    assert math.copysign(1.0, report.entropy_a) == math.copysign(1.0, report.entropy_b) == 1.0
    assert "-0.0" not in report.to_json()


# --- matching ------------------------------------------------------------------


def test_matching_identity_counts_all_communities():
    a = _part(list(range(10)), [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    pairs = compare(a, a).matching
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_matching_requires_both_inequalities():
    # C = {1,2,3,4} vs C' = {1,2}: overlap 2 > 0.51*2 but not > 0.51*4
    a = _part([1, 2, 3, 4], [0, 0, 0, 0])
    b = _part([1, 2], [5, 5])
    assert compare(a, b).matching == []


def test_matching_spec_sizes_on_full_node_sets():
    # C = 100 nodes; C' keeps 52 of them plus 10 new ones (size 62)
    ids_a = list(range(100))
    a = _part(ids_a, [0] * 100)
    ids_b = list(range(52)) + [f"x{i}" for i in range(10)]
    b = _part(ids_b, [3] * 62)
    # 52 > 51 and 52 > 0.51*62 = 31.62 -> match
    assert compare(a, b).matching == [(0, 3)]


def test_matching_boundary_strictness():
    # overlap exactly r*|C| must NOT match (strict inequality)
    ids = list(range(100))
    a = _part(ids, [0] * 100)
    b = _part(ids, [1] * 50 + [2] * 50)
    cfg = MatchConfig(r=0.5000000001)
    # each half overlaps by 50 = 0.5*100; never strictly above half of a
    assert compare(a, b, cfg=cfg).matching == []


def test_matching_transposes_when_arguments_swap():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        ids = list(range(n))
        a = _part(ids, rng.integers(0, 5, size=n))
        b = _part(ids, rng.integers(0, 5, size=n))
        ab = compare(a, b).matching
        ba = compare(b, a).matching
        assert sorted((y, x) for x, y in ab) == sorted(ba)


def test_matching_uniqueness_random():
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(2, 80))
        ids = list(range(n))
        a = _part(ids, rng.integers(0, 8, size=n))
        b = _part(ids, rng.integers(0, 8, size=n))
        pairs = compare(a, b).matching
        lefts = [x for x, _ in pairs]
        rights = [y for _, y in pairs]
        assert len(set(lefts)) == len(pairs)
        assert len(set(rights)) == len(pairs)


# --- compare -------------------------------------------------------------------


def _reference_report(ids_a, la, ids_b, lb, r):
    """Every :class:`ComparisonReport` count and measure but modularity, by
    dictionary: the shared nodes in a's order, overlaps against full sizes."""
    label_a, label_b = dict(zip(ids_a, la)), dict(zip(ids_b, lb))
    shared = [x for x in ids_a if x in label_b]
    sa = [label_a[x] for x in shared]
    sb = [label_b[x] for x in shared]
    size_a = {lab: la.count(lab) for lab in la}
    size_b = {lab: lb.count(lab) for lab in lb}
    overlap = {}
    for pair in zip(sa, sb):
        overlap[pair] = overlap.get(pair, 0) + 1
    matching = sorted(
        (x, y) for (x, y), nxy in overlap.items() if nxy > r * size_a[x] and nxy > r * size_b[y]
    )
    return {
        "mi_nats": oracle_mutual_information(sa, sb),
        "entropy_a": oracle_entropy(sa),
        "entropy_b": oracle_entropy(sb),
        "n_common": len(shared),
        "n_a": len(ids_a),
        "n_b": len(ids_b),
        "n_communities_a": len(size_a),
        "n_communities_b": len(size_b),
        "r": r,
        "matching": matching,
    }


@pytest.mark.parametrize("str_ids", [False, True], ids=["int", "str"])
def test_compare_matches_dict_reference_on_churned_node_sets(str_ids):
    rng = np.random.default_rng(29 + str_ids)
    disjoint = matched = 0
    for trial in range(120):
        ids_a, ids_b = random_churned_ids(rng, str_ids)
        la = [int(x) for x in rng.integers(-3, 6, size=len(ids_a))]
        # b mostly keeps a's communities (shifted by 10) on shared nodes, so some match
        label_a = dict(zip(ids_a, la))
        lb = [
            label_a[x] + 10 if x in label_a and rng.random() < 0.9 else int(rng.integers(7, 20))
            for x in ids_b
        ]
        a, b = _part(ids_a, la), _part(ids_b, lb)
        r = float(rng.choice([0.51, 2 / 3, 0.75, rng.uniform(0.501, 0.99)]))
        want = _reference_report(ids_a, la, ids_b, lb, r)
        matched += len(want["matching"])
        if want["n_common"] == 0:
            disjoint += 1
            with pytest.raises(InputError, match="share no nodes"):
                compare(a, b)
            continue
        edges = [(int(u), int(v), 1.0) for u, v in rng.integers(0, len(ids_b), size=(len(ids_b), 2))]
        g = build_graph([(ids_b[u], ids_b[v]) for u, v, _ in edges], nodes=ids_b)
        got = compare(a, b, g if trial % 2 else None, MatchConfig(r)).__dict__
        for key in ("mi_nats", "entropy_a", "entropy_b"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key
        for key in ("n_common", "n_a", "n_b", "n_communities_a", "n_communities_b", "r", "matching"):
            assert got[key] == want[key], key
        if trial % 2:
            assert got["modularity_next"] == pytest.approx(oracle_modularity(len(ids_b), edges, lb), abs=1e-12)
        else:
            assert got["modularity_next"] is None
    assert 0 < disjoint < 120 and matched > 100


def test_compare_assembles_all_measures():
    g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], nodes=range(6))
    part = Partition(g.ids, np.array([0, 0, 0, 1, 1, 1]))
    report = compare(part, part, g)
    assert report.mi_nats == pytest.approx(math.log(2), abs=1e-12)
    assert report.n_matching == 2
    assert report.modularity_next == pytest.approx(0.5, abs=1e-12)
    assert report.n_common == 6
    assert report.normalized_mi() == pytest.approx(1.0, abs=1e-12)


def test_compare_rejects_disjoint_node_sets():
    a = _part([1, 2], [0, 0])
    b = _part([3, 4], [0, 0])
    with pytest.raises(InputError):
        compare(a, b)


def test_compare_without_graph_leaves_modularity_unset():
    a = _part([1, 2, 3], [0, 0, 1])
    report = compare(a, a)
    assert report.modularity_next is None


def test_report_json_roundtrip():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    report = compare(a, a)
    clone = ComparisonReport.from_json(report.to_json())
    assert clone == report
    assert clone.matching == [(0, 0), (1, 1)]


# --- bits of the report ------------------------------------------------------------
# ``sweep`` and ``history.jsonl`` write mi_nats and modularity with ``repr``, so
# ``compare`` must keep the bits of the one-cell-at-a-time loop over a table
# counted by ``np.unique`` (``oracles.twin_compare``) in both of its table forms.


def _arrays(table):
    return [(x.dtype.str, x.tobytes()) for x in table]


def _assert_twin_bits(a, b, g=None, r=0.51):
    assert _arrays(metrics._contingency(a, b)) == _arrays(twin_contingency(a, b))
    cfg = MatchConfig(r)
    assert compare(a, b, g, cfg).to_json() == twin_compare(a, b, g, cfg).to_json()


def _labels(draw, n: int, kind: str) -> list:
    """``n`` int64 labels: one community, all singletons, or up to 40 communities."""
    values = st.integers(-(2**62), 2**62) | st.integers(0, 9)
    if kind == "one":
        return [draw(values)] * n
    if kind == "singletons":
        return draw(st.lists(values, min_size=n, max_size=n, unique=True))
    pool = draw(st.lists(values, min_size=1, max_size=draw(st.integers(1, 40)), unique=True))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]


@st.composite
def _partition_pairs(draw):
    """Two partitions and the later graph: on one id map (the same object or
    an equal copy) or on churned ones sharing at least one node, each side of
    one community, all singletons or some communities in between."""
    n = draw(st.integers(1, 80))
    ids_a = list(range(n))
    maps = draw(st.sampled_from(["same", "equal", "churned"]))
    if maps == "churned":
        keep = draw(st.lists(st.sampled_from(ids_a), min_size=1, unique=True))
        ids_b = draw(st.permutations(keep + list(range(n, n + draw(st.integers(0, 30))))))
    else:
        ids_b = ids_a
    kinds = st.sampled_from(["one", "singletons", "some"])
    a = Partition(IdMap(ids_a), np.asarray(_labels(draw, len(ids_a), draw(kinds)), dtype=np.int64))
    b_ids = a.ids if maps == "same" else IdMap(ids_b)
    b = Partition(b_ids, np.asarray(_labels(draw, len(ids_b), draw(kinds)), dtype=np.int64))
    g = None
    if draw(st.booleans()):
        ends = st.integers(0, len(ids_b) - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * len(ids_b)))
        g = build_graph([(ids_b[u], ids_b[v]) for u, v in edges], nodes=ids_b)
        b = Partition(g.ids, b.labels)
    return a, b, g, draw(st.sampled_from([0.51, 2 / 3, 0.9]))


@settings(max_examples=300, deadline=None)
@given(_partition_pairs())
@example((_part(range(3), [5, 5, 5]), _part(range(3), [1, 2, 3]), None, 0.51))
@example((_part(range(12), range(12)), _part(range(12), range(12, 0, -1)), None, 0.51))
def test_compare_keeps_the_bits_of_the_unique_table_and_the_loop(case):
    _assert_twin_bits(*case)


@pytest.mark.parametrize("n, na, nb, dense", [
    (8, 8, 1, True),  # at the bound: 8 cells for 8 nodes
    (8, 1, 8, True),
    (9, 3, 3, True),
    (16, 2, 8, True),
    (12, 3, 4, True),  # at the bound again
    (11, 3, 4, False),  # 12 cells for 11 nodes: one past
    (39, 5, 8, False),
    (40, 5, 8, True),
    (24, 24, 9, False),
    (40, 40, 40, False),  # all singletons
])
def test_compare_keeps_its_bits_on_both_sides_of_the_dense_table_bound(n, na, nb, dense):
    assert (na * nb <= n) == dense
    rng = np.random.default_rng(n * 1000 + na * 31 + nb)
    for trial in range(20):
        # every label of each side holds a node, so the table has na x nb cells
        la = np.concatenate([np.arange(na), rng.integers(0, na, size=n - na)])[rng.permutation(n)]
        lb = np.concatenate([np.arange(nb), rng.integers(0, nb, size=n - nb)])[rng.permutation(n)]
        a = _part(range(n), la * 7 - 3)
        b = _part(range(n), lb * 5 + 100)
        assert len(a.ranked[0]) == na and len(b.ranked[0]) == nb
        _assert_twin_bits(a, b)
        # churned: b's id map in another order, with nodes a lacks; the shared nodes are all n
        order = rng.permutation(n + 3)
        ids_b = [int(x) for x in order]
        _assert_twin_bits(a, _part(ids_b, np.concatenate([lb, [0, 1, 2]])[order] * 5 + 100))


@pytest.mark.parametrize("na, nb", [(40, 50), (300, 400)], ids=["dense", "unique"])
def test_compare_keeps_its_bits_on_tables_of_thousands_of_cells(na, nb):
    # on tables of a few thousand cells np.sum's pairwise sum drifts from the
    # left-to-right one (a last-bit log difference rarely reaches sums like
    # these: the next test has tables where it does)
    rng = np.random.default_rng(na)
    for n in (2000, 2100, 2200, 2300):
        la = rng.integers(0, na, size=n)
        # b keeps most of a's communities, as a stability run does
        lb = np.where(rng.random(n) < 0.7, la % nb, rng.integers(0, nb, size=n))
        a = _part(range(n), la)
        ids_b = [int(x) for x in rng.permutation(n + 50)]
        b = _part(ids_b, np.concatenate([lb, rng.integers(0, nb, size=50)])[ids_b])
        assert (na * nb <= n) == (na == 40)
        _assert_twin_bits(a, a)
        _assert_twin_bits(a, b)


@pytest.mark.parametrize("shape, table", [
    ((2, 2), [20, 2, 39, 5]),
    ((2, 2), [33, 20, 36, 22]),
    ((2, 3), [24, 38, 29, 13, 17, 16]),
])
def test_compare_keeps_the_loop_bits_where_np_log_would_not(shape, table):
    # near-independent tables: MI is a small difference of larger terms, so
    # a last-bit difference in one log reaches the sum (np.log instead of
    # math.log gives another repr of mi_nats on each of these)
    cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    la = [i for (i, _), c in zip(cells, table) for _ in range(c)]
    lb = [j for (_, j), c in zip(cells, table) for _ in range(c)]
    ids = list(range(len(la)))
    _assert_twin_bits(_part(ids, la), _part(ids, lb))
