"""Partition comparison measures against brute-force counting."""

import math

import numpy as np
import pytest

from commtrack.errors import InputError
from commtrack.graph import IdMap, Partition, build_graph
from commtrack.metrics import (
    ComparisonReport,
    MatchConfig,
    compare,
)

from oracles import oracle_entropy, oracle_modularity, oracle_mutual_information, random_churned_ids


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
