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
    matching_communities,
    mutual_information,
    partition_entropy,
)

from oracles import oracle_entropy, oracle_mutual_information


def _part(ids, labels):
    return Partition(IdMap(ids), np.asarray(labels, dtype=np.int64))


def test_match_config_range():
    MatchConfig(0.51)
    MatchConfig(1.0)
    for bad in (0.5, 0.0, 1.2, -1.0):
        with pytest.raises(InputError):
            MatchConfig(bad)


# --- mutual information -----------------------------------------------------------


def test_mi_of_identical_halves_is_ln2():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    assert mutual_information(a, a) == pytest.approx(math.log(2), abs=1e-12)


def test_mi_against_constant_partition_is_zero():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    b = _part([1, 2, 3, 4], [7, 7, 7, 7])
    assert mutual_information(a, b) == 0.0


def test_mi_uses_only_common_nodes():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    b = _part([3, 4, 5, 6], [5, 5, 9, 9])  # common: {3, 4}, both constant there
    assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)


def test_mi_empty_intersection_rejected():
    a = _part([1, 2], [0, 0])
    b = _part([3, 4], [0, 0])
    with pytest.raises(InputError):
        mutual_information(a, b)


def test_mi_matches_oracle_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        la = rng.integers(0, max(1, n // 3) + 1, size=n).tolist()
        lb = rng.integers(0, max(1, n // 4) + 1, size=n).tolist()
        ids = list(range(n))
        a, b = _part(ids, la), _part(ids, lb)
        got = mutual_information(a, b)
        want = oracle_mutual_information(la, lb)
        assert got == pytest.approx(want, abs=1e-12)
        # symmetry and self-information
        assert mutual_information(b, a) == pytest.approx(got, abs=1e-12)
        assert mutual_information(a, a) == pytest.approx(oracle_entropy(la), abs=1e-12)
        # bounded by the smaller entropy
        assert got <= min(oracle_entropy(la), oracle_entropy(lb)) + 1e-12
        assert got >= 0.0


def test_entropy_restriction():
    a = _part([1, 2, 3, 4], [0, 0, 1, 1])
    assert partition_entropy(a) == pytest.approx(math.log(2), abs=1e-12)
    assert partition_entropy(a, restrict_to=[1, 2]) == 0.0
    assert partition_entropy(a, restrict_to=[]) == 0.0


# --- matching ------------------------------------------------------------------


def test_matching_identity_counts_all_communities():
    a = _part(list(range(10)), [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    pairs = matching_communities(a, a)
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_matching_requires_both_inequalities():
    # C = {1,2,3,4} vs C' = {1,2}: overlap 2 > 0.51*2 but not > 0.51*4
    a = _part([1, 2, 3, 4], [0, 0, 0, 0])
    b = _part([1, 2], [5, 5])
    assert matching_communities(a, b) == []


def test_matching_spec_sizes_on_full_node_sets():
    # C = 100 nodes; C' keeps 52 of them plus 10 new ones (size 62)
    ids_a = list(range(100))
    a = _part(ids_a, [0] * 100)
    ids_b = list(range(52)) + [f"x{i}" for i in range(10)]
    b = _part(ids_b, [3] * 62)
    # 52 > 51 and 52 > 0.51*62 = 31.62 -> match
    assert matching_communities(a, b) == [(0, 3)]


def test_matching_boundary_strictness():
    # overlap exactly r*|C| must NOT match (strict inequality)
    ids = list(range(100))
    a = _part(ids, [0] * 100)
    b = _part(ids, [1] * 50 + [2] * 50)
    cfg = MatchConfig(r=0.5000000001)
    # each half overlaps by 50 = 0.5*100; never strictly above half of a
    assert matching_communities(a, b, cfg) == []


def test_matching_transposes_when_arguments_swap():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        ids = list(range(n))
        a = _part(ids, rng.integers(0, 5, size=n))
        b = _part(ids, rng.integers(0, 5, size=n))
        ab = matching_communities(a, b)
        ba = matching_communities(b, a)
        assert sorted((y, x) for x, y in ab) == sorted(ba)


def test_matching_uniqueness_random():
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(2, 80))
        ids = list(range(n))
        a = _part(ids, rng.integers(0, 8, size=n))
        b = _part(ids, rng.integers(0, 8, size=n))
        pairs = matching_communities(a, b)
        lefts = [x for x, _ in pairs]
        rights = [y for _, y in pairs]
        assert len(set(lefts)) == len(pairs)
        assert len(set(rights)) == len(pairs)


# --- compare -------------------------------------------------------------------


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
