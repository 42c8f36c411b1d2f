"""Generator: determinism, evolution mechanics, detectability calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtrack import synth
from commtrack.errors import InputError
from commtrack.graph import Partition
from commtrack.louvain import LouvainConfig, louvain_static, round_half_up
from commtrack.metrics import compare
from commtrack.synth import SynthSpec, generate

from oracles import edge_list, oracle_sample_inter_edges


def test_spec_validation():
    good = dict(n_nodes=10, n_communities=2, p_in=0.5, p_out=0.1)
    SynthSpec(**good)
    with pytest.raises(InputError):
        SynthSpec(**{**good, "p_in": 0.1, "p_out": 0.5})
    with pytest.raises(InputError):
        SynthSpec(**{**good, "p_in": 0.0})
    with pytest.raises(InputError):
        SynthSpec(**{**good, "p_out": 1.0})
    with pytest.raises(InputError):
        SynthSpec(**{**good, "n_communities": 11})
    with pytest.raises(InputError):
        SynthSpec(**{**good, "churn_rate": 1.0})
    with pytest.raises(InputError):
        SynthSpec(**{**good, "steps": 0})


def test_determinism_same_spec_same_sequence():
    spec = SynthSpec(n_nodes=120, n_communities=6, p_in=0.3, p_out=0.02,
                     churn_rate=0.15, migrate_rate=0.1, steps=3, seed=77)
    s1 = generate(spec)
    s2 = generate(spec)
    for (g1, p1), (g2, p2) in zip(s1, s2):
        assert g1.ids == g2.ids
        assert edge_list(g1) == edge_list(g2)
        assert p1 == p2


def test_different_seeds_differ():
    base = dict(n_nodes=100, n_communities=5, p_in=0.3, p_out=0.02, steps=1)
    (ga, _), = generate(SynthSpec(seed=1, **base))
    (gb, _), = generate(SynthSpec(seed=2, **base))
    assert edge_list(ga) != edge_list(gb)


def test_no_evolution_keeps_nodes_and_planted():
    spec = SynthSpec(n_nodes=80, n_communities=4, p_in=0.4, p_out=0.05,
                     churn_rate=0.0, migrate_rate=0.0, steps=3, seed=3)
    snaps = generate(spec)
    ids0 = snaps[0][0].ids.ids
    labels0 = snaps[0][1].labels
    for g, planted in snaps[1:]:
        assert g.ids.ids == ids0
        assert np.array_equal(planted.labels, labels0)


def test_p_out_zero_gives_disjoint_blocks():
    spec = SynthSpec(n_nodes=100, n_communities=5, p_in=0.5, p_out=0.0, steps=2,
                     churn_rate=0.1, migrate_rate=0.1, seed=9)
    for g, planted in generate(spec):
        for u, v, _w in edge_list(g):
            assert planted.label_of(u) == planted.label_of(v)


def test_churn_replaces_exact_count_with_fresh_ids():
    spec = SynthSpec(n_nodes=100, n_communities=5, p_in=0.3, p_out=0.01,
                     churn_rate=0.13, migrate_rate=0.0, steps=3, seed=21)
    snaps = generate(spec)
    seen_before: set = set()
    prev_ids = None
    for step_i, (g, _) in enumerate(snaps):
        ids = set(g.ids.ids)
        assert len(ids) == 100
        if prev_ids is not None:
            survivors = ids & prev_ids
            fresh = ids - prev_ids
            assert len(fresh) == round_half_up(0.13 * 100)
            assert len(survivors) == 100 - len(fresh)
            # retired ids never return
            assert not (fresh & seen_before)
        seen_before |= ids
        prev_ids = ids


def test_migration_moves_exact_survivor_count():
    spec = SynthSpec(n_nodes=100, n_communities=5, p_in=0.3, p_out=0.01,
                     churn_rate=0.0, migrate_rate=0.2, steps=2, seed=4)
    (g0, p0), (g1, p1) = generate(spec)
    moved = sum(1 for x in g0.ids.ids if p0.label_of(x) != p1.label_of(x))
    assert moved == round_half_up(0.2 * 100)


def test_intra_denser_than_inter_3sigma():
    spec = SynthSpec(n_nodes=300, n_communities=10, p_in=0.3, p_out=0.01, steps=1, seed=15)
    (g, planted), = generate(spec)
    _, sizes = np.unique(planted.labels, return_counts=True)
    intra_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    total_pairs = 300 * 299 // 2
    inter_pairs = total_pairs - intra_pairs
    n_intra = sum(1 for u, v, _ in edge_list(g) if planted.label_of(u) == planted.label_of(v))
    n_inter = g.n_edges - n_intra
    for count, pairs, p in ((n_intra, intra_pairs, 0.3), (n_inter, inter_pairs, 0.01)):
        mean = pairs * p
        sigma = (pairs * p * (1 - p)) ** 0.5
        assert abs(count - mean) <= 3 * sigma
    # per-node density comparison, the assortativity the optimizer relies on
    mean_intra_deg = 2 * n_intra / 300
    mean_inter_deg = 2 * n_inter / 300
    assert mean_intra_deg > mean_inter_deg


def test_calibration_louvain_recovers_planted():
    # threshold fixed from these exact runs: MI/H >= 0.9 on at least 9/10 seeds
    ok = 0
    for seed in range(10):
        spec = SynthSpec(n_nodes=200, n_communities=10, p_in=0.3, p_out=0.01,
                         steps=1, seed=seed)
        (g, planted), = generate(spec)
        found, _ = louvain_static(g, LouvainConfig(rng_seed=seed))
        report = compare(found, planted)
        score = report.mi_nats / report.entropy_b
        if score >= 0.9:
            ok += 1
    assert ok >= 9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.floats(0.0, 0.99), st.integers(0, 2**32))
def test_cross_pairs_match_the_one_key_at_a_time_reference(labels, p_out, seed):
    # the same pairs in the same order, and the generator left in the same
    # state, so every later draw of a snapshot sequence is unchanged too
    labels = np.array(labels, dtype=np.int64)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    u, v = synth._sample_inter_edges(labels, p_out, rng)
    assert (u.tolist(), v.tolist()) == oracle_sample_inter_edges(labels, p_out, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
