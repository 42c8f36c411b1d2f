"""LFR benchmark graphs (Lancichinetti, Fortunato & Radicchi 2008) as an
independent oracle of quality: their degrees and community sizes are
heavy-tailed, which neither ``synth``'s planted partitions nor the hypothesis
strategies draw. The kernel differentials take the seed-1 graph as one more
input through the ``lfr`` fixture."""

import numpy as np
import pytest

from commtrack.graph import Partition, build_graph
from commtrack.louvain import louvain_static
from commtrack.metrics import compare

from oracles import lfr_graph

nx = pytest.importorskip("networkx")


@pytest.mark.parametrize("seed", range(1, 6))
def test_louvain_meets_networkx_and_the_planted_partition(seed):
    G = lfr_graph(seed)
    # LFR graphs are simple by definition; with the generator's loops kept,
    # seed 3 reads Q 0.6637 against networkx's 0.6649 and NMI 0.9589
    G.remove_edges_from(list(nx.selfloop_edges(G)))
    g = build_graph(G.edges(), nodes=G.nodes)
    planted = Partition(g.ids, np.array([min(G.nodes[u]["community"]) for u in G.nodes], dtype=np.int64))
    part, report = louvain_static(g)
    theirs = nx.community.modularity(G, nx.community.louvain_communities(G, seed=seed))
    assert report.final_q >= theirs - 1e-3
    assert compare(planted, part).normalized_mi() >= 0.95
