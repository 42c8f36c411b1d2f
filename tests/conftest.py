import sys
from pathlib import Path

import pytest

# make the oracle helpers importable regardless of pytest's import mode
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def lfr():
    """The seed-1 LFR graph (``oracles.lfr_graph``), self-loops kept, built in
    node order; its edges as index entries ``(u, v, w)``; and a Louvain
    partition of it. The kernel differentials take it as one more input, since
    neither ``synth`` nor their strategies draw heavy-tailed degrees and
    community sizes. Skips without networkx."""
    pytest.importorskip("networkx")
    import numpy as np

    from commtrack.graph import build_graph
    from commtrack.louvain import louvain_static
    from oracles import lfr_graph

    G = lfr_graph(1)
    g = build_graph(G.edges(), nodes=G.nodes)
    u, v = (g.ids.positions(list(ends)) for ends in zip(*G.edges()))
    return g, (u, v, np.ones(len(u))), louvain_static(g)[0]
