"""Independent reference implementations used to pin expected values in tests.

Everything here is deliberately naive: dense matrices, exhaustive
enumeration, dictionary counting. Nothing is shared with the package code, so
the same bug would have to be written twice to slip through. The helpers
after ``canonical_blocks`` hand tests package objects: the bodies of each
compiled kernel, a graph's edge list and bytes, and the singleton
partition; ``lfr_graph`` hands them networkx's LFR benchmark graph. The
references near the end reuse package parts: the TSV reference builds its
graphs and partitions in the package's containers (``IdMap``, ``Graph``,
``Partition``), the ingest reference composes the package's
record-level parser and tuple-based ``build_graph`` with per-pair
dictionary symmetrization and a tuple-based degree cap, and the compare
twins are the contingency table and mutual-information loop that
``metrics`` ran before its table was counted dense and its sum vectorized,
kept to pin the bits of ``compare``'s report.

Node convention: graphs are (n, edges) with integer nodes 0..n-1 and edges as
(u, v, w) tuples, possibly repeated (weights accumulate). A self entry
(u, u, w) contributes 2*w to the diagonal of the adjacency matrix, matching
the package's degree convention for stored loops.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Edge = Tuple[int, int, float]


def dense_adjacency(n: int, edges: Iterable[Edge]) -> List[List[float]]:
    a = [[0.0] * n for _ in range(n)]
    for u, v, w in edges:
        if u == v:
            a[u][u] += 2.0 * w
        else:
            a[u][v] += w
            a[v][u] += w
    return a


def oracle_modularity(n: int, edges: Iterable[Edge], labels: Sequence[int]) -> float:
    """Textbook double-sum definition over the dense adjacency matrix."""
    a = dense_adjacency(n, edges)
    two_m = sum(sum(row) for row in a)
    if two_m == 0.0:
        return 0.0
    k = [sum(row) for row in a]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += a[i][j] - k[i] * k[j] / two_m
    return q / two_m


def oracle_gain(
    n: int, edges: Iterable[Edge], labels: Sequence[int], node: int, target: int
) -> float:
    """Move gain by full recomputation: Q(after) - Q(before)."""
    edges = list(edges)
    before = oracle_modularity(n, edges, labels)
    moved = list(labels)
    moved[node] = target
    return oracle_modularity(n, edges, moved) - before


def oracle_sweep(
    n: int,
    edges: Iterable[Edge],
    labels: Sequence[int],
    movable: Sequence[bool],
    order: Sequence[int],
    eps: float,
    pref: Sequence[bool] = (),
    prev_labels: Iterable[int] = (),
    tie: float = 1e-12,
) -> Tuple[List[int], List[Tuple[int, int, float]], int]:
    """One local-move sweep decided by full recomputation of every gain.

    Nodes are visited in ``order``, skipping the non-movable ones. A visited
    node moves to the neighbouring community of largest ``oracle_gain``
    (gains within ``tie`` of the best count as equal; the smallest label wins)
    when that gain exceeds ``eps``, and otherwise stays. A node flagged in
    ``pref`` only considers neighbouring communities labelled in
    ``prev_labels``, its own included, unless it has none. Returns the labels
    after the sweep, the moves as (node, target, gain), and the number of
    visits whose candidates were so restricted.
    """
    edges = list(edges)
    nbrs: Dict[int, set] = {u: set() for u in range(n)}
    for u, v, _w in edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    prev = set(prev_labels)
    labels = list(labels)
    moves: List[Tuple[int, int, float]] = []
    restricted = 0
    for u in order:
        if not movable[u]:
            continue
        around = {labels[v] for v in nbrs[u]}
        if pref and pref[u] and around & prev:
            around &= prev
            restricted += 1
        around.discard(labels[u])
        gains = {lab: oracle_gain(n, edges, labels, u, lab) for lab in around}
        if not gains:
            continue
        best = max(gains.values())
        if best > eps:
            target = min(lab for lab, gain in gains.items() if gain >= best - tie)
            moves.append((u, target, gains[target]))
            labels[u] = target
    return labels, moves, restricted


def oracle_entropy(labels: Sequence[int]) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    counts: Dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return -sum((c / n) * math.log(c / n) for c in counts.values())


def oracle_mutual_information(la: Sequence[int], lb: Sequence[int]) -> float:
    """Joint contingency by dictionary counting; natural log."""
    assert len(la) == len(lb)
    n = len(la)
    joint: Dict[Tuple[int, int], int] = {}
    ca: Dict[int, int] = {}
    cb: Dict[int, int] = {}
    for x, y in zip(la, lb):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        ca[x] = ca.get(x, 0) + 1
        cb[y] = cb.get(y, 0) + 1
    mi = 0.0
    for (x, y), nxy in joint.items():
        pxy = nxy / n
        mi += pxy * math.log(pxy / ((ca[x] / n) * (cb[y] / n)))
    return mi


def oracle_renumber(labels: Sequence[int], start: int = 0) -> List[int]:
    """Labels mapped to start, start+1, ... in first-seen order, by dictionary."""
    mapping: Dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = start + len(mapping)
        out.append(mapping[lab])
    return out


def set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of a set (Bell-number many; fine for <= 8 items)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
        yield [[head]] + smaller


def best_partition_exhaustive(n: int, edges: Iterable[Edge]) -> Tuple[float, List[List[int]]]:
    """Maximum-modularity partition by enumerating every set partition."""
    edges = list(edges)
    best_q = -math.inf
    best: List[List[int]] = []
    for blocks in set_partitions(list(range(n))):
        labels = [0] * n
        for lab, block in enumerate(blocks):
            for u in block:
                labels[u] = lab
        q = oracle_modularity(n, edges, labels)
        if q > best_q:
            best_q = q
            best = blocks
    return best_q, best


def canonical_blocks(labels: Sequence[int]) -> List[Tuple[int, ...]]:
    """Label-independent form of a partition for equality checks."""
    groups: Dict[int, List[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _bodies(python, c) -> dict:
    """A kernel's bodies by name: the Python body always, the compiled one
    when the library was built and loaded."""
    from commtrack import _native

    bodies = {"python": python}
    if _native.LIB is not None:
        bodies["c"] = c
    return bodies


def sweep_backends() -> Dict[str, Callable]:
    """Every level-1 sweep body this machine runs, by name."""
    import commtrack.louvain as louvain

    return _bodies(louvain._sweep_py, louvain._sweep_c)


def agg_backends() -> Dict[str, Tuple[Callable, Callable]]:
    """Every body pair of the community sums and the graph projection this
    machine runs, by name, as ``(sums, project)``."""
    import commtrack.graph as graph
    import commtrack.louvain as louvain

    return _bodies((louvain._sums_py, graph._project_py), (louvain._sums_c, graph._project_c))


def build_backends() -> Dict[str, Callable]:
    """Every CSR builder body this machine runs, by name."""
    import commtrack.graph as graph

    return _bodies(graph._build_py, graph._build_c)


def write_backends() -> Dict[str, Callable]:
    """Every TSV row writer body this machine runs, by name."""
    import commtrack.graph as graph

    return _bodies(graph._write_rows_py, graph._write_rows_c)


def tsv_backends() -> Dict[str, Callable]:
    """Every edge-TSV tokenizer body this machine runs, by name."""
    import commtrack.graph as graph

    return _bodies(graph._edge_tokens_py, graph._edge_tokens_c)


def cdr_backends() -> Dict[str, Callable]:
    """Every CDR line tokenizer body this machine runs, by name: each a
    class whose instance is one run, holding that run's id table."""
    import commtrack.ingest as ingest

    return _bodies(ingest._CdrTokensPy, ingest._CdrTokensC)


def edge_list(g) -> List[tuple]:
    """Each undirected edge of a package ``Graph`` once, as (u, v, w) in
    external ids with u's index below v's, walking the CSR rows in order;
    then each self-loop (u, u, w) in index order."""
    ids = g.ids.ids
    ptr, nbr, wgt = g.indptr.tolist(), g.nbr.tolist(), g.wgt.tolist()
    out = [(ids[u], ids[nbr[e]], wgt[e]) for u in range(g.n) for e in range(ptr[u], ptr[u + 1]) if u < nbr[e]]
    out += [(x, x, w) for x, w in zip(ids, g.self_loops.tolist()) if w != 0.0]
    return out


def singleton_partition(g):
    """The package ``Partition`` of ``g`` that puts every node alone, labelled by its index."""
    import numpy as np

    from commtrack.graph import Partition

    return Partition(g.ids, np.arange(g.n, dtype=np.int64))


def graph_bytes(g) -> tuple:
    """A package ``Graph``'s ids and the dtype and bytes of each CSR array, so
    that two graphs compare bit for bit."""
    return g.ids.ids, [(a.dtype.str, a.tobytes()) for a in (g.indptr, g.nbr, g.wgt, g.self_loops)]


def lfr_graph(seed: int):
    """networkx's LFR benchmark graph (Lancichinetti, Fortunato & Radicchi
    2008) of ``seed``, as generated, self-loops included: 1,000 nodes whose
    degrees and community sizes are heavy-tailed. Each node's ``community``
    attribute holds its planted community. Needs networkx."""
    import networkx as nx

    return nx.LFR_benchmark_graph(1000, 2.5, 1.5, 0.2, average_degree=10, max_degree=60,
                                  min_community=20, max_community=100, seed=seed)


def random_graph(rng, max_nodes: int = 12, max_edges: int = 50, loops: bool = True) -> Tuple[int, List[Edge]]:
    """Small random multigraph; may contain repeats, loops, isolated nodes."""
    n = int(rng.integers(1, max_nodes + 1))
    m = int(rng.integers(0, max_edges + 1))
    edges: List[Edge] = []
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v and not loops:
            continue
        w = float(rng.integers(1, 5)) if rng.random() < 0.8 else round(float(rng.random()) * 3, 3)
        edges.append((u, v, w))
    return n, edges


def random_labels(rng, n: int, max_comms: int = 0) -> List[int]:
    if n == 0:
        return []
    k = max_comms or max(1, n // 2)
    return [int(x) for x in rng.integers(0, k, size=n)]


def random_churned_ids(rng, str_ids: bool, max_nodes: int = 40) -> Tuple[list, list]:
    """Two snapshots' node lists: random subsets of one id universe, each in
    its own shuffled order, so that they overlap in part, fully or not at all."""
    universe = [f"v{k}" if str_ids else int(k) * 7 - 50 for k in range(int(rng.integers(1, max_nodes + 1)))]

    def snapshot() -> list:
        rate = rng.uniform(0.3, 1.0)
        keep = [x for x in universe if rng.random() < rate]
        return [keep[i] for i in rng.permutation(len(keep))]

    return snapshot(), snapshot()


# --- synth reference ---------------------------------------------------------


def oracle_sample_inter_edges(labels, p_out: float, rng):
    """``synth._sample_inter_edges`` one key at a time: the same draws from
    ``rng``, each new cross-community pair kept in draw order until the
    binomial count is met. Returns the pairs as (u, v) lists, u < v."""
    n = len(labels)
    counts: Dict[int, int] = {}
    for x in labels.tolist():
        counts[x] = counts.get(x, 0) + 1
    inter_pairs = n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in counts.values())
    count = rng.binomial(inter_pairs, p_out) if inter_pairs and p_out else 0
    chosen: set = set()
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < count:
        size = 2 * (count - len(pairs)) + 16
        u, v = rng.integers(0, n, size=size).tolist(), rng.integers(0, n, size=size).tolist()
        for a, b in zip(u, v):
            pair = (min(a, b), max(a, b))
            if a != b and labels[a] != labels[b] and pair not in chosen and len(pairs) < count:
                chosen.add(pair)
                pairs.append(pair)
    return [a for a, _ in pairs], [b for _, b in pairs]


# --- ingest reference --------------------------------------------------------


def oracle_symmetrize(counts, weight_mode: str = "unit"):
    """Mutual edges by per-pair dictionary lookups, sorted, then ``build_graph``."""
    from commtrack.graph import build_graph

    edges = []
    for (a, b), fwd in counts.items():
        if a < b and (b, a) in counts:
            rev = counts[(b, a)]
            w = 1.0 if weight_mode == "unit" else float(fwd + rev)
            edges.append((a, b, w))
    edges.sort()
    return build_graph(edges)


def oracle_degree_cap(g, cap: int):
    """Nodes with more than ``cap`` neighbours removed, rebuilt from edge tuples.
    Returns the graph and the removed ids in index order."""
    from commtrack.graph import build_graph

    ids = g.ids.ids
    degree = [int(g.indptr[u + 1] - g.indptr[u]) for u in range(g.n)]
    kept = [ids[u] for u in range(g.n) if degree[u] <= cap]
    removed = [ids[u] for u in range(g.n) if degree[u] > cap]
    edges = []
    for u in range(g.n):
        for e in range(int(g.indptr[u]), int(g.indptr[u + 1])):
            v = int(g.nbr[e])
            if u < v and degree[u] <= cap and degree[v] <= cap:
                edges.append((ids[u], ids[v], float(g.wgt[e])))
    for u in range(g.n):
        if degree[u] <= cap and g.self_loops[u] > 0:
            edges.append((ids[u], ids[u], float(g.self_loops[u])))
    return build_graph(edges, nodes=kept), removed


def oracle_ingest(lines, window, cap: int, weight_mode: str):
    """Record-by-record ingest: ``iter_parse_cdr`` -> ``aggregate_window`` ->
    dictionary symmetrization -> tuple degree cap. Returns the graph and the
    report fields as a dict."""
    from commtrack.ingest import RejectionReport, aggregate_window, iter_parse_cdr

    rejections = RejectionReport()
    records = list(iter_parse_cdr(lines, rejections))
    counts = aggregate_window(records, window)
    mutual = oracle_symmetrize(counts, weight_mode)
    g, removed = oracle_degree_cap(mutual, cap)
    n_in = sum(1 for r in records if window.contains(r[2]))
    return g, {
        "n_lines": rejections.n_lines,
        "n_valid": rejections.n_valid,
        "reasons": rejections.reasons,
        "first_line": rejections.first_line,
        "n_in_window": n_in,
        "n_out_of_window": len(records) - n_in,
        "n_directed_pairs": len(counts),
        "removed": removed,
        "n_nodes_before": mutual.n,
        "n_nodes_after": g.n,
        "n_edges_before": mutual.n_edges,
        "n_edges_after": g.n_edges,
    }


# --- TSV reference -------------------------------------------------------------
# The line-by-line readers and writers the columnar ones replaced: one line at a
# time, one dictionary entry per id and per node pair.


def oracle_build_graph(edges, nodes=()):
    """``build_graph`` by dictionaries: ids in first-seen order (``nodes``
    first), weights summed per unordered pair and per loop in input order,
    CSR rows sorted by neighbour."""
    import numpy as np

    from commtrack.errors import InputError
    from commtrack.graph import Graph, IdMap

    index: Dict = {}
    for x in nodes:
        index.setdefault(x, len(index))
    triples = []
    for edge in edges:
        w = float(edge[2]) if len(edge) == 3 else 1.0
        triples.append((index.setdefault(edge[0], len(index)), index.setdefault(edge[1], len(index)), w))
    ids = list(index)
    for a, b, w in triples:
        if not 0.0 <= w < math.inf:
            raise InputError(f"edge weight on ({ids[a]!r}, {ids[b]!r}) must be finite and non-negative, got {w}")
    n = len(ids)
    loops = [0.0] * n
    pair_w: Dict[Tuple[int, int], float] = {}
    for a, b, w in triples:
        if a == b:
            loops[a] += w
        else:
            key = (min(a, b), max(a, b))
            pair_w[key] = pair_w.get(key, 0.0) + w
    rows: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in pair_w.items():
        rows[a].append((b, w))
        rows[b].append((a, w))
    indptr = [0]
    nbr: List[int] = []
    wgt: List[float] = []
    for row in rows:
        for b, w in sorted(row):
            nbr.append(b)
            wgt.append(w)
        indptr.append(len(nbr))
    return Graph(
        IdMap(ids),
        np.array(indptr, dtype=np.int64),
        np.array(nbr, dtype=np.int64),
        np.array(wgt, dtype=np.float64),
        np.array(loops, dtype=np.float64),
    )


def oracle_read_edge_tsv(path):
    from commtrack.errors import InputError, reading_text

    edges: list = []
    nodes: list = []
    with open(path, "r", encoding="utf-8") as fh, reading_text(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) <= 3 and "" in parts[:2]:
                raise InputError(f"{path}:{lineno}: empty node id")
            if len(parts) == 1:
                nodes.append(parts[0])
                continue
            if len(parts) == 2:
                u, v = parts
                w = 1.0
            elif len(parts) == 3:
                u, v = parts[0], parts[1]
                try:
                    w = float(parts[2])
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
            else:
                raise InputError(f"{path}:{lineno}: expected 1-3 tab-separated fields")
            edges.append((u, v, w))
    return oracle_build_graph(edges, nodes=nodes)


def oracle_read_partition_tsv(path, graph=None):
    import numpy as np

    from commtrack.errors import InputError, reading_text
    from commtrack.graph import IdMap, Partition

    assignment: dict = {}
    with open(path, "r", encoding="utf-8") as fh, reading_text(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'node<TAB>label'")
            node, label_s = parts
            if not node:
                raise InputError(f"{path}:{lineno}: empty node id")
            try:
                label = int(label_s)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad label {label_s!r}") from exc
            if not -(2**63) <= label < 2**63:
                raise InputError(f"{path}:{lineno}: label {label_s!r} is outside the int64 range")
            if node in assignment:
                raise InputError(f"{path}:{lineno}: node {node!r} listed twice")
            assignment[node] = label
    if graph is None:
        return Partition(IdMap(assignment.keys()), np.array(list(assignment.values()), dtype=np.int64))
    for node in assignment:
        if node not in graph.ids.index:
            raise InputError(f"partition assigns unknown node {node!r}")
    if len(assignment) != graph.n:
        raise InputError(f"partition covers {len(assignment)} of {graph.n} nodes")
    return Partition(graph.ids, np.array([assignment[x] for x in graph.ids.ids], dtype=np.int64))


def _oracle_weight_text(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def oracle_write_edge_tsv(g, path) -> None:
    """Edges once (u < v) walking the CSR, then self-loops, then nodes with
    neither; ids are not checked."""
    ids = g.ids.ids
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.n):
            for e in range(int(g.indptr[u]), int(g.indptr[u + 1])):
                v = int(g.nbr[e])
                if u < v:
                    fh.write(f"{ids[u]}\t{ids[v]}\t{_oracle_weight_text(float(g.wgt[e]))}\n")
        for u in range(g.n):
            w = float(g.self_loops[u])
            if w != 0.0:
                fh.write(f"{ids[u]}\t{ids[u]}\t{_oracle_weight_text(w)}\n")
        for u in range(g.n):
            if g.indptr[u] == g.indptr[u + 1] and g.self_loops[u] == 0.0:
                fh.write(f"{ids[u]}\n")


def oracle_write_partition_tsv(part, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(part.n):
            fh.write(f"{part.ids.ids[i]}\t{int(part.labels[i])}\n")


# --- compare twins -------------------------------------------------------------


def twin_contingency(a, b):
    """``metrics._contingency`` by ``np.unique`` over the cell keys alone, the
    one form it took before it counted small tables whole."""
    import numpy as np

    _, dense_a, _ = a.ranked
    uniq_b, dense_b, _ = b.ranked
    if not (a.ids is b.ids or a.ids == b.ids):
        pos = a.ids.positions(b.ids.ids)
        shared = pos >= 0
        dense_a, dense_b = dense_a[pos[shared]], dense_b[shared]
    nb = len(uniq_b)
    cells, counts = np.unique(dense_a * nb + dense_b, return_counts=True)
    return cells // nb, cells % nb, counts


def twin_mutual_information(n: int, table, row, col) -> float:
    """``metrics._mutual_information`` one cell at a time: ``math.log`` and a
    left-to-right sum in a Python float."""
    ia, ib, counts = table
    mi = 0.0
    for i, j, nij in zip(ia.tolist(), ib.tolist(), counts.tolist()):
        mi += (nij / n) * math.log(nij * n / (row[i] * col[j]))
    return max(0.0, mi)


def twin_compare(a, b, g_next=None, cfg=None):
    """The ``metrics.ComparisonReport`` of ``a`` and ``b`` with the two twins
    above for the table and the MI; the margins, entropies, matching and
    modularity are the package's."""
    import numpy as np

    from commtrack import metrics
    from commtrack.louvain import modularity

    cfg = cfg or metrics.MatchConfig()
    table = ia, ib, counts = twin_contingency(a, b)
    n = int(counts.sum())
    row = np.bincount(ia, weights=counts)
    col = np.bincount(ib, weights=counts)
    return metrics.ComparisonReport(
        mi_nats=twin_mutual_information(n, table, row, col),
        entropy_a=metrics._entropy(row / n),
        entropy_b=metrics._entropy(col / n),
        n_common=n,
        n_a=len(a.labels),
        n_b=len(b.labels),
        n_communities_a=len(a.ranked[0]),
        n_communities_b=len(b.ranked[0]),
        r=cfg.r,
        matching=metrics._matching(table, a, b, cfg.r),
        modularity_next=None if g_next is None else modularity(g_next, b),
    )
