"""Undirected weighted graph with dense internal indices, plus partitions.

The graph is stored in CSR form (``indptr``/``nbr``/``wgt``) so algorithm hot
loops work on contiguous integer indices while external node ids (strings or
ints from source data) stay available through an :class:`IdMap`.

Self-loop convention: ``self_loops[u]`` stores the loop weight once; a loop of
stored weight ``w`` contributes ``2*w`` to the degree of ``u`` and ``2*w`` to
``total_weight_2m``. Under this convention collapsing a graph by a partition
(:func:`aggregate_by_partition`) preserves modularity exactly, and the
self-loop of a supernode equals the once-counted internal weight of its
community.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import InputError, reading_text

__all__ = [
    "IdMap",
    "Graph",
    "build_graph",
    "graph_from_distinct_edges",
    "Partition",
    "aggregate_by_partition",
    "write_edge_tsv",
    "read_edge_tsv",
    "write_partition_tsv",
    "read_partition_tsv",
]

INT64_MAX = int(np.iinfo(np.int64).max)  # community labels are int64

ExternalId = Hashable
EdgeInput = Union[Tuple[ExternalId, ExternalId], Tuple[ExternalId, ExternalId, float]]


class IdMap:
    """Bijection between external node ids and dense internal indices [0, n)."""

    __slots__ = ("ids", "index")

    def __init__(self, ids: Iterable[ExternalId]):
        self.ids = list(ids)
        self.index = {x: i for i, x in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise InputError("duplicate external node ids")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, external_id: ExternalId) -> bool:
        return external_id in self.index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, IdMap) and self.ids == other.ids

    def __repr__(self) -> str:
        return f"IdMap(n={len(self.ids)})"


class Graph:
    """Immutable undirected weighted graph in CSR form.

    Adjacency is symmetric (each undirected edge appears in both rows), rows
    are sorted by neighbor index and contain no duplicates and no self
    entries; self-loops live in ``self_loops``. Safe to share across threads
    once built.
    """

    __slots__ = ("ids", "indptr", "nbr", "wgt", "self_loops", "total_weight_2m", "_degrees")

    def __init__(
        self,
        ids: IdMap,
        indptr: np.ndarray,
        nbr: np.ndarray,
        wgt: np.ndarray,
        self_loops: np.ndarray,
    ):
        self.ids = ids
        self.indptr = indptr
        self.nbr = nbr
        self.wgt = wgt
        self.self_loops = self_loops
        self.total_weight_2m = float(wgt.sum() + 2.0 * self_loops.sum())
        # the optimizer's scores reach (2m)^2; past that they overflow
        if not math.isfinite(self.total_weight_2m * self.total_weight_2m):
            raise InputError(
                f"total edge weight 2m = {self.total_weight_2m:g} is too large: (2m)^2 overflows"
            )
        self._degrees: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        """Number of undirected non-loop edges."""
        return len(self.nbr) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree per node; a self-loop counts twice its stored weight."""
        if self._degrees is None:
            n = self.n
            rows = np.repeat(np.arange(n), np.diff(self.indptr))
            deg = np.bincount(rows, weights=self.wgt, minlength=n)
            self._degrees = deg + 2.0 * self.self_loops
        return self._degrees

    def neighbor_counts(self) -> np.ndarray:
        """Number of distinct neighbors per node (self-loops excluded)."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.nbr[lo:hi], self.wgt[lo:hi]

    def edges(self) -> Iterator[Tuple[ExternalId, ExternalId, float]]:
        """Yield each undirected edge once (u index <= v index), then self-loops."""
        ids = self.ids.ids
        indptr = self.indptr
        for u in range(self.n):
            for e in range(indptr[u], indptr[u + 1]):
                v = int(self.nbr[e])
                if u < v:
                    yield ids[u], ids[v], float(self.wgt[e])
        for u in range(self.n):
            w = float(self.self_loops[u])
            if w != 0.0:
                yield ids[u], ids[u], w

    def subgraph(self, keep_mask: np.ndarray) -> "Graph":
        """The subgraph induced by the nodes where ``keep_mask`` is true.

        Kept nodes keep their relative order and their self-loops; rows stay
        sorted because the index map is monotone.
        """
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (self.n,):
            raise InputError(f"subgraph mask has shape {keep.shape} for {self.n} nodes")
        new_index = np.cumsum(keep) - 1
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        edge_mask = keep[rows] & keep[self.nbr]
        kept = np.flatnonzero(keep)
        indptr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_index[rows[edge_mask]], minlength=len(kept)), out=indptr[1:])
        ids = self.ids.ids
        return Graph(
            IdMap([ids[i] for i in kept.tolist()]),
            indptr,
            new_index[self.nbr[edge_mask]],
            self.wgt[edge_mask],
            self.self_loops[keep],
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.n_edges}, 2m={self.total_weight_2m:g})"


def build_graph(edges: Iterable[EdgeInput], nodes: Iterable[ExternalId] = ()) -> Graph:
    """Build a symmetric :class:`Graph` from (u, v[, weight]) tuples.

    External ids get dense indices in first-seen order (``nodes`` first, then
    edge endpoints), so the same input always produces the same graph.
    Duplicate (u, v) entries merge by weight summation, regardless of
    orientation; (u, u) entries accumulate into the node's self-loop. Weights
    default to 1 and must be finite and non-negative.
    """
    ext_ids: list = []
    index: dict = {}

    def intern(x: ExternalId) -> int:
        i = index.get(x)
        if i is None:
            i = len(ext_ids)
            index[x] = i
            ext_ids.append(x)
        return i

    for x in nodes:
        intern(x)

    us: list = []
    vs: list = []
    ws: list = []
    for edge in edges:
        if len(edge) == 2:
            a, b = edge  # type: ignore[misc]
            w = 1.0
        else:
            a, b, w = edge  # type: ignore[misc]
            w = float(w)
        us.append(intern(a))
        vs.append(intern(b))
        ws.append(w)

    n = len(ext_ids)
    id_map = IdMap(ext_ids)
    loops = np.zeros(n, dtype=np.float64)
    ua = np.asarray(us, dtype=np.int64)
    va = np.asarray(vs, dtype=np.int64)
    wa = np.asarray(ws, dtype=np.float64)
    bad = ~((wa >= 0.0) & (wa < np.inf))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(
            f"edge weight on ({ext_ids[us[i]]!r}, {ext_ids[vs[i]]!r}) must be finite "
            f"and non-negative, got {ws[i]}"
        )

    loop_mask = ua == va
    if loop_mask.any():
        np.add.at(loops, ua[loop_mask], wa[loop_mask])
        keep = ~loop_mask
        ua, va, wa = ua[keep], va[keep], wa[keep]

    lo = np.minimum(ua, va)
    hi = np.maximum(ua, va)
    keys = lo * n + hi
    uniq, inv = np.unique(keys, return_inverse=True)
    merged_w = np.bincount(inv, weights=wa, minlength=len(uniq))
    return graph_from_distinct_edges(id_map, uniq // n, uniq % n, merged_w, loops)


def graph_from_distinct_edges(
    ids: IdMap, u: np.ndarray, v: np.ndarray, w: np.ndarray, self_loops: np.ndarray
) -> Graph:
    """CSR graph from distinct undirected non-loop edges ``(u[i], v[i], w[i])``
    given as int64 node indices into ``ids``, in any order and orientation."""
    n = len(ids)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    w2 = np.concatenate([w, w], dtype=np.float64)  # bincount sums come back int64 when empty
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(ids, indptr, cols[order], w2[order], self_loops)


class Partition:
    """Assignment of every node of one graph to an int64 community label.

    Shares the graph's :class:`IdMap`, so partitions of different snapshots
    can be compared through external ids.
    """

    __slots__ = ("ids", "labels")

    def __init__(self, ids: IdMap, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (len(ids),):
            raise InputError(f"partition has {labels.shape[0]} labels for {len(ids)} nodes")
        self.ids = ids
        self.labels = labels

    @classmethod
    def singletons(cls, g: Graph) -> "Partition":
        return cls(g.ids, np.arange(g.n, dtype=np.int64))

    @classmethod
    def from_mapping(cls, g: Graph, assignment: Mapping[ExternalId, int]) -> "Partition":
        labels = np.empty(g.n, dtype=np.int64)
        seen = 0
        for x, lab in assignment.items():
            i = g.ids.index.get(x)
            if i is None:
                raise InputError(f"partition assigns unknown node {x!r}")
            labels[i] = int(lab)
            seen += 1
        if seen != g.n:
            raise InputError(f"partition covers {seen} of {g.n} nodes")
        return cls(g.ids, labels)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def labels_set(self) -> set:
        return set(np.unique(self.labels).tolist())

    def label_of(self, external_id: ExternalId) -> int:
        i = self.ids.index.get(external_id)
        if i is None:
            raise InputError(f"node {external_id!r} is not covered by this partition")
        return int(self.labels[i])

    def communities(self) -> dict:
        """Map label -> array of member internal indices."""
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        uniq, starts = np.unique(sorted_labels, return_index=True)
        out = {}
        bounds = list(starts) + [len(order)]
        for k, lab in enumerate(uniq.tolist()):
            out[lab] = order[bounds[k]:bounds[k + 1]]
        return out

    def community_sizes(self) -> dict:
        uniq, counts = np.unique(self.labels, return_counts=True)
        return dict(zip(uniq.tolist(), counts.tolist()))

    def covers(self, g: Graph) -> bool:
        return self.ids is g.ids or self.ids == g.ids

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.ids == other.ids
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, communities={len(np.unique(self.labels))})"


def aggregate_by_partition(g: Graph, part: Partition) -> Graph:
    """Collapse each community to one node (Louvain phase 2).

    The returned graph has one node per live label (the label value becomes
    the external id, in sorted order). Crossing weights sum into
    inter-community edges; internal weight, counted once, plus member
    self-loops become the supernode's self-loop, so ``total_weight_2m`` is
    preserved exactly for integer weights.
    """
    if not part.covers(g):
        raise InputError("partition does not cover the graph")
    uniq, dense = np.unique(part.labels, return_inverse=True)
    c = len(uniq)

    new_loops = np.zeros(c, dtype=np.float64)
    np.add.at(new_loops, dense, g.self_loops)

    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    cu = dense[rows]
    cv = dense[g.nbr]

    internal = cu == cv
    if internal.any():
        # each internal edge appears in both directions -> sum/2 counts it once
        np.add.at(new_loops, cu[internal], g.wgt[internal] * 0.5)

    # each crossing edge appears in both directions; keep one so both
    # orientations get the same merged weight
    half = cu < cv
    keys = cu[half] * c + cv[half]
    uniq_keys, inv = np.unique(keys, return_inverse=True)
    merged_w = np.bincount(inv, weights=g.wgt[half], minlength=len(uniq_keys))
    return graph_from_distinct_edges(IdMap(uniq.tolist()), uniq_keys // c, uniq_keys % c, merged_w, new_loops)


# --- text formats -----------------------------------------------------------
# Edge list: one edge per line, "u<TAB>v<TAB>w" (w optional, default 1);
# lines starting with '#' are comments. Partition: "node_id<TAB>label".


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def _check_writable_ids(ids: Iterable[ExternalId]) -> None:
    """Raise unless every id reads back from a TSV line as itself: it must be
    non-empty, hold no tab, CR or LF, and not start with '#'."""
    for x in ids:
        s = str(x)
        if not s or s[0] == "#" or "\t" in s or "\r" in s or "\n" in s:
            raise InputError(
                f"node id {s!r} cannot be written to a TSV file: ids must be non-empty, "
                "hold no tab, CR or LF, and not start with '#'"
            )


def write_edge_tsv(g: Graph, path) -> None:
    _check_writable_ids(g.ids.ids)
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in g.edges():
            fh.write(f"{u}\t{v}\t{_format_weight(w)}\n")
        # isolated nodes kept as degenerate one-column lines
        counts = g.neighbor_counts()
        for i in range(g.n):
            if counts[i] == 0 and g.self_loops[i] == 0.0:
                fh.write(f"{g.ids.ids[i]}\n")


def read_edge_tsv(path) -> Graph:
    edges: list = []
    nodes: list = []
    with open(path, "r", encoding="utf-8") as fh, reading_text(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
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
    return build_graph(edges, nodes=nodes)


def write_partition_tsv(part: Partition, path) -> None:
    _check_writable_ids(part.ids.ids)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(part.n):
            fh.write(f"{part.ids.ids[i]}\t{int(part.labels[i])}\n")


def read_partition_tsv(path, graph: Optional[Graph] = None) -> Partition:
    """Read a partition; align it to ``graph`` when given, else stand alone.

    Standalone partitions build their own IdMap in file order, which is how
    a previous snapshot's partition is compared against a newer graph.
    """
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
            try:
                label = int(label_s)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad label {label_s!r}") from exc
            if not -INT64_MAX - 1 <= label <= INT64_MAX:
                raise InputError(f"{path}:{lineno}: label {label_s!r} is outside the int64 range")
            if node in assignment:
                raise InputError(f"{path}:{lineno}: node {node!r} listed twice")
            assignment[node] = label
    if graph is not None:
        return Partition.from_mapping(graph, assignment)
    id_map = IdMap(assignment.keys())
    return Partition(id_map, np.fromiter(assignment.values(), dtype=np.int64, count=len(assignment)))
