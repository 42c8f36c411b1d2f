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
from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NoReturn, Optional, Tuple, Union

import numpy as np

from .errors import InputError, InternalInvariantError, reading_text

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
            deg = np.bincount(self._rows(), weights=self.wgt, minlength=self.n)
            self._degrees = deg + 2.0 * self.self_loops
        return self._degrees

    def neighbor_counts(self) -> np.ndarray:
        """Number of distinct neighbors per node (self-loops excluded)."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.nbr[lo:hi], self.wgt[lo:hi]

    def _rows(self) -> np.ndarray:
        """The row (source node index) of every CSR entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def _upper_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected non-loop edge once as index arrays (u, v, w) with
        u < v, in CSR order."""
        rows = self._rows()
        half = rows < self.nbr
        return rows[half], self.nbr[half], self.wgt[half]

    def edges(self) -> Iterator[Tuple[ExternalId, ExternalId, float]]:
        """Yield each undirected edge once (u index <= v index), then self-loops."""
        ids = self.ids.ids
        u, v, w = self._upper_edges()
        for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()):
            yield ids[a], ids[b], x
        loops = np.flatnonzero(self.self_loops != 0.0)
        for a, x in zip(loops.tolist(), self.self_loops[loops].tolist()):
            yield ids[a], ids[a], x

    def subgraph(self, keep_mask: np.ndarray) -> "Graph":
        """The subgraph induced by the nodes where ``keep_mask`` is true.

        Kept nodes keep their relative order and their self-loops; rows stay
        sorted because the index map is monotone.
        """
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (self.n,):
            raise InputError(f"subgraph mask has shape {keep.shape} for {self.n} nodes")
        new_index = np.cumsum(keep) - 1
        rows = self._rows()
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
    ends: list = []
    ws: list = []
    for edge in edges:
        if len(edge) == 2:
            a, b = edge  # type: ignore[misc]
            w = 1.0
        else:
            a, b, w = edge  # type: ignore[misc]
            w = float(w)
        ends.append(a)
        ends.append(b)
        ws.append(w)
    id_map, idx = _intern(nodes, ends)
    return _graph_from_index_arrays(id_map, idx[0::2], idx[1::2], np.asarray(ws, dtype=np.float64))


def _intern(nodes: Iterable[ExternalId], ends: list) -> Tuple[IdMap, np.ndarray]:
    """Index ids in first-seen order, ``nodes`` first, then ``ends``; returns
    the ids and the index of each of ``ends``."""
    id_map = IdMap(dict.fromkeys(chain(nodes, ends)))
    return id_map, np.fromiter(map(id_map.index.__getitem__, ends), dtype=np.int64, count=len(ends))


def _graph_from_index_arrays(id_map: IdMap, ua: np.ndarray, va: np.ndarray, w: np.ndarray) -> Graph:
    """:func:`build_graph` of the edges ``(ua[i], va[i], w[i])``, given as
    indices into ``id_map``."""
    n = len(id_map)
    bad = ~((w >= 0.0) & (w < np.inf))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        ids = id_map.ids
        raise InputError(
            f"edge weight on ({ids[ua[i]]!r}, {ids[va[i]]!r}) must be finite "
            f"and non-negative, got {float(w[i])}"
        )

    loops = np.zeros(n, dtype=np.float64)
    loop_mask = ua == va
    if loop_mask.any():
        np.add.at(loops, ua[loop_mask], w[loop_mask])
        keep = ~loop_mask
        ua, va, w = ua[keep], va[keep], w[keep]

    keys = np.minimum(ua, va) * n + np.maximum(ua, va)
    uniq, inv = np.unique(keys, return_inverse=True)
    merged_w = np.bincount(inv, weights=w, minlength=len(uniq))
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
    # the entries are distinct, so one sort of this key orders them by (row, col)
    key = rows.astype(np.int64) * n
    key += cols
    order = np.argsort(key)
    del key
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

    rows = g._rows()
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
# Edge list: one edge per line, "u<TAB>v<TAB>w" (w optional, default 1), or a
# lone "u" for a node without edges; lines starting with '#' are comments.
# Partition: "node_id<TAB>label". Readers take a whole file as text and parse
# it column by column; when a column does not parse, the file is scanned line
# by line for the first bad line, which the error names.

_WRITE_ROWS = 4096  # lines formatted per write; bounds the writers' memory


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def _as_text(values: np.ndarray, fmt: Callable[[object], str] = str) -> list:
    """``fmt`` of each value, called once per distinct value."""
    uniq, inv = np.unique(values, return_inverse=True)
    return np.array([fmt(x) for x in uniq.tolist()], dtype=object)[inv].tolist()


def _weights_as_text(w: np.ndarray) -> list:
    return _as_text(w, _format_weight)


def _writable_ids(ids: Iterable[ExternalId]) -> np.ndarray:
    """The ids as strings (an object array, to gather by index), raising
    unless every one reads back from a TSV line as itself: it must be
    non-empty, hold no tab, CR or LF, and not start with '#'."""
    out = [str(x) for x in ids]
    for s in out:
        if not s or s[0] == "#" or "\t" in s or "\r" in s or "\n" in s:
            raise InputError(
                f"node id {s!r} cannot be written to a TSV file: ids must be non-empty, "
                "hold no tab, CR or LF, and not start with '#'"
            )
    return np.array(out, dtype=object)


def _write_lines(fh, *columns: Tuple[np.ndarray, Callable[[np.ndarray], list]]) -> None:
    """Write one line per row of the ``(array, to_text)`` columns, fields
    joined by tabs, formatting ``_WRITE_ROWS`` rows at a time."""
    for lo in range(0, len(columns[0][0]), _WRITE_ROWS):
        hi = lo + _WRITE_ROWS
        rows = zip(*(to_text(a[lo:hi]) for a, to_text in columns))
        fh.write("\n".join(map("\t".join, rows)) + "\n")


def write_edge_tsv(g: Graph, path) -> None:
    """Write ``g`` as an edge list: each edge once in index order (u < v), then
    self-loops, then nodes with neither as one-column lines."""
    ids = _writable_ids(g.ids.ids)

    def names(idx: np.ndarray) -> list:
        return ids[idx].tolist()

    u, v, w = g._upper_edges()
    loops = np.flatnonzero(g.self_loops != 0.0)
    lone = np.flatnonzero((g.neighbor_counts() == 0) & (g.self_loops == 0.0))
    with open(path, "w", encoding="utf-8") as fh:
        _write_lines(fh, (u, names), (v, names), (w, _weights_as_text))
        _write_lines(fh, (loops, names), (loops, names), (g.self_loops[loops], _weights_as_text))
        _write_lines(fh, (lone, names))


def write_partition_tsv(part: Partition, path) -> None:
    ids = _writable_ids(part.ids.ids)
    with open(path, "w", encoding="utf-8") as fh:
        _write_lines(fh, (ids, np.ndarray.tolist), (part.labels, _as_text))


def _data_lines(path) -> list:
    """The lines of a TSV file that hold data, in file order.

    The file is read whole in text mode, so CRLF and a lone CR end lines as
    LF does; blank lines and lines starting with '#' are left out.
    """
    with open(path, "r", encoding="utf-8") as fh, reading_text(path):
        text = fh.read()
    lines = text.split("\n")
    if text[:1] in ("#", "\n") or "\n#" in text or "\n\n" in text:
        return [ln for ln in lines if ln and ln[0] != "#"]
    if not lines[-1]:
        lines.pop()
    return lines


def _raise_first_bad_line(path, problem: Callable[[list], Optional[str]]) -> NoReturn:
    """Raise an :class:`InputError` naming the first data line of ``path``
    for which ``problem`` (given the line's tab-separated fields) returns a
    message."""
    with open(path, "r", encoding="utf-8") as fh, reading_text(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line and line[0] != "#":
                message = problem(line.split("\t"))
                if message is not None:
                    raise InputError(f"{path}:{lineno}: {message}")
    raise InternalInvariantError(f"{path}: a column failed to parse but no line is bad")


def _edge_line_problem(parts: list) -> Optional[str]:
    if len(parts) > 3:
        return "expected 1-3 tab-separated fields"
    if len(parts) == 3:
        try:
            float(parts[2])
        except ValueError:
            return f"bad weight {parts[2]!r}"
    return None


def read_edge_tsv(path) -> Graph:
    """Read an edge list written by :func:`write_edge_tsv` or by hand.

    Ids are indexed in first-seen order, one-column lines first, as
    :func:`build_graph` does with them as ``nodes`` and the edges in file
    order.
    """
    lines = _data_lines(path)
    tabs = list(map(str.count, lines, repeat("\t", len(lines))))
    if max(tabs, default=0) > 2:
        _raise_first_bad_line(path, _edge_line_problem)
    nodes: list = []
    if min(tabs, default=2) < 2:  # a weight of 1 for two-column lines
        nodes = [ln for ln, t in zip(lines, tabs) if t == 0]
        lines = [ln if t == 2 else ln + "\t1" for ln, t in zip(lines, tabs) if t]
    del tabs
    joined = "\t".join(lines)
    del lines
    fields = joined.split("\t") if joined else []
    del joined
    try:
        w = np.array(fields[2::3], dtype=np.float64)
    except ValueError:
        _raise_first_bad_line(path, _edge_line_problem)
    del fields[2::3]
    id_map, idx = _intern(nodes, fields)
    del nodes, fields
    return _graph_from_index_arrays(id_map, idx[0::2], idx[1::2], w)


def read_partition_tsv(path, graph: Optional[Graph] = None) -> Partition:
    """Read a partition; align it to ``graph`` when given, else stand alone.

    Standalone partitions build their own IdMap in file order, which is how
    a previous snapshot's partition is compared against a newer graph.
    """
    lines = _data_lines(path)
    seen: set = set()

    def problem(parts: list) -> Optional[str]:
        if len(parts) != 2:
            return "expected 'node<TAB>label'"
        node, label_s = parts
        try:
            label = int(label_s)
        except ValueError:
            return f"bad label {label_s!r}"
        if not -INT64_MAX - 1 <= label <= INT64_MAX:
            return f"label {label_s!r} is outside the int64 range"
        if node in seen:
            return f"node {node!r} listed twice"
        seen.add(node)
        return None

    if any(ln.count("\t") != 1 for ln in lines):
        _raise_first_bad_line(path, problem)
    joined = "\t".join(lines)
    del lines
    fields = joined.split("\t") if joined else []
    del joined
    try:
        labels = np.array(fields[1::2], dtype=np.int64)
    except (ValueError, OverflowError):
        _raise_first_bad_line(path, problem)
    del fields[1::2]
    try:
        ids = IdMap(fields)
    except InputError:  # a node listed twice
        _raise_first_bad_line(path, problem)
    if graph is None:
        return Partition(ids, labels)
    return Partition.from_mapping(graph, dict(zip(ids.ids, labels.tolist())))
