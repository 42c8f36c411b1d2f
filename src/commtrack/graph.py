"""Undirected weighted graph with dense internal indices, plus partitions.

The graph is stored in CSR form (``indptr``/``nbr``/``wgt``) so algorithm hot
loops work on contiguous integer indices while external node ids (strings or
ints from source data) stay available through an :class:`IdMap`.

Snapshots meet through two functions. :meth:`IdMap.positions` is the one
id join: the index of each given id in a map, or -1 where it is absent.
:func:`project` is the one graph projection: it maps each node to a node of
a new id set, or drops it, summing the edges that land together; it backs
:func:`aggregate_by_partition`, :meth:`Graph.subgraph` and the re-indexing
of a stored graph into its partition's node order. Its body is C from the
package's compiled library when that loads, else numpy; both sum in one
order and give the same bits. :func:`graph_from_edges` is the one
CSR builder from an edge list, behind :func:`build_graph`,
:func:`read_edge_tsv`, ingest and the synthetic generator; it too has a C
and a numpy body that sum alike.

Self-loop convention: ``self_loops[u]`` stores the loop weight once; a loop of
stored weight ``w`` contributes ``2*w`` to the degree of ``u`` and ``2*w`` to
``total_weight_2m``. Under this convention collapsing a graph by a partition
(:func:`aggregate_by_partition`) preserves modularity exactly, and the
self-loop of a supernode equals the once-counted internal weight of its
community.
"""

from __future__ import annotations

import math
from itertools import chain, compress, repeat
from typing import Callable, Hashable, Iterable, NoReturn, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from . import _native
from .errors import InputError, InternalInvariantError, reading_text, replacing

__all__ = [
    "IdMap",
    "Graph",
    "build_graph",
    "graph_from_edges",
    "Partition",
    "aggregate_by_partition",
    "project",
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

    __slots__ = ("ids", "index", "_joined")

    def __init__(self, ids: Iterable[ExternalId]):
        self.ids = list(ids)
        self.index = dict(zip(self.ids, range(len(self.ids))))
        if len(self.index) != len(self.ids):
            raise InputError("duplicate external node ids")
        self._joined: Optional[Tuple[Sequence[ExternalId], np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, external_id: ExternalId) -> bool:
        return external_id in self.index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, IdMap) and self.ids == other.ids

    def positions(self, ids: Sequence[ExternalId]) -> np.ndarray:
        """The index of each of ``ids`` in this map, -1 where it is absent.

        The map remembers its last join, keyed by the identity of ``ids``:
        asked again with the same list object, it returns the same array
        without a second pass. A seeding, a comparison and a sweep's overlap
        check all join the later snapshot's ids into the earlier map, so one
        join serves all three. The result is read-only, since callers share
        it. ``ids`` must not change; the ``ids`` of an :class:`IdMap` never do.
        """
        joined = self._joined
        if joined is not None and joined[0] is ids:
            return joined[1]
        pos = np.fromiter(map(self.index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
        pos.flags.writeable = False
        self._joined = ids, pos
        return pos

    def __repr__(self) -> str:
        return f"IdMap(n={len(self.ids)})"


class Graph:
    """Immutable undirected weighted graph in CSR form.

    Adjacency is symmetric (each undirected edge appears in both rows), rows
    are sorted by neighbor index and contain no duplicates and no self
    entries; self-loops live in ``self_loops``. Safe to share across threads
    once built. The arrays are stored C-contiguous, int64 and float64, and
    checked to form a CSR adjacency (else :class:`InternalInvariantError`),
    so a compiled kernel may index any graph's arrays unchecked.
    """

    __slots__ = ("ids", "indptr", "nbr", "wgt", "self_loops", "total_weight_2m", "_degrees", "_pointers")

    def __init__(
        self,
        ids: IdMap,
        indptr: ArrayLike,
        nbr: ArrayLike,
        wgt: ArrayLike,
        self_loops: ArrayLike,
    ):
        n = len(ids)
        self.ids = ids
        self.indptr = indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.nbr = nbr = np.ascontiguousarray(nbr, dtype=np.int64)
        self.wgt = wgt = np.ascontiguousarray(wgt, dtype=np.float64)
        self.self_loops = self_loops = np.ascontiguousarray(self_loops, dtype=np.float64)
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or nbr.shape != (indptr[-1],) or wgt.shape != nbr.shape
                or self_loops.shape != (n,) or np.any(np.diff(indptr) < 0)
                or (len(nbr) and (nbr.min() < 0 or nbr.max() >= n))):
            raise InternalInvariantError("graph is not a valid CSR adjacency")
        self.total_weight_2m = float(wgt.sum() + 2.0 * self_loops.sum())
        # the optimizer's scores reach (2m)^2; past that they overflow
        if not math.isfinite(self.total_weight_2m * self.total_weight_2m):
            raise InputError(
                f"total edge weight 2m = {self.total_weight_2m:g} is too large: (2m)^2 overflows"
            )
        self._degrees: Optional[np.ndarray] = None
        self._pointers: Optional[Tuple[int, int, int, int, int]] = None

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

    def _rows(self) -> np.ndarray:
        """The row (source node index) of every CSR entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def _kernel_pointers(self) -> Tuple[int, int, int, int, int]:
        """The addresses of ``indptr``, ``nbr``, ``wgt``, ``self_loops`` and
        :attr:`degrees` (C-contiguous float64), taken once per graph. The
        graph holds every one of these arrays and never replaces it."""
        if self._pointers is None:
            self._pointers = _native.addresses((self.indptr, self.nbr, self.wgt, self.self_loops, self.degrees))
        return self._pointers

    def _upper_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected non-loop edge once as index arrays (u, v, w) with
        u < v, in CSR order."""
        rows = self._rows()
        upper = np.flatnonzero(rows < self.nbr)
        u = rows[upper]
        del rows  # before the other two gathers, which then reuse its memory
        return u, self.nbr[upper], self.wgt[upper]

    def subgraph(self, keep_mask: np.ndarray) -> "Graph":
        """The subgraph induced by the nodes where ``keep_mask`` is true.

        Kept nodes keep their relative order and their self-loops.
        """
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (self.n,):
            raise InputError(f"subgraph mask has shape {keep.shape} for {self.n} nodes")
        if keep.all():  # the graph is immutable, and its stored weights are never -0.0
            return self
        new_index = np.where(keep, np.cumsum(keep) - 1, -1)
        return project(self, IdMap(compress(self.ids.ids, keep)), new_index)

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
    return graph_from_edges(id_map, idx[0::2], idx[1::2], np.asarray(ws, dtype=np.float64))


def _intern(nodes: Iterable[ExternalId], ends: list) -> Tuple[IdMap, np.ndarray]:
    """Index ids in first-seen order, ``nodes`` first, then ``ends``; returns
    the ids and the index of each of ``ends``."""
    id_map = IdMap(list(dict.fromkeys(chain(nodes, ends))))  # a list, so the first dict is freed first
    return id_map, np.fromiter(map(id_map.index.__getitem__, ends), dtype=np.int64, count=len(ends))


def graph_from_edges(ids: IdMap, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Graph:
    """CSR graph of the undirected edge entries ``(u[i], v[i], w[i])``, given
    as int64 node indices into ``ids`` in any order and orientation.

    Entries may repeat and may be loops: each loop entry adds to its node's
    loop weight and each edge sums its entries, both in input order, so both
    bodies (see :func:`_build_py`) give the same bits. Weights must be finite
    and non-negative.
    """
    n = len(ids)
    w = np.ascontiguousarray(w, dtype=np.float64)
    u = checked_index(u, len(w), 0, n, "edge endpoint")
    v = checked_index(v, len(w), 0, n, "edge endpoint")
    bad = ~((w >= 0.0) & (w < np.inf))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(
            f"edge weight on ({ids.ids[u[i]]!r}, {ids.ids[v[i]]!r}) must be finite "
            f"and non-negative, got {float(w[i])}"
        )
    return _build(ids, u, v, w, np.zeros(n))  # the builder adds loop entries to it


def _build_py(ids: IdMap, u: np.ndarray, v: np.ndarray, w: np.ndarray, loops: np.ndarray) -> Graph:
    """The graph of the checked entries ``(u[i], v[i], w[i])`` on ``ids``:
    loop entries add to ``loops`` in input order (``np.add.at``), the entries
    of each unordered pair sum from +0.0 in input order (``np.bincount``), and
    each sum is stored in both rows. :func:`_build_c` is the same sums in C.
    """
    n = len(ids)
    loop_mask = u == v
    if loop_mask.any():
        np.add.at(loops, u[loop_mask], w[loop_mask])
        keep = ~loop_mask
        u, v, w = u[keep], v[keep], w[keep]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    uniq, inv = np.unique(keys, return_inverse=True)
    merged = np.bincount(inv, weights=w, minlength=len(uniq))
    a, b = uniq // n, uniq % n
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    w2 = np.concatenate([merged, merged], dtype=np.float64)  # bincount sums come back int64 when empty
    # the entries are distinct, so one sort of this key orders them by (row, col)
    key = rows * n
    key += cols
    order = np.argsort(key)
    del key
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(ids, indptr, cols[order], w2[order], loops)


def _build_c(ids: IdMap, u: np.ndarray, v: np.ndarray, w: np.ndarray, loops: np.ndarray) -> Graph:
    """:func:`_build_py` compiled from ``_native.c``; ``u`` and ``v`` are checked."""
    n, m = len(ids), len(w)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    out_nbr = np.empty(2 * m, dtype=np.int64)
    out_wgt = np.empty(2 * m, dtype=np.float64)
    scratch = np.empty(4 * n + 3 + m, dtype=np.int64), np.empty(n + m, dtype=np.float64)
    k = _native.call("commtrack_build", n, m, u, v, w, *scratch, out_ptr, out_nbr, out_wgt, loops)
    del scratch
    if k < 2 * m:  # keep no unused tail alive with the graph
        out_nbr, out_wgt = out_nbr[:k].copy(), out_wgt[:k].copy()
    return Graph(ids, out_ptr, out_nbr, out_wgt, loops)


_build = _build_py if _native.LIB is None else _build_c


class Partition:
    """Assignment of every node of one graph to an int64 community label.

    Shares the graph's :class:`IdMap`, so partitions of different snapshots
    can be compared through external ids. ``labels`` is its own read-only
    copy, so its :attr:`ranked` form is derived once. It keeps nothing else.
    """

    __slots__ = ("ids", "labels", "_ranked")

    def __init__(self, ids: IdMap, labels: ArrayLike):
        labels = np.array(labels, dtype=np.int64)
        if labels.shape != (len(ids),):
            raise InputError(f"partition labels have shape {labels.shape} for {len(ids)} nodes")
        labels.flags.writeable = False
        self.ids, self.labels, self._ranked = ids, labels, None

    @classmethod
    def _from_dense(cls, ids: IdMap, uniq: np.ndarray, dense: np.ndarray) -> "Partition":
        """The partition labelling node ``u`` ``uniq[dense[u]]``, ranked without a sort: ``uniq``
        is sorted and distinct, each entry labels a node, and both become the ranking's, read-only."""
        part = cls(ids, uniq[dense])
        part._ranked = uniq, dense, np.bincount(dense, minlength=len(uniq))
        for a in part._ranked:
            a.flags.writeable = False
        return part

    @property
    def ranked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``np.unique(labels, return_inverse=True, return_counts=True)``, computed once and
        read-only: the sorted distinct labels, each node's index into them and their sizes."""
        if self._ranked is None:
            self._ranked = np.unique(self.labels, return_inverse=True, return_counts=True)
            for a in self._ranked:
                a.flags.writeable = False
        return self._ranked

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def labels_set(self) -> set:
        return set(self.ranked[0].tolist())

    def label_of(self, external_id: ExternalId) -> int:
        i = self.ids.index.get(external_id)
        if i is None:
            raise InputError(f"node {external_id!r} is not covered by this partition")
        return int(self.labels[i])

    def covers(self, g: Graph) -> bool:
        return self.ids is g.ids or self.ids == g.ids

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.ids == other.ids
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, communities={len(self.ranked[0])})"


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
    uniq, dense, _ = part.ranked
    return project(g, IdMap(uniq.tolist()), dense)


def project(g: Graph, ids: IdMap, new_index: np.ndarray) -> Graph:
    """The graph on ``ids`` that node ``u`` of ``g`` maps to as node
    ``new_index[u]``, or leaves out where that is -1.

    Parallel edges sum. An edge inside one new node, counted once, becomes
    that node's self-loop together with its members' self-loops. The sums
    run in a fixed order, so both bodies (see :func:`_project_py`) give the
    same bits.
    """
    return _project(g, ids, checked_index(new_index, g.n, -1, len(ids), "projection"))


def checked_index(index: ArrayLike, n: int, lo: int, hi: int, what: str) -> np.ndarray:
    """``index`` as a C-contiguous int64 array, checked to hold ``n`` entries
    in [lo, hi): a compiled kernel indexes with them unchecked."""
    index = np.ascontiguousarray(index, dtype=np.int64)
    if index.shape != (n,) or (n and (index.min() < lo or index.max() >= hi)):
        raise InternalInvariantError(f"{what} index must hold {n} entries in [{lo}, {hi}), got shape {index.shape}")
    return index


def _project_py(g: Graph, ids: IdMap, new_index: np.ndarray) -> Graph:
    """:func:`project` on a checked ``new_index``: the numpy builder
    :func:`_build_py`, which adds in input order, given the kept self-loops
    in node order, then at half weight each CSR entry inside a new node (an
    edge is two entries), then each entry from a lower to a higher new node,
    both in CSR order. :func:`_project_c` is the same sums in C.
    """
    kept = np.flatnonzero(new_index >= 0)
    cu = new_index[g._rows()]
    cv = new_index[g.nbr]
    internal = (cu == cv) & (cu >= 0)
    half = (cu >= 0) & (cu < cv)
    loops = new_index[kept]
    ua = np.concatenate([loops, cu[internal], cu[half]])
    va = np.concatenate([loops, cu[internal], cv[half]])
    w = np.concatenate([g.self_loops[kept], g.wgt[internal] * 0.5, g.wgt[half]])
    return _build_py(ids, ua, va, w, np.zeros(len(ids)))


def _project_c(g: Graph, ids: IdMap, new_index: np.ndarray) -> Graph:
    """:func:`_project_py` compiled from ``_native.c``; ``new_index`` is checked."""
    n, c = g.n, len(ids)
    # a symmetric adjacency has at most len(nbr) // 2 edges, and c nodes at most c (c - 1) / 2
    cap = min(len(g.nbr) // 2, c * (c - 1) // 2)
    scratch = np.empty(4 * c + n + 4 + cap, dtype=np.int64), np.empty(c + cap, dtype=np.float64)
    out_ptr = np.zeros(c + 1, dtype=np.int64)
    out_nbr = np.empty(2 * cap, dtype=np.int64)
    out_wgt = np.empty(2 * cap, dtype=np.float64)
    out_loops = np.zeros(c, dtype=np.float64)
    k = _native.call("commtrack_project", n, *g._kernel_pointers()[:4], new_index, c, cap,
                     *scratch, out_ptr, out_nbr, out_wgt, out_loops)
    if k < 0:
        raise InternalInvariantError("graph adjacency is not symmetric: it projects to too many edges")
    if k < 2 * cap:  # keep no unused tail alive with the graph
        out_nbr, out_wgt = out_nbr[:k].copy(), out_wgt[:k].copy()
    return Graph(ids, out_ptr, out_nbr, out_wgt, out_loops)


_project = _project_py if _native.LIB is None else _project_c


# --- text formats -----------------------------------------------------------
# Edge list: one edge per line, "u<TAB>v<TAB>w" (w optional, default 1), or a
# lone "u" for a node without edges; lines starting with '#' are comments.
# Partition: "node_id<TAB>label". Both readers read the bytes once, have one
# tokenizer body (C in the package's compiled library, which splits, hashes
# and interns in one byte loop, or its columnar Python twin) number the
# distinct texts of the first two fields and, apart, of the third, and count
# the one-field lines; then decode each id and parse each weight or label
# text once. When a line or a field does not parse, the file is scanned line
# by line for the first bad line, which the error names. The edge reader
# hands the numbered fields to the one CSR builder (C or numpy), which adds
# each loop and each edge's parallel entries in file order. Both writers
# format each id and each distinct weight or label once, into one table that
# holds each text followed by a tab, as the tokenizer returns its texts, and
# check the ids on that one text; one row writer body (C, or its Python twin)
# then copies the table entries that each row names into tab-separated,
# LF-ended lines, a bounded block at a time.

_WRITE_ROWS = 4096  # lines per block of the Python row writer
_WRITE_BYTES = 1 << 18  # the compiled row writer's buffer


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def _writable_ids(ids: Sequence[ExternalId]) -> str:
    """The ids as strings in one text, each followed by a tab, raising
    unless every one reads back from a TSV line as itself: it must be
    non-empty, hold no tab, CR or LF, and not start with '#'. The rules
    are checked on the text; the ids are walked only to name a bad one."""
    text = ("%s\t" * len(ids)) % tuple(ids)  # %s formats as str() does, without a call per id
    if (text.count("\t") != len(ids) or text[:1] in ("\t", "#") or "\n" in text or "\r" in text
            or "\t\t" in text or "\t#" in text):
        bad = next(s for s in map(str, ids) if not s or s[0] == "#" or "\t" in s or "\r" in s or "\n" in s)
        raise InputError(
            f"node id {bad!r} cannot be written to a TSV file: ids must be non-empty, "
            "hold no tab, CR or LF, and not start with '#'"
        )
    return text


def _write_tsv(path, table: str, *sections: Tuple[np.ndarray, ...]) -> None:
    """Write ``path``, whole or not at all, as one line per row of each
    section, a tuple of equally long index columns: cell ``i`` is entry ``i``
    of ``table``, a text holding each entry followed by a tab, and the cells
    of a row are joined by tabs."""
    n_entries = table.count("\t")
    sections = tuple(tuple(checked_index(col, len(cols[0]), 0, n_entries, "row cell") for col in cols)
                     for cols in sections)
    with replacing(path) as fh:
        _write_rows(fh, table.encode("utf-8"), sections)


def _write_rows_py(fh, table: bytes, sections: Sequence[Tuple[np.ndarray, ...]]) -> None:
    """The lines of :func:`_write_tsv` for checked ``sections``, written
    ``_WRITE_ROWS`` at a time. :func:`_write_rows_c` writes the same bytes."""
    entries = np.array(table.split(b"\t")[:-1], dtype=object)
    for cols in sections:
        for lo in range(0, len(cols[0]), _WRITE_ROWS):
            rows = zip(*(entries[col[lo:lo + _WRITE_ROWS]].tolist() for col in cols))
            fh.write(b"\n".join(map(b"\t".join, rows)) + b"\n")


def _write_rows_c(fh, table: bytes, sections: Sequence[Tuple[np.ndarray, ...]]) -> None:
    """:func:`_write_rows_py` compiled from ``_native.c``: the kernel fills
    one buffer of ``_WRITE_BYTES`` with as many whole lines as fit, which are
    written before it goes on; a line longer than the buffer grows it."""
    off = np.concatenate([[0], np.flatnonzero(np.frombuffer(table, dtype=np.uint8) == 9) + 1])  # 9: tab
    buf, size = np.empty(_WRITE_BYTES, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    for cols in sections:
        lo, col_ptrs = 0, np.array(_native.addresses(cols), dtype=np.uintp)
        while lo < len(cols[0]):
            k = _native.call("commtrack_write_rows", table, off, lo, len(cols[0]), len(cols),
                             col_ptrs, buf, len(buf), size)
            fh.write(buf[:int(size[0])])
            lo += k
            if k == 0:  # line lo alone is longer than the buffer
                buf = np.empty(sum(int(off[col[lo] + 1] - off[col[lo]]) for col in cols), dtype=np.uint8)


_write_rows = _write_rows_py if _native.LIB is None else _write_rows_c


def write_edge_tsv(g: Graph, path) -> None:
    """Write ``g`` as an edge list: each edge once in index order (u < v), then
    self-loops, then nodes with neither as one-column lines."""
    ids = _writable_ids(g.ids.ids)
    u, v, w = g._upper_edges()
    loops = np.flatnonzero(g.self_loops != 0.0)
    lone = np.flatnonzero((g.neighbor_counts() == 0) & (g.self_loops == 0.0))
    w = np.concatenate([w, g.self_loops[loops]])
    uniq = np.unique(w)  # its inverse would cost four arrays the size of w
    at = np.searchsorted(uniq, w)
    del w
    at += g.n  # each distinct weight's text, formatted once, follows the ids in the table
    weights = "".join([_format_weight(x) + "\t" for x in uniq.tolist()])
    _write_tsv(path, ids + weights, (u, v, at[:len(u)]), (loops, loops, at[len(u):]), (lone,))


def write_partition_tsv(part: Partition, path) -> None:
    uniq, dense, _ = part.ranked
    labels = "".join([f"{x}\t" for x in uniq.tolist()])  # they follow the ids in the table
    _write_tsv(path, _writable_ids(part.ids.ids) + labels, (np.arange(part.n), dense + part.n))


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
    if "" in parts[:2]:
        return "empty node id"
    if len(parts) == 3:
        try:
            float(parts[2])
        except ValueError:
            return f"bad weight {parts[2]!r}"
    return None


def _edge_file_bytes(path) -> bytes:
    """The bytes of ``path``, checked as UTF-8, with CRLF and a lone CR
    translated to LF as text mode does."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        with reading_text(path):
            data.decode("utf-8")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


EdgeTokens = Tuple[bytes, np.ndarray, np.ndarray, np.ndarray, bytes, int]


def _edge_tokens_py(data: bytes) -> Optional[EdgeTokens]:
    """Tokenize and intern the LF-terminated lines of a TSV; None when a
    line holds more than two tabs.

    Blank lines and lines starting with '#' are skipped. One-field lines are
    interned first, then the first two fields of each other line in file
    order, so ids are numbered in first-seen order; third fields are
    interned in a table of their own. Returns the distinct ids as one text,
    each followed by a tab; per line with a tab the index arrays ``u`` and
    ``v`` of its first two fields and ``wi`` of its third, -1 on a two-field
    line; the distinct third fields, again each followed by a tab; and the
    number of one-field lines, which no array shows (their ids may recur in
    other lines). :func:`_edge_tokens_c` is the same contract in C.
    """
    lines = data.split(b"\n")
    if data[:1] in (b"#", b"\n") or b"\n#" in data or b"\n\n" in data:
        lines = [ln for ln in lines if ln and ln[0] != 0x23]  # '#'
    elif not lines[-1]:
        lines.pop()
    tabs = list(map(bytes.count, lines, repeat(b"\t", len(lines))))
    if max(tabs, default=0) > 2:
        return None
    width = 3 if 2 in tabs else 2  # fields per edge line
    nodes: list = []
    if min(tabs, default=2) < width - 1:
        nodes = [ln for ln, t in zip(lines, tabs) if t == 0]
        if width == 3:  # two-field lines get the weight text "\n", which no field holds
            lines = [ln if t == 2 else ln + b"\t\n" for ln, t in zip(lines, tabs) if t]
        else:
            lines = [ln for ln, t in zip(lines, tabs) if t]
    del tabs
    joined = b"\t".join(lines)
    del lines
    fields = joined.split(b"\t") if joined else []
    del joined
    w_fields: list = []
    if width == 3:
        w_fields = fields[2::3]
        del fields[2::3]
    n_lone = len(nodes)
    id_map, idx = _intern(nodes, fields)
    del nodes, fields
    u, v = idx[0::2].copy(), idx[1::2].copy()  # contiguous, as the builder takes them
    del idx
    w_first = dict.fromkeys(w_fields)
    w_first.pop(b"\n", None)
    w_index = {x: i for i, x in enumerate(w_first)}
    w_index[b"\n"] = -1
    if w_fields:
        wi = np.fromiter(map(w_index.__getitem__, w_fields), dtype=np.int64, count=len(w_fields))
    else:  # two fields on every edge line
        wi = np.full(len(u), -1, dtype=np.int64)
    return b"\t".join([*id_map.ids, b""]), u, v, wi, b"\t".join([*w_first, b""]), n_lone


# the C id table's uint32 slots number up to two ids per line; files with
# more lines than this go to the Python body
_TABLE_MAX_LINES = 2**31


def _edge_tokens_c(data: bytes) -> Optional[EdgeTokens]:
    """:func:`_edge_tokens_py` compiled from ``_native.c``. Every array is
    sized from the line count; only the parts written cost memory."""
    lines = int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == 10)) + 1  # bytes.count is 6x slower
    if lines >= _TABLE_MAX_LINES:
        return _edge_tokens_py(data)
    id_slots, w_slots = (np.zeros(1 << (k * lines - 1).bit_length(), dtype=np.uint32) for k in (4, 2))
    id_off, w_off = np.empty(2 * lines + 1, dtype=np.int64), np.empty(lines + 1, dtype=np.int64)
    id_text, w_text = np.empty(2 * len(data) + 2, dtype=np.uint8), np.empty(len(data) + 1, dtype=np.uint8)
    u, v, wi = (np.empty(lines, dtype=np.int64) for _ in range(3))
    lone, text_len = np.zeros(2 * lines, dtype=np.uint32), np.zeros(4, dtype=np.int64)
    m = _native.call("commtrack_edge_tokens", data, len(data), id_slots, len(id_slots) - 1, id_off, id_text,
                     w_slots, len(w_slots) - 1, w_off, w_text, u, v, wi, lone, text_len)
    if m < 0:
        return None
    at, id_len, w_len, n_lone = text_len.tolist()
    return id_text[at:at + id_len].tobytes(), u[:m], v[:m], wi[:m], w_text[:w_len].tobytes(), n_lone


_edge_tokens = _edge_tokens_py if _native.LIB is None else _edge_tokens_c


def _texts(joined: bytes) -> list:
    """The strings of a text that holds each followed by a tab."""
    return joined.decode("utf-8").split("\t")[:-1]


def read_edge_tsv(path) -> Graph:
    """Read an edge list written by :func:`write_edge_tsv` or by hand.

    Ids are indexed in first-seen order, one-column lines first, as
    :func:`build_graph` does with them as ``nodes`` and the edges in file
    order. Each distinct weight text is parsed once by ``float``.
    """
    tokens = _edge_tokens(_edge_file_bytes(path))
    if tokens is None:
        _raise_first_bad_line(path, _edge_line_problem)
    id_text, u, v, wi, w_text, _ = tokens
    try:
        weights = list(map(float, _texts(w_text)))
    except ValueError:
        _raise_first_bad_line(path, _edge_line_problem)
    w = np.array([*weights, 1.0], dtype=np.float64)[wi]  # -1 picks the 1.0 of a two-field line
    ids = IdMap(_texts(id_text))
    if "" in ids:
        _raise_first_bad_line(path, _edge_line_problem)
    return graph_from_edges(ids, u, v, w)


def read_partition_tsv(path, graph: Optional[Graph] = None) -> Partition:
    """Read a partition; align it to ``graph`` when given, else stand alone.

    Aligned, the file must name every node of ``graph`` and no other node.

    Standalone partitions build their own IdMap in file order, which is how
    a previous snapshot's partition is compared against a newer graph.
    """
    seen: set = set()

    def problem(parts: list) -> Optional[str]:
        if len(parts) != 2:
            return "expected 'node<TAB>label'"
        node, label_s = parts
        if not node:
            return "empty node id"
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

    tokens = _edge_tokens(_edge_file_bytes(path))
    if tokens is None or tokens[5] or np.any(tokens[3] >= 0):
        _raise_first_bad_line(path, problem)
    id_text, u, v = tokens[:3]
    del tokens  # frees wi
    texts = _texts(id_text)
    label_ids, label_at = np.unique(v, return_inverse=True)
    try:
        labels = np.array([int(texts[i]) for i in label_ids.tolist()], dtype=np.int64)[label_at]
        ids = IdMap(map(texts.__getitem__, u.tolist()))
    except (ValueError, OverflowError, InputError):  # a bad label, or a node listed twice
        _raise_first_bad_line(path, problem)
    if "" in ids:
        _raise_first_bad_line(path, problem)
    if graph is None:
        return Partition(ids, labels)
    pos = graph.ids.positions(ids.ids)
    unknown = np.flatnonzero(pos < 0)
    if len(unknown):
        raise InputError(f"partition assigns unknown node {ids.ids[unknown[0]]!r}")
    if len(ids) != graph.n:
        raise InputError(f"partition covers {len(ids)} of {graph.n} nodes")
    aligned = np.empty(graph.n, dtype=np.int64)
    aligned[pos] = labels
    return Partition(graph.ids, aligned)
