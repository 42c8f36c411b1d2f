"""Partition comparison: mutual information and high-overlap community matching.

Both measures tolerate partitions over different node sets (snapshots churn):
the contingency table is built over the nodes the two partitions share, while
community sizes used by the matching rule come from each partition's full
node set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import InputError, InternalInvariantError
from .graph import Graph, Partition
from .louvain import modularity

__all__ = [
    "MatchConfig",
    "ComparisonReport",
    "compare",
]


@dataclass(frozen=True)
class MatchConfig:
    """Overlap threshold for declaring two communities the same.

    A pair matches when the shared-node count strictly exceeds ``r`` times
    the size of each community. Any r > 0.5 makes matches one-to-one, and
    r must stay below 1, where no overlap can exceed a full community; the
    default 0.51 adds a little slack against near-even splits.
    """

    r: float = 0.51

    def __post_init__(self):
        if not 0.5 < self.r < 1.0:
            raise InputError(f"matching threshold r must be in (0.5, 1), got {self.r}")


@dataclass
class ComparisonReport:
    """Everything :func:`compare` measures between two partitions."""

    mi_nats: float
    entropy_a: float
    entropy_b: float
    n_common: int
    n_a: int
    n_b: int
    n_communities_a: int
    n_communities_b: int
    r: float
    matching: List[Tuple[int, int]] = field(default_factory=list)
    modularity_next: Optional[float] = None

    @property
    def n_matching(self) -> int:
        return len(self.matching)

    def normalized_mi(self) -> float:
        """MI scaled by the larger entropy; 1.0 when both entropies are 0."""
        denom = max(self.entropy_a, self.entropy_b)
        if denom <= 0.0:
            return 1.0 if self.mi_nats == 0.0 else 0.0
        return self.mi_nats / denom

    def to_json(self) -> str:
        d = self.__dict__.copy()
        d["matching"] = [list(pair) for pair in self.matching]
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonReport":
        d = json.loads(text)
        d["matching"] = [tuple(pair) for pair in d["matching"]]
        return cls(**d)


def _common_label_arrays(a: Partition, b: Partition) -> Tuple[np.ndarray, np.ndarray]:
    """Label pairs (a-label, b-label) over the shared nodes, in a's node order."""
    if a.ids is b.ids or a.ids == b.ids:
        return a.labels, b.labels
    pos = b.ids.positions(a.ids.ids)
    shared = pos >= 0
    return a.labels[shared], b.labels[pos[shared]]


def _contingency(la: np.ndarray, lb: np.ndarray):
    """Sparse contingency counts over paired label arrays: each side's distinct
    labels, then the row, column and count of each nonzero cell, in label order."""
    uniq_a, dense_a = np.unique(la, return_inverse=True)
    uniq_b, dense_b = np.unique(lb, return_inverse=True)
    nb = len(uniq_b)
    keys = dense_a.astype(np.int64) * nb + dense_b
    cells, counts = np.unique(keys, return_counts=True)
    return uniq_a, uniq_b, cells // nb, cells % nb, counts


def _mutual_information(n: int, table, row: np.ndarray, col: np.ndarray) -> float:
    """MI in nats from a :func:`_contingency` table over ``n`` shared nodes and its margins."""
    _, _, ia, ib, counts = table
    mi = 0.0
    for i, j, nij in zip(ia.tolist(), ib.tolist(), counts.tolist()):
        mi += (nij / n) * math.log(nij * n / (row[i] * col[j]))
    return max(0.0, mi)


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy of the distribution ``p``, in nats."""
    return float(-np.sum(p * np.log(p)))


def _matching(table, size_a: np.ndarray, size_b: np.ndarray, r: float) -> List[Tuple[int, int]]:
    """Pairs of community labels that overlap enough to count as the same.

    (label_a, label_b) is reported when the number of shared nodes (counted
    in the :func:`_contingency` table) strictly exceeds r * |C_a| and
    r * |C_b|, with ``size_a``/``size_b`` the size of each table row's and
    column's community in its partition's full node set. With r > 0.5 each
    label appears in at most one pair; pairs come in label order, as the
    cells do.
    """
    uniq_a, uniq_b, ia, ib, counts = table
    hit = (counts > r * size_a[ia]) & (counts > r * size_b[ib])
    pairs_a, pairs_b = uniq_a[ia[hit]].tolist(), uniq_b[ib[hit]].tolist()
    if len(set(pairs_a)) != len(pairs_a) or len(set(pairs_b)) != len(pairs_b):
        raise InternalInvariantError("matching produced a duplicated community label")
    return list(zip(pairs_a, pairs_b))


def compare(
    a: Partition,
    b: Partition,
    g_next: Optional[Graph] = None,
    cfg: MatchConfig = MatchConfig(),
) -> ComparisonReport:
    """Full comparison: MI, matching, entropies over shared nodes, and the
    modularity of ``b`` on ``g_next`` when that graph is supplied.

    Rejects partition pairs with no shared nodes (MI is undefined there).
    """
    la, lb = _common_label_arrays(a, b)
    n = len(la)
    if n == 0:
        raise InputError("partitions share no nodes; comparison is undefined")
    table = uniq_a, uniq_b, ia, ib, counts = _contingency(la, lb)
    row = np.bincount(ia, weights=counts, minlength=len(uniq_a))
    col = np.bincount(ib, weights=counts, minlength=len(uniq_b))
    labels_a, sizes_a = np.unique(a.labels, return_counts=True)
    labels_b, sizes_b = np.unique(b.labels, return_counts=True)
    size_a = sizes_a[np.searchsorted(labels_a, uniq_a)]
    size_b = sizes_b[np.searchsorted(labels_b, uniq_b)]

    return ComparisonReport(
        mi_nats=_mutual_information(n, table, row, col),
        entropy_a=_entropy(row / n),
        entropy_b=_entropy(col / n),
        n_common=n,
        n_a=len(a.labels),
        n_b=len(b.labels),
        n_communities_a=len(labels_a),
        n_communities_b=len(labels_b),
        r=cfg.r,
        matching=_matching(table, size_a, size_b, cfg.r),
        modularity_next=None if g_next is None else modularity(g_next, b),
    )
