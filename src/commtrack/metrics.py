"""Partition comparison: mutual information and high-overlap community matching.

Both measures tolerate partitions over different node sets (snapshots churn):
the contingency table is built over the nodes the two partitions share, while
community sizes used by the matching rule come from each partition's full
node set. Both read each partition's ranked labels, which it computes once.
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
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonReport":
        d = json.loads(text)
        d["matching"] = [tuple(pair) for pair in d["matching"]]
        return cls(**d)


def _contingency(a: Partition, b: Partition) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse contingency counts over the nodes ``a`` and ``b`` share: the row and column (indices into each
    side's :attr:`~commtrack.graph.Partition.ranked` labels) and count of each nonzero cell, in label order,
    the same whether ``np.bincount`` counts it whole (while it has no more cells than shared nodes, where it
    is faster) or ``np.unique`` (many small communities, whose whole table would not fit in memory)."""
    uniq_a, dense_a, _ = a.ranked
    uniq_b, dense_b, _ = b.ranked
    if not (a.ids is b.ids or a.ids == b.ids):
        pos = a.ids.positions(b.ids.ids)  # the later nodes into the earlier map, as a seeding joins
        shared = pos >= 0
        dense_a, dense_b = dense_a[pos[shared]], dense_b[shared]
    nb = len(uniq_b)
    keys, size = dense_a * nb + dense_b, len(uniq_a) * nb
    if size <= len(keys):
        counts = np.bincount(keys, minlength=size)
        cells = np.flatnonzero(counts)
        return cells // nb, cells % nb, counts[cells]
    cells, counts = np.unique(keys, return_counts=True)
    return cells // nb, cells % nb, counts


def _mutual_information(n: int, table, row: np.ndarray, col: np.ndarray) -> float:
    """MI in nats from a :func:`_contingency` table over ``n`` shared nodes and its margins, with the
    bits of a loop over the cells, which ``repr`` writes: each log is ``math.log`` (``np.log`` differs
    in the last bit on about 1 input in 10^4), and ``np.cumsum`` sums left to right, unlike ``np.sum``."""
    ia, ib, counts = table
    ratio = counts * float(n) / (row[ia] * col[ib])
    terms = counts / n * np.fromiter(map(math.log, ratio.tolist()), dtype=np.float64, count=len(ratio))
    return max(0.0, float(np.cumsum(terms)[-1]))


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy of the distribution ``p``, in nats; zeros add nothing."""
    p = p[p > 0.0]
    # 0.0 - s, not -s: a single community (s == 0.0) gives 0.0, never -0.0
    return float(0.0 - np.sum(p * np.log(p)))


def _matching(table, a: Partition, b: Partition, r: float) -> List[Tuple[int, int]]:
    """Pairs of community labels that overlap enough to count as the same.

    (label_a, label_b) is reported when the number of shared nodes (counted
    in the :func:`_contingency` table of ``a`` and ``b``) strictly exceeds
    r * |C_a| and r * |C_b|, each size counted in its partition's full node
    set. With r > 0.5 each label appears in at most one pair; pairs come in
    label order, as the cells do.
    """
    ia, ib, counts = table
    uniq_a, _, size_a = a.ranked
    uniq_b, _, size_b = b.ranked
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
    table = ia, ib, counts = _contingency(a, b)
    n = int(counts.sum())
    if n == 0:
        raise InputError("partitions share no nodes; comparison is undefined")
    row = np.bincount(ia, weights=counts)
    col = np.bincount(ib, weights=counts)

    return ComparisonReport(
        mi_nats=_mutual_information(n, table, row, col),
        entropy_a=_entropy(row / n),
        entropy_b=_entropy(col / n),
        n_common=n,
        n_a=len(a.labels),
        n_b=len(b.labels),
        n_communities_a=len(a.ranked[0]),
        n_communities_b=len(b.ranked[0]),
        r=cfg.r,
        matching=_matching(table, a, b, cfg.r),
        modularity_next=None if g_next is None else modularity(g_next, b),
    )
