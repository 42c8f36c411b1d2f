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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalInvariantError
from .graph import Graph, Partition
from .louvain import modularity

__all__ = [
    "MatchConfig",
    "ComparisonReport",
    "mutual_information",
    "partition_entropy",
    "matching_communities",
    "compare",
]


@dataclass(frozen=True)
class MatchConfig:
    """Overlap threshold for declaring two communities the same.

    A pair matches when the shared-node count strictly exceeds ``r`` times
    the size of each community. Any r > 0.5 makes matches one-to-one; the
    default 0.51 adds a little slack against near-even splits.
    """

    r: float = 0.51

    def __post_init__(self):
        if not 0.5 < self.r <= 1.0:
            raise InputError(f"matching threshold r must be in (0.5, 1.0], got {self.r}")


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
    """Label pairs (a-label, b-label) over the shared node set.

    The intersection of the two node sets is taken, ordered by a's node order
    for determinism.
    """
    if a.ids is b.ids or a.ids == b.ids:
        return a.labels, b.labels
    b_index = b.ids.index
    rows_a = []
    rows_b = []
    for i, x in enumerate(a.ids.ids):
        j = b_index.get(x)
        if j is not None:
            rows_a.append(i)
            rows_b.append(j)
    return a.labels[rows_a], b.labels[rows_b]


def _contingency(la: np.ndarray, lb: np.ndarray):
    """Sparse contingency counts over paired label arrays."""
    uniq_a, dense_a = np.unique(la, return_inverse=True)
    uniq_b, dense_b = np.unique(lb, return_inverse=True)
    nb = len(uniq_b)
    keys = dense_a.astype(np.int64) * nb + dense_b
    cells, counts = np.unique(keys, return_counts=True)
    return uniq_a, uniq_b, cells // nb, cells % nb, counts


def mutual_information(a: Partition, b: Partition) -> float:
    """Mutual information between two partitions, in nats.

    Probabilities are empirical frequencies over the node intersection; nodes
    unique to either side do not contribute. An empty shared set leaves the
    measure undefined and is rejected. Never negative.
    """
    la, lb = _common_label_arrays(a, b)
    if len(la) == 0:
        raise InputError("mutual information is undefined for an empty common node set")
    return _mutual_information(len(la), _contingency(la, lb))


def _mutual_information(n: int, table) -> float:
    """MI in nats from a :func:`_contingency` table over ``n`` shared nodes."""
    uniq_a, uniq_b, ia, ib, counts = table
    row = np.bincount(ia, weights=counts, minlength=len(uniq_a))
    col = np.bincount(ib, weights=counts, minlength=len(uniq_b))
    mi = 0.0
    for i, j, nij in zip(ia.tolist(), ib.tolist(), counts.tolist()):
        mi += (nij / n) * math.log(nij * n / (row[i] * col[j]))
    return max(0.0, mi)


def partition_entropy(part: Partition, restrict_to: Optional[Sequence] = None) -> float:
    """Shannon entropy of community sizes in nats.

    ``restrict_to`` limits the node set (external ids); unknown ids are
    ignored. Entropy of an empty set is 0.
    """
    if restrict_to is None:
        labels = part.labels
    else:
        index = part.ids.index
        rows = [index[x] for x in restrict_to if x in index]
        labels = part.labels[rows]
    return _entropy_of_labels(labels)


def _entropy_of_labels(labels: np.ndarray) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    p = counts / n
    return float(-np.sum(p * np.log(p)))


def matching_communities(
    a: Partition,
    b: Partition,
    cfg: MatchConfig = MatchConfig(),
) -> List[Tuple[int, int]]:
    """Pairs of community labels that overlap enough to count as the same.

    (label_a, label_b) is reported when the number of shared nodes strictly
    exceeds r * |C_a| and r * |C_b|, with community sizes taken from each
    partition's full node set. With r > 0.5 each label appears in at most
    one pair; pairs are sorted by label_a.
    """
    la, lb = _common_label_arrays(a, b)
    if len(la) == 0:
        return []
    return _matching(a, b, _contingency(la, lb), cfg)


def _matching(a: Partition, b: Partition, table, cfg: MatchConfig) -> List[Tuple[int, int]]:
    """:func:`matching_communities` from a :func:`_contingency` table."""
    uniq_a, uniq_b, ia, ib, counts = table
    size_a: Dict[int, int] = dict(zip(*(arr.tolist() for arr in np.unique(a.labels, return_counts=True))))
    size_b: Dict[int, int] = dict(zip(*(arr.tolist() for arr in np.unique(b.labels, return_counts=True))))

    pairs: List[Tuple[int, int]] = []
    for i, j, nij in zip(ia.tolist(), ib.tolist(), counts.tolist()):
        lab_a = int(uniq_a[i])
        lab_b = int(uniq_b[j])
        if nij > cfg.r * size_a[lab_a] and nij > cfg.r * size_b[lab_b]:
            pairs.append((lab_a, lab_b))
    pairs.sort()

    seen_a = {p[0] for p in pairs}
    seen_b = {p[1] for p in pairs}
    if len(seen_a) != len(pairs) or len(seen_b) != len(pairs):
        raise InternalInvariantError("matching produced a duplicated community label")
    return pairs


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
    if len(la) == 0:
        raise InputError("partitions share no nodes; comparison is undefined")
    table = _contingency(la, lb)

    return ComparisonReport(
        mi_nats=_mutual_information(len(la), table),
        entropy_a=_entropy_of_labels(la),
        entropy_b=_entropy_of_labels(lb),
        n_common=len(la),
        n_a=len(a.labels),
        n_b=len(b.labels),
        n_communities_a=len(np.unique(a.labels)),
        n_communities_b=len(np.unique(b.labels)),
        r=cfg.r,
        matching=_matching(a, b, table, cfg),
        modularity_next=None if g_next is None else modularity(g_next, b),
    )
