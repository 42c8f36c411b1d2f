"""Deterministic generator of evolving planted-partition graphs.

Each snapshot draws every same-community node pair with probability p_in and
every cross-community pair with probability p_out (p_in > p_out, assortative).
Between snapshots a fraction of nodes churns out (replaced by fresh ids on
random communities) and a fraction of survivors migrates to another
community; edges are resampled fresh from the updated memberships each step,
so membership continuity is the only signal that persists.

Node ids are strings ("n0", "n1", ...) issued by a monotone counter, so a
retired id never returns and the survivor set is exactly the id intersection
of consecutive snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InputError
from .graph import Graph, IdMap, Partition, graph_from_edges
from .louvain import round_half_up

__all__ = ["SynthSpec", "generate"]


@dataclass(frozen=True)
class SynthSpec:
    """Shape and evolution parameters for one generated snapshot sequence."""

    n_nodes: int
    n_communities: int
    p_in: float
    p_out: float
    churn_rate: float = 0.0
    migrate_rate: float = 0.0
    steps: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InputError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_communities < 1 or self.n_communities > self.n_nodes:
            raise InputError(
                f"n_communities must be in 1..n_nodes, got {self.n_communities}"
            )
        if not 0.0 < self.p_in <= 1.0:
            raise InputError(f"p_in must be in (0, 1], got {self.p_in}")
        if not 0.0 <= self.p_out < 1.0:
            raise InputError(f"p_out must be in [0, 1), got {self.p_out}")
        if self.p_in <= self.p_out:
            raise InputError(
                f"assortative regime requires p_in > p_out, got {self.p_in} <= {self.p_out}"
            )
        if not 0.0 <= self.churn_rate < 1.0:
            raise InputError(f"churn_rate must be in [0, 1), got {self.churn_rate}")
        if not 0.0 <= self.migrate_rate < 1.0:
            raise InputError(f"migrate_rate must be in [0, 1), got {self.migrate_rate}")
        if self.steps < 1:
            raise InputError(f"steps must be positive, got {self.steps}")


def _step_rng(seed: int, step: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, step, stream])
    )


def _decode_pairs(t: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Map linear indices to (i, j) with i < j over a size-node block.

    Index layout: pair (i, j) sits at i*size - i*(i+1)/2 + (j - i - 1).
    """
    i_vals = np.arange(size, dtype=np.int64)
    offsets = i_vals * size - (i_vals * (i_vals + 1)) // 2
    i = np.searchsorted(offsets, t, side="right") - 1
    j = t - offsets[i] + i + 1
    return i, j


def _sample_intra_edges(
    members: np.ndarray, p_in: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """All same-community pairs of one block, each kept with probability p_in,
    as two arrays of node indices."""
    s = len(members)
    n_pairs = s * (s - 1) // 2
    count = rng.binomial(n_pairs, p_in) if n_pairs and p_in else 0
    if count == 0:
        return members[:0], members[:0]
    t = np.sort(rng.choice(n_pairs, size=count, replace=False))
    i, j = _decode_pairs(t, s)
    return members[i], members[j]


def _sample_inter_edges(
    labels: np.ndarray, p_out: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Cross-community pairs, each kept with probability p_out, as two arrays
    of node indices, smaller index first.

    Draws the edge count from the exact binomial, then fills it with distinct
    uniformly random cross-community pairs by rejection (cheap because p_out
    is small in the assortative regime).
    """
    n = len(labels)
    total_pairs = n * (n - 1) // 2
    _, counts = np.unique(labels, return_counts=True)
    intra_pairs = int(np.sum(counts * (counts - 1) // 2))
    inter_pairs = total_pairs - intra_pairs
    count = rng.binomial(inter_pairs, p_out) if inter_pairs and p_out else 0

    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        need = count - len(keys)
        u = rng.integers(0, n, size=2 * need + 16)
        v = rng.integers(0, n, size=2 * need + 16)
        ok = (u != v) & (labels[u] != labels[v])
        drawn = np.minimum(u[ok], v[ok]) * n + np.maximum(u[ok], v[ok])
        new = drawn[np.sort(np.unique(drawn, return_index=True)[1])]  # first draws, in draw order
        keys = np.concatenate([keys, new[~np.isin(new, keys)][:need]])
    return keys // n, keys % n


def _snapshot(ids: List[str], labels: np.ndarray, p_in: float, p_out: float,
              rng_intra: np.random.Generator, rng_inter: np.random.Generator) -> Graph:
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    parts = [_sample_intra_edges(block, p_in, rng_intra) for block in blocks]
    parts.append(_sample_inter_edges(labels, p_out, rng_inter))
    # distinct and loop-free by construction: intra pairs have i < j inside one
    # block, inter pairs are deduplicated and join two labels
    u, v = (np.concatenate(ends) for ends in zip(*parts))
    return graph_from_edges(IdMap(ids), u, v, np.ones(len(u)))


def generate(spec: SynthSpec) -> List[Tuple[Graph, Partition]]:
    """The snapshot sequence with its planted ground-truth partitions."""
    ids: List[str] = [f"n{i}" for i in range(spec.n_nodes)]
    next_id = spec.n_nodes
    k = spec.n_communities
    rng0 = _step_rng(spec.seed, 0, 0)
    labels = rng0.integers(0, k, size=spec.n_nodes, dtype=np.int64)

    out: List[Tuple[Graph, Partition]] = []
    for step in range(spec.steps):
        if step > 0:
            rng_churn = _step_rng(spec.seed, step, 1)
            n = len(ids)
            n_gone = round_half_up(spec.churn_rate * n)
            if n_gone:
                keep = np.delete(np.arange(n), rng_churn.choice(n, size=n_gone, replace=False))
                ids = [ids[i] for i in keep.tolist()]
                labels = labels[keep]
                fresh = [f"n{next_id + i}" for i in range(n_gone)]
                next_id += n_gone
                ids.extend(fresh)
                labels = np.concatenate(
                    [labels, rng_churn.integers(0, k, size=n_gone, dtype=np.int64)]
                )
            rng_mig = _step_rng(spec.seed, step, 2)
            n_survive = n - n_gone
            n_move = round_half_up(spec.migrate_rate * n_survive)
            if n_move and k > 1:
                movers = rng_mig.choice(n_survive, size=n_move, replace=False)
                # uniform over the k-1 other communities
                shift = rng_mig.integers(1, k, size=n_move, dtype=np.int64)
                labels[movers] = (labels[movers] + shift) % k
        g = _snapshot(
            ids,
            labels,
            spec.p_in,
            spec.p_out,
            _step_rng(spec.seed, step, 3),
            _step_rng(spec.seed, step, 4),
        )
        out.append((g, Partition(g.ids, labels)))
    return out

