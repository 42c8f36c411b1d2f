"""Greedy modularity optimization: standard, seeded, and stability-modified.

The optimizer alternates local node moves (phase 1) with community
aggregation (phase 2, :func:`~commtrack.graph.aggregate_by_partition`).
Communities are keyed by int64 labels throughout, so a partition seeded from
a previous snapshot keeps its labels alive across hierarchy levels and the
final flattened partition carries community lineage for free.

Two stability knobs on top of the seeded variant:

* fixed nodes: a sampled subset of the surviving nodes is pinned to its
  previous community. Pinned nodes never enter the level-1 move loop, and
  every higher-level supernode containing one is frozen in place so the pin
  survives flattening.
* preferential attachment: a sampled subset of all nodes is, at level 1 only,
  restricted to moving into neighboring communities whose label already
  existed at the previous step (falling back to the normal rule when it has
  no such neighbor). Staying put is always allowed; no move with
  non-positive gain is ever forced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalInvariantError
from .graph import INT64_MAX, Graph, Partition, aggregate_by_partition

__all__ = [
    "LouvainConfig",
    "DynamicContext",
    "LevelStats",
    "RunReport",
    "modularity",
    "louvain_static",
    "louvain_dynamic",
    "seeded_init",
    "renumber_partition",
    "round_half_up",
    "derive_seed",
]


# A move counts as improvement only when its modularity gain exceeds this, and
# a level only when it gains at least this much.
MIN_GAIN = 1e-9


@dataclass(frozen=True)
class LouvainConfig:
    """Termination and ordering rules the optimizer needs pinned down.

    ``max_passes_per_level`` caps the sweeps of one level. ``node_order``:
    "index" sweeps nodes in ascending internal index; "shuffled" applies one
    seeded shuffle per level.
    """

    max_passes_per_level: int = 100
    rng_seed: int = 0
    node_order: str = "index"  # "index" | "shuffled"

    def __post_init__(self):
        if self.max_passes_per_level < 1:
            raise InputError("max_passes_per_level must be >= 1")
        if self.node_order not in ("index", "shuffled"):
            raise InputError(f"unknown node_order {self.node_order!r}")


@dataclass
class LevelStats:
    level: int
    n_nodes: int
    n_communities_start: int
    n_communities_end: int
    sweeps: int
    moves: int
    q_start: float
    q_end: float
    sweep_q: List[float] = field(default_factory=list)
    sweep_visited: List[int] = field(default_factory=list)
    sweep_moves: List[int] = field(default_factory=list)


@dataclass
class RunReport:
    levels: List[LevelStats] = field(default_factory=list)
    final_q: float = 0.0
    n_fixed: int = 0
    n_pref: int = 0

    @property
    def total_moves(self) -> int:
        return sum(s.moves for s in self.levels)

    def as_dict(self) -> dict:
        return {
            "final_q": self.final_q,
            "n_fixed": self.n_fixed,
            "n_pref": self.n_pref,
            "total_moves": self.total_moves,
            "levels": [
                {
                    "level": s.level,
                    "n_nodes": s.n_nodes,
                    "n_communities_start": s.n_communities_start,
                    "n_communities_end": s.n_communities_end,
                    "sweeps": s.sweeps,
                    "moves": s.moves,
                    "visited": sum(s.sweep_visited),
                    "q_start": s.q_start,
                    "q_end": s.q_end,
                }
                for s in self.levels
            ],
        }


def round_half_up(x: float) -> int:
    """Half-up rounding for sampled-set sizes (p*|R| is rarely an integer)."""
    return int(math.floor(x + 0.5))


def derive_seed(*parts: int) -> int:
    """Mix integers into one reproducible 64-bit seed."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sample_without_replacement(population: Sequence[int], fraction: float, seed: int) -> np.ndarray:
    if not 0.0 <= fraction <= 1.0:
        raise InputError(f"sampling fraction must be in [0, 1], got {fraction}")
    pop = np.asarray(sorted(population), dtype=np.int64)
    k = round_half_up(fraction * len(pop))
    if k >= len(pop):
        return pop
    if k == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    return np.sort(rng.choice(pop, size=k, replace=False))


# --- modularity --------------------------------------------------------------


def modularity(g: Graph, part: Partition) -> float:
    """Newman modularity of a partition: sum_c [in_c/2m - (tot_c/2m)^2].

    in_c counts internal edge weight twice plus twice the stored self-loops;
    tot_c is the summed weighted degree. Empty graphs score 0.
    """
    if not part.covers(g):
        raise InputError("partition does not cover the graph")
    two_m = g.total_weight_2m
    if two_m <= 0.0:
        return 0.0
    uniq, dense = np.unique(part.labels, return_inverse=True)
    return _q_from_sums(*_community_sums(g, dense, len(uniq)), two_m)


def _community_sums(g: Graph, dense: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """in_c and tot_c (see :func:`modularity`) for community indices ``dense`` in [0, c)."""
    # bincount yields int64 on empty input; force the float accumulators
    tot = np.bincount(dense, weights=g.degrees, minlength=c).astype(np.float64)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    same = dense[rows] == dense[g.nbr]
    internal = np.bincount(dense[rows[same]], weights=g.wgt[same], minlength=c).astype(np.float64)
    internal += 2.0 * np.bincount(dense, weights=g.self_loops, minlength=c)
    return internal, tot


def _q_from_sums(com_in: np.ndarray, com_tot: np.ndarray, two_m: float) -> float:
    return float(np.sum(com_in / two_m - (com_tot / two_m) ** 2))


# --- dynamic context ----------------------------------------------------------


@dataclass
class DynamicContext:
    """Everything a stability-aware detection run needs about the previous step.

    All node references are internal indices of the *next* graph. ``init_labels``
    is the seeded starting partition: previous labels on surviving nodes, fresh
    singleton labels (from ``fresh_label_start`` upward, in index order) on new
    nodes.
    """

    remaining: np.ndarray  # sorted indices present in both snapshots
    prev_labels: FrozenSet[int]  # labels alive at the previous step
    fixed: np.ndarray  # sorted, subset of remaining
    pref: np.ndarray  # sorted, subset of all nodes
    p: float
    q: float
    seed: int
    init_labels: np.ndarray  # int64, one label per node of the next graph
    fresh_label_start: int

    @classmethod
    def from_previous(
        cls,
        prev_partition: Partition,
        g_next: Graph,
        p: float,
        q: float,
        seed: int,
        fresh_label_start: Optional[int] = None,
    ) -> "DynamicContext":
        if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
            raise InputError(f"p and q must be in [0, 1], got p={p}, q={q}")
        prev_index = prev_partition.ids.index
        prev_label_arr = prev_partition.labels
        n = g_next.n
        init = np.empty(n, dtype=np.int64)
        remaining = []
        if fresh_label_start is None:
            fresh_label_start = int(prev_label_arr.max()) + 1 if len(prev_label_arr) else 0
        next_fresh = fresh_label_start
        for i, x in enumerate(g_next.ids.ids):
            j = prev_index.get(x)
            if j is None:
                if next_fresh > INT64_MAX:
                    raise InputError(f"fresh community label {next_fresh} is outside the int64 range")
                init[i] = next_fresh
                next_fresh += 1
            else:
                init[i] = prev_label_arr[j]
                remaining.append(i)
        remaining_arr = np.asarray(remaining, dtype=np.int64)
        fixed = _sample_without_replacement(remaining_arr, p, derive_seed(seed, 0))
        pref = _sample_without_replacement(range(n), q, derive_seed(seed, 1))
        return cls(
            remaining=remaining_arr,
            prev_labels=frozenset(np.unique(prev_label_arr).tolist()),
            fixed=fixed,
            pref=pref,
            p=p,
            q=q,
            seed=seed,
            init_labels=init,
            fresh_label_start=fresh_label_start,
        )

    def validate(self, g_next: Graph) -> None:
        n = g_next.n
        if len(self.init_labels) != n:
            raise InputError(f"context built for {len(self.init_labels)} nodes, graph has {n}")
        for name, arr in (("remaining", self.remaining), ("fixed", self.fixed), ("pref", self.pref)):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise InputError(f"context {name} set references nodes outside the graph")
        remaining_set = set(self.remaining.tolist())
        if not set(self.fixed.tolist()) <= remaining_set:
            raise InputError("fixed set is not a subset of the remaining set")
        if not 0.0 <= self.p <= 1.0 or not 0.0 <= self.q <= 1.0:
            raise InputError("p and q must be in [0, 1]")
        if len(self.fixed) != round_half_up(self.p * len(self.remaining)):
            raise InputError("fixed-set size does not equal round(p * |remaining|)")
        if len(self.pref) != round_half_up(self.q * n):
            raise InputError("pref-set size does not equal round(q * n)")
        for i in self.remaining.tolist():
            if int(self.init_labels[i]) not in self.prev_labels:
                raise InputError("a remaining node is seeded with a label unknown at the previous step")

    @property
    def frozen_labels(self) -> FrozenSet[int]:
        """Labels of communities that contain at least one fixed node."""
        return frozenset(self.init_labels[self.fixed].tolist())


def seeded_init(prev_partition: Partition, g_next: Graph, fresh_label_start: Optional[int] = None) -> Partition:
    """The seeded starting partition: previous labels on survivors, fresh singletons elsewhere."""
    ctx = DynamicContext.from_previous(prev_partition, g_next, 0.0, 0.0, 0, fresh_label_start)
    return Partition(g_next.ids, ctx.init_labels.copy())


# --- the optimizer ------------------------------------------------------------


def _one_level(
    lg: Graph,
    keys: np.ndarray,
    movable: List[bool],
    pref_flags: Optional[List[bool]],
    prev_labels: FrozenSet[int],
    cfg: LouvainConfig,
    rng: random.Random,
    level: int,
) -> Tuple[np.ndarray, LevelStats]:
    """Phase 1 on one level graph; returns final key per node and stats.

    This is the package's one move rule. A visited node, taken out of its
    community, scores each candidate community s by ``w_s * 2m - k_u * tot_s``
    (its link weight into s, less its expected share of s's degree, scaled
    by 2m). It moves to the best-scoring neighbouring community (for a
    preferential node, the best one alive at the previous step, if any),
    equal scores going to the smallest key, only when the modularity gain
    over staying, twice the score difference over (2m)^2, exceeds
    :data:`MIN_GAIN`. For integer weights every score is an integer, exact
    while (2m)^2 stays below 2**53, so the tie-break is exact too.

    The first sweep visits every movable node; each later sweep visits, in
    the same order, only the movable nodes that moved in the previous sweep
    or neighbour a node that did. The level ends when a sweep moves nothing.
    """
    n = lg.n
    two_m = lg.total_weight_2m

    slot_key_arr, node_slot_arr = np.unique(keys, return_inverse=True)
    c = len(slot_key_arr)
    com_in_arr, com_tot_arr = _community_sums(lg, node_slot_arr, c)

    q_start = _q_from_sums(com_in_arr, com_tot_arr, two_m) if two_m > 0.0 else 0.0
    stats = LevelStats(
        level=level,
        n_nodes=n,
        n_communities_start=c,
        n_communities_end=c,
        sweeps=0,
        moves=0,
        q_start=q_start,
        q_end=q_start,
    )
    if two_m <= 0.0 or n == 0:
        return keys, stats

    indptr = lg.indptr.tolist()
    nbr = lg.nbr.tolist()
    wgt = lg.wgt.tolist()
    loops = lg.self_loops.tolist()
    k = lg.degrees.tolist()
    slot_key = slot_key_arr.tolist()
    node_slot = node_slot_arr.tolist()
    com_tot = com_tot_arr.tolist()
    com_in = com_in_arr.tolist()
    slot_is_prev = [key in prev_labels for key in slot_key] if pref_flags is not None else None

    order = list(range(n))
    if cfg.node_order == "shuffled":
        rng.shuffle(order)
    position = [0] * n
    for i, u in enumerate(order):
        position[u] = i
    visit = [u for u in order if movable[u]]
    queued = [False] * n  # u is already in the next sweep's visit list

    min_diff = MIN_GAIN * two_m * two_m / 2.0
    q_prev = q_start
    while stats.sweeps < cfg.max_passes_per_level:
        moved = 0
        nxt: List[int] = []
        for u in visit:
            su = node_slot[u]
            ku = k[u]
            lo, hi = indptr[u], indptr[u + 1]
            links: Dict[int, float] = {}
            for e in range(lo, hi):
                s = node_slot[nbr[e]]
                links[s] = links.get(s, 0.0) + wgt[e]

            w_own = links.get(su, 0.0)
            com_tot[su] -= ku

            cand = links
            if pref_flags is not None and pref_flags[u]:
                cand = [s for s in links if slot_is_prev[s]] or links

            stay_score = w_own * two_m - ku * com_tot[su]
            best_slot = su
            best_score = stay_score
            best_key = slot_key[su]
            for s in cand:
                if s == su:
                    continue
                score = links[s] * two_m - ku * com_tot[s]
                if score > best_score or (score == best_score and slot_key[s] < best_key):
                    best_slot = s
                    best_score = score
                    best_key = slot_key[s]

            if best_slot != su and best_score - stay_score > min_diff:
                node_slot[u] = best_slot
                com_tot[best_slot] += ku
                com_in[su] -= 2.0 * w_own + 2.0 * loops[u]
                com_in[best_slot] += 2.0 * links.get(best_slot, 0.0) + 2.0 * loops[u]
                moved += 1
                for v in (u, *nbr[lo:hi]):
                    if movable[v] and not queued[v]:
                        queued[v] = True
                        nxt.append(v)
            else:
                com_tot[su] += ku

        stats.sweeps += 1
        stats.moves += moved
        stats.sweep_visited.append(len(visit))
        stats.sweep_moves.append(moved)
        q_now = _q_from_sums(np.asarray(com_in), np.asarray(com_tot), two_m)
        stats.sweep_q.append(q_now)
        if q_now < q_prev - 1e-9:
            raise InternalInvariantError(
                f"modularity decreased within a sweep: {q_prev} -> {q_now}"
            )
        q_prev = q_now
        if moved == 0:
            break
        for u in nxt:
            queued[u] = False
        nxt.sort(key=position.__getitem__)
        visit = nxt

    stats.q_end = q_prev
    final = np.asarray(node_slot, dtype=np.int64)
    stats.n_communities_end = len(np.unique(final))
    return slot_key_arr[final], stats


def _run(
    g: Graph,
    init_keys: np.ndarray,
    cfg: LouvainConfig,
    fixed: np.ndarray,
    pref: np.ndarray,
    prev_labels: FrozenSet[int],
    frozen_labels: FrozenSet[int],
) -> Tuple[Partition, RunReport]:
    report = RunReport(n_fixed=len(fixed), n_pref=len(pref))
    if g.n == 0:
        return Partition(g.ids, np.empty(0, dtype=np.int64)), report

    rng = random.Random(cfg.rng_seed)
    flat = np.asarray(init_keys, dtype=np.int64).copy()

    movable = [True] * g.n
    for u in fixed.tolist():
        movable[u] = False
    pref_flags: Optional[List[bool]] = None
    if len(pref):
        pref_flags = [False] * g.n
        for u in pref.tolist():
            pref_flags[u] = True

    lg = g
    keys = flat
    level = 1
    while True:
        keys, stats = _one_level(lg, keys, movable, pref_flags, prev_labels, cfg, rng, level)
        report.levels.append(stats)
        if level == 1:
            flat = keys
        else:  # supernode ids are the previous level's keys, sorted
            flat = keys[np.searchsorted(np.asarray(lg.ids.ids, dtype=np.int64), flat)]
        report.final_q = stats.q_end
        if stats.moves == 0 or stats.q_end - stats.q_start < MIN_GAIN:
            break

        lg = aggregate_by_partition(lg, Partition(lg.ids, keys))
        keys = np.asarray(lg.ids.ids, dtype=np.int64)  # supernode external id == its community key
        movable = [key not in frozen_labels for key in lg.ids.ids]
        pref_flags = None  # preferential rule applies to the first level only
        level += 1

    return Partition(g.ids, flat), report


def louvain_static(
    g: Graph,
    cfg: LouvainConfig = LouvainConfig(),
    init: Optional[Partition] = None,
) -> Tuple[Partition, RunReport]:
    """Louvain on one snapshot; ``init`` seeds phase 1 from a previous partition.

    Without ``init`` every node starts alone (labels are then engine-internal;
    callers wanting stable labels renumber the result). Greedy moves never
    decrease modularity, so the output never scores below the seed.
    """
    if init is not None:
        if not init.covers(g):
            raise InputError("init partition does not cover the graph")
        init_keys = init.labels
    else:
        init_keys = np.arange(g.n, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    return _run(g, init_keys, cfg, empty, empty, frozenset(), frozenset())


def louvain_dynamic(
    g_next: Graph,
    ctx: DynamicContext,
    cfg: LouvainConfig = LouvainConfig(),
) -> Tuple[Partition, RunReport]:
    """Detection on the next snapshot with momentum from the previous partition.

    Surviving nodes start in their previous community and the sampled fixed
    set is pinned there; new nodes start as fresh singletons; the sampled
    preferential set is steered toward pre-existing communities during the
    first level. With p=q=0 this is exactly seeded :func:`louvain_static`.
    """
    ctx.validate(g_next)
    return _run(
        g_next,
        ctx.init_labels,
        cfg,
        ctx.fixed,
        ctx.pref,
        ctx.prev_labels,
        ctx.frozen_labels,
    )


def renumber_partition(part: Partition, start: int = 0) -> Partition:
    """Map labels to start, start+1, ... in first-seen node order."""
    uniq, first, inv = np.unique(part.labels, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(start, start + len(uniq), dtype=np.int64)
    return Partition(part.ids, rank[inv])
