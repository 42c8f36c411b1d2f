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

Each level-1 sweep, where nearly all the time goes, is one call of a C body
(in the package's one compiled library, :mod:`commtrack._native`) or, when
no compiler, build or load succeeds, of its pure-Python twin. So are the
community sums behind every level and :func:`modularity`, and the
aggregation between levels (:func:`~commtrack.graph.project`). Each pair
produces the same bits; :data:`KERNEL` (from :mod:`commtrack._native`)
says which body runs, here and in the library's other kernels.

Fixed work is done once where it is invariant. A level binds its arrays
once (a :class:`_Level`), so a sweep passes only the nodes it visits, and
hands on its labels ranked (sorted live keys, each node's index), which the
next level takes as its slots and the partition keeps. A seeding of the
next snapshot (start labels, surviving nodes, the first level's slots, sums
and previous marks) belongs to the call that uses it: a tracker step seeds
once, a sweep once per baseline for all its cells, which share it read-only.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from . import _native
from ._native import KERNEL
from .errors import InputError, InternalInvariantError
from .graph import INT64_MAX, Graph, Partition, aggregate_by_partition, checked_index

__all__ = [
    "LouvainConfig",
    "DynamicContext",
    "LevelStats",
    "RunReport",
    "modularity",
    "louvain_static",
    "louvain_dynamic",
    "renumber_partition",
    "round_half_up",
    "derive_seed",
    "KERNEL",
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
    """What one detection run did: one :class:`LevelStats` per level that
    ran, in order, and ``final_q``, the last one's ``q_end``. A run stops
    before a level on which every community holds a pinned node, since none
    of them could move there; ``levels`` does not list it."""

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
    """A sorted sample of ``fraction`` (in [0, 1]) of the sorted ``population``."""
    pop = np.asarray(population, dtype=np.int64)
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
    uniq, dense, _ = part.ranked
    return _q_from_sums(*_community_sums(g, dense, len(uniq)), two_m)


def _community_sums(g: Graph, dense: ArrayLike, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """in_c and tot_c (see :func:`modularity`) for community indices ``dense`` in [0, c)."""
    return _sums(g, checked_index(dense, g.n, 0, c, "community"), c)


def _sums_py(g: Graph, dense: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_community_sums` on a checked ``dense``.

    Each sum runs in input order: tot_c over the nodes, in_c over the CSR
    entries inside c, and then twice the self-loops of c, summed apart over
    the nodes. :func:`_sums_c` is the same sums in C.
    """
    # bincount yields int64 on empty input; force the float accumulators
    tot = np.bincount(dense, weights=g.degrees, minlength=c).astype(np.float64)
    rows = g._rows()
    same = dense[rows] == dense[g.nbr]
    internal = np.bincount(dense[rows[same]], weights=g.wgt[same], minlength=c).astype(np.float64)
    internal += 2.0 * np.bincount(dense, weights=g.self_loops, minlength=c)
    return internal, tot


def _sums_c(g: Graph, dense: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_sums_py` compiled from ``_native.c``; ``dense`` is checked."""
    com_in, com_tot, loop_sum = np.zeros(c), np.zeros(c), np.zeros(c)
    _native.call("commtrack_community_sums", g.n, *g._kernel_pointers(), dense, c, com_in, com_tot, loop_sum)
    return com_in, com_tot


_sums = _sums_py if _native.LIB is None else _sums_c


def _q_from_sums(com_in: np.ndarray, com_tot: np.ndarray, two_m: float) -> float:
    return float(np.sum(com_in / two_m - (com_tot / two_m) ** 2))


# --- dynamic context ----------------------------------------------------------


@dataclass
class DynamicContext:
    """Everything a detection run starts from; the one input of every run.

    All four fields are int64 arrays, and all node references are internal
    indices of the *next* graph. ``init_labels`` is the seeded starting
    partition: previous labels on surviving nodes, fresh singleton labels,
    counting up in index order, on new nodes. ``prev_labels`` holds the
    labels alive at the previous step, sorted and distinct. A static run is
    a run whose context has only ``init_labels``.
    """

    prev_labels: np.ndarray  # sorted distinct labels alive at the previous step
    fixed: np.ndarray  # sorted surviving nodes pinned to their previous label
    pref: np.ndarray  # sorted, subset of all nodes
    init_labels: np.ndarray  # int64, one label per node of the next graph
    _seeding: Optional["_Seeding"] = field(default=None, repr=False, compare=False)

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
        """Seed ``g_next`` from ``prev_partition`` and sample the fixed (``p`` of
        the surviving nodes) and preferential (``q`` of all nodes) sets. Fresh
        labels start at ``fresh_label_start``, by default one past the largest
        previous label. Each call seeds afresh; a caller that runs many
        contexts from one seeding asks one :class:`_Seeding` for them all."""
        return _Seeding(prev_partition, g_next, fresh_label_start).context(p, q, seed)

    def validate(self, g_next: Graph) -> None:
        """Reject a context whose node references do not fit ``g_next``."""
        n = g_next.n
        if len(self.init_labels) != n:
            raise InputError(f"context built for {len(self.init_labels)} nodes, graph has {n}")
        for name, arr in (("fixed", self.fixed), ("pref", self.pref)):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise InputError(f"context {name} set references nodes outside the graph")


class _Seeding:
    """Seeding ``graph`` from the partition ``prev``, fresh labels from ``fresh_label_start``
    (see :meth:`DynamicContext.from_previous`): what every context it gives (:meth:`context`) shares, read-only."""

    def __init__(self, prev: Partition, graph: Graph, fresh_label_start: Optional[int]):
        self.graph, self.prev_labels = graph, prev.ranked[0]
        pos = prev.ids.positions(graph.ids.ids)
        self.remaining = remaining = np.flatnonzero(pos >= 0)  # the surviving nodes
        new = np.flatnonzero(pos < 0)
        self.init_labels = init = np.empty(graph.n, dtype=np.int64)
        init[remaining] = prev.labels[pos[remaining]]
        if len(new):
            if fresh_label_start is None:
                fresh_label_start = int(self.prev_labels[-1]) + 1 if len(self.prev_labels) else 0
            if fresh_label_start + len(new) - 1 > INT64_MAX:
                first_bad = max(fresh_label_start, INT64_MAX + 1)
                raise InputError(f"fresh community label {first_bad} is outside the int64 range")
            init[new] = fresh_label_start + np.arange(len(new), dtype=np.int64)
        self.start = _level_start(graph, init, self.prev_labels)  # the first level's
        # (0 fixed or 1 preferential, drawn size, seed) -> the set, drawn once, read-only;
        # a draw of none or all of its population is keyed without a seed
        self.samples: dict = {}
        for a in (init, remaining, *self.start):
            a.flags.writeable = False

    def context(self, p: float, q: float, seed: int) -> DynamicContext:
        """This seeding's context: ``p`` of the surviving nodes pinned, ``q`` of all nodes steered.
        Contexts that ask for the same set share one read-only draw: one of the same size with the
        same seed, or one of none or all of the population with any seed."""
        if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
            raise InputError(f"p and q must be in [0, 1], got p={p}, q={q}")
        drawn = []
        for which, fraction in ((0, p), (1, q)):
            size = len(self.remaining) if which == 0 else self.graph.n
            k = round_half_up(fraction * size)
            key = which, k, seed if 0 < k < size else None
            if key not in self.samples:
                population = self.remaining if which == 0 else np.arange(size)
                sample = _sample_without_replacement(population, fraction, derive_seed(seed, which))
                sample.flags.writeable = False
                self.samples[key] = sample
            drawn.append(self.samples[key])
        return DynamicContext(
            prev_labels=self.prev_labels,
            fixed=drawn[0],
            pref=drawn[1],
            init_labels=self.init_labels,
            _seeding=self,
        )


# --- the level-1 sweep ----------------------------------------------------------


@dataclass(eq=False)
class _Level:
    """What every sweep of one level reads and writes, bound once per level.

    ``node_slot`` is each node's slot; slots are the level's communities
    numbered in ascending key order. ``com_in`` and ``com_tot`` are the
    slots' sums (see :func:`modularity`); the sweeps update these three in
    place. ``pref`` (one uint8 per node) marks the preferential nodes and
    ``slot_is_prev`` (one uint8 per slot) the slots alive at the previous
    step. ``min_diff`` is :data:`MIN_GAIN` times (2m)^2 / 2.
    """

    graph: Graph
    node_slot: np.ndarray
    com_in: np.ndarray
    com_tot: np.ndarray
    pref: np.ndarray
    slot_is_prev: np.ndarray
    two_m: float
    min_diff: float

    @cached_property
    def c_args(self) -> tuple:
        """:func:`_sweep_c`'s arguments after ``visit`` and ``active``: the
        addresses of the graph's and the level's arrays and of a weight and a
        stamp scratch of one entry per slot and a touched scratch of one more
        (the kernel may store one entry past the last distinct slot), which
        every sweep of the level reuses. The level holds each of them."""
        c = len(self.com_tot)
        self._scratch = np.empty(c), np.empty(c, dtype=np.int64), np.empty(c + 1, dtype=np.int64)
        level = (self.node_slot, self.com_in, self.com_tot, self.pref, self.slot_is_prev)
        return (*self.graph._kernel_pointers(), c, *_native.addresses(level),
                self.two_m, self.min_diff, *_native.addresses(self._scratch))


def _sweep_py(visit: np.ndarray, lv: _Level) -> Tuple[int, np.ndarray]:
    """One sweep over the nodes of ``visit``; returns the moves and the active mask.

    This is the package's one move rule. A visited node, taken out of its
    community, scores each candidate community s by ``w_s * 2m - k_u * tot_s``
    (its link weight into s, less its expected share of s's degree, scaled
    by 2m). It moves to the best-scoring neighbouring community (for a
    preferential node, the best one alive at the previous step, if any),
    equal scores going to the smallest key, only when the score difference
    over staying exceeds ``lv.min_diff``. For integer weights every score is
    an integer, exact while (2m)^2 stays below 2**53, so the tie-break is
    exact too.

    Slots are numbered in ascending key order, so the smallest key is the
    smallest slot. ``lv.node_slot``, ``lv.com_in`` and ``lv.com_tot`` are
    updated in place; the returned mask is a new uint8 array: 1 for every
    node that moved or neighbours a node that did. :func:`_sweep_c` is the
    same arithmetic in the same order.
    """
    g, pref, two_m, min_diff = lv.graph, lv.pref, lv.two_m, lv.min_diff
    nbr, wgt, self_loops, degrees = g.nbr, g.wgt, g.self_loops, g.degrees
    # whole lists of what every node reads or writes; each visited node's
    # own row is sliced out as it comes, so a sweep over few nodes stays cheap
    ptr = g.indptr.tolist()
    slot, tot, inn = lv.node_slot.tolist(), lv.com_tot.tolist(), lv.com_in.tolist()
    is_prev = lv.slot_is_prev.tolist()
    # per-slot link weight of the visited node; stamp[s] == u marks it as
    # written for u (each node is visited at most once per sweep)
    weight = [0.0] * len(tot)
    stamp = [-1] * len(tot)
    active = bytearray(len(slot))
    moved = 0
    for u in visit.tolist():
        su = slot[u]
        ku = float(degrees[u])
        lo, hi = ptr[u], ptr[u + 1]
        row = nbr[lo:hi].tolist()
        touched = []
        for v, w in zip(row, wgt[lo:hi].tolist()):
            s = slot[v]
            if stamp[s] != u:
                stamp[s] = u
                weight[s] = 0.0
                touched.append(s)
            weight[s] += w

        w_own = weight[su] if stamp[su] == u else 0.0
        tot[su] -= ku

        cand = touched
        if pref[u]:
            cand = [s for s in touched if is_prev[s]] or touched

        stay_score = w_own * two_m - ku * tot[su]
        best = su
        best_score = stay_score
        for s in cand:
            if s == su:
                continue
            score = weight[s] * two_m - ku * tot[s]
            if score > best_score or (score == best_score and s < best):
                best = s
                best_score = score

        if best != su and best_score - stay_score > min_diff:
            loop_u = float(self_loops[u])
            slot[u] = best
            tot[best] += ku
            inn[su] -= 2.0 * w_own + 2.0 * loop_u
            inn[best] += 2.0 * weight[best] + 2.0 * loop_u
            moved += 1
            active[u] = 1
            for v in row:
                active[v] = 1
        else:
            tot[su] += ku

    lv.node_slot[:] = slot
    lv.com_tot[:] = tot
    lv.com_in[:] = inn
    return moved, np.frombuffer(active, dtype=np.uint8)


def _sweep_c(visit: np.ndarray, lv: _Level) -> Tuple[int, np.ndarray]:
    """:func:`_sweep_py` compiled from ``_native.c``; ``visit`` is C-contiguous
    int64 and ``lv``'s arrays are checked (see :func:`_one_level`)."""
    active = np.zeros(len(lv.node_slot), dtype=np.uint8)
    moved = _native.call("commtrack_sweep", len(visit), visit, active, *lv.c_args)
    return moved, active


_sweep = _sweep_py if _native.LIB is None else _sweep_c


# --- the optimizer ------------------------------------------------------------


def _level_start(lg: Graph, keys: ArrayLike, prev_labels: ArrayLike) -> Tuple[np.ndarray, ...]:
    """A level's communities before its first sweep, from its nodes' ``keys``:
    ``(slot_key, node_slot, com_in, com_tot, slot_is_prev)``, the slots' keys
    ascending (keys already sorted and distinct, as on a static first level
    and every level above the first, as they stand), each node's slot, the
    slots' sums (see :func:`modularity`) and a uint8 mark of the slots whose
    key ``prev_labels`` holds (all 0 without a search when it is empty, as
    above the first level). The start owns its arrays."""
    n = lg.n
    keys = np.array(keys, dtype=np.int64)
    if np.all(keys[1:] > keys[:-1]):
        slot_key, node_slot = keys, np.arange(n, dtype=np.int64)
    else:
        slot_key, node_slot = np.unique(keys, return_inverse=True)
    c = len(slot_key)
    # the compiled sweep reads the level's arrays through raw pointers: fix
    # dtype and layout here, and check the bounds it trusts
    node_slot = checked_index(node_slot, n, 0, c, "community")
    slot_is_prev = np.isin(slot_key, prev_labels).astype(np.uint8) if len(prev_labels) else np.zeros(c, dtype=np.uint8)
    return slot_key, node_slot, *_sums(lg, node_slot, c), slot_is_prev


def _one_level(
    lg: Graph,
    start: Tuple[np.ndarray, ...],
    movable: ArrayLike,
    pref: ArrayLike,
    cfg: LouvainConfig,
    rng: Optional[random.Random],
    level: int,
) -> Tuple[np.ndarray, np.ndarray, LevelStats]:
    """Phase 1 on one level graph from its :func:`_level_start`; returns
    ``(uniq, dense, stats)``: the keys alive at the end, sorted, and each
    node's index into them, so node ``u`` ends in community ``uniq[dense[u]]``.

    ``movable`` and ``pref`` are per-node boolean masks; a ``pref`` node is
    steered toward the slots ``start`` marks as previous. The start may be
    shared, so the level copies the three arrays its sweeps update. The
    level's arrays are bound once in a :class:`_Level`, and each sweep is one
    call of :func:`_sweep` on it, whose Python body documents the move rule;
    who is visited, and in what order, is decided here alone. The level's
    order keeps only the movable nodes; the first sweep visits them all, each
    later one, in that order, those the last sweep marked active. The level
    ends when a sweep moves nothing.
    """
    n = lg.n
    two_m = lg.total_weight_2m
    slot_key, node_slot, com_in, com_tot, slot_is_prev = start
    c = len(slot_key)

    q_start = _q_from_sums(com_in, com_tot, two_m) if two_m > 0.0 else 0.0
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
        return slot_key, node_slot, stats

    movable = np.asarray(movable, dtype=bool)
    pref = np.ascontiguousarray(pref, dtype=np.uint8)
    if len(movable) != n or len(pref) != n:
        raise InternalInvariantError("node masks do not match the level graph")
    node_slot, com_in, com_tot = node_slot.copy(), com_in.copy(), com_tot.copy()
    lv = _Level(lg, node_slot, com_in, com_tot, pref, slot_is_prev, two_m, MIN_GAIN * two_m * two_m / 2.0)

    if cfg.node_order == "shuffled":
        order = list(range(n))
        rng.shuffle(order)
        order = np.asarray(order, dtype=np.int64)
        order = order[movable[order]]
    else:  # intp is int32 on some platforms; the kernel reads int64
        order = np.flatnonzero(movable).astype(np.int64, copy=False)
    active = np.ones(n, dtype=np.uint8)

    q_prev = q_start
    while stats.sweeps < cfg.max_passes_per_level:
        visit = order[active[order] != 0]
        moved, active = _sweep(visit, lv)
        stats.sweeps += 1
        stats.moves += moved
        stats.sweep_visited.append(len(visit))
        stats.sweep_moves.append(moved)
        q_now = _q_from_sums(com_in, com_tot, two_m)
        stats.sweep_q.append(q_now)
        if q_now < q_prev - 1e-9:
            raise InternalInvariantError(
                f"modularity decreased within a sweep: {q_prev} -> {q_now}"
            )
        q_prev = q_now
        if moved == 0:
            break

    stats.q_end = q_prev
    live = np.zeros(c, dtype=bool)
    live[node_slot] = True
    uniq = slot_key[live]
    stats.n_communities_end = len(uniq)
    return uniq, (np.cumsum(live, dtype=np.int64) - 1)[node_slot], stats


def _run(g: Graph, ctx: DynamicContext, cfg: LouvainConfig) -> Tuple[Partition, RunReport]:
    """Phase 1 and aggregation, level by level, from ``ctx``; ``node_of`` maps
    each node of ``g`` to its node in the current level graph.

    The run stops after a level that moves nothing or gains less than
    :data:`MIN_GAIN`, and after one whose every community holds a pinned
    node: the next level would sweep an empty visit list once and keep the
    partition as it is, so it is neither aggregated nor run. A pinned node never
    moves, nor does a supernode holding one, so ``node_of`` finds every frozen one."""
    two_m = g.total_weight_2m
    # move scores are products of two weights; past this bound they round to 0
    if 0.0 < two_m and two_m * two_m < sys.float_info.min:
        raise InputError(f"total edge weight 2m = {two_m:g} is too small: (2m)^2 underflows")
    report = RunReport(n_fixed=len(ctx.fixed), n_pref=len(ctx.pref))
    if g.n == 0:
        return Partition(g.ids, np.empty(0, dtype=np.int64)), report

    rng = random.Random(cfg.rng_seed) if cfg.node_order == "shuffled" else None

    movable = np.ones(g.n, dtype=bool)
    movable[ctx.fixed] = False
    pref = np.zeros(g.n, dtype=bool)
    pref[ctx.pref] = True

    s = ctx._seeding  # its start serves while the context holds its arrays
    shared = s is not None and s.graph is g and s.init_labels is ctx.init_labels and s.prev_labels is ctx.prev_labels
    start = s.start if shared else _level_start(g, ctx.init_labels, ctx.prev_labels)
    lg = g
    node_of = np.arange(g.n, dtype=np.int64)
    level = 1
    while True:
        uniq, dense, stats = _one_level(lg, start, movable, pref, cfg, rng, level)
        report.levels.append(stats)
        report.final_q = stats.q_end
        if stats.moves == 0 or stats.q_end - stats.q_start < MIN_GAIN:
            break
        movable = np.ones(len(uniq), dtype=bool)
        movable[dense[node_of[ctx.fixed]]] = False  # the communities holding a pinned node
        if not movable.any():  # every community holds a pinned node: the next level could not move
            break

        # supernode dense[u] of the next level is community uniq[dense[u]],
        # and its external id is that key
        lg = aggregate_by_partition(lg, Partition._from_dense(lg.ids, uniq, dense))
        node_of = dense[node_of]
        # the preferential rule applies to the first level only
        pref = np.zeros(lg.n, dtype=bool)
        start = _level_start(lg, uniq, np.empty(0, dtype=np.int64))
        level += 1

    return Partition._from_dense(g.ids, uniq, dense[node_of]), report


def louvain_static(
    g: Graph,
    cfg: LouvainConfig = LouvainConfig(),
    init: Optional[Partition] = None,
) -> Tuple[Partition, RunReport]:
    """Louvain on one snapshot; ``init`` seeds phase 1 from a previous partition.

    A static run is the one detection run over a context with no previous
    labels, no pinned and no steered node. Without ``init`` every node starts
    alone (labels are then engine-internal; callers wanting stable labels
    renumber the result). Greedy moves never decrease modularity, so the
    output never scores below the seed.
    """
    if init is not None:
        if not init.covers(g):
            raise InputError("init partition does not cover the graph")
        init_labels = init.labels
    else:
        init_labels = np.arange(g.n, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    return _run(g, DynamicContext(empty, empty, empty, init_labels), cfg)


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
    return _run(g_next, ctx, cfg)


def renumber_partition(part: Partition, start: int = 0) -> Partition:
    """Map labels to start, start+1, ... in first-seen node order."""
    uniq, first, inv = np.unique(part.labels, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq), dtype=np.int64)
    return Partition._from_dense(part.ids, np.arange(start, start + len(uniq), dtype=np.int64), rank[inv])
