"""The paper's stability sweep: a p x q grid of stability runs over one
snapshot transition, each measured against a baseline detection on the
earlier snapshot, and its CSV form."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from typing import List, Sequence, TextIO, Tuple

from .errors import InputError
from .graph import Graph, Partition
from .louvain import (
    LouvainConfig,
    _Seeding,
    derive_seed,
    louvain_dynamic,
    louvain_static,
    renumber_partition,
)
from .metrics import MatchConfig, compare

__all__ = ["SweepSpec", "SweepResult", "run_sweep", "write_sweep_csv"]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of stability parameters and seeds for one snapshot transition."""

    p_values: Sequence[float]
    q_values: Sequence[float]
    seeds: Sequence[int]
    r: float = 0.51

    def __post_init__(self):
        if not self.p_values or not self.q_values or not self.seeds:
            raise InputError("sweep needs at least one p, one q, and one seed")
        for name, values in (("p", self.p_values), ("q", self.q_values)):
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise InputError(f"sweep {name} value {v} outside [0, 1]")
        MatchConfig(self.r)  # range check


@dataclass
class SweepResult:
    p: float
    q: float
    seed: int
    mi_nats: float
    matching_count: int
    modularity_next: float
    runtime_ms: float


def run_sweep(
    g_t: Graph,
    g_t1: Graph,
    spec: SweepSpec,
    cfg: LouvainConfig = LouvainConfig(),
) -> List[SweepResult]:
    """One baseline detection on the first snapshot per seed, then one
    stability run per (p, q, seed), measured against that baseline.

    With ``node_order="index"`` the seed cannot change a detection: one
    baseline, run with the first seed, serves every seed, and cells whose
    pinned and steered draws are the same sets share one stability run. Those
    are the cells that draw none or all of each population, or that draw the
    same sizes with the same seed. Each such cell still gets its own
    comparison and row, and its ``runtime_ms`` is the shared run's time. Each
    baseline seeds the second snapshot once, and its cells share that seeding.

    Rows come back ordered by (p, q, seed). Node sets must overlap, otherwise
    the measures are undefined.
    """
    if not (g_t.ids.positions(g_t1.ids.ids) >= 0).any():
        raise InputError("the two snapshots share no nodes; sweep measures are undefined")

    match_cfg = MatchConfig(spec.r)

    def baseline(s: int) -> Tuple[Partition, _Seeding]:
        base = renumber_partition(louvain_static(g_t, replace(cfg, rng_seed=int(s)))[0])
        return base, _Seeding(base, g_t1, None)

    if cfg.node_order == "index":  # the seed orders no visit: one baseline serves every seed
        shared = baseline(spec.seeds[0])
        baselines = {s: shared for s in spec.seeds}
    else:
        baselines = {s: baseline(s) for s in spec.seeds}

    cells = [(p, q, s) for p in spec.p_values for q in spec.q_values for s in spec.seeds]
    ctx_seed = {s: derive_seed(int(s), 2) for s in spec.seeds}
    contexts = [baselines[s][1].context(p, q, ctx_seed[s]) for p, q, s in cells]
    # under index order the seed orders no visit, so a run is fixed by its draws,
    # and the seeding holds each distinct draw as one array for the whole call
    index = cfg.node_order == "index"
    runs = [(id(ctx.fixed), id(ctx.pref)) if index else i for i, ctx in enumerate(contexts)]
    last = {run: i for i, run in enumerate(runs)}  # the last cell to read each run's partition
    done = {}
    run_cfg = {s: replace(cfg, rng_seed=derive_seed(int(s), 3)) for s in spec.seeds}
    results: List[SweepResult] = []
    for i, ((p, q, s), ctx, run) in enumerate(zip(cells, contexts, runs)):
        if run not in done:
            t0 = time.perf_counter()
            part, _ = louvain_dynamic(g_t1, ctx, run_cfg[s])
            done[run] = part, (time.perf_counter() - t0) * 1000.0
        part, dt_ms = done.pop(run) if last[run] == i else done[run]
        report = compare(baselines[s][0], part, g_t1, match_cfg)
        results.append(
            SweepResult(
                p=p,
                q=q,
                seed=int(s),
                mi_nats=report.mi_nats,
                matching_count=report.n_matching,
                modularity_next=report.modularity_next,
                runtime_ms=dt_ms,
            )
        )
    return results


def _fmt_pct(v: float) -> str:
    """A fraction as the percentage it was given as: ``v * 100`` rounds in the
    last bit (0.07 * 100 is 7.000000000000001), and 15 significant digits
    drop that error."""
    return f"{v * 100.0:.15g}"


def write_sweep_csv(results: List[SweepResult], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["p_pct", "q_pct", "seed", "mi_nats", "matching_count", "modularity", "runtime_ms"])
    for r in results:
        writer.writerow(
            [
                _fmt_pct(r.p),
                _fmt_pct(r.q),
                r.seed,
                repr(r.mi_nats),
                r.matching_count,
                repr(r.modularity_next),
                f"{r.runtime_ms:.3f}",
            ]
        )
