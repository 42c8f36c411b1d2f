"""Command-line interface.

Subcommands:
  ingest   raw communication CSV -> monthly social graph (TSV edge list)
  detect   one detection run on a graph, optionally seeded by a previous
           partition with stability parameters p and q
  compare  two partition files -> comparison report (JSON)
  track    append a snapshot to a persisted timeline directory
  synth    generate an evolving planted-partition snapshot sequence
  sweep    p x q stability/quality grid over one snapshot transition (CSV)

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import InputError, InternalInvariantError, reading_text
from .graph import (
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from .ingest import WindowSpec, ingest_pipeline
from .louvain import (
    DynamicContext,
    LouvainConfig,
    louvain_dynamic,
    louvain_static,
    renumber_partition,
)
from .metrics import MatchConfig, compare
from .sweep import SweepSpec, run_sweep, write_sweep_csv
from .synth import SynthSpec, generate
from .tracker import bootstrap, derive_step_seed, load_timeline, save_timeline, step

__all__ = ["build_parser", "main"]


# --- argument parsing -------------------------------------------------------------


def _parse_pct_list(text: str, what: str) -> List[float]:
    """"0,25,50,75,100" (percent) -> [0.0, 0.25, ...]."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            pct = float(tok)
        except ValueError:
            raise InputError(f"bad {what} value {tok!r}; expected percentages like 0,25,50") from None
        if not 0.0 <= pct <= 100.0:
            raise InputError(f"{what} percentage {pct} outside [0, 100]")
        out.append(pct / 100.0)
    if not out:
        raise InputError(f"no {what} values given")
    return out


def _parse_seeds(text: str) -> List[int]:
    """Either "1..10" (inclusive range) or a comma list "1,2,7"."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise InputError(f"bad seed range {text!r}; expected like 1..10") from None
        if hi < lo:
            raise InputError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad seed list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commtrack",
        description="Community detection and tracking over snapshot sequences of social graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ing = sub.add_parser("ingest", help="communication CSV records -> social graph TSV")
    p_ing.add_argument("--cdr", nargs="+", required=True, help="input CSV file(s)")
    p_ing.add_argument("--month", required=True, help="anchor month, YYYY-MM")
    p_ing.add_argument("--span", type=int, default=3, help="window length in months (default 3)")
    p_ing.add_argument("--cap", type=int, default=200, help="drop nodes with more neighbors than this")
    p_ing.add_argument("--weight", choices=["unit", "comm_count"], default="unit")
    p_ing.add_argument("--max-rejected", type=float, default=1.0,
                       help="abort when the rejected line fraction exceeds this")
    p_ing.add_argument("-o", "--output", required=True, help="output edge TSV")

    p_det = sub.add_parser("detect", help="run community detection on one graph")
    p_det.add_argument("--graph", required=True)
    p_det.add_argument("--prev-partition", default=None,
                       help="previous snapshot's partition TSV; enables the stability run")
    p_det.add_argument("--p", type=float, default=None,
                       help="fixed-node fraction (0..1, default 0); needs --prev-partition")
    p_det.add_argument("--q", type=float, default=None,
                       help="preferential-attachment fraction (0..1, default 0); needs --prev-partition")
    p_det.add_argument("--seed", type=int, default=0)
    p_det.add_argument("--order", choices=["index", "shuffled"], default="index")
    p_det.add_argument("-o", "--output", required=True, help="output partition TSV")

    p_cmp = sub.add_parser("compare", help="compare two partitions")
    p_cmp.add_argument("--prev", required=True, help="earlier partition TSV")
    p_cmp.add_argument("--next", dest="next_", required=True, help="later partition TSV")
    p_cmp.add_argument("--graph", default=None, help="graph of the later snapshot (adds its modularity)")
    p_cmp.add_argument("--r", type=float, default=0.51, help="matching overlap threshold, 0.5 < r < 1")
    p_cmp.add_argument("-o", "--output", default=None, help="report JSON (default: stdout)")

    p_trk = sub.add_parser("track", help="append a snapshot to a timeline directory")
    p_trk.add_argument("--timeline", required=True, help="timeline directory (created on first use)")
    p_trk.add_argument("--add", required=True, help="next snapshot's graph TSV")
    p_trk.add_argument("--p", type=float, default=None,
                       help="fixed-node fraction (0..1, default 0); not allowed on the first call")
    p_trk.add_argument("--q", type=float, default=None,
                       help="preferential-attachment fraction (0..1, default 0); not allowed on the first call")
    p_trk.add_argument("--seed", type=int, default=0,
                       help="base seed; each step uses a sub-seed derived from it and the step index")
    p_trk.add_argument("--r", type=float, default=None,
                       help="matching overlap threshold, 0.5 < r < 1 (default 0.51); not allowed on the first call")

    p_syn = sub.add_parser("synth", help="generate an evolving planted-partition sequence")
    p_syn.add_argument("--nodes", type=int, required=True)
    p_syn.add_argument("--communities", type=int, required=True)
    p_syn.add_argument("--p-in", type=float, required=True)
    p_syn.add_argument("--p-out", type=float, required=True)
    p_syn.add_argument("--churn", type=float, default=0.0)
    p_syn.add_argument("--migrate", type=float, default=0.0)
    p_syn.add_argument("--steps", type=int, default=1)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("-o", "--output", required=True, help="output directory")

    p_swp = sub.add_parser("sweep", help="p x q stability/quality grid over one transition")
    p_swp.add_argument("--graph-t", required=True, help="earlier snapshot graph TSV")
    p_swp.add_argument("--graph-t1", required=True, help="later snapshot graph TSV")
    p_swp.add_argument("--p", default="0", help="comma list of percentages (default 0)")
    p_swp.add_argument("--q", default="0", help="comma list of percentages (default 0)")
    p_swp.add_argument("--seeds", default="0", help='"lo..hi" range or comma list')
    p_swp.add_argument("--r", type=float, default=0.51, help="matching overlap threshold, 0.5 < r < 1")
    p_swp.add_argument("--order", choices=["index", "shuffled"], default="index")
    p_swp.add_argument("-o", "--output", required=True, help="output CSV")

    return parser


# --- subcommand bodies ---------------------------------------------------------


def _cmd_ingest(args) -> int:
    window = WindowSpec.from_label(args.month, span_months=args.span)

    def _lines():
        for name in args.cdr:
            with open(name, "r", encoding="utf-8") as fh, reading_text(name):
                yield from fh

    g, report = ingest_pipeline(
        _lines(), window, cap=args.cap, weight_mode=args.weight,
        max_rejected_fraction=args.max_rejected,
    )
    write_edge_tsv(g, args.output)
    rej = report.rejections
    print(
        f"ingest: {rej.n_valid} records kept ({rej.n_rejected} rejected, "
        f"{report.n_out_of_window} outside window), {report.n_directed_pairs} directed pairs, "
        f"graph: {g.n} nodes / {g.n_edges} edges after cap {report.filter.cap} "
        f"(removed {report.filter.n_removed} hubs)",
        file=sys.stderr,
    )
    return 0


def _cmd_detect(args) -> int:
    if args.prev_partition is None and (args.p is not None or args.q is not None):
        raise InputError("--p and --q apply only to a stability run; give --prev-partition")
    g = read_edge_tsv(args.graph)
    cfg = LouvainConfig(rng_seed=args.seed, node_order=args.order)
    if args.prev_partition is None:
        part, report = louvain_static(g, cfg)
        part = renumber_partition(part)
    else:
        prev = read_partition_tsv(args.prev_partition)
        ctx = DynamicContext.from_previous(prev, g, args.p or 0.0, args.q or 0.0, seed=args.seed)
        part, report = louvain_dynamic(g, ctx, cfg)
    write_partition_tsv(part, args.output)
    n_comms = len(set(part.labels.tolist()))
    print(
        f"detect: {g.n} nodes -> {n_comms} communities, Q={report.final_q:.6f}, "
        f"{len(report.levels)} levels",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args) -> int:
    g = read_edge_tsv(args.graph) if args.graph else None
    prev = read_partition_tsv(args.prev)
    nxt = read_partition_tsv(args.next_, graph=g)
    report = compare(prev, nxt, g, MatchConfig(args.r))
    text = report.to_json()
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_track(args) -> int:
    d = Path(args.timeline)
    appending = (d / "meta.json").exists()
    if not appending and (args.p is not None or args.q is not None or args.r is not None):
        raise InputError("--p, --q and --r apply only to an append; the first call starts the timeline")
    g = read_edge_tsv(args.add)
    if appending:
        tl = load_timeline(d)
        idx = len(tl.steps)
        step(
            tl,
            g,
            args.p or 0.0,
            args.q or 0.0,
            derive_step_seed(args.seed, idx),
            LouvainConfig(rng_seed=derive_step_seed(args.seed, idx)),
            MatchConfig() if args.r is None else MatchConfig(args.r),
        )
        last = tl.history[-1]
        print(
            f"track: step {idx} appended, MI={last.mi_nats:.4f}, "
            f"matching={last.n_matching}, Q={last.modularity_next:.6f}",
            file=sys.stderr,
        )
    else:
        if g.n == 0:
            # no later snapshot could share a node with it, so no append could succeed
            raise InputError(f"{args.add}: the first snapshot has no nodes; a timeline cannot start from it")
        tl = bootstrap(g, LouvainConfig(rng_seed=derive_step_seed(args.seed, 0)))
        print(
            f"track: timeline started with {len(set(tl.last.partition.labels.tolist()))} communities",
            file=sys.stderr,
        )
    save_timeline(tl, d)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_nodes=args.nodes,
        n_communities=args.communities,
        p_in=args.p_in,
        p_out=args.p_out,
        churn_rate=args.churn,
        migrate_rate=args.migrate,
        steps=args.steps,
        seed=args.seed,
    )
    snapshots = generate(spec)
    d = Path(args.output)
    d.mkdir(parents=True, exist_ok=True)
    for k, (g, planted) in enumerate(snapshots):
        write_edge_tsv(g, d / f"step_{k}.graph.tsv")
        write_partition_tsv(planted, d / f"step_{k}.planted.tsv")
    print(f"synth: wrote {len(snapshots)} snapshots to {d}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    g_t = read_edge_tsv(args.graph_t)
    g_t1 = read_edge_tsv(args.graph_t1)
    spec = SweepSpec(
        p_values=_parse_pct_list(args.p, "p"),
        q_values=_parse_pct_list(args.q, "q"),
        seeds=_parse_seeds(args.seeds),
        r=args.r,
    )
    results = run_sweep(g_t, g_t1, spec, LouvainConfig(node_order=args.order))
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(results, fh)
    print(f"sweep: {len(results)} rows -> {args.output}", file=sys.stderr)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "detect": _cmd_detect,
    "compare": _cmd_compare,
    "track": _cmd_track,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
