"""Timeline orchestration: one detection run per snapshot, labels that persist.

A timeline owns the label space. Step 0 issues fresh labels 0..c-1; every
later step seeds detection with the previous partition, so surviving
communities keep their labels, and brand-new communities draw from a counter
that never goes backward (a label used at step t can never reappear as a
different community later).

Persistence is one directory per timeline: ``step_<k>.graph.tsv`` and
``step_<k>.partition.tsv`` per snapshot, ``history.jsonl`` with one
comparison report per transition, and ``meta.json`` for the label counter and
per-step bookkeeping. ``meta.json`` is the commit point: it names the
committed step count, and everything past that count is ignored on load.
Committed step files are written once and history rows are appended, so of
what an append writes only ``meta.json`` grows with the timeline's length:
it is rewritten whole and holds each step's snapshot id and events and each
label's origin. A load reads the last partition, and other stored files only
when they are used.
"""

from __future__ import annotations

import filecmp
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import InputError, replacing
from .graph import (
    Graph,
    Partition,
    project,
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from .louvain import (
    DynamicContext,
    LouvainConfig,
    derive_seed,
    louvain_dynamic,
    louvain_static,
    renumber_partition,
)
from .metrics import ComparisonReport, MatchConfig, compare

__all__ = [
    "TimelineStep",
    "StepEvents",
    "Timeline",
    "bootstrap",
    "step",
    "derive_step_seed",
    "save_timeline",
    "load_timeline",
]


class TimelineStep:
    """One snapshot of a timeline: its id, graph and partition.

    A step loaded from a timeline directory holds the paths of its stored
    files and reads each on first access: the partition as it is, the graph
    with its nodes indexed in the partition's order, so that the partition
    covers it as for a step made in memory.
    """

    __slots__ = ("snapshot_id", "_partition", "_graph")

    def __init__(self, snapshot_id: str, graph: Union[Graph, Path], partition: Union[Partition, Path]):
        self.snapshot_id = snapshot_id
        self._partition = partition
        self._graph = graph

    @property
    def partition(self) -> Partition:
        if not isinstance(self._partition, Partition):
            self._partition = read_partition_tsv(self._partition)
        return self._partition

    @property
    def graph(self) -> Graph:
        if not isinstance(self._graph, Graph):
            ids = self.partition.ids
            stored = read_edge_tsv(self._graph)
            order = ids.positions(stored.ids.ids)
            if stored.n != len(ids) or (order < 0).any():
                raise InputError(f"partition of step {self.snapshot_id!r} does not cover {self._graph}")
            self._graph = project(stored, ids, order)
        return self._graph

    def __repr__(self) -> str:
        return f"TimelineStep({self.snapshot_id!r}, {self._graph!r}, {self._partition!r})"


@dataclass
class StepEvents:
    """Lineage bookkeeping for one transition (reporting only)."""

    step_index: int
    births: List[int] = field(default_factory=list)  # labels new and unmatched
    deaths: List[int] = field(default_factory=list)  # labels gone and unmatched
    n_fixed: int = 0
    n_pref: int = 0
    # runtime diagnostic, not persisted
    fixed_ids: Optional[Tuple] = None


@dataclass(frozen=True)
class _Stored:
    """Where a timeline is committed: the directory, the step count its
    ``meta.json`` names, and the byte length of those steps' history rows."""

    directory: Path
    n_steps: int
    history_bytes: int


@dataclass
class Timeline:
    steps: List[TimelineStep] = field(default_factory=list)
    label_counter: int = 0
    history: List[ComparisonReport] = field(default_factory=list)
    events: List[StepEvents] = field(default_factory=list)
    label_origins: Dict[int, int] = field(default_factory=dict)  # label -> step that first issued it
    # set by load_timeline and save_timeline
    _stored: Optional[_Stored] = field(default=None, init=False, repr=False, compare=False)

    @property
    def last(self) -> TimelineStep:
        if not self.steps:
            raise InputError("timeline is empty")
        return self.steps[-1]

    def _register_labels(self, part: Partition, step_index: int) -> None:
        for lab in sorted(part.labels_set):
            self.label_origins.setdefault(lab, step_index)
        if len(part.labels):
            self.label_counter = max(self.label_counter, int(part.labels.max()) + 1)


def derive_step_seed(base_seed: int, step_index: int) -> int:
    """One reproducible sub-seed per transition of a timeline."""
    return derive_seed(base_seed, step_index)


def bootstrap(g0: Graph, cfg: LouvainConfig = LouvainConfig()) -> Timeline:
    """Start a timeline: plain detection on the first snapshot, labels 0..c-1.

    A snapshot with no nodes is refused: no later snapshot could share a node
    with it, so no step could follow it.
    """
    if g0.n == 0:
        raise InputError("the first snapshot has no nodes; a timeline cannot start from it")
    part, _report = louvain_static(g0, cfg)
    part = renumber_partition(part, start=0)
    tl = Timeline()
    tl.steps.append(TimelineStep("0", g0, part))
    tl._register_labels(part, 0)
    return tl


def step(
    tl: Timeline,
    g_next: Graph,
    p: float,
    q: float,
    seed: int,
    cfg: LouvainConfig = LouvainConfig(),
    match_cfg: MatchConfig = MatchConfig(),
) -> Timeline:
    """Detect on the next snapshot with stability (p, q) and append the result.

    The timeline is mutated only after detection and comparison both succeed,
    so a failing transition (e.g. disjoint node sets, where the comparison is
    undefined) leaves it unchanged.
    """
    if not tl.steps:
        raise InputError("cannot step an empty timeline; bootstrap first")
    prev = tl.last.partition
    ctx = DynamicContext.from_previous(
        prev, g_next, p, q, seed, fresh_label_start=tl.label_counter
    )
    part, _report = louvain_dynamic(g_next, ctx, cfg)
    report = compare(prev, part, g_next, match_cfg)

    step_index = len(tl.steps)
    matched_prev = {a for a, _ in report.matching}
    matched_next = {b for _, b in report.matching}
    prev_labels = prev.labels_set
    next_labels = part.labels_set
    events = StepEvents(
        step_index=step_index,
        births=sorted(next_labels - prev_labels - matched_next),
        deaths=sorted(prev_labels - next_labels - matched_prev),
        n_fixed=len(ctx.fixed),
        n_pref=len(ctx.pref),
        fixed_ids=tuple(map(g_next.ids.ids.__getitem__, ctx.fixed.tolist())),
    )

    tl.steps.append(TimelineStep(str(step_index), g_next, part))
    tl.history.append(report)
    tl.events.append(events)
    tl._register_labels(part, step_index)
    return tl


# --- persistence ---------------------------------------------------------------

_META = "meta.json"
_HISTORY = "history.jsonl"


def _step_paths(d: Path, k: int) -> Tuple[Path, Path]:
    return d / f"step_{k}.graph.tsv", d / f"step_{k}.partition.tsv"


def save_timeline(tl: Timeline, directory) -> None:
    """Write the timeline to ``directory`` and commit it there.

    Steps this timeline already committed in that directory (it was loaded
    from it or last saved to it) are never written again; only new steps'
    files and history rows are. Step files are written whole, and one that
    was never read is copied byte for byte; history rows are appended.
    ``meta.json`` is the commit point: it is
    replaced atomically once everything it names is on disk, so a save
    interrupted before that leaves the previous commit loadable, and the next
    save overwrites the uncommitted files. A directory that holds a timeline
    this one did not commit loses that commit just before the first step file
    whose bytes change is renamed in, so a save cut short after that leaves
    no timeline there, never a mix of two; while that commit stands, the
    history is replaced whole.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    here = d.resolve()
    stored = tl._stored if tl._stored is not None and tl._stored.directory == here else None
    start = stored.n_steps if stored else 0
    history_start = stored.history_bytes if stored else 0
    # a commit this timeline did not make names step files about to be
    # replaced: withdraw it once the first one whose bytes change is whole,
    # before it is renamed in
    foreign = d / _META if stored is None and (d / _META).exists() else None
    for k in range(start, len(tl.steps)):
        st = tl.steps[k]
        gpath, ppath = _step_paths(d, k)
        for held, path, write in ((st._graph, gpath, write_edge_tsv), (st._partition, ppath, write_partition_tsv)):
            if isinstance(held, Path):
                if held.resolve() == path.resolve():
                    continue
                write = shutil.copyfile  # never read: keep its bytes
            elif foreign is None:
                write(held, path)
                continue
            with replacing(path) as fh:
                fh.close()
                write(held, fh.name)
                if foreign is not None and not (path.exists() and filecmp.cmp(fh.name, path, shallow=False)):
                    foreign.unlink()
                    foreign = None
    rows = b"".join(r.to_json().encode("utf-8") + b"\n" for r in tl.history[max(start - 1, 0):])
    if foreign is None:
        with open(d / _HISTORY, "ab") as fh:
            fh.truncate(history_start)  # drops rows an interrupted save left behind
            fh.write(rows)
    else:  # the standing commit names the old rows: replace them whole or not at all
        with replacing(d / _HISTORY) as fh:
            fh.write(rows)
    meta = {
        "n_steps": len(tl.steps),
        "snapshot_ids": [st.snapshot_id for st in tl.steps],
        "label_counter": tl.label_counter,
        "label_origins": {str(lab): origin for lab, origin in tl.label_origins.items()},
        "events": [
            {
                "step_index": ev.step_index,
                "births": ev.births,
                "deaths": ev.deaths,
                "n_fixed": ev.n_fixed,
                "n_pref": ev.n_pref,
            }
            for ev in tl.events
        ],
    }
    with replacing(d / _META, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tl._stored = _Stored(here, len(tl.steps), history_start + len(rows))


def _read_meta(d: Path) -> Tuple[Timeline, list]:
    """The timeline ``meta.json`` commits, without steps or history, and its
    snapshot ids."""
    meta_path = d / _META
    if not meta_path.exists():
        raise InputError(f"no timeline found in {d} (missing meta.json)")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        n_steps = int(meta["n_steps"])
        snapshot_ids = list(meta["snapshot_ids"])
        tl = Timeline(label_counter=int(meta["label_counter"]))
        for rec in meta["events"]:
            tl.events.append(
                StepEvents(
                    step_index=int(rec["step_index"]),
                    births=[int(x) for x in rec["births"]],
                    deaths=[int(x) for x in rec["deaths"]],
                    n_fixed=int(rec["n_fixed"]),
                    n_pref=int(rec["n_pref"]),
                )
            )
        for lab_s, origin in meta["label_origins"].items():
            tl.label_origins[int(lab_s)] = int(origin)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"timeline in {d} has an unreadable meta.json: {exc!r}") from exc
    if len(snapshot_ids) != n_steps or len(tl.events) != max(0, n_steps - 1):
        raise InputError(
            f"timeline in {d} is inconsistent: meta.json names {n_steps} steps, "
            f"{len(snapshot_ids)} snapshot ids and {len(tl.events)} events"
        )
    return tl, snapshot_ids


def load_timeline(directory) -> Timeline:
    """Load what ``meta.json`` in ``directory`` commits.

    History rows and step files past the committed step count are left out.
    The last step's partition is read here; every other stored file is read
    on first use (see :class:`TimelineStep`).
    """
    d = Path(directory)
    tl, snapshot_ids = _read_meta(d)
    for k, snapshot_id in enumerate(snapshot_ids):
        gpath, ppath = _step_paths(d, k)
        if not gpath.exists() or not ppath.exists():
            raise InputError(f"timeline in {d} is missing files for step {k}")
        tl.steps.append(TimelineStep(snapshot_id, gpath, ppath))
    if tl.steps:
        tl.last.partition  # an append starts from it
    n_rows = max(0, len(tl.steps) - 1)
    history_bytes = 0
    history_path = d / _HISTORY
    if history_path.exists():
        with open(history_path, "rb") as fh:
            while len(tl.history) < n_rows:
                line = fh.readline()
                if not line:
                    break
                if line.strip():
                    try:
                        tl.history.append(ComparisonReport.from_json(line))
                    except (ValueError, KeyError, TypeError) as exc:
                        raise InputError(f"{history_path}: unreadable history row: {exc!r}") from exc
            history_bytes = fh.tell()
    if len(tl.history) != n_rows:
        raise InputError(
            f"timeline in {d} is inconsistent: {len(tl.steps)} steps but "
            f"{len(tl.history)} history rows"
        )
    tl._stored = _Stored(d.resolve(), len(tl.steps), history_bytes)
    return tl
