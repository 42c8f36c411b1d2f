"""Communication-record ingestion: CSV records to a monthly social graph.

Pipeline: parse CSV records, keep those inside a sliding window of calendar
months, count directed traffic per ordered pair, keep an undirected edge only
where traffic flowed in both directions, then drop nodes whose connection
count exceeds a cap (call centers, spam farms) in one pass.

:func:`ingest_pipeline` runs this columnar: ids are interned to dense ints as
lines stream by, in-window (origin, target) pairs are folded chunk by chunk
into sorted distinct int64 keys with counts, and mutual pairs are found by
sorting unordered pair keys once. Memory is bounded by the distinct directed
pairs, not by the line count. The record-level :func:`iter_parse_cdr` shares
its line validator, and :func:`symmetrize` its mutual-pair graph
construction.

Record format (header optional, on any line, UTF-8):
    origin,target,timestamp,kind,duration_s
with ISO-8601 timestamps, kind one of call|sms, integer seconds (0 for sms).
Kind and duration are validated but not kept: an edge's weight is 1 or its
record count.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timezone, tzinfo
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .errors import InputError
from .graph import Graph, IdMap, graph_from_distinct_edges

__all__ = [
    "WindowSpec",
    "RejectionReport",
    "FilterReport",
    "IngestReport",
    "iter_parse_cdr",
    "aggregate_window",
    "symmetrize",
    "filter_high_degree",
    "ingest_pipeline",
]


@dataclass
class RejectionReport:
    """Per-reason counts of dropped input lines, plus the first offending
    line number for each reason (1-based, for error messages)."""

    n_lines: int = 0
    n_valid: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first_line: Dict[str, int] = field(default_factory=dict)

    @property
    def n_rejected(self) -> int:
        return sum(self.reasons.values())

    def rejected_fraction(self) -> float:
        return self.n_rejected / self.n_lines if self.n_lines else 0.0

    def note(self, reason: str, lineno: int) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.first_line.setdefault(reason, lineno)


@lru_cache(maxsize=1 << 16)
def _parse_timestamp(text: str) -> Optional[datetime]:
    """ISO-8601 parse; the cache pays off because CDR batches reuse many
    identical timestamps. 'Z' suffixes are accepted."""
    if text.endswith("Z") or text.endswith("z"):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


_HEADER_FIELDS = ("origin", "target")


def _valid_records(
    lines: Iterable[str],
    report: RejectionReport,
    stamp: Callable[[str], object],
) -> Iterator[Tuple[str, str, object]]:
    """The line validator behind :func:`iter_parse_cdr` and
    :func:`ingest_pipeline`: yields ``(origin, target, stamp(timestamp))``
    per valid line and counts every other non-blank line in ``report`` under
    its reason. ``stamp`` returns None for a timestamp it rejects. Kind and
    duration are checked, then dropped: no graph reads them.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = list(map(str.strip, line.split(",")))
        if fields[0].lower() == _HEADER_FIELDS[0] and len(fields) > 1 and fields[1].lower() == _HEADER_FIELDS[1]:
            continue
        report.n_lines += 1
        if len(fields) != 5:
            report.note("field_count", lineno)
            continue
        origin, target, ts_text, kind_text, dur_text = fields
        if not origin or not target:
            report.note("empty_id", lineno)
            continue
        if origin == target:
            report.note("self_record", lineno)
            continue
        ts = stamp(ts_text)
        if ts is None:
            report.note("bad_timestamp", lineno)
            continue
        kind = kind_text.lower()
        if kind not in ("call", "sms"):
            report.note("bad_kind", lineno)
            continue
        try:
            duration = int(dur_text)
        except ValueError:
            report.note("bad_duration", lineno)
            continue
        if duration < 0:
            report.note("bad_duration", lineno)
            continue
        if kind == "sms" and duration != 0:
            report.note("sms_nonzero_duration", lineno)
            continue
        report.n_valid += 1
        yield origin, target, ts


def iter_parse_cdr(
    lines: Iterable[str],
    report: RejectionReport,
) -> Iterator[Tuple[str, str, datetime]]:
    """Validate lines one at a time, updating ``report`` in place, and yield
    ``(origin, target, timestamp)`` per valid record.

    A header line (first field "origin", second "target", any case) is
    skipped wherever it appears, so concatenated files may each start with
    one; blank lines are ignored. Neither counts as a line.
    """
    return _valid_records(lines, report, _parse_timestamp)


# --- window aggregation -------------------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """A sliding window of whole calendar months ending at the anchor month.

    Spans ``span_months`` months: {anchor, anchor-1, ..., anchor-span+1}.
    Naive timestamps are taken to already be in ``tz``; aware ones are
    converted.
    """

    year: int
    month: int
    span_months: int = 3
    tz: tzinfo = timezone.utc

    def __post_init__(self):
        if not 1 <= self.year <= 9999:
            raise InputError(f"year must be 1..9999, got {self.year}")
        if not 1 <= self.month <= 12:
            raise InputError(f"month must be 1..12, got {self.month}")
        if self.span_months < 1:
            raise InputError(f"span_months must be >= 1, got {self.span_months}")

    @classmethod
    def from_label(cls, label: str, span_months: int = 3, tz: tzinfo = timezone.utc) -> "WindowSpec":
        """Build from a "YYYY-MM" anchor label."""
        parts = label.split("-")
        if len(parts) != 2:
            raise InputError(f"month label must look like YYYY-MM, got {label!r}")
        try:
            year, month = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"month label must look like YYYY-MM, got {label!r}") from None
        return cls(year=year, month=month, span_months=span_months, tz=tz)

    @property
    def _anchor_index(self) -> int:
        return self.year * 12 + (self.month - 1)

    def contains(self, ts: datetime) -> bool:
        if ts.tzinfo is not None:
            try:
                ts = ts.astimezone(self.tz)
            except OverflowError:  # lands before year 1 or after 9999, outside any window
                return False
        idx = ts.year * 12 + (ts.month - 1)
        return self._anchor_index - self.span_months < idx <= self._anchor_index


# YYYY-MM-DDTHH:MM:SS with ASCII digits: a form every supported Python's
# fromisoformat reads as a naive time, so its month is its YYYY-MM prefix
_CANONICAL_TS = re.compile(r"\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d", re.ASCII)


@lru_cache(maxsize=1 << 12)
def _day_month_index(day: str) -> Optional[int]:
    """``year * 12 + month - 1`` of a YYYY-MM-DD text, None if no such date."""
    try:
        d = date(int(day[:4]), int(day[5:7]), int(day[8:10]))
    except ValueError:
        return None
    return d.year * 12 + d.month - 1


def _window_test(window: WindowSpec) -> Callable[[str], Optional[bool]]:
    """Timestamp text -> whether it lies inside ``window``, None if it is not
    a timestamp. Same answers as ``_parse_timestamp`` + ``window.contains``;
    canonical naive timestamps skip the datetime."""
    lo = window._anchor_index - window.span_months
    hi = window._anchor_index
    canonical = _CANONICAL_TS.fullmatch

    def test(text: str) -> Optional[bool]:
        if canonical(text):
            idx = _day_month_index(text[:10])
            return None if idx is None else lo < idx <= hi
        ts = _parse_timestamp(text)
        return None if ts is None else window.contains(ts)

    return test


def aggregate_window(records: Iterable[Tuple[str, str, datetime]], window: WindowSpec) -> Counter:
    """Record count per directed (origin, target) pair over exactly the
    records inside the window."""
    return Counter((origin, target) for origin, target, ts in records if window.contains(ts))


# --- graph construction -------------------------------------------------------


def _check_weight_mode(weight_mode: str) -> None:
    if weight_mode not in ("unit", "comm_count"):
        raise InputError(f"unknown weight_mode {weight_mode!r}")


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise InputError(f"cap must be a positive integer, got {cap}")


def _mutual_graph(
    ids: List[str], origin: np.ndarray, target: np.ndarray, comms: np.ndarray, weight_mode: str
) -> Graph:
    """Graph of the mutual pairs among distinct directed pairs
    ``(ids[origin[i]], ids[target[i]])`` with ``comms[i]`` records each.

    Edges are ordered by their endpoints' ids as strings, smaller id first,
    and nodes take indices in first-seen order over those edges, the order
    ``build_graph`` gives a sorted edge list.
    """
    n = len(ids)
    lo = np.minimum(origin, target)
    hi = np.maximum(origin, target)
    order = np.argsort(lo * n + hi)
    lo, hi, comms = lo[order], hi[order], comms[order]
    # the pairs are distinct, so an unordered pair seen twice is the two
    # directions of one mutual pair, side by side once sorted
    twin = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
    a, b = lo[twin], hi[twin]
    named = np.unique(np.concatenate([a, b]))
    rank = np.zeros(n, dtype=np.int64)
    rank[sorted(named.tolist(), key=ids.__getitem__)] = np.arange(len(named))
    swap = rank[a] > rank[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    if weight_mode == "unit":
        w = np.ones(len(a), dtype=np.float64)
    else:
        w = (comms[twin] + comms[twin + 1]).astype(np.float64)
    by_text = np.argsort(rank[a] * len(named) + rank[b])
    a, b, w = a[by_text], b[by_text], w[by_text]
    seen, first_at = np.unique(np.column_stack((a, b)).ravel(), return_index=True)
    nodes = seen[np.argsort(first_at)]
    new_index = np.zeros(n, dtype=np.int64)
    new_index[nodes] = np.arange(len(nodes))
    return graph_from_distinct_edges(
        IdMap([ids[i] for i in nodes.tolist()]),
        new_index[a],
        new_index[b],
        w,
        np.zeros(len(nodes), dtype=np.float64),
    )


def symmetrize(counts: Mapping[Tuple[str, str], int], weight_mode: str = "unit") -> Graph:
    """Undirected graph with an edge (A,B) iff traffic flowed A→B and B→A,
    from a record count per directed pair.

    Weight is 1.0 in "unit" mode or the total communication count in both
    directions in "comm_count" mode. The node set is the endpoints of the
    retained edges (one-way-only contacts are not social ties and vanish
    here); edges are emitted in sorted order so the result is independent of
    record order.
    """
    _check_weight_mode(weight_mode)
    index: Dict[str, int] = {}
    intern = index.setdefault
    ends = np.fromiter((intern(x, len(index)) for pair in counts for x in pair), np.int64, 2 * len(counts))
    comms = np.fromiter(counts.values(), np.int64, len(counts))
    return _mutual_graph(list(index), ends[0::2], ends[1::2], comms, weight_mode)


@dataclass
class FilterReport:
    cap: int
    removed: List[str] = field(default_factory=list)
    n_nodes_before: int = 0
    n_nodes_after: int = 0
    n_edges_before: int = 0
    n_edges_after: int = 0

    @property
    def n_removed(self) -> int:
        return len(self.removed)


def filter_high_degree(g: Graph, cap: int = 200) -> Tuple[Graph, FilterReport]:
    """Drop every node with more than ``cap`` neighbors, in a single pass.

    Connection counts are measured on the input graph only, so the removal of
    a hub never cascades; nodes it leaves isolated stay in the node set.
    Self-loops do not count toward the cap and survive with their node.
    """
    _check_cap(cap)
    keep = g.neighbor_counts() <= cap
    out = g.subgraph(keep)
    ids = g.ids.ids
    return out, FilterReport(
        cap=cap,
        removed=[ids[i] for i in np.flatnonzero(~keep).tolist()],
        n_nodes_before=g.n,
        n_nodes_after=out.n,
        n_edges_before=g.n_edges,
        n_edges_after=out.n_edges,
    )


# --- end-to-end pipeline --------------------------------------------------------


@dataclass
class IngestReport:
    rejections: RejectionReport
    n_in_window: int
    n_out_of_window: int
    n_directed_pairs: int
    filter: FilterReport
    # wall seconds per stage: "parse" (validate, window, intern), "aggregate"
    # (fold pair chunks), "symmetrize", "filter"
    seconds: Dict[str, float] = field(default_factory=dict)


_CHUNK = 1 << 16  # in-window pairs buffered before they are folded into the totals
_KEY_BASE = 1 << 32  # pair key = origin index * _KEY_BASE + target index


def _fold_pairs(keys: np.ndarray, counts: np.ndarray, chunk: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Add a chunk of pair keys to the sorted distinct ``keys`` and their ``counts``."""
    new_keys, new_counts = np.unique(np.array(chunk, dtype=np.int64), return_counts=True)
    pos = np.searchsorted(keys, new_keys)
    known = np.zeros(len(new_keys), dtype=bool)
    inside = pos < len(keys)
    known[inside] = keys[pos[inside]] == new_keys[inside]
    counts[pos[known]] += new_counts[known]
    fresh = ~known
    return np.insert(keys, pos[fresh], new_keys[fresh]), np.insert(counts, pos[fresh], new_counts[fresh])


def ingest_pipeline(
    lines: Iterable[str],
    window: WindowSpec,
    cap: int = 200,
    weight_mode: str = "unit",
    max_rejected_fraction: float = 1.0,
) -> Tuple[Graph, IngestReport]:
    """Streamed parse → window filter → aggregate → symmetrize → degree cap.

    One pass over the input. Held memory is the distinct in-window directed
    pairs as int64 keys and counts, plus one chunk of pairs not folded yet.
    Arguments are checked before the first line is read.
    """
    if not 0.0 <= max_rejected_fraction <= 1.0:
        raise InputError("max_rejected_fraction must lie in [0, 1]")
    _check_weight_mode(weight_mode)
    _check_cap(cap)
    rejections = RejectionReport()
    index: Dict[str, int] = {}
    intern = index.setdefault
    keys = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    chunk: List[int] = []
    n_in = 0
    n_out = 0
    fold_s = 0.0
    t0 = time.perf_counter()
    for origin, target, inside in _valid_records(lines, rejections, _window_test(window)):
        if not inside:
            n_out += 1
            continue
        n_in += 1
        chunk.append(intern(origin, len(index)) * _KEY_BASE + intern(target, len(index)))
        if len(chunk) == _CHUNK:
            t = time.perf_counter()
            keys, counts = _fold_pairs(keys, counts, chunk)
            chunk = []
            fold_s += time.perf_counter() - t
    t1 = time.perf_counter()
    keys, counts = _fold_pairs(keys, counts, chunk)
    del chunk
    if rejections.rejected_fraction() > max_rejected_fraction:
        raise InputError(
            f"rejected {rejections.n_rejected} of {rejections.n_lines} lines "
            f"({rejections.rejected_fraction():.1%}), above the allowed "
            f"{max_rejected_fraction:.1%}; reasons: {rejections.reasons}"
        )
    t2 = time.perf_counter()
    g = _mutual_graph(list(index), keys // _KEY_BASE, keys % _KEY_BASE, counts, weight_mode)
    n_pairs = len(keys)
    del keys, counts, index
    t3 = time.perf_counter()
    g, filter_report = filter_high_degree(g, cap)
    t4 = time.perf_counter()
    return g, IngestReport(
        rejections=rejections,
        n_in_window=n_in,
        n_out_of_window=n_out,
        n_directed_pairs=n_pairs,
        filter=filter_report,
        seconds={
            "parse": t1 - t0 - fold_s,
            "aggregate": fold_s + t2 - t1,
            "symmetrize": t3 - t2,
            "filter": t4 - t3,
        },
    )
