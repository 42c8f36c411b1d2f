"""Communication-record ingestion: CSV records to a monthly social graph.

Pipeline: parse CSV records, keep those inside a sliding window of calendar
months, count directed traffic per ordered pair, keep an undirected edge only
where traffic flowed in both directions, then drop nodes whose connection
count exceeds a cap (call centers, spam farms) in one pass.

:func:`ingest_pipeline` runs this columnar: lines are judged a block at a
time by a tokenizer body that gives each line a status and numbers the ids
of in-window records in the run's one id table, decoded once at the end;
in-window (origin, target) pairs are folded into a stack of sorted distinct
int64 key runs with counts, merged geometrically; and mutual pairs are found
by sorting unordered pair keys, built on the ids' text ranks, once. Memory is
bounded by twice the distinct directed pairs and one block, not by the line
count. The tokenizer body is C (:class:`_CdrTokensC`), which decides only
well-formed records (plain ASCII, five fields, a canonical timestamp) and
hands every other line to the line validator, the one place that knows the
header, blank lines and the rejection reasons; its id table is numpy arrays
that it grows and the compiled code interns into. Or it is Python
(:class:`_CdrTokensPy`), the validator on every line, parsing each timestamp
in full, with a dict for its table. Both give the same statuses and the same
in-window pairs. The record-level :func:`iter_parse_cdr` shares the
validator, and :func:`symmetrize` the mutual-pair graph construction.

Record format (header optional, on any line, UTF-8):
    origin,target,timestamp,kind,duration_s
with ISO-8601 timestamps, kind one of call|sms, integer seconds (0 for sms).
Kind and duration are validated but not kept: an edge's weight is 1 or its
record count.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone, tzinfo
from itertools import count, islice
from typing import Dict, Iterable, Iterator, List, Mapping, MutableSequence, Optional, Tuple

import numpy as np

from . import _native
from .errors import InputError
from .graph import Graph, IdMap, graph_from_edges

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
    line number for each reason (1-based), so a caller can find an example
    of each rejection in its input; no message of the package prints it."""

    n_lines: int = 0
    n_valid: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first_line: Dict[str, int] = field(default_factory=dict)

    @property
    def n_rejected(self) -> int:
        return sum(self.reasons.values())

    def rejected_fraction(self) -> float:
        return self.n_rejected / self.n_lines if self.n_lines else 0.0

    def note(self, reason: str, lineno: int, n: int = 1) -> None:
        """Count ``n`` lines under ``reason``, the first of them at ``lineno``."""
        self.reasons[reason] = self.reasons.get(reason, 0) + n
        self.first_line.setdefault(reason, lineno)


def _parse_timestamp(text: str) -> Optional[datetime]:
    """ISO-8601 parse; 'Z' suffixes are accepted."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


_HEADER_FIELDS = ("origin", "target")

# The status of a line: a record in or out of the window; "defer", which
# only the compiled tokenizer gives, to every line but a well-formed record,
# leaving it to the validator; one of the two kinds of line that are not
# counted; or one of the seven rejection reasons, the contiguous tail that
# _note_block counts. A status code is its index here.
_STATUSES = (
    "in_window", "out_of_window", "defer", "blank", "header",
    "field_count", "empty_id", "self_record", "bad_timestamp", "bad_kind", "bad_duration",
    "sms_nonzero_duration",
)
(_IN, _OUT, _DEFER, _BLANK, _HEADER, _FIELD_COUNT, _EMPTY_ID, _SELF_RECORD, _BAD_TIMESTAMP, _BAD_KIND,
 _BAD_DURATION, _SMS_NONZERO_DURATION) = range(len(_STATUSES))


def _judge_line(raw: str) -> Tuple[int, Optional[Tuple[str, str, datetime]]]:
    """The line validator: the status code of one line and, for a record,
    ``(origin, target, timestamp)``, its status then ``_IN``. The timestamp
    is read by :func:`_parse_timestamp`, in full on every record.

    Kind and duration are checked, then dropped: no graph reads them.
    """
    line = raw.strip()
    if not line:
        return _BLANK, None
    fields = line.split(",")
    head = fields[0].strip().lower()
    if head == _HEADER_FIELDS[0] and len(fields) > 1 and fields[1].strip().lower() == _HEADER_FIELDS[1]:
        return _HEADER, None
    if len(fields) != 5:
        return _FIELD_COUNT, None
    origin, target, ts_text, kind_text, dur_text = map(str.strip, fields)
    if not origin or not target:
        return _EMPTY_ID, None
    if origin == target:
        return _SELF_RECORD, None
    ts = _parse_timestamp(ts_text)
    if ts is None:
        return _BAD_TIMESTAMP, None
    kind = kind_text.lower()
    if kind not in ("call", "sms"):
        return _BAD_KIND, None
    try:
        duration = int(dur_text)
    except ValueError:
        return _BAD_DURATION, None
    if duration < 0:
        return _BAD_DURATION, None
    if kind == "sms" and duration != 0:
        return _SMS_NONZERO_DURATION, None
    return _IN, (origin, target, ts)


def iter_parse_cdr(
    lines: Iterable[str],
    report: RejectionReport,
) -> Iterator[Tuple[str, str, datetime]]:
    """Validate lines one at a time, updating ``report`` in place, and yield
    ``(origin, target, timestamp)`` per valid record.

    A header line (first field "origin", second "target", any case) is
    skipped wherever it appears, so concatenated files may each start with
    one; blank lines are ignored. Neither counts as a line. Every other line
    that is not a record is counted under its reason.
    """
    for lineno, raw in enumerate(lines, start=1):
        code, record = _judge_line(raw)
        if code == _BLANK or code == _HEADER:
            continue
        report.n_lines += 1
        if record is None:
            report.note(_STATUSES[code], lineno)
            continue
        report.n_valid += 1
        yield record


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
        anchor = self._anchor_index
        return anchor - self.span_months < ts.year * 12 + (ts.month - 1) <= anchor


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


def _first_seen(flat: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of ``flat``, each in ``0 .. n - 1``, in the order
    they first occur: each value's first position, by one ``minimum.at``
    pass, then an argsort of those positions, which are distinct."""
    first = np.full(n, len(flat), dtype=np.int64)
    np.minimum.at(first, flat, np.arange(len(flat), dtype=np.int64))
    seen = np.flatnonzero(first < len(flat))
    return seen[np.argsort(first[seen])]


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
    by_text = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[by_text] = np.arange(n)
    # unordered pair key on the text ranks: smaller rank * n + larger, so
    # sorted keys are pairs ordered by (smaller text, larger text)
    lo, hi = rank[origin], rank[target]
    key = np.minimum(lo, hi)
    key *= n
    key += np.maximum(lo, hi, out=hi)
    del lo, hi, rank
    if weight_mode == "unit":  # no count is read, so the keys alone are sorted
        key.sort()
    else:
        order = np.argsort(key)
        key = key[order]
    # the pairs are distinct, so an unordered pair seen twice is the two
    # directions of one mutual pair, side by side once sorted
    twin = np.flatnonzero(key[1:] == key[:-1])
    a, b = np.divmod(key[twin], n)
    del key
    if weight_mode == "unit":
        w = np.ones(len(a), dtype=np.float64)
    else:
        w = comms[order[twin]]
        w += comms[order[twin + 1]]
        w = w.astype(np.float64)
        del order
    del twin
    nodes = _first_seen(np.column_stack((a, b)).ravel(), n)
    new_index = np.zeros(n, dtype=np.int64)
    new_index[nodes] = np.arange(len(nodes))
    return graph_from_edges(
        IdMap([ids[i] for i in by_text[nodes].tolist()]),
        new_index[a],
        new_index[b],
        w,
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


_CHUNK = 1 << 16  # lines judged, and their in-window pairs folded, per block
_KEY_BASE = 1 << 32  # pair key = origin index * _KEY_BASE + target index
# the run's ids are numbered below this: a pair key must stay below 2**63,
# and the compiled table's uint32 slots hold a number + 1 even after a
# block adds its 2 * _CHUNK ids at most
_TABLE_MAX_IDS = 2**31

# per block: one status code per line, and the origin and target numbers of
# each in-window line in the run's id table. Which number a new id gets, and
# the order of the pairs, are the body's own: the graph depends on neither.
CdrTokens = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _judge_lines(
    lines: List[str], positions: Iterable[int], window: WindowSpec, status: MutableSequence[int],
    index: Dict[str, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Judge ``lines[i]`` for each ``i`` of ``positions`` in turn with the
    line validator and store its status in ``status[i]``. The origin and
    target of each in-window line are interned in ``index``, which numbers
    new ids ``len(index)`` on. Returns the in-window lines' origin and
    target numbers, in line order."""
    intern = index.setdefault
    u: List[int] = []
    v: List[int] = []
    for i in positions:
        code, record = _judge_line(lines[i])
        if record is not None:
            origin, target, ts = record
            if window.contains(ts):
                u.append(intern(origin, len(index)))
                v.append(intern(target, len(index)))
            else:
                code = _OUT
        status[i] = code
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


class _CdrTokensPy:
    """A CDR tokenizer body for one run: the line validator on every line,
    and the run's id table, a dict, that numbers the ids of the in-window
    records.

    :meth:`block` judges a block of lines, each element one line, and gives
    ids it holds their numbers and new ids the next ones, here in first-seen
    order, origin before target. It returns one ``_STATUSES`` code per line
    (never ``_DEFER``) and the origin and target numbers of each in-window
    line in line order. This body is the definition: :class:`_CdrTokensC`
    gives the same statuses and the same in-window pairs of ids.
    """

    def __init__(self):
        self.index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.index)

    def ids(self) -> List[str]:
        """The ids in number order."""
        return list(self.index)

    def block(self, lines: List[str], window: WindowSpec) -> CdrTokens:
        status = bytearray(len(lines))
        u, v = _judge_lines(lines, range(len(lines)), window, status, self.index)
        return np.frombuffer(status, dtype=np.uint8), u, v


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` in an array of at least ``size`` entries and twice its own."""
    out = np.empty(max(size, 2 * len(a)), dtype=a.dtype)
    out[: len(a)] = a
    return out


class _CdrTokensC:
    """:class:`_CdrTokensPy` compiled from ``_native.c``, with the run's id
    table in numpy arrays this object owns and grows: each id's UTF-8 bytes
    (``surrogatepass``) followed by a tab, where no id holds a comma, their
    offsets, and a hash slot table. ``commtrack_cdr_tokens`` judges the
    lines that are well-formed records not starting with ``o`` or ``O``,
    which may be a header, and numbers their ids into the table. Every other
    line is deferred: the line validator judges it, ``commtrack_intern``
    numbers its distinct in-window ids into the same table, and its pairs
    follow the compiled ones."""

    _START = 1 << 10  # ids the table first has room for

    def __init__(self):
        self.n = np.zeros(1, dtype=np.int64)  # ids held; the kernels update it
        self.off = np.zeros(self._START + 1, dtype=np.int64)
        self.text = np.empty(8 * self._START, dtype=np.uint8)
        self.slots = np.zeros(2 * self._START, dtype=np.uint32)

    def __len__(self) -> int:
        return int(self.n[0])

    def ids(self) -> List[str]:
        """The ids in number order, decoded at once."""
        n = len(self)
        text = self.text[: self.off[n]].copy()
        text[self.off[1:n + 1] - 1] = ord(",")
        return text.tobytes().decode("utf-8", "surrogatepass").split(",")[:-1]

    def _reserve(self, n_ids: int, n_bytes: int) -> None:
        """Room for ``n_ids`` more ids with ``n_bytes`` of text and tabs."""
        held = len(self)
        need = held + n_ids
        if need >= len(self.off):
            self.off = _grown(self.off, need + 1)
        if self.off[held] + n_bytes > len(self.text):
            self.text = _grown(self.text, int(self.off[held]) + n_bytes)
        if 2 * need > len(self.slots):  # at most half full: re-intern the text into twice the slots or more
            self.slots = np.zeros(1 << (2 * need - 1).bit_length(), dtype=np.uint32)
            self.n[0] = 0
            _native.call("commtrack_intern", self.text, held, self.off, self.slots, len(self.slots) - 1,
                         self.off, self.text, self.n, np.empty(held, dtype=np.int64))

    def _intern(self, names: List[str]) -> np.ndarray:
        """The numbers of ``names``, new ones numbered in order."""
        data = ",".join([*names, ""]).encode("utf-8", "surrogatepass")
        o = np.zeros(len(names) + 1, dtype=np.int64)
        o[1:] = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord(",")) + 1
        self._reserve(len(names), len(data))
        number = np.empty(len(names), dtype=np.int64)
        _native.call("commtrack_intern", data, len(names), o, self.slots, len(self.slots) - 1,
                     self.off, self.text, self.n, number)
        return number

    def block(self, lines: List[str], window: WindowSpec) -> CdrTokens:
        n = len(lines)
        text = "".join(lines)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lines), dtype=np.int64, count=n), out=bounds[1:])
        if text.isascii():
            data = text.encode("ascii")
        else:  # character to byte offsets: a character starts at each byte that is no UTF-8 continuation
            data = text.encode("utf-8", "surrogatepass")
            starts = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) & 0xC0 != 0x80)
            bounds = np.append(starts, len(data))[bounds]
        del text
        self._reserve(2 * n, len(data))
        status = np.empty(n, dtype=np.uint8)
        u, v = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        m = _native.call("commtrack_cdr_tokens", data, n, bounds, window._anchor_index - window.span_months,
                         window._anchor_index, self.slots, len(self.slots) - 1, self.off, self.text, self.n,
                         status, u, v)
        del data, bounds
        u, v = u[:m], v[:m]
        deferred = np.flatnonzero(status == _DEFER)
        if len(deferred):  # numbered first in a table of their own, then its ids in the run's
            local: Dict[str, int] = {}
            du, dv = _judge_lines(lines, deferred.tolist(), window, status, local)
            number = self._intern(list(local))
            u, v = np.concatenate((u, number[du])), np.concatenate((v, number[dv]))
        return status, u, v


_cdr_tokens = _CdrTokensPy if _native.LIB is None else _CdrTokensC


def _merge_runs(keys: np.ndarray, counts: np.ndarray, new_keys: np.ndarray, new_counts: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two runs, each sorted distinct keys with their counts, into one.

    A stable argsort (timsort, for int64) of the two runs joined finds them
    already sorted and merges them in linear time; a key of both runs then
    sits twice, side by side, and its second count is added to the first."""
    k = np.concatenate((keys, new_keys))
    order = np.argsort(k, kind="stable")
    k = k[order]
    c = np.concatenate((counts, new_counts))[order]
    del order
    twin = np.flatnonzero(k[1:] == k[:-1])
    if len(twin):
        c[twin] += c[twin + 1]
        keep = np.ones(len(k), dtype=bool)
        keep[twin + 1] = False
        k, c = k[keep], c[keep]
    return k, c


def _fold_pairs(runs: List[Tuple[np.ndarray, np.ndarray]], chunk: np.ndarray) -> None:
    """Fold a chunk of pair keys into ``runs``, a stack of sorted distinct
    keys with their counts, each run at least twice the size of the one
    above it: the top two merge while that fails. The runs therefore hold
    fewer than twice the distinct keys, and runs merge mostly with runs of
    like size, as in a binary counter, not all into one array that every
    chunk copies."""
    if not len(chunk):
        return
    runs.append(np.unique(chunk, return_counts=True))
    while len(runs) > 1 and len(runs[-2][0]) < 2 * len(runs[-1][0]):
        top = runs.pop()
        runs[-1] = _merge_runs(*runs[-1], *top)


def _folded(runs: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys of ``runs`` and their summed counts."""
    while len(runs) > 1:
        top = runs.pop()
        runs[-1] = _merge_runs(*runs[-1], *top)
    return runs.pop() if runs else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _note_block(report: RejectionReport, status: np.ndarray, start: int) -> None:
    """Count a block's lines in ``report``; its first line is line ``start + 1``.
    New reasons are added in the order of their first line."""
    tally = np.bincount(status, minlength=len(_STATUSES)).tolist()
    report.n_lines += len(status) - tally[_BLANK] - tally[_HEADER]
    report.n_valid += tally[_IN] + tally[_OUT]
    if sum(tally[_FIELD_COUNT:]):
        codes, first = np.unique(status, return_index=True)
        for at, code in sorted(zip(first.tolist(), codes.tolist())):
            if code >= _FIELD_COUNT:
                report.note(_STATUSES[code], start + at + 1, tally[code])


def ingest_pipeline(
    lines: Iterable[str],
    window: WindowSpec,
    cap: int = 200,
    weight_mode: str = "unit",
    max_rejected_fraction: float = 1.0,
) -> Tuple[Graph, IngestReport]:
    """Streamed parse → window filter → aggregate → symmetrize → degree cap.

    One pass over the input, each element of ``lines`` one line. Between
    blocks, held memory is the run's id table and fewer than twice the
    distinct in-window directed pairs as int64 keys and counts (see
    :func:`_fold_pairs`); a block adds its ``_CHUNK`` lines and their pairs,
    and a merge of two runs briefly holds them and their merge. Arguments
    are checked before the first line is read.
    """
    if not 0.0 <= max_rejected_fraction <= 1.0:
        raise InputError("max_rejected_fraction must lie in [0, 1]")
    _check_weight_mode(weight_mode)
    _check_cap(cap)
    rejections = RejectionReport()
    tokens = _cdr_tokens()
    runs: List[Tuple[np.ndarray, np.ndarray]] = []
    n_in = 0
    fold_s = 0.0
    source = iter(lines)
    t0 = time.perf_counter()
    for start in count(0, _CHUNK):
        block = list(islice(source, _CHUNK))
        if not block:
            break
        status, u, v = tokens.block(block, window)
        del block
        if len(tokens) > _TABLE_MAX_IDS:
            raise InputError(f"more than {_TABLE_MAX_IDS} distinct ids in the window")
        _note_block(rejections, status, start)
        n_in += len(u)
        t = time.perf_counter()
        _fold_pairs(runs, u * _KEY_BASE + v)
        fold_s += time.perf_counter() - t
    ids = tokens.ids()
    del tokens
    t1 = time.perf_counter()
    if rejections.rejected_fraction() > max_rejected_fraction:
        raise InputError(
            f"rejected {rejections.n_rejected} of {rejections.n_lines} lines "
            f"({rejections.rejected_fraction():.1%}), above the allowed "
            f"{max_rejected_fraction:.1%}; reasons: {rejections.reasons}"
        )
    keys, counts = _folded(runs)
    t2 = time.perf_counter()
    n_pairs = len(keys)
    origin, target = np.divmod(keys, _KEY_BASE)
    del keys
    g = _mutual_graph(ids, origin, target, counts, weight_mode)
    del origin, target, counts, ids
    t3 = time.perf_counter()
    g, filter_report = filter_high_degree(g, cap)
    t4 = time.perf_counter()
    return g, IngestReport(
        rejections=rejections,
        n_in_window=n_in,
        n_out_of_window=rejections.n_valid - n_in,
        n_directed_pairs=n_pairs,
        filter=filter_report,
        seconds={
            "parse": t1 - t0 - fold_s,
            "aggregate": fold_s + t2 - t1,
            "symmetrize": t3 - t2,
            "filter": t4 - t3,
        },
    )
