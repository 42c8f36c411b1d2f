"""Communication-record ingestion: CSV records to a monthly social graph.

Pipeline: parse CSV records, keep those inside a sliding window of calendar
months, count directed traffic per ordered pair, keep an undirected edge only
where traffic flowed in both directions, then drop nodes whose connection
count exceeds a cap (call centers, spam farms) in one pass.

:func:`ingest_pipeline` runs this columnar: lines are judged a block at a
time by a tokenizer body that gives each line a status and interns the ids
of in-window records, block ids are mapped to dense global ints, in-window
(origin, target) pairs are folded block by block into sorted distinct int64
keys with counts, and mutual pairs are found by sorting unordered pair keys
once. Memory is bounded by the distinct directed pairs and one block, not by
the line count. The tokenizer body is C (:func:`_cdr_tokens_c`), which
decides plain ASCII lines with a canonical timestamp and hands every other
line to the line validator, or Python (:func:`_cdr_tokens_py`), the
validator on every line, parsing each timestamp in full; both give the same
statuses and the same in-window pairs. The record-level
:func:`iter_parse_cdr` shares the validator, and :func:`symmetrize` the
mutual-pair graph construction.

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
from functools import lru_cache
from itertools import count, islice
from typing import Dict, Iterable, Iterator, List, Mapping, MutableSequence, Optional, Tuple

import numpy as np

from . import _native
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

# The status of a line: a record in or out of the window, one of the two
# kinds of line that are not counted, one of the seven rejection reasons, or
# "defer", which only the compiled tokenizer gives, to a line it leaves to
# the validator. A status code is its index here.
_STATUSES = (
    "in_window", "out_of_window", "blank", "header",
    "field_count", "empty_id", "self_record", "bad_timestamp", "bad_kind", "bad_duration",
    "sms_nonzero_duration", "defer",
)
(_IN, _OUT, _BLANK, _HEADER, _FIELD_COUNT, _EMPTY_ID, _SELF_RECORD, _BAD_TIMESTAMP, _BAD_KIND,
 _BAD_DURATION, _SMS_NONZERO_DURATION, _DEFER) = range(len(_STATUSES))


def _judge_line(raw: str) -> Tuple[int, Optional[Tuple[str, str, datetime]]]:
    """The line validator: the status code of one line and, for a record,
    ``(origin, target, timestamp)``, its status then ``_IN``.

    Kind and duration are checked, then dropped: no graph reads them.
    """
    line = raw.strip()
    if not line:
        return _BLANK, None
    fields = list(map(str.strip, line.split(",")))
    if fields[0].lower() == _HEADER_FIELDS[0] and len(fields) > 1 and fields[1].lower() == _HEADER_FIELDS[1]:
        return _HEADER, None
    if len(fields) != 5:
        return _FIELD_COUNT, None
    origin, target, ts_text, kind_text, dur_text = fields
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
        idx = ts.year * 12 + (ts.month - 1)
        return self._anchor_index - self.span_months < idx <= self._anchor_index


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
    key = np.minimum(origin, target)  # unordered pair key: smaller index * n + larger
    key *= n
    key += np.maximum(origin, target)
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
    del order, twin
    named = np.unique(np.concatenate([a, b]))
    rank = np.zeros(n, dtype=np.int64)
    rank[sorted(named.tolist(), key=ids.__getitem__)] = np.arange(len(named))
    swap = rank[a] > rank[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
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


_CHUNK = 1 << 16  # lines judged, and their in-window pairs folded, per block
_KEY_BASE = 1 << 32  # pair key = origin index * _KEY_BASE + target index

# per block: one status code per line; the origin and target numbers of each
# in-window line; the block's distinct ids of in-window lines. Which number
# an id gets, and the order of the pairs, are the body's own: the graph
# depends on neither.
CdrTokens = Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]


def _judge_lines(
    lines: List[str], positions: Iterable[int], window: WindowSpec, status: MutableSequence[int], ids: List[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Judge ``lines[i]`` for each ``i`` of ``positions`` in turn with the
    line validator and store its status in ``status[i]``. The origin and
    target of each in-window line are interned in ``ids``, which may already
    hold ids and grows by the new ones. Returns the in-window lines' origin
    and target numbers, in line order."""
    index = {x: k for k, x in enumerate(ids)}
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
    ids.extend(islice(index, len(ids), None))
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _cdr_tokens_py(lines: List[str], window: WindowSpec) -> CdrTokens:
    """Judge a block of CDR lines, each element one line, with the line
    validator, and intern the ids of its in-window records.

    Returns one ``_STATUSES`` code per line (never ``_DEFER``), the origin
    and target numbers of each in-window line in line order, and the
    distinct ids of those lines numbered in first-seen order, origin before
    target. This body is the definition: :func:`_cdr_tokens_c` gives the
    same statuses and the same in-window ``(ids[u], ids[v])`` pairs.
    """
    status = bytearray(len(lines))
    ids: List[str] = []
    u, v = _judge_lines(lines, range(len(lines)), window, status, ids)
    return np.frombuffer(status, dtype=np.uint8), u, v, ids


def _cdr_tokens_c(lines: List[str], window: WindowSpec) -> CdrTokens:
    """:func:`_cdr_tokens_py` compiled from ``_native.c`` for the lines it
    can decide exactly: those of printable ASCII with a canonical timestamp
    (see ``commtrack_cdr_tokens``). The line validator judges every line it
    defers; their pairs follow the compiled ones, and their new ids follow
    the compiled ones' ids."""
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
    slots = np.zeros(1 << (4 * n - 1).bit_length(), dtype=np.uint32)
    off = np.empty(2 * n + 1, dtype=np.int64)
    id_text = np.empty(len(data) + 1, dtype=np.uint8)
    status = np.empty(n, dtype=np.uint8)
    u, v = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    text_len = np.zeros(1, dtype=np.int64)
    m = _native.LIB.commtrack_cdr_tokens(
        data, n, bounds.ctypes.data, window._anchor_index - window.span_months, window._anchor_index,
        slots.ctypes.data, len(slots) - 1, off.ctypes.data, id_text.ctypes.data,
        status.ctypes.data, u.ctypes.data, v.ctypes.data, text_len.ctypes.data,
    )
    ids = id_text[: text_len[0]].tobytes().decode("ascii").split("\t")[:-1]
    u, v = u[:m], v[:m]
    deferred = np.flatnonzero(status == _DEFER)
    if len(deferred):
        du, dv = _judge_lines(lines, deferred.tolist(), window, status, ids)
        u, v = np.concatenate((u, du)), np.concatenate((v, dv))
    return status, u, v, ids


_cdr_tokens = _cdr_tokens_py if _native.LIB is None else _cdr_tokens_c


def _fold_pairs(keys: np.ndarray, counts: np.ndarray, chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Add a chunk of pair keys to the sorted distinct ``keys`` and their ``counts``."""
    new_keys, new_counts = np.unique(chunk, return_counts=True)
    pos = np.searchsorted(keys, new_keys)
    known = np.zeros(len(new_keys), dtype=bool)
    inside = pos < len(keys)
    known[inside] = keys[pos[inside]] == new_keys[inside]
    counts[pos[known]] += new_counts[known]
    fresh = ~known
    return np.insert(keys, pos[fresh], new_keys[fresh]), np.insert(counts, pos[fresh], new_counts[fresh])


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

    One pass over the input, each element of ``lines`` one line. Held memory
    is the distinct in-window directed pairs as int64 keys and counts, plus
    one block of ``_CHUNK`` lines. Arguments are checked before the first
    line is read.
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
    n_in = 0
    fold_s = 0.0
    source = iter(lines)
    t0 = time.perf_counter()
    for start in count(0, _CHUNK):
        block = list(islice(source, _CHUNK))
        if not block:
            break
        status, u, v, ids = _cdr_tokens(block, window)
        del block
        _note_block(rejections, status, start)
        n_in += len(u)
        if len(u):
            number = np.array([intern(x, len(index)) for x in ids], dtype=np.int64)
            t = time.perf_counter()
            keys, counts = _fold_pairs(keys, counts, number[u] * _KEY_BASE + number[v])
            fold_s += time.perf_counter() - t
    t1 = time.perf_counter()
    if rejections.rejected_fraction() > max_rejected_fraction:
        raise InputError(
            f"rejected {rejections.n_rejected} of {rejections.n_lines} lines "
            f"({rejections.rejected_fraction():.1%}), above the allowed "
            f"{max_rejected_fraction:.1%}; reasons: {rejections.reasons}"
        )
    t2 = time.perf_counter()
    n_pairs = len(keys)
    origin, target = np.divmod(keys, _KEY_BASE)
    del keys
    g = _mutual_graph(list(index), origin, target, counts, weight_mode)
    del origin, target, counts, index
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
