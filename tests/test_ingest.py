"""Record parsing, window arithmetic, symmetrization, degree capping."""

import dataclasses
import math
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import commtrack.ingest as ingest
from commtrack.errors import InputError
from commtrack.graph import build_graph
from commtrack.ingest import (
    RejectionReport,
    WindowSpec,
    aggregate_window,
    filter_high_degree,
    ingest_pipeline,
    iter_parse_cdr,
    symmetrize,
)

from oracles import cdr_backends, edge_list, oracle_ingest, oracle_symmetrize


def _parse(lines):
    report = RejectionReport()
    return list(iter_parse_cdr(lines, report)), report


def _pipeline_reports(lines, window):
    """``ingest_pipeline``'s ``IngestReport`` on each CDR tokenizer body."""
    reports = []
    for body in cdr_backends().values():
        with mock.patch.object(ingest, "_cdr_tokens", body):
            reports.append(ingest_pipeline(iter(lines), window)[1])
    return reports


def test_parse_single_call_record():
    records, report = _parse(["A,B,2012-03-05T10:00:00,call,62"])
    assert records == [("A", "B", datetime(2012, 3, 5, 10, 0, 0))]
    assert report.n_valid == 1 and report.n_rejected == 0


def test_parse_rejects_self_record():
    records, report = _parse(["A,A,2012-03-05T10:00:00,sms,0"])
    assert records == []
    assert report.reasons == {"self_record": 1}


def test_parse_empty_input():
    records, report = _parse([])
    assert records == [] and report.n_lines == 0 and report.n_rejected == 0


def test_parse_header_and_blank_lines_skipped():
    lines = ["origin,target,timestamp,kind,duration_s", "", "A,B,2012-01-01T00:00:00,sms,0",
             "ORIGIN,Target\n", " Origin , TARGET ,x", "\n", "\r\n", "  "]
    records, report = _parse(lines)
    assert len(records) == 1
    assert report.n_lines == 1  # header and blank not counted
    for got in _pipeline_reports(lines, WindowSpec.from_label("2012-01")):
        assert (got.rejections.n_lines, got.rejections.n_valid, got.n_in_window) == (1, 1, 1)


def test_parse_rejection_reasons():
    lines = [
        "A,B,2012-01-01T00:00:00",          # field_count
        ",B,2012-01-01T00:00:00,call,1",     # empty_id
        "A,B,yesterday,call,1",              # bad_timestamp
        "A,B,2012-01-01T00:00:00,fax,1",     # bad_kind
        "A,B,2012-01-01T00:00:00,call,soon", # bad_duration
        "A,B,2012-01-01T00:00:00,call,-5",   # bad_duration (negative)
        "A,B,2012-01-01T00:00:00,sms,12",    # sms_nonzero_duration
        "A,B,2012-01-01T00:00:00,call,0",    # valid (zero-length call)
    ]
    records, report = _parse(lines)
    assert len(records) == 1
    assert report.reasons == {
        "field_count": 1,
        "empty_id": 1,
        "bad_timestamp": 1,
        "bad_kind": 1,
        "bad_duration": 2,
        "sms_nonzero_duration": 1,
    }
    assert report.first_line["bad_timestamp"] == 3
    for got in _pipeline_reports(lines, WindowSpec.from_label("2012-01")):
        rej = got.rejections
        assert list(rej.reasons.items()) == list(report.reasons.items())
        assert list(rej.first_line.items()) == list(report.first_line.items())
        assert (rej.n_lines, rej.n_valid) == (report.n_lines, report.n_valid)


def test_parse_accepts_utc_suffix_and_offsets():
    records, _ = _parse(
        ["A,B,2012-03-05T10:00:00Z,call,5", "B,A,2012-03-05T11:00:00+02:00,call,5"]
    )
    assert records[0][2].tzinfo is not None
    assert records[1][2].utcoffset().total_seconds() == 7200


def test_parse_rejected_fraction_threshold():
    lines = ["junk"] * 3 + ["A,B,2012-01-01T00:00:00,call,1"]
    window = WindowSpec.from_label("2012-01")
    for body in cdr_backends().values():
        with mock.patch.object(ingest, "_cdr_tokens", body):
            with pytest.raises(InputError):
                ingest_pipeline(lines, window, max_rejected_fraction=0.5)
            _, report = ingest_pipeline(lines, window, max_rejected_fraction=0.75)
        assert report.rejections.n_valid == 1 and report.rejections.n_rejected == 3


# --- windows -------------------------------------------------------------------


def test_window_months_and_labels():
    w = WindowSpec.from_label("2012-03", span_months=3)
    assert [m for m in range(1, 13) if w.contains(datetime(2012, m, 15))] == [1, 2, 3]
    w2 = WindowSpec.from_label("2012-01", span_months=3)
    months = [(y, m) for y in (2011, 2012) for m in range(1, 13) if w2.contains(datetime(y, m, 15))]
    assert months == [(2011, 11), (2011, 12), (2012, 1)]
    with pytest.raises(InputError):
        WindowSpec.from_label("2012/03")
    with pytest.raises(InputError):
        WindowSpec(year=2012, month=13)
    with pytest.raises(InputError):
        WindowSpec(year=2012, month=1, span_months=0)


def test_window_boundaries():
    w = WindowSpec.from_label("2012-03", span_months=3)
    assert w.contains(datetime(2012, 3, 31, 23, 59))
    assert w.contains(datetime(2012, 1, 1, 0, 0))
    assert not w.contains(datetime(2011, 12, 31, 23, 59))  # month T-3 excluded
    assert not w.contains(datetime(2012, 4, 1, 0, 0))


def test_window_respects_timezone_of_aware_timestamps():
    w = WindowSpec.from_label("2012-03", span_months=1)
    # 2012-04-01T01:30+02:00 is 2012-03-31T23:30 UTC: inside
    records, _ = _parse(["A,B,2012-04-01T01:30:00+02:00,call,1"])
    assert w.contains(records[0][2])


def _rec(o, t, ts, kind="call", dur=10):
    records, _ = _parse([f"{o},{t},{ts},{kind},{dur if kind=='call' else 0}"])
    return records[0]


def test_aggregate_window_filters_and_sums():
    w = WindowSpec.from_label("2012-03", span_months=3)
    records = [
        _rec("A", "B", "2012-01-10T08:00:00"),
        _rec("A", "B", "2012-03-10T08:00:00"),
        _rec("A", "B", "2011-12-10T08:00:00"),  # outside
        _rec("B", "A", "2012-02-01T08:00:00", kind="sms"),
        _rec("C", "A", "2012-04-02T08:00:00"),  # outside (after anchor)
    ]
    counts = aggregate_window(records, w)
    assert set(counts) == {("A", "B"), ("B", "A")}
    assert counts[("A", "B")] == 2
    assert counts[("B", "A")] == 1


# --- symmetrization ---------------------------------------------------------------


def test_symmetrize_requires_both_directions():
    counts = {
        ("A", "B"): 3,
        ("B", "A"): 2,
        ("A", "C"): 5,  # one-way: no edge
    }
    g = symmetrize(counts)
    assert sorted(g.ids.ids) == ["A", "B"]
    assert edge_list(g) == [("A", "B", 1.0)]
    g2 = symmetrize(counts, "comm_count")
    assert edge_list(g2) == [("A", "B", 5.0)]


def test_symmetrize_empty_counts():
    g = symmetrize({})
    assert g.n == 0 and g.n_edges == 0


def test_symmetrize_rejects_unknown_mode():
    with pytest.raises(InputError):
        symmetrize({}, "quadratic")


def test_symmetrize_result_independent_of_count_order():
    c1 = {("A", "B"): 1, ("B", "A"): 1, ("B", "C"): 1, ("C", "B"): 2}
    c2 = dict(reversed(list(c1.items())))
    g1, g2 = symmetrize(c1), symmetrize(c2)
    assert g1.ids == g2.ids
    assert edge_list(g1) == edge_list(g2)


# --- degree cap -------------------------------------------------------------------


def test_filter_star_hub_removed_leaves_stay():
    edges = [("hub", f"leaf{i}") for i in range(201)]
    g = build_graph(edges)
    out, report = filter_high_degree(g, cap=200)
    assert report.removed == ["hub"]
    assert out.n == 201 and out.n_edges == 0
    assert report.n_nodes_before == 202 and report.n_nodes_after == 201


def test_filter_boundary_degree_equal_cap_survives():
    edges = [("hub", f"leaf{i}") for i in range(200)]
    g = build_graph(edges)
    out, report = filter_high_degree(g, cap=200)
    assert report.removed == []
    assert out.n == g.n and out.n_edges == g.n_edges


def test_filter_path_of_three_cap_one():
    g = build_graph([("a", "b"), ("b", "c")])
    out, report = filter_high_degree(g, cap=1)
    assert report.removed == ["b"]
    assert sorted(out.ids.ids) == ["a", "c"]
    assert out.n_edges == 0


def test_filter_single_pass_degrees_measured_on_input():
    # spoke has degree 3 only because of two hubs; after their removal it
    # keeps degree 1, and must never have been considered for removal
    edges = [("h1", f"a{i}") for i in range(4)] + [("h2", f"b{i}") for i in range(4)]
    edges += [("spoke", "h1"), ("spoke", "h2"), ("spoke", "other")]
    g = build_graph(edges)
    out, report = filter_high_degree(g, cap=3)
    assert sorted(report.removed) == ["h1", "h2"]
    assert "spoke" in out.ids
    # second application removes nothing (degrees only ever drop)
    out2, report2 = filter_high_degree(out, cap=3)
    assert report2.removed == []
    assert edge_list(out2) == edge_list(out)


def test_filter_keeps_self_loops_of_survivors():
    g = build_graph([("a", "a", 2.0), ("a", "b"), ("c", "b"), ("c", "d"), ("c", "e")])
    out, report = filter_high_degree(g, cap=2)
    assert report.removed == ["c"]
    assert ("a", "a", 2.0) in edge_list(out)


def test_filter_rejects_bad_cap():
    g = build_graph([("a", "b")])
    with pytest.raises(InputError):
        filter_high_degree(g, cap=0)


# --- pipeline ---------------------------------------------------------------------


def test_pipeline_end_to_end():
    lines = [
        "origin,target,timestamp,kind,duration_s",
        "A,B,2012-03-05T10:00:00,call,62",
        "B,A,2012-02-10T09:00:00,sms,0",
        "A,C,2012-03-01T08:00:00,call,10",
        "C,A,2011-11-05T10:00:00,call,5",    # out of window: pair stays one-way
        "B,C,2012-01-15T10:00:00Z,call,30",
        "C,B,2012-01-16T10:00:00,sms,0",
        "D,D,2012-01-16T10:00:00,call,1",    # self-record
    ]
    w = WindowSpec.from_label("2012-03", span_months=3)
    g, report = ingest_pipeline(lines, w, cap=200)
    assert sorted(g.ids.ids) == ["A", "B", "C"]
    assert sorted(e[:2] for e in edge_list(g)) == [("A", "B"), ("B", "C")]
    assert report.rejections.reasons == {"self_record": 1}
    assert report.n_out_of_window == 1
    assert report.n_in_window == 5
    assert report.filter.n_removed == 0


class _Untouchable:
    """A line source that fails the test if anything reads from it."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("input was read before the arguments were checked")


@pytest.mark.parametrize("kwargs", [
    {"cap": 0},
    {"cap": -3},
    {"weight_mode": "bogus"},
    {"max_rejected_fraction": 1.5},
    {"max_rejected_fraction": -0.1},
    {"max_rejected_fraction": math.nan},
])
def test_pipeline_checks_arguments_before_reading(kwargs):
    with pytest.raises(InputError):
        ingest_pipeline(_Untouchable(), WindowSpec.from_label("2012-03"), **kwargs)


def test_pipeline_reports_stage_seconds():
    lines = ["A,B,2012-03-05T10:00:00,call,62", "B,A,2012-02-10T09:00:00,sms,0"]
    _, report = ingest_pipeline(lines, WindowSpec.from_label("2012-03"))
    assert set(report.seconds) == {"parse", "aggregate", "symmetrize", "filter"}
    assert all(math.isfinite(v) and v >= 0.0 for v in report.seconds.values())


# --- timestamps on both tokenizer bodies ------------------------------------------
# The compiled body's fast path reads the month of a canonical timestamp
# itself; the Python body, and the compiled one on every other timestamp,
# parse it in full.

_DIGITS = "0123456789"
_FOREIGN_DIGITS = ("\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
                   "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")  # Arabic-Indic
_TZS = (timezone.utc, timezone(timedelta(hours=5)), timezone(timedelta(hours=-11, minutes=-30)))


@st.composite
def _timestamp_texts(draw):
    year = draw(st.sampled_from([1, 1999, 2011, 2012, 2013, 9999]))
    month = draw(st.integers(0, 13))
    day = draw(st.sampled_from([0, 1, 15, 28, 29, 30, 31, 32]))
    hour = draw(st.sampled_from([0, 9, 19, 20, 23, 24, 25]))
    minute = draw(st.sampled_from([0, 30, 59, 60]))
    second = draw(st.sampled_from([0, 59, 60]))
    sep = draw(st.sampled_from(["T", "T", " ", "t", "_"]))
    text = f"{year:04d}-{month:02d}-{day:02d}{sep}{hour:02d}:{minute:02d}:{second:02d}"
    if draw(st.integers(0, 5)) == 0:
        text = draw(st.sampled_from([text[:10], text[:13], text[:16], text.replace("-", "").replace(":", "")]))
    text += draw(st.sampled_from(["", "", "", "Z", "z", "+00:00", "+02:00", "-05:30", "+14:00",
                                  ".5", ".123456", ".123456+01:00", "+0200", "x"]))
    if draw(st.integers(0, 4)) == 0:
        digits = draw(st.sampled_from(_FOREIGN_DIGITS))
        positions = draw(st.sets(st.integers(0, len(text) - 1), min_size=1))
        text = "".join(
            digits[_DIGITS.index(c)] if i in positions and c in _DIGITS else c for i, c in enumerate(text)
        )
    return draw(st.sampled_from(["", "", " ", "x"])) + text + draw(st.sampled_from(["", "", " ", "x", "\n"]))


_windows = st.builds(
    WindowSpec,
    year=st.sampled_from([2011, 2012, 2013]),
    month=st.integers(1, 12),
    span_months=st.integers(1, 14),
    tz=st.sampled_from(_TZS),
)


_SHIFTED = timezone(timedelta(hours=5))


def _reference_tokens(lines, window):
    """A status code per line and the sorted in-window (origin, target)
    pairs, as :func:`iter_parse_cdr` and ``WindowSpec.contains`` give them
    one line at a time."""
    status, pairs = [], []
    for line in lines:
        report = RejectionReport()
        records = list(iter_parse_cdr([line], report))
        if records:
            ((origin, target, ts),) = records
            inside = window.contains(ts)
            status.append(ingest._IN if inside else ingest._OUT)
            if inside:
                pairs.append((origin, target))
        elif report.reasons:
            (reason,) = report.reasons
            status.append(ingest._STATUSES.index(reason))
        else:
            status.append(ingest._HEADER if line.strip() else ingest._BLANK)
    return status, sorted(pairs)


def _body_tokens(body, lines, window):
    status, u, v, ids = body(lines, window)
    return status.tolist(), sorted((ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist()))


def _check_timestamp_on_bodies(text, window):
    """The record lines ``a,b,<text>,call,1`` and ``b,a,<text>,call,1`` get
    the reference statuses and pairs from each body, in ``window``'s zone
    and in the +5 h zone. Returns the reference in ``window``'s zone."""
    lines = [f"a,b,{text},call,1", f"b,a,{text},call,1"]
    wants = []
    for w in (window, dataclasses.replace(window, tz=_SHIFTED)):
        try:
            wants.append(_reference_tokens(lines, w))
        except OverflowError:  # an offset that pushes year 1 or 9999 out of range
            for body in cdr_backends().values():
                with pytest.raises(OverflowError):
                    body(lines, w)
            wants.append(None)
            continue
        for body in cdr_backends().values():
            assert _body_tokens(body, lines, w) == wants[-1]
    return wants[0]


@settings(max_examples=600, deadline=None)
@given(st.one_of(_timestamp_texts(), st.text(max_size=24)), _windows)
def test_window_fast_path_matches_full_parser(text, window):
    _check_timestamp_on_bodies(text, window)


# only agreement with the full parser is checked: what fromisoformat makes of
# these may differ between Python versions
_ANY = object()


@pytest.mark.parametrize("text, inside", [
    ("2012-02-29T10:00:00", True),       # leap day
    ("2011-02-29T10:00:00", None),       # no such day
    ("2012-02-30T10:00:00", None),
    ("2012-13-01T10:00:00", None),
    ("2012-00-01T10:00:00", None),
    ("2012-03-01T24:00:00", _ANY),
    ("2012-03-31T23:59:59", True),
    ("2012-04-01T00:00:00", False),
    ("2011-12-31T23:59:59", False),
    ("2012-04-01T01:30:00+02:00", True),  # 2012-03-31T23:30 UTC
    ("2012-03-31T23:30:00-01:00", False),  # 2012-04-01T00:30 UTC
    ("2012-01-01T00:30:00+01:00", False),  # 2011-12-31T23:30 UTC
    ("2012-03-05T10:00:00Z", True),
    ("2012-03-05 10:00:00", True),
    ("2012-03-05T10:00:00.250", True),
    ("\uff12\uff10\uff11\uff12-03-05T10:00:00", _ANY),
    ("\u0662\u0660\u0661\u0662-03-05T10:00:00", _ANY),
    ("x2012-03-05T10:00:00", None),
    ("2012-03-05T10:00:00x", _ANY),
])
def test_window_fast_path_cases(text, inside):
    window = WindowSpec.from_label("2012-03", span_months=3)
    statuses, pairs = _check_timestamp_on_bodies(text, window)
    if inside is not _ANY:
        assert statuses == [{True: ingest._IN, False: ingest._OUT, None: ingest._BAD_TIMESTAMP}[inside]] * 2
        assert pairs == ([("a", "b"), ("b", "a")] if inside else [])


def _fromisoformat_status(text, window):
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        return ingest._BAD_TIMESTAMP
    return ingest._IN if window.contains(ts) else ingest._OUT


@pytest.mark.parametrize("text, in_c", [
    ("2012-02-29T10:00:00", True),   # leap days
    ("2000-02-29T10:00:00", True),
    ("1900-02-29T10:00:00", True),   # no leap day in a century year not divisible by 400
    ("2011-02-29T10:00:00", True),
    ("2012-02-30T10:00:00", True),
    ("2012-04-31T10:00:00", True),
    ("2012-00-01T10:00:00", True),   # months 00 and 13
    ("2012-13-01T10:00:00", True),
    ("0000-03-05T10:00:00", True),   # year 0000
    ("0001-01-01T00:00:00", True),
    ("9999-12-31T23:59:59", True),
    ("2012-03-31T23:59:59", True),
    ("2012-04-01T00:00:00", True),
    ("2012-03-01T24:00:00", False),  # hour 24 is not canonical: deferred
    ("\uff12\uff10\uff11\uff12-03-05T10:00:00", False),  # foreign digits
    ("\u0662\u0660\u0661\u0662-03-05T10:00:00", False),
    ("2012-03-05T10:00:00+00:00", False),
])
def test_compiled_canonical_month_matches_fromisoformat(text, in_c):
    if "c" not in cdr_backends():
        pytest.skip("the compiled library is not loaded")
    windows = [WindowSpec.from_label("2012-03", span_months=3)]
    try:
        ts = datetime.fromisoformat(text)
        windows += [WindowSpec(ts.year, ts.month, 1), WindowSpec(ts.year, ts.month, 1, _SHIFTED)]
    except ValueError:
        pass
    for window in windows:
        with mock.patch.object(ingest, "_judge_lines", wraps=ingest._judge_lines) as judge:
            status, u, v, ids = ingest._cdr_tokens_c([f"a,b,{text},call,1"], window)
        assert judge.called != in_c  # a canonical timestamp is decided in C alone
        assert status.tolist() == [_fromisoformat_status(text, window)]
        assert [(ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist())] == (
            [("a", "b")] if status[0] == ingest._IN else [])


# --- pipeline against the record-by-record reference ---------------------------------

_ASCII_IDS = ["a", "b", "c", "d", "e", "B", "a0", "hub"]
_NODE_IDS = _ASCII_IDS + ["\u00e4", "\u00e9", "x\u00e9"]
_MALFORMED = [
    "a,b,2012-03-05T10:00:00",
    ",b,2012-03-05T10:00:00,call,1",
    "a,b,yesterday,call,1",
    "a,b,2012-03-05T10:00:00,fax,1",
    "a,b,2012-03-05T10:00:00,call,soon",
    "a,b,2012-03-05T10:00:00,call,-5",
    "a,b,2012-03-05T10:00:00,sms,12",
    "a,a,2012-03-05T10:00:00,call,3",
    "a,b,2012-02-30T10:00:00,call,3",
    "a,b,c,d,e,f",
    "a,b,0000-03-05T10:00:00,call,1",
    "a,b,1900-02-29T10:00:00,call,1",
    "a,b,2000-02-29T10:00:00,call,1",
    "a,b,2012-03-05T24:00:00,call,1",
    "a,b,2012-03-05t10:00:00,call,1",
    "a,,2012-03-05T10:00:00,call,1",
    "origin",
]
# kinds in any case, and durations that int() reads although no digit run
# does (signs, spaces, underscores, other scripts' digits, Unicode space
# around them), with digit runs on both sides of 18 digits
_KINDS = ["call", "sms", "CALL", "Sms"]
_DURATIONS = ["0", "7", "42", "+5", " 5", "\uff15", "1_0", "-0", "-7", "x", "", "9" * 18, "1" * 19]
_SMS_DURATIONS = ["0", "00", "-0", "+0", "0_0", "\uff10", "0" * 18, "0" * 19, "3", "+3"]
_WRAPS = ["\u00a0", "\u001c", " ", "\t"]


@st.composite
def _cdr_lines(draw):
    """CDR elements as an ``Iterable[str]`` may hold them: each one line,
    ending in LF, CRLF or nothing, now and then two lines joined by an inner
    LF, and empty strings."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["origin,target,timestamp,kind,duration_s", " Origin , TARGET ,x",
                                           "ORIGIN,TARGET,timestamp,kind,duration_s", "origin,target"])))
    for _ in range(draw(st.integers(0, 80))):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            lines.append(draw(st.sampled_from(_MALFORMED)))
        elif roll == 1:
            lines.append(draw(st.sampled_from(["", "  ", "\n", "\r\n"])))
        else:
            # most records are plain printable ASCII in canonical form, which
            # the compiled body decides itself; the odd ones it defers
            odd = draw(st.integers(0, 3)) == 0
            ids = _NODE_IDS if odd else _ASCII_IDS
            origin = "hub" if roll < 5 else draw(st.sampled_from(ids))
            target = draw(st.sampled_from(ids))
            month = draw(st.sampled_from(["2011-12", "2012-01", "2012-02", "2012-03", "2012-04"]))
            day = draw(st.sampled_from(["01", "15", "31"]))
            zone = draw(st.sampled_from(["", "", "Z", "+02:00", "-03:00"])) if odd else ""
            stamp = f"{month}-{day if month != '2012-02' else '15'}T{draw(st.sampled_from(['00', '12', '23']))}:30:00{zone}"
            kind = draw(st.sampled_from(_KINDS))
            if not odd or draw(st.booleans()):
                duration = "0" if kind.lower() == "sms" else str(draw(st.integers(0, 99)))
            else:
                duration = draw(st.sampled_from(_SMS_DURATIONS if kind.lower() == "sms" else _DURATIONS))
            fields = [origin, target, stamp, kind, duration]
            if odd and draw(st.booleans()):
                k = draw(st.integers(0, 4))
                wrap = draw(st.sampled_from(_WRAPS))
                fields[k] = wrap + fields[k] + wrap
            lines.append(",".join(fields))
        lines[-1] += draw(st.sampled_from(["", "\n", "\n", "\r\n"] if roll < 2 or odd else ["", "\n"]))
        if len(lines) > 1 and not lines[-2].endswith("\n") and draw(st.integers(0, 9)) == 0:
            lines[-2:] = [lines[-2] + "\n" + lines[-1]]
    return lines


def _arrays(g):
    return [g.ids.ids] + [(a.dtype.str, a.tobytes()) for a in (g.indptr, g.nbr, g.wgt, g.self_loops)]


def _tokens_key(tokens):
    """What the tokenizer bodies agree on: the status bytes, the dtypes and
    the in-window pairs as sorted id pairs; each body numbers the ids, which
    are distinct and exactly those of the pairs, and orders the pairs its
    own way."""
    status, u, v, ids = tokens
    pairs = sorted((ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist()))
    assert len(set(ids)) == len(ids) == len({x for pair in pairs for x in pair})
    return status.dtype.str, status.tobytes(), u.dtype.str, v.dtype.str, pairs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cdr_lines(), st.integers(1, 4), st.sampled_from(["unit", "comm_count"]), st.sampled_from([1, 2, 5, 1 << 16]))
def test_pipeline_matches_record_reference(lines, cap, weight_mode, chunk):
    window = WindowSpec.from_label("2012-03", span_months=2)
    want_g, want = oracle_ingest(lines, window, cap, weight_mode)
    bodies = cdr_backends()
    for i in range(0, len(lines), chunk):
        tokens = {name: _tokens_key(body(lines[i:i + chunk], window)) for name, body in bodies.items()}
        assert all(t == tokens["python"] for t in tokens.values())
    for body in bodies.values():
        with mock.patch.object(ingest, "_CHUNK", chunk), mock.patch.object(ingest, "_cdr_tokens", body):
            g, report = ingest_pipeline(iter(lines), window, cap=cap, weight_mode=weight_mode)
        assert _arrays(g) == _arrays(want_g)
        rej, flt = report.rejections, report.filter
        got = {
            "n_lines": rej.n_lines,
            "n_valid": rej.n_valid,
            "reasons": rej.reasons,
            "first_line": rej.first_line,
            "n_in_window": report.n_in_window,
            "n_out_of_window": report.n_out_of_window,
            "n_directed_pairs": report.n_directed_pairs,
            "removed": flt.removed,
            "n_nodes_before": flt.n_nodes_before,
            "n_nodes_after": flt.n_nodes_after,
            "n_edges_before": flt.n_edges_before,
            "n_edges_after": flt.n_edges_after,
        }
        assert got == want
        assert list(rej.reasons) == list(want["reasons"])
        assert flt.cap == cap


# characters that steer the tokenizers: separators, strip() whitespace, NUL,
# DEL, line ends, timestamp digits and punctuation, non-ASCII letters, an
# astral character, lone surrogates (the compiled body's caller encodes
# them with "surrogatepass")
_FUZZ_CHARS = "ab,:-T0129Z \t\x00\n\r\x1c\x7f\u00a0\u00e9\u4e2d\U0001f600\ud800\udfff"
_FUZZ_TEXT = st.one_of(st.text(_FUZZ_CHARS, max_size=12), st.text(max_size=12))
_FUZZ_FIELDS = (
    ["a", "b", "\u00e9", "a\x00", "x" * 300, ""],
    ["a", "b", "\u4e2d", "\udfff", "y" * 300, ""],
    ["2012-03-05T10:00:00", "2012-02-29T23:59:59", "2012-01-31T00:00:00", "2012-03-05T10:00:00Z"],
    ["call", "sms", "CALL", "fax"],
    ["0", "5", "1" * 30, ""],
)


@st.composite
def _fuzz_field(draw, likely):
    """A likely field value, now and then with one steering character put
    in, or free text."""
    text = draw(st.sampled_from(likely))
    roll = draw(st.integers(0, 5))
    if roll == 4:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_FUZZ_CHARS)) + text[at:]
    elif roll == 5:
        text = draw(_FUZZ_TEXT)
    return text


@st.composite
def _fuzz_lines(draw):
    """Arbitrary ``str`` elements: free text, and record-like lines built
    from :func:`_fuzz_field`, ending in any line end, now and then joined
    to the next by an inner LF or CR."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            line = draw(_FUZZ_TEXT)
        else:
            line = ",".join(draw(_fuzz_field(f)) for f in _FUZZ_FIELDS)
        line += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
        if lines and draw(st.integers(0, 5)) == 0:
            line = lines.pop() + draw(st.sampled_from(["\n", "\r"])) + line
        lines.append(line)
    return lines


@settings(max_examples=200, deadline=None)
@given(_fuzz_lines())
def test_cdr_tokenizer_bodies_agree_on_arbitrary_text(lines):
    window = WindowSpec.from_label("2012-03", span_months=2)
    tokens = {name: _tokens_key(body(lines, window)) for name, body in cdr_backends().items()}
    assert all(t == tokens["python"] for t in tokens.values())


def test_durations_past_the_interpreter_digit_limit_are_judged_by_it():
    # Python 3.11+ refuses int() of more than sys.get_int_max_str_digits()
    # digits, 3.10 reads them: each body must agree with the running interpreter
    lines = ["a,b,2012-03-05T10:00:00,call," + "1" * 5000, "b,a,2012-03-05T10:00:00,sms," + "0" * 5000,
             "a,c,2012-03-05T10:00:00,call,5", "c,a,2012-03-05T10:00:00,sms,0"]
    window = WindowSpec.from_label("2012-03")
    want_g, want = oracle_ingest(lines, window, 200, "unit")
    try:
        int("1" * 5000)
        limited = False
    except ValueError:
        limited = True
    assert want["reasons"] == ({"bad_duration": 2} if limited else {})
    for body in cdr_backends().values():
        with mock.patch.object(ingest, "_cdr_tokens", body):
            g, report = ingest_pipeline(lines, window)
        assert _arrays(g) == _arrays(want_g)
        assert (report.rejections.reasons, report.rejections.first_line) == (want["reasons"], want["first_line"])


def test_pipeline_reference_sees_hubs_and_one_way_contacts():
    lines = [f"hub,x{i},2012-03-0{1 + i % 5}T10:00:00,call,5" for i in range(6)]
    lines += [f"x{i},hub,2012-02-10T10:00:00Z,sms,0" for i in range(6)]
    lines += ["x0,x1,2012-03-01T10:00:00,call,1", "x1,x0,2012-03-02T10:00:00,call,1",
              "x2,x3,2012-03-01T10:00:00,call,1"]
    window = WindowSpec.from_label("2012-03", span_months=2)
    g, report = ingest_pipeline(lines, window, cap=5, weight_mode="comm_count")
    want_g, want = oracle_ingest(lines, window, 5, "comm_count")
    assert _arrays(g) == _arrays(want_g)
    assert report.filter.removed == want["removed"] == ["hub"]
    assert edge_list(g) == [("x0", "x1", 2.0)]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(_NODE_IDS), st.sampled_from(_NODE_IDS)),
        st.integers(0, 6),
        max_size=40,
    ),
    st.sampled_from(["unit", "comm_count"]),
)
def test_symmetrize_matches_dictionary_reference(counts, weight_mode):
    assert _arrays(symmetrize(counts, weight_mode)) == _arrays(oracle_symmetrize(counts, weight_mode))
