"""Record parsing, window arithmetic, symmetrization, degree capping."""

import dataclasses
import math
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import commtrack.ingest as ingest
from commtrack.errors import InputError
from commtrack.graph import build_graph
from commtrack.ingest import (
    FilterReport,
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
    # nothing is removed, so the immutable input graph is the output
    assert out is g
    assert report == FilterReport(cap=200, removed=[], n_nodes_before=201, n_nodes_after=201,
                                  n_edges_before=200, n_edges_after=200)


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


def _tokens(body, lines, window):
    """``body``'s tokens of ``lines`` given its own empty id table, then the
    ids in the table in number order."""
    run = body()
    return (*run.block(lines, window), run.ids())


def _body_tokens(body, lines, window):
    status, u, v, ids = _tokens(body, lines, window)
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
                    body().block(lines, w)
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


@pytest.mark.parametrize("text, canonical", [
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
def test_compiled_canonical_month_matches_fromisoformat(text, canonical):
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
            status, u, v, ids = _tokens(ingest._CdrTokensC, [f"a,b,{text},call,1"], window)
        want = _fromisoformat_status(text, window)
        # a canonical timestamp that names a real date is decided in C alone;
        # any other text, a canonical one that names no date too, is deferred
        assert judge.called != (canonical and want != ingest._BAD_TIMESTAMP)
        assert status.tolist() == [want]
        assert [(ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist())] == (
            [("a", "b")] if status[0] == ingest._IN else [])


# one line per way not to be a well-formed record, each of the validator's
# statuses among them, between well-formed records
_NOT_RECORDS = [
    "",                                          # blank
    "origin,target,timestamp,kind,duration_s",   # header
    "Origin,TARGET,2012-03-05T10:00:00,call,1",  # a header that is also a well-formed record
    "a,b,2012-03-05T10:00:00,call",              # field_count
    ",b,2012-03-05T10:00:00,call,1",             # empty_id
    "a,a,2012-03-05T10:00:00,call,1",            # self_record
    "a,b,2012-02-30T10:00:00,call,1",            # bad_timestamp
    "a,b,2012-03-05T10:00:00,fax,1",             # bad_kind
    "a,b,2012-03-05T10:00:00,call,-1",           # bad_duration
    "a,b,2012-03-05T10:00:00,sms,1",             # sms_nonzero_duration
    "a,b,2012-03-05T10:00:00Z,call,1",           # a record, but no canonical timestamp
    "o1,b,2012-03-05T10:00:00,call,1",           # a record whose first byte could start a header
]


def test_compiled_body_defers_exactly_what_is_no_well_formed_record():
    if "c" not in cdr_backends():
        pytest.skip("the compiled library is not loaded")
    lines, deferred = [], []
    for k, line in enumerate(_NOT_RECORDS):
        lines += [f"b{k},c,2012-0{1 + k % 4}-05T10:00:00,{'sms,0' if k % 2 else 'CALL,42'}\n", line + "\n"]
        deferred.append(2 * k + 1)
    window = WindowSpec.from_label("2012-03", span_months=2)
    with mock.patch.object(ingest, "_judge_lines", wraps=ingest._judge_lines) as judge:
        got = _tokens_key(_tokens(ingest._CdrTokensC, lines, window))
    ((args, _),) = judge.call_args_list
    assert args[1] == deferred
    assert got == _tokens_key(_tokens(ingest._CdrTokensPy, lines, window))
    assert set(got[1]) == set(range(len(ingest._STATUSES))) - {ingest._DEFER}
    py_report, c_report = (rep.rejections for rep in _pipeline_reports(lines, window))
    assert c_report == py_report
    assert list(c_report.reasons.items()) == list(py_report.reasons.items())
    assert list(c_report.first_line.items()) == list(py_report.first_line.items())


def test_compiled_line_outcomes_are_the_first_statuses():
    import commtrack._native as native

    source = native._SOURCE.read_text(encoding="utf-8")
    (body,) = re.findall(r"enum \{([^}]*)\};", source)
    names = [x.strip() for x in body.split(",")]
    assert names == ["CDR_IN_WINDOW", "CDR_OUT_OF_WINDOW", "CDR_DEFER"]
    assert [f"CDR_{x.upper()}" for x in ingest._STATUSES[:len(names)]] == names
    assert (ingest._IN, ingest._OUT, ingest._DEFER) == (0, 1, 2)


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


# Shrinking a failing _cdr_lines() example (up to 80 lines) can take many
# minutes, so the tests over it report the example as drawn.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=_NO_SHRINK)
@given(_cdr_lines(), st.integers(1, 4), st.sampled_from(["unit", "comm_count"]), st.sampled_from([1, 2, 5, 1 << 16]))
def test_pipeline_matches_record_reference(lines, cap, weight_mode, chunk):
    window = WindowSpec.from_label("2012-03", span_months=2)
    want_g, want = oracle_ingest(lines, window, cap, weight_mode)
    bodies = cdr_backends()
    for i in range(0, len(lines), chunk):
        tokens = {name: _tokens_key(_tokens(body, lines[i:i + chunk], window)) for name, body in bodies.items()}
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
    tokens = {name: _tokens_key(_tokens(body, lines, window)) for name, body in cdr_backends().items()}
    assert all(t == tokens["python"] for t in tokens.values())


def _run_holding(body, prior, window):
    """A run of ``body`` whose id table holds ``prior``, numbered in order:
    one earlier block per consecutive pair of them, each a record in
    ``window`` that numbers its target after its origin."""
    run = body()
    for origin, target in zip(prior, prior[1:]):
        status, _, _ = run.block([f"{origin},{target},2012-03-05T10:00:00,call,1\n"], window)
        assert status.tolist() == [ingest._IN]
    assert run.ids() == prior
    return run


def _prior_ids(ids, max_size):
    """Distinct ids for :func:`_run_holding`: none, or at least two, since
    a record numbers an id only with its partner."""
    return st.lists(st.sampled_from(ids), unique=True, max_size=max_size).filter(lambda prior: len(prior) != 1)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=_NO_SHRINK)
@given(_cdr_lines(), _prior_ids(_NODE_IDS + ["p", "p\u00e9"], 6))
def test_cdr_bodies_number_ids_into_the_run_table(lines, prior):
    # the id table holds ids of earlier blocks, some of which recur here
    window = WindowSpec.from_label("2012-03", span_months=2)
    got = {}
    for name, body in cdr_backends().items():
        run = _run_holding(body, prior, window)
        status, u, v = run.block(lines, window)
        ids = run.ids()
        index = dict(zip(ids, range(len(ids))))
        assert len(index) == len(ids) == len(run)
        assert all(index[x] == k for k, x in enumerate(prior))
        assert list(index.values()) == list(range(len(index)))
        assert all(0 <= k < len(ids) for k in u.tolist() + v.tolist())
        pairs = [(ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist())]
        assert set(ids[len(prior):]) == {x for pair in pairs for x in pair} - set(prior)
        got[name] = (status.tobytes(), sorted(pairs))
    assert all(t == got["python"] for t in got.values())


# ids of compiled records (printable ASCII, not starting with o or O), ids
# that start with o or O, which only deferred lines give, and ids that no
# compiled record can hold: non-ASCII, an inner tab, space or CR, a lone
# surrogate
_RUN_IDS = ["a", "b", "c", "hub", "a0", "o1", "O2", "\u00e9", "x\u00e9", "x\ty", "p q", "r\rs", "\ud800", "\u4e2d"]


@st.composite
def _run_blocks(draw):
    """Blocks of CDR lines over :data:`_RUN_IDS`: records the compiled body
    decides, and records it defers (a zone, a space around a field, a CRLF,
    an id it cannot hold), now and then two lines in one element."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        lines = []
        for _ in range(draw(st.integers(0, 12))):
            origin, target = draw(st.lists(st.sampled_from(_RUN_IDS), min_size=2, max_size=2, unique=True))
            month = draw(st.sampled_from(["2012-01", "2012-02", "2012-03"]))
            zone = draw(st.sampled_from(["", "", "Z", "+01:00"]))
            pad = draw(st.sampled_from(["", "", " "]))
            line = f"{pad}{origin},{target},{month}-05T10:00:00{zone},call,{draw(st.integers(0, 9))}"
            line += draw(st.sampled_from(["", "\n", "\r\n"]))
            if lines and not lines[-1].endswith("\n") and draw(st.integers(0, 5)) == 0:
                line = lines.pop() + "\n" + line
            lines.append(line)
        blocks.append(lines)
    return blocks


@settings(max_examples=150, deadline=None)
@given(_run_blocks(), _prior_ids(_RUN_IDS, 4))
def test_run_table_matches_the_python_body_across_blocks(blocks, prior):
    # the compiled table starts with room for one id, so it grows within
    # the run; each id keeps one number from the block it is first met in
    # to the end, whichever body or path numbered it
    window = WindowSpec.from_label("2012-03", span_months=2)
    got = {}
    for name, body in cdr_backends().items():
        with mock.patch.object(ingest._CdrTokensC, "_START", 1):
            run = _run_holding(body, prior, window)
            tokens = [run.block(lines, window) for lines in blocks]
        ids = run.ids()
        assert ids[:len(prior)] == prior and len(set(ids)) == len(ids) == len(run)
        got[name] = [(status.tobytes(), [(ids[a], ids[b]) for a, b in zip(u.tolist(), v.tolist())])
                     for status, u, v in tokens]
        assert set(ids) == set(prior) | {x for _, pairs in got[name] for pair in pairs for x in pair}
    for name in got:
        assert [(status, sorted(pairs)) for status, pairs in got[name]] == [
            (status, sorted(pairs)) for status, pairs in got["python"]]


def test_run_table_grows_and_keeps_every_number():
    if "c" not in cdr_backends():
        pytest.skip("the compiled library is not loaded")
    window = WindowSpec.from_label("2012-03")
    with mock.patch.object(ingest._CdrTokensC, "_START", 1):
        run = _run_holding(ingest._CdrTokensC, ["\u00e9", "u0"], window)  # non-ASCII: interned as deferred
        sizes, pairs = [], []
        for k in range(4):  # each block adds ids, compiled and deferred, and meets earlier ones again
            lines = [f"u{j},u{j + 1},2012-03-05T10:00:00,call,1\n" for j in range(40 * k, 40 * k + 60)]
            lines += [f"u{40 * k},\u00e9,2012-03-05T10:00:00Z,call,1\n", f"o{k},u{40 * k + 1},2012-03-05T10:00:00,sms,0\n"]
            status, u, v = run.block(lines, window)
            assert (status == ingest._IN).all()
            pairs.append(list(zip(u.tolist(), v.tolist())))
            sizes.append((len(run.slots), len(run.off), len(run.text)))
    ids = run.ids()
    assert [s for s in sizes if s != sizes[0]] and sizes == sorted(sizes)
    assert len(ids) == 1 + 181 + 4
    for k in range(4):
        named = [(ids[a], ids[b]) for a, b in pairs[k]]
        assert named[:60] == [(f"u{j}", f"u{j + 1}") for j in range(40 * k, 40 * k + 60)]
        assert named[60:] == [(f"u{40 * k}", "\u00e9"), (f"o{k}", f"u{40 * k + 1}")]


def test_pipeline_refuses_more_ids_than_its_table_numbers():
    lines = ["a,b,2012-03-05T10:00:00,call,1", "c,d,2012-03-05T10:00:00Z,call,1", "b,a,2012-03-05T10:00:00,sms,0"]
    window = WindowSpec.from_label("2012-03")
    for body in cdr_backends().values():
        with mock.patch.object(ingest, "_cdr_tokens", body), mock.patch.object(ingest, "_TABLE_MAX_IDS", 3):
            with pytest.raises(InputError, match="more than 3 distinct ids"):
                ingest_pipeline(lines, window)
        with mock.patch.object(ingest, "_cdr_tokens", body), mock.patch.object(ingest, "_TABLE_MAX_IDS", 4):
            assert ingest_pipeline(lines, window)[0].n_edges == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 60), max_size=40), max_size=12))
def test_pair_fold_matches_one_count_of_every_key(chunks):
    # empty chunks and keys repeated within and across chunks; between
    # chunks the runs hold fewer than twice the distinct keys so far
    runs, seen = [], set()
    for chunk in chunks:
        ingest._fold_pairs(runs, np.array(chunk, dtype=np.int64))
        seen.update(chunk)
        assert all(len(below) >= 2 * len(above) for (below, _), (above, _) in zip(runs, runs[1:]))
        assert sum(len(keys) for keys, _ in runs) <= 2 * len(seen)
        assert all((np.diff(keys) > 0).all() for keys, _ in runs)
    keys, counts = ingest._folded(runs)
    want_keys, want_counts = np.unique(np.array([k for c in chunks for k in c], dtype=np.int64), return_counts=True)
    assert keys.dtype == counts.dtype == np.int64
    assert keys.tolist() == want_keys.tolist() and counts.tolist() == want_counts.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=80), st.integers(0, 10))
def test_first_seen_numbering_matches_unique_return_index(flat, spare):
    n = max(flat, default=-1) + 1 + spare
    flat = np.array(flat, dtype=np.int64)
    seen, first_at = np.unique(flat, return_index=True)
    assert ingest._first_seen(flat, n).tolist() == seen[np.argsort(first_at)].tolist()


def test_pipeline_crosses_the_block_boundary_as_the_reference():
    # the first block ends at line 65,536 and line 65,537 is rejected; the
    # ids, ASCII and not, recur in both blocks, so the second block's lines
    # are numbered into the table the first one filled
    ids = [f"u{k}" for k in range(400)] + ["\u00e9", "\u00e9t\u00e9"]
    stamp = "2012-03-{:02d}T10:{:02d}:00"
    lines = [f"{ids[k % 402]},{ids[(k * 7 + 1) % 402]},{stamp.format(1 + k % 28, k % 60)},call,{k % 9}\n"
             for k in range(ingest._CHUNK)]
    lines.append("u1,u2,2012-03-01T10:00:00,call\n")
    lines += [f"{ids[(k * 7 + 1) % 402]},{ids[k % 402]},{stamp.format(1 + k % 28, 0)},sms,0\n" for k in range(6000)]
    window = WindowSpec.from_label("2012-03")
    want_g, want = oracle_ingest(lines, window, 200, "comm_count")
    assert want["first_line"] == {"field_count": ingest._CHUNK + 1}
    assert want["n_directed_pairs"] == 2 * want_g.n_edges == 804
    for body in cdr_backends().values():
        with mock.patch.object(ingest, "_cdr_tokens", body):
            g, report = ingest_pipeline(iter(lines), window, weight_mode="comm_count")
        assert _arrays(g) == _arrays(want_g)
        rej = report.rejections
        assert (rej.n_lines, rej.n_valid, rej.reasons, rej.first_line) == (
            want["n_lines"], want["n_valid"], want["reasons"], want["first_line"])
        assert (report.n_in_window, report.n_directed_pairs, report.filter.removed) == (
            want["n_in_window"], want["n_directed_pairs"], want["removed"])


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
