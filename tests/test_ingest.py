"""Record parsing, window arithmetic, symmetrization, degree capping."""

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
    CdrKind,
    PairCounts,
    WindowSpec,
    _parse_timestamp,
    _window_test,
    aggregate_window,
    filter_high_degree,
    ingest_pipeline,
    parse_cdr,
    symmetrize,
)

from oracles import oracle_ingest, oracle_symmetrize


def test_parse_single_call_record():
    records, report = parse_cdr(["A,B,2012-03-05T10:00:00,call,62"])
    assert len(records) == 1
    rec = records[0]
    assert rec.origin == "A" and rec.target == "B"
    assert rec.kind is CdrKind.CALL and rec.duration_s == 62
    assert rec.timestamp == datetime(2012, 3, 5, 10, 0, 0)
    assert report.n_valid == 1 and report.n_rejected == 0


def test_parse_rejects_self_record():
    records, report = parse_cdr(["A,A,2012-03-05T10:00:00,sms,0"])
    assert records == []
    assert report.reasons == {"self_record": 1}


def test_parse_empty_input():
    records, report = parse_cdr([])
    assert records == [] and report.n_lines == 0 and report.n_rejected == 0


def test_parse_header_and_blank_lines_skipped():
    records, report = parse_cdr(
        ["origin,target,timestamp,kind,duration_s", "", "A,B,2012-01-01T00:00:00,sms,0"]
    )
    assert len(records) == 1
    assert report.n_lines == 1  # header and blank not counted


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
    records, report = parse_cdr(lines)
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


def test_parse_accepts_utc_suffix_and_offsets():
    records, _ = parse_cdr(
        ["A,B,2012-03-05T10:00:00Z,call,5", "B,A,2012-03-05T11:00:00+02:00,call,5"]
    )
    assert records[0].timestamp.tzinfo is not None
    assert records[1].timestamp.utcoffset().total_seconds() == 7200


def test_parse_rejected_fraction_threshold():
    lines = ["junk"] * 3 + ["A,B,2012-01-01T00:00:00,call,1"]
    with pytest.raises(InputError):
        parse_cdr(lines, max_rejected_fraction=0.5)
    records, report = parse_cdr(lines, max_rejected_fraction=0.75)
    assert len(records) == 1 and report.n_rejected == 3


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
    records, _ = parse_cdr(["A,B,2012-04-01T01:30:00+02:00,call,1"])
    assert w.contains(records[0].timestamp)


def _rec(o, t, ts, kind="call", dur=10):
    records, _ = parse_cdr([f"{o},{t},{ts},{kind},{dur if kind=='call' else 0}"])
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
    assert counts[("A", "B")].calls == 2
    assert counts[("A", "B")].duration_s == 20
    assert counts[("B", "A")].smses == 1


# --- symmetrization ---------------------------------------------------------------


def test_symmetrize_requires_both_directions():
    counts = {
        ("A", "B"): PairCounts(3, 0, 30),
        ("B", "A"): PairCounts(1, 1, 10),
        ("A", "C"): PairCounts(5, 0, 50),  # one-way: no edge
    }
    g = symmetrize(counts)
    assert sorted(g.ids.ids) == ["A", "B"]
    assert list(g.edges()) == [("A", "B", 1.0)]
    g2 = symmetrize(counts, "comm_count")
    assert list(g2.edges()) == [("A", "B", 5.0)]


def test_symmetrize_empty_counts():
    g = symmetrize({})
    assert g.n == 0 and g.n_edges == 0


def test_symmetrize_rejects_unknown_mode():
    with pytest.raises(InputError):
        symmetrize({}, "quadratic")


def test_symmetrize_result_independent_of_count_order():
    c1 = {("A", "B"): PairCounts(1, 0, 5), ("B", "A"): PairCounts(1, 0, 5),
          ("B", "C"): PairCounts(1, 0, 5), ("C", "B"): PairCounts(2, 0, 9)}
    c2 = dict(reversed(list(c1.items())))
    g1, g2 = symmetrize(c1), symmetrize(c2)
    assert g1.ids == g2.ids
    assert list(g1.edges()) == list(g2.edges())


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
    assert list(out2.edges()) == list(out.edges())


def test_filter_keeps_self_loops_of_survivors():
    g = build_graph([("a", "a", 2.0), ("a", "b"), ("c", "b"), ("c", "d"), ("c", "e")])
    out, report = filter_high_degree(g, cap=2)
    assert report.removed == ["c"]
    assert ("a", "a", 2.0) in list(out.edges())


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
    assert sorted(e[:2] for e in g.edges()) == [("A", "B"), ("B", "C")]
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


# --- timestamp fast path ------------------------------------------------------------

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


def _full_parser(text, window):
    ts = _parse_timestamp(text)
    return None if ts is None else window.contains(ts)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_timestamp_texts(), st.text(max_size=24)), _windows)
def test_window_fast_path_matches_full_parser(text, window):
    try:
        want = _full_parser(text, window)
    except OverflowError:  # an offset that pushes year 1 or 9999 out of range
        with pytest.raises(OverflowError):
            _window_test(window)(text)
        return
    assert _window_test(window)(text) == want


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
    if inside is not _ANY:
        assert _full_parser(text, window) == inside
    assert _window_test(window)(text) == _full_parser(text, window)
    # a naive time is read in the window's zone; an aware one is converted to it
    shifted = WindowSpec.from_label("2012-03", span_months=3, tz=timezone(timedelta(hours=5)))
    assert _window_test(shifted)(text) == _full_parser(text, shifted)


# --- pipeline against the record-by-record reference ---------------------------------

_NODE_IDS = ["a", "b", "c", "d", "e", "B", "\u00e4", "a0", "hub"]
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
]


@st.composite
def _cdr_lines(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["origin,target,timestamp,kind,duration_s", " Origin , TARGET ,x"])))
    for _ in range(draw(st.integers(0, 80))):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            lines.append(draw(st.sampled_from(_MALFORMED)))
        elif roll == 1:
            lines.append(draw(st.sampled_from(["", "  "])))
        else:
            origin = "hub" if roll < 5 else draw(st.sampled_from(_NODE_IDS))
            target = draw(st.sampled_from(_NODE_IDS))
            month = draw(st.sampled_from(["2011-12", "2012-01", "2012-02", "2012-03", "2012-04"]))
            day = draw(st.sampled_from(["01", "15", "31"]))
            zone = draw(st.sampled_from(["", "", "", "Z", "+02:00", "-03:00"]))
            stamp = f"{month}-{day if month != '2012-02' else '15'}T{draw(st.sampled_from(['00', '12', '23']))}:30:00{zone}"
            kind = draw(st.sampled_from(["call", "sms", "CALL"]))
            duration = 0 if kind == "sms" else draw(st.integers(0, 99))
            lines.append(f"{origin}, {target},{stamp},{kind},{duration}")
    return lines


def _arrays(g):
    return [g.ids.ids] + [(a.dtype.str, a.tobytes()) for a in (g.indptr, g.nbr, g.wgt, g.self_loops)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cdr_lines(), st.integers(1, 4), st.sampled_from(["unit", "comm_count"]), st.sampled_from([1, 2, 5, 1 << 16]))
def test_pipeline_matches_record_reference(lines, cap, weight_mode, chunk):
    window = WindowSpec.from_label("2012-03", span_months=2)
    want_g, want = oracle_ingest(lines, window, cap, weight_mode)
    with mock.patch.object(ingest, "_CHUNK", chunk):
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
    assert flt.cap == cap


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
    assert list(g.edges()) == [("x0", "x1", 2.0)]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(_NODE_IDS), st.sampled_from(_NODE_IDS)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 50)),
        max_size=40,
    ),
    st.sampled_from(["unit", "comm_count"]),
)
def test_symmetrize_matches_dictionary_reference(raw, weight_mode):
    counts = {key: PairCounts(*value) for key, value in raw.items()}
    assert _arrays(symmetrize(counts, weight_mode)) == _arrays(oracle_symmetrize(counts, weight_mode))
