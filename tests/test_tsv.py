"""The columnar TSV readers and writers against the line-by-line reference in
``oracles``: the same arrays, id order and bytes, and the same error text."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import commtrack.graph as graph
from commtrack.errors import InputError
from commtrack.graph import (
    Partition,
    build_graph,
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from commtrack.synth import SynthSpec, generate

from oracles import (
    edge_list,
    oracle_read_edge_tsv,
    oracle_read_partition_tsv,
    oracle_write_edge_tsv,
    oracle_write_partition_tsv,
    tsv_backends,
)

_IDS = (
    st.sampled_from(["a", "b", "c", "a#b", "b ", " c", "1", "01", "x y", "é", " ", "\x0b", "", "\x00", "a\x00b", "\ufeff", "\ufeffa"])
    | st.text(alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=3)
    | st.integers(0, 3).map(lambda k: "x" * 300 + "é" * k)  # long ids that share a 300-byte prefix
)
_WEIGHTS = st.sampled_from([
    "1", "2", "0", "0.5", "1_0", "1__0", "５", "٣", "1e3", "-0", "-1", " 1", "1 ", "nan", "inf", "-inf",
    "1e400", "1e300", "0.1", "x", "", "0x10",
]) | st.floats(allow_nan=False, min_value=0.0, max_value=1e6).map(repr) | st.text(alphabet="0123456789.e-+_ ", max_size=4)
_LABELS = st.sampled_from([
    "0", "1", "-1", "+5", "007", "1_0", "٣", " 2", "2 ", "x", "", "1.0", "-0",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
]) | st.integers(-(2**64), 2**64).map(str)
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
_NOISE = st.sampled_from(["", "# comment", "#a\tb\t1", "   "])


def _text(lines, endings, trailing):
    out = "".join(line + end for line, end in zip(lines, endings))
    return out if trailing or not lines else out[: -len(endings[len(lines) - 1])]


@st.composite
def _edge_files(draw):
    line = st.one_of(
        st.tuples(_IDS, _IDS, _WEIGHTS).map("\t".join),
        st.tuples(_IDS, _IDS).map("\t".join),
        _IDS,
        _NOISE,
        st.tuples(_IDS, _IDS, _WEIGHTS, _WEIGHTS).map("\t".join),
    )
    lines = draw(st.lists(line, max_size=12))
    endings = draw(st.lists(_ENDINGS, min_size=len(lines), max_size=len(lines)))
    return _text(lines, endings, draw(st.booleans()))


@st.composite
def _partition_files(draw):
    line = st.one_of(
        st.tuples(_IDS, _LABELS).map("\t".join),
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3).map(str)).map("\t".join),
        _NOISE,
        _IDS,
        st.tuples(_IDS, _LABELS, _LABELS).map("\t".join),
    )
    lines = draw(st.lists(line, max_size=10))
    endings = draw(st.lists(_ENDINGS, min_size=len(lines), max_size=len(lines)))
    return _text(lines, endings, draw(st.booleans()))


def _outcome(read, *args):
    """What a reader returns, or the text of the InputError it raises."""
    try:
        return read(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def _graph_key(g):
    if isinstance(g, str):
        return g
    arrays = (g.indptr, g.nbr, g.wgt, g.self_loops)
    return g.ids.ids, [(a.dtype.str, a.tobytes()) for a in arrays], g.total_weight_2m


def _tokens_key(tokens):
    return tokens if tokens is None else [t if isinstance(t, (bytes, int)) else (t.dtype.str, t.tobytes()) for t in tokens]


def _partition_key(p):
    return p if isinstance(p, str) else (p.ids.ids, p.labels.dtype.str, p.labels.tobytes())


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_edge_files())
def test_read_edge_tsv_matches_line_reader(tmp_path, text, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    want = _graph_key(_outcome(oracle_read_edge_tsv, path))
    bodies = tsv_backends()
    tokens = {name: _tokens_key(body(graph._edge_file_bytes(path))) for name, body in bodies.items()}
    assert all(t == tokens["python"] for t in tokens.values())
    for body in bodies.values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        assert _graph_key(_outcome(read_edge_tsv, path)) == want


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_partition_files(), graph_ids=st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True))
def test_read_partition_tsv_matches_line_reader(tmp_path, text, graph_ids, monkeypatch):
    path = tmp_path / "p.tsv"
    path.write_bytes(text.encode("utf-8"))
    want = _partition_key(_outcome(oracle_read_partition_tsv, path))
    g = build_graph([], nodes=graph_ids)
    want_aligned = _partition_key(_outcome(oracle_read_partition_tsv, path, g))
    bodies = tsv_backends()
    tokens = {name: _tokens_key(body(graph._edge_file_bytes(path))) for name, body in bodies.items()}
    assert all(t == tokens["python"] for t in tokens.values())
    for body in bodies.values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        assert _partition_key(_outcome(read_partition_tsv, path)) == want
        aligned = _outcome(read_partition_tsv, path, g)
        assert _partition_key(aligned) == want_aligned
        if not isinstance(aligned, str):
            assert aligned.ids is g.ids


@pytest.mark.parametrize(
    "text, message",
    [
        # a one-field line whose text is also a node or a label of another line
        ("a\na\t1\n", "p.tsv:1: expected 'node<TAB>label'"),
        ("1\na\t1\n", "p.tsv:1: expected 'node<TAB>label'"),
        ("a\t1\t2\n", "p.tsv:1: expected 'node<TAB>label'"),
        ("b\t2\r\na\t1\t2\n", "p.tsv:2: expected 'node<TAB>label'"),
    ],
)
def test_partition_reader_errors_name_the_line(tmp_path, text, message, monkeypatch):
    path = tmp_path / "p.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(InputError) as want:
        oracle_read_partition_tsv(path)
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        with pytest.raises(InputError) as got:
            read_partition_tsv(path)
        assert str(got.value).endswith(message)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a\tb\t1\r\nb\tc\tx\r\n", "g.tsv:2: bad weight 'x'"),
        ("a\tb\r# note\rb\tc\t1\t2\r", "g.tsv:3: expected 1-3 tab-separated fields"),
        ("lone\n\na\tb\tnan\n", "edge weight on ('a', 'b') must be finite and non-negative, got nan"),
        ("a\tb\t-0\nb\tc\t-inf\n", "edge weight on ('b', 'c') must be finite and non-negative, got -inf"),
    ],
)
def test_edge_reader_errors_name_the_line(tmp_path, text, message, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(InputError) as want:
        oracle_read_edge_tsv(path)
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        with pytest.raises(InputError) as got:
            read_edge_tsv(path)
        assert str(got.value).endswith(message)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("data", [
    b"a\tb\t1\n\xff\tc\n", b"a\tb\xc3", b"a\t\xc3(\n", b"\xed\xa0\x80\tb\n", b"\xc0\xaf\n", b"a\tb\tx\n\x80\n",
])
def test_non_utf8_edge_file_fails_as_line_reader(tmp_path, data, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_bytes(data)
    with pytest.raises(InputError) as want:
        oracle_read_edge_tsv(path)
    assert "not UTF-8 text" in str(want.value)
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        with pytest.raises(InputError) as got:
            read_edge_tsv(path)
        assert str(got.value) == str(want.value)


def test_many_distinct_ids_read_as_line_reader(tmp_path, monkeypatch):
    # 50k ids fill the id table enough that lookups probe past their first slot
    n = 50_000
    lines = [f"n{i}\tn{(i * 7919 + 13) % n}\t{1 + i % 3}" for i in range(n)] + [f"lone{i}" for i in range(0, n, 97)]
    path = tmp_path / "g.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = _graph_key(oracle_read_edge_tsv(path))
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        g = read_edge_tsv(path)
        assert g.n > n
        assert _graph_key(g) == want


def test_edge_reader_takes_what_float_takes(tmp_path, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_text("# w\na\tb\t1_0\r\nb\tc\t５\nc\ta\t1e3\n\nd\td\t-0\n e\t#f\t 2 \nlone\n", encoding="utf-8")
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        g = read_edge_tsv(path)
        assert g.ids.ids == ["lone", "a", "b", "c", "d", " e", "#f"]
        assert sorted(edge_list(g)) == [(" e", "#f", 2.0), ("a", "b", 10.0), ("a", "c", 1000.0), ("b", "c", 5.0)]
        assert _graph_key(g) == _graph_key(oracle_read_edge_tsv(path))


def test_empty_files_read_as_empty(tmp_path, monkeypatch):
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    for body in tsv_backends().values():
        monkeypatch.setattr(graph, "_edge_tokens", body)
        assert _graph_key(read_edge_tsv(path)) == _graph_key(oracle_read_edge_tsv(path))
        assert read_edge_tsv(path).n == 0
    assert _partition_key(read_partition_tsv(path)) == _partition_key(oracle_read_partition_tsv(path))


_WRITE_WEIGHTS = st.sampled_from([1.0, 2.0, 0.1, 0.0, 1e150, 2.0**53, 2.0**53 + 2, 2.0**53 - 1, 123456.789, 5e-324])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), _WRITE_WEIGHTS), max_size=20),
    lone=st.lists(st.integers(0, 12), max_size=4),
    as_text=st.booleans(),
    labels=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 2), min_size=13, max_size=13),
)
def test_writers_match_line_writers(tmp_path, edges, lone, as_text, labels):
    name = (lambda i: f"v{i}") if as_text else (lambda i: i)
    g = build_graph([(name(u), name(v), w) for u, v, w in edges], nodes=[name(i) for i in lone])
    write_edge_tsv(g, tmp_path / "got.tsv")
    oracle_write_edge_tsv(g, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
    part = Partition(g.ids, np.array(labels[: g.n], dtype=np.int64))
    write_partition_tsv(part, tmp_path / "got.tsv")
    oracle_write_partition_tsv(part, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_writers_format_large_and_fractional_weights_as_line_writer(tmp_path):
    weights = [0.1, 1e150, 2.0**53 + 2, 2.0**53, 3.0, 1e-300]
    g = build_graph([(f"u{i}", f"v{i}", w) for i, w in enumerate(weights)] + [("u0", "u0", 2.5)], nodes=["lone"])
    write_edge_tsv(g, tmp_path / "got.tsv")
    oracle_write_edge_tsv(g, tmp_path / "want.tsv")
    got = (tmp_path / "got.tsv").read_text(encoding="utf-8")
    assert got == (tmp_path / "want.tsv").read_text(encoding="utf-8")
    assert "u0\tv0\t0.1\n" in got and "u2\tv2\t9007199254740994\n" in got
    assert got.endswith("u0\tu0\t2.5\nlone\n")


def test_long_files_cross_write_chunks(tmp_path):
    n = 10_000
    g = build_graph([(i, i + 1, 0.5 if i % 3 else 1.0) for i in range(n)], nodes=[-1])
    write_edge_tsv(g, tmp_path / "got.tsv")
    oracle_write_edge_tsv(g, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
    part = Partition(g.ids, np.arange(g.n) % 7 - 3)
    write_partition_tsv(part, tmp_path / "got.tsv")
    oracle_write_partition_tsv(part, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_and_writer_memory_stays_bounded(tmp_path):
    spec = SynthSpec(n_nodes=4000, n_communities=40, p_in=0.12, p_out=0.002, steps=1, seed=3)
    g, _planted = generate(spec)[0]
    path = tmp_path / "g.tsv"
    write_edge_tsv(g, path)
    assert g.n_edges > 30_000
    assert _peak_bytes(read_edge_tsv, path) <= _peak_bytes(oracle_read_edge_tsv, path)
    # the writers format a few thousand lines at a time, not the whole file
    assert _peak_bytes(write_edge_tsv, g, tmp_path / "out.tsv") < 4_000_000
