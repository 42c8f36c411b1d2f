"""Command-line behavior: argument plumbing, file formats, exit codes."""

import csv
import hashlib
import json
import os
import shutil
from unittest import mock

import numpy as np
import pytest

import commtrack.cli as cli
import commtrack.ingest as ingest
from commtrack.cli import SweepSpec, _parse_pct_list, _parse_seeds, main, run_sweep
import commtrack.errors as errors
from commtrack.errors import InputError, InternalInvariantError
from commtrack.graph import read_edge_tsv, read_partition_tsv
from commtrack.louvain import LouvainConfig, louvain_static, renumber_partition
from commtrack.sweep import _fmt_pct
from commtrack.metrics import MatchConfig, compare
from commtrack.synth import SynthSpec, generate

from oracles import cdr_backends


def test_parse_pct_list():
    assert _parse_pct_list("0,25,50,75,100", "p") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_pct_list("12.5", "p") == [0.125]
    with pytest.raises(InputError):
        _parse_pct_list("0,120", "p")
    with pytest.raises(InputError):
        _parse_pct_list("abc", "p")
    with pytest.raises(InputError):
        _parse_pct_list(",", "p")


def test_parse_seeds():
    assert _parse_seeds("1..4") == [1, 2, 3, 4]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("3,9,12") == [3, 9, 12]
    with pytest.raises(InputError):
        _parse_seeds("9..3")
    with pytest.raises(InputError):
        _parse_seeds("one,two")


def test_sweep_spec_validation():
    SweepSpec([0.0], [0.0], [1])
    with pytest.raises(InputError):
        SweepSpec([], [0.0], [1])
    with pytest.raises(InputError):
        SweepSpec([0.0], [1.5], [1])
    with pytest.raises(InputError):
        SweepSpec([0.0], [0.0], [1], r=0.5)


def _write_pair(tmp_path, seed=6):
    spec = SynthSpec(n_nodes=150, n_communities=6, p_in=0.35, p_out=0.02,
                     churn_rate=0.1, migrate_rate=0.05, steps=2, seed=seed)
    (g0, _), (g1, _) = generate(spec)
    from commtrack.graph import write_edge_tsv

    p0, p1 = tmp_path / "g0.tsv", tmp_path / "g1.tsv"
    write_edge_tsv(g0, p0)
    write_edge_tsv(g1, p1)
    return p0, p1, g0, g1


def test_synth_then_detect_then_compare(tmp_path):
    out = tmp_path / "syn"
    rc = main(["synth", "--nodes", "120", "--communities", "5", "--p-in", "0.3",
               "--p-out", "0.02", "--churn", "0.1", "--migrate", "0.05",
               "--steps", "2", "--seed", "3", "-o", str(out)])
    assert rc == 0
    assert (out / "step_0.graph.tsv").exists()
    assert (out / "step_1.planted.tsv").exists()

    part0 = tmp_path / "p0.tsv"
    rc = main(["detect", "--graph", str(out / "step_0.graph.tsv"), "--seed", "1",
               "-o", str(part0)])
    assert rc == 0

    part1 = tmp_path / "p1.tsv"
    rc = main(["detect", "--graph", str(out / "step_1.graph.tsv"),
               "--prev-partition", str(part0), "--p", "0.5", "--q", "0.2",
               "--seed", "2", "-o", str(part1)])
    assert rc == 0

    report_path = tmp_path / "rep.json"
    rc = main(["compare", "--prev", str(part0), "--next", str(part1),
               "--graph", str(out / "step_1.graph.tsv"), "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["n_common"] > 0
    assert 0.0 <= report["mi_nats"]
    assert report["modularity_next"] is not None


def test_detect_output_is_loadable_partition(tmp_path):
    p0, _, g0, _ = _write_pair(tmp_path)
    out = tmp_path / "part.tsv"
    assert main(["detect", "--graph", str(p0), "--seed", "4", "-o", str(out)]) == 0
    g = read_edge_tsv(p0)
    part = read_partition_tsv(out, graph=g)
    assert part.covers(g)


def test_detect_deterministic_bytes(tmp_path):
    p0, _, _, _ = _write_pair(tmp_path)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    main(["detect", "--graph", str(p0), "--seed", "9", "-o", str(a)])
    main(["detect", "--graph", str(p0), "--seed", "9", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_shape_and_determinism(tmp_path):
    p0, p1, _, _ = _write_pair(tmp_path)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--graph-t", str(p0), "--graph-t1", str(p1),
            "--p", "0,50,100", "--q", "0,100", "--seeds", "1..3"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0

    rows1 = list(csv.reader(out1.read_text().splitlines()))
    rows2 = list(csv.reader(out2.read_text().splitlines()))
    assert rows1[0] == ["p_pct", "q_pct", "seed", "mi_nats", "matching_count",
                        "modularity", "runtime_ms"]
    assert len(rows1) == 1 + 3 * 2 * 3
    # deterministic apart from the timing column
    strip = lambda rows: [r[:-1] for r in rows]
    assert strip(rows1) == strip(rows2)
    # deterministic row order: (p, q, seed)
    keys = [(float(r[0]), float(r[1]), int(r[2])) for r in rows1[1:]]
    assert keys == sorted(keys)


def test_sweep_percent_columns_print_values_as_given(tmp_path):
    # 0.07 * 100 is 7.000000000000001 in floating point
    p0, p1, _, _ = _write_pair(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--graph-t", str(p0), "--graph-t1", str(p1),
                 "--p", "7,57", "--q", "14,12.5", "--seeds", "1", "-o", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [r[:2] for r in rows] == [["7", "14"], ["7", "12.5"], ["57", "14"], ["57", "12.5"]]
    for tenths in range(1001):
        text = f"{tenths / 10:g}"
        assert _fmt_pct(_parse_pct_list(text, "p")[0]) == text


def test_sweep_baseline_row_matches_library(tmp_path):
    p0, p1, g0, g1 = _write_pair(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--graph-t", str(p0), "--graph-t1", str(p1),
                 "--p", "0", "--q", "0", "--seeds", "5", "-o", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 1
    mi_csv = float(rows[0][3])

    # recompute through the library over the TSV round-trip (string node ids)
    gt = read_edge_tsv(p0)
    gt1 = read_edge_tsv(p1)
    base = renumber_partition(louvain_static(gt, LouvainConfig(rng_seed=5))[0])
    results = run_sweep(gt, gt1, SweepSpec([0.0], [0.0], [5]))
    assert results[0].mi_nats == pytest.approx(mi_csv, abs=1e-15)
    from commtrack.louvain import DynamicContext, derive_seed, louvain_dynamic

    ctx = DynamicContext.from_previous(base, gt1, 0.0, 0.0, seed=derive_seed(5, 2))
    part, _ = louvain_dynamic(gt1, ctx, LouvainConfig(rng_seed=derive_seed(5, 3)))
    report = compare(base, part, gt1, MatchConfig(0.51))
    assert report.mi_nats == pytest.approx(mi_csv, abs=1e-15)


@pytest.mark.parametrize("order, baselines", [("index", 1), ("shuffled", 3)])
def test_sweep_runs_one_baseline_unless_order_is_shuffled(monkeypatch, order, baselines):
    import commtrack.sweep as sweep

    spec = SynthSpec(n_nodes=60, n_communities=3, p_in=0.4, p_out=0.02, churn_rate=0.1, steps=2, seed=4)
    (g0, _), (g1, _) = generate(spec)
    calls = []
    real = sweep.louvain_static
    monkeypatch.setattr(sweep, "louvain_static", lambda g, cfg: calls.append(cfg.rng_seed) or real(g, cfg))
    results = run_sweep(g0, g1, SweepSpec([0.0, 1.0], [0.0], [3, 1, 2]), LouvainConfig(node_order=order))
    assert len(calls) == baselines and calls[0] == 3
    assert [(r.p, r.seed) for r in results] == [(p, s) for p in (0.0, 1.0) for s in (3, 1, 2)]
    if order == "index":  # the shared baseline is the one each seed would have run
        labels = {s: louvain_static(g0, LouvainConfig(rng_seed=s))[0].labels.tolist() for s in (3, 1, 2)}
        assert labels[3] == labels[1] == labels[2]


def test_sweep_rejects_disjoint_graphs(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("x1\tx2\n", encoding="utf-8")
    b.write_text("y1\ty2\n", encoding="utf-8")
    rc = main(["sweep", "--graph-t", str(a), "--graph-t1", str(b),
               "--p", "0", "--q", "0", "--seeds", "1", "-o", str(tmp_path / "o.csv")])
    assert rc == 2


def test_track_builds_timeline(tmp_path):
    out = tmp_path / "syn"
    main(["synth", "--nodes", "100", "--communities", "5", "--p-in", "0.35",
          "--p-out", "0.02", "--churn", "0.1", "--migrate", "0.05",
          "--steps", "3", "--seed", "8", "-o", str(out)])
    tl_dir = tmp_path / "tl"
    for k in range(3):
        stability = ["--p", "0.5"] if k else []
        rc = main(["track", "--timeline", str(tl_dir), "--add",
                   str(out / f"step_{k}.graph.tsv"), "--seed", "11", *stability])
        assert rc == 0
    assert (tl_dir / "step_2.partition.tsv").exists()
    history = (tl_dir / "history.jsonl").read_text().strip().splitlines()
    assert len(history) == 2
    meta = json.loads((tl_dir / "meta.json").read_text())
    assert meta["n_steps"] == 3


@pytest.mark.parametrize("flags", [
    ["--p", "0.5"], ["--q", "0.9"], ["--p", "0", "--q", "0"], ["--r", "0.6"], ["--r", "0.2"],
])
def test_track_rejects_stability_flags_on_first_call(tmp_path, flags):
    syn = tmp_path / "syn"
    _synth_steps(syn, 1)
    tl_dir = tmp_path / "tl"
    rc = main(["track", "--timeline", str(tl_dir), "--add", str(syn / "step_0.graph.tsv")] + flags)
    assert rc == 2
    assert not (tl_dir / "meta.json").exists()


@pytest.mark.parametrize("command", ["compare", "track", "sweep"])
def test_match_threshold_of_one_exits_2(tmp_path, capsys, command):
    # at r = 1 no overlap can exceed a full community, so nothing could ever match
    p0, p1, _, _ = _write_pair(tmp_path)
    part, tl = tmp_path / "part.tsv", tmp_path / "tl"
    assert main(["detect", "--graph", str(p0), "-o", str(part)]) == 0
    assert main(["track", "--timeline", str(tl), "--add", str(p0)]) == 0
    argv = {
        "compare": ["compare", "--prev", str(part), "--next", str(part)],
        "track": ["track", "--timeline", str(tl), "--add", str(p1)],
        "sweep": ["sweep", "--graph-t", str(p0), "--graph-t1", str(p1), "-o", str(tmp_path / "s.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--r", "1.0"]) == 2
    assert "matching threshold r must be in (0.5, 1), got 1.0" in capsys.readouterr().err
    assert json.loads((tl / "meta.json").read_text())["n_steps"] == 1


def test_track_rejects_empty_first_snapshot(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no edges\n", encoding="utf-8")
    tl_dir = tmp_path / "tl"
    rc = main(["track", "--timeline", str(tl_dir), "--add", str(empty)])
    assert rc == 2
    assert "no nodes" in capsys.readouterr().err
    assert not tl_dir.exists()


def _track_run(tl_dir, syn, steps):
    for k in steps:
        extra = [] if k == 0 else ["--p", "0.5", "--q", "0.25"]
        rc = main(["track", "--timeline", str(tl_dir), "--add",
                   str(syn / f"step_{k}.graph.tsv"), "--seed", "7"] + extra)
        assert rc == 0


def _synth_steps(out, steps):
    assert main(["synth", "--nodes", "100", "--communities", "5", "--p-in", "0.35",
                 "--p-out", "0.02", "--churn", "0.1", "--migrate", "0.05",
                 "--steps", str(steps), "--seed", "8", "-o", str(out)]) == 0


def test_track_after_interrupted_append_matches_uninterrupted(tmp_path, monkeypatch):
    syn = tmp_path / "syn"
    _synth_steps(syn, 4)
    clean = tmp_path / "clean"
    _track_run(clean, syn, range(4))

    tl_dir = tmp_path / "tl"
    _track_run(tl_dir, syn, range(2))
    real_replace = errors.os.replace
    with monkeypatch.context() as m:
        def boom(src, dst):  # fails the commit alone, after the step files and history rows
            if os.path.basename(dst) == "meta.json":
                raise OSError("rename failed")
            real_replace(src, dst)

        m.setattr(errors.os, "replace", boom)
        rc = main(["track", "--timeline", str(tl_dir), "--add",
                   str(syn / "step_2.graph.tsv"), "--seed", "7", "--p", "0.5", "--q", "0.25"])
    assert rc == 2
    assert json.loads((tl_dir / "meta.json").read_text())["n_steps"] == 2
    _track_run(tl_dir, syn, range(2, 4))
    files = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
    assert files(tl_dir) == files(clean)


@pytest.mark.parametrize("text", ["", '{"n_steps": 2, "snap', "[]"])
def test_track_garbled_meta_exits_2(tmp_path, text):
    syn = tmp_path / "syn"
    _synth_steps(syn, 2)
    tl_dir = tmp_path / "tl"
    _track_run(tl_dir, syn, [0])
    (tl_dir / "meta.json").write_text(text, encoding="utf-8")
    rc = main(["track", "--timeline", str(tl_dir), "--add", str(syn / "step_1.graph.tsv")])
    assert rc == 2


@pytest.fixture(scope="module")
def three_step_timeline(tmp_path_factory):
    """A 3-step timeline built by `track`, and the 4-step synth it came from."""
    root = tmp_path_factory.mktemp("three_steps")
    _synth_steps(root / "syn", 4)
    _track_run(root / "tl", root / "syn", range(3))
    return root


def _edit(name, change):
    """Damage a timeline's file ``name``: rewrite it as ``change`` of its lines."""
    def damage(d):
        lines = (d / name).read_text(encoding="utf-8").splitlines(True)
        (d / name).write_text("".join(change(lines)), encoding="utf-8")
    return damage


@pytest.mark.parametrize("damage, code, message", [
    (_edit("history.jsonl", lambda rows: rows[:1]), 2, "inconsistent: 3 steps but 1 history rows"),
    (_edit("history.jsonl", lambda rows: ["not json\n", *rows[1:]]), 2, "unreadable history row"),
    (lambda d: (d / "step_1.graph.tsv").unlink(), 2, "missing files for step 1"),
    (_edit("step_2.partition.tsv", lambda rows: ["n0\tnot-a-label\n"]), 2, "step_2.partition.tsv:1"),
    # an append reads only the last partition: an earlier one fails only where it is used
    (_edit("step_0.partition.tsv", lambda rows: ["n0\tnot-a-label\n"]), 0, "step 3 appended"),
], ids=["history-cut", "history-not-json", "step-file-missing", "last-partition-garbled",
        "earlier-partition-garbled"])
def test_track_on_a_damaged_timeline(three_step_timeline, tmp_path, capsys, damage, code, message):
    tl_dir = tmp_path / "tl"
    shutil.copytree(three_step_timeline / "tl", tl_dir)
    damage(tl_dir)
    digests = lambda: {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tl_dir.iterdir()}
    before = digests()
    capsys.readouterr()
    rc = main(["track", "--timeline", str(tl_dir), "--add", str(three_step_timeline / "syn" / "step_3.graph.tsv"),
               "--seed", "7", "--p", "0.5"])
    assert (rc, message in capsys.readouterr().err) == (code, True)
    after = digests()
    if code:
        assert after == before
    else:
        assert all(after[name] == digest for name, digest in before.items() if name.startswith("step_"))
        assert {"step_3.graph.tsv", "step_3.partition.tsv"} <= set(after)
        assert json.loads((tl_dir / "meta.json").read_text())["n_steps"] == 4


def test_ingest_command(tmp_path):
    cdr = tmp_path / "x.csv"
    cdr.write_text(
        "origin,target,timestamp,kind,duration_s\n"
        "A,B,2012-03-05T10:00:00,call,62\n"
        "B,A,2012-02-10T09:00:00,sms,0\n"
        "A,C,2012-03-01T08:00:00,call,10\n",
        encoding="utf-8",
    )
    out = tmp_path / "g.tsv"
    rc = main(["ingest", "--cdr", str(cdr), "--month", "2012-03", "-o", str(out)])
    assert rc == 0
    g = read_edge_tsv(out)
    assert sorted(g.ids.ids) == ["A", "B"]
    assert g.n_edges == 1


def test_ingest_skips_the_header_of_every_input_file(tmp_path, capsys):
    header = "origin,target,timestamp,kind,duration_s\n"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(header + "A,B,2012-03-05T10:00:00,call,62\nB,A,2012-02-10T09:00:00,sms,0\n", encoding="utf-8")
    b.write_text(header + "A,C,2012-03-01T08:00:00,call,10\nC,A,2012-03-02T08:00:00,sms,0\n", encoding="utf-8")
    out = tmp_path / "g.tsv"
    rc = main(["ingest", "--cdr", str(a), str(b), "--month", "2012-03", "--max-rejected", "0", "-o", str(out)])
    assert rc == 0
    assert "4 records kept (0 rejected, 0 outside window)" in capsys.readouterr().err
    assert read_edge_tsv(out).n_edges == 2


@pytest.mark.parametrize("header", ["", "origin,target,timestamp,kind,duration_s\n"])
def test_ingest_reads_past_a_byte_order_mark(tmp_path, capsys, header):
    # the BOM is no part of line 1: a header after it is still a header, and a
    # first record's origin is the id "a" that the other records name
    body = header + "a,b,2012-03-05T10:00:00,call,62\nb,a,2012-03-06T10:00:00,sms,0\na,b,2012-03-07T10:00:00,call,5\n"
    runs = set()
    for name, tokens in cdr_backends().items():
        for bom in ("", "\ufeff"):
            cdr, out = tmp_path / "x.csv", tmp_path / f"{name}{len(bom)}.tsv"
            cdr.write_text(bom + body, encoding="utf-8")
            argv = ["ingest", "--cdr", str(cdr), "--month", "2012-03", "--max-rejected", "0", "--weight", "comm_count"]
            with mock.patch.object(ingest, "_cdr_tokens", tokens):
                assert main([*argv, "-o", str(out)]) == 0
            runs.add((out.read_bytes(), capsys.readouterr().err))
    (edges, err), = runs
    assert edges == b"a\tb\t3\n"
    assert "3 records kept (0 rejected, 0 outside window), 2 directed pairs" in err


def test_ingest_timestamp_converting_outside_years_1_to_9999(tmp_path, capsys):
    # both instants leave years 1..9999 when converted to UTC
    cdr = tmp_path / "x.csv"
    cdr.write_text(
        "A,B,0001-01-01T00:00:00+05:00,call,62\n"
        "B,A,9999-12-31T23:00:00-05:00,sms,0\n",
        encoding="utf-8",
    )
    out = tmp_path / "g.tsv"
    assert main(["ingest", "--cdr", str(cdr), "--month", "2012-03", "-o", str(out)]) == 0
    assert "2 records kept (0 rejected, 2 outside window)" in capsys.readouterr().err
    assert read_edge_tsv(out).n == 0


@pytest.mark.parametrize("bad", ["#a", "a\tb"])
def test_ingest_id_that_cannot_be_read_back_exits_2(tmp_path, capsys, bad):
    # read_edge_tsv would take "#a<TAB>b<TAB>1" for a comment and split "a<TAB>b"
    cdr = tmp_path / "x.csv"
    cdr.write_text(
        f"{bad},b,2012-03-05T10:00:00,call,62\n"
        f"b,{bad},2012-03-06T10:00:00,sms,0\n"
        "c,d,2012-03-05T10:00:00,call,1\n"
        "d,c,2012-03-07T10:00:00,call,1\n",
        encoding="utf-8",
    )
    out = tmp_path / "g.tsv"
    assert main(["ingest", "--cdr", str(cdr), "--month", "2012-03", "-o", str(out)]) == 2
    assert not out.exists()
    assert repr(bad) in capsys.readouterr().err


@pytest.mark.parametrize("month", ["10000-01", "0-12"])
def test_ingest_anchor_year_outside_1_to_9999_exits_2(tmp_path, month):
    cdr = tmp_path / "x.csv"
    cdr.write_text("A,B,2012-03-05T10:00:00,call,62\n", encoding="utf-8")
    assert main(["ingest", "--cdr", str(cdr), "--month", month, "-o", str(tmp_path / "g.tsv")]) == 2


def test_exit_code_2_on_bad_input(tmp_path):
    rc = main(["detect", "--graph", str(tmp_path / "missing.tsv"),
               "-o", str(tmp_path / "o.tsv")])
    assert rc == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tnotaweight\n", encoding="utf-8")
    rc = main(["detect", "--graph", str(bad), "-o", str(tmp_path / "o.tsv")])
    assert rc == 2


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_detect_non_finite_weight_exits_2(tmp_path, weight):
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"a\tb\t1\nb\tc\t{weight}\n", encoding="utf-8")
    out = tmp_path / "o.tsv"
    assert main(["detect", "--graph", str(bad), "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "compare", "track"])
def test_weight_sum_whose_square_overflows_exits_2(tmp_path, capsys, command):
    graph = tmp_path / "huge.tsv"
    graph.write_text("a\tb\t1e308\nb\ta\t1e308\n", encoding="utf-8")
    part = tmp_path / "part.tsv"
    part.write_text("a\t0\nb\t0\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {
        "detect": ["detect", "--graph", str(graph), "-o", str(out)],
        "compare": ["compare", "--prev", str(part), "--next", str(part), "--graph", str(graph),
                    "-o", str(out)],
        "track": ["track", "--timeline", str(out), "--add", str(graph)],
    }[command]
    assert main(args) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def _joined_triangles(path, w):
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    path.write_text("".join(f"{u}\t{v}\t{w!r}\n" for u, v in edges), encoding="utf-8")


@pytest.mark.parametrize("command", ["detect", "track", "sweep"])
def test_weight_sum_whose_square_underflows_exits_2(tmp_path, capsys, command):
    # every move score w_s*2m - k_u*tot_s would round to 0, so detection
    # would return singletons with exit 0
    graph = tmp_path / "tiny.tsv"
    _joined_triangles(graph, 1e-200)
    out = tmp_path / "out"
    args = {
        "detect": ["detect", "--graph", str(graph), "-o", str(out)],
        "track": ["track", "--timeline", str(out), "--add", str(graph)],
        "sweep": ["sweep", "--graph-t", str(graph), "--graph-t1", str(graph), "--p", "0,50", "--q", "0",
                  "--seeds", "1", "-o", str(out)],
    }[command]
    assert main(args) == 2
    assert "2m = 1.4e-199" in capsys.readouterr().err
    assert not out.exists()


def test_small_weights_above_the_underflow_bound_still_detect(tmp_path, capsys):
    graph = tmp_path / "small.tsv"
    _joined_triangles(graph, 1e-153)
    out = tmp_path / "part.tsv"
    assert main(["detect", "--graph", str(graph), "-o", str(out)]) == 0
    assert len(set(read_partition_tsv(out).labels.tolist())) == 2


@pytest.mark.parametrize("command", ["detect", "compare"])
def test_partition_label_outside_int64_exits_2(tmp_path, capsys, command):
    p0, _, g0, _ = _write_pair(tmp_path)
    part = tmp_path / "prev.tsv"
    ids = g0.ids.ids
    part.write_text("".join(f"{x}\t0\n" for x in ids[1:]) + f"{ids[0]}\t99999999999999999999\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    args = {
        "detect": ["detect", "--graph", str(p0), "--prev-partition", str(part), "-o", str(out)],
        "compare": ["compare", "--prev", str(part), "--next", str(part), "-o", str(out)],
    }[command]
    assert main(args) == 2
    assert f"{part}:{len(ids)}: label" in capsys.readouterr().err
    assert not out.exists()


def test_detect_fresh_label_past_int64_exits_2(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("a\tb\nb\tc\n", encoding="utf-8")
    part = tmp_path / "prev.tsv"
    part.write_text(f"a\t0\nb\t{2**63 - 1}\n", encoding="utf-8")
    out = tmp_path / "o.tsv"
    assert main(["detect", "--graph", str(graph), "--prev-partition", str(part), "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--p", "0.5"], ["--q", "0.25"], ["--p", "0"]])
def test_detect_stability_flag_without_prev_partition_exits_2(tmp_path, flag):
    p0, _, _, _ = _write_pair(tmp_path)
    out = tmp_path / "o.tsv"
    assert main(["detect", "--graph", str(p0), "-o", str(out)] + flag) == 2
    assert not out.exists()


def test_exit_code_3_on_internal_invariant(tmp_path, monkeypatch):
    p0, p1, _, _ = _write_pair(tmp_path)

    def boom(*args, **kwargs):
        raise InternalInvariantError("cached state drifted")

    monkeypatch.setattr(cli, "run_sweep", boom)
    rc = main(["sweep", "--graph-t", str(p0), "--graph-t1", str(p1),
               "--p", "0", "--q", "0", "--seeds", "1", "-o", str(tmp_path / "o.csv")])
    assert rc == 3


def _spoil(path):
    """Append a line holding a byte that is not UTF-8."""
    with open(path, "ab") as fh:
        fh.write(b"n\xff1\tn2\n")


def test_ingest_non_utf8_exits_2(tmp_path, capsys):
    cdr = tmp_path / "x.csv"
    cdr.write_bytes(b"A,B,2012-03-05T10:00:00,call,62\nB,\xffA,2012-03-05T10:00:00,call,1\n")
    out = tmp_path / "g.tsv"
    rc = main(["ingest", "--cdr", str(cdr), "--month", "2012-03", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(cdr) in err and "UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_detect_non_utf8_exits_2(tmp_path, capsys):
    p0, _, _, _ = _write_pair(tmp_path)
    _spoil(p0)
    out = tmp_path / "o.tsv"
    assert main(["detect", "--graph", str(p0), "-o", str(out)]) == 2
    assert str(p0) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reader", ["prev-partition", "compare", "graph-t", "graph-t1", "track-add",
                                    "timeline-partition"])
def test_every_cli_reader_reports_non_utf8_as_input_error(tmp_path, capsys, reader):
    p0, p1, _, _ = _write_pair(tmp_path)
    part = tmp_path / "p0.tsv"
    assert main(["detect", "--graph", str(p0), "-o", str(part)]) == 0
    out = tmp_path / "o"
    tl_dir = tmp_path / "tl"
    if reader.startswith("timeline"):
        assert main(["track", "--timeline", str(tl_dir), "--add", str(p0)]) == 0
    bad, argv = {
        "prev-partition": (part, ["detect", "--graph", str(p1), "--prev-partition", str(part), "-o", str(out)]),
        "compare": (part, ["compare", "--prev", str(part), "--next", str(part)]),
        "graph-t": (p0, ["sweep", "--graph-t", str(p0), "--graph-t1", str(p1), "-o", str(out)]),
        "graph-t1": (p1, ["sweep", "--graph-t", str(p0), "--graph-t1", str(p1), "-o", str(out)]),
        "track-add": (p1, ["track", "--timeline", str(tl_dir), "--add", str(p1)]),
        "timeline-partition": (tl_dir / "step_0.partition.tsv",
                               ["track", "--timeline", str(tl_dir), "--add", str(p1)]),
    }[reader]
    _spoil(bad)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


class _DiskFull:
    """A file that takes half of the first write and then fails it, as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["ingest", "detect", "compare", "sweep", "synth", "track"])
@pytest.mark.parametrize("old", [None, b"old bytes\n"])
def test_a_write_cut_short_leaves_the_old_output(tmp_path, monkeypatch, capsys, command, old):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    p0, p1, _, _ = _write_pair(inp)
    cdr = inp / "x.csv"
    cdr.write_text("A,B,2012-03-05T10:00:00,call,62\nB,A,2012-03-10T09:00:00,sms,0\n", encoding="utf-8")
    assert main(["detect", "--graph", str(p0), "-o", str(inp / "p0.tsv")]) == 0
    assert main(["detect", "--graph", str(p1), "-o", str(inp / "p1.tsv")]) == 0
    target = out / "result"
    argv = {
        "ingest": ["ingest", "--cdr", str(cdr), "--month", "2012-03", "-o", str(target)],
        "detect": ["detect", "--graph", str(p0), "-o", str(target)],
        "compare": ["compare", "--prev", str(inp / "p0.tsv"), "--next", str(inp / "p1.tsv"), "-o", str(target)],
        "sweep": ["sweep", "--graph-t", str(p0), "--graph-t1", str(p1), "-o", str(target)],
        "synth": ["synth", "--nodes", "40", "--communities", "2", "--p-in", "0.3", "--p-out", "0.02",
                  "-o", str(out)],
        "track": ["track", "--timeline", str(out), "--add", str(p1)],
    }[command]
    if command in ("synth", "track"):  # a directory of outputs: its committed state is the old one
        if old is not None:
            assert main(["track", "--timeline", str(out), "--add", str(p0)] if command == "track" else argv) == 0
            if command == "track":
                argv += ["--p", "0.5"]
    elif old is not None:
        target.write_bytes(old)
    before = _tree(out)
    real_open = open
    monkeypatch.setattr(errors, "open", lambda *a, **k: _DiskFull(real_open(*a, **k)), raising=False)
    capsys.readouterr()
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert _tree(out) == before  # old bytes or no file, and no temporary file left


def test_an_output_through_a_symlink_replaces_the_file_it_names(tmp_path):
    p0, _, _, _ = _write_pair(tmp_path)
    want, real, link = tmp_path / "want.tsv", tmp_path / "real.tsv", tmp_path / "link.tsv"
    assert main(["detect", "--graph", str(p0), "-o", str(want)]) == 0
    real.write_bytes(b"old bytes\n")
    real.chmod(0o640)
    link.symlink_to(real.name)
    assert main(["detect", "--graph", str(p0), "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == want.read_bytes()
    assert real.stat().st_mode & 0o777 == 0o640  # the replaced file keeps its permission bits
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g0.tsv", "g1.tsv", "link.tsv", "real.tsv", "want.tsv"]


def test_an_output_that_is_a_pipe_is_written_in_place(tmp_path):
    p0, p1, _, _ = _write_pair(tmp_path)
    for name, p in (("p0", p0), ("p1", p1)):
        assert main(["detect", "--graph", str(p), "-o", str(tmp_path / f"{name}.tsv")]) == 0
    argv = ["compare", "--prev", str(tmp_path / "p0.tsv"), "--next", str(tmp_path / "p1.tsv"), "-o"]
    assert main(argv + [str(tmp_path / "want.json")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that opening it to write does not block
    try:
        assert main(argv + [str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert got == (tmp_path / "want.json").read_bytes()
    assert fifo.is_fifo()


def test_an_output_that_cannot_be_made_is_reported_by_its_path(tmp_path, capsys):
    p0, _, _, _ = _write_pair(tmp_path)
    target = tmp_path / "missing" / "part.tsv"
    assert main(["detect", "--graph", str(p0), "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err
