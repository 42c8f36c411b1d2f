"""Golden bytes: the CLI's id-and-integer outputs on fixed inputs, pinned by sha256.

The inputs are built here with ``random.Random``, whose stream Python keeps
stable, and never with numpy's generators or ``synth``. Only files that hold
ids and integers are hashed: the ingested edge TSV, partition TSVs and the
timeline's graphs, partitions and ``meta.json``. JSON, CSV and stderr that
carry floats are left out, since their last bit may differ between numpy
builds. The digests were recorded at commit a43f75f; a change that alters
one of these files changes what the pipeline computes, and must say so.
"""

import hashlib
import random

import pytest

from commtrack.cli import main

GOLDEN = {
    "ingest.graph.tsv": "7dd87fab4776ea35e87b35173f512e2869210afeb39435910051500f0751ff70",
    "detect_index.partition.tsv": "1e30ad9a31b2c21d5551a6b0cfe0f3b2ecf954b0a43149b4ba1753f10976e238",
    "detect_shuffled.partition.tsv": "400c96aed9cb08dc05e2c6e6adb8879ae60d2e22759ef374fd0091af12407aaa",
    "detect_seeded.partition.tsv": "ed6ab924402c6fe17d085cc7893b4cd234b946536fb09a76eeb0ef46eb8571ec",
    "timeline/meta.json": "899ffbfa101f8854da1543f05752375db68658d1bf7baa7c9702596b6e728018",
    "timeline/step_0.graph.tsv": "76a536a60c4cb7006686ca515445c437aaddf101d8a80e15ff12adbe83908a69",
    "timeline/step_0.partition.tsv": "1e30ad9a31b2c21d5551a6b0cfe0f3b2ecf954b0a43149b4ba1753f10976e238",
    "timeline/step_1.graph.tsv": "af96dbf090cc678765455d8d6d44898dd58ff3bb2369745849f31f354d0cde39",
    "timeline/step_1.partition.tsv": "205f2a71ef280ade626551dfde6036b1fbe9040bee121933063839debd06e5c1",
    "timeline/step_2.graph.tsv": "1da1f21b168df73a788428ebacd25b299460c9bfe24e5e61db1e3ce7fc247436",
    "timeline/step_2.partition.tsv": "bb8f32c1104a6647c342610b16064cd9f7b2b322f2ae509a7ac09a43e82642c1",
}


def _snapshot_texts(n=300, k=10, steps=3, seed=1212):
    """Edge TSVs of a planted partition that churns nodes and migrates a few
    between communities at each step; ids are strings, weights 1 or 2."""
    rng = random.Random(seed)
    home = [rng.randrange(k) for _ in range(n)]
    texts = []
    for _ in range(steps):
        for u in range(n):
            if rng.random() < 0.05:
                home[u] = rng.randrange(k)
        present = [u for u in range(n) if rng.random() >= 0.08]
        lines = []
        linked = set()
        for i, u in enumerate(present):
            for v in present[i + 1:]:
                if rng.random() < (0.12 if home[u] == home[v] else 0.006):
                    w = "2" if rng.random() < 0.2 else "1"
                    lines.append(f"n{u:03d}\tn{v:03d}\t{w}")
                    linked.update((u, v))
        lines += [f"n{u:03d}" for u in present if u not in linked]
        texts.append("\n".join(lines) + "\n")
    return texts


def _cdr_text(n=120, records=4000, seed=77):
    """CDR records over four months, both directions common, with a header,
    a few one-sided and malformed lines, and some hubs for the cap."""
    rng = random.Random(seed)
    lines = ["origin,target,timestamp,kind,duration_s"]
    for _ in range(records):
        a = rng.randrange(n)
        b = rng.randrange(8) if rng.random() < 0.15 else (a + rng.randrange(1, 12)) % n
        if a == b:
            continue
        if rng.random() < 0.5:
            a, b = b, a
        month, day = rng.randrange(1, 5), rng.randrange(1, 29)
        ts = f"2012-{month:02d}-{day:02d}T{rng.randrange(24):02d}:{rng.randrange(60):02d}:00"
        if rng.random() < 0.3:
            lines.append(f"p{a:03d},p{b:03d},{ts},sms,0")
        else:
            lines.append(f"p{a:03d},p{b:03d},{ts},call,{rng.randrange(1, 900)}")
        if rng.random() < 0.01:
            lines.append(f"p{a:03d},p{b:03d},not-a-time,call,5")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    snaps = []
    for t, text in enumerate(_snapshot_texts()):
        path = d / f"s{t}.graph.tsv"
        path.write_text(text, encoding="utf-8")
        snaps.append(str(path))
    cdr = d / "cdr.csv"
    cdr.write_text(_cdr_text(), encoding="utf-8")

    def out(name):
        return str(d / name)

    runs = [
        ["ingest", "--cdr", str(cdr), "--month", "2012-03", "--span", "3", "--cap", "12",
         "--weight", "comm_count", "-o", out("ingest.graph.tsv")],
        ["detect", "--graph", snaps[0], "-o", out("detect_index.partition.tsv")],
        ["detect", "--graph", snaps[0], "--order", "shuffled", "--seed", "3",
         "-o", out("detect_shuffled.partition.tsv")],
        ["detect", "--graph", snaps[1], "--prev-partition", out("detect_shuffled.partition.tsv"),
         "--p", "0", "--q", "0", "-o", out("detect_seeded.partition.tsv")],
        ["track", "--timeline", out("timeline"), "--add", snaps[0], "--seed", "5"],
        ["track", "--timeline", out("timeline"), "--add", snaps[1], "--p", "0", "--q", "0", "--seed", "5"],
        ["track", "--timeline", out("timeline"), "--add", snaps[2], "--p", "0", "--q", "0", "--seed", "5"],
    ]
    codes = [main(argv) for argv in runs]
    return d, codes


def test_golden_runs_succeed(golden_run):
    _, codes = golden_run
    assert codes == [0] * len(codes)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(golden_run, name):
    d, _ = golden_run
    digest = hashlib.sha256((d / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} changed"
