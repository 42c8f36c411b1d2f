"""Print one sha256 per output of a fixed small CLI corpus, run in-process.

Run it from the repository root, once per body, and diff the two outputs:

    PYTHONPATH=src python tests/cli_digests.py > compiled.txt
    CC=false XDG_CACHE_HOME=$(mktemp -d) PYTHONPATH=src python tests/cli_digests.py > python.txt
    diff compiled.txt python.txt

The corpus runs through ``commtrack.cli.main`` in a temporary directory:
``ingest`` of a messy CDR file with ``--weight unit``, and with ``--weight
comm_count --span 2`` and a cap that removes a hub; ``synth`` (4 steps),
``detect`` in index, shuffled and seeded modes, ``compare --graph -o``,
``sweep`` in both node orders and a 3-step ``track``. The CDR file, written
with ``random.Random``, holds each rejection reason, a header mid-file,
blank lines, CRLF endings, a BOM, non-ASCII ids and ids that start with
``o`` or ``O``, and ``Z``, offset, space-separated and fractional
timestamps, one of them on many lines. Each line is ``<sha256>  <output>``,
in sorted output order, the CDR file included; stderr names the body that
ran. The sweep CSVs are hashed over columns 1-6 only, since the seventh is
a wall-clock time. The script exits 1 if a command does not exit 0.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from commtrack._native import KERNEL
from commtrack.cli import main


_REJECTED = [  # one line per rejection reason, in _STATUSES order
    "u1,u2,2012-03-05T10:00:00,call",
    ",u2,2012-03-05T10:00:00,call,5",
    "u3,u3,2012-03-05T10:00:00,sms,0",
    "u1,u2,2012-13-05T10:00:00,call,5",
    "u1,u2,2012-03-05T10:00:00,fax,5",
    "u1,u2,2012-03-05T10:00:00,call,-3",
    "u1,u2,2012-03-05T10:00:00,sms,4",
]


def _write_cdr(path: Path) -> None:
    """A CDR file of about 830 lines over 2012-01 to 2012-04: a hub in
    mutual contact with 40 ids in 2012-03, random calls among 126 ids, and
    every kind of line the validator tells apart."""
    rng = random.Random(29)
    ids = [f"u{k}" for k in range(120)] + ["o1", "O2", "oscar", "\u00e9mile", "z\u00fcrich", "\u4e2d"]

    def stamp() -> str:
        form = rng.randrange(8)
        if form < 3:  # the one timestamp most lines share
            return "2012-03-05T10:00:00"
        day = f"2012-{rng.randint(1, 4):02d}-{rng.randint(1, 28):02d}"
        clock = f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
        return [f"{day}T{clock}", f"{day}T{clock}Z", f"{day}T{clock}+01:00", f"{day}T{clock}-05:00",
                f"{day} {clock}", f"{day}T{clock}.250"][form - 2]

    def record(origin: str, target: str, ts: str) -> str:
        if rng.randrange(4):
            return f"{origin},{target},{ts},call,{rng.randrange(600)}"
        return f"{origin},{target},{ts},{rng.choice(['sms', 'SMS'])},0"

    lines = [record(*pair, f"2012-03-{k % 28 + 1:02d}T08:00:00") for k, x in enumerate(rng.sample(ids, 40))
             for pair in (("hub", x), (x, "hub"))]
    for _ in range(450):
        origin, target = rng.sample(ids, 2)
        lines.append(record(origin, target, stamp()))
        if rng.randrange(3):
            lines.append(record(target, origin, stamp()))
    lines += _REJECTED + [" u4 , u5 ,2012-03-31T23:30:00-05:00, call ,7", "u6,u7,2012-02-29T10:00:00.123456,call,1"]
    rng.shuffle(lines)
    lines[len(lines) // 2:len(lines) // 2] = ["origin,target,timestamp,kind,duration_s", "", "   "]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\ufeff")
        fh.writelines(line + ("\r\n" if k % 5 == 0 else "\n") for k, line in enumerate(lines))


def _corpus(d: Path) -> list:
    syn = d / "synth"
    step = [str(syn / f"step_{k}.graph.tsv") for k in range(4)]

    def out(name: str) -> str:
        return str(d / name)

    cdr = out("calls.csv")
    _write_cdr(Path(cdr))
    runs = [
        ["ingest", "--cdr", cdr, "--month", "2012-03", "--weight", "unit", "-o", out("ingest_unit.graph.tsv")],
        ["ingest", "--cdr", cdr, "--month", "2012-03", "--weight", "comm_count", "--span", "2", "--cap", "20",
         "-o", out("ingest_count.graph.tsv")],
        ["synth", "--nodes", "400", "--communities", "8", "--p-in", "0.08", "--p-out", "0.004",
         "--churn", "0.1", "--migrate", "0.05", "--steps", "4", "--seed", "11", "-o", str(syn)],
        ["detect", "--graph", step[0], "-o", out("detect_index.partition.tsv")],
        ["detect", "--graph", step[0], "--order", "shuffled", "--seed", "3",
         "-o", out("detect_shuffled.partition.tsv")],
        ["detect", "--graph", step[1], "--prev-partition", out("detect_index.partition.tsv"),
         "--p", "0.3", "--q", "0.5", "--seed", "4", "-o", out("detect_seeded.partition.tsv")],
        ["compare", "--prev", out("detect_index.partition.tsv"), "--next", out("detect_seeded.partition.tsv"),
         "--graph", step[1], "-o", out("compare.json")],
    ]
    for order in ("index", "shuffled"):
        runs.append(["sweep", "--graph-t", step[1], "--graph-t1", step[2], "--p", "0,30,100", "--q", "0,50",
                     "--seeds", "1..2", "--order", order, "-o", out(f"sweep_{order}.csv")])
    runs.append(["track", "--timeline", out("timeline"), "--add", step[0], "--seed", "5"])
    for k in (1, 2):
        runs.append(["track", "--timeline", out("timeline"), "--add", step[k],
                     "--p", "0.3", "--q", "0.2", "--seed", "5"])
    return runs


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.startswith("sweep_"):  # drop runtime_ms, the last column
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        failed = 0
        for argv in _corpus(d):
            code = main(argv)
            if code != 0:
                print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
                failed = 1
        print(f"body: {KERNEL}", file=sys.stderr)
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            print(f"{_digest(path)}  {path.relative_to(d).as_posix()}")
    return failed


if __name__ == "__main__":
    sys.exit(main_digests())
