"""Print one sha256 per output of a fixed small CLI corpus, run in-process.

Run it from the repository root, once per body, and diff the two outputs:

    PYTHONPATH=src python tests/cli_digests.py > compiled.txt
    CC=false XDG_CACHE_HOME=$(mktemp -d) PYTHONPATH=src python tests/cli_digests.py > python.txt
    diff compiled.txt python.txt

The corpus runs through ``commtrack.cli.main`` in a temporary directory:
``synth`` (4 steps), ``detect`` in index, shuffled and seeded modes,
``compare --graph -o``, ``sweep`` in both node orders and a 3-step ``track``.
Each line is ``<sha256>  <output>``, in sorted output order; stderr names
the body that ran. The sweep CSVs are hashed over columns 1-6 only, since
the seventh is a wall-clock time. The script exits 1 if a command does not
exit 0.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from commtrack._native import KERNEL
from commtrack.cli import main


def _corpus(d: Path) -> list:
    syn = d / "synth"
    step = [str(syn / f"step_{k}.graph.tsv") for k in range(4)]

    def out(name: str) -> str:
        return str(d / name)

    runs = [
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
    if path.suffix == ".csv":  # drop runtime_ms, the last column
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
