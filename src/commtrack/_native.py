"""The package's one compiled library, built from ``_native.c`` at first import.

It holds eight kernels: the level-1 sweep (``commtrack_sweep``, behind
:func:`commtrack.louvain._sweep_c`), the community sums
(``commtrack_community_sums``, behind :func:`commtrack.louvain._sums_c`),
the graph projection (``commtrack_project``, behind
:func:`commtrack.graph._project_c`), the CSR builder that merges an edge
list's loops and parallel entries in input order (``commtrack_build``,
behind :func:`commtrack.graph._build_c`), the edge and partition TSV
tokenizer (``commtrack_edge_tokens``, behind
:func:`commtrack.graph._edge_tokens_c`), the TSV row writer that copies
table entries into tab-separated lines (``commtrack_write_rows``, behind
:func:`commtrack.graph._write_rows_c`), and the CDR line tokenizer
(``commtrack_cdr_tokens``) and id interner (``commtrack_intern``) behind
:class:`commtrack.ingest._CdrTokensC`, which share one id table per run.
The library is compiled with ``$CC`` (default ``cc``) into
``${XDG_CACHE_HOME:-~/.cache}/commtrack/``, under a name keyed by the source,
the flags, the interpreter and the machine, written whole through
:func:`commtrack.errors.replacing` like every other output, and loaded from
there through ctypes. :data:`LIB` is None when no compiler, build or load
succeeds; each caller then runs its pure-Python twin, which computes the
same bytes. :data:`KERNEL` says which body of all eight kernels runs, "c"
or "python". A wrapper runs its kernel through :func:`call`, which passes
each numpy array by its data address; this module alone takes an array's
address.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import replacing

__all__ = ["LIB", "KERNEL", "addresses", "call", "cache_path"]

_SOURCE = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")  # no FMA, no reassociation
_BUILD_TIMEOUT_S = 120


# a kernel's definition in _native.c (result type, name, parameters); _bind
# types a pointer parameter as c_void_p and an int64_t or double as itself
_KERNEL_DEF = re.compile(r"^(int64_t|void) (commtrack_\w+)\(([^)]*)\)", re.M)


def _bind(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    for result, name, params in _KERNEL_DEF.findall(_SOURCE.read_text(encoding="utf-8")):
        fn = getattr(lib, name)
        fn.restype = scalar.get(result)  # None for void
        fn.argtypes = [ctypes.c_void_p if "*" in p else scalar[p.split()[-2]] for p in params.split(",")]
    return lib


def addresses(arrays) -> tuple:
    """The data address of each of the numpy ``arrays``, in order."""
    return tuple(a.ctypes.data for a in arrays)


def call(kernel: str, *args):
    """Run :data:`LIB`'s ``kernel`` on ``args``, each numpy array passed by its data address."""
    return getattr(LIB, kernel)(*[a.ctypes.data if isinstance(a, np.ndarray) else a for a in args])


def _compile(path: str) -> str:
    """Compile ``_native.c`` to ``path``, whole or not at all (see :func:`replacing`)."""
    import shlex
    import subprocess

    with replacing(path) as fh:
        fh.close()  # the compiler writes the file by its name
        cmd = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS, "-o", fh.name, str(_SOURCE)]
        subprocess.run(cmd, check=True, timeout=_BUILD_TIMEOUT_S,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return path


def cache_path() -> str:
    """Where the library built from this source, these flags and this
    interpreter and machine is cached; OSError if the source is missing."""
    # zlib, not hashlib: importing hashlib loads OpenSSL, 3.5 MB of RSS in
    # every process that imports the package
    key = _SOURCE.read_bytes() + repr((_CFLAGS, sys.implementation.cache_tag, platform.machine())).encode()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(cache, "commtrack", f"_native-{zlib.crc32(key):08x}.so")


def _load():
    """The library, loaded from the user cache and built there on a miss;
    None when no compiler, build or load succeeds."""
    try:
        path = cache_path()
    except OSError:
        return None
    try:
        return _bind(path)
    except (OSError, AttributeError):
        pass  # not built yet, or not a loadable library: build it afresh
    import subprocess  # only on a build: it adds 0.5 MB of RSS to every import
    import tempfile

    cache, name = os.path.split(path)
    try:
        os.makedirs(cache, exist_ok=True)
        writable = os.access(cache, os.W_OK)
    except OSError:
        writable = False
    try:
        if writable:
            return _bind(_compile(path))
        with tempfile.TemporaryDirectory() as scratch:
            return _bind(_compile(os.path.join(scratch, name)))
    except (OSError, AttributeError, ValueError, subprocess.SubprocessError):
        return None


LIB = _load()
KERNEL = "python" if LIB is None else "c"
