"""The package's one compiled library, built from ``_native.c`` at first import.

It holds five kernels: the level-1 sweep (``commtrack_sweep``, behind
:func:`commtrack.louvain._sweep_c`), the community sums
(``commtrack_community_sums``, behind :func:`commtrack.louvain._sums_c`),
the graph projection (``commtrack_project``, behind
:func:`commtrack.graph._project_c`), the edge and partition TSV tokenizer
(``commtrack_edge_tokens``, behind :func:`commtrack.graph._edge_tokens_c`)
and the CDR line tokenizer (``commtrack_cdr_tokens``, behind
:func:`commtrack.ingest._cdr_tokens_c`).
The library is compiled with ``$CC`` (default ``cc``) into
``${XDG_CACHE_HOME:-~/.cache}/commtrack/``, under a name keyed by the source,
the flags, the interpreter and the machine, and loaded from there through
ctypes. :data:`LIB` is None when no compiler, build or load succeeds; each
caller then runs its pure-Python twin, which computes the same bytes.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import zlib
from pathlib import Path

__all__ = ["LIB", "cache_path"]

_SOURCE = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")  # no FMA, no reassociation
_BUILD_TIMEOUT_S = 120


def _bind(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.commtrack_sweep.restype = i64
    lib.commtrack_sweep.argtypes = [i64] + [ptr] * 7 + [i64] + [ptr] * 5 + [f64] * 2 + [ptr] * 3
    lib.commtrack_community_sums.restype = None
    lib.commtrack_community_sums.argtypes = [i64] + [ptr] * 6 + [i64] + [ptr] * 3
    lib.commtrack_project.restype = i64
    lib.commtrack_project.argtypes = [i64] + [ptr] * 5 + [i64] * 2 + [ptr] * 6
    lib.commtrack_edge_tokens.restype = i64
    lib.commtrack_edge_tokens.argtypes = [ptr, i64] + [ptr, i64, ptr, ptr] * 2 + [ptr] * 4
    lib.commtrack_cdr_tokens.restype = i64
    lib.commtrack_cdr_tokens.argtypes = [ptr, i64, ptr, i64, i64, ptr, i64] + [ptr] * 6
    return lib


def _compile(directory: str, name: str) -> str:
    """Compile ``_native.c`` to ``directory/name`` through a temporary file."""
    import shlex
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        cmd = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS, "-o", tmp, str(_SOURCE)]
        subprocess.run(cmd, check=True, timeout=_BUILD_TIMEOUT_S,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        path = os.path.join(directory, name)
        os.replace(tmp, path)
        return path
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
            return _bind(_compile(cache, name))
        with tempfile.TemporaryDirectory() as scratch:
            return _bind(_compile(scratch, name))
    except (OSError, AttributeError, ValueError, subprocess.SubprocessError):
        return None


LIB = _load()
