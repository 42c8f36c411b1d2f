"""Exception types shared across the package, and what a failed read
reports or a failed write leaves behind."""

import os
import secrets
import stat
from contextlib import contextmanager, suppress

__all__ = ["CommtrackError", "InputError", "InternalInvariantError", "reading_text", "replacing"]


class CommtrackError(Exception):
    """Base class for all commtrack errors."""


class InputError(CommtrackError, ValueError):
    """Invalid user input or violated operation precondition.

    CLI maps this to exit code 2.
    """


class InternalInvariantError(CommtrackError, RuntimeError):
    """A bookkeeping invariant broke; indicates a bug, not bad input.

    CLI maps this to exit code 3.
    """


@contextmanager
def reading_text(path):
    """Report bytes that are not UTF-8, decoded inside the block, as bad
    input naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def replacing(path, mode: str = "wb", **kwargs):
    """Open a new file beside ``path`` for writing, with ``open``'s ``mode``
    (``"w"`` or ``"wb"``) and ``kwargs``, and make it ``path`` once the block
    completes. A write that fails or is interrupted leaves ``path`` with its
    old bytes, or absent, and removes the new file. A block whose bytes
    another writer makes closes the handle and has them written to its name.

    A symlink is written through: the file it names is replaced, the link
    stays. A replaced file keeps its permission bits; a new one gets those
    ``open`` would give it. A ``path`` that exists and is no regular file (a
    terminal, a pipe, a device) is written in place."""
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:
        _report_as(exc, tmp, path)
        raise
    try:
        with fh:
            if old is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(FileNotFoundError):  # a failing linker removes its output
            os.unlink(tmp)
        _report_as(exc, tmp, path)
        raise


def _report_as(exc, tmp, path):
    """Let an error about the temporary file ``tmp`` name ``path`` instead."""
    if getattr(exc, "filename", None) == tmp:
        exc.filename, exc.filename2 = os.fspath(path), None
