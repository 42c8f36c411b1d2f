"""Exception types shared across the package."""

from contextlib import contextmanager

__all__ = ["CommtrackError", "InputError", "InternalInvariantError", "reading_text"]


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
