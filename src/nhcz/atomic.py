"""Atomic file replacement and the canonical JSON layout, shared by every
artifact writer.

Kept free of nhcz imports so that ``geometry`` and all later modules can use
it without an import cycle.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path, newline=None):
    """Text handle on a temporary file beside ``path``.

    A clean exit moves the file onto ``path``; an exception removes it and
    leaves any existing ``path`` untouched.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def canonical_dumps(obj) -> str:
    """``obj`` (plain JSON types) in the canonical layout of every JSON
    artifact: sorted keys, compact separators and a trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
