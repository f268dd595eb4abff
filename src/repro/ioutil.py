"""Atomic file outputs: temp-file-in-place + ``os.replace``.

Every artifact the harness emits (sweep/chaos JSONL, fleet reports,
perf ledgers, markdown reports, recorded traces, checkpoint spool
entries) is written through these helpers so an
interrupt — Ctrl-C, OOM kill, power loss — can never leave a torn file
behind: readers either see the complete previous version or the
complete new one, never a prefix.

The temp file lives in the *same directory* as the target (``rename``
is only atomic within a filesystem), is flushed and fsync'd before the
rename, and is unlinked on any failure path.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, TextIO


@contextmanager
def atomic_output(path: str, encoding: str = "utf-8") -> Iterator[TextIO]:
    """A writable handle whose contents replace ``path`` atomically.

    The handle points at a temp file next to the target.  On clean exit
    the temp file is flushed, fsync'd, and renamed over ``path``; on
    any exception (including ``KeyboardInterrupt``) it is removed and
    the target is left untouched.
    """
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(
        dir=directory,
        prefix=os.path.basename(target) + ".",
        suffix=".tmp",
    )
    handle = os.fdopen(fd, "w", encoding=encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, target)
    except BaseException:
        try:
            handle.close()
        except OSError:
            pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text``."""
    with atomic_output(path) as handle:
        handle.write(text)


def atomic_write_json(
    path: str,
    payload,
    indent=2,
    sort_keys: bool = True,
    trailing_newline: bool = True,
) -> None:
    """Atomically replace ``path`` with the JSON form of ``payload``."""
    with atomic_output(path) as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        if trailing_newline:
            handle.write("\n")


__all__ = ["atomic_output", "atomic_write_text", "atomic_write_json"]
