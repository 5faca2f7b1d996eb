"""Output plumbing: atomic file writes, CSV and JSON text."""

from __future__ import annotations

import contextlib
import os
import stat
import tempfile
from collections.abc import Iterable, Iterator

SCHEMA_VERSION = 1


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path by renaming a finished temporary file
    over it; each chunk is written as it is made.

    A symlink's target is what gets replaced, and a path that exists but is
    not a regular file (a FIFO, a device) is written through, not replaced,
    once every chunk is made.  A replaced file keeps its mode; a new one
    gets the mode that open(path, "w") would give it, 0o666 less the umask.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with _spooled(chunks) as spool, open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(spool)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _spooled(chunks: Iterable[str]) -> Iterator[Iterable[str]]:
    """The chunks written to an anonymous temporary file and read back: an
    error while they are made leaves nothing to copy."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(chunks)
        spool.seek(0)
        yield spool


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def render_json(fields: dict) -> str:
    """`fields` with `schema_version` added, as indented JSON."""
    import json
    payload = {"schema_version": SCHEMA_VERSION, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(columns: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """A header line of `columns`, then one line per tuple in `rows`, whose
    values are in column order.  None is an empty cell and a list is its
    items joined by spaces."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"
