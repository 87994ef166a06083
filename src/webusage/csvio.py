"""The package's CSV dialect, its unreadable-row error, and its one writer.

Every CSV file the package writes is built from :func:`cell` and :func:`row`,
and every one it reads goes through :func:`rows`.  The dialect is RFC 4180's
with ``\\n`` line ends: a cell holding a character of :data:`QUOTE_TRIGGERS`
is quoted and each ``"`` in it doubled; any other cell, NUL included, is
written as it is.  Every output file, CSV or not, is written through
:func:`replacing`, so it appears whole or not at all.
"""

from __future__ import annotations

import csv
import os
import re
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class RowError(ValueError):
    """A row of an input file that cannot be read: the reason, the row's
    1-based line (the last of a row that spans several) when known, and
    the file's ``label`` (``users file PATH``) once a caller sets it."""

    label: str | None = None

    def __init__(self, reason: str, line_no: int | None = None):
        super().__init__(reason)
        self.reason, self.line_no = reason, line_no

    def __str__(self) -> str:
        if self.line_no is None:
            return self.reason
        return f"{self.label + ' ' if self.label else ''}line {self.line_no}: {self.reason}"


# The characters that make a cell quoted; :func:`cell` spells them out.
QUOTE_TRIGGERS = (",", '"', "\n", "\r")


@lru_cache(maxsize=1024)
def cell(text: str) -> str:
    """``text`` as one cell of a row."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def row(values: Iterable[object]) -> str:
    """One ``\\n``-terminated line: ``None`` is an empty cell, a ``str`` goes
    through :func:`cell`, anything else is its ``str()`` (a float's repr)."""
    return ",".join([
        "" if v is None else cell(v) if isinstance(v, str) else str(v) for v in values
    ]) + "\n"


def flag(text: str, name: str) -> bool:
    """A 0/1 cell as a bool; a cell that is no integer keeps ``int``'s reason."""
    if text != "0" and text != "1":
        int(text)
        raise ValueError(f"{name} must be 0 or 1, got {text!r}")
    return text == "1"


def check_width(cells: Sequence[str], width: int, line_no: int) -> None:
    if len(cells) != width:
        raise RowError(f"expected {width} columns, got {len(cells)}", line_no)


def rows(stream: Iterable[str], header: Sequence[str] | None = None
         ) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, row)`` for each non-empty row.  With ``header``, the
    first row must equal it and every later row must be as wide."""
    reader = csv.reader(stream)
    width = None if header is None else len(header)
    try:
        if width is not None and next(reader, None) != list(header):
            raise RowError(f"expected header {','.join(header)}", max(reader.line_num, 1))
        for cells in reader:
            if cells:
                if width is not None and len(cells) != width:
                    check_width(cells, width, reader.line_num)
                yield reader.line_num, cells
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise RowError(str(exc), reader.line_num) from None


@contextmanager
def replacing(target: str | os.PathLike) -> Iterator[Path]:
    """Yield ``.NAME.PID.tmp`` beside ``target``, moved onto it on a clean exit
    and removed on an error, once each ``.NAME.<digits>.tmp[-journal]`` a
    killed run left there is removed.  A symlink's file is replaced and the
    link kept; a target that exists but is no regular file is refused."""
    path = Path(os.path.realpath(target))
    if path.exists() and not path.is_file():
        raise OSError(f"{target} is not a regular file")
    stale = re.compile(rf"\.{re.escape(path.name)}\.[0-9]+\.tmp(-journal)?")
    for old in path.parent.iterdir() if path.parent.is_dir() else ():
        if stale.fullmatch(old.name):
            old.unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = os.fspath(target)  # name the file asked for, not its stand-in
        raise
    os.replace(tmp, path)
