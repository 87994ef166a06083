"""The package's one CSV dialect, and the form of an unreadable input row.

Every CSV file the package writes comes from :func:`writer`, or from cells
it has encoded (:func:`cell`), and every one it reads goes through
:func:`rows`.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
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


def writer(stream):
    return csv.writer(stream, lineterminator="\n")


@lru_cache(maxsize=1024)
def cell(text: str) -> str:
    """The text of ``text`` as one cell of a wider row, as :func:`writer`
    writes it, except that a cell holding ``\\r`` is always quoted: before
    Python 3.13 the writer leaves it bare and :func:`rows` ends the row
    there.  A cell the writer refuses raises its ``csv.Error``."""
    buf = io.StringIO()
    writer(buf).writerow((text, ""))
    if "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return buf.getvalue()[:-2]


def check_width(row: Sequence[str], width: int, line_no: int) -> None:
    if len(row) != width:
        raise RowError(f"expected {width} columns, got {len(row)}", line_no)


def rows(stream: Iterable[str], header: Sequence[str] | None = None
         ) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, row)`` for each non-empty row.  With ``header``, the
    first row must equal it and every later row must be as wide."""
    reader = csv.reader(stream)
    width = None if header is None else len(header)
    try:
        if width is not None and next(reader, None) != list(header):
            raise RowError(f"expected header {','.join(header)}", max(reader.line_num, 1))
        for row in reader:
            if row:
                if width is not None and len(row) != width:
                    check_width(row, width, reader.line_num)
                yield reader.line_num, row
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise RowError(str(exc), reader.line_num) from None


def _quoted(char: str) -> bool:
    """Whether :func:`writer` quotes a field holding ``char``: on Python
    3.13 it also quotes a lone ``\\r``, so the dialect is probed, not named."""
    buf = io.StringIO()
    try:
        writer(buf).writerow([char])
    except csv.Error:  # NUL, before Python 3.11
        return False
    return buf.getvalue() != f"{char}\n"


# The ASCII characters, the only kind a dialect names, that make a field quoted.
QUOTE_TRIGGERS = tuple(filter(_quoted, map(chr, range(128))))
