"""Embedded relational log store.

Five tables mirror the collection data model: ``user_info`` (app-managed
accounts), ``open_sessions`` (live bookkeeping), ``log_geoip`` (country
ranges), ``log_session`` (one row per visit) and ``log_page`` (one row per
pageview, foreign-keyed to its session).  Each table's schema is built from
its record dataclass, whose fields are its columns, in order.  SQLite gives
transactions and referential integrity; a process-wide lock gives
single-writer semantics so the collector can be driven from many request
threads.  A replay runs as one batch (:meth:`LogStore.batch`): its session,
page and open-session writes are buffered and written in chunks with
``executemany``, and its nested scopes, one per event, are marks in the
buffer's undo log rather than savepoints.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sqlite3
import threading
import types
import typing
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from . import csvio
from .enrichment import UNKNOWN, GeoIpRange
from .events import AppPageResult, is_load_time

USER_TYPES = (
    "guest",
    "academic_staff",
    "administrative_staff",
    "contracted_staff",
    "retired_staff",
    "lecturer_nonsigned",
    "student",
    "graduate",
    "unit_mission",
)
GENDERS = ("male", "female", "not_applicable")
NO_GENDER_TYPES = ("guest", "unit_mission")
END_REASONS = ("logout", "timeout")
REFERRAL_CLASSES = ("direct", "internal", "search_engine", "external")

# SQLite's INTEGER range; sqlite3 cannot bind an int outside it.
_INT_MIN, _INT_MAX = -2**63, 2**63 - 1
# A stored time: zero-padded ASCII digits, so text order is time order.
_CANONICAL_DT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")
# JSON's string encoder: a quoted string, escaped as json.dumps escapes it.
_encode_string = json.encoder.encode_basestring


class StorageError(Exception):
    pass


class ConstraintError(StorageError):
    pass


class ForeignKeyError(StorageError):
    pass


class NotFoundError(StorageError):
    pass


class MapFormatError(StorageError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def dt_to_text(value: datetime) -> str:
    if type(value) is not datetime or value.tzinfo is not None:
        raise ConstraintError(f"a stored time must be a naive datetime, got {value!r}")
    return value.isoformat(" ", "seconds")


def text_to_dt(value: str) -> datetime:
    if not _CANONICAL_DT.fullmatch(value):
        raise ValueError(f"time {value!r} is not in the YYYY-MM-DD HH:MM:SS form")
    return datetime.fromisoformat(value)


def serialize_map(m: dict[str, str]) -> str:
    """Canonical text for a string map: JSON with sorted keys.

    Equal maps serialize to identical bytes regardless of insertion order;
    the empty map is exactly ``{}``.
    """
    if not isinstance(m, dict):
        raise ConstraintError(f"map must be a dict, got {type(m).__name__}")
    if not m:
        return "{}"
    # Every type is checked first: the sort would raise its own TypeError on
    # keys that do not compare, and the cache needs hashable items.
    for key, value in m.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ConstraintError("map keys and values must be strings")
    return _map_text(tuple(m.items()))


@lru_cache(maxsize=256)
def _map_text(items: tuple[tuple[str, str], ...]) -> str:
    """The text of a checked map's items.  Cached: a pure function of the
    items, and a visit's cookie and session maps repeat on each of its pages,
    so the maps of the visits active at once fill the cache."""
    # The text json.dumps(m, sort_keys=True, separators=(",", ":"),
    # ensure_ascii=False) gives, built with the string encoder it uses but
    # without the new JSONEncoder it makes on every call.
    enc = _encode_string
    return "{" + ",".join([enc(k) + ":" + enc(v) for k, v in sorted(items)]) + "}"


def deserialize_map(text: str) -> dict[str, str]:
    if text == "{}":
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(exc.msg, exc.pos) from None
    if not isinstance(data, dict):
        raise MapFormatError("expected an object")
    for key, value in data.items():
        if not isinstance(value, str):
            raise MapFormatError(f"value for {key!r} is not a string")
    return data


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class UserInfo:
    user_id: int
    username: str
    user_type: str
    gender: str

    def validate(self) -> None:
        if not self.username:
            raise ConstraintError("username must be non-empty")
        if self.user_type not in USER_TYPES or self.user_type == "guest":
            raise ConstraintError(f"bad user_type for account: {self.user_type!r}")
        _check_gender(self.user_type, self.gender)


def _check_gender(user_type: str, gender: str) -> None:
    if gender not in GENDERS:
        raise ConstraintError(f"bad gender: {gender!r}")
    if user_type in NO_GENDER_TYPES:
        if gender != "not_applicable":
            raise ConstraintError(f"{user_type} records must carry gender not_applicable")
    elif gender == "not_applicable":
        raise ConstraintError(f"{user_type} records must carry male or female")


@dataclass(kw_only=True)
class SessionRecord:
    opn_id: int | None = None
    user_id: int | None = None
    username: str | None = None
    user_type: str = "guest"
    gender: str = "not_applicable"
    ip: str
    country_code: str = UNKNOWN
    browser_name: str = UNKNOWN
    browser_version: str = UNKNOWN
    os_name: str = UNKNOWN
    os_version: str = UNKNOWN
    device_type: str = UNKNOWN
    language: str | None = None
    referrer_url: str | None = None
    referral_class: str = "direct"
    search_engine: str | None = None
    search_keywords: str | None = None
    started_at: datetime
    ended_at: datetime | None = None
    end_reason: str | None = None

    def validate(self) -> None:
        if not self.ip:
            raise ConstraintError("ip must be non-empty")
        if self.user_type not in USER_TYPES:
            raise ConstraintError(f"bad user_type: {self.user_type!r}")
        if (self.user_id is None) != (self.user_type == "guest"):
            raise ConstraintError("user_id absent exactly for guest sessions")
        _check_gender(self.user_type, self.gender)
        if self.referral_class not in REFERRAL_CLASSES:
            raise ConstraintError(f"bad referral_class: {self.referral_class!r}")
        if self.end_reason is not None and self.end_reason not in END_REASONS:
            raise ConstraintError(f"bad end_reason: {self.end_reason!r}")
        if self.ended_at is not None and self.ended_at < self.started_at:
            raise ConstraintError("ended_at before started_at")


@dataclass(kw_only=True)
class PageRecord:
    log_details_id: int | None = None
    log_opn_id: int
    log_uid: int | None = None
    log_username: str | None = None
    log_datetime: datetime
    log_date: date | None = None
    log_server: int = 1
    log_app_service: str = ""
    log_module: str = ""
    log_url: str
    log_web_message: str = ""
    log_subtitle: str = ""
    log_page_title: str = ""
    log_cookie_serialize: dict[str, str] = field(default_factory=dict)
    log_session_serialize: dict[str, str] = field(default_factory=dict)
    log_post_serialize: dict[str, str] = field(default_factory=dict)
    log_get_serialize: dict[str, str] = field(default_factory=dict)
    log_page_load_time: float = 0.0
    log_error_text: str | None = None
    log_url_malformed: bool = False

    def validate(self) -> None:
        if self.log_date is None:
            self.log_date = self.log_datetime.date()
        elif self.log_date != self.log_datetime.date():
            raise ConstraintError("log_date must equal the date of log_datetime")
        if not is_load_time(self.log_page_load_time):
            raise ConstraintError(
                f"log_page_load_time must be a finite number >= 0, got {self.log_page_load_time!r}"
            )
        self.log_page_load_time = float(self.log_page_load_time)


@dataclass
class OpenSession:
    """A token's live state; every other fact of the session is its
    ``log_session`` row's."""

    session_token: str
    opn_id: int
    last_activity: datetime


@dataclass
class LiveSession(OpenSession):
    """An open session with the user of its ``log_session`` row."""

    user_id: int | None
    username: str | None


# ---------------------------------------------------------------------------
# schema and row codecs
# ---------------------------------------------------------------------------

# The SQL type of each field type; any other field type is stored as TEXT.
_SQL_TYPES = {int: "INTEGER", bool: "INTEGER", float: "REAL"}

# (encode, decode) for each field type stored as another SQL value; fields
# of any other type are stored as they are.  NULL passes through both ways.
_CONVERTERS = {
    datetime: (dt_to_text, text_to_dt),
    date: (date.isoformat, date.fromisoformat),
    bool: (int, bool),
    dict: (serialize_map, deserialize_map),
}


def _field_type(hint: Any) -> Any:
    """``X`` for a hint of ``X``, ``X | None`` or ``X[...]``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint) or hint


class _Codec:
    """One table: rows <-> its record dataclass, whose fields are the
    table's columns in order, and the table's ``CREATE`` statement.

    A column is INTEGER, REAL or TEXT by its field's type, and ``NOT NULL``
    unless its field may be ``None`` or it is the primary key; ``constraints``
    maps a column to the SQL its type cannot state.  ``order_by`` is the
    column the export is ordered by, and ``assigned`` the ``AUTOINCREMENT``
    column, if any, whose value the store assigns.  ``encode`` refuses a
    record whose ``assigned`` column is set, runs the record's ``validate``,
    if it has one, and refuses, in a field typed ``int``, ``str`` or
    ``bool``, any value but ``None`` and that exact type, and in a field
    typed ``int`` a value outside SQLite's 64-bit INTEGER range.
    """

    def __init__(self, table: str, record_type: type, order_by: str, **constraints: str):
        hints = typing.get_type_hints(record_type)
        self.names = cols = tuple(f.name for f in dataclasses.fields(record_type))
        kinds = [_field_type(hints[c]) for c in cols]
        self.sql_types = [_SQL_TYPES.get(kind, "TEXT") for kind in kinds]
        self.table = table
        self.record_type = record_type
        self.order_by = order_by
        self.assigned = next((c for c, sql in constraints.items() if "AUTOINCREMENT" in sql), None)
        self._validate = getattr(record_type, "validate", None)
        self.columns = ", ".join(cols)
        marks = ", ".join("?" * len(cols))
        self.insert_sql = f"INSERT INTO {table} ({self.columns}) VALUES ({marks})"
        lines = []
        for col, sql_type in zip(cols, self.sql_types):
            constraint = constraints.get(col, "")
            nullable = type(None) in typing.get_args(hints[col])
            if not nullable and "PRIMARY KEY" not in constraint:
                constraint = f"NOT NULL {constraint}"
            lines.append(f"    {col} {sql_type} {constraint}".rstrip())
        self.create_sql = f"CREATE TABLE IF NOT EXISTS {table} (\n" + ",\n".join(lines) + "\n);"
        self._values = attrgetter(*cols)
        converted = [(i, _CONVERTERS.get(kind)) for i, kind in enumerate(kinds)]
        self._encoders = [(i, conv[0]) for i, conv in converted if conv]
        self._decoders = [(i, conv[1]) for i, conv in converted if conv]
        self._typed = [(i, kind) for i, kind in enumerate(kinds) if kind in (int, str, bool)]
        self._ints = [i for i, kind in self._typed if kind is int]

    def encode(self, rec: Any) -> list:
        if self.assigned is not None and getattr(rec, self.assigned) is not None:
            raise ConstraintError(f"{self.assigned} is assigned by the store")
        if self._validate is not None:
            self._validate(rec)
        row = list(self._values(rec))
        for i, kind in self._typed:
            value = row[i]
            if value is not None and type(value) is not kind:
                what = "an integer" if kind is int else f"a {kind.__name__}"
                raise ConstraintError(f"{self.names[i]} must be {what}, got {value!r}")
        for i in self._ints:
            value = row[i]
            if value is not None and not _INT_MIN <= value <= _INT_MAX:
                raise ConstraintError(
                    f"{self.names[i]} must be an integer in [-2**63, 2**63 - 1], got {value!r}")
        for i, conv in self._encoders:
            if row[i] is not None:
                row[i] = conv(row[i])
        return row

    def decode(self, row: Sequence[Any]) -> Any:
        row = list(row)
        for i, conv in self._decoders:
            if row[i] is not None:
                row[i] = conv(row[i])
        return self.record_type(**dict(zip(self.names, row)))


# Each table, in export order.
_CODECS = {codec.table: codec for codec in (
    _Codec("user_info", UserInfo, "user_id", user_id="PRIMARY KEY", username="UNIQUE"),
    _Codec("log_geoip", GeoIpRange, "start_ip", start_ip="PRIMARY KEY"),
    _Codec("log_session", SessionRecord, "opn_id", opn_id="PRIMARY KEY AUTOINCREMENT"),
    _Codec("open_sessions", OpenSession, "opn_id", session_token="PRIMARY KEY",
           opn_id="UNIQUE REFERENCES log_session(opn_id)"),
    _Codec("log_page", PageRecord, "log_details_id",
           log_details_id="PRIMARY KEY AUTOINCREMENT",
           log_opn_id="REFERENCES log_session(opn_id)",
           log_date="NOT NULL",  # None only until PageRecord.validate fills it
           log_url_malformed="DEFAULT 0"),
)}
TABLE_COLUMNS = {table: codec.names for table, codec in _CODECS.items()}
_UPSERT_USER = " ON CONFLICT(user_id) DO UPDATE SET " + ", ".join(
    f"{c}=excluded.{c}" for c in TABLE_COLUMNS["user_info"][1:])

# One transaction for all the CREATEs, so a new file store pays one journal
# round, not one per statement; the PRAGMA does nothing inside a transaction.
_SCHEMA = "\n".join([
    "PRAGMA foreign_keys = ON;",
    "BEGIN;",
    *(codec.create_sql for codec in _CODECS.values()),
    "CREATE INDEX IF NOT EXISTS idx_page_session ON log_page(log_opn_id);",
    "COMMIT;",
])


def _aliased(alias: str, table: str) -> str:
    """The table's columns in ``TABLE_COLUMNS`` order, qualified by ``alias``."""
    return ", ".join(f"{alias}.{c}" for c in TABLE_COLUMNS[table])


# The open session of one token, then its session's user.
_OPEN_SESSION_SQL = (
    f"SELECT {_aliased('o', 'open_sessions')}, s.user_id, s.username FROM open_sessions o"
    " JOIN log_session s ON s.opn_id = o.opn_id WHERE o.session_token = ?"
)


_CLOSE_SQL = "UPDATE log_session SET ended_at = ?, end_reason = ? WHERE opn_id = ?"


def _next_id_sql(table: str) -> str:
    """The id ``AUTOINCREMENT`` gives the next row of ``table``: one past
    the larger of the highest id ever given and the highest id present."""
    col = _CODECS[table].assigned
    return (f"(SELECT MAX(IFNULL((SELECT seq FROM sqlite_sequence WHERE name = '{table}'), 0),"
            f" IFNULL(MAX({col}), 0)) + 1 FROM {table})")


# What a replay batch reads once, when it opens: the next ids, and every
# open session with its session's start and user.
_NEXT_IDS_SQL = f"SELECT {_next_id_sql('log_session')}, {_next_id_sql('log_page')}"
_OPEN_SESSIONS_SQL = (
    "SELECT o.session_token, o.opn_id, o.last_activity, s.started_at, s.user_id, s.username"
    " FROM open_sessions o JOIN log_session s ON s.opn_id = o.opn_id"
)

# The columns an AppPageResult sets: ``log_<field>`` for each of its fields.
_RESULT_FIELDS = [f.name for f in dataclasses.fields(AppPageResult)]
_RESULT_SQL = (f"UPDATE log_page SET {', '.join(f'log_{f} = ?' for f in _RESULT_FIELDS)}"
               " WHERE log_details_id = ?")
_result_values = attrgetter(*_RESULT_FIELDS)

# Rows per ``stats`` read of a log table: the most cells one concatenation holds.
_STATS_CHUNK = 1024


def _quoted_cells(col: str, text: str) -> str:
    """SQL counting the cells of a TEXT column that the export quotes, where
    ``text`` holds every character of those cells."""
    holds = " OR ".join(f"instr({col}, char({ord(c)}))" for c in csvio.QUOTE_TRIGGERS if c in text)
    return f"COUNT(CASE WHEN {holds} THEN 1 END)"


# ---------------------------------------------------------------------------
# the replay batch
# ---------------------------------------------------------------------------

# Rows a replay batch buffers before it writes them, between two events.
_BATCH_ROWS = 1024
_SESSION_INDEX = {name: i for i, name in enumerate(TABLE_COLUMNS["log_session"])}
_known_fields = itemgetter(_SESSION_INDEX["started_at"], _SESSION_INDEX["user_id"],
                           _SESSION_INDEX["username"])
_ENDED, _REASON = _SESSION_INDEX["ended_at"], _SESSION_INDEX["end_reason"]


def _encodable(value: Any) -> None:
    """Raise the UnicodeEncodeError sqlite3 raises binding a str with a
    lone surrogate, which UTF-8 cannot encode."""
    if type(value) is str and not value.isascii():
        value.encode()


class _RowCheck:
    """What SQLite refuses in a new row of one table before it stores it:
    a lone surrogate in a TEXT cell, when it binds the row, then a NULL in a
    ``NOT NULL`` column of the table as the store file declares it (a column
    the codec does not write is NULL unless it has a default)."""

    def __init__(self, conn: sqlite3.Connection, codec: _Codec):
        index = {name: i for i, name in enumerate(codec.names)}
        self.table = codec.table
        self.not_null = [(index.get(name), name) for _, name, _, not_null, default, _
                         in conn.execute(f"PRAGMA table_info({codec.table})")
                         if not_null and (name in index or default is None)]
        present = [i for i, _ in self.not_null if i is not None]
        self.always = len(present) < len(self.not_null)  # a column that is always NULL
        # itemgetter gives a tuple for two or more indices; a lone one is taken twice.
        self.not_null_cells = itemgetter(*present, *present[:1]) if present else lambda row: ()
        self.text = [i for i, sql_type in enumerate(codec.sql_types) if sql_type == "TEXT"]

    def check(self, row: list) -> None:
        for i in self.text:  # each cell is a str or None
            cell = row[i]
            if cell is not None and not cell.isascii():
                cell.encode()
        if self.always or None in self.not_null_cells(row):
            for i, name in self.not_null:
                if i is None or row[i] is None:
                    raise ConstraintError(f"NOT NULL constraint failed: {self.table}.{name}")


class _Batch:
    """The writes of one replay batch (:meth:`LogStore.batch`), buffered and
    written with ``executemany``.

    ``log_session`` and ``log_page`` rows take their ids from each table's
    next id, read when the batch opens.  A session closed before its row is
    written is closed in the buffered row; one written already, or older
    than the batch, gets a buffered ``UPDATE``.  ``opens`` maps each token
    with an open session to ``(opn_id, last activity text, last activity)``:
    read from ``open_sessions`` when the batch opens, then kept here, and
    written back as the difference from ``stored``, what the table holds.

    Each new row is checked, before it is buffered, for what SQLite would
    refuse when it is written, and fails with SQLite's error: a lone
    surrogate, a NULL in a ``NOT NULL`` column, a page or open session of a
    missing session, and a second open row for a token or a session.  So a
    write fails only on I/O, and then the batch is ``broken``: it writes
    nothing more and rolls back when it exits.

    An event is a nested scope: :meth:`mark` notes where its undo log
    starts, and :meth:`release` undoes the log back to there when the event
    failed.  Rows are written only between events, in chunks of
    ``_BATCH_ROWS``, sessions before the pages that name them; the open
    sessions when the batch commits, or when a read between events needs
    every table as the batch left it.
    """

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn
        (self.next_session, self.next_page), = conn.execute(_NEXT_IDS_SQL)
        self.checks = {table: _RowCheck(conn, _CODECS[table])
                       for table in ("log_session", "open_sessions", "log_page")}
        self.sessions: list[list] = []
        self.pages: list[list] = []
        self.closes: list[tuple] = []  # (ended_at, end_reason, opn_id) of written sessions
        self.unwritten: dict[int, list] = {}  # opn_id -> its buffered row
        self.known: dict[int, tuple] = {}  # opn_id -> (started_at, user_id, username)
        self.opens: dict[str, tuple] = {}
        self.open_ids: dict[int, str] = {}  # opn_id -> token
        for token, opn_id, last_text, *known in conn.execute(_OPEN_SESSIONS_SQL):
            self.opens[token] = (opn_id, last_text, text_to_dt(last_text))
            self.open_ids[opn_id] = token
            self.known[opn_id] = tuple(known)
        self.stored = dict(self.opens)
        self.undo: list = []
        self.marks: list[int] = []
        self.broken: BaseException | None = None

    # -- events ------------------------------------------------------------

    def _refuse_if_broken(self) -> None:
        if self.broken is not None:
            raise StorageError(f"the replay batch could not be written: {self.broken}")

    def mark(self) -> None:
        self._refuse_if_broken()
        self.marks.append(len(self.undo))

    def release(self, failed: bool) -> None:
        mark = self.marks.pop()
        if failed:
            undo = self.undo
            while len(undo) > mark:
                undo.pop()()
        if not self.marks:
            self.undo.clear()
            if len(self.sessions) + len(self.pages) + len(self.closes) >= _BATCH_ROWS:
                self.write_rows()

    def _log(self, undo) -> None:
        if self.marks:  # outside an event only the outer rollback undoes
            self.undo.append(undo)

    # -- writing -------------------------------------------------------------

    def write_rows(self) -> None:
        """Write the buffered sessions, pages and closes."""
        self._refuse_if_broken()
        conn = self.conn
        try:
            if self.sessions:
                conn.executemany(_CODECS["log_session"].insert_sql, self.sessions)
                self.sessions.clear()
                self.unwritten.clear()
            if self.pages:
                conn.executemany(_CODECS["log_page"].insert_sql, self.pages)
                self.pages.clear()
            if self.closes:
                conn.executemany(_CLOSE_SQL, self.closes)
                self.closes.clear()
        except BaseException as exc:
            self.broken = exc
            raise

    def write_all(self) -> None:
        """Write every buffered change, the open sessions' included, so that
        the tables hold what the batch did."""
        self.write_rows()
        opens, stored = self.opens, self.stored
        if opens == stored:
            return
        # A token whose open session is another one is deleted, then inserted.
        same = {t for t, e in opens.items() if t in stored and stored[t][0] == e[0]}
        try:
            self.conn.executemany("DELETE FROM open_sessions WHERE session_token = ?",
                                  [(t,) for t in stored if t not in same])
            self.conn.executemany(
                "UPDATE open_sessions SET last_activity = ? WHERE session_token = ?",
                [(opens[t][1], t) for t in same if opens[t] != stored[t]])
            self.conn.executemany(_CODECS["open_sessions"].insert_sql, [
                (t, e[0], e[1]) for t, e in opens.items() if t not in same])
        except BaseException as exc:
            self.broken = exc
            raise
        self.stored = dict(opens)

    # -- sessions ----------------------------------------------------------

    def _session(self, opn_id: int) -> tuple | None:
        """(started_at, user_id, username) of a session, or None."""
        known = self.known.get(opn_id)
        if known is None:
            known = self.conn.execute("SELECT started_at, user_id, username FROM log_session"
                                      " WHERE opn_id = ?", (opn_id,)).fetchone()
            if known is not None:  # a written row stays
                self.known[opn_id] = known
        return known

    def insert_session(self, rec: SessionRecord) -> int:
        row = _CODECS["log_session"].encode(rec)
        self.checks["log_session"].check(row)
        opn_id = self.next_session
        if opn_id > _INT_MAX:  # AUTOINCREMENT's error past the last id
            raise sqlite3.OperationalError("database or disk is full")
        row[0] = rec.opn_id = opn_id
        self.sessions.append(row)
        self.unwritten[opn_id] = row
        self.known[opn_id] = _known_fields(row)
        self.next_session = opn_id + 1
        self._log(self._undo_session)
        return opn_id

    def _undo_session(self) -> None:
        opn_id = self.sessions.pop()[0]
        del self.unwritten[opn_id], self.known[opn_id]
        self.next_session = opn_id

    def close_session(self, opn_id: int, ended_at: datetime, reason: str) -> None:
        known = self._session(opn_id)
        if known is None:
            raise NotFoundError(f"no session {opn_id}")
        if ended_at < text_to_dt(known[0]):
            raise ConstraintError("ended_at before started_at")
        ended = dt_to_text(ended_at)
        row = self.unwritten.get(opn_id)
        if row is None:
            self.closes.append((ended, reason, opn_id))
            self._log(self.closes.pop)
        else:
            before = row[_ENDED], row[_REASON]
            row[_ENDED], row[_REASON] = ended, reason

            def reopen():
                row[_ENDED], row[_REASON] = before
            self._log(reopen)

    # -- open sessions -----------------------------------------------------

    def _set_open(self, token: str, entry: tuple | None, log: bool = True) -> None:
        """Set the token's open session, or with None close it."""
        before = self.opens.pop(token, None)
        if before is not None:
            del self.open_ids[before[0]]
        if entry is not None:
            self.opens[token] = entry
            self.open_ids[entry[0]] = token
        if log and self.marks:
            self.undo.append(lambda: self._set_open(token, before, log=False))

    def get_open_session(self, token: str) -> LiveSession | None:
        _encodable(token)
        entry = self.opens.get(token)
        if entry is None:
            return None
        opn_id, _, last_activity = entry
        _, user_id, username = self._session(opn_id)
        return LiveSession(token, opn_id, last_activity, user_id, username)

    def put_open_session(self, open_session: OpenSession) -> None:
        row = _CODECS["open_sessions"].encode(open_session)
        self.checks["open_sessions"].check(row)
        token, opn_id, last_text = row
        # SQLite's order: the opn_id's UNIQUE, the token's PRIMARY KEY, then the session.
        if opn_id in self.open_ids:
            raise ConstraintError("UNIQUE constraint failed: open_sessions.opn_id")
        if token in self.opens:
            raise ConstraintError("UNIQUE constraint failed: open_sessions.session_token")
        if self._session(opn_id) is None:
            raise ForeignKeyError("FOREIGN KEY constraint failed")
        self._set_open(token, (opn_id, last_text, open_session.last_activity.replace(microsecond=0)))

    def touch_open_session(self, token: str, last_activity: datetime) -> None:
        last_text = dt_to_text(last_activity)
        _encodable(token)
        entry = self.opens.get(token)
        if entry is None:
            raise NotFoundError(f"no open session for token {token!r}")
        if last_text > entry[1]:
            self._set_open(token, (entry[0], last_text, last_activity.replace(microsecond=0)))

    def delete_open_session(self, token: str) -> bool:
        _encodable(token)
        if token not in self.opens:
            return False
        self._set_open(token, None)
        return True

    def open_sessions_idle_since(self, cutoff: datetime) -> list[OpenSession]:
        cutoff_text = dt_to_text(cutoff)
        idle = [OpenSession(token, opn_id, last_activity)
                for token, (opn_id, last_text, last_activity) in self.opens.items()
                if last_text <= cutoff_text]
        return sorted(idle, key=attrgetter("opn_id"))

    # -- pages ---------------------------------------------------------------

    def insert_page(self, rec: PageRecord) -> int:
        row = _CODECS["log_page"].encode(rec)
        self.checks["log_page"].check(row)
        if row[1] not in self.known and self._session(row[1]) is None:
            raise ForeignKeyError("FOREIGN KEY constraint failed")
        page_id = self.next_page
        if page_id > _INT_MAX:
            raise sqlite3.OperationalError("database or disk is full")
        row[0] = rec.log_details_id = page_id
        self.pages.append(row)
        self.next_page = page_id + 1
        self._log(self._undo_page)
        return page_id

    def _undo_page(self) -> None:
        self.next_page = self.pages.pop()[0]


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class _Transaction:
    """One :meth:`LogStore.transaction` or :meth:`LogStore.batch` scope:
    ``BEGIN IMMEDIATE`` and ``COMMIT``/``ROLLBACK`` at depth 0, and deeper a
    ``nested`` savepoint, or in a replay batch a mark in its undo log.

    A plain class rather than a generator context manager, which costs a
    generator and its frame on every request.  The store's ``_conn`` is looked
    up on entry and exit, not kept, so a wrapper installed after the store
    opened sees the statements.
    """

    __slots__ = ("_store", "_outer", "_batched")

    def __init__(self, store: LogStore, batched: bool = False):
        self._store = store
        self._batched = batched

    def __enter__(self) -> sqlite3.Connection:
        store = self._store
        store._lock.acquire()
        try:
            self._outer = store._depth == 0
            if not self._outer:
                if store._batch is not None:
                    store._batch.mark()
                else:
                    store._conn.execute("SAVEPOINT nested")
            else:
                store._conn.execute("BEGIN IMMEDIATE")
                if self._batched:
                    try:
                        store._batch = _Batch(store._conn)
                    except BaseException:
                        store._conn.execute("ROLLBACK")
                        raise
        except BaseException:
            store._lock.release()
            raise
        store._depth += 1
        return store._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        store = self._store
        conn = store._conn
        batch = store._batch
        try:
            store._depth -= 1
            if not self._outer:
                if batch is not None:
                    batch.release(exc_type is not None)
                else:
                    if exc_type is not None:
                        conn.execute("ROLLBACK TO nested")
                    conn.execute("RELEASE nested")
                return
            store._batch = None
            if exc_type is not None:
                conn.execute("ROLLBACK")
                return
            try:
                if batch is not None:
                    batch.write_all()
                conn.execute("COMMIT")
            except BaseException:
                # A refused COMMIT (another connection still reading) leaves
                # the transaction open: undo it, as for any error.
                conn.execute("ROLLBACK")
                raise
        finally:
            store._lock.release()


class LogStore:
    """Single-writer, multi-reader store over one SQLite connection.

    Every method runs under one lock.  A method that writes with a single
    statement relies on SQLite's own statement atomicity; callers group
    several calls with :meth:`transaction`, and a replay groups its whole
    stream with :meth:`batch`, whose writes are buffered.
    """

    def __init__(self, path: str | Path = ":memory:"):
        # A "file:" URI may carry options, e.g. "?mode=ro" for a read-only store.
        self._conn = sqlite3.connect(str(path), uri=True, check_same_thread=False,
                                     isolation_level=None)
        self._lock = threading.RLock()
        self._depth = 0
        self._batch: _Batch | None = None  # the open replay batch, if any
        try:
            self._conn.executescript(_SCHEMA)
        except BaseException:  # e.g. a read-only file without the tables
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()

    def transaction(self) -> _Transaction:
        """Serialized transaction scope.

        Entering takes the store's lock, which the scope holds until it
        exits; a ``BEGIN IMMEDIATE`` that fails releases it.  An error
        raised through the outer scope, or a ``COMMIT`` SQLite refuses, rolls
        the whole transaction back.  A nested scope is a savepoint inside the
        outer transaction, or a mark in the buffer's undo log inside a
        :meth:`batch`: either way an error raised through it undoes only the
        writes made within it.
        """
        return _Transaction(self)

    def batch(self) -> _Transaction:
        """A :meth:`transaction` scope whose session, page and open-session
        writes are buffered (see ``_Batch``), for a replay.

        Its nested scopes, one per event, are marks in the batch's undo log,
        not savepoints: an error raised through one undoes the writes
        buffered within it.  The other writers write through, undone only
        by the outer scope.  Inside a nested scope only the methods the
        collector calls there see the buffered writes; a read between two
        nested scopes writes them first.  Opened inside another scope, it is
        a nested scope of that one.
        """
        return _Transaction(self, batched=True)

    def _query(self, sql: str, params: Sequence[Any] = ()) -> list:
        with self._lock:
            if self._batch is not None and not self._batch.marks:
                self._batch.write_all()
            return self._conn.execute(sql, params).fetchall()

    def _select(self, table: str, clause: str, params: Sequence[Any] = ()) -> list:
        """Records of ``table`` matching an SQL ``WHERE``/``ORDER BY`` clause."""
        codec = _CODECS[table]
        rows = self._query(f"SELECT {codec.columns} FROM {table} {clause}", params)
        return [codec.decode(row) for row in rows]

    def _insert(self, table: str, *records: Any, suffix: str = "") -> int | None:
        """Encode records and insert them as rows of ``table``.

        A single record gets the id the store assigns it, if its table has
        one, and its row id is returned; any other number of records is one
        ``executemany``.  This is the one place where SQLite integrity
        failures become store errors.
        """
        codec = _CODECS[table]
        rows = list(map(codec.encode, records))
        sql = codec.insert_sql + suffix
        with self._lock:
            try:
                if len(rows) != 1:
                    self._conn.executemany(sql, rows)
                    return None
                row_id = self._conn.execute(sql, rows[0]).lastrowid
            except sqlite3.IntegrityError as exc:
                if "FOREIGN KEY" in str(exc):
                    raise ForeignKeyError(str(exc)) from None
                raise ConstraintError(str(exc)) from None
        if codec.assigned is not None:
            setattr(records[0], codec.assigned, row_id)
        return row_id

    # -- user_info ---------------------------------------------------------

    def upsert_user(self, user: UserInfo) -> None:
        self._insert("user_info", user, suffix=_UPSERT_USER)

    def get_user_by_name(self, username: str) -> UserInfo | None:
        rows = self._select("user_info", "WHERE username = ?", (username,))
        return rows[0] if rows else None

    # -- geoip -------------------------------------------------------------

    def replace_geoip(self, ranges: Iterable[GeoIpRange]) -> int:
        ranges = tuple(ranges)
        with self.transaction() as conn:
            conn.execute("DELETE FROM log_geoip")
            self._insert("log_geoip", *ranges)
        return len(ranges)

    # -- sessions ----------------------------------------------------------

    def insert_session(self, rec: SessionRecord) -> int:
        """Insert a new session and set its ``opn_id``, which the store assigns."""
        with self._lock:
            if self._batch is not None:
                return self._batch.insert_session(rec)
            return self._insert("log_session", rec)

    def close_session(self, opn_id: int, ended_at: datetime, reason: str) -> None:
        if reason not in END_REASONS:
            raise ConstraintError(f"bad end_reason: {reason!r}")
        with self._lock:
            if self._batch is not None:
                return self._batch.close_session(opn_id, ended_at, reason)
            rows = self._query(
                "SELECT started_at FROM log_session WHERE opn_id = ?", (opn_id,)
            )
            if not rows:
                raise NotFoundError(f"no session {opn_id}")
            if ended_at < text_to_dt(rows[0][0]):
                raise ConstraintError("ended_at before started_at")
            self._conn.execute(_CLOSE_SQL, (dt_to_text(ended_at), reason, opn_id))

    def get_session(self, opn_id: int) -> SessionRecord | None:
        rows = self._select("log_session", "WHERE opn_id = ?", (opn_id,))
        return rows[0] if rows else None

    def session_count(self) -> int:
        return self._query("SELECT COUNT(*) FROM log_session")[0][0]

    # -- open sessions -----------------------------------------------------

    def get_open_session(self, token: str) -> LiveSession | None:
        """The open session for a token, with its session's user."""
        with self._lock:
            if self._batch is not None:
                return self._batch.get_open_session(token)
            rows = self._conn.execute(_OPEN_SESSION_SQL, (token,)).fetchall()
        if not rows:
            return None
        # open_sessions in TABLE_COLUMNS order, then the user (a test holds
        # the two orders together)
        session_token, opn_id, last_activity, user_id, username = rows[0]
        return LiveSession(session_token, opn_id, text_to_dt(last_activity), user_id, username)

    def put_open_session(self, open_session: OpenSession) -> None:
        with self._lock:
            if self._batch is not None:
                return self._batch.put_open_session(open_session)
            self._insert("open_sessions", open_session)

    def touch_open_session(self, token: str, last_activity: datetime) -> None:
        with self._lock:
            if self._batch is not None:
                return self._batch.touch_open_session(token, last_activity)
            cur = self._conn.execute(
                "UPDATE open_sessions SET last_activity = MAX(last_activity, ?)"
                " WHERE session_token = ?",
                (dt_to_text(last_activity), token),
            )
            if cur.rowcount == 0:
                raise NotFoundError(f"no open session for token {token!r}")

    def delete_open_session(self, token: str) -> bool:
        with self._lock:
            if self._batch is not None:
                return self._batch.delete_open_session(token)
            cur = self._conn.execute("DELETE FROM open_sessions WHERE session_token = ?", (token,))
            return cur.rowcount > 0

    def open_sessions_idle_since(self, cutoff: datetime) -> list[OpenSession]:
        """Open sessions last active at or before ``cutoff`` taken to the
        whole second, by opn_id."""
        with self._lock:
            if self._batch is not None:
                return self._batch.open_sessions_idle_since(cutoff)
            return self._select(
                "open_sessions", "WHERE last_activity <= ? ORDER BY opn_id", (dt_to_text(cutoff),)
            )

    # -- pages ---------------------------------------------------------------

    def insert_page(self, rec: PageRecord) -> int:
        """Insert a new page and set its ``log_details_id``, which the store
        assigns in insertion order."""
        with self._lock:
            if self._batch is not None:
                return self._batch.insert_page(rec)
            return self._insert("log_page", rec)

    def update_page_result(self, page_id: int, result: AppPageResult) -> None:
        with self._lock:
            if self._batch is not None and not self._batch.marks:
                self._batch.write_all()
            cur = self._conn.execute(_RESULT_SQL, _result_values(result) + (page_id,))
            if cur.rowcount == 0:
                raise NotFoundError(f"no page row {page_id}")

    def page_count(self) -> int:
        return self._query("SELECT COUNT(*) FROM log_page")[0][0]

    def join_sessions_pages(self) -> Iterator[tuple[SessionRecord, PageRecord]]:
        """Inner join of sessions and their pages, ordered by page id."""
        sessions, pages = _CODECS["log_session"], _CODECS["log_page"]
        rows = self._query(
            f"SELECT {_aliased('s', 'log_session')}, {_aliased('p', 'log_page')}"
            " FROM log_session s"
            " JOIN log_page p ON p.log_opn_id = s.opn_id ORDER BY p.log_details_id"
        )
        split = len(TABLE_COLUMNS["log_session"])
        for row in rows:
            yield sessions.decode(row[:split]), pages.decode(row[split:])

    # -- report reads --------------------------------------------------------

    def sessions_with_pages(self) -> list[tuple[SessionRecord, int, int]]:
        """(session, pageview count, dwell seconds) for each session with
        pages, by opn_id; dwell is last page time minus first."""
        rows = self._query(
            f"SELECT {_aliased('s', 'log_session')}, COUNT(*),"
            " strftime('%s', MAX(p.log_datetime)) - strftime('%s', MIN(p.log_datetime))"
            " FROM log_session s JOIN log_page p ON p.log_opn_id = s.opn_id"
            " GROUP BY s.opn_id ORDER BY s.opn_id"
        )
        decode = _CODECS["log_session"].decode
        return [(decode(row[:-2]), row[-2], row[-1]) for row in rows]

    # -- CSV export ----------------------------------------------------------

    def export_table(self, table: str, stream) -> int:
        """Write one table as CSV (header + rows, ordered by its export key)."""
        codec = _CODECS.get(table)
        if codec is None:
            raise ValueError(f"unknown table {table!r}")
        rows = self._query(f"SELECT {codec.columns} FROM {table} ORDER BY {codec.order_by}")
        stream.write(csvio.row(codec.names))
        stream.writelines(map(csvio.row, rows))  # NULL (None) is an empty cell
        return len(rows)

    def export_all(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {table: out / f"{table}.csv" for table in TABLE_COLUMNS}
        for table, path in paths.items():
            with csvio.replacing(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
                self.export_table(table, fh)
        return paths

    # -- stats ---------------------------------------------------------------

    def _log_table_sizes(self) -> dict[str, tuple[int, float]]:
        """Rows and mean exported row bytes (without the row's ``\\n``) of
        the two log tables, read in chunks of at most ``_STATS_CHUNK`` rows.

        A TEXT column exports ``B + Q + 2T`` bytes: the UTF-8 bytes ``B`` of
        its cells, one more for each of their ``Q`` ``"`` (doubled) and two
        for each of the ``T`` cells holding a quote trigger.  One read per
        chunk concatenates each TEXT column; only a column whose
        concatenation holds a trigger is read again, to count ``T``.
        """
        out = {}
        for table in ("log_session", "log_page"):
            codec = _CODECS[table]
            key, columns = codec.order_by, list(zip(codec.names, codec.sql_types))
            texts = [col for col, sql_type in columns if sql_type == "TEXT"]
            reads = [f"group_concat({col}, '')" for col in texts] + [
                f"SUM(length({col}))" for col, sql_type in columns if sql_type == "INTEGER"]
            after = f"FROM {table} WHERE {key} > ?1"
            span = f"{after} AND {key} <= ?2"  # a chunk: primary keys after ?1 up to ?2
            chunk = (f"SELECT COUNT(*), MAX({key}), {', '.join(reads)} {after} AND {key} <="
                     f" (SELECT MAX({key}) FROM (SELECT {key} {after}"
                     f" ORDER BY {key} LIMIT {_STATS_CHUNK}))")
            rows, size, last = 0, 0, float("-inf")  # below every key
            with self._lock:  # no write lands between a chunk's two reads
                while (read := self._query(chunk, (last,))[0])[0]:
                    n, top, *cells = read
                    joined = [text or "" for text in cells[:len(texts)]]
                    size += sum(len(text.encode()) + text.count('"') for text in joined)
                    size += sum(s or 0 for s in cells[len(texts):])
                    quoted = ", ".join(_quoted_cells(col, text) for col, text in zip(texts, joined)
                                       if any(c in text for c in csvio.QUOTE_TRIGGERS))
                    if quoted:
                        size += 2 * sum(self._query(f"SELECT {quoted} {span}", (last, top))[0])
                    rows, last = rows + n, top
            size += (len(columns) - 1) * rows  # the commas
            # The export writes a REAL as Python's repr, not as SQLite's text.
            for col in (col for col, sql_type in columns if sql_type == "REAL"):
                size += sum(len(repr(v)) * n for v, n in self._query(
                    f"SELECT {col}, COUNT(*) FROM {table} WHERE {col} IS NOT NULL GROUP BY 1"
                ))
            out[table] = (rows, size / rows if rows else 0.0)
        return out

    def store_stats(self) -> dict[str, float]:
        sizes = self._log_table_sizes()
        out: dict[str, float] = {}
        for table in TABLE_COLUMNS:
            if table in sizes:
                out[f"rows.{table}"] = sizes[table][0]
            else:
                out[f"rows.{table}"] = self._query(f"SELECT COUNT(*) FROM {table}")[0][0]
        for table, (_, mean) in sizes.items():
            out[f"avg_row_bytes.{table}"] = round(mean, 1)
        return out
