"""Embedded relational log store.

Five tables mirror the collection data model: ``user_info`` (app-managed
accounts), ``open_sessions`` (live bookkeeping), ``log_geoip`` (country
ranges), ``log_session`` (one row per visit) and ``log_page`` (one row per
pageview, foreign-keyed to its session).  SQLite provides transactions and
referential integrity; a process-wide lock gives single-writer semantics so
the collector can be driven from many request threads.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sqlite3
import threading
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .enrichment import UNKNOWN, GeoIpRange
from .events import AppPageResult

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

_DT_FMT = "%Y-%m-%d %H:%M:%S"


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
    return value.strftime(_DT_FMT)


def text_to_dt(value: str) -> datetime:
    return datetime.strptime(value, _DT_FMT)


def serialize_map(m: dict[str, str]) -> str:
    """Canonical text for a string map: JSON with sorted keys.

    Equal maps serialize to identical bytes regardless of insertion order;
    the empty map is exactly ``{}``.
    """
    for key, value in m.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ConstraintError("map keys and values must be strings")
    return json.dumps(m, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def deserialize_map(text: str) -> dict[str, str]:
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


@dataclass
class SessionRecord:
    ip: str
    started_at: datetime
    opn_id: int | None = None
    user_id: int | None = None
    username: str | None = None
    user_type: str = "guest"
    gender: str = "not_applicable"
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


@dataclass
class PageRecord:
    log_opn_id: int
    log_datetime: datetime
    log_url: str
    log_details_id: int | None = None
    log_uid: int | None = None
    log_username: str | None = None
    log_date: date | None = None
    log_server: int = 1
    log_app_service: str = ""
    log_module: str = ""
    log_web_message: str = ""
    log_subtitle: str = ""
    log_page_title: str = ""
    log_cookie_serialize: str = "{}"
    log_session_serialize: str = "{}"
    log_post_serialize: str = "{}"
    log_get_serialize: str = "{}"
    log_page_load_time: float = 0.0
    log_error_text: str | None = None
    log_url_malformed: bool = False

    def validate(self) -> None:
        if self.log_date is None:
            self.log_date = self.log_datetime.date()
        elif self.log_date != self.log_datetime.date():
            raise ConstraintError("log_date must equal the date of log_datetime")
        if self.log_page_load_time < 0:
            raise ConstraintError("log_page_load_time must be >= 0")
        for text in (
            self.log_cookie_serialize,
            self.log_session_serialize,
            self.log_post_serialize,
            self.log_get_serialize,
        ):
            deserialize_map(text)


@dataclass
class OpenSession:
    session_token: str
    opn_id: int
    user_id: int | None
    started_at: datetime
    last_activity: datetime


@dataclass
class LiveSession(OpenSession):
    """An open session with the username of its ``log_session`` row."""

    username: str | None = None


def parse_load_time(text: str) -> float:
    """Parse a load time that may use a decimal comma ("0,0266")."""
    return float(text.strip().replace(",", "."))


# ---------------------------------------------------------------------------
# schema and row codecs
# ---------------------------------------------------------------------------

_SCHEMA = """
PRAGMA foreign_keys = ON;
CREATE TABLE IF NOT EXISTS user_info (
    user_id     INTEGER PRIMARY KEY,
    username    TEXT NOT NULL UNIQUE,
    user_type   TEXT NOT NULL,
    gender      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS log_geoip (
    start_ip     INTEGER PRIMARY KEY,
    end_ip       INTEGER NOT NULL,
    country_code TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS log_session (
    opn_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    user_id         INTEGER,
    username        TEXT,
    user_type       TEXT NOT NULL,
    gender          TEXT NOT NULL,
    ip              TEXT NOT NULL,
    country_code    TEXT NOT NULL,
    browser_name    TEXT NOT NULL,
    browser_version TEXT NOT NULL,
    os_name         TEXT NOT NULL,
    os_version      TEXT NOT NULL,
    device_type     TEXT NOT NULL,
    language        TEXT,
    referrer_url    TEXT,
    referral_class  TEXT NOT NULL,
    search_engine   TEXT,
    search_keywords TEXT,
    started_at      TEXT NOT NULL,
    ended_at        TEXT,
    end_reason      TEXT
);
CREATE TABLE IF NOT EXISTS open_sessions (
    session_token TEXT PRIMARY KEY,
    opn_id        INTEGER NOT NULL UNIQUE REFERENCES log_session(opn_id),
    user_id       INTEGER,
    started_at    TEXT NOT NULL,
    last_activity TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS log_page (
    log_details_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    log_opn_id            INTEGER NOT NULL REFERENCES log_session(opn_id),
    log_uid               INTEGER,
    log_username          TEXT,
    log_datetime          TEXT NOT NULL,
    log_date              TEXT NOT NULL,
    log_server            INTEGER NOT NULL,
    log_app_service       TEXT NOT NULL,
    log_module            TEXT NOT NULL,
    log_url               TEXT NOT NULL,
    log_web_message       TEXT NOT NULL,
    log_subtitle          TEXT NOT NULL,
    log_page_title        TEXT NOT NULL,
    log_cookie_serialize  TEXT NOT NULL,
    log_session_serialize TEXT NOT NULL,
    log_post_serialize    TEXT NOT NULL,
    log_get_serialize     TEXT NOT NULL,
    log_page_load_time    REAL NOT NULL,
    log_error_text        TEXT,
    log_url_malformed     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_page_session ON log_page(log_opn_id);
"""

TABLE_COLUMNS = {
    "user_info": ("user_id", "username", "user_type", "gender"),
    "log_geoip": ("start_ip", "end_ip", "country_code"),
    "log_session": (
        "opn_id", "user_id", "username", "user_type", "gender", "ip", "country_code",
        "browser_name", "browser_version", "os_name", "os_version", "device_type",
        "language", "referrer_url", "referral_class", "search_engine",
        "search_keywords", "started_at", "ended_at", "end_reason",
    ),
    "open_sessions": ("session_token", "opn_id", "user_id", "started_at", "last_activity"),
    "log_page": (
        "log_details_id", "log_opn_id", "log_uid", "log_username", "log_datetime",
        "log_date", "log_server", "log_app_service", "log_module", "log_url",
        "log_web_message", "log_subtitle", "log_page_title", "log_cookie_serialize",
        "log_session_serialize", "log_post_serialize", "log_get_serialize",
        "log_page_load_time", "log_error_text", "log_url_malformed",
    ),
}

_TABLE_KEYS = {
    "user_info": "user_id",
    "log_geoip": "start_ip",
    "log_session": "opn_id",
    "open_sessions": "opn_id",
    "log_page": "log_details_id",
}

# (encode, decode) for each field type stored as another SQL value; fields
# of any other type are stored as they are.  NULL passes through both ways.
_CONVERTERS = {
    datetime: (dt_to_text, text_to_dt),
    date: (date.isoformat, date.fromisoformat),
    bool: (int, bool),
}


def _field_type(hint: Any) -> Any:
    """``X`` for a hint of ``X`` or ``X | None``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


class _Codec:
    """Rows of one table in ``TABLE_COLUMNS`` order <-> its record dataclass."""

    def __init__(self, table: str, record_type: type):
        cols = TABLE_COLUMNS[table]
        hints = typing.get_type_hints(record_type)
        fields = [f.name for f in dataclasses.fields(record_type)]
        if sorted(fields) != sorted(cols):
            raise TypeError(f"{record_type.__name__} fields do not match {table} columns")
        self.record_type = record_type
        self.columns = ", ".join(cols)
        marks = ", ".join("?" * len(cols))
        self.insert_sql = f"INSERT INTO {table} ({self.columns}) VALUES ({marks})"
        self._values = attrgetter(*cols)
        # column positions in field order, for the positional constructor
        self._in_field_order = itemgetter(*(cols.index(f) for f in fields))
        converted = [(i, _CONVERTERS.get(_field_type(hints[c]))) for i, c in enumerate(cols)]
        self._encoders = [(i, conv[0]) for i, conv in converted if conv]
        self._decoders = [(i, conv[1]) for i, conv in converted if conv]

    def encode(self, rec: Any) -> list:
        row = list(self._values(rec))
        for i, conv in self._encoders:
            if row[i] is not None:
                row[i] = conv(row[i])
        return row

    def decode(self, row: Sequence[Any]) -> Any:
        row = list(row)
        for i, conv in self._decoders:
            if row[i] is not None:
                row[i] = conv(row[i])
        return self.record_type(*self._in_field_order(row))


_CODECS = {
    "user_info": _Codec("user_info", UserInfo),
    "log_geoip": _Codec("log_geoip", GeoIpRange),
    "log_session": _Codec("log_session", SessionRecord),
    "open_sessions": _Codec("open_sessions", OpenSession),
    "log_page": _Codec("log_page", PageRecord),
}


def _aliased(alias: str, table: str) -> str:
    """The table's columns in ``TABLE_COLUMNS`` order, qualified by ``alias``."""
    return ", ".join(f"{alias}.{c}" for c in TABLE_COLUMNS[table])


class _ByteCounter:
    """Write-only text stream that keeps only the UTF-8 size of its input."""

    def __init__(self):
        self.bytes = 0

    def write(self, text: str) -> None:
        self.bytes += len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class LogStore:
    """Single-writer, multi-reader store over one SQLite connection.

    Every method runs under one lock.  A method that writes with a single
    statement relies on SQLite's own statement atomicity; callers group
    several calls with :meth:`transaction`.
    """

    def __init__(self, path: str | Path = ":memory:"):
        # A "file:" URI may carry options, e.g. "?mode=ro" for a read-only store.
        self.path = str(path)
        self._conn = sqlite3.connect(
            self.path, uri=True, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        self._depth = 0
        with self._lock:
            self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Serialized transaction scope.

        A nested scope is a savepoint inside the outer transaction: an error
        raised through it undoes only the writes made within it.
        """
        with self._lock:
            outer = self._depth == 0
            self._conn.execute("BEGIN IMMEDIATE" if outer else "SAVEPOINT nested")
            self._depth += 1
            try:
                yield self._conn
            except BaseException:
                self._depth -= 1
                if outer:
                    self._conn.execute("ROLLBACK")
                else:
                    self._conn.execute("ROLLBACK TO nested")
                    self._conn.execute("RELEASE nested")
                raise
            else:
                self._depth -= 1
                self._conn.execute("COMMIT" if outer else "RELEASE nested")

    def _query(self, sql: str, params: Sequence[Any] = ()) -> list:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _select(self, table: str, clause: str, params: Sequence[Any] = ()) -> list:
        """Records of ``table`` matching an SQL ``WHERE``/``ORDER BY`` clause."""
        codec = _CODECS[table]
        rows = self._query(f"SELECT {codec.columns} FROM {table} {clause}", params)
        return [codec.decode(row) for row in rows]

    def _insert(self, table: str, rows: Any, many: bool = False, suffix: str = "") -> int | None:
        """Insert one encoded row, or a list of them with ``many``.

        Returns the new row id of a single insert.  This is the one place
        where SQLite integrity failures become store errors.
        """
        sql = _CODECS[table].insert_sql + suffix
        with self._lock:
            try:
                if many:
                    self._conn.executemany(sql, rows)
                    return None
                return self._conn.execute(sql, rows).lastrowid
            except sqlite3.IntegrityError as exc:
                if "FOREIGN KEY" in str(exc):
                    raise ForeignKeyError(str(exc)) from None
                raise ConstraintError(str(exc)) from None

    def _check_new_id(self, table: str, new_id: int | None) -> None:
        key = _TABLE_KEYS[table]
        if new_id is not None:
            current = self._query(f"SELECT MAX({key}) FROM {table}")[0][0]
            if current is not None and new_id <= current:
                raise ConstraintError(f"explicit {key} must exceed all existing ids")

    # -- user_info ---------------------------------------------------------

    def upsert_user(self, user: UserInfo) -> None:
        user.validate()
        others = TABLE_COLUMNS["user_info"][1:]
        self._insert(
            "user_info",
            _CODECS["user_info"].encode(user),
            suffix=" ON CONFLICT(user_id) DO UPDATE SET "
            + ", ".join(f"{c}=excluded.{c}" for c in others),
        )

    def get_user_by_name(self, username: str) -> UserInfo | None:
        rows = self._select("user_info", "WHERE username = ?", (username,))
        return rows[0] if rows else None

    # -- geoip -------------------------------------------------------------

    def replace_geoip(self, ranges: Iterable[GeoIpRange]) -> int:
        rows = [_CODECS["log_geoip"].encode(r) for r in ranges]
        with self.transaction() as conn:
            conn.execute("DELETE FROM log_geoip")
            self._insert("log_geoip", rows, many=True)
        return len(rows)

    # -- sessions ----------------------------------------------------------

    def insert_session(self, rec: SessionRecord) -> int:
        rec.validate()
        with self._lock:
            self._check_new_id("log_session", rec.opn_id)
            rec.opn_id = self._insert("log_session", _CODECS["log_session"].encode(rec))
        return rec.opn_id

    def close_session(self, opn_id: int, ended_at: datetime, reason: str) -> None:
        if reason not in END_REASONS:
            raise ConstraintError(f"bad end_reason: {reason!r}")
        with self._lock:
            rows = self._query(
                "SELECT started_at FROM log_session WHERE opn_id = ?", (opn_id,)
            )
            if not rows:
                raise NotFoundError(f"no session {opn_id}")
            if ended_at < text_to_dt(rows[0][0]):
                raise ConstraintError("ended_at before started_at")
            self._conn.execute(
                "UPDATE log_session SET ended_at = ?, end_reason = ? WHERE opn_id = ?",
                (dt_to_text(ended_at), reason, opn_id),
            )

    def get_session(self, opn_id: int) -> SessionRecord | None:
        rows = self._select("log_session", "WHERE opn_id = ?", (opn_id,))
        return rows[0] if rows else None

    def session_count(self) -> int:
        return self._query("SELECT COUNT(*) FROM log_session")[0][0]

    # -- open sessions -----------------------------------------------------

    def get_open_session(self, token: str) -> LiveSession | None:
        """The open session for a token, with its session's username."""
        rows = self._query(
            f"SELECT {_aliased('o', 'open_sessions')}, s.username FROM open_sessions o"
            " JOIN log_session s ON s.opn_id = o.opn_id WHERE o.session_token = ?",
            (token,),
        )
        if not rows:
            return None
        *row, username = rows[0]
        return LiveSession(**vars(_CODECS["open_sessions"].decode(row)), username=username)

    def put_open_session(self, open_session: OpenSession) -> None:
        if open_session.last_activity < open_session.started_at:
            raise ConstraintError("last_activity before started_at")
        self._insert("open_sessions", _CODECS["open_sessions"].encode(open_session))

    def touch_open_session(self, token: str, last_activity: datetime) -> None:
        with self._lock:
            cur = self._conn.execute(
                "UPDATE open_sessions SET last_activity = MAX(last_activity, ?)"
                " WHERE session_token = ?",
                (dt_to_text(last_activity), token),
            )
            if cur.rowcount == 0:
                raise NotFoundError(f"no open session for token {token!r}")

    def delete_open_session(self, token: str) -> bool:
        with self._lock:
            cur = self._conn.execute("DELETE FROM open_sessions WHERE session_token = ?", (token,))
            return cur.rowcount > 0

    def iter_open_sessions(self) -> list[OpenSession]:
        return self._select("open_sessions", "ORDER BY opn_id")

    def open_sessions_idle_since(self, cutoff: datetime) -> list[OpenSession]:
        """Open sessions last active at or before ``cutoff`` taken to the
        whole second, by opn_id."""
        return self._select(
            "open_sessions", "WHERE last_activity <= ? ORDER BY opn_id", (dt_to_text(cutoff),)
        )

    # -- pages ---------------------------------------------------------------

    def insert_page(self, rec: PageRecord) -> int:
        rec.validate()
        with self._lock:
            self._check_new_id("log_page", rec.log_details_id)
            rec.log_details_id = self._insert("log_page", _CODECS["log_page"].encode(rec))
        return rec.log_details_id

    def update_page_result(self, page_id: int, result: AppPageResult) -> None:
        with self._lock:
            cur = self._conn.execute(
                "UPDATE log_page SET log_page_title = ?, log_web_message = ?,"
                " log_subtitle = ?, log_page_load_time = ?, log_error_text = ?"
                " WHERE log_details_id = ?",
                (
                    result.page_title,
                    result.web_message,
                    result.subtitle,
                    result.page_load_time,
                    result.error_text,
                    page_id,
                ),
            )
            if cur.rowcount == 0:
                raise NotFoundError(f"no page row {page_id}")

    def get_page(self, page_id: int) -> PageRecord | None:
        rows = self._select("log_page", "WHERE log_details_id = ?", (page_id,))
        return rows[0] if rows else None

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

    def pages_by_hour_and_user_type(self) -> list[tuple[int, str, int]]:
        """(hour of day, session user type, pageview count) for each
        non-empty cell."""
        return self._query(
            "SELECT CAST(substr(p.log_datetime, 12, 2) AS INTEGER), s.user_type, COUNT(*)"
            " FROM log_page p JOIN log_session s ON s.opn_id = p.log_opn_id"
            " GROUP BY 1, 2"
        )

    # -- CSV export / import -------------------------------------------------

    def export_table(self, table: str, stream) -> int:
        """Write one table as CSV (header + rows, ordered by primary key)."""
        cols = TABLE_COLUMNS.get(table)
        if cols is None:
            raise ValueError(f"unknown table {table!r}")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(cols)
        n = 0
        rows = self._query(
            f"SELECT {', '.join(cols)} FROM {table} ORDER BY {_TABLE_KEYS[table]}"
        )
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
            n += 1
        return n

    def export_all(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for table in TABLE_COLUMNS:
            path = out / f"{table}.csv"
            with path.open("w", encoding="utf-8", newline="") as fh:
                self.export_table(table, fh)
            paths[table] = path
        return paths

    def import_table(self, table: str, stream) -> int:
        """Load one exported CSV table.

        CSV cannot tell an empty string from NULL, so an empty cell means
        NULL exactly in the columns the schema lets be NULL (not ``NOT NULL``
        and not the primary key) and the empty string everywhere else.
        """
        cols = TABLE_COLUMNS.get(table)
        if cols is None:
            raise ValueError(f"unknown table {table!r}")
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != list(cols):
            raise StorageError(f"unexpected header for {table}: {header}")
        info = self._query(f"PRAGMA table_info({table})")  # cid, name, type, notnull, dflt, pk
        nullable = {name for _, name, _, notnull, _, pk in info if not notnull and not pk}
        null_at = [name in nullable for name in cols]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(cols):
                raise StorageError(
                    f"{table}: expected {len(cols)} columns, got {len(row)}"
                )
            rows.append(
                tuple(
                    None if v == "" and is_null else v
                    for v, is_null in zip(row, null_at)
                )
            )
        with self.transaction():
            self._insert(table, rows, many=True)
        return len(rows)

    # -- stats ---------------------------------------------------------------

    def row_size_stats(self) -> dict[str, float]:
        """Average CSV-serialized row size in bytes for the two log tables."""
        stats = {}
        for table in ("log_session", "log_page"):
            counter = _ByteCounter()
            n = self.export_table(table, counter)
            # less the header line and each row's "\n" terminator
            body = counter.bytes - len(",".join(TABLE_COLUMNS[table])) - 1 - n
            stats[table] = body / n if n else 0.0
        return stats

    def store_stats(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for table in TABLE_COLUMNS:
            out[f"rows.{table}"] = self._query(f"SELECT COUNT(*) FROM {table}")[0][0]
        for table, size in self.row_size_stats().items():
            out[f"avg_row_bytes.{table}"] = round(size, 1)
        return out
