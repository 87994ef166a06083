"""Independent brute-force reimplementations used to check report output.

Everything here recomputes results from the CSV export files (or plain
Python values) with its own loops, its own rounding, and hardcoded
constants, so a bug in the library cannot hide in its own oracle.
"""

from __future__ import annotations

import csv
import gzip
import io
import ipaddress
import json
import random
import string
import sys
import urllib.parse
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple, Sequence

from webusage.analytics import (
    BUCKET_LABELS,
    DISTRIBUTION_KINDS,
    Analytics,
    SessionSummary,
    Table,
    bucket_label,
    pageviews_per_session,
)
from webusage.baseline import (
    EclfEntry,
    LineParseError,
    PreprocessResult,
    PreprocessStats,
    Visit,
    VisitEvent,
    complete_paths,
    parse_log_line,
    read_sessions_csv,
    sessionize,
    write_sessions_csv,
)
from webusage.compare import AccuracyReport, UniverseMismatchError, score_against_truth
from webusage.enrichment import UNKNOWN, ip_to_int, is_bot
from webusage.events import RawRequestEvent, ReplayFormatError
from webusage.simulator import (
    _BOT_AGENTS,
    _NEXT_PAGES,
    _NOISE_STREAM_OFFSET,
    _STATIC_RESOURCES,
    SITE_HOST,
    _pick,
)
from webusage.storage import (
    NO_GENDER_TYPES,
    USER_TYPES,
    ConstraintError,
    LogStore,
    OpenSession,
    PageRecord,
    TABLE_COLUMNS,
)

USER_TYPE_ORDER = (
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
SINGLE_GENDER_TYPES = ("guest", "unit_mission")
BUCKETS = ((1, 3, "1-3"), (4, 10, "4-10"), (11, 30, "11-30"), (31, 100, "31-100"), (101, None, "101+"))


def load_export(export_dir: str | Path) -> dict[str, list[dict[str, str]]]:
    tables = {}
    for path in Path(export_dir).glob("*.csv"):
        with path.open(encoding="utf-8", newline="") as fh:
            tables[path.stem] = list(csv.DictReader(fh))
    return tables


def _parse_dt(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")


def oracle_pps(pageviews: int, sessions: int) -> str:
    if sessions == 0:
        return "0.00"
    value = Decimal(pageviews) / Decimal(sessions)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def dwell_time(page_times: Sequence[datetime]) -> float:
    """Total viewing seconds for a session: sum of successive page gaps.

    The last page has no successor and contributes zero, so the sum
    telescopes to last minus first.
    """
    if not page_times:
        raise ValueError("page_times must be non-empty")
    total = 0.0
    for earlier, later in zip(page_times, page_times[1:]):
        gap = (later - earlier).total_seconds()
        if gap < 0:
            raise ValueError("page_times must be non-decreasing")
        total += gap
    return total


def oracle_dwell(times) -> float:
    total = 0.0
    for earlier, later in zip(times, times[1:]):
        total += (later - earlier).total_seconds()
    return total


def oracle_sessions(export: dict[str, list[dict[str, str]]]) -> list[dict]:
    """Join exported sessions to their pages; skip sessions with no pages."""
    pages_by_opn: dict[int, list[datetime]] = {}
    for page in export["log_page"]:
        opn = int(page["log_opn_id"])
        pages_by_opn.setdefault(opn, []).append(_parse_dt(page["log_datetime"]))
    rows = []
    for sess in export["log_session"]:
        opn = int(sess["opn_id"])
        times = pages_by_opn.get(opn)
        if not times:
            continue
        times.sort()
        rows.append(
            {
                "opn_id": opn,
                "user_id": int(sess["user_id"]) if sess["user_id"] else None,
                "username": sess["username"] or None,
                "user_type": sess["user_type"],
                "gender": sess["gender"],
                "ip": sess["ip"],
                "country_code": sess["country_code"],
                "browser_name": sess["browser_name"],
                "browser_version": sess["browser_version"],
                "os_name": sess["os_name"],
                "os_version": sess["os_version"],
                "device_type": sess["device_type"],
                "language": sess["language"] or None,
                "referral_class": sess["referral_class"],
                "search_engine": sess["search_engine"] or None,
                "search_keywords": sess["search_keywords"] or None,
                "pageviews": len(times),
                "dwell_seconds": int((times[-1] - times[0]).total_seconds()),
            }
        )
    rows.sort(key=lambda r: r["opn_id"])
    return rows


def bucket_of(pageviews: int) -> str:
    for low, high, label in BUCKETS:
        if pageviews >= low and (high is None or pageviews <= high):
            return label
    raise AssertionError(f"no bucket for {pageviews}")


def oracle_usage_buckets(rows: list[dict]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for row in rows:
        visitor = "Guests" if row["user_type"] == "guest" else "Users"
        key = (visitor, bucket_of(row["pageviews"]))
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_user_type_gender(rows: list[dict]) -> list[dict]:
    """Body rows in fixed order plus a trailing total row."""
    out = []
    for user_type in USER_TYPE_ORDER:
        genders = (
            ("not_applicable",)
            if user_type in SINGLE_GENDER_TYPES
            else ("male", "female")
        )
        for gender in genders:
            members = [
                r for r in rows if r["user_type"] == user_type and r["gender"] == gender
            ]
            if user_type == "guest":
                users = len(
                    {
                        (
                            r["ip"], r["browser_name"], r["browser_version"],
                            r["os_name"], r["os_version"], r["device_type"],
                        )
                        for r in members
                    }
                )
                dur_s = dur_m = dur_h = None
            else:
                users = len({r["user_id"] for r in members})
                dur_s = sum(r["dwell_seconds"] for r in members)
                dur_m = int(
                    (Decimal(dur_s) / 60).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
                )
                dur_h = str(
                    (Decimal(dur_s) / 3600).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
                )
            sessions = len(members)
            pageviews = sum(r["pageviews"] for r in members)
            out.append(
                {
                    "user_type": user_type,
                    "gender": gender,
                    "users": users,
                    "sessions": sessions,
                    "pageviews": pageviews,
                    "pps": oracle_pps(pageviews, sessions),
                    "duration_seconds": dur_s,
                    "duration_minutes": dur_m,
                    "duration_hours": dur_h,
                }
            )
    total_sessions = sum(r["sessions"] for r in out)
    total_pageviews = sum(r["pageviews"] for r in out)
    total_hours = sum(
        (Decimal(r["duration_hours"]) for r in out if r["duration_hours"] is not None),
        Decimal("0.0"),
    )
    out.append(
        {
            "user_type": "total",
            "gender": "",
            "users": sum(r["users"] for r in out),
            "sessions": total_sessions,
            "pageviews": total_pageviews,
            "pps": oracle_pps(total_pageviews, total_sessions),
            "duration_seconds": sum(r["duration_seconds"] or 0 for r in out),
            "duration_minutes": sum(r["duration_minutes"] or 0 for r in out),
            "duration_hours": str(total_hours),
        }
    )
    return out


def oracle_hourly(export: dict[str, list[dict[str, str]]]) -> dict[tuple[int, str], int]:
    type_by_opn = {int(s["opn_id"]): s["user_type"] for s in export["log_session"]}
    counts: dict[tuple[int, str], int] = {}
    for page in export["log_page"]:
        hour = _parse_dt(page["log_datetime"]).hour
        key = (hour, type_by_opn[int(page["log_opn_id"])])
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_distribution(rows: list[dict], kind: str) -> list[tuple[str, int, float]]:
    field = {
        "device": "device_type",
        "os": "os_name",
        "browser": "browser_name",
        "country": "country_code",
        "language": "language",
    }[kind]
    counts: dict[str, int] = {}
    for row in rows:
        value = row[field]
        if value is None:
            value = "unknown"
        counts[value] = counts.get(value, 0) + 1
    total = len(rows)
    return [
        (category, n, n / total)
        for category, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


def oracle_top_ips(rows: list[dict], n: int) -> list[tuple[str, int, int, str]]:
    per_ip: dict[str, list[int]] = {}
    for row in rows:
        cell = per_ip.setdefault(row["ip"], [0, 0])
        cell[0] += 1
        cell[1] += row["pageviews"]
    ordered = sorted(
        per_ip.items(),
        key=lambda kv: (-kv[1][0], -kv[1][1], int(ipaddress.IPv4Address(kv[0]))),
    )
    return [
        (ip, sessions, pageviews, oracle_pps(pageviews, sessions))
        for ip, (sessions, pageviews) in ordered[:n]
    ]


def oracle_top_users(rows: list[dict], n: int) -> list[tuple[int, str, int, int]]:
    per_user: dict[tuple[int, str], list[int]] = {}
    for row in rows:
        if row["user_id"] is None:
            continue
        cell = per_user.setdefault((row["user_id"], row["username"] or ""), [0, 0])
        cell[0] += row["pageviews"]
        cell[1] += 1
    ordered = sorted(per_user.items(), key=lambda kv: (-kv[1][0], kv[0][1]))
    return [
        (uid, name, pageviews, sessions)
        for (uid, name), (pageviews, sessions) in ordered[:n]
    ]


def oracle_search(rows: list[dict]) -> tuple[list, list]:
    engines: dict[str, int] = {}
    keywords: dict[str, int] = {}
    for row in rows:
        if row["referral_class"] != "search_engine" or row["search_engine"] is None:
            continue
        engines[row["search_engine"]] = engines.get(row["search_engine"], 0) + 1
        if row["search_keywords"]:
            keywords[row["search_keywords"]] = keywords.get(row["search_keywords"], 0) + 1
    return (
        sorted(engines.items(), key=lambda kv: (-kv[1], kv[0])),
        sorted(keywords.items(), key=lambda kv: (-kv[1], kv[0])),
    )


def geoip_lookup_linear(ranges, ip: str | int) -> str:
    """Scan every range instead of bisecting."""
    value = int(ipaddress.IPv4Address(ip)) if isinstance(ip, str) else ip
    for rng in ranges:
        if rng.start_ip <= value <= rng.end_ip:
            return rng.country_code
    return "unknown"


def sessionize_reference(epochs: list[float], session_gap: float, page_gap: float, mode: str) -> list[int]:
    """Session sizes for a sorted epoch list, split by the stated rule."""
    sizes = []
    count = 0
    session_start = None
    prev = None
    for t in epochs:
        split = False
        if count:
            if mode in ("page_gap", "both") and t - prev > page_gap:
                split = True
            if mode in ("session_duration", "both") and t - session_start > session_gap:
                split = True
        if split:
            sizes.append(count)
            count = 0
        if count == 0:
            session_start = t
        count += 1
        prev = t
    if count:
        sizes.append(count)
    return sizes


# (name in parse errors, kind) of each slot of an access-log line, in order
_LOG_SLOTS_REFERENCE = (
    ("ip", "bare"), ("identd", "bare"), ("authuser", "bare"), ("timestamp", "bracketed"),
    ("request line", "quoted"), ("status", "bare"), ("byte count", "bare"),
    ("referrer", "quoted"), ("user agent", "quoted"), ("cookies", "quoted"),
)
_MONTHS_REFERENCE = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# 9: an ASCII digit, A: an ASCII letter, S: a sign; any other character stands for itself
_STAMP_TEMPLATE = "99/AAA/9999:99:99:99 S9999"


def _slot_reference(line: str, i: int, end: int, kind: str) -> tuple[str, int] | None:
    """The raw text of a field of ``kind`` starting at ``line[i]`` (inside
    the quotes or brackets) and the index after the field, or None when no
    such field starts there; nothing at or past ``end`` is read."""
    if kind == "bare":
        if line[i] in ' "[':
            return None
        j = i
        while j < end and line[j] != " ":
            j += 1
        return line[i:j], j
    opener, closer = ('"', '"') if kind == "quoted" else ("[", "]")
    if line[i] != opener:
        return None
    j = i + 1
    while j < end and line[j] != closer:
        j += 2 if kind == "quoted" and line[j] == "\\" else 1
    if j >= end:
        return None
    return line[i + 1:j], j + 1


def _unescape_reference(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            i += 1
        out.append(text[i])
        i += 1
    return "".join(out)


def _request_parts_reference(text: str) -> list[str] | None:
    """The three space-separated parts of a request line's raw text, each
    unescaped, or None; a backslash escapes the next character."""
    parts = [[]]
    i = 0
    while i < len(text):
        if text[i] == " ":
            parts.append([])
        else:
            if text[i] == "\\":
                i += 1
            parts[-1].append(text[i])
        i += 1
    return ["".join(part) for part in parts] if len(parts) == 3 else None


def _stamp_reference(text: str) -> bool:
    if len(text) != len(_STAMP_TEMPLATE):
        return False
    for char, want in zip(text, _STAMP_TEMPLATE):
        if want == "9":
            ok = char in string.digits
        elif want == "A":
            ok = char in string.ascii_letters
        elif want == "S":
            ok = char in "+-"
        else:
            ok = char == want
        if not ok:
            return False
    return True


def parse_log_line_reference(line: str, log_format: str = "ECLF") -> EclfEntry:
    """The slot-by-slot CLF/ECLF parser of FORMATS.md, read character by
    character, the reference for ``baseline.parse_log_line``.

    A bare slot takes only a field that opens with neither '"' nor '[', a
    quoted or bracketed slot only a field in its quotes or brackets, and
    each field must be followed by a space or the end of the line.  Status
    is ``[1-5][0-9][0-9]``, bytes ``-`` or ``[0-9]+``, timestamp digits
    ``[0-9]``; a date, time or zone offset that does not exist, or an
    instant outside years 1-9999 in UTC, is a bad timestamp.
    """
    required = 7 if log_format == "CLF" else 9
    most = 7 if log_format == "CLF" else 10
    end = len(line)
    while end > 0 and line[end - 1] == " ":
        end -= 1
    i = 0
    while i < end and line[i] == " ":
        i += 1
    texts: list[str] = []
    for name, kind in _LOG_SLOTS_REFERENCE[:most]:
        if i >= end:
            if len(texts) >= required:
                break
            raise LineParseError(
                f"expected {required} fields for {log_format}, got {len(texts)}", line
            )
        found = _slot_reference(line, i, end, kind)
        ok = found is not None and (found[1] == end or line[found[1]] == " ")
        if ok and name == "timestamp":
            ok = _stamp_reference(found[0])
        if ok and name == "request line":
            ok = _request_parts_reference(found[0]) is not None
        if not ok:
            if found is None:
                j = i
                while j < end and line[j] != " ":
                    j += 1
                text = line[i:j]
            else:
                text = found[0]
            raise LineParseError(f"bad {name}: {text!r}", line)
        texts.append(found[0])
        i = found[1]
        while i < end and line[i] == " ":
            i += 1
    else:
        if i < end:
            raise LineParseError(f"more than {most} fields for {log_format}", line)

    ip, identd, authuser, ts_text, request, status_text, bytes_text = texts[:7]
    method, resource, protocol = _request_parts_reference(request)
    if not (resource.startswith("/") or resource == "*"):
        raise LineParseError(f"bad resource: {resource!r}", line)
    if not (
        len(status_text) == 3
        and status_text[0] in "12345"
        and all(c in string.digits for c in status_text[1:])
    ):
        raise LineParseError(f"bad status: {status_text!r}", line)
    if bytes_text == "-":
        bytes_sent = None
    elif all(c in string.digits for c in bytes_text):
        bytes_sent = int(bytes_text)
    else:
        raise LineParseError(f"bad byte count: {bytes_text!r}", line)
    day, mon, year = ts_text[0:2], ts_text[3:6], ts_text[7:11]
    hh, mm, ss = ts_text[12:14], ts_text[15:17], ts_text[18:20]
    sign, zh, zm = ts_text[21], ts_text[22:24], ts_text[24:26]
    if mon not in _MONTHS_REFERENCE:
        raise LineParseError(f"bad month: {mon!r}", line)
    try:
        if int(zm) >= 60:
            raise ValueError(zm)
        offset = timedelta(hours=int(zh), minutes=int(zm))
        timestamp = datetime(
            int(year), _MONTHS_REFERENCE.index(mon) + 1, int(day), int(hh), int(mm), int(ss),
            tzinfo=timezone(-offset if sign == "-" else offset),
        )
        if not -62135596800 <= timestamp.timestamp() <= 253402300799:
            raise ValueError(ts_text)
    except ValueError:
        raise LineParseError(f"bad timestamp: {ts_text!r}", line) from None
    entry = EclfEntry(
        ip=ip,
        identd=None if identd == "-" else identd,
        authuser=None if authuser == "-" else authuser,
        timestamp=timestamp,
        method=method,
        resource=resource,
        protocol=protocol,
        status=int(status_text),
        bytes_sent=bytes_sent,
    )
    if log_format == "ECLF":
        referrer, agent = (_unescape_reference(text) for text in texts[7:9])
        entry.referrer = None if referrer == "-" else referrer
        entry.user_agent = None if agent == "-" else agent
        if len(texts) == 10:
            entry.cookies = _unescape_reference(texts[9])
    return entry


_STATIC_EXTENSIONS_REFERENCE = (".png", ".jpg", ".gif", ".css", ".js", ".ico")


def preprocess_reference(
    path: str | Path,
    log_format: str = "ECLF",
    page_gap: float = 600.0,
    session_gap: float = 1800.0,
    mode: str = "both",
    split_at_midnight: bool = False,
    site_hosts: Sequence[str] = (),
) -> PreprocessResult:
    """The classical pipeline as separate passes over whole lists, the
    reference for ``baseline.preprocess_log``: parse every non-blank line
    into an entry, filter the entries, group the kept ones by (ip, agent),
    then sessionize each visitor and complete each session's paths."""
    opener = gzip.open if str(path).endswith(".gz") else open
    entries, lines, parse_errors = [], 0, 0
    with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            lines += 1
            try:
                entries.append(parse_log_line(line, log_format))
            except LineParseError:
                parse_errors += 1
    stats = PreprocessStats(lines=lines, parse_errors=parse_errors)
    kept = []
    for entry in entries:
        if entry.status != 200:
            stats.dropped_status += 1
        elif entry.resource.split("?", 1)[0].lower().endswith(_STATIC_EXTENSIONS_REFERENCE):
            stats.dropped_static += 1
        elif is_bot(entry.user_agent):
            stats.dropped_bot += 1
        else:
            stats.kept += 1
            kept.append(entry)
    groups: dict[tuple[str, str], list[EclfEntry]] = {}
    for entry in kept:
        groups.setdefault((entry.ip, entry.user_agent or ""), []).append(entry)
    sessions = []
    for key in sorted(groups):
        ordered = sorted(groups[key], key=lambda e: e.timestamp)
        visit = Visit(key, [VisitEvent(e.timestamp, e.resource, e.referrer) for e in ordered])
        for session in sessionize(visit, session_gap, page_gap, mode, split_at_midnight):
            session.events = complete_paths(session.events, site_hosts, stats)
            sessions.append(session)
    stats.users, stats.sessions = len(groups), len(sessions)
    return PreprocessResult(sessions, stats)


def get_page(store: LogStore, page_id: int) -> PageRecord | None:
    """The decoded page row with this id, or None."""
    rows = store._select("log_page", "WHERE log_details_id = ?", (page_id,))
    return rows[0] if rows else None


def iter_open_sessions(store: LogStore) -> list[OpenSession]:
    """Every open-session row, by opn_id."""
    return store._select("open_sessions", "ORDER BY opn_id")


def copy_tables(source: LogStore, target: LogStore, tables: Sequence[str]) -> None:
    """Copy every row of each table, in the order given, from one store into
    another with plain SQL."""
    with target.transaction() as conn:
        for table in tables:
            rows = source._query(f"SELECT * FROM {table}")
            if rows:
                marks = ", ".join("?" * len(rows[0]))
                conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)


# The column each exported table is ordered by.
EXPORT_KEYS = {
    "user_info": "user_id",
    "log_geoip": "start_ip",
    "log_session": "opn_id",
    "open_sessions": "opn_id",
    "log_page": "log_details_id",
}


def _column_info(store: LogStore, table: str) -> list[tuple[str, str, bool]]:
    """(name, SQL type, nullable) of each column, in schema order; a column
    is nullable when it is neither ``NOT NULL`` nor the primary key."""
    return [(name, sql_type, not notnull and not pk)
            for _, name, sql_type, notnull, _, pk in store._query(f"PRAGMA table_info({table})")]


def read_export_table(store: LogStore, table: str, stream) -> list[tuple]:
    """An exported table read back with ``csv`` alone, one tuple per row.

    Each cell is typed from its column in the store's schema: an empty cell
    in a nullable column is ``None``, an INTEGER cell an ``int``, a REAL cell
    a ``float``, and any other cell stays text.  ``stream`` is opened with
    ``newline=""``, as the export is written."""
    columns = _column_info(store, table)
    header, *body = csv.reader(stream)
    assert header == [name for name, _, _ in columns], header
    kinds = [({"INTEGER": int, "REAL": float}.get(sql_type, str), nullable)
             for _, sql_type, nullable in columns]
    out = []
    for row in body:
        assert len(row) == len(kinds), row
        out.append(tuple(None if cell == "" and nullable else kind(cell)
                         for cell, (kind, nullable) in zip(row, kinds)))
    return out


def stored_rows(store: LogStore, table: str, blank_is_null: bool = False) -> list[tuple]:
    """The table's rows as SQL reads them, in ``TABLE_COLUMNS`` and export
    order.  With ``blank_is_null``, an empty string in a nullable column
    reads as NULL, the one difference CSV cannot show."""
    columns = _column_info(store, table)
    assert tuple(name for name, _, _ in columns) == TABLE_COLUMNS[table]
    cells = [f"NULLIF({name}, '')" if blank_is_null and nullable else name
             for name, _, nullable in columns]
    return store._query(f"SELECT {', '.join(cells)} FROM {table} ORDER BY {EXPORT_KEYS[table]}")


def serialize_map_reference(m: dict[str, str]) -> str:
    """``storage.serialize_map`` written with ``json.dumps``, the reference
    for its text and its errors."""
    if not isinstance(m, dict):
        raise ConstraintError(f"map must be a dict, got {type(m).__name__}")
    if m == {}:
        return "{}"
    for key, value in m.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ConstraintError("map keys and values must be strings")
    return json.dumps(m, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def parse_load_time(text: str) -> float:
    """Parse a load time that may use a decimal comma ("0,0266")."""
    return float(text.strip().replace(",", "."))


_REPLAY_REQUIRED = frozenset({"ip", "time", "method", "url", "token"})
_REPLAY_KEYS = _REPLAY_REQUIRED | {
    "agent", "referrer", "user", "service", "module", "server", "get", "post", "cookies",
}


def _decode_map_reference(s: str) -> dict[str, str]:
    if not s:
        return {}
    return dict(urllib.parse.parse_qsl(s, keep_blank_values=True))


def parse_replay_line_reference(line: str, line_no: int | None = None) -> RawRequestEvent:
    """The replay line decoder that unquotes every value and reads maps with
    ``parse_qsl``, the reference for ``events.parse_replay_line``."""
    values: dict[str, str] = {}
    for token in line.split(" "):
        if not token:
            raise ReplayFormatError("empty token (double space?)", line_no)
        key, sep, raw = token.partition("=")
        if not sep:
            raise ReplayFormatError(f"token without '=': {token!r}", line_no)
        if key not in _REPLAY_KEYS:
            raise ReplayFormatError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ReplayFormatError(f"duplicate key {key!r}", line_no)
        values[key] = urllib.parse.unquote(raw)
    missing = _REPLAY_REQUIRED - values.keys()
    if missing:
        raise ReplayFormatError(f"missing keys: {sorted(missing)}", line_no)
    try:
        when = datetime.fromisoformat(values["time"])
    except ValueError as exc:
        raise ReplayFormatError(f"bad time: {exc}", line_no) from None
    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc).replace(tzinfo=None)
    try:
        server = int(values.get("server", "1"))
    except ValueError:
        raise ReplayFormatError(f"bad server id: {values['server']!r}", line_no) from None
    try:
        return RawRequestEvent(
            client_ip=values["ip"],
            timestamp=when,
            method=values["method"],
            url=values["url"],
            session_token=values["token"],
            user_agent=values.get("agent", ""),
            referrer=values.get("referrer"),
            auth_user=values.get("user"),
            app_service=values.get("service", ""),
            module=values.get("module", ""),
            server_id=server,
            get_params=_decode_map_reference(values.get("get", "")),
            post_params=_decode_map_reference(values.get("post", "")),
            cookies=_decode_map_reference(values.get("cookies", "")),
        )
    except ValueError as exc:
        raise ReplayFormatError(str(exc), line_no) from None


_EVENT_TEXT_FIELDS = ("client_ip", "url", "session_token", "user_agent", "app_service", "module")
_EVENT_OPTIONAL_TEXT_FIELDS = ("referrer", "auth_user")
_EVENT_MAP_FIELDS = ("get_params", "post_params", "cookies")


def check_event_fields_reference(fields: dict[str, object]) -> None:
    """Raise the ValueError that a ``RawRequestEvent`` with these fields
    (every field given, defaults included) must raise, from the field-by-field
    loops in their fixed order, the reference for ``__post_init__``'s
    written-out checks."""
    if not isinstance(fields["timestamp"], datetime):
        raise ValueError(f"timestamp must be a datetime, got {fields['timestamp']!r}")
    if type(fields["server_id"]) is not int:
        raise ValueError(f"server_id must be an int, got {fields['server_id']!r}")
    for name in _EVENT_TEXT_FIELDS:
        value = fields[name]
        if type(value) is not str:
            raise ValueError(f"{name} must be a str, got {value!r}")
    for name in _EVENT_OPTIONAL_TEXT_FIELDS:
        value = fields[name]
        if value is not None and type(value) is not str:
            raise ValueError(f"{name} must be a str or None, got {value!r}")
    for name in _EVENT_MAP_FIELDS:
        m = fields[name]
        if type(m) is not dict:
            raise ValueError(f"{name} must be a dict, got {type(m).__name__}")
        for key, value in m.items():
            if type(key) is not str or type(value) is not str:
                raise ValueError(f"{name} keys and values must be str, got {key!r}: {value!r}")
    if fields["method"] not in ("GET", "POST"):
        raise ValueError(f"method must be one of ('GET', 'POST'), got {fields['method']!r}")
    if not fields["session_token"]:
        raise ValueError("session_token must be non-empty")


# Characters the replay writer leaves unescaped (FORMATS.md).
_REPLAY_SAFE = ":/?&=._-~+@,;()'*!"


def _encode_map_reference(m: dict[str, str]) -> str:
    return urllib.parse.urlencode(m, quote_via=urllib.parse.quote)


def format_replay_line_reference(event: RawRequestEvent) -> str:
    """The replay line encoder that quotes every value and encodes maps with
    ``urlencode``, the reference for ``events.format_replay_line``."""
    pairs: list[tuple[str, str]] = [
        ("ip", event.client_ip),
        ("time", event.timestamp.isoformat(sep="T", timespec="seconds")),
        ("method", event.method),
        ("url", event.url),
        ("token", event.session_token),
        ("agent", event.user_agent),
    ]
    if event.referrer is not None:
        pairs.append(("referrer", event.referrer))
    if event.auth_user is not None:
        pairs.append(("user", event.auth_user))
    pairs.extend(
        [
            ("service", event.app_service),
            ("module", event.module),
            ("server", str(event.server_id)),
            ("get", _encode_map_reference(event.get_params)),
            ("post", _encode_map_reference(event.post_params)),
            ("cookies", _encode_map_reference(event.cookies)),
        ]
    )
    return " ".join(f"{k}={urllib.parse.quote(v, safe=_REPLAY_SAFE)}" for k, v in pairs)


_LOG_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def format_timestamp_reference(value: datetime) -> str:
    """``dd/Mon/yyyy:HH:MM:SS +zzzz`` computed from the offset every time,
    the reference for the access-log timestamp ``render_log_line`` writes."""
    offset = value.utcoffset() or timedelta(0)
    total = int(offset.total_seconds())
    sign = "+" if total >= 0 else "-"
    total = abs(total)
    return (
        f"{value.day:02d}/{_LOG_MONTHS[value.month - 1]}/{value.year:04d}:"
        f"{value.hour:02d}:{value.minute:02d}:{value.second:02d}"
        f" {sign}{total // 3600:02d}{(total % 3600) // 60:02d}"
    )


def _log_quoted_reference(value: str | None) -> str:
    if value is None:
        return '"-"'
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_eclf_reference(events, truth, config, stream, noise: bool = True) -> int:
    """``simulator.emit_eclf`` as it was before it formatted each page
    event's time once and wrote its lines together: every line is rendered
    from its fields with its own timestamp and written on its own.  The
    noise constants are the simulator's; the rendering is FORMATS.md's."""
    noise_rng = random.Random(config.seed + _NOISE_STREAM_OFFSET)
    lines = 0

    def draw(n: int) -> int:
        return int(noise_rng.random() * n)

    def write(ip, when, method, resource, status, bytes_sent, referrer, agent) -> None:
        nonlocal lines
        size = "-" if bytes_sent is None else str(bytes_sent)
        stream.write(
            f"{ip} - - [{format_timestamp_reference(when)}]"
            f' "{method} {resource} HTTP/1.1" {status} {size}'
            f" {_log_quoted_reference(referrer)} {_log_quoted_reference(agent)}\n"
        )
        lines += 1

    for event, truth_event in zip(events, truth.events):
        if truth_event.cached:
            continue
        when = datetime.fromtimestamp(truth_event.epoch, tz=timezone.utc)
        ip, agent, page = event.client_ip, event.user_agent, truth_event.resource
        write(ip, when, event.method, page, 200,
              800 + (truth_event.event_seq * 137) % 18200, event.referrer, agent)
        if not noise:
            continue
        if noise_rng.random() < 0.40:
            for _ in range(1 + draw(3)):
                write(ip, when, "GET", _STATIC_RESOURCES[draw(len(_STATIC_RESOURCES))],
                      200, 120 + draw(4000), f"http://{SITE_HOST}{page}", agent)
        if noise_rng.random() < 0.05:
            status = (301, 302, 404)[draw(3)]
            write(ip, when, "GET", _pick(noise_rng, _NEXT_PAGES), status,
                  None if status in (301, 302) else 291, None, agent)
        if noise_rng.random() < 0.02:
            bot_agent = _BOT_AGENTS[draw(len(_BOT_AGENTS))]
            bot_ip = str(ipaddress.IPv4Address(1123631104 + draw(8192)))
            for _ in range(1 + draw(2)):
                resource = (
                    "/robots.txt" if noise_rng.random() < 0.4
                    else _pick(noise_rng, _NEXT_PAGES)
                )
                write(bot_ip, when, "GET", resource, 200, 500 + draw(3000), None, bot_agent)
    return lines


def pairwise_reference(pred: dict, truth: dict) -> tuple[float, float]:
    """``compare._pairwise`` counted with plain dicts, one event at a time:
    the reference for its pairwise precision and recall."""
    contingency: dict = {}
    pred_sizes: dict = {}
    truth_sizes: dict = {}
    for event_id, p_cluster in pred.items():
        t_cluster = truth[event_id]
        contingency[(p_cluster, t_cluster)] = contingency.get((p_cluster, t_cluster), 0) + 1
        pred_sizes[p_cluster] = pred_sizes.get(p_cluster, 0) + 1
        truth_sizes[t_cluster] = truth_sizes.get(t_cluster, 0) + 1
    together_both = sum(n * (n - 1) // 2 for n in contingency.values())
    together_pred = sum(n * (n - 1) // 2 for n in pred_sizes.values())
    together_truth = sum(n * (n - 1) // 2 for n in truth_sizes.values())
    precision = together_both / together_pred if together_pred else 1.0
    recall = together_both / together_truth if together_truth else 1.0
    return precision, recall


def score_labelings_reference(pred_session: dict, pred_user: dict,
                              truth_session: dict, truth_user: dict) -> AccuracyReport:
    """``baseline.score_labelings`` over four label maps keyed by event id,
    its exact matches found by comparing the event sets of the sessions as
    frozensets: the reference for the joint-count scorer."""
    ids = set(pred_session)
    if ids != set(truth_session) or ids != set(pred_user) or ids != set(truth_user):
        raise UniverseMismatchError("label maps cover different events")
    session_precision, session_recall = pairwise_reference(pred_session, truth_session)
    user_precision, user_recall = pairwise_reference(pred_user, truth_user)
    truth_sets: dict = {}
    pred_sets: dict = {}
    for event_id, cluster in truth_session.items():
        truth_sets.setdefault(cluster, set()).add(event_id)
    for event_id, cluster in pred_session.items():
        pred_sets.setdefault(cluster, set()).add(event_id)
    predicted = {frozenset(s) for s in pred_sets.values()}
    exact = sum(1 for s in truth_sets.values() if frozenset(s) in predicted)
    return AccuracyReport(
        user_precision=user_precision,
        user_recall=user_recall,
        session_precision=session_precision,
        session_recall=session_recall,
        exact_session_match_rate=exact / len(truth_sets) if truth_sets else 1.0,
        truth_sessions=len(truth_sets),
        predicted_sessions=len(pred_sets),
    )


# Python 3.10's csv neither writes nor reads a cell holding NUL.
CSV_REFUSES_NUL = sys.version_info < (3, 11)


def csv_row_reference(values) -> str:
    """One row of the package's CSV dialect: ``csv.writer`` with a ``\\r\\n``
    terminator, which makes it quote every cell holding ``\\r`` on every
    Python, and the terminator then cut to ``\\n``.  Raises ``csv.Error``
    for a NUL where :data:`CSV_REFUSES_NUL`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(values)
    return buf.getvalue()[:-2] + "\n"


def write_sessions_csv_reference(sessions, stream) -> int:
    """``baseline.write_sessions_csv`` with one :func:`csv_row_reference`
    per event: the reference for the sessions CSV bytes.  An event's time
    is taken to the naive UTC time it names, and its epoch is counted
    from 1970-01-01 00:00:00 naive."""
    stream.write(csv_row_reference(("user_key", "session_id", "seq", "time", "resource", "inferred")))
    n = 0
    for visit in sessions:
        key = f"{visit.user_key[0]}|{visit.user_key[1]}"
        for seq, event in enumerate(visit.events, start=1):
            when = event.timestamp
            if when.tzinfo is not None:
                when = when.astimezone(timezone.utc).replace(tzinfo=None)
            stream.write(csv_row_reference(
                [key, visit.session_id, seq, int((when - datetime(1970, 1, 1)).total_seconds()),
                 event.resource, int(event.inferred)]
            ))
            n += 1
    return n


def score_sessions(sessions, truth) -> AccuracyReport:
    """``score_against_truth`` over ``sessions`` as ``compare`` meets them:
    written by ``write_sessions_csv`` and read back by ``read_sessions_csv``."""
    text = io.StringIO(newline="")
    write_sessions_csv(sessions, text)
    text.seek(0)
    return score_against_truth(read_sessions_csv(text), truth)


_ONE_PLACE = Decimal("0.1")
_WHOLE = Decimal("1")


class UserTypeGenderRow(NamedTuple):
    """One row of the user-type-gender table, its cells named."""

    user_type: str
    gender: str
    users: int
    sessions: int
    pageviews: int
    pageviews_per_session: Decimal
    duration_seconds: int | None
    duration_minutes: int | None
    duration_hours: Decimal | None


class RecordAnalytics(Analytics):
    """The session report builders as they were before each became one
    grouped query: every report loops over ``session_summaries()``, the
    decoded record of each session that has pages.  The reference the
    query-built reports must match byte for byte."""

    def usage_buckets(self) -> Table:
        """Sessions per pageview bucket, guests split from logged-in users."""
        counts: dict[tuple[str, str], int] = {}
        for s in self.session_summaries():
            visitor = "Guests" if s.user_type == "guest" else "Users"
            label = bucket_label(s.pageview_count)
            counts[(visitor, label)] = counts.get((visitor, label), 0) + 1
        rows = []
        for visitor in ("Guests", "Users"):
            for label in BUCKET_LABELS:
                rows.append((visitor, label, counts.get((visitor, label), 0)))
        plot = [(f"{visitor}:{label}", count) for visitor, label, count in rows]
        return Table(("visitor_type", "bucket", "sessions"), rows, plot)

    def user_type_gender_report(self) -> Table:
        """Users, sessions, pageviews, P_ps and viewing time per type/gender.

        Guests are counted as distinct (ip, client fingerprint) pairs and
        have no duration columns; unit accounts share the not_applicable
        gender but keep durations.  The total row is the column-wise sum of
        the body rows.
        """
        groups: dict[tuple[str, str], list[SessionSummary]] = {}
        for s in self.session_summaries():
            groups.setdefault((s.user_type, s.gender), []).append(s)

        def group_rows() -> list[tuple[str, str]]:
            out = []
            for user_type in USER_TYPES:
                if user_type in NO_GENDER_TYPES:
                    out.append((user_type, "not_applicable"))
                else:
                    out.append((user_type, "male"))
                    out.append((user_type, "female"))
            return out

        rows = []
        for user_type, gender in group_rows():
            members = groups.get((user_type, gender), [])
            sessions = len(members)
            pageviews = sum(s.pageview_count for s in members)
            if user_type == "guest":
                users = len(
                    {
                        (
                            s.ip, s.browser_name, s.browser_version,
                            s.os_name, s.os_version, s.device_type,
                        )
                        for s in members
                    }
                )
            else:
                users = len({s.user_id for s in members})
            pps = (
                pageviews_per_session(pageviews, sessions)
                if sessions
                else Decimal("0.00")
            )
            if user_type == "guest":
                dur_s = dur_m = dur_h = None
            else:
                dur_s = sum(s.dwell_seconds for s in members)
                dur_m = int(
                    (Decimal(dur_s) / 60).quantize(_WHOLE, rounding=ROUND_HALF_UP)
                )
                dur_h = (Decimal(dur_s) / 3600).quantize(_ONE_PLACE, rounding=ROUND_HALF_UP)
            rows.append(
                UserTypeGenderRow(
                    user_type, gender, users, sessions, pageviews, pps, dur_s, dur_m, dur_h
                )
            )

        total_sessions = sum(r.sessions for r in rows)
        total_pageviews = sum(r.pageviews for r in rows)
        total = UserTypeGenderRow(
            user_type="total",
            gender="",
            users=sum(r.users for r in rows),
            sessions=total_sessions,
            pageviews=total_pageviews,
            pageviews_per_session=(
                pageviews_per_session(total_pageviews, total_sessions)
                if total_sessions
                else Decimal("0.00")
            ),
            duration_seconds=sum(r.duration_seconds or 0 for r in rows),
            duration_minutes=sum(r.duration_minutes or 0 for r in rows),
            duration_hours=sum((r.duration_hours or Decimal("0.0") for r in rows), Decimal("0.0")),
        )
        header = (
            "user_type", "gender", "users", "sessions", "pageviews",
            "pageviews_per_session", "duration_s", "duration_m", "duration_h",
        )
        plot = [(f"{r.user_type}:{r.gender}", r.sessions) for r in rows]
        return Table(header, rows + [total], plot)

    def distribution(self, kind: str) -> Table:
        """Per-session share of a category; each session counts once."""
        if kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"kind must be one of {DISTRIBUTION_KINDS}")
        summaries = self.session_summaries()
        field = {
            "device": "device_type",
            "os": "os_name",
            "browser": "browser_name",
            "country": "country_code",
            "language": "language",
        }[kind]
        counts: dict[str, int] = {}
        for s in summaries:
            value = getattr(s, field)
            if value is None:
                value = UNKNOWN
            counts[value] = counts.get(value, 0) + 1
        total = len(summaries)
        entries = [
            (category, n, n / total)
            for category, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return Table((kind, "sessions", "ratio"), entries, [(c, r) for c, _, r in entries])

    def top_ips(self, n: int = 15) -> Table:
        """Busiest client addresses by session count.

        Ties break by pageviews descending, then numeric address ascending.
        """
        per_ip: dict[str, list[int]] = {}
        for s in self.session_summaries():
            cell = per_ip.setdefault(s.ip, [0, 0])
            cell[0] += 1
            cell[1] += s.pageview_count
        ordered = sorted(
            per_ip.items(), key=lambda kv: (-kv[1][0], -kv[1][1], ip_to_int(kv[0]))
        )
        rows = [
            (ip, sessions, pageviews, pageviews_per_session(pageviews, sessions))
            for ip, (sessions, pageviews) in ordered[:n]
        ]
        header = ("ip", "sessions", "pageviews", "pageviews_per_session")
        return Table(header, rows, [(ip, s) for ip, s, _, _ in rows])

    def top_users(self, n: int = 20) -> Table:
        """Most active logged-in users by pageviews; ties by username."""
        per_user: dict[tuple[int, str], list[int]] = {}
        for s in self.session_summaries():
            if s.user_id is None:
                continue
            cell = per_user.setdefault((s.user_id, s.username or ""), [0, 0])
            cell[0] += s.pageview_count
            cell[1] += 1
        ordered = sorted(per_user.items(), key=lambda kv: (-kv[1][0], kv[0][1]))
        rows = [
            (uid, name, pageviews, sessions)
            for (uid, name), (pageviews, sessions) in ordered[:n]
        ]
        header = ("user_id", "username", "pageviews", "sessions")
        return Table(header, rows, [(name, pageviews) for _, name, pageviews, _ in rows])

    def search_report(self) -> tuple[Table, Table]:
        """Sessions arriving from search engines, by engine and by keywords."""
        engines: dict[str, int] = {}
        keywords: dict[str, int] = {}
        for s in self.session_summaries():
            if s.referral_class != "search_engine" or s.search_engine is None:
                continue
            engines[s.search_engine] = engines.get(s.search_engine, 0) + 1
            if s.search_keywords:
                keywords[s.search_keywords] = keywords.get(s.search_keywords, 0) + 1
        return (
            Table(("engine", "sessions"), sorted(engines.items(), key=lambda kv: (-kv[1], kv[0]))),
            Table(("keywords", "sessions"), sorted(keywords.items(), key=lambda kv: (-kv[1], kv[0]))),
        )
