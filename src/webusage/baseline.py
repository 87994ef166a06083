"""Classical server-log preprocessing.

The reference pipeline reconstructs visits from an access log the way log
miners have to: parse combined-format lines, drop irrelevant entries, key
users by (address, agent), split visits with time heuristics, and patch
cache-hidden navigation from referrers.  Its output is the sessions CSV,
which this module writes and reads, and the :class:`PreprocessStats`
counters; ``webusage.compare`` scores the CSV's rows against a simulator
ground truth on equal footing with the request-time collector.

Five pure lookups are cached, each in a bounded ``lru_cache`` that holds
no state of a visit: the datetime of a log timestamp (``_parse_timestamp``),
which pays because page assets are logged in the same second as their page;
whether a resource is static (``_is_static``), which pays because resources
repeat; the on-site path of a referrer (``_referrer_resource``), which pays
because a site has few pages to be referred from; and, for writing, the
``+zzzz`` text of a zone offset (``_zone_text``) and the quoted text of a
field (``_quoted``), which pay because offsets, referrers and agents repeat
from line to line.
"""

from __future__ import annotations

import gzip
import re
import urllib.parse
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import csvio
from .enrichment import is_bot

DEFAULT_PAGE_GAP = 600.0
DEFAULT_SESSION_GAP = 1800.0
SESSIONIZE_MODES = ("page_gap", "session_duration", "both")
STATIC_EXTENSIONS = (".png", ".jpg", ".gif", ".css", ".js", ".ico")

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUM = {name: i + 1 for i, name in enumerate(_MONTHS)}
_ZONES: dict[str, timezone] = {}  # "+0300" -> its timezone, filled on first use
# Pieces of the access-log grammar (FORMATS.md).  Each slot's piece gives
# its text the slot's kind (bare, quoted or bracketed) and grammar and
# captures it; the checks below judge the captured text.
_BARE = r'([^ "\[][^ ]*)'
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
# dd/Mon/yyyy:HH:MM:SS +zzzz, captured whole; _parse_timestamp slices it.
_STAMP = r"\[([0-9]{2}/[A-Za-z]{3}/[0-9]{4}:[0-9]{2}:[0-9]{2}:[0-9]{2} [+-][0-9]{4})\]"
_PART = r'([^ "\\]*(?:\\.[^ "\\]*)*)'
# (name in parse errors, kind, piece) of each slot, in line order
_SLOTS = (
    ("ip", _BARE, _BARE),
    ("identd", _BARE, _BARE),
    ("authuser", _BARE, _BARE),
    ("timestamp", r"\[([^\]]*)\]", _STAMP),
    ("request line", _QUOTED, f'"{_PART} {_PART} {_PART}"'),
    ("status", _BARE, _BARE),
    ("byte count", _BARE, _BARE),
    ("referrer", _QUOTED, _QUOTED),
    ("user agent", _QUOTED, _QUOTED),
    ("cookies", _QUOTED, _QUOTED),
)
_FIELD_COUNTS = {"CLF": (7, 7), "ECLF": (9, 10)}  # (required, most) slots
_CLF = " +".join(piece for _, _, piece in _SLOTS[:7])
_LINE_PATTERNS = {
    "CLF": f" *{_CLF} *",
    "ECLF": f" *{_CLF} +{_QUOTED} +{_QUOTED}(?: +{_QUOTED})? *",
}
# A well-formed line is one fullmatch of its format's pattern.
_LINE_RE = {name: re.compile(pattern, re.S) for name, pattern in _LINE_PATTERNS.items()}
# A line without a backslash holds no escape, and there the pieces without
# the escape loop match the same text into the same groups.  The engine runs
# them about twice as fast: [^"]* scans for one character, [^"\\]* tests a
# class at each one.
_PLAIN_LINE_RE = {
    name: re.compile(pattern.replace(_QUOTED, r'"([^"]*)"').replace(_PART, r'([^ "]*)'), re.S)
    for name, pattern in _LINE_PATTERNS.items()
}
_STATUS_CODES = {str(code): code for code in range(100, 600)}  # [1-5][0-9][0-9]
_TWO_DIGITS = {f"{n:02d}": n for n in range(100)}  # a timestamp's pairs; faster than int()
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_FIRST_EPOCH, _LAST_EPOCH = -62135596800, 253402300799  # 0001-01-01 to 9999-12-31 UTC
_FORMAT_ERROR = "log_format must be CLF or ECLF, got {!r}"


class LineParseError(ValueError):
    def __init__(self, message: str, line: str = ""):
        super().__init__(message)
        self.line = line


@dataclass(slots=True)
class EclfEntry:
    ip: str
    identd: str
    authuser: str
    timestamp: datetime  # aware; keeps the zone the log was written in
    method: str
    resource: str
    protocol: str
    status: int
    bytes_sent: int | None
    referrer: str | None = None
    user_agent: str | None = None
    cookies: str | None = None


@dataclass(slots=True)
class VisitEvent:
    timestamp: datetime
    resource: str
    referrer: str | None = None
    inferred: bool = False


@dataclass
class Visit:
    user_key: tuple[str, str]  # (ip, user agent or "")
    events: list[VisitEvent]
    session_id: int | None = None


@dataclass
class PreprocessStats:
    """The counters ``preprocess`` prints, one field each, in the order of
    FORMATS.md "Classical sessions CSV"."""

    lines: int = 0
    parse_errors: int = 0
    kept: int = 0
    dropped_status: int = 0
    dropped_static: int = 0
    dropped_bot: int = 0
    users: int = 0
    sessions: int = 0
    inferred_events: int = 0
    incomplete_paths: int = 0

    def admits(self, status: int, resource: str, agent: str | None) -> bool:
        """Whether a line with these fields is kept.  It is dropped for a
        status other than 200, a static resource by extension or a robot
        agent, and counted once: as kept, or under the first of those rules
        that drops it."""
        if status != 200:
            self.dropped_status += 1
        elif _is_static(resource):
            self.dropped_static += 1
        elif is_bot(agent):
            self.dropped_bot += 1
        else:
            self.kept += 1
            return True
        return False

    def text(self) -> str:
        """One ``name: count`` line per counter, in field order."""
        return "\n".join(f"{name}: {count}" for name, count in asdict(self).items())


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def _unescape(text: str | None) -> str | None:
    return _ESCAPE_RE.sub(r"\1", text) if text and "\\" in text else text


@lru_cache(maxsize=64)
def _parse_timestamp(text: str) -> datetime:
    """The ``dd/Mon/yyyy:HH:MM:SS +zzzz`` text of a log line as an aware
    datetime.

    A pure lookup, cached because page assets are logged in the same second
    as their page.  A timestamp that does not exist, or whose instant falls
    outside years 1-9999 in UTC, raises :class:`LineParseError` without its
    line, which the caller attaches; errors are never cached.
    """
    month = _MONTH_NUM.get(text[3:6])
    if month is None:
        raise LineParseError(f"bad month: {text[3:6]!r}")
    zone = text[21:]
    tzinfo = _ZONES.get(zone)
    try:
        if tzinfo is None:
            if zone[3] > "5":
                raise ValueError("zone minutes out of range")
            offset = timedelta(hours=int(zone[1:3]), minutes=int(zone[3:]))
            tzinfo = _ZONES[zone] = timezone(-offset if zone[0] == "-" else offset)
        year = int(text[7:11])
        when = datetime(
            year, month, _TWO_DIGITS[text[:2]], _TWO_DIGITS[text[12:14]],
            _TWO_DIGITS[text[15:17]], _TWO_DIGITS[text[18:20]], 0, tzinfo,
        )
        # Only a time in year 1 or 9999 can fall outside years 1-9999 in UTC.
        if (year == 1 or year == 9999) and not _FIRST_EPOCH <= when.timestamp() <= _LAST_EPOCH:
            raise ValueError(text)
        return when
    except ValueError:
        raise LineParseError(f"bad timestamp: {text!r}") from None


@lru_cache(maxsize=64)
def _zone_text(offset: timedelta | None) -> str:
    """The ``+zzzz`` text of a UTC offset (``None`` for a naive time); seconds
    are dropped.  Keyed by the offset, not the datetime: aware datetimes
    naming one instant in different zones hash equal."""
    total = int(offset.total_seconds()) if offset else 0
    sign = "+" if total >= 0 else "-"
    total = abs(total)
    return f"{sign}{total // 3600:02d}{(total % 3600) // 60:02d}"


def _format_timestamp(value: datetime) -> str:
    # '%' formatting runs faster here than format specs in an f-string.
    return "%02d/%s/%04d:%02d:%02d:%02d %s" % (
        value.day, _MONTHS[value.month - 1], value.year,
        value.hour, value.minute, value.second, _zone_text(value.utcoffset()),
    )


def parse_log_line(line: str, log_format: str = "ECLF") -> EclfEntry:
    """Parse one CLF or ECLF line into its fields.

    ECLF is CLF plus quoted referrer and user agent; a trailing quoted
    cookies field is kept when present.  '-' marks an absent value.  A line
    is read with one match of its format's pattern, and its captured fields
    are then checked; a line the pattern does not match is a
    :class:`LineParseError` naming the first slot at fault.
    """
    return EclfEntry(*_check_line(line, log_format))


def _check_line(line: str, log_format: str) -> tuple:
    """The fields of :func:`parse_log_line`, checked, in ``EclfEntry``
    order, without building the entry."""
    escaped = "\\" in line
    pattern = (_LINE_RE if escaped else _PLAIN_LINE_RE).get(log_format)
    if pattern is None:
        raise ValueError(_FORMAT_ERROR.format(log_format))
    m = pattern.fullmatch(line)
    if m is None:
        raise _line_error(line, log_format)
    if log_format == "ECLF":
        (ip, identd, authuser, stamp, method, resource, protocol, status_text, size,
         referrer, agent, cookies) = m.groups()
    else:
        ip, identd, authuser, stamp, method, resource, protocol, status_text, size = m.groups()
        referrer = agent = cookies = None
    if escaped:  # only quoted text holds escapes
        method, resource, protocol, referrer, agent, cookies = map(
            _unescape, (method, resource, protocol, referrer, agent, cookies)
        )
    # The checks run in FORMATS.md's order (resource, status, byte count,
    # timestamp): a line with several faults is named by the first.
    if not (resource.startswith("/") or resource == "*"):
        raise LineParseError(f"bad resource: {resource!r}", line)
    status = _STATUS_CODES.get(status_text)
    if status is None:
        raise LineParseError(f"bad status: {status_text!r}", line)
    if size == "-":
        bytes_sent = None
    elif size.isascii() and size.isdigit():
        bytes_sent = int(size)
    else:
        raise LineParseError(f"bad byte count: {size!r}", line)
    try:
        timestamp = _parse_timestamp(stamp)
    except LineParseError as exc:
        exc.line = line
        raise
    return (
        ip, None if identd == "-" else identd, None if authuser == "-" else authuser,
        timestamp, method, resource, protocol, status, bytes_sent,
        None if referrer == "-" else referrer, None if agent == "-" else agent, cookies,
    )


def _line_error(line: str, log_format: str) -> LineParseError:
    """Why ``line`` does not match its format's pattern (FORMATS.md).

    The slots' pieces are matched one at a time; the reason names the first
    slot whose text lacks its kind or grammar, or else the field count.
    """
    required, most = _FIELD_COUNTS[log_format]
    end = len(line.rstrip(" "))
    pos = len(line) - len(line.lstrip(" "))
    for count, (name, kind, piece) in enumerate(_SLOTS[:most]):
        if pos >= end:  # before a required slot, as the line did not match
            return LineParseError(f"expected {required} fields for {log_format}, got {count}", line)
        # The piece, then spaces or the end of the line (re caches compiled patterns).
        m = re.compile(rf"{piece}(?: +|\Z)", re.S).match(line, pos, end)
        if m is None:
            found = re.compile(kind, re.S).match(line, pos, end)
            text = line[pos:end].partition(" ")[0] if found is None else found[1]
            return LineParseError(f"bad {name}: {text!r}", line)
        pos = m.end()
    return LineParseError(f"more than {most} fields for {log_format}", line)


@lru_cache(maxsize=256)
def _quoted(value: str | None) -> str:
    """A quoted field: ``"-"`` for ``None``, else the text with each ``\\``
    and ``"`` escaped by a backslash."""
    if value is None:
        return '"-"'
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _log_line(ip: str, identd: str | None, authuser: str | None, stamp: str, method: str,
              resource: str, protocol: str, status: int, bytes_sent: int | None,
              *quoted: str | None) -> str:
    """One log line, without its newline: ``stamp`` is the text of
    :func:`_format_timestamp` and ``quoted`` the values of the fields after
    the byte count (none for CLF), which are written quoted."""
    line = (
        f"{ip} {identd or '-'} {authuser or '-'} [{stamp}]"
        f' "{method} {resource} {protocol}"'
        f" {status} {'-' if bytes_sent is None else bytes_sent}"
    )
    for value in quoted:
        line = f"{line} {_quoted(value)}"
    return line


def render_log_line(entry: EclfEntry, log_format: str = "ECLF") -> str:
    """Inverse of :func:`parse_log_line` for well-formed lines."""
    quoted = ()
    if log_format != "CLF":
        quoted = (entry.referrer, entry.user_agent)
        if entry.cookies is not None:
            quoted += (entry.cookies,)
    return _log_line(
        entry.ip, entry.identd, entry.authuser, _format_timestamp(entry.timestamp),
        entry.method, entry.resource, entry.protocol, entry.status, entry.bytes_sent, *quoted,
    )


# ---------------------------------------------------------------------------
# filtering and user identification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _is_static(resource: str) -> bool:
    """Whether a resource names a static file by its extension, the query
    stripped and case ignored.  A pure lookup, cached because resources
    repeat."""
    return resource.split("?", 1)[0].lower().endswith(STATIC_EXTENSIONS)


def filter_entries(entries: Iterable[EclfEntry]) -> tuple[list[EclfEntry], PreprocessStats]:
    """Keep successful page requests from human clients, by the drop rules
    of :meth:`PreprocessStats.admits`."""
    stats = PreprocessStats()
    kept = [e for e in entries if stats.admits(e.status, e.resource, e.user_agent)]
    return kept, stats


def identify_users(cleaned: Iterable[EclfEntry]) -> list[Visit]:
    """Group kept entries into per-user visit streams keyed by (ip, agent)."""
    return _group_visits(
        (e.ip, e.user_agent, VisitEvent(e.timestamp, e.resource, e.referrer)) for e in cleaned
    )


def _group_visits(kept: Iterable[tuple[str, str | None, VisitEvent]]) -> list[Visit]:
    """Group ``(ip, agent, event)`` rows into per-user visit streams keyed
    by ``(ip, agent or "")``.  Events are time-ordered within a user by a
    stable sort, so equal instants keep their order; users come out sorted
    by key so the output is reproducible."""
    groups: dict[tuple[str, str], list[VisitEvent]] = {}
    for ip, agent, event in kept:
        groups.setdefault((ip, agent or ""), []).append(event)
    by_time = attrgetter("timestamp")
    return [Visit(key, sorted(groups[key], key=by_time)) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# sessionization
# ---------------------------------------------------------------------------

def _check_sessionize_args(session_gap: float, page_gap: float, mode: str) -> None:
    if mode not in SESSIONIZE_MODES:
        raise ValueError(f"mode must be one of {SESSIONIZE_MODES}")
    for name, gap in (("session_gap", session_gap), ("page_gap", page_gap)):
        if not gap > 0:  # NaN fails too
            raise ValueError(f"{name} must be greater than 0, got {gap}")


def sessionize(
    visit: Visit,
    session_gap: float = DEFAULT_SESSION_GAP,
    page_gap: float = DEFAULT_PAGE_GAP,
    mode: str = "both",
    split_at_midnight: bool = False,
) -> list[Visit]:
    """Split one user's visit stream into sessions.

    ``page_gap`` splits when the pause between consecutive pages exceeds the
    threshold; ``session_duration`` splits when the time since the session
    started exceeds it; ``both`` applies either.  ``split_at_midnight``
    reproduces the defective calendar-day cut some pipelines apply.
    """
    _check_sessionize_args(session_gap, page_gap, mode)
    sessions: list[Visit] = []
    current: list[VisitEvent] = []
    session_start: datetime | None = None
    previous: datetime | None = None
    for event in visit.events:
        split = False
        if current:
            assert session_start is not None and previous is not None
            page_pause = (event.timestamp - previous).total_seconds()
            duration = (event.timestamp - session_start).total_seconds()
            if mode in ("page_gap", "both") and page_pause > page_gap:
                split = True
            if mode in ("session_duration", "both") and duration > session_gap:
                split = True
            if split_at_midnight and event.timestamp.date() != previous.date():
                split = True
        if split:
            sessions.append(Visit(visit.user_key, current, len(sessions) + 1))
            current = []
        if not current:
            session_start = event.timestamp
        current.append(event)
        previous = event.timestamp
    if current:
        sessions.append(Visit(visit.user_key, current, len(sessions) + 1))
    return sessions


# ---------------------------------------------------------------------------
# path completion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _referrer_resource(referrer: str, site_hosts: frozenset[str]) -> str | None:
    """Referrer as an on-site resource path, or None when off-site.

    A site-relative referrer ("/a.php") is on-site by construction; an
    absolute URL is on-site only when its host is in ``site_hosts``.  A pure
    lookup, cached because a site has few pages to be referred from.
    """
    try:
        parts = urllib.parse.urlsplit(referrer)
    except ValueError:
        return None
    host = parts.hostname
    if host is None and referrer.startswith("/"):
        return referrer
    if not host or host.lower() not in site_hosts:
        return None
    resource = parts.path or "/"
    if parts.query:
        resource = f"{resource}?{parts.query}"
    return resource


def complete_paths(
    events: Sequence[VisitEvent],
    site_hosts: Iterable[str],
    stats: PreprocessStats,
) -> list[VisitEvent]:
    """Insert cache-hidden back navigations inferred from referrers.

    When an event's on-site referrer is not the previous page but did occur
    earlier in the session, the pages walked back over are re-inserted in
    reverse order, marked inferred, timestamped with the following request,
    and counted in ``stats.inferred_events``.  A referrer that never
    occurred earlier counts in ``stats.incomplete_paths``.
    """
    hosts = frozenset(h.lower() for h in site_hosts)
    result: list[VisitEvent] = []
    for event in events:
        if result and event.referrer:
            ref_resource = _referrer_resource(event.referrer, hosts)
            if ref_resource is not None and ref_resource != result[-1].resource:
                match = None
                for j in range(len(result) - 2, -1, -1):
                    if result[j].resource == ref_resource:
                        match = j
                        break
                if match is None:
                    stats.incomplete_paths += 1
                else:
                    for k in range(len(result) - 2, match - 1, -1):
                        result.append(VisitEvent(event.timestamp, result[k].resource, inferred=True))
                        stats.inferred_events += 1
        result.append(event)
    return result


# ---------------------------------------------------------------------------
# pipeline orchestration and session CSV
# ---------------------------------------------------------------------------

@dataclass
class PreprocessResult:
    sessions: list[Visit]
    stats: PreprocessStats


def _kept_events(path: Path, log_format: str, stats: PreprocessStats) -> Iterator[tuple]:
    """Yield ``(ip, agent, event)`` for each line of the log that the drop
    rules keep, counting the non-blank lines, parse errors and drop rules in
    ``stats``.  The log is read as UTF-8, each invalid byte replaced; a
    line is checked before any drop rule."""
    admits = stats.admits
    lines = parse_errors = 0
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.isspace():
                continue
            lines += 1
            try:
                ip, _, _, when, _, resource, _, status, _, referrer, agent, _ = _check_line(
                    line, log_format)
            except LineParseError:
                parse_errors += 1
                continue
            if admits(status, resource, agent):
                yield ip, agent, VisitEvent(when, resource, referrer)
    stats.lines, stats.parse_errors = lines, parse_errors


def preprocess_log(
    path: str | Path,
    log_format: str = "ECLF",
    page_gap: float = DEFAULT_PAGE_GAP,
    session_gap: float = DEFAULT_SESSION_GAP,
    mode: str = "both",
    split_at_midnight: bool = False,
    site_hosts: Iterable[str] = (),
) -> PreprocessResult:
    """Run the whole pipeline over a log file (gzip when its name ends with
    .gz), reading, checking, filtering and grouping each line in one pass."""
    # Checked before the log is read: a log without a line never reaches
    # _check_line, nor one without a kept visitor sessionize.
    if log_format not in _LINE_RE:
        raise ValueError(_FORMAT_ERROR.format(log_format))
    _check_sessionize_args(session_gap, page_gap, mode)
    stats = PreprocessStats()
    visits = _group_visits(_kept_events(Path(path), log_format, stats))
    sessions = []
    for visit in visits:
        for session in sessionize(visit, session_gap, page_gap, mode, split_at_midnight):
            session.events = complete_paths(session.events, site_hosts, stats)
            sessions.append(session)
    stats.users, stats.sessions = len(visits), len(sessions)
    return PreprocessResult(sessions, stats)


_SESSION_CSV_HEADER = ("user_key", "session_id", "seq", "time", "resource", "inferred")


def _epoch(when: datetime) -> int:
    """Epoch seconds of ``when``, a naive time read as the UTC time it names."""
    return int((when if when.tzinfo else when.replace(tzinfo=timezone.utc)).timestamp())


def write_sessions_csv(sessions: Sequence[Visit], stream) -> int:
    """One row per event: user_key, session_id, seq, epoch, resource, inferred.

    The key and resource cells repeat across rows, so each is encoded once
    through :func:`csvio.cell`; the integer cells never need quoting.
    """
    stream.write(csvio.row(_SESSION_CSV_HEADER))
    cell = csvio.cell
    n = 0
    for visit in sessions:
        session_id = "" if visit.session_id is None else visit.session_id
        prefix = f"{cell(f'{visit.user_key[0]}|{visit.user_key[1]}')},{session_id}"
        stream.write("".join([
            f"{prefix},{seq},{_epoch(event.timestamp)},{cell(event.resource)},"
            f"{int(event.inferred)}\n"
            for seq, event in enumerate(visit.events, start=1)
        ]))
        n += len(visit.events)
    return n


def read_sessions_csv(stream) -> list[tuple[str, int, int, str, bool]]:
    """The rows of a sessions CSV in file order, each ``(user_key,
    session_id, epoch, resource, inferred)``; any unreadable row raises
    :class:`csvio.RowError` naming its line."""
    rows = []
    for line_no, (user_key, session_id, _, time, resource, inferred) in csvio.rows(
        stream, _SESSION_CSV_HEADER
    ):
        try:
            session, epoch = int(session_id), int(time)
            if not _FIRST_EPOCH <= epoch <= _LAST_EPOCH:
                raise ValueError(f"time {epoch} is outside years 1-9999 in UTC")
            rows.append((user_key, session, epoch, resource, csvio.flag(inferred, "inferred")))
        except ValueError as exc:
            raise csvio.RowError(str(exc), line_no) from None
    return rows
