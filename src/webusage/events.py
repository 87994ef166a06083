"""Request events and the line-oriented replay file codec.

A replay file carries one request per line as space-separated ``key=value``
tokens with URL-escaped values, so any event the embedded API accepts can be
stored in a plain text file and fed back later.

A ``RawRequestEvent`` checks the type of every field when it is built,
decoded or not, in one pass of per-field tests written out in a fixed
order, so the ``ValueError`` names the first bad field in that order.

The codec goes through four bounded ``lru_cache``s, each of a pure
function of its text and none holding session state: ``_unquote``
percent-decodes a value, ``_escape_value`` and ``_escape_map_part``
percent-escape a value and a map key or value, and ``_map_value`` holds the
written text of a map, keyed by its items.  They pay because addresses,
tokens, agents and cookie maps repeat from request to request.  A value
holding no character ``quote`` would escape is written as it is, without a
call.
"""

from __future__ import annotations

import re
import sys
import urllib.parse
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Iterator, TextIO

from .csvio import RowError

METHODS = ("GET", "POST")

# Characters left unescaped in replay values.  Space, newline and '%' must
# always be escaped; '=' may stay literal because the reader splits each
# token on the first '=' only.
_SAFE = ":/?&=._-~+@,;()'*!"


class ReplayFormatError(RowError):
    """A replay line could not be decoded."""


def is_load_time(value: object) -> bool:
    """True for a page load time the store can hold as a decimal: an int or
    a float, not a bool, finite and at least 0."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


@dataclass(frozen=True)
class AppPageResult:
    """End-of-request application data for one served page.

    The three titles are text, ``error_text`` text or None, and
    ``page_load_time`` a finite number of seconds, at least 0, kept as a
    float; anything else raises ValueError.  A result is frozen, so what
    was checked when it was built is what the store writes.
    """

    page_title: str = ""
    web_message: str = ""
    subtitle: str = ""
    page_load_time: float = 0.0
    error_text: str | None = None

    def __post_init__(self) -> None:
        for name in ("page_title", "web_message", "subtitle"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValueError(f"{name} must be a str, got {value!r}")
        if self.error_text is not None and type(self.error_text) is not str:
            raise ValueError(f"error_text must be a str or None, got {self.error_text!r}")
        if not is_load_time(self.page_load_time):
            raise ValueError(
                f"page_load_time must be a finite number >= 0, got {self.page_load_time!r}"
            )
        object.__setattr__(self, "page_load_time", float(self.page_load_time))


def naive_utc(when: datetime) -> datetime:
    """``when`` as the naive UTC time it names; a naive time is one already."""
    if when.tzinfo is None:
        return when
    try:
        return when.astimezone(timezone.utc).replace(tzinfo=None)
    except OverflowError:
        raise ValueError(f"timestamp {when.isoformat()} is outside years 1-9999 in UTC") from None


@dataclass
class RawRequestEvent:
    """One HTTP request as seen by the application tier.

    ``session_token`` is always present: the serving layer issues one on the
    first response even when the client arrived without a cookie.  A
    ``timestamp`` with a UTC offset is kept as the naive UTC time it names.

    ``simulator.generate`` builds events positionally, so the field order
    below is part of its contract.
    """

    client_ip: str
    timestamp: datetime
    method: str
    url: str
    session_token: str
    user_agent: str = ""
    referrer: str | None = None
    auth_user: str | None = None
    app_service: str = ""
    module: str = ""
    server_id: int = 1
    get_params: dict[str, str] = field(default_factory=dict)
    post_params: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # One check per field, in a fixed order, so a refused event is named
        # by its first bad field in that order.
        if not isinstance(self.timestamp, datetime):
            raise ValueError(f"timestamp must be a datetime, got {self.timestamp!r}")
        if type(self.server_id) is not int:
            raise ValueError(f"server_id must be an int, got {self.server_id!r}")
        if type(self.client_ip) is not str:
            raise ValueError(f"client_ip must be a str, got {self.client_ip!r}")
        if type(self.url) is not str:
            raise ValueError(f"url must be a str, got {self.url!r}")
        if type(self.session_token) is not str:
            raise ValueError(f"session_token must be a str, got {self.session_token!r}")
        if type(self.user_agent) is not str:
            raise ValueError(f"user_agent must be a str, got {self.user_agent!r}")
        if type(self.app_service) is not str:
            raise ValueError(f"app_service must be a str, got {self.app_service!r}")
        if type(self.module) is not str:
            raise ValueError(f"module must be a str, got {self.module!r}")
        if self.referrer is not None and type(self.referrer) is not str:
            raise ValueError(f"referrer must be a str or None, got {self.referrer!r}")
        if self.auth_user is not None and type(self.auth_user) is not str:
            raise ValueError(f"auth_user must be a str or None, got {self.auth_user!r}")
        if type(self.get_params) is not dict:
            raise ValueError(f"get_params must be a dict, got {type(self.get_params).__name__}")
        for key, value in self.get_params.items():
            if type(key) is not str or type(value) is not str:
                raise ValueError(f"get_params keys and values must be str, got {key!r}: {value!r}")
        if type(self.post_params) is not dict:
            raise ValueError(f"post_params must be a dict, got {type(self.post_params).__name__}")
        for key, value in self.post_params.items():
            if type(key) is not str or type(value) is not str:
                raise ValueError(f"post_params keys and values must be str, got {key!r}: {value!r}")
        if type(self.cookies) is not dict:
            raise ValueError(f"cookies must be a dict, got {type(self.cookies).__name__}")
        for key, value in self.cookies.items():
            if type(key) is not str or type(value) is not str:
                raise ValueError(f"cookies keys and values must be str, got {key!r}: {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.session_token:
            raise ValueError("session_token must be non-empty")
        self.timestamp = naive_utc(self.timestamp)
        if self.referrer == "":
            self.referrer = None
        if self.auth_user == "":
            self.auth_user = None


def _escaper(safe: str) -> Callable[[str], str]:
    """``quote(text, safe=safe)`` through a bounded cache, calling ``quote``
    only for text holding a character it escapes: anything but ASCII
    letters, digits, ``_.-~`` and ``safe``."""
    needs_escape = re.compile(f"[^A-Za-z0-9_.~{re.escape(safe)}-]").search
    quote = partial(urllib.parse.quote, safe=safe)

    @lru_cache(maxsize=1024)
    def escape(text: str) -> str:
        return quote(text) if needs_escape(text) else text

    return escape


_escape_value = _escaper(_SAFE)
_escape_map_part = _escaper("")


@lru_cache(maxsize=1024)
def _map_value(items: tuple[tuple[str, str], ...]) -> str:
    """The replay value of a map given as its items: ``urlencode(m,
    quote_via=quote)`` escaped as a value.  An encoded map holds only
    characters of _SAFE besides '%', so that escapes exactly its '%'."""
    esc = _escape_map_part
    return "&".join(f"{esc(k)}={esc(v)}" for k, v in items).replace("%", "%25")


_unquote = lru_cache(maxsize=256)(urllib.parse.unquote)


def _decode_map(s: str) -> dict[str, str]:
    """Equal to ``dict(parse_qsl(s, keep_blank_values=True))``: fields split
    on '&', empty fields are skipped, a field without '=' gets an empty
    value, and '+' reads as a space before percent-decoding."""
    out: dict[str, str] = {}
    for field_text in s.split("&"):
        if not field_text:
            continue
        name, _, value = field_text.partition("=")
        name = name.replace("+", " ")
        value = value.replace("+", " ")
        out[_unquote(name) if "%" in name else name] = (
            _unquote(value) if "%" in value else value
        )
    return out


def format_replay_line(event: RawRequestEvent) -> str:
    esc = _escape_value
    # isoformat writes only digits, '-', ':', 'T' and '+', and an int only
    # digits and '-', none of which quote escapes.
    time = event.timestamp.isoformat(sep="T", timespec="seconds")
    referrer = "" if event.referrer is None else f" referrer={esc(event.referrer)}"
    user = "" if event.auth_user is None else f" user={esc(event.auth_user)}"
    return (
        f"ip={esc(event.client_ip)} time={time} method={esc(event.method)}"
        f" url={esc(event.url)} token={esc(event.session_token)}"
        f" agent={esc(event.user_agent)}{referrer}{user}"
        f" service={esc(event.app_service)} module={esc(event.module)}"
        f" server={event.server_id} get={_map_value(tuple(event.get_params.items()))}"
        f" post={_map_value(tuple(event.post_params.items()))}"
        f" cookies={_map_value(tuple(event.cookies.items()))}"
    )


# Each replay key and the RawRequestEvent field it sets, in the order
# writers emit them; the first five keys are the required ones.
_FIELDS = {
    "ip": "client_ip", "time": "timestamp", "method": "method", "url": "url",
    "token": "session_token", "agent": "user_agent", "referrer": "referrer",
    "user": "auth_user", "service": "app_service", "module": "module",
    "server": "server_id", "get": "get_params", "post": "post_params", "cookies": "cookies",
}
_REQUIRED = tuple(_FIELDS)[:5]


def parse_replay_line(line: str, line_no: int | None = None) -> RawRequestEvent:
    """Decode one replay line.  A missing optional key leaves its field's
    default."""
    fields: dict[str, Any] = {}
    for token in line.split(" "):
        if not token:
            raise ReplayFormatError("empty token (double space?)", line_no)
        key, sep, raw = token.partition("=")
        if not sep:
            raise ReplayFormatError(f"token without '=': {token!r}", line_no)
        name = _FIELDS.get(key)
        if name is None:
            raise ReplayFormatError(f"unknown key {key!r}", line_no)
        if name in fields:
            raise ReplayFormatError(f"duplicate key {key!r}", line_no)
        fields[name] = _unquote(raw) if "%" in raw else raw
    missing = [key for key in _REQUIRED if _FIELDS[key] not in fields]
    if missing:
        raise ReplayFormatError(f"missing keys: {sorted(missing)}", line_no)
    try:
        fields["timestamp"] = datetime.fromisoformat(fields["timestamp"])
    except ValueError as exc:
        raise ReplayFormatError(f"bad time: {exc}", line_no) from None
    if "server_id" in fields:
        try:
            fields["server_id"] = int(fields["server_id"])
        except ValueError:
            raise ReplayFormatError(f"bad server id: {fields['server_id']!r}", line_no) from None
    for name in ("get_params", "post_params", "cookies"):
        if name in fields:
            fields[name] = _decode_map(fields[name])
    try:
        return RawRequestEvent(**fields)
    except ValueError as exc:
        raise ReplayFormatError(str(exc), line_no) from None


def write_replay(events: Iterable[RawRequestEvent], stream: TextIO) -> int:
    """Write events one per line; returns the number written."""
    n = 0
    for event in events:
        stream.write(f"{format_replay_line(event)}\n")
        n += 1
    return n


def read_replay(stream: Iterable[str]) -> Iterator[RawRequestEvent]:
    """Yield events from a replay stream.

    Blank lines and '#' comments are skipped.  Timestamps must be
    non-decreasing, mirroring how a live request stream arrives.
    """
    last: datetime | None = None
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        event = parse_replay_line(line, line_no)
        if last is not None and event.timestamp < last:
            raise ReplayFormatError("timestamps must be non-decreasing", line_no)
        last = event.timestamp
        yield event
