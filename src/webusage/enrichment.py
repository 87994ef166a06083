"""Client enrichment: user-agent parsing, GeoIP lookup, language tags,
and search-engine keywords.

All lookups here are table driven.  The user-agent rules, bot substrings and
search engines ship as plain data files under ``webusage/data``, read once
by :func:`_data_rows` and used as shipped; only the GeoIP table can be
replaced.  Parsing never raises on arbitrary agent strings; unknown fields
come back as the literal string ``"unknown"``.

``parse_user_agent``, ``is_bot`` and ``ip_to_int`` keep their recent
results in bounded caches.  Each cache holds a pure lookup keyed by its one
argument (a frozen profile per agent, a bot flag per agent, an integer per
address), never session state.  They pay off where agents and client
addresses repeat: a site sees few distinct agents, and a user who keeps an
address starts each new session from it.  An invalid address is not
cached, so it raises on every call.
"""

from __future__ import annotations

import bisect
import ipaddress
import re
import urllib.parse
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources
from typing import IO, Iterable, Sequence

from . import csvio

UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClientProfile:
    browser_name: str = UNKNOWN
    browser_version: str = UNKNOWN
    os_name: str = UNKNOWN
    os_version: str = UNKNOWN
    device_type: str = UNKNOWN


# ---------------------------------------------------------------------------
# user agents
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ua_rules() -> dict[str, tuple[tuple[re.Pattern, str], ...]]:
    """The compiled ``(pattern, name)`` rules of each kind (``browser``,
    ``os``, ``device``), in file order: the first match of a kind wins, so
    specific tokens (Edg before Chrome before Safari) come first."""
    rules: dict[str, list] = {"browser": [], "os": [], "device": []}
    for kind, token, name in _data_rows("ua_rules.tsv", 3):
        # Token must not sit inside a longer word: "Edg" must not match
        # "Edge/18", and "OPR" must not match inside unrelated text.  A
        # version may follow after '/' or a space.
        pattern = re.compile(
            r"(?<![A-Za-z0-9])"
            + re.escape(token)
            + r"(?![A-Za-z])[/ ]?(\d+(?:[._]\d+)*)?",
            re.IGNORECASE,
        )
        rules[kind].append((pattern, name))
    return {kind: tuple(found) for kind, found in rules.items()}


def _first_match(rules: Sequence[tuple[re.Pattern, str]], ua: str) -> tuple[str, str]:
    """(name, version) of the first rule found in ``ua``; either part may
    be ``"unknown"``."""
    for pattern, name in rules:
        m = pattern.search(ua)
        if m is not None:
            version = m.group(1)
            return name, (version.replace("_", ".") if version else UNKNOWN)
    return UNKNOWN, UNKNOWN


@lru_cache(maxsize=1024)
def is_bot(agent: str | None) -> bool:
    """True when one of the bundled bot substrings occurs in the lowercased agent."""
    if not agent:
        return False
    lowered = agent.lower()
    return any(bot in lowered for bot in default_bots())


@lru_cache(maxsize=1024)
def parse_user_agent(ua: str | None) -> ClientProfile:
    """Classify a user-agent string.  Total: never raises on any input.

    A bot is device ``bot``; an agent no device rule matches is ``desktop``
    when a browser or OS rule matched it.
    """
    if not ua:
        return ClientProfile()
    if is_bot(ua):
        return ClientProfile(device_type="bot")
    rules = ua_rules()
    browser, browser_version = _first_match(rules["browser"], ua)
    os_name, os_version = _first_match(rules["os"], ua)
    device, _ = _first_match(rules["device"], ua)
    if device == UNKNOWN and (browser != UNKNOWN or os_name != UNKNOWN):
        device = "desktop"
    return ClientProfile(browser, browser_version, os_name, os_version, device)


# ---------------------------------------------------------------------------
# GeoIP
# ---------------------------------------------------------------------------

class GeoIpLoadError(csvio.RowError):
    """A GeoIP table that cannot be loaded."""


_MAX_IPV4 = 2**32 - 1


@lru_cache(maxsize=4096)
def ip_to_int(ip: str | int) -> int:
    return int(ipaddress.IPv4Address(ip))


@dataclass(frozen=True)
class GeoIpRange:
    start_ip: int
    end_ip: int
    country_code: str


class GeoIpTable:
    """Sorted, non-overlapping inclusive integer ranges with binary search."""

    def __init__(self, ranges: Sequence[GeoIpRange]):
        self.ranges = tuple(sorted(ranges, key=lambda r: r.start_ip))
        self._starts = [r.start_ip for r in self.ranges]

    def lookup(self, ip: str | int) -> str:
        value = ip_to_int(ip)
        idx = bisect.bisect_right(self._starts, value) - 1
        if idx >= 0 and value <= self.ranges[idx].end_ip:
            return self.ranges[idx].country_code
        return UNKNOWN


def load_geoip(source: IO[str] | Iterable[str]) -> GeoIpTable:
    """Parse ``start_ip,end_ip,country_code`` CSV rows into a lookup table.

    A first row equal to that header, blank rows and ``#`` comments are
    skipped.  Rows may arrive unsorted.  Errors name the 1-based line.
    """
    found: list[tuple[GeoIpRange, int]] = []
    try:
        for line_no, row in csvio.rows(source):
            if row[0].lstrip().startswith("#"):
                # A quote opened in a comment would hide the rows up to its close.
                if any("\n" in cell or "\r" in cell for cell in row):
                    raise csvio.RowError("comment spans several lines", line_no)
                continue
            if ((len(row) == 1 and not row[0].strip())
                    or (line_no == 1 and row == [f.name for f in fields(GeoIpRange)])):
                continue
            csvio.check_width(row, 3, line_no)
            try:
                start, end = int(row[0]), int(row[1])
            except ValueError:
                raise csvio.RowError("ip bounds must be integers", line_no) from None
            if not (0 <= start <= _MAX_IPV4 and 0 <= end <= _MAX_IPV4):
                raise csvio.RowError(f"ip bounds must be in 0..{_MAX_IPV4}", line_no)
            code = row[2].strip()
            if not code:
                raise csvio.RowError("empty country code", line_no)
            if start > end:
                raise csvio.RowError("start_ip greater than end_ip", line_no)
            found.append((GeoIpRange(start, end, code), line_no))
        found.sort(key=lambda item: item[0].start_ip)
        for prev, cur in zip(found, found[1:]):
            if cur[0].start_ip <= prev[0].end_ip:
                raise csvio.RowError("range overlaps a previous range", cur[1])
    except csvio.RowError as exc:
        raise GeoIpLoadError(exc.reason, exc.line_no) from None
    return GeoIpTable([r for r, _ in found])


# ---------------------------------------------------------------------------
# languages
# ---------------------------------------------------------------------------

def first_language_tag(value: str | None) -> str | None:
    """First tag of an Accept-Language style value, case-normalized.

    "tr-TR,tr;q=0.9,en;q=0.8" gives "tr-TR"; empty input gives None.
    """
    if not value:
        return None
    tag = value.split(",")[0].split(";")[0].strip()
    if not tag:
        return None
    parts = tag.replace("_", "-").split("-")
    head = parts[0].lower()
    rest = [p.upper() if len(p) == 2 else p.lower() for p in parts[1:] if p]
    return "-".join([head] + rest)


# ---------------------------------------------------------------------------
# search engines
# ---------------------------------------------------------------------------

class SearchRegistry:
    """Maps referrer hosts to engines and extracts search keywords.

    Each engine is a ``(name, host label, keyword parameter)`` tuple.  An
    engine matches when its host label appears as one of the dot separated
    labels of the referrer host, so "google" covers both www.google.com and
    www.google.com.tr.
    """

    def __init__(self, engines: Iterable[tuple[str, str, str]]):
        self.engines = tuple(engines)

    def match_host(self, host: str) -> tuple[str, str, str] | None:
        labels = host.lower().split(".")
        for engine in self.engines:
            if engine[1] in labels:
                return engine
        return None

    def extract(self, referrer_url: str) -> tuple[str, str | None] | None:
        """(engine name, normalized keywords or None), or None if no engine."""
        try:
            host = urllib.parse.urlsplit(referrer_url).hostname
        except ValueError:
            return None
        if not host:
            return None
        engine = self.match_host(host)
        if engine is None:
            return None
        name, _, parameter = engine
        # The query as written: urlsplit's would have lost any CR, LF or tab.
        query = referrer_url.partition("#")[0].partition("?")[2]
        values = urllib.parse.parse_qs(query).get(parameter)
        if not values or not values[0].strip():
            return name, None
        return name, " ".join(values[0].split()).lower()


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------

def _data_text(name: str) -> str:
    return resources.files("webusage.data").joinpath(name).read_text(encoding="utf-8")


def _data_rows(name: str, width: int) -> list[tuple[str, ...]]:
    """The tab-separated rows of a bundled data file, without blank lines
    and ``#`` comments.  A row of another width raises ``ValueError``."""
    rows = []
    for line_no, line in enumerate(_data_text(name).splitlines(), start=1):
        line = line.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        row = tuple(line.split("\t"))
        if len(row) != width:
            raise ValueError(
                f"{name} line {line_no}: expected {width} tab-separated fields, got {len(row)}"
            )
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def default_bots() -> tuple[str, ...]:
    return tuple(bot for (bot,) in _data_rows("bots.txt", 1))


@lru_cache(maxsize=None)
def default_search_registry() -> SearchRegistry:
    return SearchRegistry(_data_rows("search_engines.tsv", 3))


@lru_cache(maxsize=None)
def sample_geoip_table() -> GeoIpTable:
    with resources.files("webusage.data").joinpath("geoip_sample.csv").open("r") as fh:
        return load_geoip(fh)
