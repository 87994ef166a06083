"""Deterministic synthetic-traffic generator.

Produces three aligned views of the same simulated browsing: a replay file
for the request-time collector, the equivalent server access log for the
classical pipeline, and a ground-truth CSV labeling every event with its
true visitor and session.  Everything is driven by one seeded Mersenne
Twister, so a (config, seed) pair always yields byte-identical files on any
host.

A visitor keeps one identity token across visits (a persistent cookie); a
true session is a maximal run of requests under one token with no pause
longer than the timeout.  ``cookie_loss_share`` models clients that shed
cookies: a loss replaces the token mid-stream, which genuinely starts a new
identity, so the ground truth splits there too.  NAT pools, mid-session IP
changes, cache-hidden back navigations, and log-only noise (static files,
error responses, crawler hits) each stress one classical-preprocessing
weakness without touching what the collector sees.

The simulator keeps no cache of its own.  Its one table, ``_PAGES``, is
built once at import from the entry and next pages, the only resources an
event can have, and gives each its replay ``url``, ``module`` and query
items; it never grows.  Access-log lines are built by
``baseline._log_line``, which quotes each referrer and agent through the
bounded ``baseline._quoted`` cache; a page event's time is formatted once
for all of its lines, which are written together.  Replay lines go through
the bounded escape and map caches of ``events``.
"""

from __future__ import annotations

import ipaddress
import math
import random
import urllib.parse
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta
from operator import attrgetter
from pathlib import Path
from typing import Iterable, TextIO

from .baseline import _format_timestamp, _log_line
from .csvio import replacing
from .events import RawRequestEvent, write_replay
from .storage import NO_GENDER_TYPES
from .truth import GroundTruth, TruthEvent, TruthSession, TruthUser, save_truth

SITE_HOST = "www.campus.example"
BASE_EPOCH = 1_630_540_800  # 2021-09-02 00:00:00 UTC

_EPOCH0 = datetime(1970, 1, 1)

DEFAULT_USER_TYPE_MIX = (
    ("guest", 0.45),
    ("student", 0.28),
    ("academic_staff", 0.10),
    ("administrative_staff", 0.07),
    ("graduate", 0.04),
    ("lecturer_nonsigned", 0.03),
    ("unit_mission", 0.02),
    ("contracted_staff", 0.006),
    ("retired_staff", 0.004),
)
DEFAULT_DEVICE_MIX = (
    ("desktop", 0.62),
    ("mobile", 0.28),
    ("tablet", 0.10),
)

_AGENTS = {
    "desktop": (
        ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/92.0.4515.131 Safari/537.36", 0.34),
        ("Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:91.0) Gecko/20100101"
         " Firefox/91.0", 0.16),
        ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/92.0.4515.131 Safari/537.36"
         " Edg/92.0.902.67", 0.14),
        ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15"
         " (KHTML, like Gecko) Version/14.1.2 Safari/605.1.15", 0.10),
        ("Mozilla/5.0 (Macintosh; Intel Mac OS X 11_5_2) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/92.0.4515.159 Safari/537.36", 0.08),
        ("Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:92.0) Gecko/20100101"
         " Firefox/92.0", 0.08),
        ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/91.0.4472.164 Safari/537.36"
         " OPR/77.0.4054.277", 0.05),
        ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/91.0.4472.135 YaBrowser/21.6.2.855"
         " Yowser/2.5 Safari/537.36", 0.05),
    ),
    "mobile": (
        ("Mozilla/5.0 (Linux; Android 11; SM-A515F) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/92.0.4515.115 Mobile Safari/537.36", 0.45),
        ("Mozilla/5.0 (iPhone; CPU iPhone OS 14_6 like Mac OS X)"
         " AppleWebKit/605.1.15 (KHTML, like Gecko) Version/14.1.1"
         " Mobile/15E148 Safari/604.1", 0.30),
        ("Mozilla/5.0 (Linux; Android 11; SAMSUNG SM-G991B) AppleWebKit/537.36"
         " (KHTML, like Gecko) SamsungBrowser/15.0 Chrome/90.0.4430.210"
         " Mobile Safari/537.36", 0.15),
        ("Mozilla/5.0 (Android 11; Mobile; rv:92.0) Gecko/92.0 Firefox/92.0", 0.10),
    ),
    "tablet": (
        ("Mozilla/5.0 (iPad; CPU OS 14_6 like Mac OS X) AppleWebKit/605.1.15"
         " (KHTML, like Gecko) Version/14.1.1 Mobile/15E148 Safari/604.1", 0.60),
        ("Mozilla/5.0 (Linux; Android 10; SM-T510) AppleWebKit/537.36"
         " (KHTML, like Gecko) Chrome/91.0.4472.114 Safari/537.36", 0.40),
    ),
}

_LANGUAGES = (
    ("tr-TR,tr;q=0.9", 0.55),
    ("en-US,en;q=0.8", 0.20),
    ("de-DE,de;q=0.7", 0.08),
    ("en-GB,en;q=0.9", 0.06),
    ("fr-FR,fr;q=0.9", 0.06),
    ("nl-NL,nl;q=0.8", 0.05),
)

# (first address, last address) pools the sample country table covers.
_IP_POOLS = (
    ((193, 140, 0, 0), 65536, 0.50),   # TR
    ((212, 174, 0, 0), 65536, 0.12),   # TR
    ((193, 255, 0, 0), 65536, 0.08),   # TR
    ((141, 76, 0, 0), 65536, 0.08),    # DE
    ((145, 97, 0, 0), 65536, 0.06),    # NL
    ((51, 140, 0, 0), 65536, 0.06),    # GB
    ((90, 0, 0, 0), 4194304, 0.05),    # FR
    ((23, 0, 0, 0), 1048576, 0.05),    # US
)

_ENTRY_PAGES = (
    ("/index.php", 0.50),
    ("/announcements.php", 0.20),
    ("/courses.php", 0.15),
    ("/login.php", 0.15),
)
_NEXT_PAGES = (
    ("/index.php", 0.10),
    ("/courses.php", 0.14),
    ("/courses.php?id=101", 0.08),
    ("/courses.php?id=205", 0.06),
    ("/announcements.php", 0.10),
    ("/news.php?id=7", 0.07),
    ("/library.php", 0.09),
    ("/profile.php", 0.08),
    ("/grades.php", 0.08),
    ("/schedule.php", 0.08),
    ("/assignments.php", 0.06),
    ("/exam.php", 0.06),
)

_SEARCH_REFERRERS = (
    ("https://www.google.com/search?q=library+hours", 0.40),
    ("https://www.google.com/search?q=course+schedule", 0.20),
    ("https://www.bing.com/search?q=exam+results", 0.15),
    ("https://search.yahoo.com/search?p=campus+announcements", 0.10),
    ("https://yandex.com.tr/search/?text=student+portal", 0.08),
    ("https://duckduckgo.com/?q=campus+library", 0.07),
)
_EXTERNAL_REFERRERS = (
    ("https://www.facebook.com/", 0.4),
    ("https://twitter.com/campusnews", 0.3),
    ("http://www.partner.example/links.html", 0.3),
)

_STATIC_RESOURCES = ("/static/style.css", "/static/logo.png", "/static/app.js",
                     "/favicon.ico")
_BOT_AGENTS = (
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
    "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)",
)

_NOISE_STREAM_OFFSET = 1_000_003


class ConfigError(ValueError):
    """Workload fields of the wrong type or out of range; names use flag spelling."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.fields = [flag for flag, _ in problems]
        super().__init__("; ".join(f"{flag}: {why}" for flag, why in problems))


@dataclass
class WorkloadConfig:
    """A workload's settings, which are the `simulate` options: ``n_users`` is
    ``--users``, ``pageviews_per_session_mean`` is ``--pageviews-mean``, and any
    other field is ``--`` and its name with ``-`` for ``_`` (``OPTION_NAMES``).
    Each option takes its field's type, default and ``help`` metadata."""

    seed: int = 42
    n_users: int = 50
    session_rate: float = field(default=5.0, metadata={"help": "mean sessions per user"})
    pageviews_per_session_mean: float = field(
        default=7.0, metadata={"help": "mean pageviews per session"})
    timeout: float = 1800.0
    nat_share: float = 0.0
    dynamic_ip_share: float = 0.0
    cookie_loss_share: float = 0.0
    cached_nav_share: float = 0.0
    duration: float = field(default=7 * 86400.0, metadata={"help": "simulated span in seconds"})

    def validate(self) -> None:
        # field -> (test, text).  Each test, as ``low <= x <= high``, also
        # refuses NaN; the upper bounds keep generated times in the calendar.
        share = (lambda v: 0.0 <= v <= 1.0, "must be within [0, 1]")
        ranges = {
            "n_users": (lambda v: v >= 1, "must be an integer of at least 1"),
            "session_rate": (lambda v: 0.0 < v <= 1000.0, "must be in (0, 1000]"),
            "pageviews_per_session_mean": (lambda v: 1.0 <= v <= 1000.0, "must be in [1, 1000]"),
            "timeout": (lambda v: 60.0 <= v <= 31_536_000.0, "must be in [60, 31536000] seconds"),
            "nat_share": share, "dynamic_ip_share": share,
            "cookie_loss_share": share, "cached_nav_share": share,
            "duration": (lambda v: 3600.0 <= v <= 315_360_000.0,
                         "must be in [3600, 315360000] seconds"),
        }
        problems: list[tuple[str, str]] = []
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            # an int field takes an int, a float field an int or float; a bool neither
            if type(value) is not int and (f.type == "int" or type(value) is not float):
                kind = "an integer" if f.type == "int" else "a number"
                problems.append((f.name, f"must be {kind}, got {value!r}"))
            elif f.name in ranges and not ranges[f.name][0](value):
                problems.append((f.name, f"{ranges[f.name][1]}, got {value}"))
        if problems:
            raise ConfigError([(OPTION_NAMES[name], why) for name, why in problems])


# WorkloadConfig field -> its `simulate` option without the "--".
OPTION_NAMES = {f.name: f.name.replace("_", "-") for f in fields(WorkloadConfig)}
OPTION_NAMES.update(n_users="users", pageviews_per_session_mean="pageviews-mean")


def _pick(rng: random.Random, weighted: Iterable[tuple[object, float]]):
    u = rng.random()
    acc = 0.0
    item = None
    for item, weight in weighted:
        acc += weight
        if u < acc:
            return item
    return item


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _exp_seconds(rng: random.Random, mean: float) -> int:
    return int(-mean * math.log(1.0 - rng.random()))


@dataclass
class _Person:
    user_id: int
    username: str | None
    user_type: str
    gender: str | None
    device: str
    agent: str
    language: str
    ip: str
    pool: int
    dynamic: bool
    token: str


@dataclass
class _SimEvent:
    epoch: int
    ip: str
    resource: str
    referrer: str | None
    token: str
    cached: bool
    person: _Person
    run: list[int]  # true session: [start epoch, user id, pages, end epoch, session id]


class _IpAllocator:
    """Hands out distinct addresses from the sampled country pools."""

    def __init__(self):
        self._next = [0] * len(_IP_POOLS)

    def take(self, pool: int) -> str:
        (a, b, c, d), size, _ = _IP_POOLS[pool]
        base = ((a * 256 + b) * 256 + c) * 256 + d
        offset = 10 + self._next[pool]
        if offset >= size - 10:
            offset = 10 + (offset % (size - 20))
        self._next[pool] += 1
        return str(ipaddress.IPv4Address(base + offset))


def _full_url(resource: str) -> str:
    return f"http://{SITE_HOST}{resource}"


def _page(resource: str) -> tuple[str, str, tuple[tuple[str, str], ...]]:
    """A resource's replay ``url``, its ``module`` and its query items."""
    path, _, query = resource.partition("?")
    module = path.lstrip("/").removesuffix(".php") or "index"
    return _full_url(resource), module, tuple(urllib.parse.parse_qsl(query))


# The page table: every resource the draw loop can give an event (a cached
# navigation revisits a drawn page), with the fields it fixes.
_PAGES = {resource: _page(resource) for resource, _ in (*_ENTRY_PAGES, *_NEXT_PAGES)}


def _entry_referrer(rng: random.Random) -> str | None:
    u = rng.random()
    if u < 0.40:
        return None
    if u < 0.65:
        return _pick(rng, _SEARCH_REFERRERS)
    if u < 0.80:
        return _pick(rng, _EXTERNAL_REFERRERS)
    return _full_url("/index.php")


def _make_people(config: WorkloadConfig, rng: random.Random,
                 alloc: _IpAllocator) -> list[_Person]:
    nat_count = int(round(config.nat_share * config.n_users))
    nat_ips: list[str] = []
    people = []
    for user_id in range(1, config.n_users + 1):
        user_type = _pick(rng, DEFAULT_USER_TYPE_MIX)
        device = _pick(rng, DEFAULT_DEVICE_MIX)
        agent = _pick(rng, _AGENTS[device])
        language = _pick(rng, _LANGUAGES)
        pool = _pick(rng, [(i, w) for i, (_, _, w) in enumerate(_IP_POOLS)])
        if user_id <= nat_count:
            # Roughly three visitors share each translated address.
            pool_index = (user_id - 1) // 3
            if pool_index >= len(nat_ips):
                nat_ips.append(alloc.take(pool))
            ip = nat_ips[pool_index]
            dynamic = False
        else:
            ip = alloc.take(pool)
            dynamic = rng.random() < config.dynamic_ip_share
        if user_type == "guest":
            username = None
            gender = None
        else:
            username = f"u{user_id:04d}"
            gender = None if user_type in NO_GENDER_TYPES else (
                "male" if rng.random() < 0.5 else "female"
            )
        people.append(_Person(
            user_id=user_id,
            username=username,
            user_type=user_type,
            gender=gender,
            device=device,
            agent=agent,
            language=language,
            ip=ip,
            pool=pool,
            dynamic=dynamic,
            token=f"v{user_id:06d}x{user_id:08d}",
        ))
    return people


def generate(config: WorkloadConfig) -> tuple[list[RawRequestEvent], GroundTruth]:
    """Produce the replay event list and its ground truth.

    Events come out in (epoch, user id) order; event_seq N in the truth is
    the N-th replay line.  Deterministic for a given config.
    """
    config.validate()
    rng = random.Random(config.seed)
    alloc = _IpAllocator()
    people = _make_people(config, rng, alloc)

    timeout = config.timeout
    intra_cap = max(1, min(300, int(timeout // 2)))
    token_seq = len(people)
    drawn: list[_SimEvent] = []
    # A true session is a run of one visitor's events under one token with
    # no pause above the timeout; each event joins its run as it is drawn.
    runs: list[list[int]] = []

    for person in people:
        n_sessions = _poisson(rng, config.session_rate)
        starts = sorted(
            BASE_EPOCH + int(config.duration * rng.random())
            for _ in range(n_sessions)
        )
        previous: _SimEvent | None = None
        for raw_start in starts:
            start = raw_start
            if previous is not None:
                floor = previous.epoch + int(timeout) + 1 + _exp_seconds(rng, 300.0)
                if start < floor:
                    start = floor
            n_pages = 1 + _poisson(rng, config.pageviews_per_session_mean - 1.0)
            t = start
            ip = person.ip
            history: list[str] = []
            for page_index in range(n_pages):
                if rng.random() < config.cookie_loss_share:
                    token_seq += 1
                    person.token = f"v{person.user_id:06d}x{token_seq:08d}"
                if page_index > 0:
                    t += 1 + min(_exp_seconds(rng, 60.0), intra_cap - 1)
                    if person.dynamic and rng.random() < 0.25:
                        ip = alloc.take(person.pool)
                cached = (
                    page_index > 0
                    and len(history) >= 2
                    and rng.random() < config.cached_nav_share
                )
                if page_index == 0:
                    resource = _pick(rng, _ENTRY_PAGES)
                    referrer = _entry_referrer(rng)
                else:
                    referrer = _PAGES[history[-1]][0]  # the page just viewed
                    if cached:
                        history.pop()
                        resource = history[-1]
                    else:
                        resource = _pick(rng, _NEXT_PAGES)
                if not cached:
                    history.append(resource)
                if previous and person.token == previous.token and t - previous.epoch <= timeout:
                    run = previous.run
                else:
                    run = [t, person.user_id, 0, t]
                    runs.append(run)
                run[2] += 1
                run[3] = t
                previous = _SimEvent(t, ip, resource, referrer, person.token, cached, person, run)
                drawn.append(previous)

    # A visitor's times strictly rise: each page adds at least a second, and
    # each session starts after the previous one's end plus the timeout.  So
    # (start epoch, user id) numbers the runs and (epoch, user id) orders the
    # events with no ties.
    runs.sort()
    for session_id, run in enumerate(runs, start=1):
        run.append(session_id)
    truth_sessions = [TruthSession(run[4], run[1], run[2], run[0], run[3]) for run in runs]
    drawn.sort(key=attrgetter("epoch", "person.user_id"))

    replay_events: list[RawRequestEvent] = []
    truth_events: list[TruthEvent] = []
    for seq, event in enumerate(drawn, start=1):
        person = event.person
        resource = event.resource
        url, module, query = _PAGES[resource]
        # Positional calls, in field order (days, seconds for the
        # timedelta): by keyword the event's call costs about 40% more.
        replay_events.append(RawRequestEvent(
            event.ip, _EPOCH0 + timedelta(0, event.epoch), "GET", url, event.token,
            person.agent, event.referrer, person.username, "campus", module, 1,
            dict(query), {}, {"sid": event.token, "accept-language": person.language},
        ))
        truth_events.append(TruthEvent._make((
            seq, person.user_id, event.run[4], event.epoch, event.ip, resource, event.cached,
        )))

    truth = GroundTruth(
        users=[
            TruthUser(p.user_id, p.username, p.user_type, p.gender, p.device)
            for p in people
        ],
        sessions=truth_sessions,
        events=truth_events,
    )
    return replay_events, truth


def emit_eclf(
    events: list[RawRequestEvent],
    truth: GroundTruth,
    config: WorkloadConfig,
    stream: TextIO,
    noise: bool = True,
) -> int:
    """Write the server's view of the stream as combined-format log lines.

    Cache-served navigations never reach the server, so they are skipped.
    With ``noise`` on, a second seeded generator interleaves static-file
    fetches, non-200 responses, and crawler hits; all of it is confined to
    the log so the replay stream and ground truth stay untouched.
    """
    noise_rng = random.Random(config.seed + _NOISE_STREAM_OFFSET)
    lines = 0

    def draw(n: int) -> int:
        return int(noise_rng.random() * n)

    # Arguments are evaluated left to right, which fixes the order of the
    # noise draws and so the bytes of the log.  Every line of a page event
    # carries its time, so the time is formatted once, and its lines are
    # written together.  The truth epoch is formatted as the naive UTC time
    # it names, which a naive time's zone text (+0000) states.
    for event, truth_event in zip(events, truth.events):
        if truth_event.cached:
            continue
        stamp = _format_timestamp(_EPOCH0 + timedelta(0, truth_event.epoch))
        ip, agent, page = event.client_ip, event.user_agent, truth_event.resource
        out = [_log_line(ip, None, None, stamp, event.method, page, "HTTP/1.1", 200,
                         800 + (truth_event.event_seq * 137) % 18200, event.referrer, agent)]
        if noise:
            if noise_rng.random() < 0.40:
                referrer = _full_url(page)
                for _ in range(1 + draw(3)):
                    out.append(_log_line(
                        ip, None, None, stamp, "GET",
                        _STATIC_RESOURCES[draw(len(_STATIC_RESOURCES))], "HTTP/1.1", 200,
                        120 + draw(4000), referrer, agent,
                    ))
            if noise_rng.random() < 0.05:
                status = (301, 302, 404)[draw(3)]
                out.append(_log_line(
                    ip, None, None, stamp, "GET", _pick(noise_rng, _NEXT_PAGES), "HTTP/1.1",
                    status, None if status in (301, 302) else 291, None, agent,
                ))
            if noise_rng.random() < 0.02:
                bot_agent = _BOT_AGENTS[draw(len(_BOT_AGENTS))]
                bot_ip = str(ipaddress.IPv4Address(1123631104 + draw(8192)))
                for _ in range(1 + draw(2)):
                    resource = (
                        "/robots.txt" if noise_rng.random() < 0.4
                        else _pick(noise_rng, _NEXT_PAGES)
                    )
                    out.append(_log_line(bot_ip, None, None, stamp, "GET", resource, "HTTP/1.1",
                                         200, 500 + draw(3000), None, bot_agent))
        stream.write("\n".join(out) + "\n")
        lines += len(out)
    return lines


def simulate_to_dir(
    config: WorkloadConfig,
    out_dir: str | Path,
    noise: bool = True,
) -> dict[str, Path]:
    """Generate one workload and write replay, access log, and truth files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events, truth = generate(config)
    paths = {
        "replay": out / "events.replay",
        "eclf": out / "access.log",
        "truth": out / "truth.csv",
    }
    with replacing(paths["replay"]) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        write_replay(events, fh)
    with replacing(paths["eclf"]) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        emit_eclf(events, truth, config, fh, noise=noise)
    save_truth(truth, paths["truth"])
    return paths
