"""Usage reports computed directly over the log store.

Each report reads one grouped query from :class:`LogStore`, which counts
only the sessions that have pages.  Python then does three things only:
the tie-break sorts, the ``Decimal`` half-up rounding, and the ``n / total``
ratios.  Every report is deterministic: fixed row orders, explicit
tie-breaks, and half-up rounding at two decimals for pageviews-per-session
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .enrichment import ip_to_int
from .storage import NO_GENDER_TYPES, USER_TYPES, LogStore, SessionRecord

USAGE_BUCKETS = ((1, 3), (4, 10), (11, 30), (31, 100), (101, None))
BUCKET_LABELS = ("1-3", "4-10", "11-30", "31-100", "101+")
DISTRIBUTION_KINDS = ("device", "os", "browser", "country", "language")

_TWO_PLACES = Decimal("0.01")
_ONE_PLACE = Decimal("0.1")
_WHOLE = Decimal("1")


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


def pageviews_per_session(total_pageviews: int, session_count: int) -> Decimal:
    """Mean pageviews per session, half-up at two decimals."""
    if session_count <= 0:
        raise ValueError("session_count must be positive")
    if total_pageviews < 0:
        raise ValueError("total_pageviews must be >= 0")
    return (Decimal(total_pageviews) / Decimal(session_count)).quantize(
        _TWO_PLACES, rounding=ROUND_HALF_UP
    )


def bucket_label(pageviews: int) -> str:
    for (low, high), label in zip(USAGE_BUCKETS, BUCKET_LABELS):
        if high is None or pageviews <= high:
            if pageviews >= low:
                return label
    raise ValueError(f"pageviews out of range: {pageviews}")


@dataclass
class SessionSummary(SessionRecord):
    """A session that has pages, with its pageview count and dwell seconds."""

    pageview_count: int = 0
    dwell_seconds: int = 0


@dataclass
class UsageBucketReport:
    # (visitor_type, bucket_label, session count); Guests rows then Users rows
    rows: list[tuple[str, str, int]]

    def total_sessions(self) -> int:
        return sum(count for _, _, count in self.rows)

    def header(self) -> tuple[str, ...]:
        return ("visitor_type", "bucket", "sessions")

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(f"{visitor}:{label}", count) for visitor, label, count in self.rows]


@dataclass
class UserTypeGenderRow:
    user_type: str
    gender: str
    users: int
    sessions: int
    pageviews: int
    pageviews_per_session: Decimal
    duration_seconds: int | None
    duration_minutes: int | None
    duration_hours: Decimal | None


@dataclass
class UserTypeGenderReport:
    rows: list[UserTypeGenderRow]
    total: UserTypeGenderRow

    def header(self) -> tuple[str, ...]:
        return (
            "user_type", "gender", "users", "sessions", "pageviews",
            "pageviews_per_session", "duration_s", "duration_m", "duration_h",
        )

    def csv_rows(self) -> list[tuple]:
        def cells(row: UserTypeGenderRow) -> tuple:
            return (
                row.user_type, row.gender, row.users, row.sessions, row.pageviews,
                str(row.pageviews_per_session),
                "-" if row.duration_seconds is None else row.duration_seconds,
                "-" if row.duration_minutes is None else row.duration_minutes,
                "-" if row.duration_hours is None else str(row.duration_hours),
            )

        return [cells(r) for r in self.rows] + [cells(self.total)]

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(f"{r.user_type}:{r.gender}", r.sessions) for r in self.rows]


@dataclass
class HourlyCube:
    user_types: tuple[str, ...]
    counts: list[list[int]]  # 24 rows, one column per user type

    def grand_total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def header(self) -> tuple[str, ...]:
        return ("hour",) + self.user_types + ("total",)

    def csv_rows(self) -> list[tuple]:
        out = []
        for hour, row in enumerate(self.counts):
            out.append((hour,) + tuple(row) + (sum(row),))
        return out

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(f"{hour:02d}", sum(row)) for hour, row in enumerate(self.counts)]


@dataclass
class DistributionReport:
    kind: str
    # (category, session count, ratio), descending by ratio then category
    entries: list[tuple[str, int, float]]

    def header(self) -> tuple[str, ...]:
        return (self.kind, "sessions", "ratio")

    def csv_rows(self) -> list[tuple]:
        return [(c, n, repr(r)) for c, n, r in self.entries]

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(c, repr(r)) for c, _, r in self.entries]


@dataclass
class TopIpReport:
    # (ip, sessions, pageviews, pageviews per session)
    rows: list[tuple[str, int, int, Decimal]]

    def header(self) -> tuple[str, ...]:
        return ("ip", "sessions", "pageviews", "pageviews_per_session")

    def csv_rows(self) -> list[tuple]:
        return [(ip, s, p, str(r)) for ip, s, p, r in self.rows]

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(ip, s) for ip, s, _, _ in self.rows]


@dataclass
class TopUserReport:
    # (user_id, username, pageviews, sessions)
    rows: list[tuple[int, str, int, int]]

    def header(self) -> tuple[str, ...]:
        return ("user_id", "username", "pageviews", "sessions")

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)

    def plot_rows(self) -> list[tuple[str, object]]:
        return [(name, pageviews) for _, name, pageviews, _ in self.rows]


@dataclass
class SearchReport:
    engines: list[tuple[str, int]]
    keywords: list[tuple[str, int]]


class Analytics:
    """Report builder over a :class:`LogStore`."""

    def __init__(self, store: LogStore):
        self.store = store

    def session_summaries(self) -> list[SessionSummary]:
        """One row per session that has pages, with pageview count and dwell.

        The reports do not use it: each reads its own grouped query.
        """
        return [
            SessionSummary(**vars(session), pageview_count=pages, dwell_seconds=dwell)
            for session, pages, dwell in self.store.sessions_with_pages()
        ]

    # -- reports -------------------------------------------------------------

    def usage_buckets(self) -> UsageBucketReport:
        """Sessions per pageview bucket, guests split from logged-in users."""
        counts: dict[tuple[str, str], int] = {}
        for user_type, pageviews, sessions in self.store.sessions_by_pageviews():
            visitor = "Guests" if user_type == "guest" else "Users"
            key = (visitor, bucket_label(pageviews))
            counts[key] = counts.get(key, 0) + sessions
        rows = []
        for visitor in ("Guests", "Users"):
            for label in BUCKET_LABELS:
                rows.append((visitor, label, counts.get((visitor, label), 0)))
        return UsageBucketReport(rows)

    def user_type_gender_report(self) -> UserTypeGenderReport:
        """Users, sessions, pageviews, P_ps and viewing time per type/gender.

        Guests are counted as distinct (ip, client fingerprint) pairs and
        have no duration columns; unit accounts share the not_applicable
        gender but keep durations.  The total row is the column-wise sum of
        the body rows.
        """
        totals = {
            (user_type, gender): rest
            for user_type, gender, *rest in self.store.user_type_gender_totals()
        }

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
            users, sessions, pageviews, dwell = totals.get((user_type, gender), (0, 0, 0, 0))
            pps = (
                pageviews_per_session(pageviews, sessions)
                if sessions
                else Decimal("0.00")
            )
            if user_type == "guest":
                dur_s = dur_m = dur_h = None
            else:
                dur_s = dwell
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
        return UserTypeGenderReport(rows, total)

    def hourly_cube(self) -> HourlyCube:
        """Pageview counts per hour of day and user type; totals conserve."""
        index = {t: i for i, t in enumerate(USER_TYPES)}
        counts = [[0] * len(USER_TYPES) for _ in range(24)]
        for hour, user_type, n in self.store.pages_by_hour_and_user_type():
            counts[hour][index[user_type]] = n
        return HourlyCube(USER_TYPES, counts)

    def distribution(self, kind: str) -> DistributionReport:
        """Per-session share of a category; each session counts once."""
        if kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"kind must be one of {DISTRIBUTION_KINDS}")
        column = {
            "device": "device_type",
            "os": "os_name",
            "browser": "browser_name",
            "country": "country_code",
            "language": "language",
        }[kind]
        counts = self.store.sessions_by(column)
        total = sum(n for _, n in counts)
        entries = [
            (category, n, n / total)
            for category, n in sorted(counts, key=lambda kv: (-kv[1], kv[0]))
        ]
        return DistributionReport(kind, entries)

    def top_ips(self, n: int = 15) -> TopIpReport:
        """Busiest client addresses by session count.

        Ties break by pageviews descending, then numeric address ascending.
        The key is total, since ``ip_to_int`` reads one text per address.
        """
        ordered = sorted(
            self.store.sessions_by_ip(), key=lambda row: (-row[1], -row[2], ip_to_int(row[0]))
        )
        rows = [
            (ip, sessions, pageviews, pageviews_per_session(pageviews, sessions))
            for ip, sessions, pageviews in ordered[:n]
        ]
        return TopIpReport(rows)

    def top_users(self, n: int = 20) -> TopUserReport:
        """Most active logged-in users by pageviews; ties by username, then
        by first session."""
        ordered = sorted(self.store.sessions_by_account(), key=lambda row: (-row[2], row[1]))
        return TopUserReport(ordered[:n])

    def search_report(self) -> SearchReport:
        """Sessions arriving from search engines, by engine and by keywords."""

        def by_count(kv: tuple[str, int]) -> tuple[int, str]:
            return -kv[1], kv[0]

        return SearchReport(
            engines=sorted(self.store.sessions_by_search_engine(), key=by_count),
            keywords=sorted(self.store.sessions_by_search_keywords(), key=by_count),
        )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def report_to_csv(report) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.header())
    writer.writerows(report.csv_rows())
    return buf.getvalue()


def report_to_plot(report) -> str:
    """Line-oriented plot data: category<TAB>value, one point per line."""
    lines = [f"{category}\t{value}" for category, value in report.plot_rows()]
    return "\n".join(lines) + "\n"


def search_report_to_csv(report: SearchReport) -> tuple[str, str]:
    import csv
    import io

    def table(header: tuple[str, str], rows: list[tuple[str, int]]) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    return (
        table(("engine", "sessions"), report.engines),
        table(("keywords", "sessions"), report.keywords),
    )
