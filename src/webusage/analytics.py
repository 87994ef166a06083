"""Usage reports computed directly over the log store.

Each report builder holds its own grouped SQL query and runs it through
``LogStore._query``, the store's locked read; every query counts only the
sessions that have pages.  Python then does three things only: the
tie-break sorts, the ``Decimal`` half-up rounding, and the ``n / total``
ratios.  Every report is deterministic: fixed row orders, explicit
tie-breaks, and half-up rounding at two decimals for pageviews-per-session
figures.  Every builder returns a :class:`Table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from . import csvio
from .enrichment import UNKNOWN, ip_to_int
from .storage import NO_GENDER_TYPES, USER_TYPES, LogStore, SessionRecord

USAGE_BUCKETS = ((1, 3), (4, 10), (11, 30), (31, 100), (101, None))
BUCKET_LABELS = ("1-3", "4-10", "11-30", "31-100", "101+")
# distribution kind -> the log_session column it counts
DISTRIBUTION_COLUMNS = {
    "device": "device_type",
    "os": "os_name",
    "browser": "browser_name",
    "country": "country_code",
    "language": "language",
}
DISTRIBUTION_KINDS = tuple(DISTRIBUTION_COLUMNS)

# Every report counts only the sessions ``s`` that have pages.  Reads that
# need no page figures keep them with _HAS_PAGES, which is cheaper; the
# others join them to _PAGE_COUNTS, the pageview count ``pages`` of each.
_HAS_PAGES = "s.opn_id IN (SELECT log_opn_id FROM log_page)"
_PAGE_COUNTS = "(SELECT log_opn_id, COUNT(*) AS pages FROM log_page GROUP BY log_opn_id)"
_FROM_SEARCH = "s.referral_class = 'search_engine' AND s.search_engine IS NOT NULL"

_TWO_PLACES = Decimal("0.01")
_ONE_PLACE = Decimal("0.1")
_WHOLE = Decimal("1")


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


Cell = int | str | Decimal | float | None


@dataclass
class Table:
    """One report: a header, rows of typed cells, and the ``(label, value)``
    points that ``--plot`` prints.  A ``None`` cell prints as ``-``."""

    header: tuple[str, ...]
    rows: list[tuple[Cell, ...]]
    plot: list[tuple[str, Cell]] = field(default_factory=list)


def _pps(pageviews: int, sessions: int) -> Decimal:
    """Pageviews per session, ``0.00`` for a group without sessions."""
    return pageviews_per_session(pageviews, sessions) if sessions else Decimal("0.00")


def _address_key(ip: str) -> tuple[int, int | str]:
    """IPv4 addresses by number, then every other address by its text."""
    try:
        return 0, ip_to_int(ip)
    except ValueError:
        return 1, ip


def _check_top_n(n: int) -> None:
    # ``ordered[:n]`` would drop rows from the end for a negative n.
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


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

    def usage_buckets(self) -> Table:
        """Sessions per pageview bucket, guests split from logged-in users."""
        counts: dict[tuple[str, str], int] = {}
        for user_type, pageviews, sessions in self.store._query(
            "SELECT s.user_type, p.pages, COUNT(*) FROM log_session s"
            f" JOIN {_PAGE_COUNTS} p ON p.log_opn_id = s.opn_id GROUP BY 1, 2"
        ):
            visitor = "Guests" if user_type == "guest" else "Users"
            key = (visitor, bucket_label(pageviews))
            counts[key] = counts.get(key, 0) + sessions
        rows = [
            (visitor, label, counts.get((visitor, label), 0))
            for visitor in ("Guests", "Users")
            for label in BUCKET_LABELS
        ]
        plot = [(f"{visitor}:{label}", n) for visitor, label, n in rows]
        return Table(("visitor_type", "bucket", "sessions"), rows, plot)

    def user_type_gender_report(self) -> Table:
        """Users, sessions, pageviews, P_ps and viewing time per type/gender.

        Guests are counted as distinct fingerprints (ip, browser name and
        version, OS name and version, device type) and have no duration
        columns; unit accounts share the not_applicable gender but keep
        durations, a session's dwell being its last page time minus its
        first.  The last row, ``total``, is the column-wise sum of the body
        rows.
        """
        totals = {
            (user_type, gender): rest
            for user_type, gender, *rest in self.store._query(
                "SELECT s.user_type, s.gender,"
                " CASE s.user_type WHEN 'guest' THEN MAX(g.users)"
                " ELSE COUNT(DISTINCT s.user_id) END,"
                " COUNT(*), SUM(p.pages), SUM(p.dwell)"
                " FROM log_session s JOIN (SELECT log_opn_id, COUNT(*) AS pages,"
                " strftime('%s', MAX(log_datetime)) - strftime('%s', MIN(log_datetime)) AS dwell"
                " FROM log_page GROUP BY log_opn_id) p ON p.log_opn_id = s.opn_id"
                " LEFT JOIN (SELECT user_type, gender, COUNT(*) AS users FROM ("
                "SELECT DISTINCT user_type, gender, ip, browser_name, browser_version,"
                " os_name, os_version, device_type FROM log_session s"
                f" WHERE user_type = 'guest' AND {_HAS_PAGES}) GROUP BY 1, 2) g"
                " ON g.user_type = s.user_type AND g.gender = s.gender"
                " GROUP BY 1, 2"
            )
        }
        rows = []
        for user_type in USER_TYPES:
            genders = ("not_applicable",) if user_type in NO_GENDER_TYPES else ("male", "female")
            for gender in genders:
                users, sessions, pageviews, dwell = totals.get((user_type, gender), (0, 0, 0, 0))
                if user_type == "guest":
                    durations = (None, None, None)
                else:
                    durations = (
                        dwell,
                        int((Decimal(dwell) / 60).quantize(_WHOLE, rounding=ROUND_HALF_UP)),
                        (Decimal(dwell) / 3600).quantize(_ONE_PLACE, rounding=ROUND_HALF_UP),
                    )
                rows.append((user_type, gender, users, sessions, pageviews,
                             _pps(pageviews, sessions), *durations))
        plot = [(f"{row[0]}:{row[1]}", row[3]) for row in rows]

        def column(i: int, start: int | Decimal = 0) -> int | Decimal:
            return sum((row[i] or 0 for row in rows), start)

        sessions, pageviews = column(3), column(4)
        rows.append(("total", "", column(2), sessions, pageviews, _pps(pageviews, sessions),
                     column(6), column(7), column(8, Decimal("0.0"))))
        header = ("user_type", "gender", "users", "sessions", "pageviews",
                  "pageviews_per_session", "duration_s", "duration_m", "duration_h")
        return Table(header, rows, plot)

    def hourly_cube(self) -> Table:
        """Pageview counts per hour of day and user type; totals conserve.

        Rows are ``(hour, one count per user type, total)``."""
        index = {t: i for i, t in enumerate(USER_TYPES)}
        counts = [[0] * len(USER_TYPES) for _ in range(24)]
        for hour, user_type, n in self.store._query(
            "SELECT CAST(substr(p.log_datetime, 12, 2) AS INTEGER), s.user_type, COUNT(*)"
            " FROM log_page p JOIN log_session s ON s.opn_id = p.log_opn_id"
            " GROUP BY 1, 2"
        ):
            counts[hour][index[user_type]] = n
        rows = [(hour, *row, sum(row)) for hour, row in enumerate(counts)]
        plot = [(f"{row[0]:02d}", row[-1]) for row in rows]
        return Table(("hour", *USER_TYPES, "total"), rows, plot)

    def distribution(self, kind: str) -> Table:
        """Per-session share of a category; each session counts once, and a
        NULL category counts as ``unknown``.

        Rows are ``(category, sessions, ratio)``, descending by ratio then
        category."""
        if kind not in DISTRIBUTION_COLUMNS:
            raise ValueError(f"kind must be one of {DISTRIBUTION_KINDS}")
        counts = self.store._query(
            f"SELECT COALESCE(s.{DISTRIBUTION_COLUMNS[kind]}, ?), COUNT(*) FROM log_session s"
            f" WHERE {_HAS_PAGES} GROUP BY 1",
            (UNKNOWN,),
        )
        total = sum(n for _, n in counts)
        rows = [
            (category, n, n / total)
            for category, n in sorted(counts, key=lambda kv: (-kv[1], kv[0]))
        ]
        return Table((kind, "sessions", "ratio"), rows, [(c, r) for c, _, r in rows])

    def top_ips(self, n: int = 15) -> Table:
        """Busiest client addresses by session count.

        Ties break by pageviews descending, then by address: IPv4 addresses
        by number, lowest first, then every other address by its text.
        """
        _check_top_n(n)
        ordered = sorted(
            self.store._query(
                "SELECT s.ip, COUNT(*), SUM(p.pages) FROM log_session s"
                f" JOIN {_PAGE_COUNTS} p ON p.log_opn_id = s.opn_id GROUP BY 1"
            ),
            key=lambda row: (-row[1], -row[2], _address_key(row[0])),
        )
        rows = [
            (ip, sessions, pageviews, pageviews_per_session(pageviews, sessions))
            for ip, sessions, pageviews in ordered[:n]
        ]
        header = ("ip", "sessions", "pageviews", "pageviews_per_session")
        return Table(header, rows, [(ip, sessions) for ip, sessions, _, _ in rows])

    def top_users(self, n: int = 20) -> Table:
        """Most active logged-in users by pageviews; ties by username, then
        by first session.

        One row per (user id, username) pair of the signed-in sessions; a
        NULL username reads as the empty string."""
        _check_top_n(n)
        ordered = sorted(
            self.store._query(
                "SELECT s.user_id, COALESCE(s.username, ''), SUM(p.pages), COUNT(*)"
                f" FROM log_session s JOIN {_PAGE_COUNTS} p ON p.log_opn_id = s.opn_id"
                " WHERE s.user_id IS NOT NULL GROUP BY 1, 2 ORDER BY MIN(s.opn_id)"
            ),
            key=lambda row: (-row[2], row[1]),
        )
        rows = ordered[:n]
        header = ("user_id", "username", "pageviews", "sessions")
        return Table(header, rows, [(name, pageviews) for _, name, pageviews, _ in rows])

    def search_report(self) -> tuple[Table, Table]:
        """Sessions referred by a named search engine: the engines table and
        the keywords table, which leaves out empty keywords.  ``--plot`` does
        not apply, so neither has points."""

        def by_count(kv: tuple[str, int]) -> tuple[int, str]:
            return -kv[1], kv[0]

        engines = self.store._query(
            "SELECT s.search_engine, COUNT(*) FROM log_session s"
            f" WHERE {_FROM_SEARCH} AND {_HAS_PAGES} GROUP BY 1"
        )
        keywords = self.store._query(
            "SELECT s.search_keywords, COUNT(*) FROM log_session s"
            f" WHERE {_FROM_SEARCH} AND s.search_keywords <> '' AND {_HAS_PAGES} GROUP BY 1"
        )
        return (
            Table(("engine", "sessions"), sorted(engines, key=by_count)),
            Table(("keywords", "sessions"), sorted(keywords, key=by_count)),
        )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def report_to_csv(table: Table) -> str:
    """The header and rows as CSV: a float prints by ``repr``, a ``Decimal``
    by ``str`` and ``None`` as ``-``."""
    return csvio.row(table.header) + "".join([
        csvio.row(["-" if cell is None else cell for cell in row]) for row in table.rows
    ])


def report_to_plot(table: Table) -> str:
    """Line-oriented plot data: label<TAB>value, one point per line."""
    lines = [f"{label}\t{value}" for label, value in table.plot]
    return "\n".join(lines) + "\n"


def search_report_to_csv(tables: tuple[Table, Table]) -> tuple[str, str]:
    """The engines and keywords tables of :meth:`Analytics.search_report` as CSV."""
    return tuple(map(report_to_csv, tables))
