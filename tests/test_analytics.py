from datetime import datetime, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage.analytics import (
    BUCKET_LABELS,
    DISTRIBUTION_KINDS,
    Analytics,
    bucket_label,
    pageviews_per_session,
    report_to_csv,
    report_to_plot,
    search_report_to_csv,
)
from webusage.cli import REPORTS
from webusage.storage import USER_TYPES, LogStore, PageRecord, SessionRecord

import oracles
from oracles import dwell_time

T0 = datetime(2021, 9, 2, 10, 0, 0)


def add_session(store, pages, **session_fields):
    """Insert one session plus page rows at the given datetimes."""
    base = dict(ip="193.140.1.1", started_at=pages[0])
    base.update(session_fields)
    opn = store.insert_session(SessionRecord(**base))
    for when in pages:
        store.insert_page(
            PageRecord(log_opn_id=opn, log_datetime=when, log_url="/index.php")
        )
    return opn


def named_rows(table):
    """Each row of a report as a dict from its header names to its cells."""
    return [dict(zip(table.header, row)) for row in table.rows]


def page_times(start, *gaps_seconds):
    times = [start]
    for gap in gaps_seconds:
        times.append(times[-1] + timedelta(seconds=gap))
    return times


class TestDwell:
    def test_three_requests(self):
        times = [T0, T0 + timedelta(seconds=10), T0 + timedelta(seconds=30)]
        assert dwell_time(times) == 30.0

    def test_single_request_is_zero(self):
        assert dwell_time([T0]) == 0.0

    def test_simultaneous_requests(self):
        assert dwell_time([T0, T0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            dwell_time([])

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            dwell_time([T0 + timedelta(seconds=5), T0])

    @settings(max_examples=200)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=10_000_000), min_size=1, max_size=40
        )
    )
    def test_telescoping(self, offsets):
        offsets.sort()
        times = [T0 + timedelta(seconds=s) for s in offsets]
        assert dwell_time(times) == pytest.approx(
            (times[-1] - times[0]).total_seconds()
        )
        assert dwell_time(times) == pytest.approx(oracles.oracle_dwell(times))


class TestPageviewsPerSession:
    @pytest.mark.parametrize(
        "pageviews, sessions, expected",
        [
            (161672, 22104, "7.31"),
            (9006, 4655, "1.93"),
            (933, 416, "2.24"),
            (21, 3, "7.00"),
            (1, 3, "0.33"),
            (0, 5, "0.00"),
        ],
    )
    def test_rounding(self, pageviews, sessions, expected):
        assert str(pageviews_per_session(pageviews, sessions)) == expected

    def test_zero_sessions_rejected(self):
        with pytest.raises(ValueError, match="session_count"):
            pageviews_per_session(10, 0)

    def test_half_up_not_bankers(self):
        assert str(pageviews_per_session(25, 1000)) == "0.03"
        assert str(pageviews_per_session(15, 1000)) == "0.02"

    @settings(max_examples=300)
    @given(
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=1, max_value=10**5),
    )
    def test_matches_oracle(self, pageviews, sessions):
        assert str(pageviews_per_session(pageviews, sessions)) == oracles.oracle_pps(
            pageviews, sessions
        )


class TestBuckets:
    @pytest.mark.parametrize(
        "pageviews, label",
        [
            (1, "1-3"), (3, "1-3"), (4, "4-10"), (10, "4-10"), (11, "11-30"),
            (30, "11-30"), (31, "31-100"), (100, "31-100"), (101, "101+"),
            (5000, "101+"),
        ],
    )
    def test_boundaries(self, pageviews, label):
        assert bucket_label(pageviews) == label

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bucket_label(0)


class TestUsageBuckets:
    def test_guest_user_split_and_order(self, mem_store):
        add_session(mem_store, page_times(T0, 10, 10))  # guest, 3 pages
        add_session(mem_store, [T0])  # guest, 1 page
        add_session(
            mem_store,
            page_times(T0, *[5] * 4),  # 5 pages
            user_id=1,
            username="u0001",
            user_type="student",
            gender="male",
        )
        report = Analytics(mem_store).usage_buckets()
        assert [(v, l) for v, l, _ in report.rows] == [
            ("Guests", l) for l in BUCKET_LABELS
        ] + [("Users", l) for l in BUCKET_LABELS]
        counts = {(v, l): n for v, l, n in report.rows}
        assert counts[("Guests", "1-3")] == 2
        assert counts[("Users", "4-10")] == 1
        assert sum(n for _, _, n in report.rows) == 3

    def test_sessions_conserved(self, sim_store):
        analytics = Analytics(sim_store)
        report = analytics.usage_buckets()
        assert sum(n for _, _, n in report.rows) == len(analytics.session_summaries())


class TestUserTypeGender:
    def test_published_minutes_rounding(self, mem_store):
        add_session(
            mem_store,
            [T0, T0 + timedelta(seconds=778495)],
            user_id=3,
            username="a0003",
            user_type="academic_staff",
            gender="male",
        )
        report = Analytics(mem_store).user_type_gender_report()
        row = next(
            r
            for r in named_rows(report)
            if r["user_type"] == "academic_staff" and r["gender"] == "male"
        )
        assert row["duration_s"] == 778495
        assert row["duration_m"] == 12975
        assert row["duration_h"] == Decimal("216.2")

    def test_two_students_three_sessions(self, mem_store):
        add_session(
            mem_store, page_times(T0, *[10] * 6),
            user_id=1, username="s1", user_type="student", gender="male",
        )
        add_session(
            mem_store, page_times(T0, *[10] * 6),
            user_id=1, username="s1", user_type="student", gender="male",
        )
        add_session(
            mem_store, page_times(T0, *[10] * 6),
            user_id=2, username="s2", user_type="student", gender="male",
        )
        report = Analytics(mem_store).user_type_gender_report()
        row = next(
            r for r in named_rows(report) if r["user_type"] == "student" and r["gender"] == "male"
        )
        assert (row["users"], row["sessions"], row["pageviews"]) == (2, 3, 21)
        assert str(row["pageviews_per_session"]) == "7.00"

    def test_guests_have_no_duration(self, mem_store):
        add_session(mem_store, page_times(T0, 60))
        report = Analytics(mem_store).user_type_gender_report()
        guest_row = next(r for r in named_rows(report) if r["user_type"] == "guest")
        assert guest_row["duration_s"] is None
        assert guest_row["duration_m"] is None
        assert guest_row["duration_h"] is None
        rendered = report_to_csv(report)
        assert ",-,-,-" in rendered

    def test_guests_counted_by_fingerprint(self, mem_store):
        for ip, browser in [
            ("10.0.0.1", "Firefox"),
            ("10.0.0.1", "Firefox"),
            ("10.0.0.1", "Chrome"),
            ("10.0.0.2", "Firefox"),
        ]:
            add_session(mem_store, [T0], ip=ip, browser_name=browser)
        report = Analytics(mem_store).user_type_gender_report()
        guest_row = next(r for r in named_rows(report) if r["user_type"] == "guest")
        assert guest_row["users"] == 3
        assert guest_row["sessions"] == 4

    def test_total_row_sums_columns(self, sim_store):
        *body, total = named_rows(Analytics(sim_store).user_type_gender_report())
        assert total["sessions"] == sum(r["sessions"] for r in body)
        assert total["pageviews"] == sum(r["pageviews"] for r in body)
        assert total["users"] == sum(r["users"] for r in body)

    def test_row_order_is_fixed(self, mem_store):
        add_session(mem_store, [T0])
        report = Analytics(mem_store).user_type_gender_report()
        pairs = [(r["user_type"], r["gender"]) for r in named_rows(report)[:-1]]
        assert pairs[0] == ("guest", "not_applicable")
        assert ("student", "male") in pairs
        assert ("student", "female") in pairs
        assert ("unit_mission", "not_applicable") in pairs
        assert len(pairs) == 16  # 2 single-gender types + 7 types with two rows
        assert len(set(pairs)) == 16


class TestHourlyCube:
    def test_counts_land_in_hour_cells(self, mem_store):
        add_session(
            mem_store,
            [datetime(2021, 9, 2, 10, 15, 0)],
            user_id=1, username="s1", user_type="student", gender="male",
        )
        add_session(mem_store, [datetime(2021, 9, 2, 23, 59, 59)])
        cube = Analytics(mem_store).hourly_cube()
        student_col = cube.header.index("student")
        guest_col = cube.header.index("guest")
        assert cube.rows[10][student_col] == 1
        assert cube.rows[23][guest_col] == 1
        assert sum(row[-1] for row in cube.rows) == 2

    def test_pages_by_hour_and_user_type(self, mem_store):
        add_session(mem_store, [T0.replace(hour=hour) for hour in (0, 10, 10, 23)])
        guest = {0: 1, 10: 2, 23: 1}  # guest is the first user type column
        assert Analytics(mem_store).hourly_cube().rows == [
            (hour, guest.get(hour, 0), *[0] * (len(USER_TYPES) - 1), guest.get(hour, 0))
            for hour in range(24)
        ]

    def test_conservation(self, sim_store):
        cube = Analytics(sim_store).hourly_cube()
        assert sum(row[-1] for row in cube.rows) == sim_store.page_count()

    def test_csv_totals_column(self, mem_store):
        add_session(mem_store, [T0, T0, T0])
        cube = Analytics(mem_store).hourly_cube()
        rows = cube.rows
        assert len(rows) == 24
        assert rows[10][-1] == 3


class TestDistribution:
    def test_three_to_one(self, mem_store):
        for device in ["desktop", "desktop", "desktop", "mobile"]:
            add_session(mem_store, [T0], device_type=device)
        report = Analytics(mem_store).distribution("device")
        assert report.rows == [
            ("desktop", 3, 0.75),
            ("mobile", 1, 0.25),
        ]

    def test_all_unknown(self, mem_store):
        add_session(mem_store, [T0])
        report = Analytics(mem_store).distribution("language")
        assert report.rows == [("unknown", 1, 1.0)]

    def test_ratios_sum_to_one(self, sim_store):
        for kind in DISTRIBUTION_KINDS:
            entries = Analytics(sim_store).distribution(kind).rows
            assert sum(r for _, _, r in entries) == pytest.approx(1.0, abs=1e-9)

    def test_bad_kind_rejected(self, sim_store):
        with pytest.raises(ValueError):
            Analytics(sim_store).distribution("flavor")


class TestTopIps:
    def test_tie_breaking(self, mem_store):
        # 10.0.0.9 and 10.0.0.10: same sessions, different pageviews;
        # 10.0.0.2 vs 10.0.0.1: full tie broken by numeric address.
        add_session(mem_store, page_times(T0, 10), ip="10.0.0.9")
        add_session(mem_store, [T0], ip="10.0.0.9")
        add_session(mem_store, [T0], ip="10.0.0.10")
        add_session(mem_store, [T0], ip="10.0.0.10")
        add_session(mem_store, [T0], ip="10.0.0.2")
        add_session(mem_store, [T0], ip="10.0.0.1")
        report = Analytics(mem_store).top_ips()
        assert [row[0] for row in report.rows] == [
            "10.0.0.9", "10.0.0.10", "10.0.0.1", "10.0.0.2",
        ]

    def test_n_limits_rows(self, mem_store):
        for i in range(20):
            add_session(mem_store, [T0], ip=f"10.0.1.{i}")
        assert len(Analytics(mem_store).top_ips().rows) == 15
        assert len(Analytics(mem_store).top_ips(n=5).rows) == 5
        assert Analytics(mem_store).top_ips(n=0).rows == []

    def test_negative_n_rejected(self, mem_store):
        for i in range(5):
            add_session(mem_store, [T0], ip=f"10.0.1.{i}")
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            Analytics(mem_store).top_ips(-1)

    def test_ipv4_by_number_then_other_addresses_by_text(self, mem_store):
        for ip in ("fe80::1", "10.0.0.10", "::1", "2001:db8::1", "10.0.0.9"):
            add_session(mem_store, [T0], ip=ip)
        for _ in range(2):  # more sessions still rank first
            add_session(mem_store, [T0], ip="::2")
        report = Analytics(mem_store).top_ips()
        assert [row[0] for row in report.rows] == [
            "::2", "10.0.0.9", "10.0.0.10", "2001:db8::1", "::1", "fe80::1",
        ]

    def test_published_ratio_row(self, mem_store):
        add_session(mem_store, page_times(T0, *[1] * 8), ip="10.1.1.1")
        report = Analytics(mem_store).top_ips()
        ip, sessions, pageviews, pps = report.rows[0]
        assert (ip, sessions, pageviews) == ("10.1.1.1", 1, 9)
        assert str(pps) == "9.00"


class TestTopUsers:
    def test_guests_excluded_and_sorted(self, mem_store):
        add_session(mem_store, page_times(T0, 10, 10))  # guest
        add_session(
            mem_store, page_times(T0, *[10] * 5),
            user_id=1, username="ua", user_type="student", gender="male",
        )
        add_session(
            mem_store, page_times(T0, *[10] * 5),
            user_id=2, username="ub", user_type="student", gender="female",
        )
        add_session(
            mem_store, page_times(T0, 10),
            user_id=3, username="uc", user_type="graduate", gender="male",
        )
        report = Analytics(mem_store).top_users()
        assert [(uid, name) for uid, name, _, _ in report.rows] == [
            (1, "ua"), (2, "ub"), (3, "uc"),
        ]
        assert report.rows[0][2] == 6  # pageviews
        assert report.rows[0][3] == 1  # sessions

    def test_full_tie_keeps_first_session_order(self, mem_store):
        # same pageviews and the same (missing) username: first session first
        for uid in (2, 1, 3):
            add_session(
                mem_store, [T0],
                user_id=uid, user_type="student", gender="male",
            )
        report = Analytics(mem_store).top_users()
        assert [(uid, name) for uid, name, _, _ in report.rows] == [(2, ""), (1, ""), (3, "")]

    def test_n_limit(self, mem_store):
        for i in range(25):
            add_session(
                mem_store, [T0],
                user_id=i + 1, username=f"u{i:04d}",
                user_type="student", gender="male",
            )
        assert len(Analytics(mem_store).top_users().rows) == 20
        assert len(Analytics(mem_store).top_users(n=3).rows) == 3

    def test_negative_n_rejected(self, mem_store):
        for i in range(5):
            add_session(
                mem_store, [T0],
                user_id=i + 1, username=f"u{i}", user_type="student", gender="male",
            )
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            Analytics(mem_store).top_users(-1)


class TestSearchReport:
    def test_engines_and_keywords(self, mem_store):
        add_session(
            mem_store, [T0],
            referral_class="search_engine",
            search_engine="google", search_keywords="sakarya",
        )
        add_session(
            mem_store, [T0],
            referral_class="search_engine",
            search_engine="google", search_keywords="sakarya",
        )
        add_session(
            mem_store, [T0],
            referral_class="search_engine",
            search_engine="yandex", search_keywords="ders programi",
        )
        add_session(mem_store, [T0])  # direct; ignored
        add_session(
            mem_store, [T0],
            referral_class="search_engine", search_engine="bing",
        )  # engine without keywords
        report = Analytics(mem_store).search_report()
        engines, keywords = report
        assert engines.rows == [("google", 2), ("bing", 1), ("yandex", 1)]
        assert keywords.rows == [("sakarya", 2), ("ders programi", 1)]
        engines_csv, keywords_csv = search_report_to_csv(report)
        assert engines_csv.startswith("engine,sessions\n")
        assert "google,2" in engines_csv
        assert keywords_csv.startswith("keywords,sessions\n")


class TestRendering:
    def test_csv_shape(self, mem_store):
        add_session(mem_store, [T0])
        text = report_to_csv(Analytics(mem_store).usage_buckets())
        lines = text.splitlines()
        assert lines[0] == "visitor_type,bucket,sessions"
        assert len(lines) == 1 + 2 * len(BUCKET_LABELS)

    def test_plot_shape(self, mem_store):
        add_session(mem_store, [T0])
        text = report_to_plot(Analytics(mem_store).usage_buckets())
        lines = text.strip().split("\n")
        assert all("\t" in line for line in lines)
        assert lines[0].split("\t")[0] == "Guests:1-3"


@pytest.fixture(scope="module")
def export(sim_export):
    return oracles.load_export(sim_export)


@pytest.fixture(scope="module")
def rows(export):
    return oracles.oracle_sessions(export)


class TestOracleEquivalence:
    """Each report recomputed from the CSV export with independent code."""

    def test_session_summaries(self, sim_store, rows):
        summaries = Analytics(sim_store).session_summaries()
        assert len(summaries) == len(rows)
        for summary, row in zip(summaries, rows):
            assert summary.opn_id == row["opn_id"]
            assert summary.pageview_count == row["pageviews"]
            assert summary.dwell_seconds == row["dwell_seconds"]
            assert summary.user_type == row["user_type"]

    def test_usage_buckets(self, sim_store, rows):
        report = Analytics(sim_store).usage_buckets()
        expected = oracles.oracle_usage_buckets(rows)
        assert {(v, l): n for v, l, n in report.rows if n} == expected

    def test_user_type_gender(self, sim_store, rows):
        report = Analytics(sim_store).user_type_gender_report()
        expected = oracles.oracle_user_type_gender(rows)
        got = named_rows(report)
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert row["user_type"] == want["user_type"]
            assert row["gender"] == want["gender"]
            assert row["users"] == want["users"]
            assert row["sessions"] == want["sessions"]
            assert row["pageviews"] == want["pageviews"]
            assert str(row["pageviews_per_session"]) == want["pps"]
            assert row["duration_s"] == want["duration_seconds"]
            assert row["duration_m"] == want["duration_minutes"]
            if want["duration_hours"] is None:
                assert row["duration_h"] is None
            else:
                assert str(row["duration_h"]) == want["duration_hours"]

    def test_hourly_cube(self, sim_store, export):
        cube = Analytics(sim_store).hourly_cube()
        expected = oracles.oracle_hourly(export)
        for hour in range(24):
            for col, user_type in enumerate(cube.header[1:-1], start=1):
                assert cube.rows[hour][col] == expected.get((hour, user_type), 0)

    def test_distributions(self, sim_store, rows):
        for kind in DISTRIBUTION_KINDS:
            report = Analytics(sim_store).distribution(kind)
            assert report.rows == oracles.oracle_distribution(rows, kind)

    def test_top_ips(self, sim_store, rows):
        report = Analytics(sim_store).top_ips()
        expected = oracles.oracle_top_ips(rows, 15)
        assert [
            (ip, s, p, str(r)) for ip, s, p, r in report.rows
        ] == expected

    def test_top_users(self, sim_store, rows):
        report = Analytics(sim_store).top_users()
        assert report.rows == oracles.oracle_top_users(rows, 20)

    def test_search(self, sim_store, rows):
        report = Analytics(sim_store).search_report()
        engines, keywords = oracles.oracle_search(rows)
        assert report[0].rows == engines
        assert report[1].rows == keywords


# -- the grouped-query reports against the record-loop reference -------------

_MIDNIGHT = datetime(2021, 9, 2, 23, 59, 0)


@st.composite
def _sessions(draw):
    """Fields of one session and the offsets in seconds of its pages from
    its start: guests and accounts, NULL next to literal values, few
    distinct values so that counts tie, and starts just before midnight."""
    fields = dict(
        ip=draw(st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.10", "9.255.0.1"])),
        started_at=draw(st.sampled_from([T0, _MIDNIGHT])),
        browser_name=draw(st.sampled_from(["Firefox", "Chrome", "unknown"])),
        browser_version=draw(st.sampled_from(["91", "92"])),
        os_name=draw(st.sampled_from(["Windows", "Linux"])),
        device_type=draw(st.sampled_from(["desktop", "mobile", "bot"])),
        country_code=draw(st.sampled_from(["TR", "DE", "unknown"])),
        language=draw(st.sampled_from([None, "unknown", "tr", "en"])),
    )
    if draw(st.booleans()):
        user_type = draw(st.sampled_from(USER_TYPES[1:]))
        fields.update(
            user_id=draw(st.integers(1, 4)),
            username=draw(st.sampled_from([None, "ua", "ub", "uc"])),
            user_type=user_type,
            gender=(
                "not_applicable" if user_type == "unit_mission"
                else draw(st.sampled_from(["male", "female"]))
            ),
        )
    if draw(st.booleans()):
        fields.update(
            referral_class="search_engine",
            search_engine=draw(st.sampled_from([None, "google", "bing", ""])),
            search_keywords=draw(st.sampled_from([None, "", "sakarya", "ders programi"])),
        )
    offsets = draw(st.lists(st.integers(0, 150), max_size=4))
    return fields, sorted(offsets)


class TestGroupedQueriesMatchRecords:
    """Every session report, built from one grouped query, renders the same
    bytes as the builders that looped over session_summaries()."""

    @settings(max_examples=250, deadline=None)
    @given(st.lists(_sessions(), max_size=12))
    def test_rendered_reports_identical(self, sessions):
        store = LogStore(":memory:")
        try:
            for fields, offsets in sessions:
                opn = store.insert_session(SessionRecord(**fields))
                for offset in offsets:
                    store.insert_page(PageRecord(
                        log_opn_id=opn,
                        log_datetime=fields["started_at"] + timedelta(seconds=offset),
                        log_url="/index.php",
                    ))
            new, old = Analytics(store), oracles.RecordAnalytics(store)
            for kind, build in REPORTS.items():
                for n in (None, 1, 3) if kind in ("top-ips", "top-users") else (None,):
                    assert report_to_csv(build(new, n)) == report_to_csv(build(old, n))
                    assert report_to_plot(build(new, n)) == report_to_plot(build(old, n))
            assert search_report_to_csv(new.search_report()) == search_report_to_csv(
                old.search_report()
            )
        finally:
            store.close()
