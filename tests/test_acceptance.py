"""Acceptance gate: ten end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` they still appear for any failing check.
"""

import random
import time
from datetime import datetime, timedelta

import pytest

from webusage.analytics import DISTRIBUTION_KINDS, Analytics, pageviews_per_session
from webusage.baseline import (
    Visit,
    VisitEvent,
    parse_log_line,
    preprocess_log,
    render_log_line,
    sessionize,
)
from webusage.collector import Collector, replay_stream
from webusage.compare import collector_report, load_roster
from webusage.enrichment import sample_geoip_table
from webusage.simulator import SITE_HOST, WorkloadConfig, generate, simulate_to_dir
from webusage.storage import LogStore
from webusage.truth import load_truth

import oracles
from oracles import dwell_time

SAMPLE_LINE = (
    '193.140.253.80 - - [15/Aug/2021:17:30:51 +0300] "GET /index.php HTTP/1.1"'
    ' 200 1246 "http://www.server.com/"'
    ' "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0) Gecko/ 20100101'
    ' Firefox/15.0.1"'
)


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def build_store(events, truth, config: WorkloadConfig) -> LogStore:
    store = LogStore(":memory:")
    load_roster(store, truth)
    collector = Collector(store, [SITE_HOST], geoip=sample_geoip_table(),
                          timeout=config.timeout)
    pages, errors = replay_stream(collector, events)
    assert errors == 0 and pages == len(truth.events)
    return store


class TestAcceptance:
    def test_criterion_1_reported_session_means(self):
        start = time.perf_counter()
        first = pageviews_per_session(161672, 22104)
        second = pageviews_per_session(9006, 4655)
        elapsed = time.perf_counter() - start
        ok = str(first) == "7.31" and str(second) == "1.93" and elapsed < 1.0
        assert verdict(1, ok, f"161672/22104={first} 9006/4655={second}"
                              f" in {elapsed:.3f}s")

    def test_criterion_2_monthly_session_mean(self):
        value = pageviews_per_session(933, 416)
        assert verdict(2, str(value) == "2.24", f"933/416={value}")

    def test_criterion_3_log_line_parse_and_round_trip(self):
        start = time.perf_counter()
        entry = parse_log_line(SAMPLE_LINE)
        fields = (
            entry.ip, entry.identd, entry.authuser, entry.timestamp,
            entry.method, entry.resource, entry.protocol, entry.status,
            entry.bytes_sent, entry.referrer, entry.user_agent,
        )
        expected = (
            "193.140.253.80", None, None, entry.timestamp,
            "GET", "/index.php", "HTTP/1.1", 200,
            1246, "http://www.server.com/",
            "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0)"
            " Gecko/ 20100101 Firefox/15.0.1",
        )
        rendered = render_log_line(entry)
        elapsed = time.perf_counter() - start
        ok = (
            len(fields) == 11
            and fields == expected
            and entry.timestamp == datetime.fromisoformat("2021-08-15T17:30:51+03:00")
            and rendered == SAMPLE_LINE
            and elapsed < 1.0
        )
        assert verdict(3, ok, f"11 fields, byte round-trip, {elapsed:.3f}s")

    def test_criterion_4_collector_exact_with_tokens_intact(self):
        config = WorkloadConfig(seed=42, n_users=200, session_rate=5.0)
        start = time.perf_counter()
        events, truth = generate(config)
        store = build_store(events, truth, config)
        try:
            report = collector_report(store, truth)
        finally:
            store.close()
        elapsed = time.perf_counter() - start
        ok = (
            900 <= len(truth.sessions) <= 1100
            and report.user_precision == 1.0
            and report.user_recall == 1.0
            and report.session_precision == 1.0
            and report.session_recall == 1.0
            and report.exact_session_match_rate == 1.0
            and elapsed < 30.0
        )
        assert verdict(4, ok, f"{len(truth.sessions)} sessions, user and session"
                              f" exact={report.exact_session_match_rate:.6f},"
                              f" {elapsed:.1f}s")

    def test_criterion_5_baseline_trails_under_nat_and_cookie_loss(self, tmp_path):
        config = WorkloadConfig(seed=42, n_users=200, session_rate=5.0,
                                nat_share=0.3, cookie_loss_share=1.0)
        start = time.perf_counter()
        paths = simulate_to_dir(config, tmp_path)
        truth = load_truth(paths["truth"])
        events, _ = generate(config)
        store = build_store(events, truth, config)
        try:
            collector_side = collector_report(store, truth)
        finally:
            store.close()
        result = preprocess_log(paths["eclf"], mode="page_gap",
                                page_gap=config.timeout, site_hosts=[SITE_HOST])
        baseline_side = oracles.score_sessions(result.sessions, truth)
        elapsed = time.perf_counter() - start
        gap = (collector_side.exact_session_match_rate
               - baseline_side.exact_session_match_rate)
        ok = (
            baseline_side.exact_session_match_rate < 1.0
            and baseline_side.exact_session_match_rate
            <= collector_side.exact_session_match_rate
            and elapsed < 60.0
        )
        assert verdict(5, ok, f"collector={collector_side.exact_session_match_rate:.6f}"
                              f" baseline={baseline_side.exact_session_match_rate:.6f}"
                              f" gap={gap:.6f}, {elapsed:.1f}s")

    def test_criterion_6_reports_match_independent_recomputation(self, sim_store, sim_export):
        start = time.perf_counter()
        export = oracles.load_export(sim_export)
        rows = oracles.oracle_sessions(export)
        analytics = Analytics(sim_store)
        problems = []

        report = analytics.usage_buckets()
        if {(v, l): n for v, l, n in report.rows if n} != oracles.oracle_usage_buckets(rows):
            problems.append("usage_buckets")

        type_gender = analytics.user_type_gender_report()
        got = type_gender.rows
        want = oracles.oracle_user_type_gender(rows)
        if len(got) != len(want):
            problems.append("user_type_gender rows")
        else:
            for row, expect in zip(got, want):
                cells = (
                    *row[:5], str(row[5]), row[6], row[7],
                    None if row[8] is None else str(row[8]),
                )
                wanted = (
                    expect["user_type"], expect["gender"], expect["users"],
                    expect["sessions"], expect["pageviews"], expect["pps"],
                    expect["duration_seconds"], expect["duration_minutes"],
                    expect["duration_hours"],
                )
                if cells != wanted:
                    problems.append(f"user_type_gender {row[0]}/{row[1]}")

        cube = analytics.hourly_cube()
        expected_hourly = oracles.oracle_hourly(export)
        for hour in range(24):
            for col, user_type in enumerate(cube.header[1:-1], start=1):
                if cube.rows[hour][col] != expected_hourly.get((hour, user_type), 0):
                    problems.append(f"hourly {hour}/{user_type}")

        for kind in DISTRIBUTION_KINDS:
            if analytics.distribution(kind).rows != oracles.oracle_distribution(rows, kind):
                problems.append(f"distribution {kind}")

        top_ips = analytics.top_ips()
        if [(ip, s, p, str(r)) for ip, s, p, r in top_ips.rows] != oracles.oracle_top_ips(rows, 15):
            problems.append("top_ips")
        if analytics.top_users().rows != oracles.oracle_top_users(rows, 20):
            problems.append("top_users")

        search_engines, search_keywords = analytics.search_report()
        engines, keywords = oracles.oracle_search(rows)
        if search_engines.rows != engines or search_keywords.rows != keywords:
            problems.append("search")

        elapsed = time.perf_counter() - start
        page_rows = sim_store.page_count()
        ok = not problems and page_rows <= 10_000 and elapsed < 60.0
        assert verdict(6, ok, f"{page_rows} page rows, all reports equal"
                              f" recomputation, {elapsed:.1f}s"
                              + (f"; mismatches: {problems}" if problems else ""))

    def test_criterion_7_conservation_rules(self, sim_store):
        analytics = Analytics(sim_store)
        page_total = sum(row[-1] for row in analytics.hourly_cube().rows)
        pages = sim_store.page_count()
        buckets = sum(n for _, _, n in analytics.usage_buckets().rows)
        sessions = sim_store.session_count()
        ratio_sums = {
            kind: sum(r for _, _, r in analytics.distribution(kind).rows)
            for kind in DISTRIBUTION_KINDS
        }
        ratios_ok = all(abs(total - 1.0) <= 1e-9 for total in ratio_sums.values())
        ok = page_total == pages and buckets == sessions and ratios_ok
        assert verdict(7, ok, f"hourly total {page_total}=={pages} pages,"
                              f" buckets {buckets}=={sessions} sessions,"
                              f" ratio sums within 1e-9: {ratios_ok}")

    def test_criterion_8_collection_time_scales_linearly(self):
        def timed_collect(n_users: int) -> tuple[int, float]:
            config = WorkloadConfig(seed=42, n_users=n_users, session_rate=20.0,
                                    pageviews_per_session_mean=10.0)
            events, truth = generate(config)
            store = LogStore(":memory:")
            load_roster(store, truth)
            collector = Collector(store, [SITE_HOST], geoip=sample_geoip_table(),
                                  timeout=config.timeout)
            start = time.perf_counter()
            pages, errors = replay_stream(collector, events)
            elapsed = time.perf_counter() - start
            store.close()
            assert errors == 0
            return pages, elapsed

        pages_small, time_small = timed_collect(500)
        pages_large, time_large = timed_collect(1000)
        ratio = time_large / time_small
        ok = (
            90_000 <= pages_small <= 110_000
            and 180_000 <= pages_large <= 220_000
            and 1.5 <= ratio <= 3.0
            and time_large <= 120.0
        )
        assert verdict(8, ok, f"{pages_small} pages in {time_small:.1f}s,"
                              f" {pages_large} pages in {time_large:.1f}s,"
                              f" ratio {ratio:.2f}")

    def test_criterion_9_session_splitting_fixtures(self):
        def visit(minute_offsets) -> Visit:
            base = datetime(2021, 9, 2, 10, 0, 0)
            events = [
                VisitEvent(timestamp=base + timedelta(minutes=m),
                           resource=f"/p{i}.php")
                for i, m in enumerate(minute_offsets)
            ]
            return Visit(user_key=("10.0.0.1", "agent"), events=events)

        def sizes(minute_offsets, mode) -> list[int]:
            return [len(s.events) for s in sessionize(visit(minute_offsets), mode=mode)]

        checks = [
            (sizes([0, 5, 36, 38], "both"), [2, 2]),
            (sizes([0, 9, 18, 27, 36], "page_gap"), [5]),
            (sizes([0, 9, 18, 27, 36], "session_duration"), [4, 1]),
            (sizes([0, 10], "page_gap"), [2]),
            (sizes([0, 10.001], "page_gap"), [1, 1]),
            (sizes([0], "both"), [1]),
        ]
        ok = all(got == want for got, want in checks)
        assert verdict(9, ok, f"splits {[got for got, _ in checks]}")

    def test_criterion_10_dwell_telescoping(self):
        rng = random.Random(0)
        base = datetime(2021, 9, 2, 0, 0, 0)
        failures = 0
        for _ in range(1000):
            count = rng.randint(1, 40)
            times = [base]
            for _ in range(count - 1):
                times.append(times[-1] + timedelta(seconds=rng.uniform(0.0, 900.0)))
            direct = (times[-1] - times[0]).total_seconds()
            if abs(dwell_time(times) - direct) > 1e-6:
                failures += 1
        assert verdict(10, failures == 0,
                       f"1000 random page-time series, {failures} mismatches")
