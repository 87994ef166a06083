import io
import random
import sqlite3
import sys
import threading
import typing
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage.baseline import PreprocessStats
from webusage.collector import (
    CollectionError,
    Collector,
    classify_referrer,
    replay_stream,
)
from webusage.compare import collector_report
from webusage.enrichment import ClientProfile, default_bots, default_search_registry
from webusage import storage
from webusage.events import AppPageResult, RawRequestEvent, ReplayFormatError, read_replay
from webusage.simulator import _EXTERNAL_REFERRERS, _SEARCH_REFERRERS
from webusage.storage import (
    TABLE_COLUMNS, LogStore, NotFoundError, SessionRecord, StorageError, UserInfo, _field_type,
)
from webusage.truth import GroundTruth, TruthEvent

import oracles

T0 = datetime(2021, 9, 2, 10, 0, 0)
HOSTS = ["www.server.com"]


def _event(token="tokA", seconds=0, **overrides) -> RawRequestEvent:
    base = dict(
        client_ip="193.140.253.80",
        timestamp=T0 + timedelta(seconds=seconds),
        method="GET",
        url="/index.php",
        session_token=token,
    )
    base.update(overrides)
    return RawRequestEvent(**base)


def _bad_page_event(token: str, seconds: int, **overrides) -> RawRequestEvent:
    """An event whose page the store rejects: a GET value that is not text,
    set after the event has checked its own fields."""
    event = _event(token, seconds, **overrides)
    event.get_params["x"] = 1
    return event


@pytest.fixture
def collector(mem_store):
    return Collector(mem_store, site_hosts=HOSTS)


class TestRequestBegin:
    def test_first_request_empty_store(self, collector, mem_store):
        opn_id, page_id = collector.handle_request_begin(_event())
        assert (opn_id, page_id) == (1, 1)
        assert mem_store.session_count() == 1
        assert mem_store.page_count() == 1

    def test_same_token_continues(self, collector, mem_store):
        first, _ = collector.handle_request_begin(_event(seconds=0))
        second, page_id = collector.handle_request_begin(_event(seconds=10))
        assert first == second
        assert page_id == 2
        pages = [p for _, p in mem_store.join_sessions_pages()]
        assert len([p for p in pages if p.log_opn_id == first]) == 2

    def test_offset_timestamps_are_kept_as_utc(self, collector, mem_store):
        first = datetime.fromisoformat("2021-09-02T10:00:00+03:00")
        opn, _ = collector.handle_request_begin(_event(timestamp=first))
        assert mem_store.get_session(opn).started_at == datetime(2021, 9, 2, 7, 0, 0)
        later = datetime.fromisoformat("2021-09-02T10:05:00+03:00")
        again, page_id = collector.handle_request_begin(_event(timestamp=later))
        assert again == opn
        assert oracles.get_page(mem_store, page_id).log_datetime == datetime(2021, 9, 2, 7, 5, 0)

    def test_same_ip_different_tokens_split(self, collector):
        a, _ = collector.handle_request_begin(_event(token="tokA"))
        b, _ = collector.handle_request_begin(_event(token="tokB"))
        assert a != b

    def test_midnight_crossing_kept_open(self, collector):
        late = datetime(2021, 9, 2, 23, 55, 0)
        past = datetime(2021, 9, 3, 0, 10, 0)
        a, _ = collector.handle_request_begin(_event(timestamp=late))
        b, _ = collector.handle_request_begin(_event(timestamp=past))
        assert a == b

    def test_gap_over_timeout_starts_new_session(self, collector, mem_store):
        a, _ = collector.handle_request_begin(_event(seconds=0))
        b, _ = collector.handle_request_begin(_event(seconds=1801))
        assert b != a
        closed = mem_store.get_session(a)
        assert closed.end_reason == "timeout"
        assert closed.ended_at == T0

    def test_gap_exactly_timeout_continues(self, collector):
        a, _ = collector.handle_request_begin(_event(seconds=0))
        b, _ = collector.handle_request_begin(_event(seconds=1800))
        assert a == b

    def test_malformed_url_flagged_but_stored(self, collector, mem_store):
        collector.handle_request_begin(_event(url="http://[badbracket/x"))
        page = oracles.get_page(mem_store, 1)
        assert page.log_url == "http://[badbracket/x"
        assert page.log_url_malformed is True

    def test_session_row_enriched(self, collector, mem_store):
        ua = (
            "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0)"
            " Gecko/ 20100101 Firefox/15.0.1"
        )
        from webusage.enrichment import sample_geoip_table

        enriched = Collector(
            mem_store, site_hosts=HOSTS, geoip=sample_geoip_table()
        )
        opn, _ = enriched.handle_request_begin(
            _event(
                user_agent=ua,
                referrer="http://www.google.com/search?q=sakarya",
                cookies={"accept-language": "tr-TR,tr;q=0.9"},
            )
        )
        row = mem_store.get_session(opn)
        assert row.browser_name == "Firefox"
        assert row.os_name == "Linux"
        assert row.device_type == "desktop"
        assert row.country_code == "TR"
        assert row.language == "tr-TR"
        assert row.referral_class == "search_engine"
        assert row.search_engine == "google"
        assert row.search_keywords == "sakarya"

    def test_a_bot_is_device_bot_here_and_dropped_by_preprocess(self, collector, mem_store):
        """FORMATS.md "Lookup data": one bots-list rule sets the collector's
        `device_type` to `bot` and drops the entry in `preprocess`."""
        agents = [f"Mozilla/5.0 (compatible; {bot.upper()}/1.0)" for bot in default_bots()]
        for n, agent in enumerate(agents):
            collector.handle_request_begin(_event(f"bot{n}", user_agent=agent))
            stats = PreprocessStats()
            assert not stats.admits(200, "/index.php", agent)
            assert stats.dropped_bot == 1
        assert mem_store._query("SELECT DISTINCT device_type FROM log_session") == [("bot",)]
        assert mem_store.session_count() == len(agents) > 1

    def test_invalid_address_is_an_unknown_country_every_time(self, mem_store):
        from webusage.enrichment import sample_geoip_table

        enriched = Collector(mem_store, site_hosts=HOSTS, geoip=sample_geoip_table())
        for i, token in enumerate(("tokA", "tokB")):
            opn, _ = enriched.handle_request_begin(
                _event(token, seconds=i, client_ip="01.2.3.4")
            )
            assert mem_store.get_session(opn).country_code == "unknown"

    def test_session_map_written(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(166553, "user9", "student", "male"))
        opn, page_id = collector.handle_request_begin(
            _event(auth_user="user9", get_params={"page": "info"})
        )
        page = oracles.get_page(mem_store, page_id)
        assert page.log_session_serialize == {
            "ses_id": str(opn),
            "ses_uid": "166553",
        }
        assert page.log_get_serialize == {"page": "info"}
        assert page.log_uid == 166553
        assert page.log_username == "user9"

    def test_known_account_attached(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        opn, _ = collector.handle_request_begin(_event(auth_user="u0007"))
        row = mem_store.get_session(opn)
        assert row.user_id == 7
        assert row.user_type == "academic_staff"
        assert row.gender == "female"

    def test_unknown_account_demoted_to_guest(self, collector, mem_store):
        opn, _ = collector.handle_request_begin(_event(auth_user="ghost"))
        row = mem_store.get_session(opn)
        assert row.user_type == "guest"
        assert row.user_id is None
        assert collector.warning_count == 1
        assert "ghost" in collector.warnings[0]

    def test_event_without_cookie_map_never_reaches_the_collector(self, collector, mem_store):
        with pytest.raises(ValueError, match="cookies must be a dict, got NoneType"):
            collector.handle_request_begin(_event(cookies=None))
        assert mem_store.session_count() == 0

    def test_timeout_must_be_positive(self, mem_store):
        with pytest.raises(ValueError):
            Collector(mem_store, site_hosts=HOSTS, timeout=0)

    def test_site_hosts_required(self, mem_store):
        with pytest.raises(ValueError):
            Collector(mem_store, site_hosts=[])


def _rows(store: LogStore) -> dict[str, list]:
    return {table: store._query(f"SELECT * FROM {table}") for table in TABLE_COLUMNS}


class TestUnstorableText:
    """SQLite stores text as UTF-8, which cannot hold a lone surrogate: such
    a request is a CollectionError and rolls back whole."""

    @pytest.mark.parametrize("token", ["tokA", "tokB"], ids=["open session", "new session"])
    @pytest.mark.parametrize("overrides", [
        {"cookies": {"a": "\ud800"}},
        {"url": "/p\udfff.php"},
        {"session_token": "t\ud800"},
    ], ids=["map value", "url", "token"])
    def test_collection_error_leaves_the_store_unchanged(
        self, collector, mem_store, token, overrides
    ):
        collector.handle_request_begin(_event("tokA", 0))
        before = _rows(mem_store)
        event = _event(token, 10, **overrides)
        with pytest.raises(CollectionError, match="surrogates not allowed") as info:
            collector.handle_request_begin(event)
        assert info.value.event is event
        assert _rows(mem_store) == before

    def test_batch_records_the_event_after_it(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        events = [_event("tokA", 0), _event("t\ud800", 10), _event("tokA", 20, url="/next.php")]
        errors = []
        pages, n_errors = replay_stream(collector, events, on_error=errors.append)
        assert (pages, n_errors) == (2, 1)
        assert [e.event for e in errors] == [events[1]]
        assert mem_store._query("SELECT log_url FROM log_page ORDER BY log_details_id") == [
            ("/index.php",), ("/next.php",),
        ]
        assert mem_store.session_count() == 1

    def test_request_end_with_unstorable_text(self, collector, mem_store):
        _, page_id = collector.handle_request_begin(_event())
        before = _rows(mem_store)
        with pytest.raises(CollectionError, match="surrogates not allowed") as info:
            collector.handle_request_end(page_id, AppPageResult(page_title="t\ud800"))
        assert info.value.event is None
        assert _rows(mem_store) == before

    def test_end_session_with_unstorable_token(self, collector, mem_store):
        collector.handle_request_begin(_event())
        before = _rows(mem_store)
        with pytest.raises(CollectionError, match="surrogates not allowed") as info:
            collector.end_session("t\ud800")
        assert info.value.event is None
        assert _rows(mem_store) == before


class TestLockedStore:
    """A store another connection holds locked is a CollectionError, not a
    raw sqlite3 error; the request leaves no trace, and the next one after
    the lock is gone is recorded."""

    def test_collection_error_then_recorded_once_unlocked(self, tmp_path):
        path = tmp_path / "locked.db"
        store = LogStore(path)
        try:
            collector = Collector(store, site_hosts=HOSTS)
            collector.handle_request_begin(_event("tokA", 0))
            store._conn.execute("PRAGMA busy_timeout=0")
            before = _rows(store)
            other = sqlite3.connect(path, isolation_level=None)
            try:
                other.execute("BEGIN IMMEDIATE")
                event = _event("tokB", 10)
                with pytest.raises(CollectionError, match="database is locked") as info:
                    collector.handle_request_begin(event)
                assert info.value.event is event
                other.execute("ROLLBACK")
            finally:
                other.close()
            assert _rows(store) == before
            assert collector.handle_request_begin(_event("tokB", 20)) == (2, 2)
        finally:
            store.close()

    @pytest.mark.parametrize("call", [
        lambda collector: collector.handle_request_end(1, AppPageResult(page_title="Info")),
        lambda collector: collector.end_session("tokA"),
        lambda collector: collector.sweep_expired(T0 + timedelta(days=1)),
    ], ids=["handle_request_end", "end_session", "sweep_expired"])
    def test_every_call_is_a_collection_error_then_succeeds_unlocked(self, tmp_path, call):
        path = tmp_path / "locked.db"
        store = LogStore(path)
        try:
            collector = Collector(store, site_hosts=HOSTS)
            collector.handle_request_begin(_event("tokA", 0))
            store._conn.execute("PRAGMA busy_timeout=0")
            before = _rows(store)
            other = sqlite3.connect(path, isolation_level=None)
            try:
                other.execute("BEGIN IMMEDIATE")
                with pytest.raises(CollectionError, match="database is locked") as info:
                    call(collector)
                assert info.value.event is None
                other.execute("ROLLBACK")
            finally:
                other.close()
            assert _rows(store) == before
            call(collector)
            assert _rows(store) != before
        finally:
            store.close()

    def test_closed_store_is_not_a_collection_error(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        mem_store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            collector.handle_request_begin(_event())


class TestRequestEnd:
    def test_result_applied(self, collector, mem_store):
        _, page_id = collector.handle_request_begin(_event())
        result = AppPageResult(
            page_title="Info",
            web_message="Welcome to WebGate",
            subtitle="Info :: access",
            page_load_time=0.0266,
        )
        collector.handle_request_end(page_id, result)
        page = oracles.get_page(mem_store, page_id)
        assert page.log_page_load_time == pytest.approx(0.0266)
        assert page.log_web_message == "Welcome to WebGate"

    def test_idempotent(self, collector, mem_store):
        _, page_id = collector.handle_request_begin(_event())
        result = AppPageResult(page_title="Info", page_load_time=0.0266)
        collector.handle_request_end(page_id, result)
        once = oracles.get_page(mem_store, page_id)
        collector.handle_request_end(page_id, result)
        assert oracles.get_page(mem_store, page_id) == once

    def test_unknown_page_id(self, collector):
        with pytest.raises(NotFoundError):
            collector.handle_request_end(999, AppPageResult())


class TestConcurrentRequests:
    def test_threads_sharing_a_store_lose_no_writes(self, tmp_path):
        store = LogStore(tmp_path / "shared.db")
        collector = Collector(store, site_hosts=HOSTS)
        n_threads, n_requests = 6, 40
        failures = []

        def worker(k: int) -> None:
            try:
                for i in range(n_requests):
                    _, page_id = collector.handle_request_begin(_event(f"tok{k}", i))
                    collector.handle_request_end(page_id, AppPageResult(page_title=f"t{i}"))
            except Exception as exc:  # reported through the assertion below
                failures.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert store.session_count() == n_threads
        assert store.page_count() == n_threads * n_requests
        untitled = store._query("SELECT COUNT(*) FROM log_page WHERE log_page_title = ''")
        assert untitled[0][0] == 0
        assert len(oracles.iter_open_sessions(store)) == n_threads
        store.close()


    def test_replays_and_requests_in_threads_lose_no_writes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(storage, "_BATCH_ROWS", 5)  # chunks written part-way
        store = LogStore(tmp_path / "shared.db")
        collector = Collector(store, site_hosts=HOSTS)
        n_replays, n_requesters, n_events = 4, 4, 60
        failures = []

        def replay(k: int) -> None:
            events = [_event(f"r{k}-{i % 2}", i) for i in range(n_events)]
            try:
                assert replay_stream(collector, events) == (n_events, 0)
            except Exception as exc:  # reported through the assertion below
                failures.append(exc)

        def requests(k: int) -> None:
            try:
                for i in range(n_events):  # after every replay's last time: none closes them
                    _, page_id = collector.handle_request_begin(_event(f"q{k}", 86400 + i))
                    collector.handle_request_end(page_id, AppPageResult(page_title=f"t{i}"))
            except Exception as exc:
                failures.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=replay, args=(k,)) for k in range(n_replays)]
            threads += [threading.Thread(target=requests, args=(k,)) for k in range(n_requesters)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        try:
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            total = (n_replays + n_requesters) * n_events
            assert store._query("SELECT log_details_id FROM log_page ORDER BY 1") == [
                (i,) for i in range(1, total + 1)]
            # Each page is in its session, and each token has one session.
            assert store._query("SELECT COUNT(*) FROM log_page"
                                " WHERE log_session_serialize != '{\"ses_id\":\"' || log_opn_id || '\"}'"
                                ) == [(0,)]
            assert store.session_count() == 2 * n_replays + n_requesters
            assert store._query("SELECT COUNT(*) FROM log_page WHERE log_page_title != ''") == [
                (n_requesters * n_events,)]
            assert sorted(o.session_token for o in oracles.iter_open_sessions(store)) == [
                f"q{k}" for k in range(n_requesters)]
        finally:
            store.close()


class TestSessionEnd:
    def test_logout_true_then_false(self, collector, mem_store):
        opn, _ = collector.handle_request_begin(_event())
        assert collector.end_session("tokA") is True
        assert mem_store.get_session(opn).end_reason == "logout"
        assert collector.end_session("tokA") is False
        assert collector.end_session("never-seen") is False

    def test_sweep_counts_only_expired(self, collector):
        collector.handle_request_begin(_event(token="fresh", seconds=0))
        collector.handle_request_begin(_event(token="stale", seconds=0))
        collector.handle_request_begin(_event(token="fresh", seconds=1990))
        swept = collector.sweep_expired(T0 + timedelta(seconds=2000))
        assert swept == 1

    def test_sweep_boundary_is_strict(self, collector):
        collector.handle_request_begin(_event(seconds=0))
        assert collector.sweep_expired(T0 + timedelta(seconds=1800)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1801)) == 1

    def test_sweep_empty_store(self, collector):
        assert collector.sweep_expired(T0) == 0

    def test_sweep_within_the_timeout_of_the_calendar_start(self, collector):
        """FORMATS.md "Numeric ranges": a sweep whose cutoff lies before 0001-01-01
        closes no session."""
        collector.handle_request_begin(_event(timestamp=datetime.min))
        assert collector.sweep_expired(datetime.min) == 0
        assert collector.sweep_expired(datetime(1, 1, 1, 0, 10)) == 0
        assert collector.sweep_expired(datetime(1, 1, 1, 0, 30, 1)) == 1


class TestSharedStore:
    """Collectors over one store see only what the store holds."""

    def test_rolled_back_session_id_reused_by_another_collector(self, mem_store):
        mem_store.upsert_user(UserInfo(1, "alice", "student", "female"))
        mem_store.upsert_user(UserInfo(2, "bob", "student", "male"))
        a = Collector(mem_store, site_hosts=HOSTS)
        b = Collector(mem_store, site_hosts=HOSTS)
        with pytest.raises(CollectionError):
            a.handle_request_begin(_bad_page_event("tokA", 0, auth_user="alice"))
        opn, _ = b.handle_request_begin(_event("tokB", 5, auth_user="bob"))
        assert opn == 1  # the id the failed event rolled back
        _, page_id = a.handle_request_begin(_event("tokB", 10))
        page = oracles.get_page(mem_store, page_id)
        assert (page.log_uid, page.log_username) == (2, "bob")

    def test_page_on_a_session_opened_by_another_collector(self, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        a = Collector(mem_store, site_hosts=HOSTS)
        b = Collector(mem_store, site_hosts=HOSTS)
        opn, _ = a.handle_request_begin(_event(auth_user="u0007"))
        again, page_id = b.handle_request_begin(_event(seconds=10))
        assert again == opn
        page = oracles.get_page(mem_store, page_id)
        assert (page.log_uid, page.log_username) == (7, "u0007")


class TestSessionsContract:
    """FORMATS.md "Sessions (request API)" claims not covered above."""

    def test_sweep_closes_at_last_activity(self, collector, mem_store):
        opn, _ = collector.handle_request_begin(_event(seconds=0))
        collector.handle_request_begin(_event(seconds=100))
        assert collector.sweep_expired(T0 + timedelta(days=3)) == 1
        row = mem_store.get_session(opn)
        assert (row.end_reason, row.ended_at) == ("timeout", T0 + timedelta(seconds=100))

    def test_logout_closes_at_last_activity(self, collector, mem_store):
        opn, _ = collector.handle_request_begin(_event(seconds=0))
        collector.handle_request_begin(_event(seconds=100))
        assert collector.end_session("tokA") is True
        row = mem_store.get_session(opn)
        assert (row.end_reason, row.ended_at) == ("logout", T0 + timedelta(seconds=100))

    def test_sweep_at_a_fractional_time_is_strict(self, collector):
        # The sweep's time is taken to the whole second, as the store keeps it.
        collector.handle_request_begin(_event(seconds=0))
        assert collector.sweep_expired(T0 + timedelta(seconds=1799.5)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1800)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1800.5)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1801)) == 1

    def test_fractional_times_are_taken_to_the_whole_second(self, mem_store):
        # FORMATS.md's example: the store keeps 10:00:00, so the gap is 60 s.
        collector = Collector(mem_store, site_hosts=HOSTS, timeout=60)
        first, _ = collector.handle_request_begin(_event(seconds=0.9))
        again, _ = collector.handle_request_begin(_event(seconds=60.5))
        assert again == first
        assert mem_store.get_session(first).end_reason is None
        assert collector.sweep_expired(T0 + timedelta(seconds=60.5)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=120.9)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=121)) == 1

    def test_an_aware_sweep_time_is_the_utc_time_it_names(self, mem_store):
        # FORMATS.md's example: a request at 10:00+03:00 is stored as 07:00:00.
        collector = Collector(mem_store, site_hosts=HOSTS, timeout=60)
        at = datetime(2021, 9, 2, 10, 0, tzinfo=timezone(timedelta(hours=3)))
        assert collector.handle_request_begin(_event(timestamp=at)) == (1, 1)
        assert collector.sweep_expired(datetime(2021, 9, 2, 7, 1, tzinfo=timezone.utc)) == 0
        assert collector.sweep_expired(datetime(2021, 9, 2, 10, 1, 1, tzinfo=at.tzinfo)) == 1
        assert mem_store.get_session(1).end_reason == "timeout"

    @pytest.mark.parametrize("now", [
        datetime.max.replace(tzinfo=timezone(timedelta(hours=-1))),
        datetime.min.replace(tzinfo=timezone(timedelta(hours=1))),
    ])
    def test_an_aware_sweep_time_outside_the_calendar_is_refused_as_an_event_time(
            self, collector, now):
        with pytest.raises(ValueError) as from_event:
            _event(timestamp=now)
        with pytest.raises(ValueError) as from_sweep:
            collector.sweep_expired(now)
        assert str(from_sweep.value) == str(from_event.value) \
            == f"timestamp {now.isoformat()} is outside years 1-9999 in UTC"

    def test_first_request_fixes_the_session_user(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        opn, _ = collector.handle_request_begin(_event(seconds=0))
        again, page_id = collector.handle_request_begin(_event(seconds=10, auth_user="u0007"))
        assert again == opn
        assert mem_store.get_session(opn).user_id is None
        page = oracles.get_page(mem_store, page_id)
        assert (page.log_uid, page.log_username) == (None, None)

    def test_request_on_a_copied_open_session_records_its_session_user(self, mem_store):
        source = LogStore(":memory:")
        source.upsert_user(UserInfo(7, "alice", "student", "female"))
        Collector(source, site_hosts=HOSTS).handle_request_begin(_event(auth_user="alice"))
        oracles.copy_tables(source, mem_store, ("user_info", "log_session", "open_sessions"))
        source.close()
        opn, page_id = Collector(mem_store, site_hosts=HOSTS).handle_request_begin(
            _event(seconds=300))
        assert opn == 1
        page = oracles.get_page(mem_store, page_id)
        assert (page.log_uid, page.log_username) == (7, "alice")
        assert page.log_session_serialize == {"ses_id": "1", "ses_uid": "7"}

    def test_account_and_client_fields_are_session_columns_of_the_same_kind(self):
        session = typing.get_type_hints(SessionRecord)
        for record_type in (UserInfo, ClientProfile):
            for name, hint in typing.get_type_hints(record_type).items():
                assert _field_type(session[name]) is _field_type(hint), name


class TestClassifyReferrer:
    def test_absent_is_direct(self):
        assert classify_referrer(None, HOSTS) == "direct"
        assert classify_referrer("", HOSTS) == "direct"

    def test_own_host_is_internal(self):
        assert classify_referrer("http://www.server.com/", HOSTS) == "internal"
        assert classify_referrer("http://WWW.Server.COM:80/x", HOSTS) == "internal"

    def test_search_engine_named(self):
        got = classify_referrer("http://www.google.com/search?q=x", HOSTS)
        assert got == "search_engine"

    def test_other_host_is_external(self):
        got = classify_referrer("http://elsewhere.org/page", HOSTS)
        assert got == "external"

    def test_hostless_referrer_is_external(self):
        assert classify_referrer("not a url", HOSTS) == "external"
        assert classify_referrer("http://[::1/", HOSTS) == "external"

    @settings(max_examples=1000)
    @given(st.one_of(
        st.sampled_from([url for url, _ in _SEARCH_REFERRERS + _EXTERNAL_REFERRERS]),
        st.builds(
            "{}://{}{}{}".format,
            st.sampled_from(["http", "https", "ftp", "HTTP", ""]),
            st.sampled_from([
                "www.google.com", "WWW.Bing.com", "search.yahoo.com", "yandex.com.tr",
                "duckduckgo.com", "notgoogle.com", "google", "www.server.com",
                "elsewhere.org", "[::1]", "[::1", "::1]", "[fe80::1%Zone]", "user@bing.com",
                "bing.com:8080", "bing.com:x", "",
            ]),
            st.sampled_from(["", "/", "/search", "/?q=x", "?p=a+b", "#q=x"]),
            st.text(alphabet="?&=q/:.#%[]@ +", max_size=12),
        ),
        st.text(alphabet="abgo.:/[]@?=q ", max_size=30),
        st.text(max_size=30),
    ))
    def test_search_engine_exactly_when_extract_finds_one(self, referrer):
        # _start_session unpacks extract() for every search_engine referrer.
        kind = classify_referrer(referrer, HOSTS)
        assert kind in ("direct", "internal", "search_engine", "external")
        if kind != "internal":
            found = default_search_registry().extract(referrer)
            assert (kind == "search_engine") == (found is not None)


class TestReplay:
    def _events(self, n=20, tokens=("tokA", "tokB")):
        rng = random.Random(5)
        out = []
        for i in range(n):
            out.append(
                _event(
                    token=rng.choice(tokens),
                    seconds=i * 40,
                    url=f"/p{i}.php",
                )
            )
        return out

    def test_replay_counts(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        pages, errors = replay_stream(collector, self._events())
        assert (pages, errors) == (20, 0)
        assert mem_store.page_count() == 20

    def test_final_sweep_closes_everything(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        replay_stream(collector, self._events())
        assert list(oracles.iter_open_sessions(mem_store)) == []

    def test_final_sweep_at_the_end_of_the_calendar_closes_everything(self, mem_store):
        # No time lies a timeout past tokB's and tokC's last activity
        # (23:59:00); tokA, idle since 20:00:00, would be swept at 23:59:59.
        last = datetime(9999, 12, 31, 23, 59, 0)
        events = [
            _event("tokA", timestamp=datetime(9999, 12, 31, 20, 0, 0)),
            _event("tokB", timestamp=datetime(9999, 12, 31, 23, 40, 0)),
            _event("tokC", timestamp=last),
            _event("tokB", timestamp=last),
        ]
        collector = Collector(mem_store, site_hosts=HOSTS)
        assert replay_stream(collector, events) == (4, 0)
        assert list(oracles.iter_open_sessions(mem_store)) == []
        closed = mem_store._query(
            "SELECT ended_at, end_reason FROM log_session ORDER BY opn_id"
        )
        assert closed == [
            ("9999-12-31 20:00:00", "timeout"),
            ("9999-12-31 23:59:00", "timeout"),
            ("9999-12-31 23:59:00", "timeout"),
        ]

    def test_failed_event_leaves_no_trace_in_batch(self, mem_store):
        self._failed_events_leave_no_trace(mem_store, "transaction")

    def test_failed_event_leaves_no_trace_in_a_buffered_batch(self, mem_store):
        self._failed_events_leave_no_trace(mem_store, "batch")

    @staticmethod
    def _failed_events_leave_no_trace(mem_store, scope):
        collector = Collector(mem_store, site_hosts=HOSTS)
        events = [
            _event("tokA", 0),
            _bad_page_event("tokB", 10),  # new session, bad page
            _bad_page_event("tokA", 20),  # open session, bad page
            _event("tokC", 30),
        ]
        errors = []
        # One transaction, each request a nested scope in it: a savepoint,
        # or in a replay's batch a mark in its undo log.  Without the
        # replay's final close, the open sessions stay to be seen.
        with getattr(mem_store, scope)():
            for event in events:
                try:
                    collector.handle_request_begin(event)
                except CollectionError as exc:
                    errors.append(exc)
        pages, n_errors = len(events) - len(errors), len(errors)
        assert (pages, n_errors) == (2, 2)
        assert all(isinstance(e, CollectionError) for e in errors)
        pageless = mem_store._query(
            "SELECT COUNT(*) FROM log_session s WHERE NOT EXISTS"
            " (SELECT 1 FROM log_page p WHERE p.log_opn_id = s.opn_id)"
        )[0][0]
        assert pageless == 0
        assert mem_store.session_count() == 2
        assert [o.session_token for o in oracles.iter_open_sessions(mem_store)] == ["tokA", "tokC"]
        assert mem_store.get_open_session("tokA").last_activity == T0

    def test_replay_deterministic(self, tmp_path):
        events = self._events(n=40, tokens=("tokA", "tokB", "tokC"))

        def run(path):
            store = LogStore(path)
            collector = Collector(store, site_hosts=HOSTS)
            replay_stream(collector, events)
            rows = [
                (s.opn_id, s.started_at, s.ended_at, p.log_details_id, p.log_url)
                for s, p in store.join_sessions_pages()
            ]
            store.close()
            return rows

        assert run(tmp_path / "a.db") == run(tmp_path / "b.db")

    def test_session_count_matches_reference(self, mem_store):
        # Brute-force reference: one session per maximal same-token run
        # without a gap > timeout.
        events = self._events(n=60, tokens=("tokA", "tokB"))
        events.sort(key=lambda e: e.timestamp)
        timeout = 300.0
        last_seen: dict[str, datetime] = {}
        expected = 0
        for event in events:
            prev = last_seen.get(event.session_token)
            gap = None if prev is None else (event.timestamp - prev).total_seconds()
            if prev is None or gap > timeout:
                expected += 1
            last_seen[event.session_token] = event.timestamp
        collector = Collector(mem_store, site_hosts=HOSTS, timeout=timeout)
        replay_stream(collector, events)
        assert mem_store.session_count() == expected


def _tables(store: LogStore) -> dict[str, list]:
    """Every row of every table, and the ids each table has given."""
    out = {table: store._query(f"SELECT * FROM {table} ORDER BY 1") for table in TABLE_COLUMNS}
    out["sqlite_sequence"] = store._query("SELECT * FROM sqlite_sequence ORDER BY 1")
    return out


def _replayed(setup, events, batched: bool) -> tuple:
    """Replay ``events`` into a store that ``setup`` prepared, through
    ``replay_stream`` or, as a reference, as requests in a plain transaction,
    each a savepoint in it, then the replay's final close: the counts, the
    error messages and the tables."""
    store = LogStore(":memory:")
    try:
        collector = Collector(store, site_hosts=HOSTS, timeout=600)
        setup(store, collector)
        errors = []
        if batched:
            counts = replay_stream(collector, events, on_error=errors.append)
        else:
            with store.transaction():
                for event in events:
                    try:
                        collector.handle_request_begin(event)
                    except CollectionError as exc:
                        errors.append(exc)
                collector.end_replay(events[-1].timestamp)
            counts = (len(events) - len(errors), len(errors))
        return counts, [str(e) for e in errors], _tables(store)
    finally:
        store.close()


def _no_setup(store, collector):
    pass


_TOKENS = st.sampled_from(["tokA", "tokB", "tokC"])
# A request as it is, signed in, or refused by the store: its page, or its URL.
_FAULTS = st.sampled_from([None, None, "alice", "page", "url"])


class TestReplayBatch:
    """FORMATS.md "Sessions (request API)": a replay buffers its writes and
    writes them in chunks in one transaction; it must store what the same
    requests store one by one, each a savepoint, and an error through it
    must undo it whole."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(storage, "_BATCH_ROWS", 2)

    @staticmethod
    def _stored_rows(store, collector):
        """Sessions 1 and 2 open (tokA, tokB), and the top session's rows
        (3, with pages 3 and 4) deleted, so the ids given reach past the
        rows left."""
        for token, seconds in (("tokA", 0), ("tokB", 10), ("tokC", 20), ("tokC", 30)):
            collector.handle_request_begin(_event(token, seconds))
        with store.transaction() as conn:
            conn.execute("DELETE FROM open_sessions WHERE session_token = 'tokC'")
            conn.execute("DELETE FROM log_page WHERE log_opn_id = 3")
            conn.execute("DELETE FROM log_session WHERE opn_id = 3")

    def test_ids_continue_past_the_stored_ones_and_an_open_session_goes_on(self):
        events = [_event("tokA", 100), _event("tokD", 110), _event("tokA", 120)]
        got = _replayed(self._stored_rows, events, batched=True)
        assert got == _replayed(self._stored_rows, events, batched=False)
        counts, _, tables = got
        assert counts == (3, 0)
        assert [row[:2] for row in tables["log_page"]] == [(1, 1), (2, 2), (5, 1), (6, 4), (7, 1)]
        ends = {row[0]: row[-2:] for row in tables["log_session"]}
        assert ends == {1: ("2021-09-02 10:02:00", "timeout"),
                        2: ("2021-09-02 10:00:10", "timeout"),
                        4: ("2021-09-02 10:01:50", "timeout")}
        assert tables["open_sessions"] == []

    def test_a_session_written_by_an_earlier_chunk_is_closed_in_its_row(self, small_chunks):
        events = [
            _event("tokA", 0),  # session 1 and its page: a chunk, written
            _event("tokA", 20),
            _event("tokB", 30),  # a chunk again, written
            _bad_page_event("tokB", 40),  # fails right after the write
            _bad_page_event("tokC", 50),  # a new session that fails
            _event("tokA", 700),  # closes the written session 1, starts session 3
        ]
        statements = []

        def traced(store, collector):
            store._conn.set_trace_callback(statements.append)

        got = _replayed(traced, events, batched=True)
        assert got == _replayed(_no_setup, events, batched=False)
        counts, errors, tables = got
        assert counts == (4, 2)
        assert errors == ["map keys and values must be strings"] * 2
        assert [row[0] for row in tables["log_session"]] == [1, 2, 3]
        assert {row[0]: row[-2:] for row in tables["log_session"]}[1] == (
            "2021-09-02 10:00:20", "timeout")
        assert ("UPDATE log_session SET ended_at = '2021-09-02 10:00:20', end_reason = 'timeout'"
                " WHERE opn_id = 1") in statements

    def test_an_error_through_the_outer_scope_leaves_the_store_as_it_was(self, small_chunks):
        store = LogStore(":memory:")
        try:
            collector = Collector(store, site_hosts=HOSTS)
            self._stored_rows(store, collector)
            before = _tables(store)
            lines = [f"ip=10.0.0.1 time=2021-09-02T11:00:{i:02d} method=GET url=/p{i} token=t{i % 2}"
                     for i in range(7)]
            lines.insert(5, "not a replay line")
            with pytest.raises(ReplayFormatError, match="line 6"):
                replay_stream(collector, read_replay(io.StringIO("\n".join(lines) + "\n")))
            assert _tables(store) == before
            assert not store._conn.in_transaction
            # The store takes the next replay as if the failed one had not run.
            assert replay_stream(collector, [_event("tokA", 100)]) == (1, 0)
            assert store._query("SELECT MAX(log_details_id) FROM log_page") == [(5,)]
        finally:
            store.close()

    def test_a_chunk_that_cannot_be_written_fails_the_whole_replay(self, small_chunks):
        class FailingWrites:
            """The store's connection, whose executemany fails as a full disk would."""

            def __init__(self, conn):
                self._conn = conn

            def executemany(self, sql, rows):
                raise sqlite3.OperationalError("disk I/O error")

            def __getattr__(self, name):
                return getattr(self._conn, name)

        store = LogStore(":memory:")
        try:
            collector = Collector(store, site_hosts=HOSTS)
            self._stored_rows(store, collector)
            before = _tables(store)
            store._conn = FailingWrites(store._conn)
            errors = []
            events = [_event("tokA", 100), _event("tokE", 110), _event("tokA", 120)]
            with pytest.raises(StorageError, match="the replay batch could not be written:"
                                                   " disk I/O error"):
                replay_stream(collector, events, on_error=errors.append)
            # The event whose chunk failed, then each later one, fails.
            assert [e.event for e in errors] == events[1:]
            store._conn = store._conn._conn
            assert _tables(store) == before
            assert not store._conn.in_transaction
        finally:
            store.close()

    @settings(max_examples=40, deadline=None)
    @given(before=st.lists(st.tuples(_TOKENS, st.integers(0, 900)), max_size=4),
           steps=st.lists(st.tuples(_TOKENS, st.integers(0, 900), _FAULTS), min_size=1,
                          max_size=12))
    def test_same_tables_as_requests_one_by_one(self, before, steps):
        """Any replay, on a store with sessions open or closed before it."""

        def setup(store, collector):
            store.upsert_user(UserInfo(7, "alice", "student", "female"))
            for token, seconds in sorted(before, key=lambda s: s[1]):
                collector.handle_request_begin(_event(token, seconds))

        events = []
        for token, seconds, fault in sorted(steps, key=lambda s: s[1]):
            event = _event(token, 1000 + seconds, auth_user="alice" if fault == "alice" else None)
            if fault == "page":
                event.get_params["x"] = 1
            elif fault == "url":
                event = _event(token, 1000 + seconds, url="/p\udfff.php")
            events.append(event)
        with mock.patch.object(storage, "_BATCH_ROWS", 3):
            assert _replayed(setup, events, batched=True) == _replayed(setup, events, batched=False)

    @pytest.mark.parametrize("token", ["tokA", "tokB"], ids=["open session", "new session"])
    @pytest.mark.parametrize("overrides", [
        {"cookies": {"a": "\ud800"}},
        {"url": "/p\udfff.php"},
    ], ids=["map value", "url"])
    def test_unstorable_text_fails_only_its_event(self, token, overrides):
        events = [_event("tokA", 0), _event(token, 10, **overrides), _event("tokA", 20)]
        got = _replayed(_no_setup, events, batched=True)
        assert got == _replayed(_no_setup, events, batched=False)
        counts, errors, tables = got
        assert counts == (2, 1)
        assert len(errors) == 1 and "surrogates not allowed" in errors[0]
        assert len(tables["log_session"]) == 1


class TestCollectorLabels:
    """FORMATS.md "Scoring (`compare`)": a page's user label is the
    session's account when signed in, else its `sid` cookie, else its own
    session."""

    def test_account_then_cookie_then_session(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(7, "u1", "student", "female"))
        # (token, auth user, cookies, true user): the account joins two sid
        # cookies, one sid cookie two sessions, and no cookie nothing.
        pages = [("a1", "u1", {"sid": "x"}, 1), ("a2", "u1", {"sid": "y"}, 1),
                 ("c1", None, {"sid": "z"}, 2), ("c2", None, {"sid": "z"}, 2),
                 ("l1", None, {}, 3), ("l2", None, {}, 4)]
        replay_stream(collector, [_event(token, i, auth_user=user, cookies=cookies)
                                  for i, (token, user, cookies, _) in enumerate(pages)])
        epoch = int(T0.replace(tzinfo=timezone.utc).timestamp())
        truth = GroundTruth(events=[
            TruthEvent(i + 1, true_user, i + 1, epoch + i, "193.140.253.80", "/index.php")
            for i, (_, _, _, true_user) in enumerate(pages)
        ])
        report = collector_report(mem_store, truth)
        assert (report.user_precision, report.user_recall, report.predicted_sessions) == (
            1.0, 1.0, 6)


class TestGroundTruthExactness:
    def test_small_workload_scores_perfectly(self, sim_store, small_workload):
        _, _, truth = small_workload
        report = collector_report(sim_store, truth)
        assert report.user_precision == 1.0
        assert report.user_recall == 1.0
        assert report.session_precision == 1.0
        assert report.session_recall == 1.0
        assert report.exact_session_match_rate == 1.0
        assert report.truth_sessions == len(truth.sessions)
        assert report.predicted_sessions == len(truth.sessions)
