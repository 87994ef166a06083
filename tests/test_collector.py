import random
import sys
import threading
from datetime import datetime, timedelta

import pytest

from webusage.collector import (
    CollectionError,
    Collector,
    Referral,
    classify_referrer,
    replay_stream,
)
from webusage.compare import collector_report
from webusage.events import AppPageResult, RawRequestEvent
from webusage.storage import LogStore, NotFoundError, UserInfo, deserialize_map

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
        page = mem_store.get_page(1)
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

    def test_session_map_written(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(166553, "user9", "student", "male"))
        opn, page_id = collector.handle_request_begin(
            _event(auth_user="user9", get_params={"page": "info"})
        )
        page = mem_store.get_page(page_id)
        assert deserialize_map(page.log_session_serialize) == {
            "ses_id": str(opn),
            "ses_uid": "166553",
        }
        assert deserialize_map(page.log_get_serialize) == {"page": "info"}
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

    def test_timeout_must_be_positive(self, mem_store):
        with pytest.raises(ValueError):
            Collector(mem_store, site_hosts=HOSTS, timeout=0)

    def test_site_hosts_required(self, mem_store):
        with pytest.raises(ValueError):
            Collector(mem_store, site_hosts=[])


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
        page = mem_store.get_page(page_id)
        assert page.log_page_load_time == pytest.approx(0.0266)
        assert page.log_web_message == "Welcome to WebGate"

    def test_idempotent(self, collector, mem_store):
        _, page_id = collector.handle_request_begin(_event())
        result = AppPageResult(page_title="Info", page_load_time=0.0266)
        collector.handle_request_end(page_id, result)
        once = mem_store.get_page(page_id)
        collector.handle_request_end(page_id, result)
        assert mem_store.get_page(page_id) == once

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
        assert len(store.iter_open_sessions()) == n_threads
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


class TestSharedStore:
    """Collectors over one store see only what the store holds."""

    def test_rolled_back_session_id_reused_by_another_collector(self, mem_store):
        mem_store.upsert_user(UserInfo(1, "alice", "student", "female"))
        mem_store.upsert_user(UserInfo(2, "bob", "student", "male"))
        a = Collector(mem_store, site_hosts=HOSTS)
        b = Collector(mem_store, site_hosts=HOSTS)
        with pytest.raises(CollectionError):
            a.handle_request_begin(_event("tokA", 0, auth_user="alice", get_params={"q": 1}))
        opn, _ = b.handle_request_begin(_event("tokB", 5, auth_user="bob"))
        assert opn == 1  # the id the failed event rolled back
        _, page_id = a.handle_request_begin(_event("tokB", 10))
        page = mem_store.get_page(page_id)
        assert (page.log_uid, page.log_username) == (2, "bob")

    def test_page_on_a_session_opened_by_another_collector(self, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        a = Collector(mem_store, site_hosts=HOSTS)
        b = Collector(mem_store, site_hosts=HOSTS)
        opn, _ = a.handle_request_begin(_event(auth_user="u0007"))
        again, page_id = b.handle_request_begin(_event(seconds=10))
        assert again == opn
        page = mem_store.get_page(page_id)
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
        collector.handle_request_begin(_event(seconds=0))
        assert collector.sweep_expired(T0 + timedelta(seconds=1799.5)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1800)) == 0
        assert collector.sweep_expired(T0 + timedelta(seconds=1800.5)) == 1

    def test_first_request_fixes_the_session_user(self, collector, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        opn, _ = collector.handle_request_begin(_event(seconds=0))
        again, page_id = collector.handle_request_begin(_event(seconds=10, auth_user="u0007"))
        assert again == opn
        assert mem_store.get_session(opn).user_id is None
        page = mem_store.get_page(page_id)
        assert (page.log_uid, page.log_username) == (None, None)


class TestClassifyReferrer:
    def test_absent_is_direct(self):
        assert classify_referrer(None, HOSTS) == Referral("direct")
        assert classify_referrer("", HOSTS) == Referral("direct")

    def test_own_host_is_internal(self):
        got = classify_referrer("http://www.server.com/", HOSTS)
        assert got == Referral("internal")

    def test_search_engine_named(self):
        got = classify_referrer("http://www.google.com/search?q=x", HOSTS)
        assert got == Referral("search_engine", "google")

    def test_other_host_is_external(self):
        got = classify_referrer("http://elsewhere.org/page", HOSTS)
        assert got == Referral("external", "elsewhere.org")

    def test_hostless_referrer_flagged(self):
        got = classify_referrer("not a url", HOSTS)
        assert got.kind == "external"
        assert got.flagged is True
        assert got.name == "not a url"

    def test_empty_hosts_rejected(self):
        with pytest.raises(ValueError):
            classify_referrer(None, [])


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
        assert list(mem_store.iter_open_sessions()) == []

    def test_no_final_sweep_leaves_open(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        replay_stream(collector, self._events(), final_sweep=False)
        assert len(list(mem_store.iter_open_sessions())) == 2

    def test_failed_event_leaves_no_trace_in_batch(self, mem_store):
        collector = Collector(mem_store, site_hosts=HOSTS)
        events = [
            _event("tokA", 0),
            _event("tokB", 10, get_params={"x": 1}),  # new session, bad page
            _event("tokA", 20, get_params={"x": 1}),  # open session, bad page
            _event("tokC", 30),
        ]
        errors = []
        pages, n_errors = replay_stream(
            collector, events, final_sweep=False, on_error=errors.append
        )
        assert (pages, n_errors) == (2, 2)
        assert all(isinstance(e, CollectionError) for e in errors)
        pageless = mem_store._query(
            "SELECT COUNT(*) FROM log_session s WHERE NOT EXISTS"
            " (SELECT 1 FROM log_page p WHERE p.log_opn_id = s.opn_id)"
        )[0][0]
        assert pageless == 0
        assert mem_store.session_count() == 2
        assert [o.session_token for o in mem_store.iter_open_sessions()] == ["tokA", "tokC"]
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


class TestGroundTruthExactness:
    def test_small_workload_scores_perfectly(self, sim_store, small_workload):
        _, _, truth = small_workload
        report = collector_report(sim_store, truth)
        assert report.user_precision == 1.0
        assert report.user_recall == 1.0
        assert report.session_precision == 1.0
        assert report.session_recall == 1.0
        assert report.exact_session_match_rate == 1.0
        assert report.truth_sessions == truth.session_count()
        assert report.predicted_sessions == truth.session_count()
