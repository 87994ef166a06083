"""The exact SQL each kind of request runs, in order, with its values.

These pin the request API's statements: a change that makes a request
cheaper in Python must leave what SQLite is asked to do as it is.  The
statements are read from sqlite3's trace callback, which sees every
statement the connection runs, transaction control included.
"""

from datetime import datetime, timedelta

import pytest

from webusage.collector import CollectionError, Collector, replay_stream
from webusage.events import AppPageResult, RawRequestEvent
from webusage.storage import LogStore, UserInfo

T0 = datetime(2021, 9, 2, 10, 0, 0)
IP = "193.140.253.80"
URL = "http://www.server.com/a.php"

OPEN = (
    "SELECT o.session_token, o.opn_id, o.last_activity, s.user_id, s.username"
    " FROM open_sessions o JOIN log_session s ON s.opn_id = o.opn_id"
    " WHERE o.session_token = ?"
)
USER = "SELECT user_id, username, user_type, gender FROM user_info WHERE username = ?"
INSERT_SESSION = (
    "INSERT INTO log_session (opn_id, user_id, username, user_type, gender, ip,"
    " country_code, browser_name, browser_version, os_name, os_version, device_type,"
    " language, referrer_url, referral_class, search_engine, search_keywords,"
    " started_at, ended_at, end_reason) VALUES (" + ", ".join("?" * 20) + ")"
)
INSERT_OPEN = "INSERT INTO open_sessions (session_token, opn_id, last_activity) VALUES (?, ?, ?)"
INSERT_PAGE = (
    "INSERT INTO log_page (log_details_id, log_opn_id, log_uid, log_username,"
    " log_datetime, log_date, log_server, log_app_service, log_module, log_url,"
    " log_web_message, log_subtitle, log_page_title, log_cookie_serialize,"
    " log_session_serialize, log_post_serialize, log_get_serialize,"
    " log_page_load_time, log_error_text, log_url_malformed) VALUES ("
    + ", ".join("?" * 20) + ")"
)
TOUCH = (
    "UPDATE open_sessions SET last_activity = MAX(last_activity, ?)"
    " WHERE session_token = ?"
)
STARTED = "SELECT started_at FROM log_session WHERE opn_id = ?"
CLOSE = "UPDATE log_session SET ended_at = ?, end_reason = ? WHERE opn_id = ?"
DELETE_OPEN = "DELETE FROM open_sessions WHERE session_token = ?"
RESULT = (
    "UPDATE log_page SET log_page_title = ?, log_web_message = ?, log_subtitle = ?,"
    " log_page_load_time = ?, log_error_text = ? WHERE log_details_id = ?"
)


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _sql(template: str, *values) -> str:
    """The statement as the trace callback reports it: with each bound value
    in place of its ``?``."""
    parts = template.split("?")
    assert len(parts) == len(values) + 1
    return "".join(p + _literal(v) for p, v in zip(parts, values)) + parts[-1]


def _text(when: datetime) -> str:
    return when.isoformat(" ")


def _insert_session(opn_id, when, user=(None, None, "guest", "not_applicable")):
    return _sql(
        INSERT_SESSION, None, *user, IP, *["unknown"] * 6, None, None, "direct",
        None, None, _text(when), None, None,
    )


def _insert_page(page_id, opn_id, when, user_id=None, username=None, cookies="{}"):
    session_map = f'{{"ses_id":"{opn_id}"' + (
        "}" if user_id is None else f',"ses_uid":"{user_id}"}}'
    )
    return _sql(
        INSERT_PAGE, None, opn_id, user_id, username, _text(when),
        when.date().isoformat(), 1, "", "", URL, "", "", "", cookies, session_map,
        "{}", "{}", 0.0, None, 0,
    )


def _written_session(opn_id, when, ended, user=(None, None, "guest", "not_applicable")):
    """A session row as a replay writes it: with its id, and closed by timeout."""
    return _sql(
        INSERT_SESSION, opn_id, *user, IP, *["unknown"] * 6, None, None, "direct",
        None, None, _text(when), _text(ended), "timeout",
    )


def _written_page(page_id, *args, **kwargs):
    """A page row as a replay writes it: with its id."""
    return _insert_page(None, *args, **kwargs).replace("VALUES (NULL, ", f"VALUES ({page_id}, ", 1)


def _event(token="tokA", seconds=0, **overrides) -> RawRequestEvent:
    base = dict(
        client_ip=IP,
        timestamp=T0 + timedelta(seconds=seconds),
        method="GET",
        url=URL,
        session_token=token,
    )
    base.update(overrides)
    return RawRequestEvent(**base)


class _Traced:
    """A collector over a fresh in-memory store with one account, and the
    statements run since the last :meth:`take`."""

    def __init__(self):
        self.store = LogStore(":memory:")
        self.store.upsert_user(UserInfo(7, "alice", "student", "female"))
        self.collector = Collector(self.store, site_hosts=["www.server.com"], timeout=600)
        self._seen: list[str] = []
        self.store._conn.set_trace_callback(self._seen.append)

    def take(self) -> list[str]:
        out = list(self._seen)
        self._seen.clear()
        return out


@pytest.fixture
def traced():
    t = _Traced()
    yield t
    t.store.close()


def _start(token, opn_id, page_id, when, cookies="{}"):
    return [
        _sql(OPEN, token),
        _insert_session(opn_id, when),
        _sql(INSERT_OPEN, token, opn_id, _text(when)),
        _insert_page(page_id, opn_id, when, cookies=cookies),
    ]


def _timeout_close(token, opn_id, last):
    return [
        _sql(STARTED, opn_id),
        _sql(CLOSE, _text(last), "timeout", opn_id),
        _sql(DELETE_OPEN, token),
    ]


class TestSingleRequest:
    """Each request in its own transaction, as a serving layer calls it."""

    def test_session_start_without_auth_user(self, traced):
        traced.collector.handle_request_begin(_event(cookies={"b": "2", "a": "1"}))
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            *_start("tokA", 1, 1, T0, cookies='{"a":"1","b":"2"}'),
            "COMMIT",
        ]

    def test_session_start_with_a_known_auth_user(self, traced):
        traced.collector.handle_request_begin(_event(auth_user="alice"))
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            _sql(OPEN, "tokA"),
            _sql(USER, "alice"),
            _insert_session(1, T0, user=(7, "alice", "student", "female")),
            _sql(INSERT_OPEN, "tokA", 1, _text(T0)),
            _insert_page(1, 1, T0, user_id=7, username="alice"),
            "COMMIT",
        ]

    def test_session_start_with_an_unknown_auth_user(self, traced):
        traced.collector.handle_request_begin(_event(auth_user="bob"))
        start = _start("tokA", 1, 1, T0)
        assert traced.take() == [
            "BEGIN IMMEDIATE", start[0], _sql(USER, "bob"), *start[1:], "COMMIT",
        ]

    def test_continuing_request(self, traced):
        traced.collector.handle_request_begin(_event(auth_user="alice"))
        traced.take()
        later = T0 + timedelta(seconds=600)  # a gap of exactly the timeout
        traced.collector.handle_request_begin(_event(seconds=600))
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            _sql(OPEN, "tokA"),
            _sql(TOUCH, _text(later), "tokA"),
            _insert_page(2, 1, later, user_id=7, username="alice"),
            "COMMIT",
        ]

    def test_timeout_close_then_a_new_start(self, traced):
        traced.collector.handle_request_begin(_event())
        traced.collector.handle_request_begin(_event(seconds=30))
        traced.take()
        later = T0 + timedelta(seconds=631)
        traced.collector.handle_request_begin(_event(seconds=631))
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            _sql(OPEN, "tokA"),
            *_timeout_close("tokA", 1, T0 + timedelta(seconds=30)),
            *_start("tokA", 2, 3, later)[1:],
            "COMMIT",
        ]

    def test_request_end(self, traced):
        _, page_id = traced.collector.handle_request_begin(_event())
        traced.take()
        traced.collector.handle_request_end(
            page_id, AppPageResult("Home", "hi", "sub", 1.5, "oops")
        )
        assert traced.take() == [_sql(RESULT, "Home", "hi", "sub", 1.5, "oops", page_id)]


class TestReplay:
    """A replay is one transaction.  It reads the next ids, the open
    sessions and the columns of the tables it writes once, when it opens,
    and then runs only the reads its buffer cannot answer (here the
    account).  Its rows are written when it commits, each session closed in
    its row, with one executemany per table; the trace callback sees each
    row as a statement.  Requests grouped in a plain transaction are
    savepoints in it."""

    def test_replay_statements(self, traced):
        events = [
            _event("tokA", 0),
            _event("tokB", 10, auth_user="alice"),
            _event("tokA", 20),
            _event("tokA", 700),  # idle 680 s > 600 s: a timeout close, then a start
        ]
        replay_stream(traced.collector, events)
        t = [T0 + timedelta(seconds=s) for s in (0, 10, 20, 700)]
        alice = (7, "alice", "student", "female")
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            "SELECT (SELECT MAX(IFNULL((SELECT seq FROM sqlite_sequence WHERE name = 'log_session'),"
            " 0), IFNULL(MAX(opn_id), 0)) + 1 FROM log_session),"
            " (SELECT MAX(IFNULL((SELECT seq FROM sqlite_sequence WHERE name = 'log_page'), 0),"
            " IFNULL(MAX(log_details_id), 0)) + 1 FROM log_page)",
            "PRAGMA table_info(log_session)",
            "PRAGMA table_info(open_sessions)",
            "PRAGMA table_info(log_page)",
            "SELECT o.session_token, o.opn_id, o.last_activity, s.started_at, s.user_id,"
            " s.username FROM open_sessions o JOIN log_session s ON s.opn_id = o.opn_id",
            _sql(USER, "alice"),
            # tokA's first session closed by the fourth request, the other
            # two by the final close: every session idle at the last time
            _written_session(1, t[0], ended=t[2]),
            _written_session(2, t[1], ended=t[1], user=alice),
            _written_session(3, t[3], ended=t[3]),
            _written_page(1, 1, t[0]),
            _written_page(2, 2, t[1], user_id=7, username="alice"),
            _written_page(3, 1, t[2]),
            _written_page(4, 3, t[3]),
            "COMMIT",
        ]

    def test_failed_request_rolls_back_its_savepoint(self, traced):
        bad = _event("tokB", 10)
        bad.get_params["x"] = 1  # the store rejects the page before it runs
        # The requests of a replay, without its final close.
        with traced.store.transaction():
            traced.collector.handle_request_begin(_event("tokA", 0))
            with pytest.raises(CollectionError):
                traced.collector.handle_request_begin(bad)
        assert traced.take() == [
            "BEGIN IMMEDIATE",
            "SAVEPOINT nested", *_start("tokA", 1, 1, T0), "RELEASE nested",
            "SAVEPOINT nested",
            *_start("tokB", 2, 2, T0 + timedelta(seconds=10))[:3],
            "ROLLBACK TO nested",
            "RELEASE nested",
            "COMMIT",
        ]
