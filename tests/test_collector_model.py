"""The collector against a reference model.

Two collectors share one store.  Hypothesis drives them with requests
(guest, signed-in, unknown user, and failing ones), page results, logouts
and sweeps on a clock that jumps by arbitrary amounts, and after every step
the store must hold what the model predicts.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from webusage.collector import CollectionError, Collector
from webusage.events import AppPageResult, RawRequestEvent
from webusage.storage import LogStore, UserInfo

T0 = datetime(2021, 9, 2, 23, 58, 0)
TIMEOUT = 60.0
ACCOUNTS = {"alice": 1, "bob": 2}  # "ghost" signs in without an account

COLLECTOR = st.sampled_from([0, 1])
TOKEN = st.sampled_from(["t1", "t2", "t3"])
USER = st.sampled_from([None, "alice", "bob", "ghost"])


class SessionModel:
    """Open sessions as token -> (opn_id, last activity, user_id, username);
    closed ones as opn_id -> (end_reason, ended_at)."""

    def __init__(self):
        self.open = {}
        self.closed = {}
        self.next_id = 1

    def idle(self, token, now):
        return (now - self.open[token][1]).total_seconds() > TIMEOUT

    def close(self, token, reason):
        opn_id, last, _, _ = self.open.pop(token)
        self.closed[opn_id] = (reason, last)

    def begin(self, token, now, user):
        """The opn_id the request lands in."""
        if token in self.open and self.idle(token, now):
            self.close(token, "timeout")
        if token in self.open:
            opn_id, _, user_id, username = self.open[token]
        else:
            opn_id, self.next_id = self.next_id, self.next_id + 1
            username = user if user in ACCOUNTS else None
            user_id = ACCOUNTS.get(username)
        # The store keeps whole seconds.
        self.open[token] = (opn_id, now.replace(microsecond=0), user_id, username)
        return opn_id

    def sweep(self, now):
        expired = [token for token in self.open if self.idle(token, now)]
        for token in expired:
            self.close(token, "timeout")
        return len(expired)


class CollectorMachine(RuleBasedStateMachine):
    pages = Bundle("pages")

    def __init__(self):
        super().__init__()
        self.store = LogStore(":memory:")
        for name, user_id in ACCOUNTS.items():
            self.store.upsert_user(UserInfo(user_id, name, "student", "female"))
        self.collectors = [Collector(self.store, ["www.server.com"], timeout=TIMEOUT)
                           for _ in range(2)]
        self.model = SessionModel()
        self.now = T0

    def teardown(self):
        self.store.close()

    def _event(self, token, user, **overrides):
        return RawRequestEvent("10.0.0.1", self.now, "GET", "/p.php", token,
                               auth_user=user, **overrides)

    @rule(seconds=st.one_of(st.just(TIMEOUT), st.floats(0, 3 * TIMEOUT)))
    def advance(self, seconds):
        self.now += timedelta(seconds=seconds)

    @rule(target=pages, c=COLLECTOR, token=TOKEN, user=USER)
    def begin(self, c, token, user):
        opn_id, page_id = self.collectors[c].handle_request_begin(self._event(token, user))
        assert opn_id == self.model.begin(token, self.now, user)
        return page_id

    @rule(c=COLLECTOR, token=TOKEN, user=USER)
    def failing_begin(self, c, token, user):
        with pytest.raises(CollectionError):
            self.collectors[c].handle_request_begin(
                self._event(token, user, get_params={"q": 1}))

    @rule(c=COLLECTOR, page_id=pages, title=st.text(max_size=5))
    def end(self, c, page_id, title):
        self.collectors[c].handle_request_end(page_id, AppPageResult(page_title=title))
        assert self.store.get_page(page_id).log_page_title == title

    @rule(c=COLLECTOR, token=TOKEN)
    def logout(self, c, token):
        expected = token in self.model.open
        if expected:
            self.model.close(token, "logout")
        assert self.collectors[c].end_session(token) is expected

    @rule(c=COLLECTOR)
    def sweep(self, c):
        assert self.collectors[c].sweep_expired(self.now) == self.model.sweep(self.now)

    @invariant()
    def store_matches_model(self):
        open_rows = {o.session_token: (o.opn_id, o.last_activity)
                     for o in self.store.iter_open_sessions()}
        assert open_rows == {t: (s[0], s[1]) for t, s in self.model.open.items()}
        sessions, last_page = {}, {}
        for session, page in self.store.join_sessions_pages():
            assert (page.log_uid, page.log_username) == (session.user_id, session.username)
            sessions[session.opn_id] = session
            last_page[session.opn_id] = max(last_page.get(session.opn_id, page.log_datetime),
                                            page.log_datetime)
        # every session row has its first page
        assert len(sessions) == self.store.session_count() == self.model.next_id - 1
        for opn_id, _, user_id, username in self.model.open.values():
            assert (sessions[opn_id].user_id, sessions[opn_id].username) == (user_id, username)
        closed = {o: (s.end_reason, s.ended_at) for o, s in sessions.items() if s.end_reason}
        assert closed == self.model.closed
        for opn_id, (_, ended_at) in closed.items():
            assert ended_at == last_page[opn_id]


CollectorMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCollectorModel = CollectorMachine.TestCase
