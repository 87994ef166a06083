"""The collector against a reference model.

Two collectors share one store.  Hypothesis drives them with requests
(guest, signed-in, unknown user, and failing ones), page results, logouts
and sweeps on a clock that jumps by arbitrary amounts, fractions of a
second included, and after every step the store must hold what the model
predicts.  A second machine adds whole replays to those steps, each one
batch, with failed events, reads between events and an error part-way.
"""

import copy
from datetime import datetime, timedelta
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from webusage import storage
from webusage.collector import CollectionError, Collector, replay_stream
from webusage.events import AppPageResult, RawRequestEvent
from webusage.storage import LogStore, UserInfo

import oracles

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
        # The store keeps whole seconds, and a gap is taken between them.
        return (now.replace(microsecond=0) - self.open[token][1]).total_seconds() > TIMEOUT

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

    @rule(seconds=st.one_of(st.just(TIMEOUT), st.floats(0, 3 * TIMEOUT)),
          microseconds=st.sampled_from([0, 1, 500_000, 999_999]))
    def advance(self, seconds, microseconds):
        self.now += timedelta(seconds=seconds, microseconds=microseconds)

    @rule(target=pages, c=COLLECTOR, token=TOKEN, user=USER)
    def begin(self, c, token, user):
        opn_id, page_id = self.collectors[c].handle_request_begin(self._event(token, user))
        assert opn_id == self.model.begin(token, self.now, user)
        return page_id

    @rule(c=COLLECTOR, token=TOKEN, user=USER)
    def failing_begin(self, c, token, user):
        event = self._event(token, user)
        event.get_params["q"] = 1  # set after the event's own checks: the page insert fails
        with pytest.raises(CollectionError):
            self.collectors[c].handle_request_begin(event)

    @rule(c=COLLECTOR, page_id=pages, title=st.text(max_size=5))
    def end(self, c, page_id, title):
        self.collectors[c].handle_request_end(page_id, AppPageResult(page_title=title))
        assert oracles.get_page(self.store, page_id).log_page_title == title

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
                     for o in oracles.iter_open_sessions(self.store)}
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


class _Abort(Exception):
    """Raised by a replay's events part-way, through the batch's outer scope."""


# One step of a replay batch.  The failing events fail at the store: a page
# insert after the session row (a GET value that is not text, as in
# ``failing_begin``), a lone surrogate, which UTF-8 cannot encode, or a
# server id outside SQLite's 64-bit range.  A read step checks a store read
# made between two events against the model.
BATCH_STEP = st.one_of(
    st.tuples(st.just("advance"), st.floats(0, 3 * TIMEOUT), st.sampled_from([0, 500_000])),
    st.tuples(st.just("good"), TOKEN, USER),
    st.tuples(st.just("good"), TOKEN, USER),
    st.tuples(st.just("bad_page"), TOKEN, USER),
    st.tuples(st.just("surrogate"), TOKEN, st.sampled_from(["token", "url", "map"])),
    st.tuples(st.just("big_server"), TOKEN, st.sampled_from([2**63, -2**63 - 1])),
    st.tuples(st.just("read_open"), TOKEN),
    st.tuples(st.just("read_counts")),
)


class BatchMachine(CollectorMachine):
    """The request API's steps, each its own transaction, and between them
    whole replays: ``replay_stream`` over drawn events, so every event runs
    inside the batch scope that ``replay_stream`` opens.  A batch ends with
    the replay's final close and its commit, or with an error raised from
    its events through the outer scope, which must leave the store as the
    model was before the batch.  The batch writes in chunks of 3 rows, so
    chunks reach SQLite part-way."""

    def __init__(self):
        super().__init__()
        self._chunk = mock.patch.object(storage, "_BATCH_ROWS", 3)
        self._chunk.start()

    def teardown(self):
        self._chunk.stop()
        super().teardown()

    def _batch_event(self, step):
        """The event of a step, and whether the store refuses it."""
        kind, token, arg = step
        if kind == "good" or kind == "bad_page":
            event = self._event(token, arg)
            if kind == "bad_page":
                event.get_params["q"] = 1  # after the event's own checks
            return event, kind == "bad_page"
        if kind == "surrogate":
            if arg == "token":
                return self._event(token + "\ud800", None), True
            if arg == "url":
                return RawRequestEvent("10.0.0.1", self.now, "GET", "/p\udfff.php", token), True
            return self._event(token, None, cookies={"a": "\ud800"}), True
        return self._event(token, None, server_id=arg), True

    def _check_read(self, step):
        if step[0] == "read_counts":
            assert self.store.session_count() == self.model.next_id - 1
            assert self.store.page_count() == self.page_total
            return
        token = step[1]
        got = self.store.get_open_session(token)
        if token not in self.model.open:
            assert got is None
        else:
            opn_id, last, user_id, username = self.model.open[token]
            assert (got.session_token, got.opn_id, got.last_activity, got.user_id,
                    got.username) == (token, opn_id, last, user_id, username)

    @rule(c=COLLECTOR, steps=st.lists(BATCH_STEP, max_size=12), aborts=st.booleans())
    def replay(self, c, steps, aborts):
        before = copy.deepcopy(self.model)
        self.page_total = self.store.page_count()
        errors = []
        last = None

        def events():
            nonlocal last
            for step in steps:
                if step[0] == "advance":
                    self.now += timedelta(seconds=step[1], microseconds=step[2])
                elif step[0].startswith("read"):
                    self._check_read(step)
                else:
                    event, fails = self._batch_event(step)
                    seen = len(errors)
                    last = self.now
                    yield event
                    if fails:
                        assert [e.event for e in errors[seen:]] == [event]
                    else:
                        assert len(errors) == seen
                        self.model.begin(event.session_token, self.now, event.auth_user)
                        self.page_total += 1
            if aborts:
                raise _Abort

        if aborts:
            with pytest.raises(_Abort):
                replay_stream(self.collectors[c], events(), on_error=errors.append)
            self.model = before
            return
        replay_stream(self.collectors[c], events(), on_error=errors.append)
        if last is not None:
            # The final close: every session last active at or before the
            # last event's time, in whole seconds as stored.
            for token in [t for t, s in self.model.open.items()
                          if s[1] <= last.replace(microsecond=0)]:
                self.model.close(token, "timeout")


BatchMachine.TestCase.settings = settings(
    max_examples=80,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestBatchModel = BatchMachine.TestCase
