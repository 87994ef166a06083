"""Request-time collection API.

The serving layer calls :meth:`Collector.handle_request_begin` when a page
request arrives and :meth:`Collector.handle_request_end` when the response is
ready.  Sessions are keyed by the client token, so two devices behind one IP
are distinct sessions, a session crossing midnight stays open, and an idle
gap strictly greater than the timeout retires the old session before a new
one starts; a gap is taken between times cut to the whole second, as the
store keeps them.  Session state lives only in the store, which serializes
writes, so collectors in any number of threads or processes may share one
store; a collector keeps nothing but its settings and a warning sample.
A token's open session holds only its ``opn_id`` and last activity; the
session's user and start are kept in its ``log_session`` row alone.  Every
close, by timeout, logout or at the end of a replay, ends the session at
its last activity.
"""

from __future__ import annotations

import sqlite3
import urllib.parse
from datetime import datetime, timedelta
from functools import lru_cache
from typing import Container, Iterable

from .enrichment import (
    UNKNOWN, GeoIpTable, default_search_registry, first_language_tag, parse_user_agent,
)
from .events import AppPageResult, RawRequestEvent, naive_utc
from .storage import (
    LiveSession,
    LogStore,
    NotFoundError,
    OpenSession,
    PageRecord,
    SessionRecord,
    StorageError,
)

DEFAULT_TIMEOUT = 1800.0

# What a request-API call turns into CollectionError.  SQLite stores text as
# UTF-8, which cannot hold a lone surrogate; a store another connection holds
# locked is an OperationalError.
_STORE_FAILURES = (StorageError, UnicodeEncodeError, sqlite3.OperationalError)


class CollectionError(Exception):
    """A request-API call could not be recorded: the store refused it, could
    not encode its text, or was locked.  Serving must not be blocked: the
    caller decides whether to drop or retry.  ``event`` is the request for
    ``handle_request_begin`` and None for the other calls."""

    def __init__(self, message: str, event: RawRequestEvent | None = None):
        super().__init__(message)
        self.event = event


def classify_referrer(referrer: str | None, site_hosts: Container[str]) -> str:
    """Classify where a session arrived from: ``direct``, ``internal``,
    ``search_engine`` or ``external``.

    No referrer is direct; a referrer on one of the lowercase ``site_hosts``
    is internal; a host the search registry knows is a search engine;
    anything else, a referrer without a host included, is external.
    """
    if not referrer:
        return "direct"
    try:
        host = urllib.parse.urlsplit(referrer).hostname
    except ValueError:
        return "external"
    if not host:
        return "external"
    if host.lower() in site_hosts:
        return "internal"
    if default_search_registry().match_host(host) is not None:
        return "search_engine"
    return "external"


@lru_cache(maxsize=1024)
def _is_malformed_url(url: str) -> bool:
    """True unless the page URL is absolute http(s) with a host.  Cached: a
    pure function of the URL, and a site's page URLs repeat."""
    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError:
        return True
    return parts.scheme not in ("http", "https") or not parts.netloc


class Collector:
    def __init__(
        self,
        store: LogStore,
        site_hosts: Iterable[str],
        geoip: GeoIpTable | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        # At most a year; NaN fails too.  A time minus the timeout (a sweep's
        # cutoff) can still fall before the calendar, and the sweep allows
        # for that.
        if not 0 < timeout <= 31_536_000.0:
            raise ValueError(f"timeout must be in (0, 31536000] seconds, got {timeout}")
        self.store = store
        self.site_hosts = tuple(h.lower() for h in site_hosts)
        if not self.site_hosts:
            raise ValueError("site_hosts must be non-empty")
        self.geoip = geoip if geoip is not None else GeoIpTable([])
        self.timeout = timeout
        self.warnings: list[str] = []
        self.warning_count = 0

    # -- lifecycle -----------------------------------------------------------

    def handle_request_begin(self, event: RawRequestEvent) -> tuple[int, int]:
        """Record one arriving request; returns (opn_id, page_log_id).

        Resolves the open session for the event token, retiring it first if
        its idle gap at ``event.timestamp`` exceeds the timeout, then writes
        the page row in the same transaction so a session row never lacks
        its first page.
        """
        try:
            with self.store.transaction():
                open_session = self.store.get_open_session(event.session_token)
                if open_session is not None and self._expired(open_session, event.timestamp):
                    self._close(open_session, "timeout")
                    open_session = None
                if open_session is None:
                    open_session = self._start_session(event)
                else:
                    self.store.touch_open_session(event.session_token, event.timestamp)
                page_id = self._record_page(event, open_session)
                return open_session.opn_id, page_id
        except _STORE_FAILURES as exc:
            raise CollectionError(str(exc), event) from exc

    def handle_request_end(self, page_log_id: int, result: AppPageResult) -> None:
        """Attach end-of-request application data to a page row, in place.
        An unknown ``page_log_id`` raises NotFoundError."""
        try:
            self.store.update_page_result(page_log_id, result)
        except NotFoundError:
            raise
        except _STORE_FAILURES as exc:
            raise CollectionError(str(exc)) from exc

    def end_session(self, session_token: str) -> bool:
        """Close the open session for a token as a logout; False when none
        is open."""
        try:
            with self.store.transaction():
                open_session = self.store.get_open_session(session_token)
                if open_session is None:
                    return False
                self._close(open_session, "logout")
                return True
        except _STORE_FAILURES as exc:
            raise CollectionError(str(exc)) from exc

    def sweep_expired(self, now: datetime) -> int:
        """Retire every open session idle strictly longer than the timeout at ``now``."""
        now = naive_utc(now)
        try:
            cutoff = now - timedelta(seconds=self.timeout)
        except OverflowError:
            return 0  # before datetime.min plus the timeout nothing is idle that long
        try:
            with self.store.transaction():
                # The store compares whole seconds, so it returns every expired
                # session and perhaps some at the boundary; the gap test decides.
                expired = [s for s in self.store.open_sessions_idle_since(cutoff)
                           if self._expired(s, now)]
                for open_session in expired:
                    self._close(open_session, "timeout")
        except _STORE_FAILURES as exc:
            raise CollectionError(str(exc)) from exc
        return len(expired)

    # -- internals -----------------------------------------------------------

    def _warn(self, message: str) -> None:
        # Unbounded replays can raise the same warning per event; keep a
        # bounded sample plus the total.
        self.warning_count += 1
        if len(self.warnings) < 1000:
            self.warnings.append(message)

    def _expired(self, open_session: OpenSession, now: datetime) -> bool:
        """Whether the idle gap at ``now``, in whole seconds as stored, exceeds the timeout."""
        gap = now.replace(microsecond=0) - open_session.last_activity
        return gap.total_seconds() > self.timeout

    def _close(self, open_session: OpenSession, reason: str) -> None:
        self.store.close_session(open_session.opn_id, open_session.last_activity, reason)
        self.store.delete_open_session(open_session.session_token)

    def _start_session(self, event: RawRequestEvent) -> LiveSession:
        profile = parse_user_agent(event.user_agent)
        referral_class = classify_referrer(event.referrer, self.site_hosts)
        engine = keywords = None
        if referral_class == "search_engine":
            # classify_referrer found an engine, so extract finds the same one.
            engine, keywords = default_search_registry().extract(event.referrer)

        account = None
        if event.auth_user is not None:
            account = self.store.get_user_by_name(event.auth_user)
            if account is None:
                self._warn(
                    f"unknown auth_user {event.auth_user!r}; session recorded as guest"
                )

        # A guest keeps the record's user defaults.
        record = SessionRecord(
            ip=event.client_ip,
            started_at=event.timestamp,
            **(vars(account) if account is not None else {}),
            country_code=self._country(event.client_ip),
            **vars(profile),
            language=first_language_tag(event.cookies.get("accept-language")),
            referrer_url=event.referrer,
            referral_class=referral_class,
            search_engine=engine,
            search_keywords=keywords,
        )
        open_session = LiveSession(
            session_token=event.session_token,
            opn_id=self.store.insert_session(record),
            last_activity=event.timestamp,
            user_id=record.user_id,
            username=record.username,
        )
        self.store.put_open_session(open_session)
        return open_session

    def _country(self, ip: str) -> str:
        try:
            return self.geoip.lookup(ip)
        except ValueError:
            return UNKNOWN

    def _record_page(self, event: RawRequestEvent, open_session: LiveSession) -> int:
        session_map = {"ses_id": str(open_session.opn_id)}
        if open_session.user_id is not None:
            session_map["ses_uid"] = str(open_session.user_id)
        page = PageRecord(
            log_opn_id=open_session.opn_id,
            log_uid=open_session.user_id,
            log_username=open_session.username,
            log_datetime=event.timestamp,
            log_server=event.server_id,
            log_app_service=event.app_service,
            log_module=event.module,
            log_url=event.url,
            log_cookie_serialize=event.cookies,
            log_session_serialize=session_map,
            log_post_serialize=event.post_params,
            log_get_serialize=event.get_params,
            log_url_malformed=_is_malformed_url(event.url),
        )
        return self.store.insert_page(page)


def replay_stream(
    collector: Collector,
    events: Iterable[RawRequestEvent],
    on_error=None,
) -> tuple[int, int]:
    """Feed events through a collector in one batch transaction.

    Returns (pages recorded, collection errors).  Errors never abort the
    replay; they are counted and optionally passed to ``on_error``.  The
    replay ends by closing, as ``timeout`` at its last activity, every open
    session last active at or before the last event's time, so a replay in
    time order leaves no session open.
    """
    pages = 0
    errors = 0
    last_time: datetime | None = None
    with collector.store.transaction():
        for event in events:
            last_time = event.timestamp
            try:
                collector.handle_request_begin(event)
                pages += 1
            except CollectionError as exc:
                errors += 1
                if on_error is not None:
                    on_error(exc)
        if last_time is not None:
            for open_session in collector.store.open_sessions_idle_since(last_time):
                collector._close(open_session, "timeout")
    return pages, errors
