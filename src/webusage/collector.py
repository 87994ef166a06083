"""Request-time collection API.

The serving layer calls :meth:`Collector.handle_request_begin` when a page
request arrives and :meth:`Collector.handle_request_end` when the response is
ready.  Sessions are keyed by the client token, so two devices behind one IP
are distinct sessions, a session crossing midnight stays open, and an idle
gap strictly greater than the timeout retires the old session before a new
one starts.  Session state lives only in the store, which serializes
writes, so collectors in any number of threads or processes may share one
store; a collector keeps nothing but its settings and a warning sample.
"""

from __future__ import annotations

import ipaddress
import urllib.parse
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import Iterable

from .enrichment import GeoIpTable, default_search_registry, first_language_tag, parse_user_agent
from .events import AppPageResult, RawRequestEvent
from .storage import (
    LiveSession,
    LogStore,
    OpenSession,
    PageRecord,
    SessionRecord,
    StorageError,
    serialize_map,
)

DEFAULT_TIMEOUT = 1800.0


class CollectionError(Exception):
    """A request could not be recorded.  Serving must not be blocked: the
    caller decides whether to drop or retry the event carried here."""

    def __init__(self, message: str, event: RawRequestEvent | None = None):
        super().__init__(message)
        self.event = event


@dataclass(frozen=True)
class Referral:
    kind: str  # direct | internal | search_engine | external
    name: str | None = None
    flagged: bool = False


def classify_referrer(referrer: str | None, site_hosts: Iterable[str]) -> Referral:
    """Classify where a session arrived from.

    No referrer is direct; a referrer on one of ``site_hosts`` is internal;
    a host matching the search registry names the engine; anything else is
    external, flagged when the URL does not yield a host at all.
    """
    hosts = {h.lower() for h in site_hosts}
    if not hosts:
        raise ValueError("site_hosts must be non-empty")
    if not referrer:
        return Referral("direct")
    try:
        host = urllib.parse.urlsplit(referrer).hostname
    except ValueError:
        host = None
    if not host:
        return Referral("external", referrer, flagged=True)
    if host.lower() in hosts:
        return Referral("internal")
    engine = default_search_registry().match_host(host)
    if engine is not None:
        return Referral("search_engine", engine.name)
    return Referral("external", host.lower())


def _is_malformed_url(url: str) -> bool:
    """True unless the page URL is absolute http(s) with a host."""
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
        if timeout <= 0:
            raise ValueError("timeout must be positive")
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
                if open_session is not None:
                    gap = (event.timestamp - open_session.last_activity).total_seconds()
                    if gap > self.timeout:
                        self._close(open_session, "timeout")
                        open_session = None
                if open_session is None:
                    open_session = self._start_session(event)
                else:
                    self.store.touch_open_session(event.session_token, event.timestamp)
                page_id = self._record_page(event, open_session)
                return open_session.opn_id, page_id
        except StorageError as exc:
            raise CollectionError(str(exc), event) from exc

    def handle_request_end(self, page_log_id: int, result: AppPageResult) -> None:
        """Attach end-of-request application data to a page row, in place."""
        self.store.update_page_result(page_log_id, result)

    def end_session(self, session_token: str) -> bool:
        """Close the open session for a token as a logout; False when none
        is open."""
        with self.store.transaction():
            open_session = self.store.get_open_session(session_token)
            if open_session is None:
                return False
            self._close(open_session, "logout")
            return True

    def sweep_expired(self, now: datetime) -> int:
        """Retire every open session idle strictly longer than the timeout."""
        ended = 0
        cutoff = now - timedelta(seconds=self.timeout)
        with self.store.transaction():
            # The store compares whole seconds, so it returns every expired
            # session and perhaps some at the boundary; the gap test decides.
            for open_session in self.store.open_sessions_idle_since(cutoff):
                if (now - open_session.last_activity).total_seconds() > self.timeout:
                    self._close(open_session, "timeout")
                    ended += 1
        return ended

    # -- internals -----------------------------------------------------------

    def _warn(self, message: str) -> None:
        # Unbounded replays can raise the same warning per event; keep a
        # bounded sample plus the total.
        self.warning_count += 1
        if len(self.warnings) < 1000:
            self.warnings.append(message)

    def _close(self, open_session: OpenSession, reason: str) -> None:
        ended_at = max(open_session.last_activity, open_session.started_at)
        self.store.close_session(open_session.opn_id, ended_at, reason)
        self.store.delete_open_session(open_session.session_token)

    def _start_session(self, event: RawRequestEvent) -> LiveSession:
        profile = parse_user_agent(event.user_agent)
        language = first_language_tag(event.cookies.get("accept-language"))
        if language is not None:
            profile = replace(profile, language=language)
        referral = classify_referrer(event.referrer, self.site_hosts)
        engine = None
        keywords = None
        if referral.kind == "search_engine":
            engine = referral.name
            extracted = default_search_registry().extract(event.referrer or "")
            if extracted is not None:
                keywords = extracted[1]

        user_id = None
        username = None
        user_type = "guest"
        gender = "not_applicable"
        if event.auth_user is not None:
            account = self.store.get_user_by_name(event.auth_user)
            if account is None:
                self._warn(
                    f"unknown auth_user {event.auth_user!r}; session recorded as guest"
                )
            else:
                user_id = account.user_id
                username = account.username
                user_type = account.user_type
                gender = account.gender

        record = SessionRecord(
            ip=event.client_ip,
            started_at=event.timestamp,
            user_id=user_id,
            username=username,
            user_type=user_type,
            gender=gender,
            country_code=self._country(event.client_ip),
            browser_name=profile.browser_name,
            browser_version=profile.browser_version,
            os_name=profile.os_name,
            os_version=profile.os_version,
            device_type=profile.device_type,
            language=profile.language,
            referrer_url=event.referrer,
            referral_class=referral.kind,
            search_engine=engine,
            search_keywords=keywords,
        )
        open_session = LiveSession(
            session_token=event.session_token,
            opn_id=self.store.insert_session(record),
            user_id=user_id,
            started_at=event.timestamp,
            last_activity=event.timestamp,
            username=username,
        )
        self.store.put_open_session(open_session)
        return open_session

    def _country(self, ip: str) -> str:
        try:
            return self.geoip.lookup(ip)
        except (ValueError, ipaddress.AddressValueError):
            return "unknown"

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
            log_cookie_serialize=serialize_map(event.cookies),
            log_session_serialize=serialize_map(session_map),
            log_post_serialize=serialize_map(event.post_params),
            log_get_serialize=serialize_map(event.get_params),
            log_url_malformed=_is_malformed_url(event.url),
        )
        return self.store.insert_page(page)


def replay_stream(
    collector: Collector,
    events: Iterable[RawRequestEvent],
    final_sweep: bool = True,
    on_error=None,
) -> tuple[int, int]:
    """Feed events through a collector in one batch transaction.

    Returns (pages recorded, collection errors).  Errors never abort the
    replay; they are counted and optionally passed to ``on_error``.
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
        if final_sweep and last_time is not None:
            horizon = last_time + timedelta(seconds=collector.timeout + 1)
            collector.sweep_expired(horizon)
    return pages, errors
