"""Hypothesis strategies shared by the writer tests.

Events whose text is dense in what the replay and access-log writers escape
and what they keep: '%', '+', '&', '=', '/', '"', '\\', space, newline and
non-ASCII among plain ASCII, and empty values often.
"""

from __future__ import annotations

from datetime import datetime

from hypothesis import strategies as st

from webusage.events import RawRequestEvent

_WIRE_CHARS = (st.sampled_from('%+&=/ \n"\\~-_.:;,\'*!()@?aZ9\x00\x7féş日')
               | st.characters(codec="utf-8"))
WIRE_TEXT = st.just("") | st.text(alphabet=_WIRE_CHARS, max_size=20)
_WIRE_MAP = st.dictionaries(WIRE_TEXT, WIRE_TEXT, max_size=4)
_SECONDS = st.datetimes(
    min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)
).map(lambda d: d.replace(microsecond=0))

wire_events = st.builds(
    RawRequestEvent,
    client_ip=WIRE_TEXT,
    timestamp=_SECONDS,
    method=st.sampled_from(["GET", "POST"]),
    url=WIRE_TEXT,
    session_token=st.text(alphabet=_WIRE_CHARS, min_size=1, max_size=20),
    user_agent=WIRE_TEXT,
    referrer=st.none() | WIRE_TEXT,
    auth_user=st.none() | WIRE_TEXT,
    app_service=WIRE_TEXT,
    module=WIRE_TEXT,
    server_id=st.integers(min_value=-9999, max_value=9999),
    get_params=_WIRE_MAP,
    post_params=_WIRE_MAP,
    cookies=_WIRE_MAP,
)
