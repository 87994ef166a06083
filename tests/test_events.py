import dataclasses
import io
import itertools
import re
import urllib.parse
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webusage.events import (
    _FIELDS as _REPLAY_FIELDS,
    _REQUIRED as _REPLAY_REQUIRED,
    AppPageResult,
    RawRequestEvent,
    ReplayFormatError,
    _decode_map,
    format_replay_line,
    parse_replay_line,
    read_replay,
    write_replay,
)

from oracles import (
    check_event_fields_reference,
    format_replay_line_reference,
    parse_replay_line_reference,
)
from strategies import wire_events

_text = st.text(max_size=25)
_short = st.text(min_size=1, max_size=25)
_map = st.dictionaries(_text, _text, max_size=4)
_dt = st.datetimes(
    min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)
).map(lambda d: d.replace(microsecond=0))

events_st = st.builds(
    RawRequestEvent,
    client_ip=_text,
    timestamp=_dt,
    method=st.sampled_from(["GET", "POST"]),
    url=_text,
    session_token=_short,
    user_agent=_text,
    referrer=st.none() | _short,
    auth_user=st.none() | _short,
    app_service=_text,
    module=_text,
    server_id=st.integers(min_value=0, max_value=9999),
    get_params=_map,
    post_params=_map,
    cookies=_map,
)


def _event(**overrides) -> RawRequestEvent:
    base = dict(
        client_ip="10.0.0.1",
        timestamp=datetime(2021, 9, 2, 12, 0, 0),
        method="GET",
        url="/index.php",
        session_token="tok1",
    )
    base.update(overrides)
    return RawRequestEvent(**base)


class TestEventModel:
    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            _event(method="PUT")

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="session_token"):
            _event(session_token="")

    def test_empty_referrer_becomes_none(self):
        assert _event(referrer="").referrer is None

    def test_empty_auth_user_becomes_none(self):
        assert _event(auth_user="").auth_user is None

    def test_offset_timestamp_becomes_naive_utc(self):
        event = _event(timestamp=datetime.fromisoformat("2021-09-02T15:00:00+03:00"))
        assert event.timestamp == datetime(2021, 9, 2, 12, 0, 0)
        assert event.timestamp.tzinfo is None
        assert _event().timestamp == datetime(2021, 9, 2, 12, 0, 0)

    @pytest.mark.parametrize("text", ["0001-01-01T00:30:00+03:00", "9999-12-31T23:30:00-03:00"])
    def test_offset_timestamp_outside_the_calendar_in_utc(self, text):
        message = f"timestamp {text} is outside years 1-9999 in UTC"
        with pytest.raises(ValueError) as info:
            _event(timestamp=datetime.fromisoformat(text))
        assert str(info.value) == message
        line = format_replay_line(_event()).replace("2021-09-02T12:00:00", text)
        with pytest.raises(ReplayFormatError) as info:
            parse_replay_line(line, 4)
        assert str(info.value) == f"line 4: {message}"

    @pytest.mark.parametrize("when", ["2021-09-02T12:00:00", None, 1630584000])
    def test_timestamp_must_be_datetime(self, when):
        with pytest.raises(ValueError, match="timestamp must be a datetime"):
            _event(timestamp=when)

    @pytest.mark.parametrize("name", ["get_params", "post_params", "cookies"])
    @pytest.mark.parametrize("value", [None, "sid=tok1", [("sid", "tok1")]])
    def test_map_must_be_dict(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a dict"):
            _event(**{name: value})

    @pytest.mark.parametrize("name", ["get_params", "post_params", "cookies"])
    @pytest.mark.parametrize("value", [{"n": 3}, {3: "n"}, {"n": None}, {b"n": "1"}])
    def test_map_entries_must_be_str(self, name, value):
        with pytest.raises(ValueError, match=f"{name} keys and values must be str"):
            _event(**{name: value})

    @pytest.mark.parametrize("value", ["x", "1", True, 1.0, None])
    def test_server_id_must_be_int(self, value):
        with pytest.raises(ValueError, match="server_id must be an int"):
            _event(server_id=value)

    @pytest.mark.parametrize(
        "name", ["client_ip", "url", "session_token", "user_agent", "app_service", "module"]
    )
    @pytest.mark.parametrize("value", [None, b"x", 1])
    def test_text_field_must_be_str(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a str,"):
            _event(**{name: value})

    @pytest.mark.parametrize("name", ["referrer", "auth_user"])
    @pytest.mark.parametrize("value", [b"x", 1, ["x"]])
    def test_optional_text_field_must_be_str_or_none(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a str or None"):
            _event(**{name: value})

    def test_negative_load_time_rejected(self):
        with pytest.raises(ValueError, match="page_load_time"):
            AppPageResult(page_load_time=-0.1)

    def test_load_time_zero_ok(self):
        assert AppPageResult().page_load_time == 0.0

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), True, "0.1", None, 10 ** 400,
    ], ids=["nan", "inf", "-inf", "bool", "text", "none", "beyond-float"])
    def test_load_time_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="page_load_time must be a finite number >= 0"):
            AppPageResult(page_load_time=value)

    def test_int_load_time_is_kept_as_a_float(self):
        result = AppPageResult(page_load_time=2 ** 64)
        assert type(result.page_load_time) is float
        assert result.page_load_time == float(2 ** 64)

    @pytest.mark.parametrize("name", ["page_title", "web_message", "subtitle"])
    @pytest.mark.parametrize("value", [5, b"x", None])
    def test_result_text_must_be_str(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a str,"):
            AppPageResult(**{name: value})

    @pytest.mark.parametrize("value", [3, b"x"])
    def test_error_text_must_be_str_or_none(self, value):
        with pytest.raises(ValueError, match="error_text must be a str or None"):
            AppPageResult(error_text=value)
        assert AppPageResult(error_text=None).error_text is None


class TestFrozenResult:
    """What ``AppPageResult`` checked when it was built is what the store
    writes: no field can be set afterwards."""

    @pytest.mark.parametrize("name, value", [
        ("page_title", b"x"), ("web_message", "hi"), ("subtitle", 5),
        ("page_load_time", float("nan")), ("error_text", "oops"),
    ])
    def test_assignment_raises(self, name, value):
        result = AppPageResult(page_title="Info", page_load_time=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, value)
        assert result == AppPageResult("Info", "", "", 3.0, None)
        assert type(result.page_load_time) is float


class _Stamp(datetime):
    """A datetime subclass, which an event takes as its timestamp."""


_FIELDS = dict(
    client_ip="10.0.0.1",
    timestamp=datetime(2021, 9, 2, 12, 0, 0),
    method="GET",
    url="/index.php",
    session_token="tok1",
    user_agent="agent",
    referrer="http://www.campus.example/",
    auth_user="u0001",
    app_service="campus",
    module="index",
    server_id=1,
    get_params={"id": "101"},
    post_params={},
    cookies={"sid": "tok1"},
)
_MAP_WRONG = [None, "sid=tok1", [("sid", "tok1")], {3: "n"}, {"n": None},
               {"a": "b", b"n": "1"}]
# Values each field's own check refuses.
_WRONG = {
    "timestamp": ["2021-09-02T12:00:00", None, 1630584000],
    "server_id": [True, "1", 1.0, None],
    **{name: [None, b"x", 1] for name in
       ("client_ip", "url", "user_agent", "app_service", "module")},
    "session_token": [None, b"x", 1, ""],
    "referrer": [b"x", 1, ["x"]],
    "auth_user": [b"x", 1, ["x"]],
    "get_params": _MAP_WRONG,
    "post_params": _MAP_WRONG,
    "cookies": _MAP_WRONG,
    "method": ["PUT", None],
}
_ONE_WRONG = [(name, value) for name, values in _WRONG.items() for value in values]


def _reference_message(fields: dict) -> str:
    with pytest.raises(ValueError) as info:
        check_event_fields_reference(fields)
    return str(info.value)


def _message(fields: dict) -> str:
    with pytest.raises(ValueError) as info:
        RawRequestEvent(**fields)
    return str(info.value)


class TestOnePassCheck:
    """The written-out type checks, one pass over the fields, refuse exactly
    what the reference's field-by-field loops refuse, and name the same
    field: the first bad one in their order."""

    def test_fields_cover_the_event(self):
        assert set(_FIELDS) == {f.name for f in dataclasses.fields(RawRequestEvent)}
        assert set(_WRONG) == set(_FIELDS)
        check_event_fields_reference(_FIELDS)
        RawRequestEvent(**_FIELDS)

    @pytest.mark.parametrize("name, value", _ONE_WRONG,
                             ids=[f"{name}={value!r}" for name, value in _ONE_WRONG])
    def test_one_wrong_field(self, name, value):
        fields = {**_FIELDS, name: value}
        assert _message(fields) == _reference_message(fields)

    def test_two_wrong_fields(self):
        pairs = 0
        for (name1, value1), (name2, value2) in itertools.combinations(_ONE_WRONG, 2):
            if name1 == name2:
                continue
            fields = {**_FIELDS, name1: value1, name2: value2}
            assert _message(fields) == _reference_message(fields), (name1, name2)
            pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("stamp, naive", [
        (_Stamp(2021, 9, 2, 12, 0, 0), datetime(2021, 9, 2, 12, 0, 0)),
        (_Stamp(2021, 9, 2, 15, 0, 0, tzinfo=timezone(timedelta(hours=3))),
         datetime(2021, 9, 2, 12, 0, 0)),
    ])
    def test_datetime_subclass_is_accepted(self, stamp, naive):
        event = RawRequestEvent(**{**_FIELDS, "timestamp": stamp})
        assert event.timestamp == naive and event.timestamp.tzinfo is None


class TestLineCodec:
    def test_key_order_is_fixed(self):
        line = format_replay_line(
            _event(referrer="http://x/", auth_user="u0001", cookies={"sid": "tok1"})
        )
        keys = [token.partition("=")[0] for token in line.split(" ")]
        assert keys == [
            "ip", "time", "method", "url", "token", "agent", "referrer",
            "user", "service", "module", "server", "get", "post", "cookies",
        ]

    def test_optional_keys_omitted(self):
        keys = [t.partition("=")[0] for t in format_replay_line(_event()).split(" ")]
        assert "referrer" not in keys
        assert "user" not in keys

    def test_time_is_isoformat_seconds(self):
        line = format_replay_line(_event())
        assert " time=2021-09-02T12:00:00 " in line

    def test_value_with_spaces_survives(self):
        agent = "Mozilla/5.0 (X11; Ubuntu) Firefox/15.0.1"
        got = parse_replay_line(format_replay_line(_event(user_agent=agent)))
        assert got.user_agent == agent

    @settings(max_examples=200)
    @given(events_st)
    def test_round_trip(self, event):
        assert parse_replay_line(format_replay_line(event)) == event

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda s: s + " bogus=1", "unknown key"),
            (lambda s: s + " ip=1.2.3.4", "duplicate key"),
            (lambda s: s.replace(" method=GET", ""), "missing keys"),
            (lambda s: s.replace("time=2021-09-02T12:00:00", "time=noon"), "bad time"),
            (lambda s: s.replace(" server=1", " server=one"), "bad server id"),
            (lambda s: s.replace(" method=GET", " method=GET "), "empty token"),
            (lambda s: s + " floop", "without '='"),
            (lambda s: s.replace("method=GET", "method=PUT"), "method"),
            (lambda s: s.replace("token=tok1", "token="), "session_token"),
        ],
    )
    def test_parse_errors(self, mangle, fragment):
        line = format_replay_line(_event())
        with pytest.raises(ReplayFormatError, match=fragment):
            parse_replay_line(mangle(line))

    def test_offset_time_becomes_naive_utc(self):
        line = format_replay_line(_event()).replace(
            "time=2021-09-02T12:00:00", "time=2021-09-02T15:00:00%2B03:00"
        )
        assert parse_replay_line(line).timestamp == datetime(2021, 9, 2, 12, 0, 0)

    def test_line_number_reported(self):
        with pytest.raises(ReplayFormatError, match="line 7:") as info:
            parse_replay_line("junk", line_no=7)
        assert info.value.line_no == 7


# Escaped text as a replay writer or a hand-edited file may hold it: escapes
# of '%', '+', '&' and '=', bad and truncated escapes, escaped and raw
# non-ASCII text.
_ESCAPED = st.lists(
    st.sampled_from([
        "%", "%25", "%2", "%zz", "%41", "%2B", "%26", "%3D", "%20", "%C3%A9", "%FF",
        "%E6%97%A5", "+", "&", "&&", "=", "==", "a", "Z9", "é", "ş", "日本", "\x00",
    ]),
    max_size=8,
).map("".join)
_ESCAPED_TEXT = _ESCAPED | st.text(max_size=30)


def _decoded(parse, line):
    """The event a decoder returns, or the message of its ReplayFormatError."""
    try:
        return parse(line, 3)
    except ReplayFormatError as exc:
        return f"error: {exc}"


@st.composite
def _replay_lines(draw):
    """Lines of known keys with escaped values, so most of them decode, and
    keys dropped, repeated or unknown now and then."""
    keys = ["ip", "time", "method", "url", "token", "agent", "referrer", "user",
            "service", "module", "server", "get", "post", "cookies"]
    fixed = {"time": "2021-09-02T12:00:00", "method": "GET", "server": "1"}
    tokens = []
    for key in keys:
        if draw(st.integers(0, 19)) == 0:
            continue
        value = fixed.get(key) if draw(st.integers(0, 4)) else None
        tokens.append(f"{key}={draw(_ESCAPED) if value is None else value}")
    if draw(st.booleans()):
        tokens.append(draw(st.sampled_from(["ip=1", "bogus=1", "", "noequals"])))
    return " ".join(tokens)


class TestWireExamples:
    """The escaping FORMATS.md states for the replay stream, byte for byte."""

    def test_space_in_a_value_is_percent_20(self):
        line = format_replay_line(_event(user_agent="Mozilla/5.0 (X11; Ubuntu)"))
        assert " agent=Mozilla/5.0%20(X11;%20Ubuntu) " in line

    def test_percent_in_a_value_is_percent_25(self):
        assert " url=/a%2520b " in format_replay_line(_event(url="/a%20b"))

    @pytest.mark.parametrize(
        "value, wire",
        [("a b", "a%2520b"), ("50%", "50%2525"), ("1+1", "1%252B1"), ("a/b&c=d", "a%252Fb%2526c%253Dd")],
    )
    def test_map_value_escaped_twice(self, value, wire):
        event = _event(cookies={"sid": "tok1", "k": value})
        line = format_replay_line(event)
        assert line.endswith(f" cookies=sid=tok1&k={wire}")
        assert parse_replay_line(line).cookies == {"sid": "tok1", "k": value}

    def test_map_key_escaped_like_a_value(self):
        line = format_replay_line(_event(get_params={"a b+": "x"}))
        assert " get=a%2520b%252B=x " in line


class TestEncoderEquivalence:
    """format_replay_line escapes each value and each map through bounded
    caches, calls quote only on text it would change and encodes maps
    without urlencode; it must write the reference's bytes, from the cache
    too."""

    @settings(max_examples=300)
    @given(wire_events)
    @example(_event(user_agent="a b", cookies={"k": "50%", "a b": "1+1"}))
    @example(_event(url="/\u00e9?q=a&b=%zz", referrer="x\ny", auth_user="\x00"))
    @example(_event(user_agent="", referrer="", auth_user="", get_params={"": ""}))
    @example(_event(user_agent='a "quoted" \\ agent', cookies={'"': "\\"}, server_id=-7))
    def test_same_line_as_reference(self, event):
        for _ in range(2):
            assert format_replay_line(event) == format_replay_line_reference(event)

    @settings(max_examples=30)
    @given(st.lists(wire_events, max_size=3))
    def test_stream_is_reference_lines(self, events):
        out = io.StringIO()
        assert write_replay(events, out) == len(events)
        assert out.getvalue() == "".join(f"{format_replay_line_reference(e)}\n" for e in events)


class TestDecoderEquivalence:
    """parse_replay_line unquotes only values holding '%' and reads maps
    without parse_qsl; it must give what the plain decoder gives: the same
    event or the same error message."""

    @settings(max_examples=1000)
    @given(_replay_lines() | st.text(max_size=60))
    @example("ip=1 time=2021-09-02T12:00:00 method=GET url=%25 token=t get=a%3Db%26c%3D")
    @example("ip=1 time=2021-09-02T12:00:00 method=GET url=/ token=t cookies=a%25%32%35=+%")
    @example("ip=1 time=2021-09-02T12:00:00 method=GET url=/ token=t post=&&=&a=b=c")
    @example("ip=1 time=2021-09-02T12:00:00 method=GET url=%C3%A9%FF token=%zz%")
    @example("ip=1 time=2021-09-02T12:00:00 method=GET url=/ token=t server=%31")
    @example("ip=1 time=2021-09-02T12:00:00 method=%47ET url=/ token=%20")
    def test_same_event_or_error_as_reference(self, line):
        assert _decoded(parse_replay_line, line) == _decoded(parse_replay_line_reference, line)

    @settings(max_examples=300)
    @given(events_st)
    def test_written_lines_decode_as_reference(self, event):
        line = format_replay_line(event)
        assert parse_replay_line(line) == parse_replay_line_reference(line)

    @settings(max_examples=1000)
    @given(_ESCAPED_TEXT)
    @example("a=1&&b=&c&=d&+=%2B")
    @example("%=%%&%zz=%2")
    def test_map_decoding_matches_parse_qsl(self, text):
        assert _decode_map(text) == dict(urllib.parse.parse_qsl(text, keep_blank_values=True))


class TestReplayTableMatchesFormats:
    """FORMATS.md "Replay stream": the writer's key order, the required keys
    and the defaults of missing keys are the reader's ``_FIELDS`` table."""

    def _section(self) -> str:
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text("utf-8")
        return text.split("## Replay stream", 1)[1].split("\n## ", 1)[0]

    def test_writer_key_order_line_is_the_table(self):
        order = self._section().split("```\n", 2)[1].split("\n", 1)[0]
        assert tuple(key.strip("[]") for key in order.split()) == tuple(_REPLAY_FIELDS)

    def test_required_keys_are_the_first_five(self):
        claim = " ".join(self._section().split()).split("require at least ", 1)[1]
        assert tuple(re.findall(r"`(\w+)`", claim.split(".", 1)[0])) == _REPLAY_REQUIRED
        assert _REPLAY_REQUIRED == tuple(_REPLAY_FIELDS)[:5]
        with pytest.raises(ReplayFormatError, match=r"missing keys: \['ip', 'url'\]"):
            parse_replay_line("time=2021-09-02T12:00:00 method=GET token=tok1")

    def test_writer_emits_keys_in_table_order(self):
        line = format_replay_line(_event(referrer="http://x/", auth_user="u0001"))
        assert [token.partition("=")[0] for token in line.split(" ")] == list(_REPLAY_FIELDS)

    def test_missing_optional_keys_take_the_field_defaults(self):
        line = "ip=10.0.0.1 time=2021-09-02T12:00:00 method=GET url=/index.php token=tok1"
        assert parse_replay_line(line) == _event()  # every other field its default


class TestReplayStream:
    def test_write_read_round_trip(self):
        events = [
            _event(timestamp=datetime(2021, 9, 2, 12, 0, i), url=f"/p{i}.php")
            for i in range(5)
        ]
        buf = io.StringIO()
        assert write_replay(events, buf) == 5
        buf.seek(0)
        assert list(read_replay(buf)) == events

    def test_blank_lines_and_comments_skipped(self):
        line = format_replay_line(_event())
        stream = ["\n", "# header comment\n", line + "\n", "   \n", line + "\n"]
        assert len(list(read_replay(stream))) == 2

    def test_decreasing_timestamps_rejected(self):
        lines = [
            format_replay_line(_event(timestamp=datetime(2021, 9, 2, 12, 0, 5))),
            format_replay_line(_event(timestamp=datetime(2021, 9, 2, 12, 0, 4))),
        ]
        with pytest.raises(ReplayFormatError, match="non-decreasing") as info:
            list(read_replay(lines))
        assert info.value.line_no == 2

    def test_equal_timestamps_allowed(self):
        line = format_replay_line(_event())
        assert len(list(read_replay([line, line]))) == 2

    def test_error_names_physical_line(self):
        line = format_replay_line(_event())
        stream = ["# comment\n", line + "\n", "broken\n"]
        with pytest.raises(ReplayFormatError, match="line 3:"):
            list(read_replay(stream))
