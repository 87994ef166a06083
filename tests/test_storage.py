import csv
import dataclasses
import io
import re
import sqlite3
import threading
import typing
from collections import OrderedDict
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webusage import storage
from webusage.enrichment import GeoIpRange
from webusage.events import AppPageResult
from webusage.storage import (
    ConstraintError,
    ForeignKeyError,
    LiveSession,
    LogStore,
    MapFormatError,
    OpenSession,
    PageRecord,
    SessionRecord,
    TABLE_COLUMNS,
    StorageError,
    UserInfo,
    deserialize_map,
    dt_to_text,
    serialize_map,
    text_to_dt,
)
from oracles import (
    get_page,
    iter_open_sessions,
    parse_load_time,
    read_export_table,
    serialize_map_reference,
    stored_rows,
)

T0 = datetime(2021, 9, 2, 10, 12, 18)


def _session(**overrides) -> SessionRecord:
    base = dict(ip="193.140.253.80", started_at=T0)
    base.update(overrides)
    return SessionRecord(**base)


def _page(opn_id: int, **overrides) -> PageRecord:
    base = dict(
        log_opn_id=opn_id,
        log_datetime=T0,
        log_url="/index.php",
    )
    base.update(overrides)
    return PageRecord(**base)


# Map text dense in what JSON escapes or might: quotes, backslashes, control
# characters, non-ASCII, lone surrogates, and letters in both cases.
_MAP_CHARS = st.sampled_from(
    ['"', "\\", "/", "a", "A", "b", "B", "\x7f", "é", "É", "\u2028", "\ud800", "\udfff", "😀"]
    + [chr(i) for i in range(0x20)]
) | st.characters(exclude_categories=())
_MAP_TEXT = st.text(_MAP_CHARS, max_size=8)


@st.composite
def _string_maps(draw):
    """A map whose keys may come in pairs that differ only in case."""
    m = draw(st.dictionaries(_MAP_TEXT, _MAP_TEXT, max_size=6))
    for key in list(m):
        if draw(st.booleans()):
            m[key.swapcase()] = draw(_MAP_TEXT)
    return m


def _serialize_outcome(serialize, m):
    try:
        return "ok", serialize(m)
    except ConstraintError as exc:
        return "error", str(exc)


class TestSerializedMaps:
    def test_empty_map(self):
        assert serialize_map({}) == "{}"
        assert deserialize_map("{}") == {}

    def test_one_entry_round_trip(self):
        text = serialize_map({"page": "info"})
        assert deserialize_map(text) == {"page": "info"}

    def test_key_order_canonical(self):
        assert serialize_map({"a": "1", "b": "2"}) == serialize_map({"b": "2", "a": "1"})

    def test_malformed_text_names_offset(self):
        with pytest.raises(MapFormatError, match="offset") as info:
            deserialize_map("{broken")
        assert info.value.offset == 1

    def test_non_object_rejected(self):
        with pytest.raises(MapFormatError, match="object"):
            deserialize_map("[1, 2]")

    def test_non_string_value_rejected(self):
        with pytest.raises(MapFormatError, match="not a string"):
            deserialize_map('{"n": 3}')

    @pytest.mark.parametrize("value", ["{}", '{"a": "1"}', None, [("a", "1")]])
    def test_serialize_rejects_non_dict(self, value):
        with pytest.raises(ConstraintError, match="must be a dict"):
            serialize_map(value)

    @pytest.mark.parametrize("value", [
        {1: "a"}, {"a": 1}, {"a": None}, {1: "a", "b": "c"}, {b"a": "1"}, {"a": b"1"},
    ])
    def test_serialize_rejects_non_str_keys_and_values(self, value):
        with pytest.raises(ConstraintError, match="keys and values must be strings"):
            serialize_map(value)
        assert _serialize_outcome(serialize_map, value) == _serialize_outcome(
            serialize_map_reference, value
        )

    def test_dict_subclasses_accepted(self):
        class Params(dict):
            pass

        for m in (Params(b="1", a="2"), OrderedDict([("b", "1"), ("a", "2")])):
            assert serialize_map(m) == serialize_map_reference(m) == '{"a":"2","b":"1"}'

    def test_escapes_as_formats_md_states(self):
        m = {"q": 'a"b\\c', "ctl": "\n\t\x01\x1f", "ü": "é€"}
        text = r'{"ctl":"\n\t\u0001\u001f","q":"a\"b\\c","ü":"é€"}'
        assert serialize_map(m) == text
        formats = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text("utf-8")
        assert f"`{text}`" in formats

    @settings(max_examples=300)
    @given(_string_maps())
    def test_matches_json_dumps_byte_for_byte(self, m):
        assert _serialize_outcome(serialize_map, m) == _serialize_outcome(
            serialize_map_reference, m
        )

    @settings(max_examples=100)
    @given(st.dictionaries(st.text(max_size=10), st.text(max_size=10), max_size=5))
    def test_round_trip_property(self, m):
        assert deserialize_map(serialize_map(m)) == m

    def test_empty_maps_are_fresh_and_still_checked(self):
        first = deserialize_map("{}")
        first["k"] = "v"
        assert deserialize_map("{}") == {}
        with pytest.raises(MapFormatError):
            deserialize_map("{ }x")
        assert deserialize_map("{ }") == {}
        with pytest.raises(ConstraintError):
            serialize_map(None)

    def test_decimal_comma_load_time(self):
        assert parse_load_time("0,0266") == pytest.approx(0.0266)
        assert parse_load_time("1.5") == pytest.approx(1.5)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _joined(fields, separators, tail, cut):
    text = "".join(f + s for f, s in zip(fields, separators)) + tail
    return text[: len(text) - cut]


# Timestamp text close to the stored form: two-digit fields from ASCII and
# other Unicode digits, the stored or other separators, an optional offset
# or fraction, and one character cut or added.
_DIGITS = st.sampled_from("0123456789" * 4 + "\u0663\uff10\u00b2\u0e51")
_NEAR_TIMESTAMPS = st.builds(
    _joined,
    st.tuples(*[st.text(_DIGITS, min_size=n, max_size=n) for n in (4, 2, 2, 2, 2, 2)]),
    st.just("-- ::") | st.text(st.sampled_from("- T:/."), min_size=5, max_size=5),
    st.sampled_from(["", "", "", "0", " ", "+01", "+01:00", "Z", ".5", "\n"]),
    st.sampled_from([0, 0, 0, 1]),
)


_STORED_TIMES = st.datetimes().map(lambda value: value.replace(microsecond=0))


class TestTextToDt:
    """text_to_dt reads exactly the text dt_to_text writes, and rejects
    every other text with a ValueError."""

    @settings(max_examples=2000)
    @given(_NEAR_TIMESTAMPS | st.text(max_size=22))
    @example("2021-09-02 10:12:18")
    @example("0999-12-31 23:00:00")
    @example("2021-02-30 10:12:18")
    @example("2021-13-02 10:12:18")
    @example("2021-01-01 24:00:00")
    @example("0000-01-01 00:00:00")
    def test_accepts_only_the_stored_form(self, text):
        outcome = _parse_outcome(text_to_dt, text)
        if isinstance(outcome, datetime):
            assert dt_to_text(outcome) == text
        elif not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}", text):
            assert outcome == f"time {text!r} is not in the YYYY-MM-DD HH:MM:SS form"

    @pytest.mark.parametrize("text", [
        "2021-9-2 10:12:18",
        "999-12-31 23:00:00",
        "2021-09-02T10:12:18",
        "2021-09-02 10:12:18+01:00",
        "2021-09-02 10:12:18.5",
        "2021-09-02 10:12:1",
        "2021-\uff109-02 10:12:18",
        "2021-09-02 10:12:18\n",
        "",
    ])
    def test_other_text_is_not_in_the_form(self, text):
        with pytest.raises(ValueError) as info:
            text_to_dt(text)
        assert str(info.value) == f"time {text!r} is not in the YYYY-MM-DD HH:MM:SS form"

    @settings(max_examples=300)
    @given(_STORED_TIMES)
    @example(datetime.min)
    @example(datetime(999, 12, 31, 23))
    @example(datetime.max.replace(microsecond=0))
    def test_round_trips_stored_text(self, value):
        assert text_to_dt(dt_to_text(value)) == value


_OFFSETS = st.builds(
    timezone,
    st.timedeltas(min_value=-timedelta(hours=23, minutes=59),
                  max_value=timedelta(hours=23, minutes=59)),
)


class TestDtToText:
    """dt_to_text writes every naive datetime as YYYY-MM-DD HH:MM:SS, the
    year zero-padded to four digits, and refuses any other value."""

    @pytest.mark.parametrize("value, text", [
        (datetime(1, 1, 1), "0001-01-01 00:00:00"),
        (datetime(999, 12, 31, 23, 59, 59, 999999), "0999-12-31 23:59:59"),
        (datetime(1000, 1, 1), "1000-01-01 00:00:00"),
        (datetime(2021, 9, 2, 10, 12, 18, 500000, fold=1), "2021-09-02 10:12:18"),
        (datetime.max, "9999-12-31 23:59:59"),
    ])
    def test_writes_the_stored_form(self, value, text):
        assert dt_to_text(value) == text

    @settings(max_examples=300)
    @given(_STORED_TIMES, _STORED_TIMES)
    @example(datetime(999, 12, 31, 23, 59, 59), datetime(1000, 1, 1))
    @example(datetime(99, 1, 1), datetime(100, 1, 1))
    def test_text_order_is_time_order(self, a, b):
        assert (dt_to_text(a) < dt_to_text(b)) == (a < b)

    @settings(max_examples=100)
    @given(st.datetimes(timezones=_OFFSETS))
    @example(datetime(2021, 9, 2, 10, 12, 18, tzinfo=timezone.utc))
    def test_aware_datetime_is_refused(self, value):
        with pytest.raises(ConstraintError, match="a stored time must be a naive datetime"):
            dt_to_text(value)

    def test_date_is_refused(self):
        with pytest.raises(ConstraintError, match="a stored time must be a naive datetime"):
            dt_to_text(date(2021, 9, 2))


class TestSessions:
    def test_opn_ids_assigned_in_order(self, mem_store):
        assert mem_store.insert_session(_session()) == 1
        assert mem_store.insert_session(_session()) == 2

    def test_guest_with_gender_rejected(self, mem_store):
        with pytest.raises(ConstraintError):
            mem_store.insert_session(_session(gender="male"))

    def test_account_needs_user_id(self, mem_store):
        with pytest.raises(ConstraintError):
            mem_store.insert_session(_session(user_type="student", gender="male"))

    def test_unit_account_gender(self, mem_store):
        with pytest.raises(ConstraintError):
            mem_store.insert_session(
                _session(user_id=5, user_type="unit_mission", gender="female")
            )
        opn = mem_store.insert_session(
            _session(user_id=5, user_type="unit_mission", gender="not_applicable")
        )
        assert mem_store.get_session(opn).user_type == "unit_mission"

    def test_round_trip_all_fields(self, mem_store):
        rec = _session(
            user_id=166553,
            username="user9",
            user_type="student",
            gender="male",
            country_code="TR",
            browser_name="Firefox",
            browser_version="15.0.1",
            os_name="Linux",
            os_version="unknown",
            device_type="desktop",
            language="tr-TR",
            referrer_url="http://www.google.com/search?q=x",
            referral_class="search_engine",
            search_engine="google",
            search_keywords="x",
        )
        opn = mem_store.insert_session(rec)
        got = mem_store.get_session(opn)
        rec.opn_id = opn
        assert got == rec

    def test_close_session(self, mem_store):
        opn = mem_store.insert_session(_session())
        mem_store.close_session(opn, T0.replace(minute=42), "timeout")
        got = mem_store.get_session(opn)
        assert got.ended_at == T0.replace(minute=42)
        assert got.end_reason == "timeout"

    def test_close_before_start_rejected(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError):
            mem_store.close_session(opn, datetime(2020, 1, 1), "timeout")

    def test_bad_end_reason_rejected(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError):
            mem_store.close_session(opn, T0, "gave-up")

    def test_missing_session_is_none(self, mem_store):
        assert mem_store.get_session(12345) is None

    @pytest.mark.parametrize("preset", [1, 3, 10])
    def test_preset_id_rejected(self, mem_store, preset):
        assert [mem_store.insert_session(_session()) for _ in range(2)] == [1, 2]
        with pytest.raises(ConstraintError, match="opn_id is assigned by the store"):
            mem_store.insert_session(_session(opn_id=preset))
        assert mem_store.session_count() == 2
        assert mem_store.insert_session(_session()) == 3


class TestPages:
    def test_first_page_id(self, mem_store):
        opn = mem_store.insert_session(_session())
        assert mem_store.insert_page(_page(opn)) == 1

    def test_dangling_session_rejected(self, mem_store):
        with pytest.raises(ForeignKeyError):
            mem_store.insert_page(_page(99))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True, "0.1", None])
    def test_load_time_must_be_a_finite_number(self, mem_store, value):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError, match="^log_page_load_time must be a finite number"):
            mem_store.insert_page(_page(opn, log_page_load_time=value))
        assert mem_store.page_count() == 0

    def test_map_field_as_text_is_a_storage_error(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError, match="must be a dict, got str"):
            mem_store.insert_page(_page(opn, log_get_serialize="{}"))

    def test_sample_tuple_round_trip(self, mem_store):
        mem_store.upsert_user(UserInfo(166553, "user9", "student", "male"))
        opn = mem_store.insert_session(
            _session(user_id=166553, username="user9", user_type="student", gender="male")
        )
        rec = PageRecord(
            log_opn_id=opn,
            log_uid=166553,
            log_username="user9",
            log_datetime=datetime(2021, 9, 2, 10, 12, 18),
            log_date=date(2021, 9, 2),
            log_server=16,
            log_app_service="gate",
            log_module="info",
            log_url="http://www.gate.sakarya.edu.tr/?page=info",
            log_web_message="Welcome to WebGate",
            log_subtitle="Info :: You can review your access and security information here",
            log_cookie_serialize={"theme": "0", "lang": "0", "limit": "15"},
            log_session_serialize={"ses_uid": "166553", "ses_id": str(opn)},
            log_post_serialize={},
            log_get_serialize={"page": "info"},
            log_page_load_time=parse_load_time("0,0266"),
        )
        page_id = mem_store.insert_page(rec)
        got = get_page(mem_store, page_id)
        rec.log_details_id = page_id
        assert got == rec
        assert got.log_get_serialize == {"page": "info"}

    def test_log_date_defaults_to_datetime_date(self, mem_store):
        opn = mem_store.insert_session(_session())
        page_id = mem_store.insert_page(_page(opn))
        assert get_page(mem_store, page_id).log_date == T0.date()

    def test_log_date_mismatch_rejected(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError):
            mem_store.insert_page(_page(opn, log_date=date(1999, 1, 1)))

    @pytest.mark.parametrize("preset", [1, 2, 7])
    def test_preset_id_rejected(self, mem_store, preset):
        opn = mem_store.insert_session(_session())
        assert mem_store.insert_page(_page(opn)) == 1
        with pytest.raises(ConstraintError, match="log_details_id is assigned by the store"):
            mem_store.insert_page(_page(opn, log_details_id=preset, log_url="/preset"))
        assert mem_store.page_count() == 1
        assert mem_store.insert_page(_page(opn, log_url="/next")) == 2
        assert get_page(mem_store, 2).log_url == "/next"

    def test_map_with_non_string_value_rejected(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError, match="strings"):
            mem_store.insert_page(_page(opn, log_get_serialize={"n": 3}))
        assert mem_store.page_count() == 0

    def test_ids_strictly_increasing(self, mem_store):
        opn = mem_store.insert_session(_session())
        ids = [mem_store.insert_page(_page(opn)) for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_update_page_result(self, mem_store):
        opn = mem_store.insert_session(_session())
        page_id = mem_store.insert_page(_page(opn))
        mem_store.update_page_result(
            page_id,
            AppPageResult(page_title="Info", web_message="hi", page_load_time=0.0266),
        )
        got = get_page(mem_store, page_id)
        assert got.log_page_title == "Info"
        assert got.log_page_load_time == pytest.approx(0.0266)

    def test_update_missing_page_rejected(self, mem_store):
        with pytest.raises(StorageError, match="999"):
            mem_store.update_page_result(999, AppPageResult())


@pytest.mark.parametrize("table, changes, reason", [
    pytest.param("user_info", {"username": ""}, "username must be non-empty", id="username"),
    pytest.param("user_info", {"user_type": "guest", "gender": "not_applicable"},
                 "bad user_type for account: 'guest'", id="account-type"),
    pytest.param("user_info", {"gender": "other"}, "bad gender: 'other'", id="user-gender"),
    pytest.param("log_session", {"ip": ""}, "ip must be non-empty", id="ip"),
    pytest.param("log_session", {"user_type": "martian"}, "bad user_type: 'martian'",
                 id="user_type"),
    pytest.param("log_session", {"user_id": 7}, "user_id absent exactly for guest sessions",
                 id="guest-with-user-id"),
    pytest.param("log_session", {"user_type": "student", "gender": "female"},
                 "user_id absent exactly for guest sessions", id="account-without-user-id"),
    pytest.param("log_session", {"gender": "female"},
                 "guest records must carry gender not_applicable", id="guest-gender"),
    pytest.param("log_session", {"user_id": 7, "user_type": "student"},
                 "student records must carry male or female", id="account-gender"),
    pytest.param("log_session", {"referral_class": "carrier_pigeon"},
                 "bad referral_class: 'carrier_pigeon'", id="referral_class"),
    pytest.param("log_session", {"ended_at": T0, "end_reason": "gave-up"},
                 "bad end_reason: 'gave-up'", id="end_reason"),
    pytest.param("log_session", {"ended_at": datetime(2000, 1, 1), "end_reason": "timeout"},
                 "ended_at before started_at", id="ended-before-started"),
    pytest.param("log_page", {"log_date": date(1999, 1, 1)},
                 "log_date must equal the date of log_datetime", id="log-date"),
    pytest.param("log_page", {"log_page_load_time": float("-inf")},
                 "log_page_load_time must be a finite number >= 0, got -inf", id="load-time"),
    pytest.param("log_page", {"log_page_load_time": float("inf")},
                 "log_page_load_time must be a finite number >= 0, got inf", id="load-time-inf"),
    pytest.param("log_page", {"log_page_load_time": "abc"},
                 "log_page_load_time must be a finite number >= 0, got 'abc'",
                 id="load-time-text"),
    pytest.param("log_page", {"log_post_serialize": {"a": 1}},
                 "map keys and values must be strings", id="map-value"),
    pytest.param("user_info", {"user_id": "a"}, "user_id must be an integer, got 'a'",
                 id="user-id-text"),
    pytest.param("log_session", {"user_id": "x,y", "user_type": "student", "gender": "female"},
                 "user_id must be an integer, got 'x,y'", id="session-user-id-text"),
    pytest.param("log_page", {"log_server": "a,b"}, "log_server must be an integer, got 'a,b'",
                 id="log-server-text"),
    pytest.param("log_page", {"log_server": True}, "log_server must be an integer, got True",
                 id="log-server-bool"),
    pytest.param("log_page", {"log_uid": "p,q"}, "log_uid must be an integer, got 'p,q'",
                 id="log-uid-text"),
    pytest.param("log_geoip", {"end_ip": "9"}, "end_ip must be an integer, got '9'",
                 id="end-ip-text"),
    pytest.param("user_info", {"user_id": 2**63},
                 "user_id must be an integer in [-2**63, 2**63 - 1], got 9223372036854775808",
                 id="user-id-over-64-bits"),
    pytest.param("log_page", {"log_server": -2**63 - 1},
                 "log_server must be an integer in [-2**63, 2**63 - 1], got -9223372036854775809",
                 id="log-server-under-64-bits"),
    pytest.param("log_geoip", {"end_ip": 99999999999999999999},
                 "end_ip must be an integer in [-2**63, 2**63 - 1], got 99999999999999999999",
                 id="end-ip-over-64-bits"),
    pytest.param("log_session", {"browser_name": b"a,b"},
                 "browser_name must be a str, got b'a,b'", id="browser-name-bytes"),
    pytest.param("log_session", {"os_name": 5}, "os_name must be a str, got 5", id="os-name-int"),
    pytest.param("log_page", {"log_url": 5}, "log_url must be a str, got 5", id="log-url-int"),
    pytest.param("user_info", {"username": b"bob"}, "username must be a str, got b'bob'",
                 id="username-bytes"),
    pytest.param("open_sessions", {"session_token": 7}, "session_token must be a str, got 7",
                 id="session-token-int"),
    pytest.param("log_geoip", {"country_code": 5}, "country_code must be a str, got 5",
                 id="country-code-int"),
    pytest.param("log_page", {"log_url_malformed": 2}, "log_url_malformed must be a bool, got 2",
                 id="malformed-int"),
    pytest.param("log_page", {"log_url_malformed": "1"},
                 "log_url_malformed must be a bool, got '1'", id="malformed-text"),
    pytest.param("log_page", {"log_url_malformed": 1.7},
                 "log_url_malformed must be a bool, got 1.7", id="malformed-float"),
    pytest.param("log_page", {"log_url_malformed": "a"},
                 "log_url_malformed must be a bool, got 'a'", id="malformed-letter"),
])
def test_record_check_refuses_the_write_and_keeps_the_store(mem_store, table, changes, reason):
    user = UserInfo(7, "u0007", "student", "female")
    mem_store.upsert_user(user)
    mem_store.replace_geoip([GeoIpRange(0, 9, "AA")])
    opn = mem_store.insert_session(_session())
    before = {name: mem_store._query(f"SELECT * FROM {name}") for name in TABLE_COLUMNS}
    with pytest.raises(ConstraintError) as info:
        if table == "user_info":  # the stored user's id: a refused upsert replaces nothing
            mem_store.upsert_user(dataclasses.replace(user, **changes))
        elif table == "log_geoip":  # a refused replace keeps the stored ranges
            mem_store.replace_geoip([dataclasses.replace(GeoIpRange(0, 9, "BB"), **changes)])
        elif table == "log_session":
            mem_store.insert_session(_session(**changes))
        elif table == "open_sessions":
            mem_store.put_open_session(dataclasses.replace(OpenSession("t", opn, T0), **changes))
        else:
            mem_store.insert_page(_page(opn, **changes))
    assert str(info.value) == reason
    assert {name: mem_store._query(f"SELECT * FROM {name}") for name in TABLE_COLUMNS} == before


@pytest.mark.parametrize("server", [-2**63, 2**63 - 1])
def test_the_64_bit_bounds_are_stored(mem_store, server):
    page_id = mem_store.insert_page(_page(mem_store.insert_session(_session()), log_server=server))
    assert get_page(mem_store, page_id).log_server == server


class TestUsersAndOpenSessions:
    def test_upsert_and_lookup(self, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "student", "female"))
        got = mem_store.get_user_by_name("u0007")
        assert got == UserInfo(7, "u0007", "student", "female")
        mem_store.upsert_user(UserInfo(7, "u0007", "graduate", "female"))
        assert mem_store.get_user_by_name("u0007").user_type == "graduate"

    def test_unknown_username_is_none(self, mem_store):
        assert mem_store.get_user_by_name("nobody") is None

    def test_guest_account_row_rejected(self, mem_store):
        with pytest.raises(ConstraintError):
            mem_store.upsert_user(UserInfo(8, "g1", "guest", "not_applicable"))

    def test_open_session_lifecycle(self, mem_store):
        opn = mem_store.insert_session(_session())
        mem_store.put_open_session(OpenSession("tokA", opn, T0))
        assert mem_store.get_open_session("tokA") == LiveSession("tokA", opn, T0, None, None)
        later = T0.replace(hour=11)
        mem_store.touch_open_session("tokA", later)
        assert mem_store.get_open_session("tokA").last_activity == later
        mem_store.delete_open_session("tokA")
        assert mem_store.get_open_session("tokA") is None

    def test_open_session_carries_its_session_username(self, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        opn = mem_store.insert_session(_session(
            user_id=7, username="u0007", user_type="academic_staff", gender="female"))
        mem_store.put_open_session(OpenSession("tokA", opn, T0))
        guest = mem_store.insert_session(_session())
        mem_store.put_open_session(OpenSession("tokB", guest, T0))
        assert mem_store.get_open_session("tokA") == LiveSession("tokA", opn, T0, 7, "u0007")
        assert mem_store.get_open_session("tokB") == LiveSession("tokB", guest, T0, None, None)

    def test_open_session_read_follows_table_columns(self, mem_store):
        # get_open_session unpacks its row by position; every column holds a
        # value no other column holds, so a read in another order than
        # TABLE_COLUMNS gives a field another column's value.
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        mem_store.insert_session(_session())
        opn = mem_store.insert_session(_session(
            user_id=7, username="u0007", user_type="academic_staff", gender="female"))
        later = T0 + timedelta(minutes=5)
        mem_store.put_open_session(OpenSession("tokA", opn, later))
        cols = TABLE_COLUMNS["open_sessions"]
        stored = mem_store._query(f"SELECT {', '.join(cols)} FROM open_sessions")[0]
        assert len(set(stored)) == len(cols)
        live = mem_store.get_open_session("tokA")
        read = [getattr(live, col) for col in cols]
        assert [dt_to_text(v) if isinstance(v, datetime) else v for v in read] == list(stored)
        assert (live.user_id, live.username) == (7, "u0007")

    def test_open_sessions_idle_since_reads_whole_seconds(self, mem_store):
        for i, seconds in enumerate((30, 0, 10, 11)):
            opn = mem_store.insert_session(_session())
            at = T0 + timedelta(seconds=seconds)
            mem_store.put_open_session(OpenSession(f"tok{i}", opn, at))
        cutoff = T0 + timedelta(seconds=10, microseconds=900_000)
        got = mem_store.open_sessions_idle_since(cutoff)
        assert [o.session_token for o in got] == ["tok1", "tok2"]

    def test_iter_open_sessions(self, mem_store):
        for i in range(3):
            opn = mem_store.insert_session(_session())
            mem_store.put_open_session(OpenSession(f"tok{i}", opn, T0))
        assert len(list(iter_open_sessions(mem_store))) == 3


class TestJoin:
    def test_inner_join_counts(self, mem_store):
        first = mem_store.insert_session(_session())
        second = mem_store.insert_session(_session())
        for _ in range(3):
            mem_store.insert_page(_page(first))
        for _ in range(2):
            mem_store.insert_page(_page(second))
        rows = list(mem_store.join_sessions_pages())
        assert len(rows) == 5
        assert [page.log_opn_id for _, page in rows] == [first] * 3 + [second] * 2

    def test_empty_page_table(self, mem_store):
        mem_store.insert_session(_session())
        assert list(mem_store.join_sessions_pages()) == []

    def test_join_count_matches_truth(self, sim_store, small_workload):
        _, _, truth = small_workload
        assert len(list(sim_store.join_sessions_pages())) == len(truth.events)

    def test_sessions_with_pages_counts_and_dwell(self, mem_store):
        first = mem_store.insert_session(_session())
        mem_store.insert_session(_session())  # no pages: left out
        third = mem_store.insert_session(_session(started_at=T0 - timedelta(days=1)))
        for seconds in (0, 40, 95):
            mem_store.insert_page(_page(first, log_datetime=T0 + timedelta(seconds=seconds)))
        # across midnight, inserted out of time order
        for when in (datetime(2021, 9, 2, 0, 0, 30), datetime(2021, 9, 1, 23, 59, 50)):
            mem_store.insert_page(_page(third, log_datetime=when))
        rows = mem_store.sessions_with_pages()
        assert [(s.opn_id, pages, dwell) for s, pages, dwell in rows] == [
            (first, 3, 95), (third, 2, 40),
        ]
        assert rows[0][0] == mem_store.get_session(first)
        assert all(type(dwell) is int for _, _, dwell in rows)


class TestTransactions:
    def test_rollback_on_error(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(RuntimeError):
            with mem_store.transaction():
                mem_store.insert_page(_page(opn))
                raise RuntimeError("boom")
        assert mem_store.page_count() == 0

    def test_nested_scopes_join_outer(self, mem_store):
        with mem_store.transaction():
            opn = mem_store.insert_session(_session())
            with mem_store.transaction():
                mem_store.insert_page(_page(opn))
        assert mem_store.page_count() == 1

    def test_failed_nested_scope_undoes_only_its_writes(self, mem_store):
        with mem_store.transaction():
            kept = mem_store.insert_session(_session())
            with pytest.raises(ForeignKeyError):
                with mem_store.transaction():
                    mem_store.insert_session(_session())
                    mem_store.insert_page(_page(1234))
            mem_store.insert_page(_page(kept))
        assert mem_store.session_count() == 1
        assert mem_store.page_count() == 1

    def test_session_never_lost_before_page(self, mem_store):
        with pytest.raises(ForeignKeyError):
            with mem_store.transaction():
                mem_store.insert_session(_session())
                mem_store.insert_page(_page(1234))
        assert mem_store.session_count() == 0


class TestTransactionFailures:
    """The scope's lock and depth where SQLite refuses a statement of its own."""

    @pytest.fixture
    def stores(self, tmp_path):
        """A store and a second connection to its file, neither waiting for
        a lock the other holds."""
        path = tmp_path / "s.db"
        store = LogStore(path)
        store._conn.execute("PRAGMA busy_timeout=0")
        other = sqlite3.connect(path, isolation_level=None)
        other.execute("PRAGMA busy_timeout=0")
        yield store, other
        other.close()
        store.close()

    @staticmethod
    def _enters_from_another_thread(store) -> bool:
        """True when another thread runs a whole scope; a lock kept by this
        thread would hold it at the door."""
        entered = threading.Event()

        def run():
            with store.transaction():
                entered.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        return entered.is_set() and not thread.is_alive()

    def test_refused_begin_releases_the_lock(self, stores):
        store, other = stores
        other.execute("BEGIN IMMEDIATE")
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            with store.transaction():
                pytest.fail("the scope's body ran")
        assert store._depth == 0
        other.execute("COMMIT")
        assert self._enters_from_another_thread(store)
        with store.transaction():
            store.insert_session(_session())
        assert store.session_count() == 1

    def test_refused_commit_undoes_the_scope(self, stores):
        store, other = stores
        other.execute("BEGIN")
        other.execute("SELECT COUNT(*) FROM log_session").fetchall()  # a read lock
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            with store.transaction():
                store.insert_session(_session())
        assert store._depth == 0
        assert not store._conn.in_transaction
        assert store.session_count() == 0
        other.execute("COMMIT")
        assert self._enters_from_another_thread(store)
        with store.transaction():
            store.insert_session(_session())
        assert store.session_count() == 1

    def test_error_in_a_scope_releases_the_lock(self, stores):
        store, _ = stores
        with pytest.raises(RuntimeError):
            with store.transaction():
                raise RuntimeError("boom")
        assert store._depth == 0
        assert self._enters_from_another_thread(store)

    def test_failed_nested_scope_restores_the_depth(self, stores):
        store, _ = stores
        with store.transaction():
            with pytest.raises(RuntimeError):
                with store.transaction():
                    assert store._depth == 2
                    raise RuntimeError("boom")
            assert store._depth == 1
            assert store._conn.in_transaction
        assert store._depth == 0
        assert not store._conn.in_transaction


class TestSchema:
    TABLES = ("user_info", "log_geoip", "log_session", "open_sessions", "log_page")

    def _documented_nullable(self) -> dict[str, set[str]]:
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        listing = " ".join(text.split("nullable in the schema (", 1)[1].split(")", 1)[0].split())
        found = {t: set() for t in self.TABLES}
        for table, cols in re.findall(r"`(\w+)`: `([\w, ]+)`", listing):
            found[table] = {c.strip() for c in cols.split(",")}
        return found

    def test_every_page_result_field_has_its_column(self):
        # update_page_result sets log_<field> for each AppPageResult field.
        for f in dataclasses.fields(AppPageResult):
            assert f"log_{f.name}" in TABLE_COLUMNS["log_page"], f.name

    def test_export_columns_match_doc(self):
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        store = text.split("## Store (SQLite) and CSV export", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `(\w+)`: `([\w,]+)`$", store, re.MULTILINE)
        assert [(table, tuple(cols.split(","))) for table, cols in listed] == list(
            TABLE_COLUMNS.items()
        )

    def test_columns_and_nullability_match_schema_and_doc(self, mem_store):
        assert tuple(TABLE_COLUMNS) == self.TABLES
        documented = self._documented_nullable()
        assert all(documented[t] for t in ("log_session", "log_page"))
        for table in self.TABLES:
            info = mem_store._query(f"PRAGMA table_info({table})")
            assert tuple(row[1] for row in info) == TABLE_COLUMNS[table]
            nullable = {name for _, name, _, notnull, _, pk in info if not notnull and not pk}
            assert nullable == documented[table], table

    # Each table as SQLite reports it: its PRAGMA table_info rows (name,
    # type, notnull, dflt_value, pk), index_list rows (unique, origin) and
    # foreign_key_list rows (table, from, to).
    STRUCTURE = {
        "user_info": (
            [("user_id", "INTEGER", 0, None, 1), ("username", "TEXT", 1, None, 0),
             ("user_type", "TEXT", 1, None, 0), ("gender", "TEXT", 1, None, 0)],
            [(1, "u")],
            [],
        ),
        "log_geoip": (
            [("start_ip", "INTEGER", 0, None, 1), ("end_ip", "INTEGER", 1, None, 0),
             ("country_code", "TEXT", 1, None, 0)],
            [],
            [],
        ),
        "log_session": (
            [("opn_id", "INTEGER", 0, None, 1), ("user_id", "INTEGER", 0, None, 0),
             ("username", "TEXT", 0, None, 0), ("user_type", "TEXT", 1, None, 0),
             ("gender", "TEXT", 1, None, 0), ("ip", "TEXT", 1, None, 0),
             ("country_code", "TEXT", 1, None, 0), ("browser_name", "TEXT", 1, None, 0),
             ("browser_version", "TEXT", 1, None, 0), ("os_name", "TEXT", 1, None, 0),
             ("os_version", "TEXT", 1, None, 0), ("device_type", "TEXT", 1, None, 0),
             ("language", "TEXT", 0, None, 0), ("referrer_url", "TEXT", 0, None, 0),
             ("referral_class", "TEXT", 1, None, 0), ("search_engine", "TEXT", 0, None, 0),
             ("search_keywords", "TEXT", 0, None, 0), ("started_at", "TEXT", 1, None, 0),
             ("ended_at", "TEXT", 0, None, 0), ("end_reason", "TEXT", 0, None, 0)],
            [],
            [],
        ),
        "open_sessions": (
            [("session_token", "TEXT", 0, None, 1), ("opn_id", "INTEGER", 1, None, 0),
             ("last_activity", "TEXT", 1, None, 0)],
            [(1, "u"), (1, "pk")],
            [("log_session", "opn_id", "opn_id")],
        ),
        "log_page": (
            [("log_details_id", "INTEGER", 0, None, 1), ("log_opn_id", "INTEGER", 1, None, 0),
             ("log_uid", "INTEGER", 0, None, 0), ("log_username", "TEXT", 0, None, 0),
             ("log_datetime", "TEXT", 1, None, 0), ("log_date", "TEXT", 1, None, 0),
             ("log_server", "INTEGER", 1, None, 0), ("log_app_service", "TEXT", 1, None, 0),
             ("log_module", "TEXT", 1, None, 0), ("log_url", "TEXT", 1, None, 0),
             ("log_web_message", "TEXT", 1, None, 0), ("log_subtitle", "TEXT", 1, None, 0),
             ("log_page_title", "TEXT", 1, None, 0),
             ("log_cookie_serialize", "TEXT", 1, None, 0),
             ("log_session_serialize", "TEXT", 1, None, 0),
             ("log_post_serialize", "TEXT", 1, None, 0),
             ("log_get_serialize", "TEXT", 1, None, 0),
             ("log_page_load_time", "REAL", 1, None, 0), ("log_error_text", "TEXT", 0, None, 0),
             ("log_url_malformed", "INTEGER", 1, "0", 0)],
            [(0, "c")],
            [("log_session", "log_opn_id", "opn_id")],
        ),
    }

    def test_structure_of_each_table(self, mem_store):
        for table, (columns, indexes, foreign_keys) in self.STRUCTURE.items():
            info = mem_store._query(f"PRAGMA table_info({table})")
            assert [tuple(row[1:]) for row in info] == columns, table
            index_list = mem_store._query(f"PRAGMA index_list({table})")
            assert [tuple(row[2:4]) for row in index_list] == indexes, table
            keys = mem_store._query(f"PRAGMA foreign_key_list({table})")
            assert [tuple(row[2:5]) for row in keys] == foreign_keys, table

    def test_field_types_match_column_types(self, mem_store):
        # The codecs convert a cell, and stats sizes it, by its record
        # field's type; SQLite stores it by its column's SQL type: both hold
        # while they agree.
        sql_types = {int: "INTEGER", bool: "INTEGER", float: "REAL"}
        for table, codec in storage._CODECS.items():
            hints = typing.get_type_hints(codec.record_type)
            expected = [sql_types.get(storage._field_type(hints[c]), "TEXT")
                        for c in TABLE_COLUMNS[table]]
            info = mem_store._query(f"PRAGMA table_info({table})")
            assert [sql_type for _, _, sql_type, *_ in info] == expected, table

    def test_schema_in_one_transaction_builds_the_same_store(self, tmp_path):
        # The same statements run each on its own, as autocommit runs them.
        reference = sqlite3.connect(tmp_path / "reference.db", isolation_level=None)
        reference.executescript(storage._SCHEMA.replace("BEGIN;", "").replace("COMMIT;", ""))
        store = LogStore(tmp_path / "store.db")
        try:
            master = "SELECT type, name, tbl_name, rootpage, sql FROM sqlite_master"
            rows = store._query(master)
            assert rows == reference.execute(master).fetchall()
            assert [(kind, name) for kind, name, *_ in rows] == [
                ("table", "user_info"), ("index", "sqlite_autoindex_user_info_1"),
                ("table", "log_geoip"), ("table", "log_session"),
                ("table", "sqlite_sequence"), ("table", "open_sessions"),
                ("index", "sqlite_autoindex_open_sessions_1"),
                ("index", "sqlite_autoindex_open_sessions_2"),
                ("table", "log_page"), ("index", "idx_page_session"),
            ]
            assert store._query("PRAGMA foreign_keys") == [(1,)]
            assert not store._conn.in_transaction
        finally:
            store.close()
            reference.close()


class TestExport:
    def test_unknown_table_rejected(self, mem_store):
        with pytest.raises(ValueError, match="unknown table"):
            mem_store.export_table("no_such", io.StringIO())

    def test_export_reads_back_as_the_stored_rows(self, sim_store, tmp_path):
        paths = sim_store.export_all(tmp_path)
        assert set(paths) == {
            "user_info", "log_geoip", "log_session", "open_sessions", "log_page",
        }
        for table, path in paths.items():
            with path.open(encoding="utf-8", newline="") as fh:
                assert read_export_table(sim_store, table, fh) == stored_rows(sim_store, table)
        assert len(stored_rows(sim_store, "log_page")) == sim_store.page_count() > 0

    def test_null_cell_exports_empty_and_reads_back_as_none_only_where_nullable(self, mem_store):
        opn = mem_store.insert_session(_session(browser_name=""))  # still open: no ended_at
        mem_store.insert_page(_page(opn))
        query = "SELECT ended_at, end_reason, browser_name FROM log_session"
        assert mem_store._query(query) == [(None, None, "")]
        buf = io.StringIO(newline="")
        assert mem_store.export_table("log_session", buf) == 1
        row = next(csv.DictReader(io.StringIO(buf.getvalue(), newline="")))
        assert (row["ended_at"], row["end_reason"], row["browser_name"]) == ("", "", "")
        (read,) = read_export_table(mem_store, "log_session", io.StringIO(buf.getvalue(), newline=""))
        cols = TABLE_COLUMNS["log_session"]
        assert [read[cols.index(c)] for c in ("ended_at", "end_reason", "browser_name")] == [
            None, None, ""]
        pages = io.StringIO(newline="")
        mem_store.export_table("log_page", pages)
        (page,) = read_export_table(mem_store, "log_page", io.StringIO(pages.getvalue(), newline=""))
        cols = TABLE_COLUMNS["log_page"]
        assert [page[cols.index(c)] for c in ("log_error_text", "log_app_service")] == [None, ""]


def _row_sizes(store) -> dict[str, float]:
    """Mean exported row bytes of each log table, before ``store_stats`` rounds them."""
    return {table: mean for table, (_, mean) in store._log_table_sizes().items()}


# The TEXT columns whose record checks take only a few values; every other
# TEXT column but the times takes any text.
_CHECKED_TEXT = ("user_type", "gender", "referral_class", "end_reason")


def _free_text_columns(table: str) -> dict[str, tuple[type, bool]]:
    """``(kind, nullable)`` of each column of ``table`` that takes any text:
    ``str``, or ``dict`` for a map stored as its JSON text."""
    hints = typing.get_type_hints(storage._CODECS[table].record_type)
    columns = {}
    for col in TABLE_COLUMNS[table]:
        kind = storage._field_type(hints[col])  # a time is a datetime or date
        if kind in (str, dict) and col not in _CHECKED_TEXT:
            columns[col] = kind, type(None) in typing.get_args(hints[col])
    return columns


# Text dense in what the export quotes (`,` `"` `\n` `\r`), NUL, the braces
# of a map's JSON and non-ASCII, often empty.
_STATS_CHARS = st.sampled_from([",", '"', "\n", "\r", "\x00", "{", "}", "é", "😀", "a"])
_STATS_TEXT = st.text(_STATS_CHARS, max_size=6)


def _odd_records(table: str, **fixed) -> st.SearchStrategy[dict]:
    """Keyword arguments for a record of ``table``: ``_STATS_TEXT``, or None
    where the column may be NULL, in every free-text column; a map of it in
    every map column; ``fixed`` names the strategies of other fields."""
    fields = {}
    for col, (kind, nullable) in _free_text_columns(table).items():
        text = _STATS_TEXT if kind is str else st.dictionaries(_STATS_TEXT, _STATS_TEXT, max_size=3)
        fields[col] = st.none() | text if nullable else text
    return st.fixed_dictionaries({**fields, **fixed})


class TestStats:
    def test_store_stats_row_counts(self, sim_store, small_workload):
        _, _, truth = small_workload
        stats = sim_store.store_stats()
        assert stats["rows.log_page"] == len(truth.events)
        assert stats["rows.log_session"] == len(truth.sessions)
        assert stats["rows.open_sessions"] == 0
        assert stats["avg_row_bytes.log_page"] > 0
        assert stats["avg_row_bytes.log_session"] > 0

    def test_row_size_stats_empty_store(self, mem_store):
        stats = _row_sizes(mem_store)
        assert stats == {"log_session": 0.0, "log_page": 0.0}

    @pytest.mark.parametrize("title", ["x\ny", "ders programı"])
    def test_row_size_is_the_exported_row_in_utf8_bytes(self, mem_store, title):
        opn = mem_store.insert_session(_session())
        mem_store.insert_page(_page(opn, log_page_title=title))
        buf = io.StringIO()
        mem_store.export_table("log_page", buf)
        row = buf.getvalue().split("\n", 1)[1].removesuffix("\n")
        assert title in row  # a newline stays inside the quoted field
        assert _row_sizes(mem_store)["log_page"] == len(row.encode("utf-8"))

    # Text the export quotes (`,` `"` `\n` `\r`), NUL before and after such a
    # character, non-ASCII, and empty.
    ODD_TEXT = ["a,b", 'say "hi"', '""', "x\ny", "cr\ronly", "\r\n", "nul\x00,after",
                'nul\x00"q', "\x00", "ders programı", "😀,é", "", "plain"]
    # Floats whose repr is not SQLite's 15-digit text, and plain ones.
    ODD_FLOATS = [0.1 + 0.2, 1e-07, 1e16, 123456.789012345678, 0.0, 1.5, 2.0]

    @staticmethod
    def _exported_mean(store, table) -> float:
        """Mean bytes of an exported row, less its header line and each
        row's `\n`, measured on ``export_table`` itself."""
        buf = io.StringIO()
        rows = store.export_table(table, buf)
        body = len(buf.getvalue().encode("utf-8")) - len(",".join(TABLE_COLUMNS[table])) - 1
        return (body - rows) / rows if rows else 0.0

    def _assert_sizes_match_export(self, store):
        stats = _row_sizes(store)
        assert stats == {table: self._exported_mean(store, table)
                         for table in ("log_session", "log_page")}

    def _fill_with_odd_values(self, store):
        odd = self.ODD_TEXT
        for i, text in enumerate(odd):
            nullable = None if i % 2 else ""  # '' and NULL in the nullable columns
            opn = store.insert_session(_session(
                ip=text or "-", username=nullable, language=text or nullable,
                referrer_url=text, search_engine=nullable, search_keywords=text,
                browser_name=text, os_version=odd[-1 - i],
                ended_at=T0 + timedelta(hours=1) if i % 3 else None,
                end_reason="timeout" if i % 3 else None,
            ))
            store.insert_page(_page(
                opn, log_url=text, log_username=nullable, log_page_title=odd[-1 - i],
                log_web_message=text, log_error_text=text if i % 2 else nullable,
                log_cookie_serialize={"k": text, "x,y": '"'} if i % 2 else {},
                log_get_serialize={text: text},
                log_page_load_time=self.ODD_FLOATS[i % len(self.ODD_FLOATS)],
                log_url_malformed=bool(i % 2), log_server=10 ** i,
            ))

    def test_row_size_matches_export_with_odd_values(self, mem_store):
        self._fill_with_odd_values(mem_store)
        self._assert_sizes_match_export(mem_store)

    def test_odd_values_export_reads_back_as_the_stored_rows(self, mem_store):
        """A cell holding a lone ``\r`` is quoted, so its row reads back whole."""
        self._fill_with_odd_values(mem_store)
        for table in TABLE_COLUMNS:
            buf = io.StringIO(newline="")
            mem_store.export_table(table, buf)
            read = read_export_table(mem_store, table, io.StringIO(buf.getvalue(), newline=""))
            assert read == stored_rows(mem_store, table, blank_is_null=True)
        # The store holds '' in nullable columns, which reads back as None.
        assert read != stored_rows(mem_store, "log_page")

    @pytest.mark.parametrize("load_time", ODD_FLOATS)
    def test_real_sized_as_its_repr(self, mem_store, load_time):
        opn = mem_store.insert_session(_session())
        for _ in range(3):
            mem_store.insert_page(_page(opn, log_page_load_time=load_time))
        self._assert_sizes_match_export(mem_store)

    def test_row_size_of_empty_log_tables(self, mem_store):
        self._assert_sizes_match_export(mem_store)
        mem_store.insert_session(_session())  # sessions, but no pages
        self._assert_sizes_match_export(mem_store)
        assert _row_sizes(mem_store)["log_page"] == 0.0

    def test_row_size_matches_export_with_odd_text_in_every_free_text_column(self, mem_store):
        columns = {table: _free_text_columns(table) for table in ("log_session", "log_page")}
        assert {"country_code", "browser_version", "os_name", "device_type",
                "language"} <= set(columns["log_session"])
        assert {"log_app_service", "log_module", "log_subtitle", "log_session_serialize",
                "log_post_serialize"} <= set(columns["log_page"])
        for text in self.ODD_TEXT:
            session, page = (
                {col: {text: text} if kind is dict else text for col, (kind, _) in cols.items()}
                for cols in columns.values()
            )
            session["ip"] = text or "-"  # SessionRecord.validate refuses an empty ip
            opn = mem_store.insert_session(_session(**session))
            mem_store.insert_page(_page(opn, **page))
        self._assert_sizes_match_export(mem_store)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_sizes_match_export_across_chunk_boundaries(self, mem_store, sim_store, monkeypatch,
                                                        chunk):
        monkeypatch.setattr(storage, "_STATS_CHUNK", chunk)

        def plain_rows():
            for _ in range(3):
                mem_store.insert_page(_page(mem_store.insert_session(_session())))

        # Rows without a quote trigger in any cell before and after the odd ones,
        # so a chunk that needs no count of quoted cells borders one that does.
        plain_rows()
        self._fill_with_odd_values(mem_store)
        plain_rows()
        reads = []
        mem_store._conn.set_trace_callback(reads.append)
        self._assert_sizes_match_export(mem_store)
        mem_store._conn.set_trace_callback(None)
        chunk_reads = sum("group_concat" in sql and "log_page" in sql for sql in reads)
        pages = mem_store.page_count()
        assert chunk_reads == -(-pages // chunk) + 1  # the last read finds no row
        self._assert_sizes_match_export(sim_store)

    @settings(max_examples=100, deadline=None)
    @given(
        sessions=st.lists(st.tuples(
            _odd_records("log_session", ip=st.text(_STATS_CHARS, min_size=1, max_size=6)),
            st.lists(_odd_records("log_page", log_page_load_time=st.sampled_from(ODD_FLOATS)),
                     max_size=3),
        ), max_size=6),
        chunk=st.sampled_from([1, 2, 3, 1024]),
    )
    def test_sizes_equal_the_export_means(self, sessions, chunk):
        store = LogStore(":memory:")
        try:
            for session, pages in sessions:
                opn = store.insert_session(_session(**session))
                for page in pages:
                    store.insert_page(_page(opn, **page))
            with mock.patch.object(storage, "_STATS_CHUNK", chunk):
                self._assert_sizes_match_export(store)
        finally:
            store.close()
