import io
import re
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage.events import AppPageResult
from webusage.storage import (
    ConstraintError,
    ForeignKeyError,
    LogStore,
    MapFormatError,
    OpenSession,
    PageRecord,
    SessionRecord,
    TABLE_COLUMNS,
    StorageError,
    UserInfo,
    deserialize_map,
    parse_load_time,
    serialize_map,
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

    @settings(max_examples=100)
    @given(st.dictionaries(st.text(max_size=10), st.text(max_size=10), max_size=5))
    def test_round_trip_property(self, m):
        assert deserialize_map(serialize_map(m)) == m

    def test_decimal_comma_load_time(self):
        assert parse_load_time("0,0266") == pytest.approx(0.0266)
        assert parse_load_time("1.5") == pytest.approx(1.5)


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


class TestPages:
    def test_first_page_id(self, mem_store):
        opn = mem_store.insert_session(_session())
        assert mem_store.insert_page(_page(opn)) == 1

    def test_dangling_session_rejected(self, mem_store):
        with pytest.raises(ForeignKeyError):
            mem_store.insert_page(_page(99))

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
            log_cookie_serialize=serialize_map({"theme": "0", "lang": "0", "limit": "15"}),
            log_session_serialize=serialize_map({"ses_uid": "166553", "ses_id": str(opn)}),
            log_post_serialize="{}",
            log_get_serialize=serialize_map({"page": "info"}),
            log_page_load_time=parse_load_time("0,0266"),
        )
        page_id = mem_store.insert_page(rec)
        got = mem_store.get_page(page_id)
        rec.log_details_id = page_id
        assert got == rec
        assert deserialize_map(got.log_get_serialize) == {"page": "info"}

    def test_log_date_defaults_to_datetime_date(self, mem_store):
        opn = mem_store.insert_session(_session())
        page_id = mem_store.insert_page(_page(opn))
        assert mem_store.get_page(page_id).log_date == T0.date()

    def test_log_date_mismatch_rejected(self, mem_store):
        opn = mem_store.insert_session(_session())
        with pytest.raises(ConstraintError):
            mem_store.insert_page(_page(opn, log_date=date(1999, 1, 1)))

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
        got = mem_store.get_page(page_id)
        assert got.log_page_title == "Info"
        assert got.log_page_load_time == pytest.approx(0.0266)

    def test_update_missing_page_rejected(self, mem_store):
        with pytest.raises(StorageError, match="999"):
            mem_store.update_page_result(999, AppPageResult())


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
        mem_store.put_open_session(OpenSession("tokA", opn, None, T0, T0))
        got = mem_store.get_open_session("tokA")
        assert got.opn_id == opn
        later = T0.replace(hour=11)
        mem_store.touch_open_session("tokA", later)
        assert mem_store.get_open_session("tokA").last_activity == later
        mem_store.delete_open_session("tokA")
        assert mem_store.get_open_session("tokA") is None

    def test_open_session_carries_its_session_username(self, mem_store):
        mem_store.upsert_user(UserInfo(7, "u0007", "academic_staff", "female"))
        opn = mem_store.insert_session(_session(
            user_id=7, username="u0007", user_type="academic_staff", gender="female"))
        mem_store.put_open_session(OpenSession("tokA", opn, 7, T0, T0))
        guest = mem_store.insert_session(_session())
        mem_store.put_open_session(OpenSession("tokB", guest, None, T0, T0))
        assert mem_store.get_open_session("tokA").username == "u0007"
        assert mem_store.get_open_session("tokB").username is None

    def test_open_sessions_idle_since_reads_whole_seconds(self, mem_store):
        for i, seconds in enumerate((30, 0, 10, 11)):
            opn = mem_store.insert_session(_session())
            at = T0 + timedelta(seconds=seconds)
            mem_store.put_open_session(OpenSession(f"tok{i}", opn, None, at, at))
        cutoff = T0 + timedelta(seconds=10, microseconds=900_000)
        got = mem_store.open_sessions_idle_since(cutoff)
        assert [o.session_token for o in got] == ["tok1", "tok2"]

    def test_iter_open_sessions(self, mem_store):
        for i in range(3):
            opn = mem_store.insert_session(_session())
            mem_store.put_open_session(OpenSession(f"tok{i}", opn, None, T0, T0))
        assert len(list(mem_store.iter_open_sessions())) == 3


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

    def test_pages_by_hour_and_user_type(self, mem_store):
        guest = mem_store.insert_session(_session())
        for hour in (0, 10, 10, 23):
            mem_store.insert_page(_page(guest, log_datetime=T0.replace(hour=hour)))
        assert sorted(mem_store.pages_by_hour_and_user_type()) == [
            (0, "guest", 1), (10, "guest", 2), (23, "guest", 1),
        ]


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


class TestSchema:
    TABLES = ("user_info", "log_geoip", "log_session", "open_sessions", "log_page")

    def _documented_nullable(self) -> dict[str, set[str]]:
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        listing = " ".join(text.split("nullable in the schema (", 1)[1].split(")", 1)[0].split())
        found = {t: set() for t in self.TABLES}
        for table, cols in re.findall(r"`(\w+)`: `([\w, ]+)`", listing):
            found[table] = {c.strip() for c in cols.split(",")}
        return found

    def test_columns_and_nullability_match_schema_and_doc(self, mem_store):
        assert tuple(TABLE_COLUMNS) == self.TABLES
        documented = self._documented_nullable()
        assert all(documented[t] for t in ("log_session", "open_sessions", "log_page"))
        for table in self.TABLES:
            info = mem_store._query(f"PRAGMA table_info({table})")
            assert tuple(row[1] for row in info) == TABLE_COLUMNS[table]
            nullable = {name for _, name, _, notnull, _, pk in info if not notnull and not pk}
            assert nullable == documented[table], table


class TestExportImport:
    def test_unknown_table_rejected(self, mem_store):
        with pytest.raises(ValueError, match="unknown table"):
            mem_store.export_table("no_such", io.StringIO())

    def test_export_import_round_trip(self, sim_store, tmp_path):
        paths = sim_store.export_all(tmp_path)
        assert set(paths) == {
            "user_info", "log_geoip", "log_session", "open_sessions", "log_page",
        }
        copy = LogStore(":memory:")
        for table in ("user_info", "log_geoip", "log_session", "open_sessions", "log_page"):
            with paths[table].open(encoding="utf-8", newline="") as fh:
                copy.import_table(table, fh)
        assert copy.session_count() == sim_store.session_count()
        assert copy.page_count() == sim_store.page_count()
        original = list(sim_store.join_sessions_pages())
        restored = list(copy.join_sessions_pages())
        assert restored == original
        copy.close()

    def test_import_rejects_wrong_header(self, mem_store):
        with pytest.raises(StorageError, match="header"):
            mem_store.import_table("user_info", io.StringIO("a,b\n1,2\n"))

    def test_import_enforces_foreign_keys(self, mem_store):
        csv_text = (
            "log_details_id,log_opn_id,log_uid,log_username,log_datetime,log_date,"
            "log_server,log_app_service,log_module,log_url,log_web_message,"
            "log_subtitle,log_page_title,log_cookie_serialize,log_session_serialize,"
            "log_post_serialize,log_get_serialize,log_page_load_time,log_error_text,"
            "log_url_malformed\n"
            '1,42,,,2021-09-02 10:12:18,2021-09-02,1,,, /x,,,,{},{},{},{},0.0,,0\n'
        )
        with pytest.raises(ForeignKeyError):
            mem_store.import_table("log_page", io.StringIO(csv_text))


class TestStats:
    def test_store_stats_row_counts(self, sim_store, small_workload):
        _, _, truth = small_workload
        stats = sim_store.store_stats()
        assert stats["rows.log_page"] == len(truth.events)
        assert stats["rows.log_session"] == truth.session_count()
        assert stats["rows.open_sessions"] == 0
        assert stats["avg_row_bytes.log_page"] > 0
        assert stats["avg_row_bytes.log_session"] > 0

    def test_row_size_stats_empty_store(self, mem_store):
        stats = mem_store.row_size_stats()
        assert stats == {"log_session": 0.0, "log_page": 0.0}

    @pytest.mark.parametrize("title", ["x\ny", "ders programı"])
    def test_row_size_is_the_exported_row_in_utf8_bytes(self, mem_store, title):
        opn = mem_store.insert_session(_session())
        mem_store.insert_page(_page(opn, log_page_title=title))
        buf = io.StringIO()
        mem_store.export_table("log_page", buf)
        row = buf.getvalue().split("\n", 1)[1].removesuffix("\n")
        assert title in row  # a newline stays inside the quoted field
        assert mem_store.row_size_stats()["log_page"] == len(row.encode("utf-8"))
