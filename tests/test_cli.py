"""Command-line interface: subcommands, output contracts, exit codes."""

import csv
import hashlib
import json
import re
import sqlite3
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from webusage.cli import REPORT_KINDS, main
from webusage.events import AppPageResult
from webusage.storage import TABLE_COLUMNS, LogStore, PageRecord, SessionRecord, UserInfo
from webusage.truth import load_truth

SIM_ARGS = [
    "simulate", "--seed", "5", "--users", "12", "--session-rate", "3",
    "--pageviews-mean", "5", "--cached-nav-share", "0.15",
    "--duration", str(2 * 86400),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated workload, collected and preprocessed through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    sim_dir = root / "sim"
    assert main(SIM_ARGS + ["--out", str(sim_dir)]) == 0
    store = root / "store.db"
    rc = main([
        "collect", str(sim_dir / "events.replay"),
        "--store", str(store),
        "--users", str(sim_dir / "truth.csv"),
    ])
    assert rc == 0
    sessions_csv = root / "sessions.csv"
    rc = main([
        "preprocess", str(sim_dir / "access.log"),
        "--mode", "page_gap", "--page-gap", "1800",
        "--out", str(sessions_csv),
    ])
    assert rc == 0
    return {
        "root": root,
        "replay": sim_dir / "events.replay",
        "eclf": sim_dir / "access.log",
        "truth": sim_dir / "truth.csv",
        "store": store,
        "sessions": sessions_csv,
    }


class TestSimulate:
    def test_writes_three_files_and_prints_their_paths(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(SIM_ARGS + ["--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        for name, filename in (("replay", "events.replay"),
                               ("eclf", "access.log"),
                               ("truth", "truth.csv")):
            path = out_dir / filename
            assert path.is_file() and path.stat().st_size > 0
            assert f"{name}: {path}" in printed

    def test_rerun_is_byte_identical(self, tmp_path, workspace):
        out_dir = tmp_path / "again"
        assert main(SIM_ARGS + ["--out", str(out_dir)]) == 0
        for name in ("events.replay", "access.log", "truth.csv"):
            assert (out_dir / name).read_bytes() == (
                workspace["truth"].parent / name
            ).read_bytes()

    def test_out_of_range_share_exits_2_naming_the_flag(self, tmp_path, capsys):
        rc = main(["simulate", "--nat-share", "1.5", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nat-share" in err and err.startswith("error:")

    def test_no_noise_log_has_no_crawler_lines(self, tmp_path):
        out_dir = tmp_path / "quiet"
        assert main(SIM_ARGS + ["--no-noise", "--out", str(out_dir)]) == 0
        log = (out_dir / "access.log").read_text(encoding="utf-8")
        assert "bot" not in log.lower()
        assert "/static/" not in log


class TestCollect:
    def test_reports_session_and_page_counts(self, workspace, capsys):
        store = workspace["root"] / "fresh.db"
        rc = main([
            "collect", str(workspace["replay"]),
            "--store", str(store),
            "--users", str(workspace["truth"]),
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        truth = load_truth(workspace["truth"])
        assert f"sessions={truth.session_count()} pageviews={len(truth.events)}" \
            in captured

    def test_missing_replay_exits_2(self, tmp_path, capsys):
        rc = main(["collect", str(tmp_path / "nope.replay"),
                   "--store", str(tmp_path / "s.db")])
        assert rc == 2
        assert "replay file not found" in capsys.readouterr().err

    def test_corrupt_replay_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.replay"
        bad.write_text("this is not a replay line\n", encoding="utf-8")
        rc = main(["collect", str(bad), "--store", str(tmp_path / "s.db")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_geoip_file_exits_1(self, workspace, tmp_path, capsys):
        geoip = tmp_path / "geo.csv"
        geoip.write_text("0,100,AA\n50,200,BB\n", encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "s.db"), "--geoip", str(geoip)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_store_in_missing_directory_exits_1(self, workspace, tmp_path, capsys):
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "missing" / "s.db")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unrecognized_users_file_exits_2(self, workspace, tmp_path, capsys):
        users = tmp_path / "users.csv"
        users.write_text("id,name\n1,alice\n", encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "s.db"), "--users", str(users)])
        assert rc == 2
        assert "users file header" in capsys.readouterr().err


    def test_mixed_offset_and_naive_times_stored_as_utc(self, tmp_path, capsys):
        replay = tmp_path / "mixed.replay"
        replay.write_text(
            "ip=10.0.0.1 time=2021-09-02T10:00:00 method=GET url=/a token=t1\n"
            "ip=10.0.0.1 time=2021-09-02T13:05:00+03:00 method=GET url=/b token=t1\n"
            "ip=10.0.0.2 time=2021-09-02T10:07:00Z method=GET url=/c token=t2\n",
            encoding="utf-8",
        )
        store = tmp_path / "s.db"
        rc = main(["collect", str(replay), "--store", str(store)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "Traceback" not in captured.err
        assert main(["export", "--store", str(store), "--out", str(tmp_path / "x")]) == 0
        with open(tmp_path / "x" / "log_page.csv", encoding="utf-8", newline="") as fh:
            times = [row["log_datetime"] for row in csv.DictReader(fh)]
        assert times == [
            "2021-09-02 10:00:00", "2021-09-02 10:05:00", "2021-09-02 10:07:00",
        ]

    def test_failed_replay_keeps_previous_store(self, workspace, tmp_path, capsys):
        store = tmp_path / "kept.db"
        store.write_bytes(workspace["store"].read_bytes())
        good = workspace["replay"].read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "bad.replay"
        bad.write_text(good + "\nthis is not a replay line\n", encoding="utf-8")
        rc = main(["collect", str(bad), "--store", str(store)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert store.read_bytes() == workspace["store"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.replay", "kept.db"]

    def test_prints_only_the_first_10_collection_errors(self, tmp_path, capsys):
        replay = tmp_path / "bad_ips.replay"
        replay.write_text(
            "".join(
                f"ip= time=2021-09-02T10:00:{i:02d} method=GET url=/a token=t{i}\n"
                for i in range(12)
            ),
            encoding="utf-8",
        )
        rc = main(["collect", str(replay), "--store", str(tmp_path / "s.db")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("collection error:") == 10
        assert len(err.splitlines()) == 10


class TestPreprocess:
    def test_writes_sessions_csv_and_prints_stats(self, workspace, capsys):
        out = workspace["root"] / "pp.csv"
        rc = main(["preprocess", str(workspace["eclf"]), "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == "user_key,session_id,seq,time,resource,inferred"
        for key in ("lines:", "parse_errors:", "kept:", "dropped_static:",
                    "dropped_bot:", "users:", "sessions:", "inferred_events:",
                    "incomplete_paths:"):
            assert key in printed

    def test_missing_log_exits_2(self, tmp_path, capsys):
        rc = main(["preprocess", str(tmp_path / "gone.log"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "log file not found" in capsys.readouterr().err

    def test_unknown_mode_rejected_by_parser(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["preprocess", str(workspace["eclf"]),
                  "--mode", "telepathy", "--out", str(tmp_path / "s.csv")])
        assert info.value.code == 2


class TestReport:
    @pytest.mark.parametrize("kind,first_header_cell", [
        ("usage-buckets", "visitor_type"),
        ("user-type-gender", "user_type"),
        ("hourly-cube", "hour"),
        ("device", "device"),
        ("os", "os"),
        ("browser", "browser"),
        ("country", "country"),
        ("language", "language"),
        ("top-ips", "ip"),
        ("top-users", "user_id"),
    ])
    def test_csv_kinds_start_with_their_header(self, workspace, capsys,
                                               kind, first_header_cell):
        rc = main(["report", "--store", str(workspace["store"]), "--kind", kind])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].split(",")[0] == first_header_cell

    def test_search_tables(self, workspace, capsys):
        assert main(["report", "--store", str(workspace["store"]),
                     "--kind", "search-engines"]) == 0
        engines = capsys.readouterr().out
        assert engines.splitlines()[0] == "engine,sessions"
        assert main(["report", "--store", str(workspace["store"]),
                     "--kind", "search-keywords"]) == 0
        keywords = capsys.readouterr().out
        assert keywords.splitlines()[0] == "keywords,sessions"

    def test_stats_lists_row_counts(self, workspace, capsys):
        assert main(["report", "--store", str(workspace["store"]),
                     "--kind", "stats"]) == 0
        out = capsys.readouterr().out
        assert "rows.log_page:" in out and "rows.log_session:" in out

    def test_plot_emits_tab_separated_points(self, workspace, capsys):
        rc = main(["report", "--store", str(workspace["store"]),
                   "--kind", "hourly-cube", "--plot"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 24
        assert all("\t" in line for line in lines)
        assert lines[0].startswith("00\t")

    def test_top_ips_honors_n(self, workspace, capsys):
        rc = main(["report", "--store", str(workspace["store"]),
                   "--kind", "top-ips", "--n", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) <= 4  # header + at most 3 rows

    def test_out_file_instead_of_stdout(self, workspace, tmp_path, capsys):
        target = tmp_path / "device.csv"
        rc = main(["report", "--store", str(workspace["store"]),
                   "--kind", "device", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("device,sessions,ratio")

    def test_missing_store_exits_2(self, tmp_path, capsys):
        rc = main(["report", "--store", str(tmp_path / "none.db"),
                   "--kind", "device"])
        assert rc == 2
        assert "store not found" in capsys.readouterr().err

    def test_store_that_is_not_sqlite_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.db"
        bogus.write_text("not a database\n" * 100, encoding="utf-8")
        rc = main(["report", "--store", str(bogus), "--kind", "device"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_top_lists_default_to_15_ips_and_20_users(self, tmp_path, capsys):
        store_path = tmp_path / "many.db"
        store = LogStore(store_path)
        for i in range(25):
            store.upsert_user(UserInfo(i + 1, f"user{i:02d}", "student", "female"))
            opn = store.insert_session(SessionRecord(
                ip=f"10.0.0.{i + 1}", started_at=datetime(2021, 9, 2, 10),
                user_id=i + 1, username=f"user{i:02d}", user_type="student",
                gender="female",
            ))
            store.insert_page(PageRecord(opn, datetime(2021, 9, 2, 10), "/x"))
        store.close()
        for kind, rows in (("top-ips", 15), ("top-users", 20)):
            assert main(["report", "--store", str(store_path), "--kind", kind]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1 + rows

    def test_unknown_kind_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit) as info:
            main(["report", "--store", str(workspace["store"]),
                  "--kind", "horoscope"])
        assert info.value.code == 2


class TestCompare:
    def test_prints_both_reports_and_the_gap(self, workspace, capsys):
        rc = main(["compare", "--store", str(workspace["store"]),
                   "--baseline", str(workspace["sessions"]),
                   "--truth", str(workspace["truth"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "collector:" in out and "baseline:" in out
        assert out.count("exact_session_match_rate:") == 2
        assert "exact_session_match_rate gap (collector - baseline): " in out
        gap_line = [l for l in out.splitlines() if l.startswith("exact_session")][-1]
        float(gap_line.rsplit(" ", 1)[1])  # parses as a number

    def test_collector_is_exact_on_clean_workload(self, workspace, capsys):
        main(["compare", "--store", str(workspace["store"]),
              "--baseline", str(workspace["sessions"]),
              "--truth", str(workspace["truth"])])
        out = capsys.readouterr().out
        collector_block = out.split("baseline:")[0]
        assert "  exact_session_match_rate: 1.000000" in collector_block

    def test_mismatched_truth_exits_2(self, workspace, tmp_path, capsys):
        truncated = tmp_path / "short.csv"
        lines = workspace["truth"].read_text(encoding="utf-8").splitlines()
        truncated.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        rc = main(["compare", "--store", str(workspace["store"]),
                   "--baseline", str(workspace["sessions"]),
                   "--truth", str(truncated)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExport:
    def test_writes_one_csv_per_table(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "dump"
        rc = main(["export", "--store", str(workspace["store"]),
                   "--out", str(out_dir)])
        printed = capsys.readouterr().out
        assert rc == 0
        for table in TABLE_COLUMNS:
            path = out_dir / f"{table}.csv"
            assert path.is_file()
            header = path.read_text(encoding="utf-8").splitlines()[0]
            assert header == ",".join(TABLE_COLUMNS[table])
            assert f"{table}: {path}" in printed

    def test_missing_store_exits_2(self, tmp_path, capsys):
        rc = main(["export", "--store", str(tmp_path / "no.db"),
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_store_that_is_not_sqlite_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.db"
        bogus.write_text("not a database\n" * 100, encoding="utf-8")
        rc = main(["export", "--store", str(bogus), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestReadOnlyCommands:
    """report, compare and export never write into the file --store names."""

    @pytest.fixture(params=["empty", "foreign"])
    def not_a_store(self, request, tmp_path):
        path = tmp_path / f"{request.param}.db"
        if request.param == "empty":
            path.write_bytes(b"")
        else:
            conn = sqlite3.connect(path)
            conn.execute("CREATE TABLE notes (body TEXT)")
            conn.execute("INSERT INTO notes VALUES ('keep me')")
            conn.commit()
            conn.close()
        return path

    @pytest.mark.parametrize("command", ["report", "compare", "export"])
    def test_leaves_file_unchanged_and_exits_1(
        self, command, not_a_store, workspace, tmp_path, capsys
    ):
        before = hashlib.sha256(not_a_store.read_bytes()).hexdigest()
        extra = {
            "report": ["--kind", "stats"],
            "compare": ["--baseline", str(workspace["sessions"]),
                        "--truth", str(workspace["truth"])],
            "export": ["--out", str(tmp_path / "dump")],
        }[command]
        rc = main([command, "--store", str(not_a_store), *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert hashlib.sha256(not_a_store.read_bytes()).hexdigest() == before


class TestNotAStore:
    """report, compare and export name a --store file without the store tables."""

    @pytest.fixture(params=["empty", "foreign", "text"])
    def not_a_store(self, request, tmp_path):
        path = tmp_path / f"{request.param}.db"
        if request.param == "empty":
            path.write_bytes(b"")
        elif request.param == "foreign":
            conn = sqlite3.connect(path)
            conn.execute("CREATE TABLE notes (body TEXT)")
            conn.commit()
            conn.close()
        else:
            path.write_text("not a database\n" * 100, encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["report", "compare", "export"])
    def test_error_names_the_file(self, command, not_a_store, workspace, tmp_path, capsys):
        extra = {
            "report": ["--kind", "stats"],
            "compare": ["--baseline", str(workspace["sessions"]),
                        "--truth", str(workspace["truth"])],
            "export": ["--out", str(tmp_path / "dump")],
        }[command]
        rc = main([command, "--store", str(not_a_store), *extra])
        assert rc == 1
        assert capsys.readouterr().err == f"error: not a webusage store: {not_a_store}\n"

    def test_other_sqlite_errors_keep_their_text(self, workspace, tmp_path, capsys):
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "missing" / "s.db")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unable to open database file\n"


class TestCollectSessions:
    """FORMATS.md "Sessions (request API)": what collect leaves in the store."""

    def test_final_sweep_closes_every_session_at_its_last_page(self, workspace):
        store = LogStore(workspace["store"].resolve().as_uri() + "?mode=ro")
        try:
            assert list(store.iter_open_sessions()) == []
            last_page = {}
            for session, page in store.join_sessions_pages():
                assert (page.log_uid, page.log_username) == (session.user_id, session.username)
                last_page[session.opn_id] = max(
                    last_page.get(session.opn_id, page.log_datetime), page.log_datetime)
            assert len(last_page) == store.session_count()
            for opn_id, last in last_page.items():
                session = store.get_session(opn_id)
                assert (session.end_reason, session.ended_at) == ("timeout", last)
        finally:
            store.close()


class TestFormatsContract:
    """FORMATS.md claims about output text, checked on CLI output."""

    def _export(self, store, out_dir) -> list[dict]:
        assert main(["export", "--store", str(store), "--out", str(out_dir)]) == 0
        with open(out_dir / "log_page.csv", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_report_kinds_list_matches_cli(self):
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        listing = text.split("Report kinds:", 1)[1].split("\n\n", 1)[0]
        assert tuple(re.findall(r"`([\w-]+)`", listing)) == REPORT_KINDS

    def test_stats_keys(self, workspace, capsys):
        assert main(["report", "--store", str(workspace["store"]), "--kind", "stats"]) == 0
        keys = [line.split(": ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == sorted(
            [f"rows.{table}" for table in TABLE_COLUMNS]
            + ["avg_row_bytes.log_session", "avg_row_bytes.log_page"]
        )

    def test_distribution_ratios_print_as_float_repr(self, workspace, capsys):
        assert main(["report", "--store", str(workspace["store"]), "--kind", "device"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        total = sum(int(n) for _, n, _ in rows)
        assert any(len(ratio) > 4 for _, _, ratio in rows)
        for _, n, ratio in rows:
            assert ratio == repr(int(n) / total)

    def test_load_time_exports_with_dot_decimal(self, workspace, tmp_path):
        store_path = tmp_path / "timed.db"
        store_path.write_bytes(workspace["store"].read_bytes())
        store = LogStore(store_path)
        store.update_page_result(1, AppPageResult(page_load_time=0.0266))
        store.close()
        rows = self._export(store_path, tmp_path / "x")
        assert rows[0]["log_page_load_time"] == "0.0266"
        assert {r["log_page_load_time"] for r in rows[1:]} == {"0.0"}

    def test_serialize_maps_are_compact_sorted_json(self, workspace, tmp_path):
        rows = self._export(workspace["store"], tmp_path / "x")
        assert any('","' in row["log_session_serialize"] for row in rows)
        for row in rows:
            for col in ("log_cookie_serialize", "log_session_serialize",
                        "log_post_serialize", "log_get_serialize"):
                cell = row[col]
                assert cell == json.dumps(json.loads(cell), sort_keys=True,
                                          separators=(",", ":"), ensure_ascii=False)


class TestParserContract:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestSubprocess:
    """The package must be runnable as `python -m webusage`."""

    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "webusage", *args],
            capture_output=True, text=True, cwd=cwd,
        )

    def test_help_exits_0(self):
        proc = self.run_cli("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "compare" in proc.stdout

    def test_simulate_collect_round_trip(self, tmp_path):
        sim = self.run_cli(*SIM_ARGS, "--out", str(tmp_path / "sim"))
        assert sim.returncode == 0, sim.stderr
        collect = self.run_cli(
            "collect", str(tmp_path / "sim" / "events.replay"),
            "--store", str(tmp_path / "s.db"),
            "--users", str(tmp_path / "sim" / "truth.csv"),
        )
        assert collect.returncode == 0, collect.stderr
        assert collect.stdout.startswith("sessions=")

    def test_config_error_propagates_exit_code(self, tmp_path):
        proc = self.run_cli("simulate", "--duration", "10",
                            "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "duration" in proc.stderr
