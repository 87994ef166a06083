"""Command-line interface: subcommands, output contracts, exit codes."""

import argparse
import csv
import dataclasses
import gzip
import hashlib
import io
import json
import os
import re
import shutil
import sqlite3
import subprocess
import sys
import typing
from datetime import datetime, timedelta
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

from webusage import cli
from webusage.analytics import report_to_csv, report_to_plot, search_report_to_csv
from webusage.baseline import PreprocessStats
from webusage.cli import REPORT_KINDS, REPORTS, main
from webusage.collector import CollectionError, Collector, replay_stream
from webusage.events import AppPageResult, RawRequestEvent, parse_replay_line
from webusage.simulator import OPTION_NAMES, SITE_HOST, WorkloadConfig
from webusage.storage import (
    TABLE_COLUMNS, USER_TYPES, LogStore, PageRecord, SessionRecord, UserInfo,
)
from webusage.truth import load_truth

import oracles

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
        """FORMATS.md "Numeric ranges": a share is 0 to 1."""
        rc = main(["simulate", "--nat-share", "1.5", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nat-share" in err and err.startswith("error:")

    def test_defaults_are_the_workload_config_defaults(self, capsys):
        args = vars(cli.build_parser().parse_args(["simulate", "--out", "x"]))
        defaults = dataclasses.asdict(WorkloadConfig())
        defaults["users"] = defaults.pop("n_users")
        defaults["pageviews_mean"] = defaults.pop("pageviews_per_session_mean")
        assert {k: v for k, v in args.items() if k not in ("command", "func")} == {
            **defaults, "no_noise": False, "out": "x"}
        hints = typing.get_type_hints(WorkloadConfig)
        assert all(type(getattr(WorkloadConfig(), name)) is hint for name, hint in hints.items())
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        shown = capsys.readouterr().out
        assert "--users USERS" in shown and "--pageviews-mean PAGEVIEWS_MEAN" in shown

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
        assert f"sessions={len(truth.sessions)} pageviews={len(truth.events)}" \
            in captured

    def test_missing_replay_exits_2(self, tmp_path, capsys):
        """FORMATS.md "Exit codes": a missing file is a usage error."""
        rc = main(["collect", str(tmp_path / "nope.replay"),
                   "--store", str(tmp_path / "s.db")])
        assert rc == 2
        assert "replay file not found" in capsys.readouterr().err

    def test_corrupt_replay_exits_1(self, tmp_path, capsys):
        """FORMATS.md "Exit codes": bad replay data is a runtime failure."""
        bad = tmp_path / "bad.replay"
        bad.write_text("this is not a replay line\n", encoding="utf-8")
        rc = main(["collect", str(bad), "--store", str(tmp_path / "s.db")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: replay file {bad} line 1: token without '=': 'this'\n"
        )

    def test_exported_geoip_table_loads_back(self, workspace, tmp_path, capsys):
        """FORMATS.md "Lookup data": the `log_geoip.csv` that `export` writes
        loads as it is."""
        assert main(["export", "--store", str(workspace["store"]),
                     "--out", str(tmp_path / "export")]) == 0
        store = tmp_path / "s.db"
        rc = main(["collect", str(workspace["replay"]), "--store", str(store),
                   "--geoip", str(tmp_path / "export" / "log_geoip.csv")])
        assert rc == 0
        assert main(["export", "--store", str(store), "--out", str(tmp_path / "again")]) == 0
        exported = (tmp_path / "export" / "log_geoip.csv").read_text(encoding="utf-8")
        assert exported.count("\n") > 1
        assert (tmp_path / "again" / "log_geoip.csv").read_text(encoding="utf-8") == exported

    def test_geoip_file_is_read_as_the_csv_dialect(self, workspace, tmp_path, capsys):
        """FORMATS.md "Lookup data": `--geoip` is read as "CSV dialect" says."""
        # A quoted cell keeps its CR LF, as in every other CSV input.
        geoip = tmp_path / "geo.csv"
        geoip.write_bytes(b'0,4294967295,"T\r\nR"\r\n')
        store = tmp_path / "s.db"
        assert main(["collect", str(workspace["replay"]), "--store", str(store),
                     "--geoip", str(geoip)]) == 0
        conn = sqlite3.connect(store)
        try:
            assert conn.execute("SELECT * FROM log_geoip").fetchall() == [
                (0, 4294967295, "T\r\nR")
            ]
            assert conn.execute("SELECT DISTINCT country_code FROM log_session").fetchall() == [
                ("T\r\nR",)
            ]
        finally:
            conn.close()

    def test_bad_geoip_file_exits_1(self, workspace, tmp_path, capsys):
        """FORMATS.md "Exit codes" and "Lookup data": a bad GeoIP table is a
        runtime failure."""
        geoip = tmp_path / "geo.csv"
        geoip.write_text("0,100,AA\n50,200,BB\n", encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "s.db"), "--geoip", str(geoip)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_store_in_missing_directory_exits_1(self, workspace, tmp_path, capsys):
        """FORMATS.md "Exit codes": a store path that cannot be opened is a
        runtime failure."""
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
        assert capsys.readouterr().err == (
            f"error: users file {users} line 1: expected header user_id,username,user_type,gender\n"
        )

    @pytest.mark.parametrize("row, reason", [
        ("user,1,alice", "expected 15 columns, got 3"),
        ("mystery" + "," * 14, "unknown row kind 'mystery'"),
        ("user,x,alice,student,female,desktop,,,,,,,,,",
         "invalid literal for int() with base 10: 'x'"),
    ])
    def test_bad_truth_users_file_exits_2(self, workspace, tmp_path, capsys, row, reason):
        store = tmp_path / "kept.db"
        store.write_bytes(workspace["store"].read_bytes())
        truth = tmp_path / "truth.csv"
        lines = workspace["truth"].read_text(encoding="utf-8").splitlines()
        truth.write_text(f"{lines[0]}\n{lines[1]}\n{row}\n", encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(store), "--users", str(truth)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: truth file {truth} line 3: {reason}\n"
        assert store.read_bytes() == workspace["store"].read_bytes()

    @pytest.mark.parametrize("row, width", [
        ("1,alice", 2),
        ("1,alice,student,female,extra", 5),
    ])
    def test_roster_row_of_wrong_width_exits_2(self, workspace, tmp_path, capsys, row, width):
        store = tmp_path / "kept.db"
        store.write_bytes(workspace["store"].read_bytes())
        users = tmp_path / "users.csv"
        users.write_text(
            f"user_id,username,user_type,gender\n2,bob,student,male\n{row}\n",
            encoding="utf-8",
        )
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(store), "--users", str(users)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: users file {users} line 3: expected 4 columns, got {width}\n"
        )
        assert store.read_bytes() == workspace["store"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.db", "users.csv"]

    @pytest.mark.parametrize("row, reason", [
        ("x,alice,student,female", "invalid literal for int() with base 10: 'x'"),
        ("1,alice,martian,female", "bad user_type for account: 'martian'"),
        ("1,alice,guest,not_applicable", "bad user_type for account: 'guest'"),
        ("1,,student,female", "username must be non-empty"),
        ("1,alice,unit_mission,female", "unit_mission records must carry gender not_applicable"),
        ("3,bob,student,male", "UNIQUE constraint failed: user_info.username"),
        ("99999999999999999999,alice,student,female",
         "user_id must be an integer in [-2**63, 2**63 - 1], got 99999999999999999999"),
    ])
    def test_bad_roster_cell_names_file_and_line(self, workspace, tmp_path, capsys, row, reason):
        store = tmp_path / "kept.db"
        store.write_bytes(workspace["store"].read_bytes())
        users = tmp_path / "users.csv"
        users.write_text(
            f"user_id,username,user_type,gender\n2,bob,student,male\n{row}\n",
            encoding="utf-8",
        )
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(store), "--users", str(users)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: users file {users} line 3: {reason}\n"
        assert store.read_bytes() == workspace["store"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.db", "users.csv"]


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

    def test_last_event_at_the_end_of_the_calendar_is_swept(self, tmp_path, capsys):
        """FORMATS.md "Numeric ranges": the last event's time plus the
        timeout is past 9999-12-31 23:59:59; collect closes the session all
        the same."""
        replay = tmp_path / "late.replay"
        replay.write_text(
            "ip=10.0.0.1 time=9999-12-31T23:59:00 method=GET url=/a token=t1\n",
            encoding="utf-8",
        )
        store = tmp_path / "s.db"
        rc = main(["collect", str(replay), "--store", str(store)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert captured.out == "sessions=1 pageviews=1\n"
        assert main(["export", "--store", str(store), "--out", str(tmp_path / "x")]) == 0
        with open(tmp_path / "x" / "log_session.csv", encoding="utf-8", newline="") as fh:
            rows = [(r["ended_at"], r["end_reason"]) for r in csv.DictReader(fh)]
        assert rows == [("9999-12-31 23:59:00", "timeout")]
        assert (tmp_path / "x" / "open_sessions.csv").read_text(encoding="utf-8") == (
            "session_token,opn_id,last_activity\n"
        )

    def test_failed_replay_keeps_previous_store(self, workspace, tmp_path, capsys):
        """FORMATS.md "Output files": the store is moved into place only once
        the replay has been read to the end."""
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

    @pytest.mark.parametrize("time", ["0001-01-01T00:30:00+03:00", "9999-12-31T23:30:00-03:00"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-store", "existing-store"])
    def test_offset_time_outside_the_calendar_in_utc_exits_1(
        self, workspace, tmp_path, capsys, time, existing,
    ):
        store = tmp_path / "kept.db"
        if existing:
            store.write_bytes(workspace["store"].read_bytes())
        bad = tmp_path / "bad.replay"
        bad.write_text(f"ip=10.0.0.1 time={time} method=GET url=/a token=t1\n", encoding="utf-8")
        rc = main(["collect", str(bad), "--store", str(store)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: replay file {bad} line 1: timestamp {time} is outside years 1-9999 in UTC\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.replay"] + ["kept.db"] * existing
        if existing:
            assert store.read_bytes() == workspace["store"].read_bytes()

    @pytest.mark.parametrize("server", ["99999999999999999999", "-99999999999999999999"])
    def test_a_server_outside_64_bits_is_one_collection_error(self, tmp_path, capsys, server):
        replay = tmp_path / "big.replay"
        replay.write_text("".join(
            f"ip=10.0.0.1 time=2021-09-02T10:00:0{i} method=GET url=/p{i} token=t1{extra}\n"
            for i, extra in enumerate(["", f" server={server}", ""])
        ), encoding="utf-8")
        store = tmp_path / "s.db"
        rc = main(["collect", str(replay), "--store", str(store)])
        assert rc == 1
        assert capsys.readouterr() == (
            "sessions=1 pageviews=2\n",
            "collection error: log_server must be an integer in [-2**63, 2**63 - 1],"
            f" got {server}\n",
        )
        kept = LogStore(store)
        try:
            assert kept._query("SELECT log_url FROM log_page") == [("/p0",), ("/p2",)]
        finally:
            kept.close()

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
        """FORMATS.md "Classical sessions CSV (`preprocess --out`)": the
        header, and one line per counter of its table, in the table's order,
        which is the order of ``PreprocessStats``' fields."""
        out = workspace["root"] / "pp.csv"
        rc = main(["preprocess", str(workspace["eclf"]), "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == "user_key,session_id,seq,time,resource,inferred"
        formats = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text("utf-8")
        table = formats.split("| counter | counts |", 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", table, re.M)
        names = [line.partition(": ")[0] for line in printed.splitlines()]
        assert names == documented == [f.name for f in dataclasses.fields(PreprocessStats)]

    def test_impossible_timestamp_counts_as_parse_error(self, workspace, tmp_path, capsys):
        """FORMATS.md "Access log (ECLF / CLF)": a bad line is counted under
        parse_errors and preprocess goes on with the next line."""
        lines = workspace["eclf"].read_text(encoding="utf-8").splitlines()
        stamp = re.search(r"\[([^\]]*)\]", lines[1]).group(1)
        lines.insert(1, lines[1].replace(stamp, "31/Feb/2021:10:00:00 +0300"))
        log = tmp_path / "access.log"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["preprocess", str(log), "--out", str(tmp_path / "s.csv")])
        printed = capsys.readouterr().out
        assert rc == 0
        assert f"lines: {len(lines)}\nparse_errors: 1\n" in printed

    def test_invalid_utf8_is_replaced_and_the_line_still_parsed(self, tmp_path, capsys):
        """FORMATS.md "Access log (ECLF / CLF)" and "Unreadable input rows":
        an invalid byte reads as U+FFFD, which reaches the sessions CSV's
        user_key."""
        log = tmp_path / "access.log"
        log.write_bytes(
            b'10.0.0.1 - - [02/Sep/2021:10:00:00 +0300] "GET /a.php HTTP/1.1" 200 512'
            b' "-" "Agent\xff/1.0"\n'
        )
        out = tmp_path / "s.csv"
        rc = main(["preprocess", str(log), "--out", str(out)])
        assert rc == 0
        assert "parse_errors: 0\n" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "10.0.0.1|Agent\ufffd/1.0,1,1,1630566000,/a.php,0",
        ]

    def test_missing_log_exits_2(self, tmp_path, capsys):
        """FORMATS.md "Exit codes": a missing file is a usage error."""
        rc = main(["preprocess", str(tmp_path / "gone.log"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "log file not found" in capsys.readouterr().err

    def test_unknown_mode_rejected_by_parser(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["preprocess", str(workspace["eclf"]),
                  "--mode", "telepathy", "--out", str(tmp_path / "s.csv")])
        assert info.value.code == 2


class TestNumericRanges:
    """FORMATS.md "Numeric ranges": a value outside a numeric flag's range, NaN
    included, exits 2 with one error line naming the flag or field, and
    writes nothing."""

    @pytest.mark.parametrize("value", ["inf", "1e308", "nan", "1e12", "0", "-1"])
    def test_collect_timeout(self, workspace, tmp_path, capsys, value):
        rc = main(["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                   "--timeout", value])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: timeout must be in (0, 31536000] seconds, got {float(value)}\n"
        )
        assert list(tmp_path.iterdir()) == []  # no store, no temporary file

    SIMULATE_RANGES = {"--timeout": "[60, 31536000]", "--duration": "[3600, 315360000]"}

    @pytest.mark.parametrize("flag,value", [
        ("--timeout", "nan"), ("--timeout", "inf"),
        ("--duration", "nan"), ("--duration", "inf"), ("--duration", "1e12"),
    ])
    def test_simulate(self, tmp_path, capsys, flag, value):
        rc = main(["simulate", flag, value, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flag[2:]}: must be in {self.SIMULATE_RANGES[flag]} seconds,"
            f" got {float(value)}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--page-gap", "--session-gap"])
    def test_preprocess_gap_nan(self, workspace, tmp_path, capsys, flag):
        # An empty log keeps no visitor, so the gaps are never used to split.
        empty = tmp_path / "logs" / "empty.log"
        empty.parent.mkdir()
        empty.write_text("", encoding="utf-8")
        for log in (workspace["eclf"], empty):
            out_dir = tmp_path / f"out-{log.stem}"
            out_dir.mkdir()
            rc = main(["preprocess", str(log), flag, "nan", "--out", str(out_dir / "s.csv")])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: {flag[2:].replace('-', '_')} must be greater than 0, got nan\n"
            )
            assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--session-rate", "--pageviews-mean", "--nat-share",
                                      "--dynamic-ip-share", "--cookie-loss-share",
                                      "--cached-nav-share"])
    def test_simulate_nan(self, tmp_path, capsys, flag):
        rc = main(["simulate", flag, "nan", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.fullmatch(rf"error: {flag[2:]}: must be [^\n]*, got nan\n", err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--page-gap", "--session-gap"])
    def test_preprocess_gap_not_above_0(self, workspace, tmp_path, capsys, flag, value):
        rc = main(["preprocess", str(workspace["eclf"]), flag, value,
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flag[2:].replace('-', '_')} must be greater than 0, got {float(value)}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode,flag", [("page_gap", "--page-gap"),
                                           ("session_duration", "--session-gap")])
    def test_preprocess_inf_turns_the_rule_off(self, workspace, tmp_path, capsys, mode, flag):
        """With its one rule off, a mode keeps each visitor in one session."""
        assert main(["preprocess", str(workspace["eclf"]), "--mode", mode, flag, "inf",
                     "--out", str(tmp_path / "s.csv")]) == 0
        stats = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert stats["sessions"] == stats["users"] != "0"

    def test_report_n_is_0_or_more(self, workspace, tmp_path, capsys):
        store = ["report", "--store", str(workspace["store"]), "--kind", "top-ips"]
        assert main([*store, "--n", "0"]) == 0
        assert capsys.readouterr().out == "ip,sessions,pageviews,pageviews_per_session\n"
        assert main([*store, "--n", "-1", "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == "error: --n must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    FLOAT_FLAGS = [("collect", "--timeout"), ("preprocess", "--page-gap"),
                   ("preprocess", "--session-gap")] + [
        ("simulate", f"--{OPTION_NAMES[f.name]}")
        for f in dataclasses.fields(WorkloadConfig) if type(f.default) is float
    ]

    @pytest.mark.parametrize("value", ["-inf", "-1e3", "-nan", "-Infinity"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_a_negative_value_in_any_float_form_reaches_the_range_check(
        self, workspace, tmp_path, capsys, command, flag, value
    ):
        """Not only a plain decimal such as `-1`: every text that `float()`
        reads is the flag's value, not an option."""
        inputs = {"collect": [str(workspace["replay"]), "--store", str(tmp_path / "s.db")],
                  "preprocess": [str(workspace["eclf"]), "--out", str(tmp_path / "s.csv")],
                  "simulate": ["--out", str(tmp_path / "x")]}
        rc = main([command, *inputs[command], flag, value])
        err = capsys.readouterr().err
        name = flag[2:] + ":" if command == "simulate" else flag[2:].replace("-", "_")
        assert rc == 2
        assert re.fullmatch(rf"error: {name} must be [^\n]*, got {float(value)}\n", err)
        assert list(tmp_path.iterdir()) == []

    def test_largest_values_accepted(self, workspace, tmp_path):
        assert main(["simulate", "--users", "2", "--timeout", "31536000",
                     "--duration", "315360000", "--out", str(tmp_path / "sim")]) == 0
        assert main(["collect", str(tmp_path / "sim" / "events.replay"),
                     "--store", str(tmp_path / "s.db"), "--timeout", "31536000"]) == 0
        assert main(["preprocess", str(workspace["eclf"]), "--page-gap", "inf",
                     "--session-gap", "inf", "--out", str(tmp_path / "s.csv")]) == 0


class TestReport:
    def test_stats_leaves_a_read_only_store_unchanged(self, workspace, tmp_path, capsys):
        store = tmp_path / "kept.db"
        store.write_bytes(workspace["store"].read_bytes())
        store.chmod(0o444)
        assert main(["report", "--store", str(store), "--kind", "stats"]) == 0
        assert "avg_row_bytes.log_page: " in capsys.readouterr().out
        assert store.read_bytes() == workspace["store"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.db"]

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

    def test_stats_row_bytes_are_the_export_means(self, workspace, tmp_path, capsys):
        """FORMATS.md "Reports": each ``avg_row_bytes`` is the mean UTF-8 size
        of a row of that table's export, without its ``\\n``, to 1 place."""
        store = str(workspace["store"])
        assert main(["report", "--store", store, "--kind", "stats"]) == 0
        stats = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert main(["export", "--store", store, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for table in ("log_session", "log_page"):
            data = (tmp_path / f"{table}.csv").read_bytes()
            _, body = data.split(b"\n", 1)  # the header line
            rows = len(list(csv.reader(io.StringIO(body.decode("utf-8"), newline=""))))
            assert rows > 1 and stats[f"rows.{table}"] == str(rows)
            assert stats[f"avg_row_bytes.{table}"] == str(round((len(body) - rows) / rows, 1))

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

    @pytest.mark.parametrize("n", ["-1", "-100"])
    @pytest.mark.parametrize("kind", ["top-ips", "top-users"])
    def test_negative_n_exits_2(self, workspace, capsys, kind, n):
        """FORMATS.md "Numeric ranges" and "Exit codes": `--n` is 0 or more."""
        rc = main(["report", "--store", str(workspace["store"]),
                   "--kind", kind, "--n", n])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--n" in captured.err

    def test_out_file_instead_of_stdout(self, workspace, tmp_path, capsys):
        target = tmp_path / "device.csv"
        rc = main(["report", "--store", str(workspace["store"]),
                   "--kind", "device", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("device,sessions,ratio")

    def test_missing_store_exits_2(self, tmp_path, capsys):
        """FORMATS.md "Exit codes": a missing file is a usage error."""
        rc = main(["report", "--store", str(tmp_path / "none.db"),
                   "--kind", "device"])
        assert rc == 2
        assert "store not found" in capsys.readouterr().err

    def test_store_that_is_not_sqlite_exits_1(self, tmp_path, capsys):
        """FORMATS.md "Exit codes": a `--store` file that is not a store is a runtime
        failure."""
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
            store.insert_page(PageRecord(log_opn_id=opn, log_datetime=datetime(2021, 9, 2, 10),
                                         log_url="/x"))
        store.close()
        for kind, rows in (("top-ips", 15), ("top-users", 20)):
            assert main(["report", "--store", str(store_path), "--kind", kind]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1 + rows

    def test_unknown_kind_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit) as info:
            main(["report", "--store", str(workspace["store"]),
                  "--kind", "horoscope"])
        assert info.value.code == 2


class TestReportsWithoutPages:
    """Every kind, as CSV and as plot data, on a store holding only the
    schema and on one whose sessions have no pages: exit 0 and the output
    of the record-loop report builders."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pageless")
        LogStore(root / "schema-only.db").close()
        store = LogStore(root / "no-pages.db")
        store.upsert_user(UserInfo(1, "ua", "student", "female"))
        store.insert_session(SessionRecord(ip="10.0.0.1", started_at=datetime(2021, 9, 2)))
        store.insert_session(SessionRecord(
            ip="10.0.0.2", started_at=datetime(2021, 9, 2), user_id=1, username="ua",
            user_type="student", gender="female", referral_class="search_engine",
            search_engine="google", search_keywords="sakarya",
        ))
        store.close()
        return {"schema-only": root / "schema-only.db", "no-pages": root / "no-pages.db"}

    @pytest.mark.parametrize("plot", [False, True])
    @pytest.mark.parametrize("which", ["schema-only", "no-pages"])
    @pytest.mark.parametrize("kind", REPORT_KINDS)
    def test_exits_0_with_the_reference_output(self, stores, which, kind, plot, capsys):
        path = stores[which]
        rc = main(["report", "--store", str(path), "--kind", kind] + ["--plot"] * plot)
        out = capsys.readouterr().out
        assert rc == 0
        store = LogStore(path.resolve().as_uri() + "?mode=ro")
        try:
            reference = oracles.RecordAnalytics(store)
            if kind == "stats":
                assert "rows.log_page: 0\n" in out
            elif kind in REPORTS:
                report = REPORTS[kind](reference, None)
                assert out == (report_to_plot(report) if plot else report_to_csv(report))
            else:
                engines, keywords = search_report_to_csv(reference.search_report())
                assert out == (engines if kind == "search-engines" else keywords)
        finally:
            store.close()


class TestCompare:
    """FORMATS.md "Scoring (`compare`)": both sides' reports, and each way the three
    inputs can fail to describe one set of events."""

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

    # Each way the three inputs can fail to describe one set of events ends
    # in exit 2 and one `error:` line.

    @staticmethod
    def _rows(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    @staticmethod
    def _write(path, rows):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path

    @staticmethod
    def _compare(workspace, capsys, truth=None, baseline=None):
        rc = main(["compare", "--store", str(workspace["store"]),
                   "--baseline", str(baseline or workspace["sessions"]),
                   "--truth", str(truth or workspace["truth"])])
        return rc, capsys.readouterr().err

    def test_mismatched_truth_exits_2(self, workspace, tmp_path, capsys):
        truncated = tmp_path / "short.csv"
        lines = workspace["truth"].read_text(encoding="utf-8").splitlines()
        truncated.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        events = sum(line.startswith("event,") for line in lines)
        rc, err = self._compare(workspace, capsys, truth=truncated)
        assert rc == 2
        assert err == f"error: store holds {events} pageviews, truth lists {events - 5}\n"

    def test_truth_time_unlike_the_store_exits_2(self, workspace, tmp_path, capsys):
        rows = self._rows(workspace["truth"])
        third = [row for row in rows if row[0] == "event"][2]
        assert third[10] == "3"
        stored = int(third[12])
        third[12] = str(stored + 1)
        rc, err = self._compare(workspace, capsys, truth=self._write(tmp_path / "t.csv", rows))
        assert rc == 2
        assert err == f"error: event 3: store time {stored} != truth time {stored + 1}\n"

    def test_baseline_event_not_in_truth_exits_2(self, workspace, tmp_path, capsys):
        rows = self._rows(workspace["sessions"])
        real = next(row for row in rows[1:] if row[5] == "0")
        real[3] = "0"
        rc, err = self._compare(workspace, capsys,
                                baseline=self._write(tmp_path / "s.csv", rows))
        assert rc == 2
        key = (0, real[0].partition("|")[0], real[4])
        assert err == f"error: predicted event not in truth: {key}\n"

    def test_truth_event_missing_from_baseline_exits_2(self, workspace, tmp_path, capsys):
        rows = self._rows(workspace["sessions"])
        real = next(row for row in rows[1:] if row[5] == "0")
        rows.remove(real)
        rc, err = self._compare(workspace, capsys,
                                baseline=self._write(tmp_path / "s.csv", rows))
        assert rc == 2
        key = (int(real[3]), real[0].partition("|")[0], real[4])
        assert err == f"error: truth events missing from prediction: [{key}]\n"

    def test_collector_side_is_checked_first(self, workspace, tmp_path, capsys):
        """The counts, then event by event its `event_seq` before its time,
        each before the baseline's join, which every truth here also fails."""
        rows = self._rows(workspace["truth"])
        events = [row for row in rows if row[0] == "event"]
        stored = int(events[2][12])
        events[2][12] = str(stored + 1)  # event 3's time
        events[3][10] = "3"  # event 4's event_seq
        truth = self._write(tmp_path / "t.csv", rows)
        assert self._compare(workspace, capsys, truth=truth) == (
            2, f"error: event 3: store time {stored} != truth time {stored + 1}\n")
        events[2][10] = "2"
        truth = self._write(tmp_path / "t.csv", rows)
        assert self._compare(workspace, capsys, truth=truth) == (
            2, "error: truth event 3 has event_seq 2\n")
        rows.remove(events[-1])
        truth = self._write(tmp_path / "t.csv", rows)
        assert self._compare(workspace, capsys, truth=truth) == (
            2, f"error: store holds {len(events)} pageviews, truth lists {len(events) - 1}\n")

    def test_event_seq_not_its_position_exits_2(self, workspace, tmp_path, capsys):
        """FORMATS.md: `event_seq` N is the N-th replay line.  A truth whose
        second event repeats the first's seq is refused by compare, and
        collect, which reads only its accounts, takes it as before."""
        rows = self._rows(workspace["truth"])
        first, second = [row for row in rows if row[0] == "event"][:2]
        second[10] = first[10]
        truth = self._write(tmp_path / "t.csv", rows)
        rc, err = self._compare(workspace, capsys, truth=truth)
        assert rc == 2
        assert err == "error: truth event 2 has event_seq 1\n"
        outputs = []
        for users in (workspace["truth"], truth):
            assert main(["collect", str(workspace["replay"]),
                         "--store", str(tmp_path / "s.db"), "--users", str(users)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]


class TestUnreadableInputRows:
    """FORMATS.md "Unreadable input rows": a row of an input CSV that cannot
    be read ends in one `error:` line naming the file and the row's 1-based
    line, with the documented code."""

    BIG = "x" * (csv.field_size_limit() + 1)

    def _compare(self, workspace, tmp_path, rows):
        baseline = tmp_path / "sessions.csv"
        lines = workspace["sessions"].read_text(encoding="utf-8").splitlines()
        baseline.write_text("\n".join(lines[:2] + rows) + "\n", encoding="utf-8")
        rc = main(["compare", "--store", str(workspace["store"]),
                   "--baseline", str(baseline), "--truth", str(workspace["truth"])])
        return rc, baseline

    @pytest.mark.parametrize("row, reason", [
        ("a|b,1,1,0,/x", "expected 6 columns, got 5"),
        ("a|b,1,1,0,/x,0,extra", "expected 6 columns, got 7"),
        ("a|b,x,1,0,/x,0", "invalid literal for int() with base 10: 'x'"),
        ("a|b,1,1,0,/x,yes", "invalid literal for int() with base 10: 'yes'"),
        ("a|b,1,1,0,/x,2", "inferred must be 0 or 1, got '2'"),
        ("a|b,1,1,0,/x,-3", "inferred must be 0 or 1, got '-3'"),
        ("a|b,1,1,253402300800,/x,0", "time 253402300800 is outside years 1-9999 in UTC"),
        ("a|b,1,1,-62135596801,/x,0", "time -62135596801 is outside years 1-9999 in UTC"),
        (f"a|b,1,1,0,{BIG},0", "field larger than field limit (131072)"),
    ])
    def test_bad_sessions_csv_row(self, workspace, tmp_path, capsys, row, reason):
        """Each reason of FORMATS.md "Classical sessions CSV (`preprocess
        --out`)" for a row that compare --baseline cannot read."""
        rc, baseline = self._compare(workspace, tmp_path, [row])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: baseline sessions file {baseline} line 3: {reason}\n"
        )

    def test_sessions_csv_time_out_of_range(self, workspace, tmp_path, capsys):
        rc, baseline = self._compare(workspace, tmp_path, ["a|b,1,1,99999999999999999999,/x,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: baseline sessions file {baseline} line 3: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("cached", ["2", "-1"])
    def test_truth_cached_other_than_0_or_1(self, workspace, tmp_path, capsys, cached):
        truth = tmp_path / "truth.csv"
        header = workspace["truth"].read_text(encoding="utf-8").splitlines()[0]
        truth.write_text(f"{header}\nevent,1,,,,,1,,,,1,{cached},100,10.0.0.1,/a\n",
                         encoding="utf-8")
        rc = main(["compare", "--store", str(workspace["store"]),
                   "--baseline", str(workspace["sessions"]), "--truth", str(truth)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: truth file {truth} line 2: cached must be 0 or 1, got '{cached}'\n"
        )

    @pytest.mark.parametrize("command", ["collect", "compare"])
    def test_truth_row_after_a_multi_line_cell_names_file_and_physical_line(
        self, workspace, tmp_path, capsys, command
    ):
        truth = tmp_path / "truth.csv"
        header = workspace["truth"].read_text(encoding="utf-8").splitlines()[0]
        truth.write_text(f'{header}\nuser,1,"ali\nce",student,female,desktop,,,,,,,,,\n'
                         "user,2,bob\n", encoding="utf-8")
        if command == "collect":
            argv = ["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                    "--users", str(truth)]
        else:
            argv = ["compare", "--store", str(workspace["store"]),
                    "--baseline", str(workspace["sessions"]), "--truth", str(truth)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: truth file {truth} line 4: expected 15 columns, got 3\n"
        )

    def test_bad_replay_line_names_file_and_line(self, tmp_path, capsys):
        replay = tmp_path / "bad.replay"
        replay.write_text("# comment\nthis is not a replay line\n", encoding="utf-8")
        rc = main(["collect", str(replay), "--store", str(tmp_path / "s.db")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: replay file {replay} line 2: token without '=': 'this'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.replay"]

    def test_oversized_users_cell(self, workspace, tmp_path, capsys):
        users = tmp_path / "users.csv"
        users.write_text(f"user_id,username,user_type,gender\n1,{self.BIG},student,male\n",
                         encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "s.db"), "--users", str(users)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: users file {users} line 2: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("flaw", ["header", "width", "field-limit"])
    @pytest.mark.parametrize("command,flag,what", [
        ("collect", "--users", "users file"),
        ("collect", "--users", "truth file"),
        ("compare", "--truth", "truth file"),
        ("compare", "--baseline", "baseline sessions file"),
    ])
    def test_each_csv_input_with_a_header_gives_the_shared_reasons(
        self, workspace, tmp_path, capsys, command, flag, what, flaw
    ):
        """The reasons every CSV input shares, in one form with exit 2,
        whichever file and command read them."""
        header = {
            "users file": "user_id,username,user_type,gender",
            "truth file": workspace["truth"].read_text(encoding="utf-8").splitlines()[0],
            "baseline sessions file":
                workspace["sessions"].read_text(encoding="utf-8").splitlines()[0],
        }[what]
        text, line_no, reason = {
            "header": (header.rpartition(",")[0] + ",x\n", 1, f"expected header {header}"),
            "width": (f"{header}\nx\n", 2, f"expected {header.count(',') + 1} columns, got 1"),
            "field-limit": (f"{header}\n{self.BIG}\n", 2, "field larger than field limit (131072)"),
        }[flaw]
        bad = tmp_path / "input.csv"
        bad.write_text(text, encoding="utf-8")
        if command == "collect":
            argv = ["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db")]
        else:
            argv = ["compare", "--store", str(workspace["store"]),
                    "--baseline", str(workspace["sessions"]), "--truth", str(workspace["truth"])]
        assert main([*argv, flag, str(bad)]) == 2  # the last --truth or --baseline counts
        assert capsys.readouterr().err == f"error: {what} {bad} line {line_no}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["input.csv"]

    @pytest.mark.parametrize("row, reason", [
        (f"200,300,{BIG}", "field larger than field limit (131072)"),
        ("0,99999999999999,XX", "ip bounds must be in 0..4294967295"),
        ("-1,5,XX", "ip bounds must be in 0..4294967295"),
        ("start_ip,end_ip,country", "ip bounds must be integers"),
    ])
    def test_bad_geoip_row(self, workspace, tmp_path, capsys, row, reason):
        """A GeoIP row exits 1; the table has no required header."""
        geoip = tmp_path / "geo.csv"
        geoip.write_text(f"# ranges\n{row}\n", encoding="utf-8")
        rc = main(["collect", str(workspace["replay"]),
                   "--store", str(tmp_path / "s.db"), "--geoip", str(geoip)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: geoip file {geoip} line 2: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["geo.csv"]


def _spoiled(lines: list[str], out: Path) -> int:
    """Write ``lines`` to ``out``, through gzip for ``.gz``, with byte 0xff
    ending the first line that starts past 8 KiB, beyond the text readers'
    first decoded chunk; return that line's number."""
    data, bad = b"", None
    for line_no, line in enumerate(lines, start=1):
        if bad is None and len(data) > 8192:
            bad, line = line_no, line + "\udcff"
        data += line.encode("utf-8", "surrogateescape") + b"\n"
    assert bad is not None
    out.write_bytes(gzip.compress(data) if out.suffix == ".gz" else data)
    return bad


class TestInvalidUtf8:
    """FORMATS.md "Unreadable input rows": a byte that is not UTF-8 in an
    input other than the access log ends in one `error:` line naming the
    file and the line of that byte, with the exit code of the file's other
    unreadable rows, and writes nothing."""

    def _check(self, argv, tmp_path, capsys, code, what, path, line_no):
        before = sorted(tmp_path.iterdir())
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {what} {path} line {line_no}: invalid UTF-8\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("name", ["bad.replay", "bad.replay.gz"])
    def test_replay(self, workspace, tmp_path, capsys, name):
        replay = tmp_path / name
        line_no = _spoiled(workspace["replay"].read_text(encoding="utf-8").splitlines(), replay)
        self._check(["collect", str(replay), "--store", str(tmp_path / "s.db")],
                    tmp_path, capsys, 1, "replay file", replay, line_no)

    def test_geoip(self, workspace, tmp_path, capsys):
        geoip = tmp_path / "geo.csv"
        line_no = _spoiled([f"{i * 10},{i * 10 + 5},XX" for i in range(1000)], geoip)
        self._check(["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                     "--geoip", str(geoip)], tmp_path, capsys, 1, "geoip file", geoip, line_no)

    def test_roster(self, workspace, tmp_path, capsys):
        users = tmp_path / "users.csv"
        line_no = _spoiled(["user_id,username,user_type,gender"]
                           + [f"{i},user{i},student,male" for i in range(1, 1000)], users)
        self._check(["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                     "--users", str(users)], tmp_path, capsys, 2, "users file", users, line_no)

    @pytest.mark.parametrize("what", ["users file", "truth file"])
    def test_users_file_kind_is_read_before_the_bad_byte(self, workspace, tmp_path, capsys,
                                                         what):
        users = tmp_path / "users.csv"
        header = ("user_id,username,user_type,gender" if what == "users file"
                  else workspace["truth"].read_text(encoding="utf-8").splitlines()[0])
        users.write_bytes(header.encode() + b"\n1,\xff,student,male\n")
        self._check(["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                     "--users", str(users)], tmp_path, capsys, 2, what, users, 2)

    @pytest.mark.parametrize("command", ["collect", "compare"])
    def test_truth(self, workspace, tmp_path, capsys, command):
        truth = tmp_path / "truth.csv"
        line_no = _spoiled(workspace["truth"].read_text(encoding="utf-8").splitlines(), truth)
        if command == "collect":
            argv = ["collect", str(workspace["replay"]), "--store", str(tmp_path / "s.db"),
                    "--users", str(truth)]
        else:
            argv = ["compare", "--store", str(workspace["store"]),
                    "--baseline", str(workspace["sessions"]), "--truth", str(truth)]
        self._check(argv, tmp_path, capsys, 2, "truth file", truth, line_no)

    def test_sessions_csv(self, workspace, tmp_path, capsys):
        baseline = tmp_path / "sessions.csv"
        line_no = _spoiled(workspace["sessions"].read_text(encoding="utf-8").splitlines(),
                           baseline)
        self._check(["compare", "--store", str(workspace["store"]), "--baseline", str(baseline),
                     "--truth", str(workspace["truth"])],
                    tmp_path, capsys, 2, "baseline sessions file", baseline, line_no)


# A gzip member header (no flags, mtime 0, unknown OS) followed by a deflate
# block of the reserved type 3, which zlib refuses as "invalid block type".
_BAD_BLOCK_MEMBER = bytes.fromhex("1f8b08000000000000ff") + b"\x07"


def _damaged(data: bytes, damage: str) -> bytes:
    """``data`` gzipped, then damaged: not gzip at all, cut short after its
    first half, or a whole first member followed by one with corrupt data."""
    if damage == "not-gzip":
        return data
    if damage == "cut":
        packed = gzip.compress(data, mtime=0)
        return packed[: len(packed) // 2]
    return gzip.compress(data, mtime=0) + _BAD_BLOCK_MEMBER


class TestDamagedGzip:
    """FORMATS.md "Exit codes": a `.gz` input that is not gzip, is cut short or
    holds corrupt data ends in one `error:` line naming the file, exit 1,
    and writes nothing."""

    DAMAGE = {
        "not-gzip": "Not a gzipped file (b'ip')",
        "cut": "Compressed file ended before the end-of-stream marker was reached",
        "corrupt": "Error -3 while decompressing data: invalid block type",
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_collect(self, workspace, tmp_path, capsys, damage):
        replay = tmp_path / "events.replay.gz"
        replay.write_bytes(_damaged(workspace["replay"].read_bytes(), damage))
        store = tmp_path / "s.db"
        store.write_bytes(workspace["store"].read_bytes())
        before = sorted(tmp_path.iterdir())
        assert main(["collect", str(replay), "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: replay file {replay}: {self.DAMAGE[damage]}\n"
        assert sorted(tmp_path.iterdir()) == before
        assert store.read_bytes() == workspace["store"].read_bytes()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_preprocess(self, workspace, tmp_path, capsys, damage):
        log = tmp_path / "access.log.gz"
        data = workspace["eclf"].read_bytes()
        log.write_bytes(_damaged(data, damage))
        reason = self.DAMAGE[damage]
        if damage == "not-gzip":
            reason = f"Not a gzipped file ({data[:2]!r})"
        assert main(["preprocess", str(log), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr() == ("", f"error: log file {log}: {reason}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["access.log.gz"]

    def test_rescan_for_a_bad_byte_names_the_file(self, workspace, tmp_path):
        """The second read that finds the line of a byte that is not UTF-8
        reports damaged gzip data as the first read does."""
        replay = tmp_path / "events.replay.gz"
        replay.write_bytes(_damaged(workspace["replay"].read_bytes(), "cut"))
        with pytest.raises(OSError) as info:
            with cli._naming("replay file", replay, gzipped=True):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        assert str(info.value) == f"replay file {replay}: {self.DAMAGE['cut']}"


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


class TestOutputTargets:
    """FORMATS.md "Output files": each command writes its files through one
    ``.NAME.PID.tmp`` moved into place, in the documented order; a symlink
    keeps naming the file it named, and a target that is no regular file is
    refused.  `compare`, and `report` to stdout, write no file."""

    @staticmethod
    def writers(workspace, tmp_path):
        """Each writing command, and the target it writes under ``tmp_path``."""
        store = str(workspace["store"])
        return {
            "simulate": (SIM_ARGS + ["--out", str(tmp_path)], "events.replay"),
            "collect": (["collect", str(workspace["replay"]), "--store", str(tmp_path / "t")],
                        "t"),
            "preprocess": (["preprocess", str(workspace["eclf"]), "--out", str(tmp_path / "t")],
                           "t"),
            "report": (["report", "--store", store, "--kind", "device",
                        "--out", str(tmp_path / "t")], "t"),
            "export": (["export", "--store", store, "--out", str(tmp_path)], "user_info.csv"),
        }

    @pytest.mark.parametrize("command", ["simulate", "collect", "preprocess", "report", "export"])
    def test_a_symlink_keeps_naming_the_replaced_file(self, workspace, tmp_path, capsys,
                                                      command):
        plain, linked = tmp_path / "plain", tmp_path / "linked"
        plain.mkdir()
        linked.mkdir()
        argv, name = self.writers(workspace, plain)[command]
        assert main(argv) == 0
        (tmp_path / "real").write_bytes(b"old\n")
        (linked / name).symlink_to(tmp_path / "real")
        argv, _ = self.writers(workspace, linked)[command]
        assert main(argv) == 0
        assert os.readlink(linked / name) == str(tmp_path / "real")
        assert (tmp_path / "real").read_bytes() == (plain / name).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["linked", "plain", "real"]
        assert not any(linked.glob(".*"))

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize("command", ["simulate", "collect", "preprocess", "report", "export"])
    def test_a_target_that_is_no_regular_file_is_refused(self, workspace, tmp_path, capsys,
                                                         command, kind):
        argv, name = self.writers(workspace, tmp_path)[command]
        target = tmp_path / name
        if kind == "fifo":
            os.mkfifo(target)
        else:
            target.mkdir()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {target} is not a regular file\n"
        assert target.is_fifo() if kind == "fifo" else target.is_dir()
        assert not any(tmp_path.glob(".*.tmp*"))

    @pytest.mark.parametrize("command,names", [
        ("simulate", ["events.replay", "access.log", "truth.csv"]),
        ("export", [f"{table}.csv" for table in TABLE_COLUMNS]),  # the "Store" order
    ])
    def test_files_are_moved_into_place_one_by_one_in_order(self, workspace, tmp_path,
                                                            monkeypatch, capsys, command, names):
        moved, replace = [], os.replace

        def record(src, dst):
            assert Path(src).name == f".{Path(dst).name}.{os.getpid()}.tmp"
            assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == [
                Path(src).name]
            moved.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        argv, _ = self.writers(workspace, tmp_path)[command]
        assert main(argv) == 0
        assert moved == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_report_to_stdout_writes_no_file(self, workspace, tmp_path, monkeypatch, capsys):
        """Without `--out`, or with `--out -`, the report is the bytes that
        `--out FILE` writes."""
        report = ["report", "--store", str(workspace["store"]), "--kind", "device"]
        saved = tmp_path / "saved.csv"
        assert main([*report, "--out", str(saved)]) == 0
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for out in ([], ["--out", "-"]):
            assert main([*report, *out]) == 0
            assert capsys.readouterr().out == saved.read_text(encoding="utf-8")
        assert list(cwd.iterdir()) == []

    def test_compare_writes_no_file(self, workspace, tmp_path, monkeypatch, capsys):
        for name in ("store", "sessions", "truth"):
            shutil.copy(workspace[name], tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--store", workspace["store"].name,
                     "--baseline", workspace["sessions"].name,
                     "--truth", workspace["truth"].name]) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command", ["preprocess", "report"])
    def test_a_missing_directory_is_named_by_the_target(self, workspace, tmp_path, capsys,
                                                        command):
        argv, name = self.writers(workspace, tmp_path / "missing")[command]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"'{tmp_path / 'missing' / name}'")


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
    """FORMATS.md "Exit codes": report, compare and export name a --store file
    without the store tables, with exit 1."""

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

    @pytest.mark.parametrize("error, message, named", [
        (sqlite3.DatabaseError, "file is not a database", True),
        (sqlite3.OperationalError, "attempt to write a readonly database", True),
        (sqlite3.OperationalError, "database is locked", False),
    ])
    def test_error_without_its_sqlite_name(self, error, message, named, workspace,
                                           monkeypatch, capsys):
        """Before Python 3.11 a ``sqlite3`` error carries only its text, as
        one raised here does: a file that is not a store is still named, and
        a locked store still gives its own error."""
        def refuse(path):
            raise error(message)

        monkeypatch.setattr("webusage.cli.LogStore", refuse)
        rc = main(["report", "--store", str(workspace["store"]), "--kind", "stats"])
        shown = f"not a webusage store: {workspace['store']}" if named else message
        assert (rc, capsys.readouterr().err) == (1, f"error: {shown}\n")

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
            assert list(oracles.iter_open_sessions(store)) == []
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


class TestYear999:
    """FORMATS.md "Store": a time before year 1000 is stored with its year
    zero-padded, and reads back through every path."""

    REPLAY = "".join(
        f"ip=10.0.0.1 time=0999-12-31T23:0{minute}:00 method=GET"
        f" url=http://www.campus.example/{page}.php token=t1 agent=Mozilla/5.0"
        f" service=campus module={page} server=1 get= post= cookies=\n"
        for minute, page in [(0, "a"), (5, "b")]
    )

    def test_collect_report_and_export(self, tmp_path, capsys):
        replay, store = tmp_path / "old.replay", tmp_path / "old.db"
        replay.write_text(self.REPLAY, encoding="utf-8")
        assert main(["collect", str(replay), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--kind", "hourly-cube"]) == 0
        cube = {row[0]: row[-1] for row in csv.reader(capsys.readouterr().out.splitlines())}
        assert cube["23"] == "2"
        out = tmp_path / "out"
        assert main(["export", "--store", str(store), "--out", str(out)]) == 0
        sessions, pages = ((out / f"{table}.csv").read_text(encoding="utf-8")
                           for table in ("log_session", "log_page"))
        assert ",0999-12-31 23:00:00,0999-12-31 23:05:00,timeout\n" in sessions
        assert ",0999-12-31 23:00:00,0999-12-31," in pages
        reader = LogStore(store.resolve().as_uri() + "?mode=ro")
        try:
            for table in TABLE_COLUMNS:
                with (out / f"{table}.csv").open(encoding="utf-8", newline="") as fh:
                    read = oracles.read_export_table(reader, table, fh)
                assert read == oracles.stored_rows(reader, table)
            assert len(read) == 2  # log_page, the last table
        finally:
            reader.close()

    def test_second_request_on_the_token_is_recorded(self):
        store = LogStore(":memory:")
        try:
            collector = Collector(store, ["www.campus.example"])
            first, second = (parse_replay_line(line) for line in self.REPLAY.splitlines())
            opn_id, _ = collector.handle_request_begin(first)
            assert collector.handle_request_begin(second)[0] == opn_id
            assert store.page_count() == 2
        finally:
            store.close()


class TestOldOpenSessionsStore:
    """FORMATS.md "Store": a store file written before `open_sessions` lost
    its `user_id` and `started_at` columns."""

    # open_sessions as such a file declares it
    OLD_OPEN_SESSIONS = """CREATE TABLE open_sessions (
        session_token TEXT PRIMARY KEY,
        opn_id        INTEGER NOT NULL UNIQUE REFERENCES log_session(opn_id),
        user_id       INTEGER,
        started_at    TEXT NOT NULL,
        last_activity TEXT NOT NULL
    )"""

    @pytest.fixture
    def old_store(self, workspace, tmp_path):
        """A copy of the workspace store with the old ``open_sessions``,
        whose last session is open again under the token ``old``: the path,
        the session's opn_id and its last activity."""
        path = tmp_path / "old.db"
        shutil.copyfile(workspace["store"], path)
        conn = sqlite3.connect(path)
        try:
            with conn:
                conn.execute("DROP TABLE open_sessions")
                conn.execute(self.OLD_OPEN_SESSIONS)
                opn, user_id, started_at, last = conn.execute(
                    "SELECT s.opn_id, s.user_id, s.started_at, MAX(p.log_datetime)"
                    " FROM log_session s JOIN log_page p ON p.log_opn_id = s.opn_id"
                    " GROUP BY s.opn_id ORDER BY s.opn_id DESC LIMIT 1"
                ).fetchone()
                conn.execute("UPDATE log_session SET ended_at = NULL, end_reason = NULL"
                             " WHERE opn_id = ?", (opn,))
                conn.execute("INSERT INTO open_sessions VALUES ('old', ?, ?, ?, ?)",
                             (opn, user_id, started_at, last))
        finally:
            conn.close()
        return path, opn, datetime.fromisoformat(last)

    @staticmethod
    def _event(token: str, at: datetime) -> RawRequestEvent:
        return RawRequestEvent(client_ip="10.0.0.1", timestamp=at, method="GET",
                               url=f"http://{SITE_HOST}/index.php", session_token=token)

    @pytest.mark.parametrize("close", ["logout", "sweep"])
    def test_only_a_new_session_fails(self, old_store, close):
        path, opn, last = old_store
        store = LogStore(path)
        try:
            collector = Collector(store, [SITE_HOST])

            def tables() -> dict[str, list]:
                return {table: store._query(f"SELECT * FROM {table}") for table in TABLE_COLUMNS}

            before = tables()
            with pytest.raises(CollectionError) as info:
                collector.handle_request_begin(self._event("new", last))
            assert "NOT NULL constraint failed: open_sessions.started_at" in str(info.value)
            assert tables() == before
            at = last + timedelta(seconds=60)
            assert collector.handle_request_begin(self._event("old", at))[0] == opn
            if close == "logout":
                assert collector.end_session("old") is True
            else:
                assert collector.sweep_expired(at + timedelta(seconds=collector.timeout + 1)) == 1
            assert store._query("SELECT COUNT(*) FROM open_sessions") == [(0,)]
            assert store._query("SELECT ended_at, end_reason FROM log_session WHERE opn_id = ?",
                                (opn,)) == [(str(at), "timeout" if close == "sweep" else close)]
        finally:
            store.close()

    def test_a_replay_fails_each_session_start(self, old_store):
        path, opn, last = old_store
        store = LogStore(path)
        try:
            collector = Collector(store, [SITE_HOST])
            before = {table: store._query(f"SELECT * FROM {table}") for table in TABLE_COLUMNS}
            errors = []
            # Before the open session's last activity, so the final close keeps it.
            early = last - timedelta(seconds=1)
            events = [self._event("new1", early), self._event("new2", early)]
            assert replay_stream(collector, events, on_error=errors.append) == (0, 2)
            assert [str(e) for e in errors] == [
                "NOT NULL constraint failed: open_sessions.started_at"] * 2
            assert {table: store._query(f"SELECT * FROM {table}")
                    for table in TABLE_COLUMNS} == before
            # The open session goes on, and the replay's final close ends it.
            at = last + timedelta(seconds=60)
            events = [self._event("new1", at), self._event("old", at), self._event("new2", at)]
            assert replay_stream(collector, events) == (1, 2)
            assert store._query("SELECT COUNT(*) FROM open_sessions") == [(0,)]
            assert store._query("SELECT ended_at, end_reason FROM log_session WHERE opn_id = ?",
                                (opn,)) == [(str(at), "timeout")]
            assert store._query("SELECT MAX(opn_id) FROM log_session") == [(opn,)]
        finally:
            store.close()

    def test_report_compare_and_export_read_it(self, old_store, workspace, tmp_path, capsys):
        path, opn, last = old_store

        def run(store, *args) -> str:
            assert main([args[0], "--store", str(store), *args[1:]]) == 0
            return capsys.readouterr().out

        compare = ("compare", "--baseline", str(workspace["sessions"]),
                   "--truth", str(workspace["truth"]))
        assert run(path, *compare) == run(workspace["store"], *compare)
        # The reopened session's empty end changes only the stats sizes.
        for kind in REPORT_KINDS:
            got, want = (run(store, "report", "--kind", kind) for store in (path, workspace["store"]))
            if kind == "stats":
                assert "rows.open_sessions: 1\n" in got
            else:
                assert got == want, kind
        run(path, "export", "--out", str(tmp_path / "out"))
        assert (tmp_path / "out" / "open_sessions.csv").read_text(encoding="utf-8") == (
            f"session_token,opn_id,last_activity\nold,{opn},{last}\n")


class TestFormatsContract:
    """FORMATS.md claims about output text, checked on CLI output."""

    def _export(self, store, out_dir) -> list[dict]:
        assert main(["export", "--store", str(store), "--out", str(out_dir)]) == 0
        with open(out_dir / "log_page.csv", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_every_heading_is_named_by_a_test(self):
        """Every ``##`` and ``###`` heading of FORMATS.md is quoted by some
        file under tests/, whole or as its text before `` (``: a heading
        ``Name (`file`)`` is named by ``"Name"``."""
        tests = Path(__file__).resolve().parent
        text = (tests.parent / "FORMATS.md").read_text("utf-8")
        headings = re.findall(r"^###? (.+)$", text, re.M)
        assert len(headings) >= 17
        quoted = "".join(p.read_text("utf-8") for p in sorted(tests.rglob("*.py")))
        assert [h for h in headings
                if f'"{h}"' not in quoted and f'"{h.partition(" (")[0]}"' not in quoted] == []

    def test_report_kinds_list_matches_cli(self):
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        listing = text.split("Report kinds:", 1)[1].split("\n\n", 1)[0]
        assert tuple(re.findall(r"`([\w-]+)`", listing)) == REPORT_KINDS

    def test_synopsis_options_match_the_parser(self):
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        synopsis = text.split("## CLI", 1)[1].split("```", 2)[1]
        documented = {}
        for line in synopsis.strip().splitlines():
            if line.startswith("webusage "):
                options = documented.setdefault(line.split()[1], set())
            options.update(re.findall(r"--[\w-]+", line))
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert documented == {
            name: {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sub in commands.choices.items()
        }

    def test_stats_keys(self, workspace, capsys):
        assert main(["report", "--store", str(workspace["store"]), "--kind", "stats"]) == 0
        keys = [line.split(": ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == sorted(
            [f"rows.{table}" for table in TABLE_COLUMNS]
            + ["avg_row_bytes.log_session", "avg_row_bytes.log_page"]
        )

    def _report(self, workspace, capsys, kind, *flags) -> str:
        assert main(["report", "--store", str(workspace["store"]), "--kind", kind, *flags]) == 0
        return capsys.readouterr().out

    def test_user_type_gender_total_row_and_guest_durations(self, workspace, capsys):
        header, *body, total = csv.reader(
            self._report(workspace, capsys, "user-type-gender").splitlines()
        )
        cell = {name: i for i, name in enumerate(header)}
        guest = next(row for row in body if row[0] == "guest")
        assert [guest[cell[c]] for c in ("duration_s", "duration_m", "duration_h")] == ["-"] * 3
        assert any(row[cell["duration_s"]] not in ("-", "0") for row in body)
        assert total[:2] == ["total", ""]

        def number(text):
            return Decimal(0) if text == "-" else Decimal(text)

        for column in ("users", "sessions", "pageviews", "duration_s", "duration_m",
                       "duration_h"):
            i = cell[column]
            assert number(total[i]) == sum(number(row[i]) for row in body), column
        ratio = Decimal(total[cell["pageviews"]]) / Decimal(total[cell["sessions"]])
        assert total[cell["pageviews_per_session"]] == str(
            ratio.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        )

    def test_hourly_cube_columns(self, workspace, capsys):
        header, *rows = csv.reader(self._report(workspace, capsys, "hourly-cube").splitlines())
        assert header == ["hour", *USER_TYPES, "total"]
        assert [int(row[0]) for row in rows] == list(range(24))
        for row in rows:
            assert int(row[-1]) == sum(int(n) for n in row[1:-1])

    @pytest.mark.parametrize("kind", ["search-engines", "search-keywords", "stats"])
    def test_plot_leaves_text_kinds_unchanged(self, workspace, capsys, kind):
        text = self._report(workspace, capsys, kind)
        assert self._report(workspace, capsys, kind, "--plot") == text

    @pytest.mark.parametrize(
        "kind", [k for k in REPORT_KINDS if k not in ("top-ips", "top-users")]
    )
    def test_n_changes_only_the_top_lists(self, workspace, capsys, kind):
        text = self._report(workspace, capsys, kind)
        assert self._report(workspace, capsys, kind, "--n", "1") == text

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
    """FORMATS.md "Exit codes": an argument error the parser finds exits 2."""

    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv,prog", [
        (["frobnicate"], "webusage"),
        (["collect", "r.replay", "--store", "s.db", "--frob"], "webusage"),
        (["preprocess", "a.log", "--out", "s.csv", "--format", "XLF"], "webusage preprocess"),
        (["report", "--store", "s.db", "--kind", "stats", "--n", "x"], "webusage report"),
        (["report", "--store", "s.db", "--kind", "top-ips", "--n", "-1e3"], "webusage report"),
        (["simulate", "--users", "-1e3", "--out", "x"], "webusage simulate"),
    ])
    def test_parser_errors_print_the_usage_then_the_reason(self, tmp_path, monkeypatch, capsys,
                                                           argv, prog):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(f"{prog}: error: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_second_call_gets_the_defaults_the_first_call_set(
        self, tmp_path, monkeypatch, capsys
    ):
        # main builds its parser once per process; no call may see the
        # values an earlier call gave.
        seen = []

        def stop(value):
            seen.append(value)
            raise cli.UsageError("stopped")

        monkeypatch.setattr(cli, "preprocess_log", lambda log, **kw: stop(kw["site_hosts"]))
        monkeypatch.setitem(cli.REPORTS, "top-ips", lambda analytics, n: stop(n))
        log = tmp_path / "access.log"
        log.write_text("", encoding="utf-8")
        store = tmp_path / "s.db"
        LogStore(store).close()
        preprocess = ["preprocess", str(log), "--out", str(tmp_path / "sessions.csv")]
        report = ["report", "--store", str(store), "--kind", "top-ips"]
        assert main([*preprocess, "--site-host", "a.example", "--site-host", "b.example"]) == 2
        assert main(preprocess) == 2
        assert main([*report, "--n", "3"]) == 2
        assert main(report) == 2
        assert seen == [["a.example", "b.example"], [SITE_HOST], 3, None]
        assert capsys.readouterr().err == "error: stopped\n" * 4


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
