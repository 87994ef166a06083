"""The package's one CSV dialect (FORMATS.md "CSV dialect"): every writer
gives, row for row, what ``oracles.csv_row_reference`` gives, and NUL is
written as it is on every Python.  Every output file is written through
``csvio.replacing`` (FORMATS.md "CLI")."""

import ast
import csv
import io
import os
import re
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage import csvio
from webusage.analytics import Table, report_to_csv
from webusage.storage import TABLE_COLUMNS, LogStore, PageRecord, SessionRecord, UserInfo
from webusage.truth import TRUTH_HEADER, GroundTruth, TruthEvent, TruthSession, TruthUser, \
    read_truth, write_truth

import oracles

# Text dense in what the dialect quotes, with NUL where the reference writes it.
CSV_TEXT = st.text(st.sampled_from(
    [",", '"', "|", "\n", "\r", " ", "a", "/", "é", "ş", "😀"]
    + ([] if oracles.CSV_REFUSES_NUL else ["\x00"])
), max_size=8)
CELLS = (st.none() | CSV_TEXT | st.integers() | st.floats() | st.decimals()
         | st.booleans())
T0 = datetime(2021, 9, 2, 10, 12, 18)


def _reference(rows) -> str:
    return "".join(map(oracles.csv_row_reference, rows))


class TestRule:
    @settings(max_examples=300)
    @given(CSV_TEXT)
    def test_cell(self, text):
        cell = csvio.cell(text)
        assert oracles.csv_row_reference((text, text)) == f"{cell},{cell}\n"

    @settings(max_examples=300)
    @given(st.lists(CELLS, min_size=2, max_size=6))
    def test_row(self, values):
        assert csvio.row(values) == oracles.csv_row_reference(values)

    @pytest.mark.parametrize("values, line", [
        (["a\x00b", "\x00"], "a\x00b,\x00\n"),
        (["\x00,", 'n\x00"'], '"\x00,","n\x00"""\n'),
        (["cr\ronly", "\r\n", None], '"cr\ronly","\r\n",\n'),
        ([1, 0.1 + 0.2, True, None], "1,0.30000000000000004,True,\n"),
    ])
    def test_named_rows(self, values, line):
        assert csvio.row(values) == line

    def test_nul_reads_back_or_names_its_line(self):
        """FORMATS.md "Unreadable input rows": `line contains NUL` on Python
        3.10 only."""
        stream = io.StringIO(csvio.row(("a", "b")) + csvio.row(("n\x00", "x")), newline="")
        if oracles.CSV_REFUSES_NUL:
            with pytest.raises(csvio.RowError, match="^line 2: line contains NUL$"):
                list(csvio.rows(stream, ("a", "b")))
        else:
            assert list(csvio.rows(stream, ("a", "b"))) == [(2, ["n\x00", "x"])]


class TestRows:
    """``csvio.rows``, the one reader of every CSV input: each row with the
    line it ends on, blank lines skipped, and an unreadable row a
    ``RowError`` naming its line (FORMATS.md "Unreadable input rows")."""

    def test_without_a_header_any_width_is_read(self):
        assert list(csvio.rows(io.StringIO("a\n\nb,c\n", newline=""))) == [
            (1, ["a"]), (3, ["b", "c"])]

    def test_a_row_spanning_lines_is_named_by_its_last(self):
        stream = io.StringIO('a,b\n1,"x\ny"\n2,z\n', newline="")
        assert list(csvio.rows(stream, ("a", "b"))) == [(3, ["1", "x\ny"]), (4, ["2", "z"])]

    @pytest.mark.parametrize("text", ["x,y\n1,2\n", ""], ids=["wrong", "empty"])
    def test_header_must_match(self, text):
        with pytest.raises(csvio.RowError) as info:
            list(csvio.rows(io.StringIO(text, newline=""), ("a", "b")))
        assert str(info.value) == "line 1: expected header a,b"

    @pytest.mark.parametrize("row, reason", [
        ("3", re.escape("expected 2 columns, got 1")),
        # csv's hint after this text differs between Python versions
        ("3,c\rd", "new-line character seen in unquoted field - .*"),
        (f"3,{'x' * (csv.field_size_limit() + 1)}",
         re.escape(f"field larger than field limit ({csv.field_size_limit()})")),
    ], ids=["width", "lone-cr", "over-field-limit"])
    def test_unreadable_row_names_its_line(self, row, reason):
        read = []
        with pytest.raises(csvio.RowError) as info:
            for line_no, cells in csvio.rows(io.StringIO(f"a,b\n1,2\n\n{row}\n"), ("a", "b")):
                read.append((line_no, cells))
        assert re.fullmatch(f"line 4: {reason}", str(info.value))
        assert read == [(2, ["1", "2"])]


class TestWriters:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(CSV_TEXT, CSV_TEXT, st.floats(0, 1e9)), min_size=1, max_size=4))
    def test_export_table(self, values):
        store = LogStore()
        try:
            for i, (text, other, load_time) in enumerate(values, start=1):
                store.upsert_user(UserInfo(i, f"u{i}{text}", "student", "female"))
                opn = store.insert_session(SessionRecord(
                    ip=f"ip{text}", started_at=T0, user_id=i, username=other or None,
                    user_type="student", gender="female", referrer_url=text,
                    search_keywords=other, language=text or None,
                    ended_at=T0 + timedelta(hours=i), end_reason="timeout",
                ))
                store.insert_page(PageRecord(
                    log_opn_id=opn, log_datetime=T0, log_url=text, log_page_title=other,
                    log_error_text=text or None, log_get_serialize={text: other},
                    log_page_load_time=load_time,
                ))
            for table, cols in TABLE_COLUMNS.items():
                buf = io.StringIO(newline="")
                store.export_table(table, buf)
                rows = store._query(f"SELECT {', '.join(cols)} FROM {table} ORDER BY 1")
                assert buf.getvalue() == _reference([cols, *rows])
        finally:
            store.close()

    @given(st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=4))
    def test_report_to_csv(self, rows):
        expected = _reference([("a,b", "c"), *(["-" if v is None else v for v in row]
                                               for row in rows)])
        assert report_to_csv(Table(("a,b", "c"), rows)) == expected

    @settings(max_examples=100)
    @given(
        st.lists(st.builds(TruthUser, st.integers(0, 99), st.none() | CSV_TEXT, CSV_TEXT,
                           st.none() | CSV_TEXT, CSV_TEXT), max_size=3),
        st.lists(st.builds(TruthSession, *[st.integers(0, 2**40)] * 5), max_size=3),
        st.lists(st.builds(TruthEvent, *[st.integers(0, 2**40)] * 4, CSV_TEXT, CSV_TEXT,
                           st.booleans()), max_size=3),
    )
    def test_write_truth(self, users, sessions, events):
        truth = GroundTruth(users, sessions, events)
        written = io.StringIO(newline="")
        write_truth(truth, written)
        assert written.getvalue() == _reference([
            TRUTH_HEADER,
            *(["user", u.user_id, u.username or "", u.user_type, u.gender or "", u.device]
              + [""] * 9 for u in users),
            *(["session", s.user_id, "", "", "", "", s.session_id, s.pageviews,
               s.start_epoch, s.end_epoch] + [""] * 5 for s in sessions),
            *(["event", e.true_user_id, "", "", "", "", e.true_session_id, "", "", "",
               e.event_seq, int(e.cached), e.epoch, e.ip, e.resource] for e in events),
        ])
        written.seek(0)
        restored = read_truth(written)
        assert (restored.sessions, restored.events) == (sessions, events)


class TestReplacing:
    """FORMATS.md "Output files": ``csvio.replacing``, the one write path,
    writes ``.NAME.PID.tmp`` and renames it onto ``NAME`` on a clean exit."""

    def test_a_clean_exit_moves_the_temporary_file_onto_the_target(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old")
        with csvio.replacing(target) as tmp:
            assert tmp == tmp_path / f".t.csv.{os.getpid()}.tmp"
            tmp.write_text("new")
            assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert target.read_text() == "new"

    def test_an_error_removes_the_temporary_file_and_keeps_the_target(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old")
        with pytest.raises(KeyError), csvio.replacing(target) as tmp:
            tmp.write_text("new")
            raise KeyError
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert target.read_text() == "old"

    def test_only_the_targets_stale_temporary_files_are_removed(self, tmp_path):
        stale = [".t.csv.1.tmp", ".t.csv.123.tmp-journal"]
        kept = [".t.csv.x.tmp", ".t.csv.1.tmp.bak", ".t.csv.1.tmp-wal", "t.csv.1.tmp",
                ".u.csv.1.tmp", ".t.csv.tmp", ".tXcsv.1.tmp", ".t.csv.٣.tmp"]
        for name in stale + kept:
            (tmp_path / name).write_text(name)
        with csvio.replacing(tmp_path / "t.csv") as tmp:
            tmp.write_text("new")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["t.csv"])

    def test_a_symlink_keeps_naming_the_replaced_file(self, tmp_path):
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "t.csv"
        real.write_text("old")
        (tmp_path / ".link.1.tmp").write_text("not the target's")
        link = tmp_path / "link"
        link.symlink_to(real)
        with csvio.replacing(link) as tmp:
            assert tmp.parent == real.parent
            tmp.write_text("new")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == [".link.1.tmp", "link", "real"]

    def test_a_target_that_is_no_regular_file_is_refused(self, tmp_path):
        fifo, directory = tmp_path / "fifo", tmp_path / "dir"
        os.mkfifo(fifo)
        directory.mkdir()
        for target in (fifo, directory):
            with pytest.raises(OSError, match=f"^{re.escape(str(target))} is not a regular file$"):
                with csvio.replacing(target):
                    pytest.fail("yielded")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "fifo"]
        assert fifo.is_fifo() and directory.is_dir()


def _unsafe_writes(source: str) -> list[int]:
    """Lines of ``source`` that write a file other than a name bound by
    ``with replacing(...) as NAME``: ``open`` or ``.open`` in a mode that
    writes, ``write_text``, ``write_bytes``, or a ``LogStore`` not opened
    ``?mode=ro``."""
    tree = ast.parse(source)
    bound = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and ast.unparse(item.context_expr.func).split(".")[-1] == "replacing"
        and isinstance(item.optional_vars, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, written = ast.unparse(node.func).split(".")[-1], None
        if func == "open":
            kw = {k.arg: k.value for k in node.keywords}
            modes = [a for a in node.args if isinstance(a, ast.Constant)
                     and isinstance(a.value, str) and set(a.value) <= set("rwxabt+")]
            mode = kw.get("mode", modes[0] if modes else None)
            if mode is not None and set(ast.literal_eval(mode)) & set("wax+"):
                files = [a for a in node.args if a is not mode]
                written = kw.get("file", files[0] if files else getattr(node.func, "value", node))
        elif func in ("write_text", "write_bytes"):
            written = node.func.value
        elif func == "LogStore" and "?mode=ro" not in ast.unparse(node):
            written = node.args[0] if node.args else node
        if written is not None and not (isinstance(written, ast.Name) and written.id in bound):
            lines.append(node.lineno)
    return lines


class TestOneWritePath:
    """FORMATS.md "Output files": every command writes every file through
    ``replacing``, so the rule holds for each."""

    SOURCES = sorted(Path(csvio.__file__).parent.glob("*.py"))

    def test_every_file_is_written_through_replacing(self):
        assert len(self.SOURCES) > 10
        assert {path.name: _unsafe_writes(path.read_text(encoding="utf-8"))
                for path in self.SOURCES} == {path.name: [] for path in self.SOURCES}

    @pytest.mark.parametrize("source", [
        "open(p, 'w')",
        "open('out.csv', 'w')",
        "open(p, mode='a')",
        "open(file=p, mode='wb')",
        "gzip.open(p, 'wt')",
        "p.open('w')",
        "p.open(mode='r+')",
        "Path(p).write_text('x')",
        "p.write_bytes(b'x')",
        "LogStore(p)",
        "LogStore()",
        "with replacing(a) as tmp:\n    open(b, 'w')",
        "with replacing(a) as tmp:\n    tmp.parent.joinpath('x').write_text('x')",
        "with other(a) as tmp:\n    tmp.write_text('x')",
    ])
    def test_a_write_outside_replacing_is_caught(self, source):
        assert _unsafe_writes(source) != []

    @pytest.mark.parametrize("source", [
        "open(p)", "open(p, 'rb')", "gzip.open(p, 'rt')", "p.open('r')",
        "LogStore(p.as_uri() + '?mode=ro')",
        "with replacing(a) as tmp, open(tmp, 'w') as fh:\n    pass",
        "with csvio.replacing(a) as tmp:\n    tmp.open('w')",
    ])
    def test_a_read_or_a_write_through_replacing_passes(self, source):
        assert _unsafe_writes(source) == []

    def test_only_csvio_replaces_files_or_names_its_process(self):
        used = {}
        for path in self.SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            names |= {f"os.{a.name}" for n in ast.walk(tree)
                      if isinstance(n, ast.ImportFrom) and n.module == "os" for a in n.names}
            used.update({path.name: sorted(names & {"os.replace", "os.getpid"})})
        assert {name: found for name, found in used.items() if found} == {
            "csvio.py": ["os.getpid", "os.replace"]}
