import csv
import gzip
import io
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage import csvio
from webusage.baseline import (
    STATIC_EXTENSIONS,
    EclfEntry,
    LineParseError,
    PreprocessStats,
    Visit,
    VisitEvent,
    _LINE_RE,
    _PLAIN_LINE_RE,
    _format_timestamp,
    _is_static,
    _parse_timestamp,
    _quoted,
    _referrer_resource,
    complete_paths,
    filter_entries,
    identify_users,
    parse_log_line,
    preprocess_log,
    read_sessions_csv,
    render_log_line,
    sessionize,
    write_sessions_csv,
)
from webusage.compare import (
    AccuracyReport, UniverseMismatchError, _pairwise, score_labelings,
)
from webusage.enrichment import parse_user_agent
from webusage.simulator import WorkloadConfig, simulate_to_dir
from webusage.truth import GroundTruth, TruthEvent

import oracles

SAMPLE = (
    '193.140.253.80 - - [15/Aug/2021:17:30:51 +0300] "GET /index.php HTTP/1.1"'
    ' 200 1246 "http://www.server.com/"'
    ' "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0) Gecko/ 20100101 Firefox/15.0.1"'
)

TZ3 = timezone(timedelta(hours=3))

# Simulator settings of the benchmark workloads (perfbench/workloads.py).
# live-requests replays campus-week's traffic, so two logs cover all three.
BENCH_WORKLOADS = {
    "campus-week": dict(n_users=25, session_rate=20.0, pageviews_per_session_mean=10.0),
    "stressed-short": dict(
        n_users=70, session_rate=20.0, pageviews_per_session_mean=3.0,
        nat_share=0.3, dynamic_ip_share=0.5, cookie_loss_share=0.25, cached_nav_share=0.3,
    ),
}

# Valid entries for render_log_line, and the characters the parser treats
# specially, for mutating the rendered lines.
BARE_FIELD = st.text(alphabet="abz019.:-", min_size=1, max_size=6)
QUOTED_FIELD = st.none() | st.text(alphabet=' "[]\\-+09az/é', max_size=10)
LOG_ENTRIES = st.builds(
    EclfEntry,
    ip=BARE_FIELD,
    identd=BARE_FIELD,
    authuser=BARE_FIELD,
    timestamp=st.datetimes(
        min_value=datetime(1, 1, 2),
        max_value=datetime(9999, 12, 30),
        timezones=st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m))),
    ),
    method=st.sampled_from(["GET", "POST", "HEAD"]),
    resource=st.sampled_from(["/", "*", "/a.php?x=1", "/img/b.png"]),
    protocol=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
    status=st.integers(100, 599),
    bytes_sent=st.none() | st.integers(0, 10**6),
    referrer=QUOTED_FIELD,
    user_agent=QUOTED_FIELD,
    cookies=QUOTED_FIELD,
)
DOUBLE_SPACE = "double space"
# (position, what): insert a character there, delete the one there (None),
# or double one of the line's spaces (DOUBLE_SPACE), which random inserts
# seldom do between two fields.
LINE_MUTATIONS = st.lists(
    st.tuples(
        st.integers(0, 10**4),
        st.none() | st.just(DOUBLE_SPACE) | st.sampled_from(list('"[]\\-+ 0123456789')),
    ),
    max_size=4,
)


def _mutate(line: str, mutations) -> str:
    for position, what in mutations:
        if what == DOUBLE_SPACE:
            spaces = [i for i, char in enumerate(line) if char == " "]
            if spaces:
                position = spaces[position % len(spaces)]
                line = line[:position] + " " + line[position:]
        elif what is not None:
            position %= len(line) + 1
            line = line[:position] + what + line[position:]
        elif line:
            position %= len(line)
            line = line[:position] + line[position + 1:]
    return line


def _parse_outcome(parse, line, log_format):
    """What a parser makes of a line; the offset is compared too, because
    aware datetimes compare equal across zones."""
    try:
        entry = parse(line, log_format)
    except LineParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", entry, entry.timestamp.utcoffset())


def _line(
    ip="10.0.0.1",
    when="02/Sep/2021:10:00:00 +0300",
    request="GET /index.php HTTP/1.1",
    status=200,
    size="512",
    referrer="-",
    agent="Mozilla/5.0 (X11; Linux x86_64) Firefox/91.0",
):
    return (
        f'{ip} - - [{when}] "{request}" {status} {size} "{referrer}" "{agent}"'
    )


def _entry(**kw) -> EclfEntry:
    return parse_log_line(_line(**kw))


def _mins(n):
    return datetime(2021, 9, 2, 10, 0, 0, tzinfo=TZ3) + timedelta(minutes=n)


def _visit(minute_offsets, resources=None, referrers=None):
    events = []
    for i, minutes in enumerate(minute_offsets):
        events.append(
            VisitEvent(
                timestamp=_mins(minutes),
                resource=resources[i] if resources else f"/p{i}.php",
                referrer=referrers[i] if referrers else None,
            )
        )
    return Visit(user_key=("10.0.0.1", "agent"), events=events)


class TestParse:
    """FORMATS.md "Access log (ECLF / CLF)": the fields of a line, '-' for an
    absent value, and the round trip through ``render_log_line``."""

    def test_sample_line_fields(self):
        entry = parse_log_line(SAMPLE)
        assert entry.ip == "193.140.253.80"
        assert entry.identd is None
        assert entry.authuser is None
        assert entry.timestamp == datetime(2021, 8, 15, 17, 30, 51, tzinfo=TZ3)
        assert entry.method == "GET"
        assert entry.resource == "/index.php"
        assert entry.protocol == "HTTP/1.1"
        assert entry.status == 200
        assert entry.bytes_sent == 1246
        assert entry.referrer == "http://www.server.com/"
        assert entry.user_agent == (
            "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0)"
            " Gecko/ 20100101 Firefox/15.0.1"
        )
        assert entry.cookies is None

    def test_garbage_rejected(self):
        with pytest.raises(LineParseError):
            parse_log_line("hello")

    def test_clf_line(self):
        line = '10.0.0.1 - frank [02/Sep/2021:10:00:00 +0300] "GET /a.php HTTP/1.0" 200 88'
        entry = parse_log_line(line, log_format="CLF")
        assert entry.referrer is None
        assert entry.user_agent is None
        assert entry.authuser == "frank"

    def test_clf_rejects_eclf_width(self):
        with pytest.raises(LineParseError):
            parse_log_line(SAMPLE, log_format="CLF")

    def test_trailing_cookie_field(self):
        line = SAMPLE + ' "sid=abc123; lang=tr"'
        entry = parse_log_line(line)
        assert entry.cookies == "sid=abc123; lang=tr"

    def test_dash_bytes_is_none(self):
        entry = _entry(size="-")
        assert entry.bytes_sent is None

    def test_dash_is_absent_in_each_optional_field_but_cookies(self):
        """identd, authuser, bytes, referrer and user agent read '-' as
        absent and write absent as '-'; a cookies field of '-' is kept."""
        line = '10.0.0.1 - - [02/Sep/2021:10:00:00 +0300] "GET /a.php HTTP/1.1" 200 - "-" "-" "-"'
        entry = parse_log_line(line)
        assert (entry.identd, entry.authuser, entry.bytes_sent, entry.referrer,
                entry.user_agent, entry.cookies) == (None, None, None, None, None, "-")
        assert render_log_line(entry) == line

    def test_bad_status_rejected(self):
        with pytest.raises(LineParseError):
            parse_log_line(_line(status=999))

    def test_bad_timestamp_rejected(self):
        with pytest.raises(LineParseError):
            parse_log_line(_line(when="02/Xxx/2021:10:00:00 +0300"))

    def test_escaped_quote_inside_agent(self):
        line = _line(agent='weird \\"quoted\\" agent')
        entry = parse_log_line(line)
        assert entry.user_agent == 'weird "quoted" agent'
        assert render_log_line(entry) == line

    def test_line_attached_to_error(self):
        bad_month = _line(when="02/Xxx/2021:10:00:00 +0300")
        bad_timestamp = _line(when="2021-09-02")
        for line in ("hello", bad_month, bad_timestamp):
            with pytest.raises(LineParseError) as info:
                parse_log_line(line)
            assert info.value.line == line

    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_round_trip_benchmark_logs(self, name, tmp_path):
        paths = simulate_to_dir(WorkloadConfig(seed=1, **BENCH_WORKLOADS[name]), tmp_path)
        lines = paths["eclf"].read_text(encoding="utf-8").splitlines()
        assert len(lines) > 1000
        for line in lines:
            assert render_log_line(parse_log_line(line)) == line

    def test_round_trip_sample_is_byte_identical(self):
        assert render_log_line(parse_log_line(SAMPLE)) == SAMPLE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"referrer": "-"},
            {"size": "-", "status": 302},
            {"agent": "Googlebot/2.1 (+http://www.google.com/bot.html)"},
            {"request": "GET /app/images/ccc.png HTTP/1.1"},
            {"ip": "212.174.9.30", "when": "31/Dec/2021:23:59:59 -0500"},
        ],
    )
    def test_round_trip_variants(self, kwargs):
        line = _line(**kwargs)
        assert render_log_line(parse_log_line(line)) == line

    def test_minus_zero_offset_reads_as_utc_and_renders_as_plus(self):
        """FORMATS.md "Access log (ECLF / CLF)": the one exception to the
        byte-for-byte round trip."""
        entry = _entry(when="02/Sep/2021:10:00:00 -0000")
        assert entry.timestamp == datetime(2021, 9, 2, 10, 0, 0, tzinfo=timezone.utc)
        assert render_log_line(entry) == _line(when="02/Sep/2021:10:00:00 +0000")


_ZONES = [
    None,
    timezone.utc,
    timezone(-timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=14)),
    timezone(timedelta(hours=5, minutes=30, seconds=15)),
    timezone(-timedelta(hours=5, minutes=30, seconds=15)),
]


def _rendered_timestamp(when: datetime) -> str:
    entry = EclfEntry(ip="10.0.0.1", identd=None, authuser=None, timestamp=when,
                      method="GET", resource="/", protocol="HTTP/1.1", status=200, bytes_sent=5)
    return render_log_line(entry).partition("[")[2].partition("]")[0]


class TestRenderedTimestamp:
    """render_log_line looks its zone text up by offset; it must write what
    the reference formatter computes from the offset every time (FORMATS.md
    "Access log (ECLF / CLF)")."""

    @pytest.mark.parametrize("tz", _ZONES, ids=str)
    def test_matches_reference(self, tz):
        when = datetime(2021, 9, 2, 10, 0, 0, tzinfo=tz)
        assert _rendered_timestamp(when) == oracles.format_timestamp_reference(when)

    def test_one_instant_in_two_zones(self):
        utc = datetime(2021, 9, 2, 10, 0, 0, tzinfo=timezone.utc)
        assert utc == utc.astimezone(TZ3)
        assert [_rendered_timestamp(utc), _rendered_timestamp(utc.astimezone(TZ3))] == [
            "02/Sep/2021:10:00:00 +0000", "02/Sep/2021:13:00:00 +0300",
        ]

    @settings(max_examples=300)
    @given(st.datetimes(
        min_value=datetime(1, 1, 2),
        max_value=datetime(9999, 12, 30),
        timezones=st.none() | st.integers(-86399, 86399).map(
            lambda s: timezone(timedelta(seconds=s))),
    ))
    def test_any_zone_matches_reference(self, when):
        assert _format_timestamp(when) == oracles.format_timestamp_reference(when)


class TestParseMatchesReference:
    """parse_log_line reads a line with one match of its format's pattern and
    gives what the slot-by-slot reference parser gives, entry or error."""

    @settings(max_examples=3000)
    @given(
        LOG_ENTRIES,
        st.sampled_from(["ECLF", "CLF"]),
        st.sampled_from(["ECLF", "CLF"]),
        LINE_MUTATIONS,
    )
    def test_mutated_lines(self, entry, written, read, mutations):
        line = _mutate(render_log_line(entry, written), mutations)
        assert _parse_outcome(parse_log_line, line, read) == _parse_outcome(
            oracles.parse_log_line_reference, line, read
        )

    @pytest.mark.parametrize("line, log_format, field, value", [
        ('"10.0.0.1" - - [02/Sep/2021:10:00:00 +0300] "GET /a.php HTTP/1.1" 200 5',
         "CLF", "error", "bad ip: '\"10.0.0.1\"'"),
        ('10.0.0.1 - - 02/Sep/2021:10:00:00 +0300 "GET /a.php HTTP/1.1" 200 5 "-" "ua"',
         "ECLF", "error", "bad timestamp: '02/Sep/2021:10:00:00'"),
        (_line(request='GET /a\\"b.php HTTP/1.1'), "ECLF", "resource", '/a"b.php'),
        ('10.0.0.1  -  - [02/Sep/2021:10:00:00 +0300]   "GET /a.php HTTP/1.1" 200  5  "-" "ua" ',
         "ECLF", "bytes_sent", 5),
        (_line() + '  "sid=abc; lang=tr"', "ECLF", "cookies", "sid=abc; lang=tr"),
        (_line(when="02/Sep/2021:10:00:00 +0300 "), "ECLF", "error",
         "bad timestamp: '02/Sep/2021:10:00:00 +0300 '"),
    ])
    def test_examples(self, line, log_format, field, value):
        outcome = _parse_outcome(parse_log_line, line, log_format)
        assert outcome == _parse_outcome(oracles.parse_log_line_reference, line, log_format)
        if field == "error":
            assert outcome[:2] == ("error", value)
        else:
            assert getattr(outcome[1], field) == value

    def test_well_formed_lines_take_one_match(self):
        for line in (SAMPLE, SAMPLE + ' "sid=abc"', _line(agent='weird \\"quoted\\" agent')):
            assert _LINE_RE["ECLF"].fullmatch(line) is not None
        assert _LINE_RE["CLF"].fullmatch(SAMPLE.split(' "http')[0]) is not None
        for line in (SAMPLE, SAMPLE + ' "sid=abc"'):
            assert _PLAIN_LINE_RE["ECLF"].fullmatch(line) is not None
        assert _PLAIN_LINE_RE["CLF"].fullmatch(SAMPLE.split(' "http')[0]) is not None

    @settings(max_examples=1000)
    @given(
        LOG_ENTRIES, st.sampled_from(["ECLF", "CLF"]), st.sampled_from(["ECLF", "CLF"]),
        LINE_MUTATIONS,
    )
    def test_plain_pattern_matches_lines_without_backslash_alike(
        self, entry, written, read, mutations
    ):
        line = _mutate(render_log_line(entry, written), mutations).replace("\\", "")
        plain, full = _PLAIN_LINE_RE[read].fullmatch(line), _LINE_RE[read].fullmatch(line)
        assert (plain and plain.groups()) == (full and full.groups())

    @pytest.mark.parametrize("when", [
        "31/Feb/2021:10:00:00 +0300",
        "00/Sep/2021:10:00:00 +0300",
        "02/Sep/0000:10:00:00 +0300",
        "02/Sep/2021:25:00:00 +0300",
        "02/Sep/2021:10:60:00 +0300",
        "02/Sep/2021:10:00:60 +0300",
        "02/Sep/2021:10:00:00 +9999",
        "02/Sep/2021:10:00:00 +2400",
        "02/Sep/2021:10:00:00 -0060",
    ])
    @pytest.mark.parametrize("spaces", [" ", "  "])
    def test_impossible_timestamp_is_a_parse_error(self, when, spaces):
        line = _line(when=when).replace(" ", spaces, 1)
        with pytest.raises(LineParseError) as info:
            parse_log_line(line)
        assert str(info.value) == f"bad timestamp: {when!r}"
        assert info.value.line == line

    @pytest.mark.parametrize(
        "status", ["+200", "2_00", "0200", "\uff12\uff10\uff10", "200\n", "99", "600"]
    )
    def test_status_outside_grammar_rejected(self, status):
        with pytest.raises(LineParseError) as info:
            parse_log_line(_line(status=status))
        assert str(info.value) == f"bad status: {status!r}"

    @pytest.mark.parametrize("size", ["1_000", "+5", "-5", "\u0663", "5\n", "\u00b2"])
    def test_byte_count_outside_grammar_rejected(self, size):
        with pytest.raises(LineParseError) as info:
            parse_log_line(_line(size=size))
        assert str(info.value) == f"bad byte count: {size!r}"

    @pytest.mark.parametrize(
        "when", ["\u06602/Sep/2021:10:00:00 +0300", "02/Sep/2021:10:00:00 +\u0660300"]
    )
    def test_timestamp_digits_are_ascii(self, when):
        with pytest.raises(LineParseError) as info:
            parse_log_line(_line(when=when))
        assert str(info.value) == f"bad timestamp: {when!r}"


_CLF_LINE = '10.0.0.1 - - [02/Sep/2021:10:00:00 +0300] "GET /a.php HTTP/1.1" 200 5'


class TestParseErrors:
    """Each parse-error reason of FORMATS.md "Access log (ECLF / CLF)", word
    for word.  A quoted ip and bare text in the quoted slots were once read
    as fields."""

    @pytest.mark.parametrize("line, log_format, message", [
        ("hello", "ECLF", "expected 9 fields for ECLF, got 1"),
        ("10.0.0.1 - -", "CLF", "expected 7 fields for CLF, got 3"),
        (_CLF_LINE, "ECLF", "expected 9 fields for ECLF, got 7"),
        (_CLF_LINE + ' "-"', "CLF", "more than 7 fields for CLF"),
        (_CLF_LINE + ' "-" "ua" "sid=1" "x"', "ECLF", "more than 10 fields for ECLF"),
        ("[10.0.0.1]" + _CLF_LINE.removeprefix("10.0.0.1"), "CLF", "bad ip: '[10.0.0.1]'"),
        (_CLF_LINE.replace(" - - ", ' "-" - ', 1), "CLF", "bad identd: '\"-\"'"),
        (_CLF_LINE.replace(" - - ", " - [-] ", 1), "CLF", "bad authuser: '[-]'"),
        (_CLF_LINE.replace("[02/Sep/2021:10:00:00 +0300]", "[02/Sep/21:10:00:00 +0300]"),
         "CLF", "bad timestamp: '02/Sep/21:10:00:00 +0300'"),
        ('"10.0.0.1"' + _CLF_LINE.removeprefix("10.0.0.1"), "CLF", "bad ip: '\"10.0.0.1\"'"),
        (_CLF_LINE.replace(" HTTP/1.1", ""), "CLF", "bad request line: 'GET /a.php'"),
        (_CLF_LINE.replace('"GET /a.php HTTP/1.1"', "GET /a.php HTTP/1.1"), "CLF",
         "bad request line: 'GET'"),
        (_CLF_LINE.replace(" 200 ", ' "200" '), "CLF", "bad status: '\"200\"'"),
        (_CLF_LINE.replace(" 5", " [5]"), "CLF", "bad byte count: '[5]'"),
        (_CLF_LINE + " - ua sid=1", "ECLF", "bad referrer: '-'"),
        (_CLF_LINE + ' "-"x "ua"', "ECLF", "bad referrer: '-'"),
        (_CLF_LINE + ' "-" "ua', "ECLF", "bad user agent: '\"ua'"),
        (_CLF_LINE + ' "-" "ua" sid=1', "ECLF", "bad cookies: 'sid=1'"),
        (_CLF_LINE.replace("/a.php", "a.php"), "CLF", "bad resource: 'a.php'"),
        (_CLF_LINE.replace(" 200 ", " 600 "), "CLF", "bad status: '600'"),
        (_CLF_LINE.replace(" 5", " 5k"), "CLF", "bad byte count: '5k'"),
        (_CLF_LINE.replace("Sep", "Sept"), "CLF", "bad timestamp: '02/Sept/2021:10:00:00 +0300'"),
        (_CLF_LINE.replace("Sep", "Xxx"), "CLF", "bad month: 'Xxx'"),
        (_CLF_LINE.replace("02/Sep", "31/Sep"), "CLF",
         "bad timestamp: '31/Sep/2021:10:00:00 +0300'"),
        # Escapes are not undone in the text of a field that lacks its kind ...
        (_CLF_LINE + ' "-" "u\\"a', "ECLF", "bad user agent: '\"u\\\\\"a'"),
        # ... but the resource is judged, and named, with them undone.
        (_CLF_LINE.replace("/a.php", 'a\\"b.php'), "CLF", "bad resource: 'a\"b.php'"),
        # Kinds are judged before any check, and the checks in table order.
        (_CLF_LINE.replace("/a.php", "a.php") + ' "-" "ua" sid=1', "ECLF",
         "bad cookies: 'sid=1'"),
        (_CLF_LINE.replace("/a.php", "a.php").replace(" 200 ", " 600 "), "CLF",
         "bad resource: 'a.php'"),
        (_CLF_LINE.replace(" 200 ", " 600 ").replace(" 5", " 5k"), "CLF", "bad status: '600'"),
        (_CLF_LINE.replace(" 5", " 5k").replace("Sep", "Xxx"), "CLF", "bad byte count: '5k'"),
    ])
    def test_reason(self, line, log_format, message):
        with pytest.raises(LineParseError) as info:
            parse_log_line(line, log_format)
        assert (str(info.value), info.value.line) == (message, line)


class TestReadLog:
    """How ``preprocess_log`` reads its log (FORMATS.md "Access log (ECLF /
    CLF)"): blank lines are skipped uncounted, a line that does not parse
    is counted and skipped, and a .gz log is read through gzip."""

    def test_plain_file(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(SAMPLE + "\nhello\n\n  \n" + SAMPLE + "\n", encoding="utf-8")
        result = preprocess_log(path)
        assert (result.stats.lines, result.stats.parse_errors, result.stats.kept) == (3, 1, 2)

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "access.log.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(SAMPLE + "\n")
        result = preprocess_log(path)
        assert (result.stats.lines, result.stats.parse_errors) == (1, 0)
        assert [v.user_key[0] for v in result.sessions] == ["193.140.253.80"]

    @pytest.mark.parametrize("text", [None, "", "\n  \n", SAMPLE + "\n"])
    def test_unknown_format_is_refused_before_the_log_is_read(self, tmp_path, text):
        """A missing, empty or blank log has no line to check the format
        with; the format is refused all the same, with the message a line
        gets."""
        path = tmp_path / "access.log"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            preprocess_log(path, log_format="XLF")
        assert str(info.value) == "log_format must be CLF or ECLF, got 'XLF'"


class TestCalendarEnds:
    """FORMATS.md "Access log (ECLF / CLF)": a log time whose instant falls
    outside years 1-9999 in UTC is a bad timestamp, so ``preprocess`` never
    writes a sessions CSV time that ``compare`` refuses."""

    OUTSIDE = ["31/Dec/9999:23:59:59 -1400", "01/Jan/0001:00:00:00 +1400",
               "31/Dec/9999:23:59:59 -0001", "01/Jan/0001:00:00:59 +0001"]
    INSIDE = ["31/Dec/9999:23:59:59 +0000", "01/Jan/0001:00:00:00 -0000",
              "31/Dec/9999:09:59:59 -1400", "01/Jan/0001:14:00:00 +1400"]

    @pytest.mark.parametrize("when", OUTSIDE)
    def test_outside_is_a_bad_timestamp(self, when):
        line = _line(when=when)
        with pytest.raises(LineParseError) as info:
            parse_log_line(line)
        assert (str(info.value), info.value.line) == (f"bad timestamp: {when!r}", line)
        assert _parse_outcome(oracles.parse_log_line_reference, line, "ECLF")[:2] == (
            "error", f"bad timestamp: {when!r}")

    @pytest.mark.parametrize("when", INSIDE)
    def test_inside_parses_as_its_reference(self, when):
        line = _line(when=when)
        assert _parse_outcome(parse_log_line, line, "ECLF") == _parse_outcome(
            oracles.parse_log_line_reference, line, "ECLF")

    def test_preprocess_writes_only_times_compare_reads(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text("".join(
            _line(when=when, request=f"GET /p{i}.php HTTP/1.1") + "\n"
            for i, when in enumerate(self.OUTSIDE[:2] + self.INSIDE[:2])
        ), encoding="utf-8")
        result = preprocess_log(log)
        assert (result.stats.lines, result.stats.parse_errors, result.stats.kept) == (4, 2, 2)
        written = io.StringIO(newline="")
        write_sessions_csv(result.sessions, written)
        written.seek(0)
        assert sorted(row[2] for row in read_sessions_csv(written)) == [
            -62135596800, 253402300799]


class TestFilter:
    def test_spec_listed_cases(self):
        entries = [
            _entry(request="GET /app/images/ccc.png HTTP/1.1"),
            _entry(request="GET /app/admin/adm.php HTTP/1.1", status=404),
            _entry(),
        ]
        kept, stats = filter_entries(entries)
        assert [e.resource for e in kept] == ["/index.php"]
        assert stats.kept == 1
        assert stats.dropped_static == 1
        assert stats.dropped_status == 1
        assert stats.dropped_bot == 0

    def test_bot_dropped(self):
        entries = [_entry(agent="Googlebot/2.1 (+http://www.google.com/bot.html)")]
        kept, stats = filter_entries(entries)
        assert kept == []
        assert stats.dropped_bot == 1

    @pytest.mark.parametrize("agent", ["-", "Mozilla/5.0", "Googlebot/2.1", "some CRAWLER v2"])
    def test_bot_rule_is_the_collector_rule(self, agent):
        entry = _entry(agent=agent)
        _, stats = filter_entries([entry])
        assert stats.dropped_bot == int(parse_user_agent(entry.user_agent).device_type == "bot")

    def test_status_checked_before_extension(self):
        entries = [_entry(request="GET /x.png HTTP/1.1", status=404)]
        _, stats = filter_entries(entries)
        assert stats.dropped_status == 1
        assert stats.dropped_static == 0

    def test_query_string_stripped_for_extension(self):
        entries = [_entry(request="GET /style.css?v=3 HTTP/1.1")]
        _, stats = filter_entries(entries)
        assert stats.dropped_static == 1

    def test_default_extensions(self):
        assert set(STATIC_EXTENSIONS) == {
            ".png", ".jpg", ".gif", ".css", ".js", ".ico",
        }

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["/a.php", "/b.png", "/c.css", "/d.php"]),
                st.sampled_from([200, 301, 404]),
                st.sampled_from(["Mozilla/5.0", "crawler-x"]),
            ),
            max_size=25,
        )
    )
    def test_kept_subset_and_counts_conserve(self, rows):
        entries = [
            _entry(request=f"GET {res} HTTP/1.1", status=status, agent=agent)
            for res, status, agent in rows
        ]
        kept, stats = filter_entries(entries)
        assert stats.kept == len(kept)
        assert (
            stats.kept + stats.dropped_status + stats.dropped_static + stats.dropped_bot
            == len(entries)
        )
        kept_keys = [(e.timestamp, e.resource) for e in kept]
        all_keys = [(e.timestamp, e.resource) for e in entries]
        for key in kept_keys:
            assert key in all_keys


class TestIdentifyUsers:
    def test_two_ips_two_users(self):
        entries = [_entry(ip="10.0.0.1"), _entry(ip="10.0.0.2")]
        kept, _ = filter_entries(entries)
        visits = identify_users(kept)
        assert len(visits) == 2

    def test_one_ip_two_agents_two_users(self):
        entries = [
            _entry(agent="Mozilla/5.0 (X11; Linux x86_64) Firefox/91.0"),
            _entry(agent="Mozilla/5.0 (Windows NT 10.0) Chrome/92.0"),
        ]
        kept, _ = filter_entries(entries)
        assert len(identify_users(kept)) == 2

    def test_same_pair_merges_ordered(self):
        entries = [
            _entry(when="02/Sep/2021:10:05:00 +0300"),
            _entry(when="02/Sep/2021:10:00:00 +0300"),
            _entry(when="02/Sep/2021:10:02:00 +0300"),
        ]
        kept, _ = filter_entries(entries)
        visits = identify_users(kept)
        assert len(visits) == 1
        times = [e.timestamp for e in visits[0].events]
        assert times == sorted(times)


class TestSessionize:
    def test_both_mode_spec_fixture(self):
        visit = _visit([0, 5, 36, 38])
        sessions = sessionize(visit)
        assert [len(s.events) for s in sessions] == [2, 2]

    def test_page_gap_vs_session_duration(self):
        visit = _visit([0, 9, 18, 27, 36])
        by_page_gap = sessionize(visit, mode="page_gap")
        assert [len(s.events) for s in by_page_gap] == [5]
        by_duration = sessionize(visit, mode="session_duration")
        assert [len(s.events) for s in by_duration] == [4, 1]

    def test_single_event(self):
        assert [len(s.events) for s in sessionize(_visit([0]))] == [1]

    def test_boundary_strict(self):
        exactly = sessionize(_visit([0, 10]), mode="page_gap")
        assert len(exactly) == 1
        over = sessionize(_visit([0, 10.001]), mode="page_gap")
        assert len(over) == 2

    def test_split_at_midnight(self):
        visit = Visit(
            user_key=("10.0.0.1", "agent"),
            events=[
                VisitEvent(datetime(2021, 9, 2, 23, 58, 0, tzinfo=TZ3), "/a.php"),
                VisitEvent(datetime(2021, 9, 3, 0, 2, 0, tzinfo=TZ3), "/b.php"),
            ],
        )
        assert len(sessionize(visit)) == 1
        assert len(sessionize(visit, split_at_midnight=True)) == 2

    def test_session_ids_sequential(self):
        sessions = sessionize(_visit([0, 5, 36, 38]))
        assert [s.session_id for s in sessions] == [1, 2]

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(min_value=0, max_value=90), min_size=1, max_size=30),
        st.sampled_from(["page_gap", "session_duration", "both"]),
    )
    def test_concatenation_restores_input(self, offsets, mode):
        offsets.sort()
        visit = _visit(offsets)
        sessions = sessionize(visit, mode=mode)
        flattened = [e for s in sessions for e in s.events]
        assert flattened == visit.events
        expected_sizes = oracles.sessionize_reference(
            [m * 60.0 for m in offsets],
            session_gap=1800.0,
            page_gap=600.0,
            mode=mode,
        )
        assert [len(s.events) for s in sessions] == expected_sizes


class TestCompletePaths:
    def test_back_button_chain(self):
        events = [
            VisitEvent(_mins(0), "/a.php"),
            VisitEvent(_mins(1), "/b.php", referrer="/a.php"),
            VisitEvent(_mins(2), "/c.php", referrer="/b.php"),
            VisitEvent(_mins(3), "/d.php", referrer="/a.php"),
        ]
        stats = PreprocessStats()
        completed = complete_paths(events, (), stats)
        resources = [(e.resource, e.inferred) for e in completed]
        assert resources == [
            ("/a.php", False),
            ("/b.php", False),
            ("/c.php", False),
            ("/b.php", True),
            ("/a.php", True),
            ("/d.php", False),
        ]
        assert stats.inferred_events == 2
        assert stats.incomplete_paths == 0
        assert completed[3].timestamp == _mins(3)
        assert completed[4].timestamp == _mins(3)

    def test_referrer_equals_previous_is_noop(self):
        events = [
            VisitEvent(_mins(0), "/a.php"),
            VisitEvent(_mins(1), "/b.php", referrer="/a.php"),
        ]
        stats = PreprocessStats()
        completed = complete_paths(events, (), stats)
        assert completed == events
        assert stats.inferred_events == 0

    def test_external_referrer_untouched(self):
        events = [
            VisitEvent(_mins(0), "/a.php"),
            VisitEvent(_mins(1), "/b.php", referrer="http://elsewhere.org/x"),
        ]
        stats = PreprocessStats()
        completed = complete_paths(events, ("www.campus.example",), stats)
        assert completed == events
        assert stats.inferred_events == 0

    def test_absolute_site_referrer_resolved(self):
        events = [
            VisitEvent(_mins(0), "/a.php"),
            VisitEvent(_mins(1), "/b.php", referrer="http://www.campus.example/a.php"),
            VisitEvent(_mins(2), "/c.php", referrer="http://www.campus.example/a.php"),
        ]
        stats = PreprocessStats()
        completed = complete_paths(events, ("www.campus.example",), stats)
        assert [e.resource for e in completed] == [
            "/a.php", "/b.php", "/a.php", "/c.php",
        ]
        assert stats.inferred_events == 1
        assert completed[2].inferred

    def test_unseen_referrer_counts_incomplete(self):
        events = [
            VisitEvent(_mins(0), "/a.php"),
            VisitEvent(_mins(1), "/b.php", referrer="/zzz.php"),
        ]
        stats = PreprocessStats()
        completed = complete_paths(events, (), stats)
        assert completed == events
        assert stats.incomplete_paths == 1


class TestScoring:
    """FORMATS.md "Scoring (`compare`)": the rates, and the baseline's join."""

    def test_identical_labelings_all_ones(self):
        pred = ["a", "a", "b"]
        truth_sess = [10, 10, 11]
        users_pred = ["u1", "u1", "u1"]
        users_truth = [5, 5, 5]
        report = score_labelings(pred, users_pred, truth_sess, users_truth)
        assert report.user_precision == 1.0
        assert report.user_recall == 1.0
        assert report.session_precision == 1.0
        assert report.session_recall == 1.0
        assert report.exact_session_match_rate == 1.0

    def test_singletons_vs_one_session(self):
        pred = ["a", "b", "c"]
        truth_sess = [10, 10, 10]
        users = ["u", "u", "u"]
        report = score_labelings(pred, users, truth_sess, users)
        assert report.exact_session_match_rate == 0.0
        assert report.session_precision == 1.0  # no false pair predicted
        assert report.session_recall == 0.0

    def test_merged_vs_split_truth(self):
        pred = ["a", "a"]
        truth_sess = [10, 11]
        users = ["u", "u"]
        report = score_labelings(pred, users, truth_sess, users)
        assert report.session_precision == 0.0
        assert report.session_recall == 1.0

    def test_report_text_shape(self):
        pred = ["a"]
        report = score_labelings(pred, pred, [1], [1])
        text = report.to_text()
        assert "  exact_session_match_rate: 1.000000" in text
        assert "  user_precision: 1.000000" in text

    def test_duplicate_keys_pair_in_session_text_order(self):
        """Truth events 1 and 3 share a key.  Session 10's event of that key
        takes event 1, as str((user_key, 10)) sorts before str((user_key, 2)),
        although session 2 comes first in the list and in tuple order."""
        ip = "10.0.0.1"
        truth = GroundTruth(events=[
            TruthEvent(1, 1, 1, 100, ip, "/a"),
            TruthEvent(2, 1, 1, 160, ip, "/b"),
            TruthEvent(3, 2, 2, 100, ip, "/a"),
        ])
        at = lambda epoch, resource: VisitEvent(datetime.fromtimestamp(epoch, timezone.utc), resource)
        sessions = [
            Visit((ip, "ua"), [at(100, "/a")], session_id=2),
            Visit((ip, "ua"), [at(100, "/a"), at(160, "/b")], session_id=10),
        ]
        report = oracles.score_sessions(sessions, truth)
        assert report.exact_session_match_rate == 1.0
        assert report.session_precision == report.session_recall == 1.0

    def test_ip_is_the_user_key_up_to_its_first_bar(self):
        """An agent holding '|' leaves the ip of the join whole."""
        truth = GroundTruth(events=[TruthEvent(1, 1, 1, 100, "10.0.0.1", "/a")])
        at = datetime.fromtimestamp(100, timezone.utc)
        visits = [Visit(("10.0.0.1", "ua|x|y"), [VisitEvent(at, "/a")], session_id=1)]
        report = oracles.score_sessions(visits, truth)
        assert report.exact_session_match_rate == 1.0

    def test_a_rate_with_nothing_to_count_is_1(self):
        """No event has no pair and no session; singletons have sessions
        but no pair."""
        assert score_labelings([], [], [], []) == AccuracyReport(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0)
        assert score_labelings(["a", "b"], ["u", "v"], [1, 2], [5, 6]) == AccuracyReport(
            1.0, 1.0, 1.0, 1.0, 1.0, 2, 2)

    def test_inferred_rows_and_cached_truth_events_are_not_joined(self):
        """Only the CSV's rows with inferred 0 meet only the truth's events
        with cached 0; the others would not pair up."""
        ip = "10.0.0.1"
        truth = GroundTruth(events=[
            TruthEvent(1, 1, 1, 100, ip, "/a"),
            TruthEvent(2, 1, 1, 160, ip, "/b", cached=True),
            TruthEvent(3, 1, 1, 200, ip, "/c"),
        ])
        at = lambda epoch: datetime.fromtimestamp(epoch, timezone.utc)
        events = [VisitEvent(at(100), "/a"), VisitEvent(at(200), "/d", inferred=True),
                  VisitEvent(at(200), "/c")]
        visits = [Visit((ip, "ua"), events, session_id=1)]
        report = oracles.score_sessions(visits, truth)
        assert report == AccuracyReport(1.0, 1.0, 1.0, 1.0, 1.0, 1, 1)

    @pytest.mark.parametrize("lengths", [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)])
    def test_sequences_of_different_lengths_raise(self, lengths):
        with pytest.raises(UniverseMismatchError, match="label sequences cover different events"):
            score_labelings(*(["a"] * n for n in lengths))


# Cluster labels as scoring sees them: ints, text and (user key, session) tuples.
CLUSTER_LABELS = st.sampled_from(
    [0, 1, 2, "a", "b", ("10.0.0.1", "ua"), (("10.0.0.1", "ua"), 1), (("10.0.0.1", "ua"), 2)]
)


@st.composite
def _labelings(draw, n=None):
    """Predicted and truth labels of ``n`` events (drawn when not given),
    index i of both labelling event i.  The truth is drawn, all singletons
    or all one cluster; the prediction one of those too, or the truth's
    clusters with some events moved to drawn labels."""
    if n is None:
        n = draw(st.integers(0, 40))

    def labels():
        shape = draw(st.sampled_from(["drawn", "singletons", "one cluster"]))
        if shape == "singletons":
            return [("single", i) for i in range(n)]
        if shape == "one cluster":
            return ["all"] * n
        return [draw(CLUSTER_LABELS) for _ in range(n)]

    truth = labels()
    if draw(st.booleans()):
        return labels(), truth
    return [draw(CLUSTER_LABELS) if draw(st.booleans()) else ("truth", t) for t in truth], truth


def _keyed(labels):
    """Labels as the reference scorers take them: a map from event id."""
    return dict(enumerate(labels))


# Text dense in what the sessions CSV quotes or splits on.
CSV_TEXT = st.text(st.sampled_from([",", '"', "|", "\n", "\r", " ", "a", "/", "é", "ş", "😀"]),
                   max_size=8)
VISITS = st.lists(st.builds(
    Visit,
    user_key=st.tuples(CSV_TEXT, CSV_TEXT),
    events=st.lists(st.builds(
        VisitEvent,
        timestamp=st.datetimes(
            min_value=datetime(1900, 1, 2), max_value=datetime(2100, 12, 30),
            timezones=st.none() | st.integers(-1439, 1439).map(
                lambda m: timezone(timedelta(minutes=m))),
        ),
        resource=CSV_TEXT,
        referrer=st.none() | CSV_TEXT,
        inferred=st.booleans(),
    ), max_size=5),
    session_id=st.integers(1, 50),
), max_size=6)


class TestMatchesReference:
    """The counted scoring and the per-visit CSV writer give exactly what
    their one-event-at-a-time references in tests/oracles.py give."""

    @settings(max_examples=500)
    @given(_labelings())
    def test_pairwise(self, labelings):
        pred, truth = labelings
        assert _pairwise(pred, truth) == oracles.pairwise_reference(_keyed(pred), _keyed(truth))
        assert _pairwise(truth, pred) == oracles.pairwise_reference(_keyed(truth), _keyed(pred))

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_pairwise_singletons_and_one_cluster(self, n):
        singletons = list(range(n))
        one = ["all"] * n
        for pred, truth in [(singletons, one), (one, singletons), (one, one)]:
            assert _pairwise(pred, truth) == oracles.pairwise_reference(
                _keyed(pred), _keyed(truth)
            )

    @settings(max_examples=300)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(_labelings(n), _labelings(n))))
    def test_score_labelings(self, labelings):
        """The whole report, exact-match rate and session counts included,
        equals the frozenset reference's."""
        (pred_session, truth_session), (pred_user, truth_user) = labelings
        report = score_labelings(pred_session, pred_user, truth_session, truth_user)
        assert report == oracles.score_labelings_reference(
            _keyed(pred_session), _keyed(pred_user), _keyed(truth_session), _keyed(truth_user)
        )

    @settings(max_examples=300)
    @given(VISITS)
    def test_sessions_csv(self, visits):
        written, expected = io.StringIO(newline=""), io.StringIO(newline="")
        n = write_sessions_csv(visits, written)
        assert n == oracles.write_sessions_csv_reference(visits, expected)
        assert written.getvalue() == expected.getvalue()
        written.seek(0)
        _, *rows = csv.reader(io.StringIO(expected.getvalue(), newline=""))
        assert read_sessions_csv(written) == [
            (key, int(session), int(time), resource, inferred == "1")
            for key, session, _, time, resource, inferred in rows
        ]


class TestCell:
    """``csvio.cell`` is the text ``oracles.csv_row_reference`` gives one
    cell of a wider row, and ``csv`` reads the cell back as it was."""

    def check(self, text):
        if oracles.CSV_REFUSES_NUL and "\x00" in text:
            pytest.skip("this Python's csv refuses NUL")
        cell = csvio.cell(text)
        assert oracles.csv_row_reference((text, text)) == f"{cell},{cell}\n"
        assert list(csv.reader(io.StringIO(f"{cell},{cell}\n", newline=""))) == [[text, text]]

    @pytest.mark.parametrize("char", [chr(i) for i in range(128)])
    def test_every_ascii_character_alone_and_inside_text(self, char):
        for text in (char, f"a{char}b", f"{char}{char}", f" {char}"):
            self.check(text)

    @pytest.mark.parametrize("text", [
        "", '"', '""', 'a"b', "\r", '"\r"', "a\r\nb", "\x00", "é", "ş😀",
        "10.0.0.1|Mozilla/5.0 (X11; Linux x86_64) Firefox/91.0", "/a.php?x=1,2",
    ])
    def test_named_texts(self, text):
        self.check(text)

    @settings(max_examples=500)
    @given((st.text(max_size=20) | CSV_TEXT).filter(
        lambda text: not (oracles.CSV_REFUSES_NUL and "\x00" in text)))
    def test_any_text(self, text):
        self.check(text)

    def test_a_quoted_cell_keeps_its_row_whole(self):
        """FORMATS.md "Classical sessions CSV (`preprocess --out`)": a cell
        holding a quote or a CR is quoted, and its row reads back whole."""
        when = datetime(2021, 9, 2, tzinfo=timezone.utc)
        visits = [Visit(("10.0.0.1", 'Agent "x"\r'), [VisitEvent(when, "/a\rb")], 1)]
        written = io.StringIO(newline="")
        write_sessions_csv(visits, written)
        assert written.getvalue().partition("\n")[2] == (
            '"10.0.0.1|Agent ""x""\r",1,1,1630540800,"/a\rb",0\n'
        )
        written.seek(0)
        assert read_sessions_csv(written) == [
            ('10.0.0.1|Agent "x"\r', 1, 1630540800, "/a\rb", False)
        ]


class TestLookupCaches:
    """Timestamps and referrers are parsed, and quoted fields written,
    through bounded caches of pure functions: a cached answer is the fresh
    one, and errors are not cached."""

    def test_caches_are_bounded(self):
        for cached in (_parse_timestamp, _is_static, _referrer_resource, _quoted, csvio.cell):
            assert 0 < cached.cache_parameters()["maxsize"] < 10**5

    @settings(max_examples=200)
    @given(st.none() | st.text(alphabet=st.sampled_from('"\\ a-é'), max_size=8))
    def test_cached_quoted_field_equals_a_fresh_one(self, value):
        for _ in range(2):
            assert _quoted(value) == _quoted.__wrapped__(value)

    def test_impossible_timestamp_fails_every_time_with_its_own_line(self):
        when = "31/Feb/2021:10:00:00 +0300"
        for line in (_line(when=when, ip="10.0.0.1"), _line(when=when, ip="10.0.0.2")):
            with pytest.raises(LineParseError) as info:
                parse_log_line(line)
            assert (str(info.value), info.value.line) == (f"bad timestamp: {when!r}", line)

    @pytest.mark.parametrize("zone, offset", [
        ("+0530", timedelta(hours=5, minutes=30)),
        ("-0000", timedelta(0)),
    ])
    def test_cached_timestamp_equals_a_fresh_datetime(self, zone, offset):
        fresh = datetime(2021, 9, 2, 10, 0, 0, tzinfo=timezone(offset))
        _parse_timestamp.cache_clear()
        for hits in (0, 1):
            when = _entry(when=f"02/Sep/2021:10:00:00 {zone}").timestamp
            assert (when, when.utcoffset()) == (fresh, offset)
            assert _parse_timestamp.cache_info().hits == hits

    def test_one_referrer_two_host_sets(self):
        referrer = "http://www.campus.example/a.php?x=1"
        assert _referrer_resource(referrer, frozenset({"www.campus.example"})) == "/a.php?x=1"
        assert _referrer_resource(referrer, frozenset({"other.example"})) is None
        assert _referrer_resource(referrer, frozenset({"www.campus.example"})) == "/a.php?x=1"


class TestEndToEnd:
    def test_nat_pair_confuses_user_precision(self, tmp_path):
        # Two people share one IP and one browser build; the baseline sees
        # one user where the truth has two.
        lines = []
        for minute, who in [(0, "a"), (1, "b"), (2, "a"), (3, "b")]:
            lines.append(
                _line(
                    ip="193.140.5.5",
                    when=f"02/Sep/2021:10:{minute:02d}:00 +0300",
                    request=f"GET /{who}.php HTTP/1.1",
                )
            )
        path = tmp_path / "nat.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = preprocess_log(path)
        assert result.stats.kept == 4
        assert result.stats.users == 1

    def test_preprocess_stats_text(self, tmp_path):
        path = tmp_path / "tiny.log"
        path.write_text(
            "\n".join(
                [
                    SAMPLE,
                    "junk line",
                    _line(request="GET /x.png HTTP/1.1"),
                    _line(status=404),
                    _line(agent="curl/7.79"),
                    _line(),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        result = preprocess_log(path)
        text = result.stats.text()
        assert "lines: 6" in text
        assert "parse_errors: 1" in text
        assert "dropped_status: 1" in text
        assert "dropped_static: 1" in text
        assert "dropped_bot: 1" in text
        assert "kept: 2" in text

    def test_sessions_csv_round_trip(self, tmp_path):
        """FORMATS.md "Classical sessions CSV (`preprocess --out`)": user_key
        is ip|agent, session ids count from 1 and time is epoch seconds."""
        visit = _visit([0, 5, 36, 38])
        sessions = sessionize(visit)
        out = tmp_path / "sessions.csv"
        with out.open("w", encoding="utf-8", newline="") as fh:
            write_sessions_csv(sessions, fh)
        with out.open(encoding="utf-8", newline="") as fh:
            restored = read_sessions_csv(fh)
        assert [row[1] for row in restored] == [1, 1, 2, 2]
        assert restored[0][0] == "|".join(visit.user_key)
        assert restored[0][3] == visit.events[0].resource
        assert restored[0][2] == int(visit.events[0].timestamp.timestamp())

    def test_sessions_csv_times_at_the_ends_of_the_calendar(self):
        """FORMATS.md "Classical sessions CSV (`preprocess --out`)": the
        first second of year 1 and the last of year 9999 in UTC read back as
        they are; a second past either is refused."""
        lines = ["user_key,session_id,seq,time,resource,inferred",
                 "a|b,1,1,-62135596800,/x,0", "a|b,1,2,253402300799,/y,1"]
        assert read_sessions_csv(io.StringIO("\n".join(lines) + "\n")) == [
            ("a|b", 1, -62135596800, "/x", False), ("a|b", 1, 253402300799, "/y", True),
        ]
        for epoch in (-62135596801, 253402300800):
            with pytest.raises(csvio.RowError) as info:
                read_sessions_csv(io.StringIO(f"{lines[0]}\na|b,1,1,{epoch},/x,0\n"))
            assert str(info.value) == f"line 2: time {epoch} is outside years 1-9999 in UTC"


# Lines that the three drop rules and the grouping act on: two addresses,
# one agent a robot, static resources with a query and upper case, and
# instants around midnight, each written in one of four zones, so one
# instant may be written twice with different text.
_SITE = "www.campus.example"
_NEAR_MIDNIGHT = datetime(2021, 9, 2, 23, 30, tzinfo=timezone.utc)
VISIT_ENTRIES = st.builds(
    EclfEntry,
    ip=st.sampled_from(["10.0.0.1", "10.0.0.1", "10.0.0.2"]),
    identd=st.none(),
    authuser=st.none(),
    timestamp=st.builds(
        lambda step, tz: (_NEAR_MIDNIGHT + timedelta(minutes=12 * step)).astimezone(tz),
        st.integers(0, 6),
        st.sampled_from([timezone.utc, TZ3, timezone(timedelta(hours=-5)),
                         timezone(timedelta(hours=5, minutes=30))]),
    ),
    method=st.just("GET"),
    resource=st.sampled_from(["/a.php", "/b.php", "/c.php?x=1", "/a.php", "/img/d.PNG?v=2",
                              "/e.css"]),
    protocol=st.just("HTTP/1.1"),
    status=st.sampled_from([200, 200, 200, 200, 404]),
    bytes_sent=st.just(5),
    referrer=st.sampled_from([None, "/a.php", f"http://{_SITE}/b.php", "http://other.example/"]),
    user_agent=st.sampled_from([None, "Mozilla/5.0", "Mozilla/5.0", "Googlebot/2.1"]),
    cookies=st.none(),
)
# Each item is an entry written in the format read (None) or in a given
# one, then mutated; or a blank line.
_LOG_LINES = st.lists(
    st.one_of(
        st.tuples(VISIT_ENTRIES, st.none(), st.just([])),
        st.tuples(VISIT_ENTRIES, st.none(), st.just([])),
        st.tuples(LOG_ENTRIES, st.sampled_from(["ECLF", "CLF"]), LINE_MUTATIONS),
        st.sampled_from(["", "  ", "\t", "\r", "\u2003"]),
    ),
    max_size=16,
)


class TestSinglePass:
    """``preprocess_log`` reads, checks, filters and groups each line in one
    pass; its counters and sessions CSV are those of the separate passes of
    ``oracles.preprocess_reference``."""

    @settings(max_examples=150, deadline=None)
    @given(
        _LOG_LINES,
        st.booleans(),
        st.sampled_from([".log", ".log.gz"]),
        st.sampled_from(["ECLF", "CLF"]),
        st.sampled_from(["page_gap", "session_duration", "both"]),
        st.booleans(),
        st.sampled_from([(), (_SITE,)]),
    )
    def test_matches_reference(self, tmp_path_factory, items, bad_utf8, suffix, log_format,
                               mode, split_at_midnight, site_hosts):
        lines = [
            item if isinstance(item, str)
            else _mutate(render_log_line(item[0], item[1] or log_format), item[2])
            for item in items
        ]
        data = "\n".join(lines).encode("utf-8")
        if bad_utf8:  # an invalid byte in place of each é
            data = data.replace("é".encode("utf-8"), b"\xff")
        path = tmp_path_factory.getbasetemp() / f"single-pass{suffix}"
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        args = dict(log_format=log_format, mode=mode, split_at_midnight=split_at_midnight,
                    site_hosts=site_hosts)
        results = [preprocess_log(path, **args), oracles.preprocess_reference(path, **args)]
        texts = [result.stats.text() for result in results]
        assert texts[0] == texts[1]
        written = [io.StringIO(newline="") for _ in results]
        for result, stream in zip(results, written):
            write_sessions_csv(result.sessions, stream)
        assert written[0].getvalue() == written[1].getvalue()

    def test_equal_instants_keep_file_order(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text("".join(_line(when=when, request=f"GET {resource} HTTP/1.1") + "\n"
                               for when, resource in [("02/Sep/2021:13:00:00 +0300", "/b.php"),
                                                      ("02/Sep/2021:10:00:00 +0000", "/a.php"),
                                                      ("02/Sep/2021:09:59:00 +0000", "/c.php")]),
                       encoding="utf-8")
        [session] = preprocess_log(log).sessions
        assert [event.resource for event in session.events] == ["/c.php", "/b.php", "/a.php"]


class TestPreprocessCounters:
    """FORMATS.md "Classical sessions CSV (`preprocess --out`)": what each
    counter that ``preprocess`` prints means."""

    def test_counters_sum_to_the_lines_of_a_simulated_log(self, small_workload, tmp_path):
        config = small_workload[0]
        paths = simulate_to_dir(config, tmp_path)
        with paths["eclf"].open("a", encoding="utf-8") as fh:
            fh.write("junk line\n\n" + _line(request="GET /x.png HTTP/1.1", size="5k") + "\n")
        result = preprocess_log(paths["eclf"], site_hosts=[_SITE])
        f = result.stats
        assert min(f.kept, f.dropped_status, f.dropped_static, f.dropped_bot) > 0
        assert f.parse_errors == 2
        text = paths["eclf"].read_text(encoding="utf-8")
        assert f.lines == len([line for line in text.splitlines() if line.strip()])
        assert f.lines == (f.parse_errors + f.kept + f.dropped_status
                           + f.dropped_static + f.dropped_bot)
        written = io.StringIO(newline="")
        write_sessions_csv(result.sessions, written)
        written.seek(0)
        rows = read_sessions_csv(written)
        assert f.users == len({row[0] for row in rows})
        assert len(result.sessions) == len({row[:2] for row in rows})
        assert f.inferred_events == sum(row[4] for row in rows)
        assert f.kept == len(rows) - f.inferred_events

    def test_a_malformed_static_line_is_a_parse_error(self, tmp_path):
        """A line is checked before any drop rule, so a bad line whose
        resource is static counts under parse_errors, not dropped_static."""
        log = tmp_path / "access.log"
        log.write_text(_line(request="GET /x.png HTTP/1.1", size="5k") + "\n"
                       + _line(request="GET /x.png HTTP/1.1", status=404) + "\n",
                       encoding="utf-8")
        stats = preprocess_log(log).stats.text()
        assert stats.startswith("lines: 2\nparse_errors: 1\nkept: 0\ndropped_status: 1\n"
                                "dropped_static: 0\n")

    def test_incomplete_paths_count_unseen_on_site_referrers(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text("".join(_line(when=f"02/Sep/2021:10:0{i}:00 +0300",
                                     request=f"GET {res} HTTP/1.1", referrer=ref) + "\n"
                               for i, (res, ref) in enumerate([
                                   ("/a.php", "/z.php"), ("/b.php", "/a.php"), ("/c.php", "/x.php"),
                                   ("/d.php", "/a.php"), ("/e.php", "http://other.example/"),
                               ])), encoding="utf-8")
        result = preprocess_log(log)
        # A first page's referrer is not judged; /x.php never occurred, so it
        # is incomplete; /a.php is two pages back, so /c and /b are inferred.
        assert (result.stats.incomplete_paths, result.stats.inferred_events) == (1, 2)


class TestSessionsCsvSeq:
    """FORMATS.md "Classical sessions CSV (`preprocess --out`)": seq numbers
    the events of each session from 1, and compare does not read it."""

    def test_seq_restarts_in_each_session(self):
        written = io.StringIO(newline="")
        write_sessions_csv(sessionize(_visit([0, 5, 36, 38, 39])), written)
        seqs = [row.split(",")[1:3] for row in written.getvalue().splitlines()[1:]]
        assert seqs == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"], ["2", "3"]]

    def test_seq_is_not_read(self):
        header = "user_key,session_id,seq,time,resource,inferred"
        for seq in ("1", "7", "x", ""):
            rows = read_sessions_csv(io.StringIO(f"{header}\na|b,1,{seq},60,/x,0\n"))
            assert rows == [("a|b", 1, 60, "/x", False)]


class TestSessionsCsvTime:
    """FORMATS.md "Classical sessions CSV (`preprocess --out`)": an event
    time without a UTC offset is written as the UTC time it names, whatever
    the host's time zone."""

    @pytest.mark.skipif(not hasattr(time, "tzset"), reason="time.tzset is POSIX only")
    @pytest.mark.parametrize("zone", ["UTC0", "JST-9", "EST+5"])
    def test_a_naive_time_is_written_as_utc_in_any_zone(self, monkeypatch, zone):
        naive = datetime(2021, 9, 2, 10)
        aware = datetime(2021, 9, 2, 13, tzinfo=timezone(timedelta(hours=3)))
        visits = [Visit(("10.0.0.1", "a"), [VisitEvent(naive, "/a"), VisitEvent(aware, "/b")], 1)]
        written = io.StringIO(newline="")
        monkeypatch.setenv("TZ", zone)
        time.tzset()
        try:
            write_sessions_csv(visits, written)
        finally:
            monkeypatch.undo()
            time.tzset()
        assert written.getvalue().splitlines()[1:] == [
            "10.0.0.1|a,1,1,1630576800,/a,0", "10.0.0.1|a,1,2,1630576800,/b,0",
        ]


class TestUniverseChecks:
    """FORMATS.md "Scoring (`compare`)": a sessions CSV and a truth that do not describe
    the same events are refused."""

    def test_mismatched_stream_raises(self, small_workload, tmp_path):
        from webusage.simulator import simulate_to_dir

        config, _, truth = small_workload
        out = simulate_to_dir(config, tmp_path, noise=False)
        result = preprocess_log(out["eclf"], site_hosts=("www.campus.example",))
        wrong = truth.__class__(
            users=truth.users,
            sessions=truth.sessions,
            events=truth.events[:-1],
        )
        with pytest.raises(UniverseMismatchError):
            oracles.score_sessions(result.sessions, wrong)

    def test_least_unpaired_keys_are_named(self):
        """Whatever the order of the visits, the error names the least key
        the prediction holds more often than the truth, or else the least
        three the truth holds more often than the prediction."""
        ip = "10.0.0.1"
        truth = GroundTruth(events=[TruthEvent(i, 1, 1, 100 * i, ip, "/a") for i in range(1, 6)])
        at = lambda epoch: VisitEvent(datetime.fromtimestamp(epoch, timezone.utc), "/a")
        sessions = [Visit((ip, "a"), [at(100), at(350)], 1), Visit((ip, "b"), [at(250)], 1)]
        with pytest.raises(UniverseMismatchError) as excinfo:
            oracles.score_sessions(sessions, truth)
        assert str(excinfo.value) == f"predicted event not in truth: (250, '{ip}', '/a')"
        with pytest.raises(UniverseMismatchError) as excinfo:
            oracles.score_sessions([Visit((ip, "a"), [at(300)], 1)], truth)
        assert str(excinfo.value) == (
            f"truth events missing from prediction: "
            f"[(100, '{ip}', '/a'), (200, '{ip}', '/a'), (400, '{ip}', '/a')]"
        )
