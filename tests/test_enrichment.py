import csv
import io
import ipaddress
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage import enrichment, events
from webusage.enrichment import (
    ClientProfile,
    GeoIpLoadError,
    GeoIpRange,
    GeoIpTable,
    _data_rows,
    default_bots,
    default_search_registry,
    first_language_tag,
    ip_to_int,
    is_bot,
    load_geoip,
    parse_user_agent,
    sample_geoip_table,
)

from oracles import geoip_lookup_linear

FIREFOX_UBUNTU = (
    "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:15.0) Gecko/ 20100101 Firefox/15.0.1"
)


class TestUserAgents:
    """FORMATS.md "Lookup data": the UA rules, first match of each kind
    winning, and the bots list."""

    def test_firefox_on_ubuntu(self):
        profile = parse_user_agent(FIREFOX_UBUNTU)
        assert profile.browser_name == "Firefox"
        assert profile.browser_version == "15.0.1"
        assert profile.os_name == "Linux"
        assert profile.os_version == "unknown"
        assert profile.device_type == "desktop"

    def test_empty_and_none_are_unknown(self):
        assert parse_user_agent("") == ClientProfile()
        assert parse_user_agent(None) == ClientProfile()
        assert parse_user_agent("") .device_type == "unknown"

    def test_googlebot_is_bot(self):
        profile = parse_user_agent("Googlebot/2.1 (+http://www.google.com/bot.html)")
        assert profile == ClientProfile(device_type="bot")

    @pytest.mark.parametrize(
        "agent, expected",
        [
            (None, False),
            ("", False),
            ("Mozilla/5.0 (X11; Linux x86_64) Firefox/91.0", False),
            ("Googlebot/2.1", True),
            ("some CRAWLER v2", True),
            ("curl/7.79", True),
        ],
    )
    def test_is_bot_matches_a_substring_of_the_lowercased_agent(self, agent, expected):
        # twice, so the second call is answered from the cache
        assert is_bot(agent) is expected
        assert is_bot(agent) is expected
        assert (parse_user_agent(agent).device_type == "bot") is expected

    def test_chrome_on_windows(self):
        ua = (
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
            " (KHTML, like Gecko) Chrome/92.0.4515.131 Safari/537.36"
        )
        profile = parse_user_agent(ua)
        assert profile.browser_name == "Chrome"
        assert profile.browser_version.startswith("92.0")
        assert profile.os_name == "Windows"
        assert profile.device_type == "desktop"

    def test_iphone_is_mobile(self):
        ua = (
            "Mozilla/5.0 (iPhone; CPU iPhone OS 14_6 like Mac OS X)"
            " AppleWebKit/605.1.15 (KHTML, like Gecko) Version/14.1.1"
            " Mobile/15E148 Safari/604.1"
        )
        assert parse_user_agent(ua).device_type == "mobile"

    def test_ipad_is_tablet(self):
        ua = (
            "Mozilla/5.0 (iPad; CPU OS 14_6 like Mac OS X) AppleWebKit/605.1.15"
            " (KHTML, like Gecko) Version/14.1.1 Mobile/15E148 Safari/604.1"
        )
        assert parse_user_agent(ua).device_type == "tablet"

    @pytest.mark.parametrize("ua, device", [
        ("Firefox/91.0", "desktop"), ("X11; Linux", "desktop"), ("Lynx/2.8.9", "unknown"),
    ])
    def test_device_without_a_device_rule(self, ua, device):
        """An agent no device rule matches is `desktop` when a browser or OS
        rule matched it, and `unknown` otherwise."""
        assert parse_user_agent(ua).device_type == device

    def test_edge_beats_chrome_token(self):
        ua = (
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
            " (KHTML, like Gecko) Chrome/91.0.4472.124 Safari/537.36 Edg/91.0.864.67"
        )
        assert parse_user_agent(ua).browser_name == "Edge"

    @settings(max_examples=200)
    @given(st.text(max_size=120))
    def test_total_on_arbitrary_input(self, ua):
        profile = parse_user_agent(ua)
        assert profile.device_type in ("desktop", "mobile", "tablet", "bot", "unknown")
        assert profile.browser_version == "unknown" or re.match(
            r"^[\w.]+$", profile.browser_version
        )

    @settings(max_examples=500)
    @given(st.none() | st.text(max_size=120) | st.sampled_from([FIREFOX_UBUNTU, "Googlebot/2.1"]))
    def test_cached_profile_equals_a_fresh_parse(self, ua):
        # twice, so the second call is answered from the cache
        for _ in range(2):
            assert parse_user_agent(ua) == parse_user_agent.__wrapped__(ua)


class TestGeoIp:
    """FORMATS.md "Lookup data": the GeoIP CSV."""

    def test_two_rows_load(self):
        table = load_geoip(io.StringIO("0,100,AA\n200,300,BB\n"))
        assert len(table.ranges) == 2
        assert table.lookup(0) == "AA"
        assert table.lookup(150) == "unknown"
        assert table.lookup(300) == "BB"

    def test_overlap_rejected_with_line(self):
        with pytest.raises(GeoIpLoadError, match="line 2") as info:
            load_geoip(io.StringIO("0,100,AA\n50,300,BB\n"))
        assert info.value.line_no == 2

    def test_unsorted_input_accepted(self):
        table = load_geoip(io.StringIO("200,300,BB\n0,100,AA\n"))
        assert table.lookup(250) == "BB"
        assert table.lookup(99) == "AA"

    def test_bad_rows_rejected(self):
        for text, message in [
            ("1,2\n", "line 1: expected 3 columns, got 2"),
            ("a,2,XX\n", "line 1: ip bounds must be integers"),
            ("5,2,XX\n", "line 1: start_ip greater than end_ip"),
            ("1,2,\n", "line 1: empty country code"),
        ]:
            with pytest.raises(GeoIpLoadError) as info:
                load_geoip(io.StringIO(text))
            assert str(info.value) == message

    def test_header_only_as_first_row(self):
        header = "start_ip,end_ip,country_code\n"
        assert len(load_geoip(io.StringIO(header + "0,100,AA\n")).ranges) == 1
        for before in ("0,100,AA\n", "\n", "# ranges\n"):
            with pytest.raises(GeoIpLoadError) as info:
                load_geoip(io.StringIO(before + header + "200,300,BB\n"))
            assert str(info.value) == "line 2: ip bounds must be integers"

    @pytest.mark.parametrize("row", [
        "0,99999999999999,XX", "0,4294967296,XX", "-5,100,XX", "-10,-1,XX",
        "4294967296,4294967297,XX",
    ])
    def test_bounds_outside_ipv4_rejected_with_line(self, row):
        with pytest.raises(GeoIpLoadError, match=r"line 2: ip bounds must be in 0\.\.4294967295"):
            load_geoip(io.StringIO(f"0,100,AA\n{row}\n"))

    def test_full_ipv4_range_accepted(self):
        table = load_geoip(io.StringIO("0,4294967295,XX\n"))
        assert table.lookup("255.255.255.255") == table.lookup("0.0.0.0") == "XX"

    def test_cell_over_the_field_limit_names_its_line(self):
        big = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(GeoIpLoadError, match="line 3: field larger than field limit"):
            load_geoip(io.StringIO(f"0,100,AA\n\n200,300,{big}\n"))

    def test_comments_and_blanks_skipped(self):
        table = load_geoip(io.StringIO("# header\n\n0,100,AA\n"))
        assert len(table.ranges) == 1

    @pytest.mark.parametrize("text, line_no", [
        ('# ranges,"approximate\n0,100,AA\n200,300,BB\n', 3),
        ('0,100,AA\n# a,"b\rc"\n200,300,BB\n', 3),
    ])
    def test_a_comment_that_spans_lines_is_refused(self, text, line_no):
        """A quote that a comment opens would make every row up to its close
        part of the comment, so such a comment is refused, not skipped."""
        with pytest.raises(GeoIpLoadError) as info:
            load_geoip(io.StringIO(text, newline=""))
        assert str(info.value) == f"line {line_no}: comment spans several lines"
        table = load_geoip(io.StringIO('# ranges,"approximate"\n0,100,AA\n', newline=""))
        assert table.ranges == (GeoIpRange(0, 100, "AA"),)

    def test_empty_table_is_unknown(self):
        assert GeoIpTable([]).lookup("8.8.8.8") == "unknown"

    def test_boundaries_inclusive(self):
        table = GeoIpTable([GeoIpRange(100, 200, "CC")])
        assert table.lookup(100) == "CC"
        assert table.lookup(200) == "CC"
        assert table.lookup(99) == "unknown"
        assert table.lookup(201) == "unknown"

    def test_sample_table_resolves_campus_address(self):
        table = sample_geoip_table()
        assert table.lookup("193.140.253.80") == "TR"
        assert table.lookup("8.8.8.8") == "US"
        assert table.lookup("141.76.10.1") == "DE"

    def test_ip_to_int(self):
        assert ip_to_int("8.8.8.8") == 134744072
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int(42) == 42
        with pytest.raises(ValueError):
            ip_to_int("not-an-ip")

    def test_lookup_matches_linear_scan(self):
        table = sample_geoip_table()
        rng = random.Random(20210902)
        probes = [rng.randrange(0, 2**32) for _ in range(10_000)]
        for rec in table.ranges:
            probes.extend([rec.start_ip, rec.end_ip, rec.start_ip - 1, rec.end_ip + 1])
        for value in probes:
            assert table.lookup(value) == geoip_lookup_linear(table.ranges, value)


class TestCaches:
    """The cached lookups answer as the functions they wrap, keep no
    failure and stay bounded; so do the replay writer's escape caches."""

    @pytest.mark.parametrize("text", ["01.2.3.4", "256.0.0.1", "not-an-ip", ""])
    def test_invalid_address_raises_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises(ValueError):
                ip_to_int(text)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_cached_address_equals_a_fresh_parse(self, value):
        text = str(ipaddress.IPv4Address(value))
        for _ in range(2):
            assert ip_to_int(text) == value

    @settings(max_examples=300)
    @given(st.none() | st.text(max_size=60) | st.sampled_from([FIREFOX_UBUNTU, "Googlebot/2.1"]))
    def test_cached_bot_flag_equals_a_fresh_check(self, agent):
        for _ in range(2):
            assert is_bot(agent) is is_bot.__wrapped__(agent)

    @pytest.mark.parametrize("cached", [
        enrichment.is_bot, enrichment.ip_to_int, enrichment.parse_user_agent,
        events._escape_value, events._escape_map_part, events._map_value,
    ])
    def test_caches_are_bounded(self, cached):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096


class TestLanguages:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("tr-TR,tr;q=0.9,en;q=0.8", "tr-TR"),
            ("en-us", "en-US"),
            ("DE", "de"),
            ("en_GB", "en-GB"),
            (" fr ;q=0.5", "fr"),
            ("", None),
            (None, None),
            (",en", None),
        ],
    )
    def test_first_tag(self, value, expected):
        assert first_language_tag(value) == expected


class TestSearchRegistry:
    """FORMATS.md "Lookup data": the search engines TSV."""

    def test_google_query(self):
        registry = default_search_registry()
        got = registry.extract("http://www.google.com/search?q=sakarya")
        assert got == ("google", "sakarya")

    def test_country_domain_matches(self):
        registry = default_search_registry()
        got = registry.extract("https://www.google.com.tr/search?q=ders+programi")
        assert got == ("google", "ders programi")

    def test_yahoo_uses_p_param(self):
        registry = default_search_registry()
        assert registry.extract("http://search.yahoo.com/search?p=exam") == (
            "yahoo",
            "exam",
        )

    def test_engine_without_keywords(self):
        registry = default_search_registry()
        assert registry.extract("http://www.bing.com/search") == ("bing", None)
        assert registry.extract("http://www.bing.com/search?q=++") == ("bing", None)

    def test_keywords_normalized(self):
        registry = default_search_registry()
        got = registry.extract("http://www.google.com/search?q=Ders++Program%C4%B1")
        assert got == ("google", "ders programı")

    @pytest.mark.parametrize("space", ["\r", "\n", "\t", "\r\n"])
    def test_control_whitespace_collapses_to_a_space(self, space):
        registry = default_search_registry()
        got = registry.extract(f"https://www.google.com/search?q=cr{space}nul&hl=en")
        assert got == ("google", "cr nul")

    def test_fragment_is_not_the_query(self):
        registry = default_search_registry()
        assert registry.extract("https://www.google.com/search?q=a#b?q=c") == ("google", "a")
        assert registry.extract("https://www.google.com/#x?q=c") == ("google", None)

    def test_non_engine_is_none(self):
        registry = default_search_registry()
        assert registry.extract("http://www.example.com/?q=x") is None
        assert registry.extract("not a url") is None

    def test_label_must_be_whole_component(self):
        registry = default_search_registry()
        assert registry.extract("http://notgoogle.com/?q=x") is None

    def test_label_matches_a_component_of_the_lowercased_host(self):
        registry = default_search_registry()
        assert registry.extract("http://WWW.Google.COM.tr/search?q=Ders") == ("google", "ders")


class TestBundledData:
    """FORMATS.md "Lookup data": the shipped lookup tables hold only what
    the code expects of them."""

    def test_ua_rule_kinds_and_device_names(self):
        rows = _data_rows("ua_rules.tsv", 3)
        assert {kind for kind, _, _ in rows} == {"browser", "os", "device"}
        devices = {name for kind, _, name in rows if kind == "device"}
        assert devices <= {"desktop", "mobile", "tablet"}
        assert all(token and name for _, token, name in rows)

    def test_search_engine_rows(self):
        rows = _data_rows("search_engines.tsv", 3)
        assert rows
        for name, label, parameter in rows:
            assert name and parameter
            # match_host compares the label with lowercased host labels
            assert label and label == label.lower() and "." not in label
        assert default_search_registry().engines == tuple(rows)

    def test_bots_are_lowercase_text(self):
        bots = default_bots()
        assert bots
        for bot in bots:
            # is_bot looks for each entry in the lowercased agent
            assert bot.strip() and bot == bot.lower() and bot == bot.strip()

    def test_wrong_width_row_names_file_and_line(self, monkeypatch):
        text = "# comment\n\nbrowser\tEdg\tEdge\nos\tLinux\n"
        monkeypatch.setattr(enrichment, "_data_text", lambda name: text)
        with pytest.raises(ValueError, match=r"^rules\.tsv line 4: expected 3 tab-separated fields, got 2$"):
            _data_rows("rules.tsv", 3)

    def test_rows_skip_comments_and_blank_lines(self, monkeypatch):
        text = "# a\n\n  # b\nx\ty \n   \n"
        monkeypatch.setattr(enrichment, "_data_text", lambda name: text)
        assert _data_rows("t.tsv", 2) == [("x", "y")]
