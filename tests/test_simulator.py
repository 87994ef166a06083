"""Workload generator: determinism, accounting, log emission, scoring."""

import argparse
import gzip
import hashlib
import io
import itertools
import math
import random
import urllib.parse
from datetime import timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webusage import cli
from webusage.analytics import DISTRIBUTION_KINDS, Analytics
from webusage.baseline import parse_log_line, preprocess_log, render_log_line
from webusage.collector import Collector, replay_stream
from webusage.compare import collector_report, load_roster
from webusage.enrichment import sample_geoip_table
from webusage.events import read_replay, write_replay
from webusage.simulator import (
    DEFAULT_DEVICE_MIX,
    DEFAULT_USER_TYPE_MIX,
    SITE_HOST,
    ConfigError,
    WorkloadConfig,
    _exp_seconds,
    _poisson,
    emit_eclf,
    generate,
    simulate_to_dir,
)
from webusage.storage import TABLE_COLUMNS, USER_TYPES, LogStore
from webusage.truth import (
    TRUTH_HEADER,
    GroundTruth,
    TruthEvent,
    load_truth,
    read_truth,
    write_truth,
)

import oracles
from strategies import WIRE_TEXT, wire_events


def make_config(**overrides) -> WorkloadConfig:
    base = dict(
        seed=11,
        n_users=20,
        session_rate=3.0,
        pageviews_per_session_mean=5.0,
        duration=3 * 86400.0,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


class TestConfigValidation:
    """FORMATS.md "Numeric ranges": the `simulate` rows, checked by
    ``WorkloadConfig.validate``, each field's type before its range."""

    def test_defaults_are_valid(self):
        WorkloadConfig().validate()

    @pytest.mark.parametrize("field,value,flag", [
        ("n_users", 0, "users"),
        ("n_users", 2.5, "users"),
        ("n_users", True, "users"),
        ("session_rate", 0.0, "session-rate"),
        ("session_rate", 1000.5, "session-rate"),
        ("pageviews_per_session_mean", 0.5, "pageviews-mean"),
        ("pageviews_per_session_mean", 1001.0, "pageviews-mean"),
        ("timeout", 59.0, "timeout"),
        ("timeout", 31_536_001.0, "timeout"),
        ("timeout", float("nan"), "timeout"),
        ("duration", 3599.0, "duration"),
        ("duration", 315_360_001.0, "duration"),
        ("duration", float("nan"), "duration"),
        ("nat_share", 1.5, "nat-share"),
        ("dynamic_ip_share", -0.1, "dynamic-ip-share"),
        ("cookie_loss_share", 2.0, "cookie-loss-share"),
        ("cached_nav_share", -1.0, "cached-nav-share"),
        ("seed", "x", "seed"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("session_rate", "5", "session-rate"),
        ("duration", "3600", "duration"),
        ("nat_share", None, "nat-share"),
        ("cached_nav_share", True, "cached-nav-share"),
    ])
    def test_out_of_range_field_names_its_flag(self, field, value, flag):
        config = WorkloadConfig(**{field: value})
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert flag in info.value.fields
        assert flag in str(info.value)
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert f"--{flag}" in commands.choices["simulate"]._option_string_actions

    @pytest.mark.parametrize("field,value", [
        ("n_users", 1), ("session_rate", 1000.0), ("pageviews_per_session_mean", 1.0),
        ("pageviews_per_session_mean", 1000), ("timeout", 60), ("timeout", 31_536_000.0),
        ("duration", 3600.0), ("duration", 315_360_000), ("nat_share", 0),
        ("dynamic_ip_share", 1.0), ("cookie_loss_share", 0.0), ("cached_nav_share", 1),
    ])
    def test_range_ends_are_valid(self, field, value):
        WorkloadConfig(**{field: value}).validate()

    def test_default_mixes_are_valid(self):
        for mix, valid in (
            (DEFAULT_USER_TYPE_MIX, USER_TYPES),
            (DEFAULT_DEVICE_MIX, ("desktop", "mobile", "tablet")),
        ):
            assert all(name in valid for name, _ in mix)
            assert all(weight >= 0 for _, weight in mix)
            assert sum(weight for _, weight in mix) == pytest.approx(1.0, abs=1e-9)

    def test_wrong_type_names_the_kind_and_skips_the_range(self):
        config = WorkloadConfig(seed="x", n_users=2.0, session_rate="5", timeout=True,
                                nat_share=1)
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert str(info.value) == (
            "seed: must be an integer, got 'x'; users: must be an integer, got 2.0; "
            "session-rate: must be a number, got '5'; timeout: must be a number, got True"
        )

    def test_several_problems_reported_together(self):
        config = WorkloadConfig(n_users=0, nat_share=7.0)
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert info.value.fields == ["users", "nat-share"]

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_generate_validates_first(self):
        with pytest.raises(ConfigError):
            generate(WorkloadConfig(n_users=0))


def replay_bytes(events) -> bytes:
    buf = io.StringIO()
    write_replay(events, buf)
    return buf.getvalue().encode()


def truth_bytes(truth: GroundTruth) -> bytes:
    buf = io.StringIO()
    write_truth(truth, buf)
    return buf.getvalue().encode()


class TestDeterminism:
    """FORMATS.md "Randomness": a (config, seed) pair produces byte-identical
    files, and all randomness comes from the two seeded generators."""

    def test_generate_is_reproducible(self):
        config = make_config(nat_share=0.2, cookie_loss_share=0.1,
                             cached_nav_share=0.2, dynamic_ip_share=0.1)
        events_a, truth_a = generate(config)
        events_b, truth_b = generate(make_config(
            nat_share=0.2, cookie_loss_share=0.1,
            cached_nav_share=0.2, dynamic_ip_share=0.1,
        ))
        assert replay_bytes(events_a) == replay_bytes(events_b)
        assert truth_bytes(truth_a) == truth_bytes(truth_b)

    def test_seed_changes_output(self):
        events_a, _ = generate(make_config(seed=1))
        events_b, _ = generate(make_config(seed=2))
        assert replay_bytes(events_a) != replay_bytes(events_b)

    def test_simulate_to_dir_writes_identical_files_across_runs(self, tmp_path):
        config = make_config(cached_nav_share=0.2)
        paths_a = simulate_to_dir(config, tmp_path / "a")
        paths_b = simulate_to_dir(make_config(cached_nav_share=0.2), tmp_path / "b")
        assert set(paths_a) == {"replay", "eclf", "truth"}
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()

    def test_replay_file_round_trips_through_reader(self, tmp_path):
        config = make_config()
        events, _ = generate(config)
        paths = simulate_to_dir(config, tmp_path)
        with open(paths["replay"], encoding="utf-8") as fh:
            loaded = list(read_replay(fh))
        assert loaded == events

    def test_the_global_generator_is_neither_read_nor_moved(self):
        config = make_config(cached_nav_share=0.2, dynamic_ip_share=0.3)
        outputs = []
        saved = random.getstate()
        try:
            for seed in (1, 2):
                random.seed(seed)
                state = random.getstate()
                events, truth = generate(config)
                log = io.StringIO()
                emit_eclf(events, truth, config, log, noise=True)
                assert random.getstate() == state
                outputs.append((replay_bytes(events), truth_bytes(truth), log.getvalue()))
        finally:
            random.setstate(saved)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 9.0])
    def test_poisson_counts_uniforms_until_their_product_falls_to_exp_minus_lambda(self, lam):
        rng, twin = random.Random(5), random.Random(5)
        for _ in range(200):
            count = _poisson(rng, lam)
            if lam == 0.0:
                assert count == 0
                continue
            product = 1.0
            for drawn in itertools.count(1):
                product *= twin.random()
                if product <= math.exp(-lam):
                    break
            assert count == drawn - 1
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("mean", [1.0, 60.0, 300.0])
    def test_exponential_gaps_take_one_uniform_through_the_log_transform(self, mean):
        rng, twin = random.Random(5), random.Random(5)
        for _ in range(200):
            assert _exp_seconds(rng, mean) == int(-mean * math.log(1.0 - twin.random()))
        assert rng.getstate() == twin.getstate()


class TestSimulatorOutputs:
    """FORMATS.md "Simulator outputs": the three files ``simulate`` writes,
    and noise confined to the access log."""

    FLAGS = ["--users", "6", "--session-rate", "2", "--seed", "3", "--cached-nav-share", "0.3"]

    def simulate(self, out, capsys, *extra) -> dict[str, bytes]:
        assert cli.main(["simulate", *self.FLAGS, *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"replay: {out / 'events.replay'}", f"eclf: {out / 'access.log'}",
            f"truth: {out / 'truth.csv'}",
        ]
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_three_files_one_replay_line_per_truth_event(self, tmp_path, capsys):
        files = self.simulate(tmp_path, capsys)
        assert sorted(files) == ["access.log", "events.replay", "truth.csv"]
        truth = read_truth(io.StringIO(files["truth.csv"].decode(), newline=""))
        assert files["events.replay"].decode().count("\n") == len(truth.events)
        assert any(e.cached for e in truth.events)

    def test_toggling_noise_never_shifts_the_main_stream(self, tmp_path, capsys):
        noisy = self.simulate(tmp_path / "noisy", capsys)
        quiet = self.simulate(tmp_path / "quiet", capsys, "--no-noise")
        assert quiet["events.replay"] == noisy["events.replay"]
        assert quiet["truth.csv"] == noisy["truth.csv"]
        # The quiet log is the served events, and the noisy log holds them
        # in the same order among its noise lines.
        truth = read_truth(io.StringIO(quiet["truth.csv"].decode(), newline=""))
        quiet_lines = quiet["access.log"].decode().splitlines()
        assert [(e.ip, e.resource, int(e.timestamp.timestamp()))
                for e in map(parse_log_line, quiet_lines)] \
            == [(e.ip, e.resource, e.epoch) for e in truth.served_events()]
        noisy_lines = iter(noisy["access.log"].decode().splitlines())
        assert all(line in noisy_lines for line in quiet_lines)
        assert len(noisy["access.log"]) > len(quiet["access.log"])


class TestWorkloadShape:
    def test_events_come_out_time_ordered(self):
        events, truth = generate(make_config())
        times = [e.timestamp for e in events]
        assert times == sorted(times)
        epochs = [e.epoch for e in truth.events]
        assert epochs == sorted(epochs)

    def test_event_seq_matches_position(self):
        _, truth = generate(make_config())
        assert [e.event_seq for e in truth.events] == list(range(1, len(truth.events) + 1))

    def test_session_ids_are_contiguous_and_pageviews_add_up(self):
        _, truth = generate(make_config())
        assert sorted(s.session_id for s in truth.sessions) == list(
            range(1, len(truth.sessions) + 1)
        )
        assert sum(s.pageviews for s in truth.sessions) == len(truth.events)
        by_session = {}
        for event in truth.events:
            by_session[event.true_session_id] = by_session.get(event.true_session_id, 0) + 1
        for session in truth.sessions:
            assert by_session[session.session_id] == session.pageviews
            assert session.start_epoch <= session.end_epoch

    def test_session_events_stay_within_timeout(self):
        config = make_config()
        events, truth = generate(config)
        last_seen = {}
        for event, truth_event in zip(events, truth.events):
            key = truth_event.true_session_id
            if key in last_seen:
                prev_epoch, prev_token = last_seen[key]
                assert truth_event.epoch - prev_epoch <= config.timeout
                assert event.session_token == prev_token
            last_seen[key] = (truth_event.epoch, event.session_token)

    def test_intact_cookies_mean_one_token_per_user(self):
        events, truth = generate(make_config(cookie_loss_share=0.0))
        tokens = {}
        for event, truth_event in zip(events, truth.events):
            tokens.setdefault(truth_event.true_user_id, set()).add(event.session_token)
        assert all(len(seen) == 1 for seen in tokens.values())

    def test_total_cookie_loss_makes_every_event_its_own_session(self):
        events, truth = generate(make_config(cookie_loss_share=1.0))
        assert len(truth.sessions) == len(truth.events)
        assert len({e.session_token for e in events}) == len(events)

    def test_nat_pool_shares_addresses_three_ways(self):
        events, truth = generate(make_config(n_users=9, nat_share=1.0))
        assert len(truth.users) == 9
        ips = {e.ip for e in truth.events}
        assert 1 <= len(ips) <= 3
        active_users = {e.true_user_id for e in truth.events}
        assert len(active_users) > len(ips)

    def test_dynamic_addresses_rotate_mid_session(self):
        config = make_config(n_users=30, dynamic_ip_share=1.0, session_rate=4.0)
        _, truth = generate(config)
        per_session_ips = {}
        for event in truth.events:
            per_session_ips.setdefault(event.true_session_id, set()).add(event.ip)
        assert any(len(ips) > 1 for ips in per_session_ips.values())

    def test_cached_events_revisit_an_earlier_page(self):
        _, truth = generate(make_config(cached_nav_share=0.5))
        cached = [e for e in truth.events if e.cached]
        assert cached, "workload should contain cache-served navigations"
        seen = {}
        for event in sorted(truth.events, key=lambda e: e.event_seq):
            visited = seen.setdefault(event.true_session_id, set())
            if event.cached:
                assert event.resource in visited
            visited.add(event.resource)

    def test_zero_cached_share_marks_nothing_cached(self):
        _, truth = generate(make_config(cached_nav_share=0.0))
        assert all(not e.cached for e in truth.events)
        assert truth.served_events() == truth.events

    @pytest.mark.parametrize("seed", [7, 42])
    def test_counts_track_configured_means(self, seed):
        config = WorkloadConfig(seed=seed, n_users=200, session_rate=5.0,
                                pageviews_per_session_mean=7.0)
        _, truth = generate(config)
        expected_sessions = 200 * 5.0
        assert abs(len(truth.sessions) - expected_sessions) / expected_sessions < 0.10
        expected_pages = len(truth.sessions) * 7.0
        assert abs(len(truth.events) - expected_pages) / expected_pages < 0.10

    def test_signed_in_users_carry_their_username(self):
        events, truth = generate(make_config())
        username = {u.user_id: u.username for u in truth.users}
        for event, truth_event in zip(events, truth.events):
            assert event.auth_user == username[truth_event.true_user_id]
            assert event.cookies["sid"] == event.session_token

    def test_urls_stay_on_the_simulated_host(self):
        events, _ = generate(make_config())
        assert all(e.url.startswith(f"http://{SITE_HOST}/") for e in events)


_STRESSES = ("nat_share", "dynamic_ip_share", "cookie_loss_share", "cached_nav_share")


@st.composite
def _hostile_streams(draw):
    """Events of hostile text with truth events to match: any time, any
    resource text, cached or served."""
    events = draw(st.lists(wire_events, max_size=6))
    truth_events = [
        TruthEvent(
            event_seq=seq, true_user_id=1, true_session_id=1,
            epoch=draw(st.integers(0, 253_402_300_799)), ip=event.client_ip,
            resource=draw(WIRE_TEXT), cached=draw(st.booleans()),
        )
        for seq, event in enumerate(events, start=1)
    ]
    return events, GroundTruth(events=truth_events)


class TestWritersMatchReference:
    """emit_eclf formats each page event's time once, quotes through a
    cache and writes a page event's lines together, and write_replay
    escapes through caches; both must write the references' bytes."""

    @pytest.mark.parametrize(
        "levels", list(itertools.product((0.0, 1.0), repeat=len(_STRESSES))),
        ids=lambda levels: "-".join(f"{level:g}" for level in levels),
    )
    def test_workload_files(self, levels):
        config = make_config(n_users=8, duration=86400.0, **dict(zip(_STRESSES, levels)))
        events, truth = generate(config)
        for noise in (False, True):
            got, want = io.StringIO(), io.StringIO()
            count = emit_eclf(events, truth, config, got, noise=noise)
            assert count == oracles.emit_eclf_reference(events, truth, config, want, noise=noise)
            assert got.getvalue() == want.getvalue()
        replay = io.StringIO()
        assert write_replay(events, replay) == len(events)
        assert replay.getvalue() == "".join(
            f"{oracles.format_replay_line_reference(event)}\n" for event in events
        )

    @settings(max_examples=150)
    @given(_hostile_streams(), st.integers(0, 2**32), st.booleans())
    def test_hostile_text(self, stream, seed, noise):
        events, truth = stream
        config = WorkloadConfig(seed=seed)
        got, want = io.StringIO(), io.StringIO()
        count = emit_eclf(events, truth, config, got, noise=noise)
        assert count == oracles.emit_eclf_reference(events, truth, config, want, noise=noise)
        assert got.getvalue() == want.getvalue()

    def test_one_write_per_served_page_event(self):
        config = make_config(cached_nav_share=0.3)
        events, truth = generate(config)
        writes: list[str] = []
        stream = io.StringIO()
        stream.write = writes.append
        count = emit_eclf(events, truth, config, stream, noise=True)
        assert len(writes) == len(truth.served_events()) < count
        assert all(text.endswith("\n") for text in writes)
        assert sum(text.count("\n") for text in writes) == count

class TestEclfEmission:
    """FORMATS.md "Simulator outputs": the access log misses cache-served
    navigations and, with noise, adds log-only lines."""

    def emit(self, config: WorkloadConfig, noise: bool) -> tuple[list[str], int, GroundTruth]:
        events, truth = generate(config)
        buf = io.StringIO()
        lines = emit_eclf(events, truth, config, buf, noise=noise)
        text = buf.getvalue()
        assert text.count("\n") == lines
        return text.splitlines(), lines, truth

    def test_without_noise_one_line_per_served_event(self):
        lines, count, truth = self.emit(make_config(cached_nav_share=0.0), noise=False)
        assert count == len(lines) == len(truth.events)

    def test_cache_served_navigations_never_reach_the_log(self):
        lines, count, truth = self.emit(make_config(cached_nav_share=0.4), noise=False)
        served = truth.served_events()
        assert count == len(served) < len(truth.events)
        for line, event in zip(lines, served):
            entry = parse_log_line(line)
            assert entry.resource == event.resource
            assert entry.ip == event.ip
            assert int(entry.timestamp.timestamp()) == event.epoch

    def test_noise_adds_log_only_lines(self):
        quiet, quiet_count, truth = self.emit(make_config(), noise=False)
        noisy, noisy_count, _ = self.emit(make_config(), noise=True)
        assert noisy_count > quiet_count == len(truth.served_events())
        extras = len(noisy) - len(quiet)
        assert extras == noisy_count - quiet_count

    def test_noise_is_deterministic_too(self):
        lines_a, _, _ = self.emit(make_config(), noise=True)
        lines_b, _, _ = self.emit(make_config(), noise=True)
        assert lines_a == lines_b

    def test_every_line_parses_and_round_trips(self):
        lines, _, _ = self.emit(make_config(cached_nav_share=0.2), noise=True)
        for line in lines:
            entry = parse_log_line(line)
            assert render_log_line(entry) == line
            assert entry.timestamp.utcoffset() == timezone.utc.utcoffset(None)

    def test_noise_includes_statics_errors_and_crawlers(self):
        config = WorkloadConfig(seed=11, n_users=80, session_rate=5.0)
        lines, _, _ = self.emit(config, noise=True)
        entries = [parse_log_line(line) for line in lines]
        assert any(e.resource.endswith((".css", ".png", ".js", ".ico")) for e in entries)
        assert any(e.status != 200 for e in entries)
        assert any("bot" in (e.user_agent or "").lower() for e in entries)
        for entry in entries:
            if entry.status in (301, 302):
                assert entry.bytes_sent is None


class TestTruthRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        _, truth = generate(make_config(cached_nav_share=0.3, cookie_loss_share=0.1))
        path = tmp_path / "truth.csv"
        from webusage.truth import save_truth

        save_truth(truth, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(TRUTH_HEADER)
        loaded = load_truth(path)
        assert loaded == truth

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_truth(io.StringIO("a,b,c\n"))

    def test_unknown_row_kind_rejected(self):
        text = ",".join(TRUTH_HEADER) + "\n" + "mystery" + "," * (len(TRUTH_HEADER) - 1) + "\n"
        with pytest.raises(ValueError, match="unknown row kind"):
            read_truth(io.StringIO(text))

    def test_short_row_rejected(self):
        text = ",".join(TRUTH_HEADER) + "\nuser,1,alice\n"
        with pytest.raises(ValueError, match="columns"):
            read_truth(io.StringIO(text))

    def test_read_then_write_gives_back_the_file(self, tmp_path):
        config = make_config(cached_nav_share=0.3, cookie_loss_share=0.1, nat_share=0.2)
        paths = simulate_to_dir(config, tmp_path)
        written = Path(paths["truth"]).read_bytes()
        with open(paths["truth"], encoding="utf-8", newline="") as fh:
            truth = read_truth(fh)
        assert {e.cached for e in truth.events} == {False, True}
        assert None in {u.username for u in truth.users}
        assert truth_bytes(truth) == written

    def test_records_are_immutable_and_hashable(self):
        _, truth = generate(make_config(cached_nav_share=0.3))
        records = [truth.users[0], truth.sessions[0], truth.events[0]]
        for record, name in zip(records, ("user_id", "session_id", "event_seq")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert len({*truth.users, *truth.sessions, *truth.events}) == (
            len(truth.users) + len(truth.sessions) + len(truth.events)
        )
        assert TruthEvent(1, 2, 3, 4, "10.0.0.1", "/a.php").cached is False

    @pytest.mark.parametrize("row, message", [
        ("user,1,alice", "line 3: expected 15 columns, got 3"),
        ("mystery" + "," * 14, "line 3: unknown row kind 'mystery'"),
        ("user,x,alice,student,female,desktop,,,,,,,,,",
         "line 3: invalid literal for int() with base 10: 'x'"),
        ("session,1,,,,,7,3,100,1.5,,,,,",
         "line 3: invalid literal for int() with base 10: '1.5'"),
        ("event,1,,,,,7,,,,5,yes,100,10.0.0.1,/a.php",
         "line 3: invalid literal for int() with base 10: 'yes'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        good = "user,1,alice,student,female,desktop,,,,,,,,,"
        text = ",".join(TRUTH_HEADER) + f"\n{good}\n{row}\n"
        with pytest.raises(ValueError) as info:
            read_truth(io.StringIO(text))
        assert str(info.value) == message


def collect_workload(events, truth, config: WorkloadConfig):
    store = LogStore(":memory:")
    load_roster(store, truth)
    collector = Collector(store, [SITE_HOST], geoip=sample_geoip_table(),
                          timeout=config.timeout)
    pages, errors = replay_stream(collector, events)
    assert errors == 0 and pages == len(truth.events)
    return store


class TestPipelineAccuracy:
    def test_clean_workload_scores_perfectly_on_both_sides(self, tmp_path):
        config = WorkloadConfig(
            seed=42, n_users=40, session_rate=4.0,
            pageviews_per_session_mean=5.0, cached_nav_share=0.1,
            duration=3 * 86400.0,
        )
        paths = simulate_to_dir(config, tmp_path)
        truth = load_truth(paths["truth"])

        events, _ = generate(config)
        store = collect_workload(events, truth, config)
        try:
            report = collector_report(store, truth)
        finally:
            store.close()
        assert report.exact_session_match_rate == 1.0
        assert report.user_precision == report.user_recall == 1.0
        assert report.session_precision == report.session_recall == 1.0

        result = preprocess_log(
            paths["eclf"], mode="page_gap", page_gap=config.timeout,
            site_hosts=[SITE_HOST],
        )
        baseline = oracles.score_sessions(result.sessions, truth)
        assert baseline.exact_session_match_rate == 1.0
        assert baseline.user_precision == baseline.user_recall == 1.0

    def test_stressed_workload_defeats_the_log_side_only(self, tmp_path):
        config = WorkloadConfig(
            seed=42, n_users=40, session_rate=4.0,
            pageviews_per_session_mean=5.0, duration=3 * 86400.0,
            nat_share=0.3, cookie_loss_share=1.0,
        )
        paths = simulate_to_dir(config, tmp_path)
        truth = load_truth(paths["truth"])

        events, _ = generate(config)
        store = collect_workload(events, truth, config)
        try:
            collector_side = collector_report(store, truth)
        finally:
            store.close()

        result = preprocess_log(
            paths["eclf"], mode="page_gap", page_gap=config.timeout,
            site_hosts=[SITE_HOST],
        )
        baseline_side = oracles.score_sessions(result.sessions, truth)
        assert collector_side.exact_session_match_rate == 1.0
        assert baseline_side.exact_session_match_rate < 1.0
        assert (baseline_side.exact_session_match_rate
                <= collector_side.exact_session_match_rate)

    def test_gzipped_log_preprocesses_the_same(self, tmp_path):
        config = make_config()
        paths = simulate_to_dir(config, tmp_path)
        plain = preprocess_log(paths["eclf"], site_hosts=[SITE_HOST])
        gz_path = tmp_path / "access.log.gz"
        with open(paths["eclf"], "rb") as src, gzip.open(gz_path, "wb") as dst:
            dst.write(src.read())
        zipped = preprocess_log(gz_path, site_hosts=[SITE_HOST])
        assert zipped.stats.lines == plain.stats.lines
        assert len(zipped.sessions) == len(plain.sessions)


class TestExtremeConfigBytes:
    """The sha256 of the three ``simulate`` files for two extreme configs
    that the digest workloads do not reach: every stress at 1.0 with the
    shortest timeout, and a one-year timeout over one hour.  FORMATS.md
    "Randomness": the pins hold on every platform the suite runs on, under
    any hash seed."""

    PINNED = {
        "all-stress-timeout-60": (
            ["--users", "12", "--timeout", "60", "--nat-share", "1",
             "--dynamic-ip-share", "1", "--cookie-loss-share", "1", "--cached-nav-share", "1"],
            {
                "events.replay": "01594a119dd350359df77975f0103153d1c60f051395a805c34e47a55f988161",
                "access.log": "3e8deddfe24cfc2f5e8c9aa4d82bfa1cba291f61382b84e32b8f44905aabb6e7",
                "truth.csv": "7b9c311532fc6b60b7ce718211af476149de00a7465653600d26163cd68268e3",
            },
        ),
        "year-timeout-one-hour": (
            ["--users", "12", "--timeout", "31536000", "--duration", "3600",
             "--cookie-loss-share", "0.5", "--cached-nav-share", "0.5", "--nat-share", "0.5"],
            {
                "events.replay": "de41544cbed1a2af411d53502d9950e4ab2b34cbbc798e210b8c07b774b97fdd",
                "access.log": "4b98e225879709c2585014343139c474ed1ab5c99ce3e64d4d36f6d568fda577",
                "truth.csv": "8ab176f7d1c8b481cab4c70ac39fb528f4c0543e44025f1ff3082976be4478df",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_simulate_writes_the_pinned_bytes(self, tmp_path, capsys, name):
        flags, digests = self.PINNED[name]
        assert cli.main(["simulate", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        got = {
            file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for file in digests
        }
        assert got == digests


_SHARES = st.sampled_from((0.0, 0.5, 1.0))


def small_workloads(cookie_loss=_SHARES):
    """Bounded configs over the whole workload space, drawn without filtering."""
    return st.builds(
        WorkloadConfig,
        seed=st.integers(0, 2**32),
        n_users=st.integers(1, 8),
        session_rate=st.floats(0.0, 5.0, exclude_min=True),
        pageviews_per_session_mean=st.floats(1.0, 8.0),
        timeout=st.sampled_from((60.0, 600.0, 1800.0, 31_536_000.0)),
        nat_share=_SHARES,
        dynamic_ip_share=_SHARES,
        cookie_loss_share=cookie_loss,
        cached_nav_share=_SHARES,
        duration=st.sampled_from((3600.0, 7 * 86400.0)),
    )


class TestWorkloadProperties:
    """FORMATS.md "Truth CSV" orders, the paper's claim that the collector
    is exact while identity tokens are intact, and that the request API
    with any sweep schedule stores what a replay stores, on any small config
    rather than one seed."""

    @settings(max_examples=100, deadline=None)
    @given(small_workloads())
    def test_truth_orders(self, config):
        _, truth = generate(config)
        last_epoch: dict[int, int] = {}
        for event in truth.events:
            assert event.epoch > last_epoch.get(event.true_user_id, -1)
            last_epoch[event.true_user_id] = event.epoch
        keys = [(e.epoch, e.true_user_id) for e in truth.events]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [s.session_id for s in truth.sessions] == list(range(1, len(truth.sessions) + 1))
        starts = [(s.start_epoch, s.user_id) for s in truth.sessions]
        assert all(a < b for a, b in zip(starts, starts[1:]))

    @settings(max_examples=100, deadline=None)
    @given(small_workloads(cookie_loss=st.just(0.0)))
    def test_collector_is_exact_with_intact_cookies(self, config):
        events, truth = generate(config)
        store = collect_workload(events, truth, config)
        try:
            report = collector_report(store, truth)
            # Criterion 7: the reports conserve the store's pageviews and sessions.
            analytics = Analytics(store)
            pages, sessions = store.page_count(), store.session_count()
            assert sum(row[-1] for row in analytics.hourly_cube().rows) == pages
            assert sum(row[-1] for row in analytics.usage_buckets().rows) == sessions
            for kind in DISTRIBUTION_KINDS:
                ratios = [ratio for _, _, ratio in analytics.distribution(kind).rows]
                if sessions:
                    assert sum(ratios) == pytest.approx(1.0, abs=1e-9), kind
                else:
                    assert ratios == [], kind
        finally:
            store.close()
        assert (
            report.user_precision, report.user_recall,
            report.session_precision, report.session_recall,
            report.exact_session_match_rate,
        ) == (1.0,) * 5

    @settings(max_examples=100, deadline=None)
    @given(small_workloads(), st.integers(1, 2 * 86400))
    def test_request_api_with_sweeps_exports_what_replay_does(self, config, sweep_every):
        """Each event sent through ``handle_request_begin`` on its own, with a
        ``sweep_expired`` at the last point of a schedule every
        ``sweep_every`` seconds before each event and one at the last
        event's time plus the timeout plus 1 s, exports the bytes that
        ``replay_stream`` exports."""
        events, truth = generate(config)
        replayed = collect_workload(events, truth, config)
        live = LogStore(":memory:")
        try:
            load_roster(live, truth)
            collector = Collector(live, [SITE_HOST], geoip=sample_geoip_table(),
                                  timeout=config.timeout)
            step = timedelta(seconds=sweep_every)
            next_sweep = events[0].timestamp + step if events else None
            for event in events:
                if event.timestamp >= next_sweep:
                    # Only the schedule's last point before the event: a sweep
                    # at an earlier one closes a subset at the same times.
                    next_sweep += (event.timestamp - next_sweep) // step * step
                    collector.sweep_expired(next_sweep)
                    next_sweep += step
                collector.handle_request_begin(event)
            if events:
                collector.sweep_expired(
                    events[-1].timestamp + timedelta(seconds=config.timeout + 1))
            exports = [
                {table: _exported(store, table) for table in TABLE_COLUMNS}
                for store in (replayed, live)
            ]
        finally:
            live.close()
            replayed.close()
        assert exports[0] == exports[1]


def _exported(store: LogStore, table: str) -> str:
    out = io.StringIO(newline="")
    store.export_table(table, out)
    return out.getvalue()


class TestEventsFollowFromResources:
    """Each replay event ``generate`` builds carries what its truth event's
    resource fixes, in maps of its own."""

    @settings(max_examples=100, deadline=None)
    @given(small_workloads())
    def test_fields_follow_from_the_resource(self, config):
        events, truth = generate(config)
        assert len(events) == len(truth.events)
        for event, truth_event in zip(events, truth.events):
            resource = truth_event.resource
            path, _, query = resource.partition("?")
            assert event.url == f"http://{SITE_HOST}{resource}"
            assert event.module == path.removeprefix("/").removesuffix(".php")
            assert event.get_params == {k: v[0] for k, v in urllib.parse.parse_qs(query).items()}
            # generate builds events positionally: a swapped argument shows here.
            assert event.client_ip == truth_event.ip
            assert event.timestamp.replace(tzinfo=timezone.utc).timestamp() == truth_event.epoch
            assert event.method == "GET" and event.app_service == "campus"
            assert event.server_id == 1 and event.post_params == {}
            assert event.session_token == event.cookies["sid"]
            assert list(event.cookies) == ["sid", "accept-language"]

    @settings(max_examples=100, deadline=None)
    @given(small_workloads())
    def test_no_two_events_share_a_map(self, config):
        events, _ = generate(config)
        maps = [m for e in events for m in (e.get_params, e.post_params, e.cookies)]
        assert len({id(m) for m in maps}) == len(maps)
        before = [dict(m) for m in maps[3:]]
        for m in maps[:3]:
            m["mutated"] = "1"
        assert [dict(m) for m in maps[3:]] == before
