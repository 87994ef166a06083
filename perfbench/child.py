"""Run the measured phases of one workload in a fresh interpreter.

Usage: child.py SPEC_JSON RESULT_JSON

run.py generates the inputs, writes SPEC_JSON and starts this script, so the
peak RSS reported for the workload is that of the measured phases alone and
not of the generator.  Each iteration drives the ``webusage`` CLI in-process
(collect, preprocess, every report kind, compare, export), then sends replay
events one by one through the request-time API.  Outputs are checked and
hashed on every iteration; a failed check stops the run without a number.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import re
import resource
import shutil
import signal
import sqlite3
import statistics
import sys
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from time import perf_counter

SWEEP_EVERY = timedelta(minutes=5)
MIN_LATENCY_SAMPLES = 1000
# The live loop is timed in chunks of this many requests, with the reference
# loop between chunks, so that each chunk's machine speed is known.
LIVE_CHUNK = 100
# Every timing is scaled to the machine speed at which reference_loop takes
# this long: about its time at the fast speed of the 2-core virtual machine
# the benchmark was built on (README, "Noise").
REFERENCE_S = 5e-3
# How often SpeedProbe times the reference workload during a timed call.
PROBE_INTERVAL_S = 0.1
# Traced runs alternate untraced and traced iterations; two traced ones let
# the run check that its counts repeat exactly.
MIN_TRACED_ITERATIONS = 2


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work like the program's own: Python
    string formatting, and inserts and a grouped query in an in-memory SQLite
    database.  It shows how fast the machine runs right now, and is timed just
    before and just after every timed call."""
    start = perf_counter()
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    conn.executemany("INSERT INTO t (v) VALUES (?)",
                     ((f"v{i * 7919 % 2000}",) for i in range(2000)))
    conn.execute("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v").fetchall()
    conn.close()
    return perf_counter() - start


class SpeedProbe:
    """Times reference_loop every PROBE_INTERVAL_S while active, from a
    SIGALRM handler, so that the machine speed along a long call is known
    and not only at its ends.  paused_s is the time the handler took, which
    the caller leaves out of the call's time."""

    def __init__(self):
        self.refs: list[float] = []
        self.paused_s = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.refs.append(reference_loop())
        self.paused_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(seconds: float, ref: float) -> float:
    """Scale a time measured while reference_loop took ref seconds to the
    machine speed at which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / ref


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, spec: dict):
        from webusage import cli
        from webusage.enrichment import sample_geoip_table
        from webusage.events import AppPageResult, read_replay
        from webusage.truth import load_truth

        self.spec = spec
        self.cli = cli
        self.inputs = {k: Path(v) for k, v in spec["inputs"].items()}
        self.truth = load_truth(self.inputs["truth"])
        self.geoip = sample_geoip_table()
        with open(self.inputs["replay"], encoding="utf-8") as fh:
            events = list(read_replay(fh))
        limit = spec["live_requests"] or len(events)
        self.live_events = events[:limit]
        self.live_results = [
            AppPageResult(
                page_title=f"{event.module or 'index'} page",
                web_message="ok",
                page_load_time=0.01 + (i % 50) / 1000.0,
            )
            for i, event in enumerate(self.live_events)
        ]
        self.tracer = None
        self.reference_s: list[float] = []
        # The inputs kept for the live loop live as long as the run; keep the
        # collector from walking them on every full collection.
        gc.freeze()

    # -- one CLI call ----------------------------------------------------------

    def reference(self) -> float:
        ref = reference_loop()
        self.reference_s.append(ref)
        return ref

    def call(self, phase: str, argv: list[str]) -> tuple[float, float, str]:
        """Run one CLI command; return its time, the mean of the reference
        loops just before it, along it (untraced only) and just after it, and
        its standard output."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        gc.collect()  # start each timed call without the previous one's garbage
        refs = [self.reference()]
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                with SpeedProbe() as probe:
                    start = perf_counter()
                    rc = main(argv)
                    elapsed = perf_counter() - start - probe.paused_s
                refs += probe.refs
                self.reference_s += probe.refs
            else:
                self.tracer.phase = phase
                start = perf_counter()
                rc = self.tracer.span(f"cli.{argv[0]}", main, argv)
                elapsed = perf_counter() - start
                self.tracer.phase = None
        refs.append(self.reference())
        ref = statistics.fmean(refs)
        check(rc == 0, f"webusage {' '.join(argv)} exited {rc}: {err.getvalue()[:500]}")
        check(err.getvalue() == "", f"webusage {argv[0]} wrote to stderr: {err.getvalue()[:500]}")
        return elapsed, ref, out.getvalue()

    # -- one iteration ---------------------------------------------------------

    def iteration(self, work: Path) -> dict:
        spec = self.spec
        inputs = self.inputs
        store = work / "usage.db"
        sessions_csv = work / "sessions.csv"
        reports = work / "reports"
        export = work / "export"
        reports.mkdir(parents=True)
        # rec["ref"][key]: the mean reference loop of the call timed as key
        rec: dict = {"traced": self.tracer is not None, "ref": {}}

        elapsed, rec["ref"]["collect_s"], out = self.call(
            "collect",
            ["collect", str(inputs["replay"]), "--store", str(store),
             "--users", str(inputs["truth"])],
        )
        m = re.fullmatch(r"sessions=(\d+) pageviews=(\d+)\n", out)
        check(m is not None, f"unexpected collect output: {out!r}")
        sessions, pages = int(m.group(1)), int(m.group(2))
        check(pages == spec["n_events"],
              f"collect recorded {pages} pages for {spec['n_events']} replay events")
        rec.update(collect_s=elapsed, pages=pages, sessions=sessions,
                   collection_errors=spec["n_events"] - pages,
                   db_bytes=store.stat().st_size)

        elapsed, rec["ref"]["preprocess_s"], out = self.call(
            "preprocess", ["preprocess", str(inputs["eclf"]), "--out", str(sessions_csv)]
        )
        stats = dict(line.split(": ", 1) for line in out.splitlines())
        lines = int(stats["lines"])
        check(lines == spec["n_log_lines"],
              f"preprocess read {lines} lines of {spec['n_log_lines']}")
        rec.update(preprocess_s=elapsed, lines=lines,
                   parse_errors=int(stats["parse_errors"]), kept=int(stats["kept"]),
                   inferred_events=int(stats["inferred_events"]))
        check(rec["parse_errors"] == 0, f"{rec['parse_errors']} log lines failed to parse")

        rec["report_s"] = {}
        for kind in self.cli.REPORT_KINDS:
            path = reports / f"{kind}.csv"
            rec["report_s"][kind], rec["ref"][f"report:{kind}"], _ = self.call(
                "report", ["report", "--store", str(store), "--kind", kind, "--out", str(path)]
            )
        rec["report_suite_s"] = sum(rec["report_s"].values())
        cube_total = sum(
            int(row.rsplit(",", 1)[1])
            for row in (reports / "hourly-cube.csv").read_text().splitlines()[1:]
        )
        check(cube_total == pages, f"hourly-cube total {cube_total} != pages {pages}")
        bucket_total = sum(
            int(row.rsplit(",", 1)[1])
            for row in (reports / "usage-buckets.csv").read_text().splitlines()[1:]
        )
        check(bucket_total == sessions,
              f"usage-buckets total {bucket_total} != sessions {sessions}")

        elapsed, rec["ref"]["compare_s"], compare_out = self.call(
            "compare",
            ["compare", "--store", str(store), "--baseline", str(sessions_csv),
             "--truth", str(inputs["truth"])],
        )
        rates = [float(v) for v in
                 re.findall(r"^  exact_session_match_rate: (\S+)$", compare_out, re.M)]
        check(len(rates) == 2, f"unexpected compare output: {compare_out[:500]!r}")
        rec.update(compare_s=elapsed, collector_exact_match=rates[0],
                   baseline_exact_match=rates[1])
        check(rates[0] == 1.0,
              f"collector exact_session_match_rate {rates[0]} != 1.0")

        rec["export_s"], rec["ref"]["export_s"], _ = self.call(
            "export", ["export", "--store", str(store), "--out", str(export)])

        files = {"sessions.csv": sessions_csv}
        files.update({f"reports/{p.name}": p for p in reports.iterdir()})
        files.update({f"export/{p.name}": p for p in export.iterdir()})
        digests = {name: sha256_file(path) for name, path in sorted(files.items())}
        digests["compare.stdout"] = hashlib.sha256(compare_out.encode()).hexdigest()
        rec["digests"] = digests

        rec.update(self.live(work / "live.db"))
        return rec

    def live(self, path: Path) -> dict:
        """Send each request through begin/end in its own transaction.

        Requests are timed in chunks of LIVE_CHUNK with the reference loop
        between chunks; chunk_refs[i] is the mean loop around chunk i, which
        holds latencies[i * LIVE_CHUNK:(i + 1) * LIVE_CHUNK]."""
        from webusage.collector import CollectionError, Collector
        from webusage.compare import load_roster
        from webusage.simulator import SITE_HOST
        from webusage.storage import LogStore, StorageError

        store = LogStore(path)
        try:
            # Flush and journal policy: on a shared virtual disk, fsync and the
            # creating and deleting of a rollback-journal file per commit
            # vary in cost by more than the benchmark's bounds within minutes
            # and independently of CPU speed (README, "Flush policy").  Commits
            # write the changed pages to the OS cache, and the journal is
            # kept in memory; statement and b-tree work still count.
            store._conn.execute("PRAGMA synchronous=OFF")
            store._conn.execute("PRAGMA journal_mode=MEMORY")
            store.replace_geoip(self.geoip.ranges)
            load_roster(store, self.truth)
            collector = Collector(store, [SITE_HOST], geoip=self.geoip)
            latencies = array("d")  # compact: it is kept for the whole run
            chunk_refs = array("d")
            failures = 0
            live_s = 0.0
            next_sweep = self.live_events[0].timestamp + SWEEP_EVERY
            gc.collect()
            if self.tracer is not None:
                self.tracer.phase = "live"
            requests = list(zip(self.live_events, self.live_results))
            before = self.reference()
            for first in range(0, len(requests), LIVE_CHUNK):
                started = perf_counter()
                for event, result in requests[first:first + LIVE_CHUNK]:
                    while event.timestamp >= next_sweep:
                        collector.sweep_expired(next_sweep)
                        next_sweep += SWEEP_EVERY
                    start = perf_counter()
                    try:
                        _, page_id = collector.handle_request_begin(event)
                        collector.handle_request_end(page_id, result)
                    except (CollectionError, StorageError):
                        failures += 1
                        latencies.append(math.inf)
                        continue
                    latencies.append(perf_counter() - start)
                live_s += perf_counter() - started
                after = self.reference()
                chunk_refs.append((before + after) / 2)
                before = after
            if self.tracer is not None:
                self.tracer.phase = None
            check(failures == 0, f"{failures} live requests failed")
            recorded = store.page_count()
            check(recorded == len(self.live_events),
                  f"live store holds {recorded} pages for {len(self.live_events)} requests")
            untitled = store._query("SELECT COUNT(*) FROM log_page WHERE log_page_title = ''")
            check(untitled[0][0] == 0, f"{untitled[0][0]} live pages lack their result")
        finally:
            store.close()
        return {"live_s": live_s, "live_requests": len(self.live_events),
                "live_failures": failures, "latencies": latencies, "chunk_refs": chunk_refs}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced iteration
# ---------------------------------------------------------------------------

# metric -> (span names, phase, total or self).  Phase None sums every
# iteration phase (collect, preprocess, report, compare, export, live).
SPAN_METRICS = {
    "simulator.generate_s": (("simulator.generate",), "setup", "total"),
    "simulator.emit_eclf_s": (("simulator.emit_eclf",), "setup", "total"),
    "truth.save_truth_s": (("truth.save_truth",), "setup", "total"),
    "events.parse_replay_s": (("events.parse_replay",), None, "total"),
    "enrichment.ua_parse_s": (("enrichment.ua_parse",), None, "total"),
    "enrichment.geoip_s": (("enrichment.geoip",), None, "total"),
    "enrichment.referrer_s": (("enrichment.referrer",), None, "total"),
    "storage.insert_page_s": (("storage.insert_page",), None, "total"),
    "storage.insert_session_s": (("storage.insert_session",), None, "total"),
    "storage.open_session_s": (("storage.open_session",), None, "total"),
    "storage.close_session_s": (("storage.close_session",), None, "total"),
    "storage.update_page_result_s": (("storage.update_page_result",), None, "total"),
    "storage.transaction_s": (("storage.transaction",), None, "total"),
    "storage.get_user_s": (("storage.get_user",), None, "total"),
    "storage.store_stats_s": (("storage.store_stats",), None, "total"),
    "storage.join_sessions_pages_s": (("storage.join_sessions_pages",), None, "total"),
    "storage.export_table_s": (("storage.export_table",), "export", "total"),
    "collector.begin_self_s": (("collector.begin",), None, "self"),
    "collector.sweep_s": (("collector.sweep",), None, "total"),
    "analytics.session_summaries_s": (("analytics.session_summaries",), None, "total"),
    "analytics.hourly_cube_s": (("analytics.hourly_cube",), None, "total"),
    "analytics.user_type_gender_s": (("analytics.user_type_gender",), None, "total"),
    "baseline.parse_line_s": (("baseline.parse_line",), None, "total"),
    "baseline.filter_s": (("baseline.filter",), None, "total"),
    "baseline.identify_s": (("baseline.identify",), None, "total"),
    "baseline.sessionize_s": (("baseline.sessionize",), None, "total"),
    "baseline.complete_paths_s": (("baseline.complete_paths",), None, "total"),
    "baseline.write_sessions_s": (("baseline.write_sessions",), None, "total"),
    "baseline.read_sessions_csv_s": (("baseline.read_sessions_csv",), None, "total"),
    "baseline.score_s": (("baseline.score",), None, "total"),
    "compare.collector_report_s": (("compare.collector_report",), None, "total"),
    "truth.load_truth_s": (("truth.load_truth",), None, "total"),
    "cli.self_s": (("cli.collect", "cli.preprocess", "cli.report", "cli.compare",
                    "cli.export"), None, "self"),
}

# Counts that must come out the same on every traced iteration of a seed.
EXACT_COUNTS = (
    "events.replay_lines",
    "enrichment.ua_parse_calls",
    "enrichment.ua_distinct_ratio",
    "storage.statements_per_page",
    "storage.commits",
    "storage.live_statements_per_request",
    "storage.db_bytes_per_page",
    "collector.sessions_per_page",
    "analytics.session_summaries_calls",
    "baseline.kept_ratio",
    "baseline.inferred_events",
)


def layer_metrics(tracer, rec: dict, setup_summary: dict) -> dict:
    summary = dict(tracer.summary())
    summary.update(setup_summary)

    def pick(names, phase, column):
        return sum(
            cell[column]
            for (name, span_phase), cell in summary.items()
            if name in names
            and (span_phase == phase if phase else span_phase not in (None, "setup"))
        )

    out = {}
    for metric, (names, phase, kind) in SPAN_METRICS.items():
        out[metric] = pick(names, phase, 1 if kind == "total" else 2)
    ua_calls = int(pick(("enrichment.ua_parse",), None, 0))
    iteration_phases = [p for p in tracer.statements if p not in (None, "setup")]
    out.update({
        "events.replay_lines": int(pick(("events.parse_replay",), None, 0)),
        "enrichment.ua_parse_calls": ua_calls,
        "enrichment.ua_distinct_ratio": len(tracer.user_agents) / ua_calls,
        "storage.statements_per_page": tracer.statements["collect"] / rec["pages"],
        "storage.commits": sum(tracer.commits[p] for p in iteration_phases),
        "storage.live_statements_per_request":
            tracer.statements["live"] / rec["live_requests"],
        "storage.db_bytes_per_page": rec["db_bytes"] / rec["pages"],
        "collector.sessions_per_page":
            pick(("storage.insert_session",), None, 0) / pick(("storage.insert_page",), None, 0),
        "analytics.session_summaries_calls":
            int(pick(("analytics.session_summaries",), None, 0)),
        "baseline.kept_ratio": rec["kept"] / rec["lines"],
        "baseline.inferred_events": rec["inferred_events"],
    })
    return out


# ---------------------------------------------------------------------------
# the iterations of one run
# ---------------------------------------------------------------------------

PHASE_KEYS = ("collect_s", "preprocess_s", "report_suite_s", "compare_s", "export_s", "live_s")


def traced_setup(runner: Runner, tracer, work: Path) -> dict:
    """Generate the inputs once more with tracing on, for the simulator layers."""
    from webusage.simulator import WorkloadConfig, simulate_to_dir

    tracer.install()
    try:
        tracer.phase = "setup"
        tracer.span("simulator.simulate_to_dir", simulate_to_dir,
                    WorkloadConfig(**runner.spec["config"]), work)
        tracer.phase = None
    finally:
        tracer.uninstall()
    shutil.rmtree(work)
    summary = tracer.summary()
    tracer.next_iteration()
    return summary


def run(spec: dict) -> dict:
    runner = Runner(spec)
    work_root = Path(spec["work_dir"])
    trace = spec["trace"]
    tracer = None
    setup_summary: dict = {}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        setup_summary = traced_setup(runner, tracer, work_root / "traced-setup")

    records = []
    layers = []
    deadline = perf_counter() + spec["seconds"]
    index = 0
    while True:
        traced = trace and index % 2 == 1
        work = work_root / f"it{index}"
        if traced:
            runner.tracer = tracer
            tracer.install()
        started = perf_counter()
        try:
            rec = runner.iteration(work)
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        shutil.rmtree(work)
        if traced:
            layers.append(layer_metrics(tracer, rec, setup_summary))
            tracer.next_iteration()
        records.append(rec)
        index += 1
        untraced = [r for r in records if not r["traced"]]
        # Stop when another iteration as long as this one would overrun.
        done = (
            2 * perf_counter() - started >= deadline
            and sum(len(r["latencies"]) for r in untraced) >= MIN_LATENCY_SAMPLES
        )
        if trace:
            done = done and index % 2 == 0 and index // 2 >= MIN_TRACED_ITERATIONS
        if done:
            break

    first = records[0]["digests"]
    for i, rec in enumerate(records[1:], start=1):
        differing = sorted(k for k in first if rec["digests"].get(k) != first[k])
        check(not differing, f"iteration {i} output differs from iteration 0: {differing}")

    # Read before the sorting below, which holds every sample at once.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = sorted(
        at_reference_speed(x, ref)
        for r in records if not r["traced"]
        for i, ref in enumerate(r["chunk_refs"])
        for x in r["latencies"][i * LIVE_CHUNK:(i + 1) * LIVE_CHUNK]
    )
    result = {
        "iterations": [
            {k: v for k, v in r.items() if k not in ("latencies", "chunk_refs", "digests")}
            for r in records
        ],
        "digests": first,
        "latency": {
            "samples": len(latencies),
            "p50_s": nearest_rank(latencies, 0.50),
            "p99_s": nearest_rank(latencies, 0.99),
        },
        "peak_rss_kb": peak_rss_kb,
        "reference_loop_s": runner.reference_s,
    }
    if trace:
        result["layers"] = layers
        walls = [sum(r[k] for k in PHASE_KEYS) for r in records]
        traced_wall = statistics.median(w for w, r in zip(walls, records) if r["traced"])
        plain_wall = statistics.median(w for w, r in zip(walls, records) if not r["traced"])
        result["overhead"] = {
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.overhead_ratio": (traced_wall - plain_wall) / plain_wall,
        }
        tracer.write(Path(spec["trace_out"]))
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = Path(argv[1]), Path(argv[2])
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    try:
        result = run(spec)
    except CheckFailed as exc:
        result_path.write_text(json.dumps({"error": str(exc)}))
        return 3
    except Exception:
        traceback.print_exc()
        result_path.write_text(json.dumps({"error": traceback.format_exc(limit=3)}))
        return 1
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
