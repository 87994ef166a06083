"""Spans around the package's public functions, installed from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces each
traced function at the name its caller resolves (a module global or a class
attribute) with a wrapper that records one span, and puts the original back
on :meth:`Tracer.uninstall`.  Spans stay in memory as (name, phase, start,
end, parent) and are written out once, at the end of the run.  SQL
statements and commits are counted with sqlite3's trace callback on every
store opened while tracing is on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  The module is where the caller looks the
# name up, which is not always where it is defined: cli.py imports most of
# what it calls by name.
_FUNCTIONS = (
    ("webusage.simulator", "generate", "simulator.generate"),
    ("webusage.simulator", "emit_eclf", "simulator.emit_eclf"),
    ("webusage.simulator", "write_replay", "events.write_replay"),
    ("webusage.simulator", "save_truth", "truth.save_truth"),
    ("webusage.events", "parse_replay_line", "events.parse_replay"),
    ("webusage.collector", "parse_user_agent", "enrichment.ua_parse"),
    ("webusage.collector", "classify_referrer", "enrichment.referrer"),
    ("webusage.collector", "first_language_tag", "enrichment.language"),
    ("webusage.cli", "replay_stream", "collector.replay_stream"),
    ("webusage.cli", "load_roster", "compare.load_roster"),
    ("webusage.cli", "load_truth", "truth.load_truth"),
    ("webusage.cli", "preprocess_log", "baseline.preprocess"),
    ("webusage.cli", "write_sessions_csv", "baseline.write_sessions"),
    ("webusage.cli", "read_sessions_csv", "baseline.read_sessions_csv"),
    ("webusage.cli", "score_against_truth", "baseline.score"),
    ("webusage.cli", "collector_report", "compare.collector_report"),
    ("webusage.cli", "report_to_csv", "analytics.render"),
    ("webusage.cli", "search_report_to_csv", "analytics.render"),
    ("webusage.baseline", "parse_log_line", "baseline.parse_line"),
    ("webusage.baseline", "filter_entries", "baseline.filter"),
    ("webusage.baseline", "identify_users", "baseline.identify"),
    ("webusage.baseline", "sessionize", "baseline.sessionize"),
    ("webusage.baseline", "complete_paths", "baseline.complete_paths"),
)

# (module, class, method, span name)
_METHODS = (
    ("webusage.enrichment", "GeoIpTable", "lookup", "enrichment.geoip"),
    ("webusage.enrichment", "SearchRegistry", "extract", "enrichment.referrer"),
    ("webusage.collector", "Collector", "handle_request_begin", "collector.begin"),
    ("webusage.collector", "Collector", "handle_request_end", "collector.end"),
    ("webusage.collector", "Collector", "sweep_expired", "collector.sweep"),
    ("webusage.storage", "LogStore", "insert_page", "storage.insert_page"),
    ("webusage.storage", "LogStore", "insert_session", "storage.insert_session"),
    ("webusage.storage", "LogStore", "get_open_session", "storage.open_session"),
    ("webusage.storage", "LogStore", "put_open_session", "storage.open_session"),
    ("webusage.storage", "LogStore", "touch_open_session", "storage.open_session"),
    ("webusage.storage", "LogStore", "delete_open_session", "storage.open_session"),
    ("webusage.storage", "LogStore", "close_session", "storage.close_session"),
    ("webusage.storage", "LogStore", "update_page_result", "storage.update_page_result"),
    ("webusage.storage", "LogStore", "get_user_by_name", "storage.get_user"),
    ("webusage.storage", "LogStore", "get_session", "storage.get_session"),
    ("webusage.storage", "LogStore", "store_stats", "storage.store_stats"),
    ("webusage.storage", "LogStore", "join_sessions_pages", "storage.join_sessions_pages"),
    ("webusage.storage", "LogStore", "export_table", "storage.export_table"),
    ("webusage.analytics", "Analytics", "session_summaries", "analytics.session_summaries"),
    ("webusage.analytics", "Analytics", "usage_buckets", "analytics.usage_buckets"),
    ("webusage.analytics", "Analytics", "user_type_gender_report", "analytics.user_type_gender"),
    ("webusage.analytics", "Analytics", "hourly_cube", "analytics.hourly_cube"),
    ("webusage.analytics", "Analytics", "distribution", "analytics.distribution"),
    ("webusage.analytics", "Analytics", "top_ips", "analytics.top_ips"),
    ("webusage.analytics", "Analytics", "top_users", "analytics.top_users"),
    ("webusage.analytics", "Analytics", "search_report", "analytics.search_report"),
)

# Transaction boundaries run inside LogStore.transaction(), which is a
# context manager rather than a call with children; a thin proxy over the
# connection gives them spans of their own, so that commit cost is not
# booked as the self time of whichever layer opened the transaction.
_TXN_STATEMENTS = frozenset({"BEGIN IMMEDIATE", "COMMIT", "ROLLBACK"})


class _TracedConnection:
    def __init__(self, conn, txn_span):
        self._conn = conn
        self._txn_span = txn_span

    def execute(self, sql, *params):
        if sql in _TXN_STATEMENTS:
            return self._txn_span(sql, *params)
        return self._conn.execute(sql, *params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class Tracer:
    def __init__(self):
        # Each span is (name, phase, start, end, parent index or -1).
        self.spans: list[tuple] = []
        self._finished: list[list[tuple]] = []
        self._stack: list[int] = []
        self.phase: str | None = None
        self.statements: Counter = Counter()
        self.commits: Counter = Counter()
        self.user_agents: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, materialize: bool = False):
        """Return ``fn`` recording one span per call.

        ``materialize`` drains a generator inside the span, so the span covers
        the work instead of only the generator's creation.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.phase, start, end, parent)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _on_sql(self, statement: str) -> None:
        self.statements[self.phase] += 1
        if statement == "COMMIT":
            self.commits[self.phase] += 1

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if attr == "parse_user_agent":
                fn = self._recording_agents(fn)
            self._replace(module, attr, self.wrap(fn, name))
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__[attr]
            materialize = inspect.isgeneratorfunction(fn)
            self._replace(cls, attr, self.wrap(fn, name, materialize))

        store_cls = importlib.import_module("webusage.storage").LogStore
        original_init = store_cls.__dict__["__init__"]

        def traced_init(store, *args, **kwargs):
            original_init(store, *args, **kwargs)
            conn = store._conn
            conn.set_trace_callback(self._on_sql)
            store._conn = _TracedConnection(conn, self.wrap(conn.execute, "storage.transaction"))

        self._replace(store_cls, "__init__", functools.wraps(original_init)(traced_init))

    def _recording_agents(self, fn):
        agents = self.user_agents

        @functools.wraps(fn)
        def recording(ua, *args, **kwargs):
            agents.add(ua)
            return fn(ua, *args, **kwargs)

        return recording

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i]
            for i, (name, phase, start, end, parent) in enumerate(self.spans)
        ]

    def summary(self) -> dict:
        """Totals keyed by (name, phase): calls, total seconds, self seconds."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, phase, start, end, _), self_s in zip(self.spans, self.self_times()):
            cell = out[(name, phase)]
            cell[0] += 1
            cell[1] += end - start
            cell[2] += self_s
        return dict(out)

    def next_iteration(self) -> None:
        """Set the current spans and counts aside and start from empty."""
        self._finished.append(list(self.spans))
        self.spans.clear()
        self.statements.clear()
        self.commits.clear()
        self.user_agents.clear()

    def write(self, path: Path) -> None:
        """Write every span as gzip TSV: iteration, index, parent, phase, name,
        start, end.  Iteration 0 is the traced set-up."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("iteration\tindex\tparent\tphase\tname\tstart\tend\n")
            for n, spans in enumerate(self._finished + [self.spans]):
                for i, (name, phase, start, end, parent) in enumerate(spans):
                    fh.write(f"{n}\t{i}\t{parent}\t{phase}\t{name}\t{start:.9f}\t{end:.9f}\n")
