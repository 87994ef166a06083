"""Command-line front end.

One binary, six subcommands: simulate traffic, collect a replay into a
store, preprocess an access log the classical way, report on a store,
compare both pipelines against ground truth, and export the store tables.
Exit codes: 0 success, 1 runtime error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import gzip
import sqlite3
import sys
import zlib
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

from .analytics import (
    DISTRIBUTION_KINDS, Analytics, report_to_csv, report_to_plot, search_report_to_csv,
)
from .baseline import (
    DEFAULT_PAGE_GAP,
    DEFAULT_SESSION_GAP,
    SESSIONIZE_MODES,
    preprocess_log,
    read_sessions_csv,
    write_sessions_csv,
)
from .collector import DEFAULT_TIMEOUT, Collector, replay_stream
from .compare import (
    AccuracyReport, UniverseMismatchError, collector_report, load_roster, score_against_truth,
)
from .csvio import RowError, replacing, rows
from .enrichment import GeoIpLoadError, load_geoip, sample_geoip_table
from .events import ReplayFormatError, read_replay
from .simulator import OPTION_NAMES, SITE_HOST, ConfigError, WorkloadConfig, simulate_to_dir
from .storage import TABLE_COLUMNS, ConstraintError, LogStore, StorageError, UserInfo
from .truth import load_truth

# Report kinds rendered by report_to_csv / report_to_plot, in --kind order.
REPORTS = {
    "usage-buckets": lambda analytics, n: analytics.usage_buckets(),
    "user-type-gender": lambda analytics, n: analytics.user_type_gender_report(),
    "hourly-cube": lambda analytics, n: analytics.hourly_cube(),
    **{
        kind: lambda analytics, n, kind=kind: analytics.distribution(kind)
        for kind in DISTRIBUTION_KINDS
    },
    # without --n the builders' own defaults apply
    "top-ips": lambda analytics, n: analytics.top_ips() if n is None else analytics.top_ips(n),
    "top-users": lambda analytics, n: analytics.top_users() if n is None else analytics.top_users(n),
}
REPORT_KINDS = (*REPORTS, "search-engines", "search-keywords", "stats")


class UsageError(Exception):
    pass


# What reading a damaged gzip file raises: BadGzipFile for a bad header or
# trailer, EOFError for a cut stream, zlib.error for corrupt deflate data.
_GZIP_ERRORS = (gzip.BadGzipFile, EOFError, zlib.error)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _open_read_only(path: Path) -> LogStore:
    """Open an existing store without letting the schema script write to it.

    A file that lacks the store tables fails that script: an empty file or
    another SQLite database because it may not be written to, any other
    file because it is not SQLite.
    """
    try:
        return LogStore(path.resolve().as_uri() + "?mode=ro")
    except sqlite3.DatabaseError as exc:
        # SQLite's own text of SQLITE_READONLY and SQLITE_NOTADB; the error's
        # sqlite_errorname would name them, but only from Python 3.11.
        if str(exc) in ("attempt to write a readonly database", "file is not a database"):
            raise StorageError(f"not a webusage store: {path}") from None
        raise


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def _bad_utf8_line(path: Path, gzipped: bool) -> int | None:
    """The 1-based line of the first byte of ``path`` that is not UTF-8,
    counting lines as the text readers do."""
    opener = gzip.open if gzipped else open
    with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # a bad byte decoded to a lone surrogate
                return line_no
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    # argparse keeps each option's value under its name with "_" for "-".
    config = WorkloadConfig(**{name: getattr(args, option.replace("-", "_"))
                               for name, option in OPTION_NAMES.items()})
    config.validate()
    paths = simulate_to_dir(config, args.out, noise=not args.no_noise)
    for name in ("replay", "eclf", "truth"):
        print(f"{name}: {paths[name]}")
    return 0


@contextmanager
def _naming(what: str, path: Path, error: type[RowError] = RowError, gzipped: bool = False):
    """Name the file, as ``users file PATH``, in a RowError raised inside.

    Text that is not UTF-8 becomes an ``error`` for the line of its first
    bad byte.  A reader decodes ahead of the line it is on, so that line is
    found by reading the file (through gzip when ``gzipped``) once more.
    Damaged gzip data, met by either read, becomes an OSError naming the
    file.
    """
    label = f"{what} {path}"
    try:
        try:
            yield
        except RowError as exc:
            exc.label = label
            raise
        except UnicodeDecodeError:
            exc = error("invalid UTF-8", _bad_utf8_line(path, gzipped))
            exc.label = label
            raise exc from None
    except _GZIP_ERRORS as exc:
        raise OSError(f"{label}: {exc}") from None


def _load_users_file(store: LogStore, path: Path) -> None:
    """Register the accounts of a roster CSV or, by its ``kind,`` header, a truth file."""
    # Sniffed as bytes, which cannot fail to decode; the header is ASCII.
    with open(path, "rb") as fh:
        is_truth = fh.read(5) == b"kind,"
    if is_truth:
        with _naming("truth file", path):
            load_roster(store, load_truth(path))
        return
    with _naming("users file", path), open(path, encoding="utf-8", newline="") as fh, \
            store.transaction():
        for line_no, row in rows(fh, TABLE_COLUMNS["user_info"]):
            try:
                store.upsert_user(UserInfo(int(row[0]), *row[1:]))
            except (ValueError, ConstraintError) as exc:
                raise RowError(str(exc), line_no) from None


def cmd_collect(args: argparse.Namespace) -> int:
    replay_path = _require_file(args.replay, "replay file")
    with replacing(args.store) as tmp:
        return _collect_into(LogStore(tmp), replay_path, args)


def _collect_into(store: LogStore, replay_path: Path, args: argparse.Namespace) -> int:
    try:
        if args.geoip is not None:
            geoip_path = _require_file(args.geoip, "geoip file")
            with _naming("geoip file", geoip_path, GeoIpLoadError), \
                    open(geoip_path, encoding="utf-8", newline="") as fh:
                geoip = load_geoip(fh)
        else:
            geoip = sample_geoip_table()
        store.replace_geoip(geoip.ranges)
        if args.users is not None:
            _load_users_file(store, _require_file(args.users, "users file"))
        hosts = args.site_host or [SITE_HOST]
        collector = Collector(store, hosts, geoip=geoip, timeout=args.timeout)
        shown = []  # the first 10 errors; the rest are only counted

        def keep_first(exc):
            if len(shown) < 10:
                shown.append(exc)

        gzipped = replay_path.suffix == ".gz"
        with _naming("replay file", replay_path, ReplayFormatError, gzipped), \
                _open_text(replay_path) as fh:
            pages, n_errors = replay_stream(collector, read_replay(fh), on_error=keep_first)
        for exc in shown:
            print(f"collection error: {exc}", file=sys.stderr)
        print(f"sessions={store.session_count()} pageviews={store.page_count()}")
        return 0 if n_errors == 0 else 1
    finally:
        store.close()


def cmd_preprocess(args: argparse.Namespace) -> int:
    log_path = _require_file(args.log, "log file")
    with _naming("log file", log_path):
        result = preprocess_log(
            log_path,
            log_format=args.format,
            page_gap=args.page_gap,
            session_gap=args.session_gap,
            mode=args.mode,
            split_at_midnight=args.split_at_midnight,
            site_hosts=args.site_host or [SITE_HOST],
        )
    with replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        write_sessions_csv(result.sessions, fh)
    print(result.stats.text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    store = _open_read_only(_require_file(args.store, "store"))
    try:
        analytics = Analytics(store)
        if args.kind == "stats":
            stats = store.store_stats()
            text = "\n".join(f"{k}: {v}" for k, v in sorted(stats.items())) + "\n"
        elif args.kind in ("search-engines", "search-keywords"):
            engines_csv, keywords_csv = search_report_to_csv(analytics.search_report())
            text = engines_csv if args.kind == "search-engines" else keywords_csv
        else:
            report = REPORTS[args.kind](analytics, args.n)
            text = report_to_plot(report) if args.plot else report_to_csv(report)
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with replacing(args.out) as tmp:
                tmp.write_text(text, encoding="utf-8")
        return 0
    finally:
        store.close()


def score_outputs(store: str, baseline: str, truth: str) -> tuple[AccuracyReport, AccuracyReport]:
    """Score a store and a sessions CSV against a truth file: (collector, baseline) side."""
    store_path = _require_file(store, "store")
    truth_path = _require_file(truth, "truth file")
    with _naming("truth file", truth_path):
        ground_truth = load_truth(truth_path)
    baseline_path = _require_file(baseline, "baseline sessions file")
    with _naming("baseline sessions file", baseline_path), \
            open(baseline_path, encoding="utf-8", newline="") as fh:
        baseline_rows = read_sessions_csv(fh)
    log_store = _open_read_only(store_path)
    try:
        collector_side = collector_report(log_store, ground_truth)
    finally:
        log_store.close()
    return collector_side, score_against_truth(baseline_rows, ground_truth)


def cmd_compare(args: argparse.Namespace) -> int:
    collector_side, baseline_side = score_outputs(args.store, args.baseline, args.truth)
    print("collector:")
    print(collector_side.to_text())
    print("baseline:")
    print(baseline_side.to_text())
    gap = collector_side.exact_session_match_rate - baseline_side.exact_session_match_rate
    print(f"exact_session_match_rate gap (collector - baseline): {gap:.6f}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = _open_read_only(_require_file(args.store, "store"))
    try:
        written = store.export_all(args.out)
    finally:
        store.close()
    for table in sorted(written):
        print(f"{table}: {written[table]}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes any text that ``float()`` reads, ``-inf`` and ``-1e3`` too, as a
    value, never as an option, so that it reaches the flag's range check."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    each ``parse_args`` fills a new namespace, so no call sees another's."""
    parser = _Parser(
        prog="webusage",
        description="Request-time web usage collection, classical log "
                    "preprocessing, and reports over either.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic workload")
    for f in fields(WorkloadConfig):  # each default is of its field's type
        p.add_argument(f"--{OPTION_NAMES[f.name]}", type=type(f.default), default=f.default,
                       help=f.metadata.get("help"))
    p.add_argument("--no-noise", action="store_true",
                   help="omit static/error/crawler lines from the access log")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("collect", help="replay events into a fresh store")
    p.add_argument("replay", help="replay file (.gz accepted)")
    p.add_argument("--store", required=True, help="sqlite store path (recreated)")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--site-host", action="append",
                   help=f"own host name for referrer classing (default {SITE_HOST})")
    p.add_argument("--users", help="user roster CSV, or a truth file")
    p.add_argument("--geoip", help="country ranges CSV (default: bundled sample)")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("preprocess", help="classical log preprocessing")
    p.add_argument("log", help="access log (.gz accepted)")
    p.add_argument("--format", choices=("CLF", "ECLF"), default="ECLF")
    p.add_argument("--page-gap", type=float, default=DEFAULT_PAGE_GAP)
    p.add_argument("--session-gap", type=float, default=DEFAULT_SESSION_GAP)
    p.add_argument("--mode", choices=SESSIONIZE_MODES, default="both")
    p.add_argument("--split-at-midnight", action="store_true")
    p.add_argument("--site-host", action="append")
    p.add_argument("--out", required=True, help="sessions CSV path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("report", help="aggregate a collected store")
    p.add_argument("--store", required=True)
    p.add_argument("--kind", choices=REPORT_KINDS, required=True)
    p.add_argument("--n", type=int, help="row limit for top-ips/top-users")
    p.add_argument("--plot", action="store_true",
                   help="category<TAB>value lines instead of CSV")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="score both pipelines against truth")
    p.add_argument("--store", required=True, help="store built from the replay")
    p.add_argument("--baseline", required=True, help="sessions CSV from preprocess")
    p.add_argument("--truth", required=True, help="truth CSV from simulate")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="dump store tables to CSV files")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError, UniverseMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StorageError, sqlite3.Error, ReplayFormatError, GeoIpLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Unreadable rows of a roster, truth file or sessions CSV.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
