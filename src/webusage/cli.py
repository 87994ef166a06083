"""Command-line front end.

One binary, six subcommands: simulate traffic, collect a replay into a
store, preprocess an access log the classical way, report on a store,
compare both pipelines against ground truth, and export the store tables.
Exit codes: 0 success, 1 runtime error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import os
import sqlite3
import sys
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
    score_against_truth,
    write_sessions_csv,
    UniverseMismatchError,
)
from .collector import DEFAULT_TIMEOUT, Collector, replay_stream
from .compare import collector_report, load_roster
from .enrichment import GeoIpLoadError, load_geoip, sample_geoip_table
from .events import ReplayFormatError, read_replay
from .simulator import SITE_HOST, ConfigError, WorkloadConfig, simulate_to_dir
from .storage import LogStore, StorageError, UserInfo
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
        # sqlite_errorname is new in Python 3.11; before it the raw text stays.
        if getattr(exc, "sqlite_errorname", None) in ("SQLITE_READONLY", "SQLITE_NOTADB"):
            raise StorageError(f"not a webusage store: {path}") from None
        raise


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        seed=args.seed,
        n_users=args.users,
        session_rate=args.session_rate,
        pageviews_per_session_mean=args.pageviews_mean,
        timeout=args.timeout,
        nat_share=args.nat_share,
        dynamic_ip_share=args.dynamic_ip_share,
        cookie_loss_share=args.cookie_loss_share,
        cached_nav_share=args.cached_nav_share,
        duration=args.duration,
    )
    config.validate()
    paths = simulate_to_dir(config, args.out, noise=not args.no_noise)
    for name in ("replay", "eclf", "truth"):
        print(f"{name}: {paths[name]}")
    return 0


def _load_users_file(store: LogStore, path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        fh.seek(0)
        if first.startswith("kind,"):
            return load_roster(store, load_truth(path))
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_id", "username", "user_type", "gender"]:
            raise UsageError(f"unrecognized users file header: {header}")
        n = 0
        with store.transaction():
            for row in reader:
                if not row:
                    continue
                store.upsert_user(UserInfo(int(row[0]), row[1], row[2], row[3]))
                n += 1
        return n


def cmd_collect(args: argparse.Namespace) -> int:
    replay_path = _require_file(args.replay, "replay file")
    store_path = Path(args.store)
    # Build beside the target and swap it in only once the replay is done, so
    # a failed run leaves any previous store as it was.
    tmp_path = store_path.with_name(f".{store_path.name}.{os.getpid()}.tmp")
    tmp_path.unlink(missing_ok=True)
    try:
        rc = _collect_into(LogStore(tmp_path), replay_path, args)
        os.replace(tmp_path, store_path)
        return rc
    finally:
        tmp_path.unlink(missing_ok=True)


def _collect_into(store: LogStore, replay_path: Path, args: argparse.Namespace) -> int:
    try:
        if args.geoip is not None:
            with open(_require_file(args.geoip, "geoip file"), encoding="utf-8") as fh:
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

        with _open_text(replay_path) as fh:
            pages, n_errors = replay_stream(collector, read_replay(fh), on_error=keep_first)
        for exc in shown:
            print(f"collection error: {exc}", file=sys.stderr)
        print(f"sessions={store.session_count()} pageviews={store.page_count()}")
        return 0 if n_errors == 0 else 1
    finally:
        store.close()


def cmd_preprocess(args: argparse.Namespace) -> int:
    log_path = _require_file(args.log, "log file")
    result = preprocess_log(
        log_path,
        log_format=args.format,
        page_gap=args.page_gap,
        session_gap=args.session_gap,
        mode=args.mode,
        split_at_midnight=args.split_at_midnight,
        site_hosts=args.site_host or [SITE_HOST],
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sessions_csv(result.sessions, fh)
    print(result.stats_text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
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
        _write_out(text, args.out)
        return 0
    finally:
        store.close()


def cmd_compare(args: argparse.Namespace) -> int:
    store_path = _require_file(args.store, "store")
    truth = load_truth(_require_file(args.truth, "truth file"))
    with open(_require_file(args.baseline, "baseline sessions file"),
              encoding="utf-8", newline="") as fh:
        baseline_sessions = read_sessions_csv(fh)
    store = _open_read_only(store_path)
    try:
        collector_side = collector_report(store, truth)
    finally:
        store.close()
    baseline_side = score_against_truth(baseline_sessions, truth)
    print("collector:")
    print(collector_side.to_text(prefix="  "))
    print("baseline:")
    print(baseline_side.to_text(prefix="  "))
    gap = (
        collector_side.exact_session_match_rate
        - baseline_side.exact_session_match_rate
    )
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webusage",
        description="Request-time web usage collection, classical log "
                    "preprocessing, and reports over either.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--session-rate", type=float, default=5.0,
                   help="mean sessions per user")
    p.add_argument("--pageviews-mean", type=float, default=7.0,
                   help="mean pageviews per session")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--nat-share", type=float, default=0.0)
    p.add_argument("--dynamic-ip-share", type=float, default=0.0)
    p.add_argument("--cookie-loss-share", type=float, default=0.0)
    p.add_argument("--cached-nav-share", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=7 * 86400.0,
                   help="simulated span in seconds")
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
        # Unreadable input files (wrong headers, malformed truth rows).
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
