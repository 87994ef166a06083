#!/usr/bin/env python3
"""Score the request-time collector against classical log preprocessing.

Generates one synthetic workload per stress scenario, runs both pipelines
on it, and prints how well each one recovers the true users and sessions.
The collector sees the replay stream (with identity tokens); the classical
side sees only the access log the same traffic would have produced.  Both
run as CLI commands (``collect --users truth.csv`` and ``preprocess``), and
the files they write are scored by ``cli.score_outputs``, the function
behind ``compare``.

    python3 scripts/run_comparison.py --users 8 --session-rate 3 --seed 1
"""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webusage import cli
from webusage.baseline import SESSIONIZE_MODES
from webusage.simulator import WorkloadConfig, simulate_to_dir

SCENARIOS = (
    ("clean", {}),
    ("cached-nav 0.3", {"cached_nav_share": 0.3}),
    ("dynamic-ip 0.5", {"dynamic_ip_share": 0.5}),
    ("nat 0.3", {"nat_share": 0.3}),
    ("cookie-loss 0.25", {"cookie_loss_share": 0.25}),
    ("cookie-loss 1.0", {"cookie_loss_share": 1.0}),
    ("nat + loss", {"nat_share": 0.3, "cookie_loss_share": 1.0}),
    ("all stresses", {"nat_share": 0.3, "cookie_loss_share": 0.25,
                      "dynamic_ip_share": 0.5, "cached_nav_share": 0.3}),
)


def run(argv: list[str]) -> None:
    """Run one CLI command in-process, its stdout discarded; it must succeed."""
    with redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"webusage {' '.join(argv)} exited {rc}")


def run_scenario(name: str, overrides: dict, args: argparse.Namespace) -> tuple:
    config = WorkloadConfig(
        seed=args.seed,
        n_users=args.users,
        session_rate=args.session_rate,
        pageviews_per_session_mean=args.pageviews_mean,
        **overrides,
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = simulate_to_dir(config, tmp)
        store_path, sessions_path = Path(tmp) / "usage.db", Path(tmp) / "sessions.csv"
        run(["collect", str(paths["replay"]), "--store", str(store_path),
             "--users", str(paths["truth"])])
        run(["preprocess", str(paths["eclf"]), "--out", str(sessions_path),
             "--mode", args.mode, f"--page-gap={args.page_gap}",
             f"--session-gap={args.session_gap}"])

        collector_side, baseline_side = cli.score_outputs(
            str(store_path), str(sessions_path), str(paths["truth"]))

    return (
        name,
        collector_side.truth_sessions,
        collector_side.exact_session_match_rate,
        baseline_side.exact_session_match_rate,
        collector_side.exact_session_match_rate
        - baseline_side.exact_session_match_rate,
        baseline_side.user_precision,
        baseline_side.user_recall,
    )


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--session-rate", type=float, default=5.0)
    parser.add_argument("--pageviews-mean", type=float, default=7.0)
    parser.add_argument("--mode", default="page_gap", choices=SESSIONIZE_MODES)
    parser.add_argument("--page-gap", type=float, default=1800.0,
                        help="classical page-gap threshold in seconds")
    parser.add_argument("--session-gap", type=float, default=1800.0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    header = (f"{'scenario':<18} {'sessions':>8} {'collector':>9} "
              f"{'baseline':>9} {'gap':>9} {'user P':>7} {'user R':>7}")
    print(header)
    print("-" * len(header))
    for name, overrides in SCENARIOS:
        row = run_scenario(name, overrides, args)
        print(f"{row[0]:<18} {row[1]:>8} {row[2]:>9.4f} {row[3]:>9.4f}"
              f" {row[4]:>9.4f} {row[5]:>7.4f} {row[6]:>7.4f}")
    print()
    print("collector/baseline: exact_session_match_rate against ground truth")
    print("user P/R: pairwise user precision/recall of the classical side")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
