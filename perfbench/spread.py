#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out a.json
    python3 perfbench/spread.py --seeds 1-10 --against a.json

Runs ``run.py`` once per (seed, workload), one at a time, from the current
directory (a source checkout), and prints each run's table with sample
counts.  Then, for each workload and end-to-end metric, it prints the
median, the quartiles from ``statistics.quantiles(n=4)`` and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, flagging
spreads that are not below a third of the bound.  ``--against``
compares the medians with an earlier ``--out`` file and flags any metric
whose median got worse by more than its bound.  With ``--trace 1`` it
prints the per-layer medians instead and checks nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the per-run values here as JSON")
    parser.add_argument("--against", help="earlier --out file to compare medians with")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    seeds = seed_list(args.seeds)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            for name, value in run_once(workload, seed, bench["run_seconds"], args.trace).items():
                values[workload].setdefault(name, []).append(value)
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": seeds, "values": values}, indent=1))
    earlier = json.loads(Path(args.against).read_text())["values"] if args.against else None

    bad = 0
    for workload in workloads:
        print(f"\n{workload}  ({len(seeds)} seeds)")
        print(f"  {'metric':<38} {'unit':<14} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  checks")
        for metric in metrics:
            name = metric["name"]
            vals = values[workload][name]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = metric.get("bound")
            notes = []
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                notes.append("SPREAD")
            if bound is not None and earlier is not None:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before
                worse = change if metric["better"] == "lower" else -change
                notes.append(f"{change:+.3f}" + (" WORSE" if worse > bound else ""))
            bad += sum("SPREAD" in n or "WORSE" in n for n in notes)
            print(f"  {name:<38} {metric['unit']:<14} {median:>14.6f} {q1:>14.6f} {q3:>14.6f}"
                  f" {spread:>8.4f} {bound if bound is not None else '':>6}  {' '.join(notes)}")
    print(f"\n{bad} flagged")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
