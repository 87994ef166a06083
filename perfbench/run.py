#!/usr/bin/env python3
"""Benchmark one workload of the webusage package, end to end or traced.

    python3 perfbench/run.py --workload campus-week --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``./src`` and nothing needs installing.  The run generates the workload from
``--seed`` (several times, to time set-up), then starts ``child.py`` in a
fresh interpreter, which repeats iterations of the CLI walkthrough plus the
live request loop for ``--seconds`` and checks every output.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of the
traced iterations and the tracing overhead.  BENCHMARK.json at the root
names both sets of metrics and their units.  Full details of each run (sample
counts, environment, output digests) are written under ``.perfbench_run/``.
A failed check prints no metrics and exits with 1; a checkout without the
package exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from child import REFERENCE_S, SpeedProbe, at_reference_speed, reference_loop
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0

class RunFailed(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, default=20,
                        help="how long the iterations run (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def tree_digest(root: Path, dirs: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when the root is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment(root: Path, args, workload) -> dict:
    import sqlite3

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sqlite_version": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "code_digest": tree_digest(root, ("src", HERE.name)),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def count_lines(path: Path, skip_comments: bool) -> int:
    n = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if text and not (skip_comments and text.startswith("#")):
                n += 1
    return n


def setup(workload, seed: int, work: Path, indices: range) -> tuple[list, dict, tuple]:
    """Generate the inputs once per index; every copy must be identical.

    Returns (mean reference loop before, along and after it, time) per
    set-up, the paths of the last copy and the files' digests.
    """
    from webusage.simulator import WorkloadConfig, simulate_to_dir

    times = []
    digests = set()
    paths = {}
    for i in indices:
        refs = [reference_loop()]
        with SpeedProbe() as probe:
            start = perf_counter()
            paths = simulate_to_dir(WorkloadConfig(**workload.config_kwargs(seed)),
                                    work / f"setup{i}")
            elapsed = perf_counter() - start - probe.paused_s
        refs += probe.refs + [reference_loop()]
        times.append((statistics.fmean(refs), elapsed))
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                          for _, p in sorted(paths.items())))
    for i in indices[:-1]:
        shutil.rmtree(work / f"setup{i}")
    if len(digests) != 1:
        raise RunFailed("repeated set-up with one seed produced different files")
    return times, {k: str(v) for k, v in paths.items()}, digests.pop()


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec))
    budget = deadline - perf_counter()
    if budget < 10:
        raise RunFailed("set-up left no time for the measured phases")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"measured phases did not finish within {budget:.0f} s") from None
    if not result_path.exists():
        raise RunFailed(f"measured phases exited {proc.returncode} without a result")
    result = json.loads(result_path.read_text())
    if "error" in result:
        raise RunFailed(result["error"])
    return result


def check_repeatable(state: Path, key: str, digests: dict) -> None:
    """Outputs of one code version and seed must match earlier runs of it."""
    registry = state / "digests.json"
    known = json.loads(registry.read_text()) if registry.exists() else {}
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    if known.get(key, combined) != combined:
        raise RunFailed(f"outputs differ from an earlier run of the same code and seed ({key})")
    known[key] = combined
    tmp = registry.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, registry)


def e2e_metrics(setups: list, result: dict) -> dict:
    """name -> (value, sample count), from untraced iterations only.

    Each timing is scaled to the reference machine speed by the reference
    loops around it (child.at_reference_speed), then the median is taken.
    """
    plain = [r for r in result["iterations"] if not r["traced"]]
    n = len(plain)

    def seconds(samples):
        values = [at_reference_speed(value, ref) for ref, value in samples]
        return statistics.median(values), len(values)

    def rate(work, key):
        value, count = seconds((r["ref"][key], r[key] / r[work]) for r in plain)
        return 1.0 / value, count

    # The suite is the sum of each kind's median, so that every call is
    # scaled by the machine speed around it alone.
    kinds = [seconds((r["ref"][f"report:{kind}"], r["report_s"][kind]) for r in plain)
             for kind in plain[0]["report_s"]]
    latency = result["latency"]
    return {
        "setup_s": seconds(setups),
        "collect_pages_per_s": rate("pages", "collect_s"),
        "preprocess_lines_per_s": rate("lines", "preprocess_s"),
        "report_suite_s": (sum(value for value, _ in kinds), min(k for _, k in kinds)),
        "compare_s": seconds((r["ref"]["compare_s"], r["compare_s"]) for r in plain),
        "export_s": seconds((r["ref"]["export_s"], r["export_s"]) for r in plain),
        "request_p50_us": (latency["p50_s"] * 1e6, latency["samples"]),
        "request_p99_us": (latency["p99_s"] * 1e6, latency["samples"]),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, 1),
        "collector_exact_match": (statistics.median(r["collector_exact_match"] for r in plain), n),
        "baseline_exact_match": (statistics.median(r["baseline_exact_match"] for r in plain), n),
    }


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """name -> (value, traced iterations), and which counts repeated exactly."""
    from child import EXACT_COUNTS, SPAN_METRICS

    layers = result["layers"]
    out = {}
    for name in layers[0].keys() | result["overhead"].keys():
        if name in result["overhead"]:
            out[name] = (result["overhead"][name], len(layers))
        elif SPAN_METRICS.get(name, ((), None))[1] == "setup":
            out[name] = (layers[0][name], 1)  # one traced set-up per run
        else:
            out[name] = (statistics.median(layer[name] for layer in layers), len(layers))
    exact = {name: len({layer[name] for layer in layers}) == 1 for name in EXACT_COUNTS}
    return out, exact


def print_table(metrics: dict, units: dict, exact: dict) -> None:
    for name in units:
        value, samples = metrics[name]
        tag = ""
        if name in exact:
            tag = "  [count, exact]" if exact[name] else "  [count, VARIED]"
        print(f"  {name:<38} {value:>16.6f} {units[name]:<14} n={samples}{tag}")


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "webusage"
    if not (package / "__init__.py").is_file():
        print(f"error: no webusage package under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import webusage

    if Path(webusage.__file__).resolve().parent != package.resolve():
        print(f"error: imported webusage from {webusage.__file__}, not {package}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    state = root / ".perfbench_run"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = environment(root, args, workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details: dict = {"environment": env}
    attempted = failed = 0
    try:
        # Set-ups are split around the measured phases, so that their median
        # samples the machine at both ends of the run.
        before = 1 if args.trace else SETUP_REPEATS // 2 + 1
        setups, inputs, inputs_digest = setup(workload, args.seed, work, range(before))
        spec = {
            "root": str(root),
            "inputs": inputs,
            "n_events": count_lines(Path(inputs["replay"]), skip_comments=True),
            "n_log_lines": count_lines(Path(inputs["eclf"]), skip_comments=False),
            "live_requests": workload.live_requests,
            "config": workload.config_kwargs(args.seed),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "work_dir": str(work / "child"),
            "trace_out": str(state / "traces" / f"{tag}.spans.tsv.gz"),
        }
        result = run_child(spec, work, started + TIME_LIMIT_S)
        if not args.trace:
            times, _, digest = setup(workload, args.seed, work, range(before, SETUP_REPEATS))
            if digest != inputs_digest:
                raise RunFailed("repeated set-up with one seed produced different files")
            setups += times
        for r in result["iterations"]:
            attempted += spec["n_events"] + r["lines"] + r["live_requests"]
            failed += r["collection_errors"] + r["parse_errors"] + r["live_failures"]
        details.update(iterations=result["iterations"], digests=result["digests"],
                       reference_loop_s=result["reference_loop_s"])
        check_repeatable(state, f"{args.workload}|seed={args.seed}|code={env['code_digest']}",
                         result["digests"])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    exact: dict = {}
    if args.trace:
        metrics, exact = layer_metrics(result)
        details["exact_counts"] = exact
    else:
        metrics = e2e_metrics(setups, result)
        details["setup_s"] = setups
    # BENCHMARK.json names the metrics each mode reports, in order, with units.
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(units.keys() ^ metrics.keys())}", file=sys.stderr)
        return 2
    details["metrics"] = {
        name: {"value": metrics[name][0], "unit": unit, "samples": metrics[name][1]}
        for name, unit in units.items()
    }
    out = state / "results" / f"{tag}-{env['started_utc'].replace(':', '')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1))

    output_digest = hashlib.sha256(
        json.dumps(result["digests"], sort_keys=True).encode()).hexdigest()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(result['iterations'])}  outputs sha256 {output_digest[:16]}")
    print(f"python {env['python']}  sqlite {env['sqlite_version']}  nproc {env['nproc']}  "
          f"commit {env['git_commit'] or 'n/a'}  code {env['code_digest'][:16]}")
    reference = result["reference_loop_s"]
    print(f"machine speed: fixed reference loop median {statistics.median(reference) * 1e3:.2f} ms"
          f" (n={len(reference)}, quartiles "
          + " / ".join(f"{q * 1e3:.2f}" for q in statistics.quantiles(reference, n=4))
          + f"); timings are scaled to {REFERENCE_S * 1e3:.2f} ms")
    print_table(metrics, units, exact)
    print(f"details: {out.relative_to(root)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
