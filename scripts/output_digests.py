#!/usr/bin/env python3
"""Print a digest of every output of the CLI walkthrough for each workload and seed.

    python3 scripts/output_digests.py --workload stressed-short --seed 1
    python3 scripts/output_digests.py --workload all --seed 1 --seed 2 --seed 3

The workload settings come from the benchmark's ``perfbench/workloads.py``.
In a temporary directory the script runs ``webusage simulate`` with those
settings (its replay, access log and truth files), then ``collect``,
``preprocess`` (its sessions CSV and the counters it prints), every report
kind as CSV and as ``--plot``, ``top-ips``/``top-users`` with ``--n 3``,
``compare`` and ``export``, all in-process through ``webusage.cli.main``.
It prints one ``sha256  name`` line per output, sorted by name, so two
checkouts compare with a single ``diff`` of their lines.  ``--seed`` may be
given more than once and ``--workload all`` names every workload; when that
makes more than one run, each name is prefixed with ``<workload>/seed<N>/``.
Exits 1 if a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from webusage import cli  # noqa: E402
from webusage.simulator import OPTION_NAMES  # noqa: E402


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run(argv: list[str]) -> bytes:
    """Standard output of one CLI command, which must succeed."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"webusage {' '.join(argv)} exited {rc}")
    return out.getvalue().encode("utf-8")


def output_digests(workload, seed: int, work: Path) -> dict[str, str]:
    """Output name -> sha256 of its bytes, for one workload and seed."""
    inputs = work / "inputs"
    store, sessions, export = work / "usage.db", work / "sessions.csv", work / "export"
    simulate = ["simulate", "--out", str(inputs)]
    for field, value in workload.config_kwargs(seed).items():
        simulate += [f"--{OPTION_NAMES[field]}", str(value)]
    run(simulate)
    run(["collect", str(inputs / "events.replay"), "--store", str(store),
         "--users", str(inputs / "truth.csv")])
    stats = run(["preprocess", str(inputs / "access.log"), "--out", str(sessions)])

    outputs = {f"simulate/{path.name}": path.read_bytes() for path in inputs.iterdir()}
    outputs.update({"sessions.csv": sessions.read_bytes(), "preprocess.txt": stats})
    report = ["report", "--store", str(store), "--kind"]
    for kind in cli.REPORT_KINDS:
        outputs[f"report/{kind}.csv"] = run(report + [kind])
        outputs[f"report/{kind}.plot"] = run(report + [kind, "--plot"])
    for kind in ("top-ips", "top-users"):
        outputs[f"report/{kind}-n3.csv"] = run(report + [kind, "--n", "3"])
    outputs["compare.txt"] = run(["compare", "--store", str(store), "--baseline",
                                  str(sessions), "--truth", str(inputs / "truth.csv")])
    run(["export", "--store", str(store), "--out", str(export)])
    for path in export.iterdir():
        outputs[f"export/{path.name}"] = path.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, required=True, action="append",
                        help="may be given more than once")
    args = parser.parse_args(argv)
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    runs = [(name, seed) for name in names for seed in args.seed]
    for name, seed in runs:
        prefix = f"{name}/seed{seed}/" if len(runs) > 1 else ""
        with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
            digests = output_digests(workloads[name], seed, Path(work))
        for output, digest in sorted(digests.items()):
            print(f"{digest}  {prefix}{output}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
