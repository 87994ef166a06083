"""scripts/output_digests.py prints one digest line per walkthrough output,
and the same lines on every run of one checkout, workload and seed.

tests/data/output_digests_<workload>_seed<N>.txt pin those lines: any
change to the bytes of a simulated input, a report, an export, the
sessions CSV, the preprocess counters or the compare output shows up here.  A change that
means to alter an output regenerates the file with the script and says
so."""

import importlib.util
import re
from pathlib import Path

import pytest

from webusage.cli import REPORT_KINDS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
DATA = Path(__file__).resolve().parent / "data"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_lines(capsys):
    script = _load_script()
    runs = []
    for _ in range(2):
        assert script.main(["--workload", "stressed-short", "--seed", "1"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    assert names == sorted(names)
    expected = {"sessions.csv", "preprocess.txt", "compare.txt",
                "report/top-ips-n3.csv", "report/top-users-n3.csv"}
    expected |= {f"report/{kind}.{ext}" for kind in REPORT_KINDS for ext in ("csv", "plot")}
    expected |= {f"simulate/{name}" for name in ("events.replay", "access.log", "truth.csv")}
    expected |= {
        f"export/{table}.csv"
        for table in ("user_info", "log_geoip", "log_session", "open_sessions", "log_page")
    }
    assert set(names) == expected


@pytest.mark.parametrize("workload, seed", [
    ("campus-week", 1),
    ("stressed-short", 1),
    ("stressed-short", 2),
])
def test_prints_the_pinned_lines(capsys, workload, seed):
    pinned = (DATA / f"output_digests_{workload}_seed{seed}.txt").read_text(encoding="utf-8")
    assert _load_script().main(["--workload", workload, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == pinned
