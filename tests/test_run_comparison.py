"""scripts/run_comparison.py scores the collector and the classical
pipeline on each stress scenario.

tests/data/run_comparison_seed1.txt pins the rows of a small run at full
float precision, one ``name | sessions | collector | baseline | gap |
user P | user R`` line per scenario.  The benchmark scores the classical
side only in ``both`` mode; this run scores it in ``page_gap`` mode under
NAT, cookie loss and dynamic addresses, each alone and combined, so a
change to identification, sessionizing or scoring that moves any rate
shows up here."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_comparison.py"
PINNED = Path(__file__).resolve().parent / "data" / "run_comparison_seed1.txt"
SMALL = ["--users", "8", "--session-rate", "3", "--seed", "1"]


def _load_script():
    spec = importlib.util.spec_from_file_location("run_comparison", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pinned_rows() -> list[list[str]]:
    return [line.split(" | ") for line in PINNED.read_text(encoding="utf-8").splitlines()]


def test_every_scenario_scores_the_pinned_rows():
    script = _load_script()
    args = script.parse_args(SMALL)
    assert args.mode == "page_gap"
    rows = [
        [str(value) for value in script.run_scenario(name, overrides, args)]
        for name, overrides in script.SCENARIOS
    ]
    assert rows == _pinned_rows()


def test_main_prints_the_rows_rounded(capsys):
    script = _load_script()
    assert script.main(SMALL) == 0
    lines = capsys.readouterr().out.splitlines()
    pinned = _pinned_rows()
    table = lines[2:2 + len(pinned)]
    assert [line.rsplit(None, 6) for line in table] == [
        [name, sessions] + [f"{float(v):.4f}" for v in rates]
        for name, sessions, *rates in pinned
    ]
