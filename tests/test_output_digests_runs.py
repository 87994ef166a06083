"""scripts/output_digests.py over several runs: repeated --seed and
--workload all print each run's lines, in run order, under a
<workload>/seed<N>/ prefix (one run prints without it, as
test_output_digests.py pins)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, seeds, every_workload", [
    (["--workload", "all", "--seed", "3"], [3], True),
    (["--workload", "stressed-short", "--seed", "1", "--seed", "2"], [1, 2], False),
])
def test_each_run_prints_under_its_prefix(capsys, monkeypatch, argv, seeds, every_workload):
    script = _load_script()
    ran = []

    def fake_digests(workload, seed, work):
        ran.append((workload.name, seed))
        return {"a": str(seed) * 64, "b": "f" * 64}

    monkeypatch.setattr(script, "output_digests", fake_digests)
    assert script.main(argv) == 0
    names = sorted(script.load_workloads()) if every_workload else ["stressed-short"]
    runs = [(name, seed) for name in names for seed in seeds]
    assert ran == runs
    assert capsys.readouterr().out == "".join(
        f"{str(seed) * 64}  {name}/seed{seed}/a\n{'f' * 64}  {name}/seed{seed}/b\n"
        for name, seed in runs
    )


def test_unknown_workload_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        _load_script().main(["--workload", "nope", "--seed", "1"])
    assert info.value.code == 2
