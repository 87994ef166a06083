"""A run killed part-way leaves each file it writes whole or as it was
(FORMATS.md "Output files"): one child at a time is SIGKILLed once its temporary
file, or its target when written in place, holds enough bytes, and the
next run of the same command succeeds and leaves no temporary file."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from webusage.cli import main
from webusage.simulator import WorkloadConfig, simulate_to_dir

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")

SIM_ARGS = ["--seed", "5", "--users", "150"]  # about 5,300 events
SIM_FILES = ("events.replay", "access.log", "truth.csv")
TEMPORARY = re.compile(r"\..+\.[0-9]+\.tmp(-journal)?")


@pytest.fixture(scope="module")
def complete(tmp_path_factory) -> Path:
    """The files an unkilled `simulate` and `collect` write."""
    root = tmp_path_factory.mktemp("complete")
    simulate_to_dir(WorkloadConfig(seed=5, n_users=150), root)
    assert main(["collect", str(root / "events.replay"), "--store", str(root / "s.db")]) == 0
    return root


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _kill_once_written(args: list[str], target: Path, min_bytes: int) -> None:
    """Run ``webusage ARGS`` and SIGKILL it, polling each millisecond, once
    its temporary file for ``target`` holds ``min_bytes``, or ``target``
    itself does after the child changed it."""
    before = target.stat().st_mtime_ns
    child = subprocess.Popen([sys.executable, "-m", "webusage", *args],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    temporary = target.with_name(f".{target.name}.{child.pid}.tmp")
    try:
        while child.poll() is None and _size(temporary) < min_bytes and not (
                _size(target) >= min_bytes and target.stat().st_mtime_ns != before):
            time.sleep(0.001)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL  # it did not finish first


def _temporaries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if TEMPORARY.fullmatch(p.name))


def test_killed_simulate_leaves_each_file_old_or_whole(tmp_path, complete):
    out = tmp_path / "sim"
    out.mkdir()
    old = {name: f"old {name}\n".encode() for name in SIM_FILES}
    for name, data in old.items():
        (out / name).write_bytes(data)
    args = ["simulate", *SIM_ARGS, "--out", str(out)]
    for name in ("events.replay", "access.log"):
        _kill_once_written(args, out / name, 1)
        for each in SIM_FILES:
            assert (out / each).read_bytes() in (old[each], (complete / each).read_bytes()), \
                (name, each)
    assert _temporaries(out)  # the killed runs left theirs
    done = subprocess.run([sys.executable, "-m", "webusage", *args], capture_output=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(SIM_FILES)
    for name in SIM_FILES:
        assert (out / name).read_bytes() == (complete / name).read_bytes()


def test_killed_collect_keeps_the_old_store(tmp_path, complete):
    store = tmp_path / "s.db"
    store.write_bytes(b"old store\n")
    args = ["collect", str(complete / "events.replay"), "--store", str(store)]
    for min_bytes in (1, _size(complete / "s.db") // 2):
        _kill_once_written(args, store, min_bytes)
        assert store.read_bytes() == b"old store\n"
    assert _temporaries(tmp_path)
    done = subprocess.run([sys.executable, "-m", "webusage", *args], capture_output=True)
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["s.db"]
    assert store.read_bytes() == (complete / "s.db").read_bytes()
