"""Every other CPython 3.10+ that can be found writes the same bytes.

The interpreters are each ``python3.N`` (N >= 10, N other than the running
minor version) in a ``PATH`` directory, and each path in
``WEBUSAGE_TEST_PYTHONS``, an ``os.pathsep``-separated list such as
``/usr/local/bin/python3.10:/usr/local/bin/python3.12``.  One that does not start
is skipped, and so is a second name for an interpreter already tested.
The package is stdlib-only, so each runs it from ``src/`` in a subprocess
(conftest.py puts ``src/`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WALKTHROUGH = Path(__file__).resolve().parent / "walkthrough.py"
RUNNING = sys.version_info[:2]


def _candidates() -> list[str]:
    found = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = sorted(os.listdir(folder or "."))
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            if match and int(match[1]) >= 10 and int(match[1]) != RUNNING[1]:
                found.append(os.path.join(folder, name))
    found += filter(None, os.environ.get("WEBUSAGE_TEST_PYTHONS", "").split(os.pathsep))
    return list(dict.fromkeys(found))


@lru_cache(maxsize=None)
def _probe(python: str) -> tuple[tuple[int, int], str] | None:
    """The interpreter's ``(major, minor)`` and real executable, or None
    when it does not start."""
    try:
        done = subprocess.run(
            [python, "-c", "import os, sys; print(*sys.version_info[:2]);"
                           " print(os.path.realpath(sys.executable))"],
            capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    if done.returncode != 0:
        return None
    version, executable = done.stdout.splitlines()
    return tuple(map(int, version.split())), executable


@pytest.fixture(scope="module")
def first_names() -> dict[str, str]:
    """Real executable -> the first name tested for it."""
    return {}


@pytest.fixture(params=_candidates())
def python(request, first_names) -> str:
    probed = _probe(request.param)
    if probed is None:
        pytest.skip(f"{request.param} does not start")
    version, executable = probed
    if version == RUNNING or version < (3, 10):
        pytest.skip(f"{request.param} is Python {version[0]}.{version[1]}")
    first = first_names.setdefault(executable, request.param)
    if first != request.param:
        pytest.skip(f"{request.param} is {first}, already tested")
    return request.param


def _run(python: str, *args: str, cwd: Path = ROOT) -> str:
    done = subprocess.run([python, *args], cwd=cwd, capture_output=True, text=True,
                          encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_output_digests(python):
    pinned = (ROOT / "tests" / "data" / "output_digests_stressed-short_seed1.txt").read_text()
    out = _run(python, "scripts/output_digests.py", "--workload", "stressed-short", "--seed", "1")
    assert out.splitlines() == pinned.splitlines()


@pytest.fixture(scope="module")
def running_walkthrough(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("walk")
    return json.loads(_run(sys.executable, str(WALKTHROUGH), str(work)))


# Python 3.10's csv refuses to read a row holding NUL; later ones read it.
NUL_READ = {"rc": 2, "out": "", "err": "error: users file roster.csv line 2: line contains NUL\n"}


def test_walkthrough(python, running_walkthrough, tmp_path):
    """Same exit codes, output and CSV bytes, except for the roster row
    holding NUL when one side is Python 3.10 (FORMATS.md "CSV dialect")."""
    walked = json.loads(_run(python, str(WALKTHROUGH), str(tmp_path)))
    theirs_refuse, mine_refuse = _probe(python)[0] < (3, 11), RUNNING < (3, 11)
    for mine, theirs in zip(running_walkthrough["steps"], walked["steps"], strict=True):
        if "--users" in mine["argv"] and theirs_refuse != mine_refuse:
            refused = theirs if theirs_refuse else mine
            assert {key: refused[key] for key in NUL_READ} == NUL_READ
        else:
            assert theirs == mine
    assert walked["files"] == running_walkthrough["files"]
