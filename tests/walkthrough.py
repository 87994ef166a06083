"""A tiny CLI walkthrough whose inputs hold CR, NUL, `"` and `,`.

    PYTHONPATH=src python tests/walkthrough.py WORKDIR

In WORKDIR the script writes a two-request replay (a URL and a search
referrer holding CR, NUL, `"` and `,`), a one-request replay dated in year
999, an access log whose user agent holds NUL, a roster whose username
holds NUL and a text file that is not a store.  It then runs, in-process
through ``webusage.cli.main``: ``collect``, ``export``, ``report --kind
stats`` and ``--kind search-keywords``, ``preprocess``, ``collect --users``
with that roster, ``report`` on the text file, and ``collect`` and
``export`` of the year-999 replay, whose stored times are zero-padded
whatever the C library.  It prints one JSON object: each step's exit code, standard
output and standard error, then the text of every CSV file the steps wrote.
Paths are relative to WORKDIR, so two interpreters print the same object
exactly when they behave the same.  Needs only the standard library.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from webusage import cli

REPLAY = (
    "ip=10.0.0.1 time=2021-09-02T10:00:00 method=GET"
    " url=http://www.campus.example/a.php?t=cr%0Dnul%00q%22c%2C token=t1"
    " agent=Mozilla/5.0%20(X11;%20Linux%20x86_64)%20Firefox/91.0"
    " referrer=https://www.google.com/search?q=cr%0Dnul%00q%22c%2C"
    " service=campus module=a server=1 get= post= cookies=\n"
    "ip=10.0.0.1 time=2021-09-02T10:01:00 method=GET"
    " url=http://www.campus.example/b%0D.php token=t1"
    " agent=Mozilla/5.0%20(X11;%20Linux%20x86_64)%20Firefox/91.0"
    " service=campus module=b server=1 get= post= cookies=\n"
)
OLD_REPLAY = (
    "ip=10.0.0.2 time=0999-12-31T23:00:00 method=GET url=http://www.campus.example/a.php"
    " token=t2 agent=Mozilla/5.0 service=campus module=a server=1 get= post= cookies=\n"
)
LOG = (
    '10.0.0.1 - - [02/Sep/2021:10:00:00 +0000] "GET /a.php?x=1,2 HTTP/1.1" 200 5'
    ' "-" "Agent\x00 \\"q\\",c"\n'
    '10.0.0.1 - - [02/Sep/2021:10:01:00 +0000] "GET /b.php HTTP/1.1" 200 5'
    ' "http://www.campus.example/a.php?x=1,2" "Agent\x00 \\"q\\",c"\n'
)
ROSTER = "user_id,username,user_type,gender\n1,al\x00ice,student,female\n"

STEPS = [
    ["collect", "events.replay", "--store", "usage.db"],
    ["export", "--store", "usage.db", "--out", "export"],
    ["report", "--store", "usage.db", "--kind", "stats"],
    ["report", "--store", "usage.db", "--kind", "search-keywords"],
    ["preprocess", "access.log", "--out", "sessions.csv"],
    ["collect", "events.replay", "--store", "roster.db", "--users", "roster.csv"],
    ["report", "--store", "not-a-store.txt", "--kind", "stats"],
    ["collect", "old.replay", "--store", "old.db"],
    ["export", "--store", "old.db", "--out", "old-export"],
]


def walk() -> dict:
    for name, text in [("events.replay", REPLAY), ("old.replay", OLD_REPLAY),
                       ("access.log", LOG), ("roster.csv", ROSTER),
                       ("not-a-store.txt", "not a store\n")]:
        Path(name).write_text(text, encoding="utf-8", newline="")
    steps = []
    for argv in STEPS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        steps.append({"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()})
    files = {
        path.as_posix(): path.read_bytes().decode("utf-8")
        for path in sorted(Path().glob("**/*.csv")) if path.name != "roster.csv"
    }
    return {"steps": steps, "files": files}


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    json.dump(walk(), sys.stdout, indent=1)
    print()
