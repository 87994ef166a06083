"""Ground-truth records produced by the traffic simulator.

The simulator knows exactly which visitor issued each request and where the
true session boundaries are, so it writes that knowledge out as one CSV that
scoring can join against.  The file carries three row kinds (user, session,
event) in a single 15-column table; columns that do not apply to a kind stay
empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import csvio

TRUTH_HEADER = (
    "kind", "user_id", "username", "user_type", "gender", "device",
    "session_id", "pageviews", "start", "end",
    "event_seq", "cached", "epoch", "ip", "resource",
)


class TruthUser(NamedTuple):
    user_id: int
    username: str | None   # None for visitors who never sign in
    user_type: str
    gender: str | None
    device: str


class TruthSession(NamedTuple):
    session_id: int
    user_id: int
    pageviews: int
    start_epoch: int
    end_epoch: int


class TruthEvent(NamedTuple):
    event_seq: int
    true_user_id: int
    true_session_id: int
    epoch: int
    ip: str
    resource: str
    cached: bool = False


@dataclass
class GroundTruth:
    users: list[TruthUser] = field(default_factory=list)
    sessions: list[TruthSession] = field(default_factory=list)
    events: list[TruthEvent] = field(default_factory=list)

    def served_events(self) -> list[TruthEvent]:
        """Events a server would actually log (cache hits never reach it)."""
        return [e for e in self.events if not e.cached]


def write_truth(truth: GroundTruth, stream) -> None:
    """The header, then one row per user, session and event.  The text
    cells repeat across rows, so each is encoded once through
    :func:`csvio.cell`; the integer cells never need quoting."""
    cell = csvio.cell
    stream.write(csvio.row(TRUTH_HEADER))
    stream.write("".join([
        f"user,{u.user_id},{cell(u.username or '')},{cell(u.user_type)},"
        f"{cell(u.gender or '')},{cell(u.device)},,,,,,,,,\n"
        for u in truth.users
    ]))
    stream.write("".join([
        f"session,{s.user_id},,,,,{s.session_id},{s.pageviews},{s.start_epoch},{s.end_epoch},,,,,\n"
        for s in truth.sessions
    ]))
    stream.write("".join([
        f"event,{e.true_user_id},,,,,{e.true_session_id},,,,{e.event_seq},{int(e.cached)},"
        f"{e.epoch},{cell(e.ip)},{cell(e.resource)}\n"
        for e in truth.events
    ]))


def read_truth(stream) -> GroundTruth:
    truth = GroundTruth()
    users, sessions, events = truth.users, truth.sessions, truth.events
    new_event = TruthEvent._make
    for line_no, row in csvio.rows(stream, TRUTH_HEADER):
        (kind, user_id, username, user_type, gender, device, session_id, pageviews,
         start, end, event_seq, cached, epoch, ip, resource) = row
        try:
            if kind == "event":
                events.append(new_event((
                    int(event_seq), int(user_id), int(session_id), int(epoch),
                    ip, resource, csvio.flag(cached, "cached"),
                )))
            elif kind == "session":
                sessions.append(TruthSession(
                    int(session_id), int(user_id), int(pageviews), int(start), int(end),
                ))
            elif kind == "user":
                users.append(TruthUser(
                    int(user_id), username or None, user_type, gender or None, device,
                ))
            else:
                raise ValueError(f"unknown row kind {kind!r}")
        except ValueError as exc:
            raise csvio.RowError(str(exc), line_no) from None
    return truth


def load_truth(path: str | Path) -> GroundTruth:
    with open(path, encoding="utf-8", newline="") as fh:
        return read_truth(fh)


def save_truth(truth: GroundTruth, path: str | Path) -> None:
    with csvio.replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        write_truth(truth, fh)
