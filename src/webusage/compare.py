"""Scoring the collector's store against simulator ground truth.

The replay stream feeds the collector in ground-truth order, so the N-th
page row in the store describes the N-th truth event, whose ``event_seq``
must be N.  That positional join
needs no heuristics; timestamps are cross-checked anyway so a store built
from some other stream fails loudly instead of scoring garbage.
"""

from __future__ import annotations

from typing import Hashable

from .baseline import AccuracyReport, UniverseMismatchError, score_labelings
from .storage import LogStore, UserInfo, deserialize_map
from .truth import GroundTruth


def load_roster(store: LogStore, truth: GroundTruth) -> int:
    """Register the truth's account holders so replay can resolve auth users."""
    n = 0
    with store.transaction():
        for user in truth.users:
            if user.username is None:
                continue
            store.upsert_user(UserInfo(
                user_id=user.user_id,
                username=user.username,
                user_type=user.user_type,
                gender=user.gender or "not_applicable",
            ))
            n += 1
    return n


def collector_report(store: LogStore, truth: GroundTruth) -> AccuracyReport:
    """Pairwise and exact-match accuracy of the store's user/session labels.

    A visitor's identity is the account id when the session is signed in,
    else the persistent "sid" cookie captured with each page.
    """
    # (opn_id, page time in epoch seconds, session user_id, cookie text) for
    # every page, by page id.
    rows = store._query(
        "SELECT p.log_opn_id, CAST(strftime('%s', p.log_datetime) AS INTEGER),"
        " s.user_id, p.log_cookie_serialize"
        " FROM log_page p JOIN log_session s ON s.opn_id = p.log_opn_id"
        " ORDER BY p.log_details_id"
    )
    # A visitor's pages repeat one cookie text, so each distinct text is
    # decoded once, in page order.
    sids = {text: deserialize_map(text).get("sid") for text in dict.fromkeys([r[3] for r in rows])}
    events = truth.events
    if len(rows) != len(events):
        raise UniverseMismatchError(
            f"store holds {len(rows)} pageviews, truth lists {len(events)}"
        )
    pred_user: list[Hashable] = []
    for position, ((opn_id, stored_epoch, user_id, text), truth_event) in enumerate(
        zip(rows, events), start=1
    ):
        if truth_event.event_seq != position:
            raise UniverseMismatchError(
                f"truth event {position} has event_seq {truth_event.event_seq}"
            )
        if stored_epoch != truth_event.epoch:
            raise UniverseMismatchError(
                f"event {truth_event.event_seq}: store time {stored_epoch}"
                f" != truth time {truth_event.epoch}"
            )
        if user_id is not None:
            pred_user.append(("account", user_id))
        else:
            token = sids[text]
            pred_user.append(("cookie", token) if token else ("lone", opn_id))
    return score_labelings([r[0] for r in rows], pred_user, [e.true_session_id for e in events],
                           [e.true_user_id for e in events])
