"""Scoring the collector's store against simulator ground truth.

The replay stream feeds the collector in ground-truth order, so the N-th
page row in the store describes the N-th truth event.  That positional join
needs no heuristics; timestamps are cross-checked anyway so a store built
from some other stream fails loudly instead of scoring garbage.
"""

from __future__ import annotations

from datetime import datetime
from typing import Hashable

from .baseline import AccuracyReport, UniverseMismatchError, score_labelings, truth_labels
from .storage import LogStore, UserInfo, deserialize_map
from .truth import GroundTruth

_EPOCH0 = datetime(1970, 1, 1)


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
    rows = list(store.join_sessions_pages())
    if len(rows) != len(truth.events):
        raise UniverseMismatchError(
            f"store holds {len(rows)} pageviews, truth lists {len(truth.events)}"
        )
    pred_session: dict[int, Hashable] = {}
    pred_user: dict[int, Hashable] = {}
    for (session, page), truth_event in zip(rows, truth.events):
        stored_epoch = int((page.log_datetime - _EPOCH0).total_seconds())
        if stored_epoch != truth_event.epoch:
            raise UniverseMismatchError(
                f"event {truth_event.event_seq}: store time {stored_epoch}"
                f" != truth time {truth_event.epoch}"
            )
        if session.user_id is not None:
            user_label: Hashable = ("account", session.user_id)
        else:
            token = deserialize_map(page.log_cookie_serialize).get("sid")
            user_label = ("cookie", token) if token else ("lone", page.log_opn_id)
        pred_session[truth_event.event_seq] = page.log_opn_id
        pred_user[truth_event.event_seq] = user_label
    return score_labelings(pred_session, pred_user, *truth_labels(truth.events))
