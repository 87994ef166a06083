"""Scoring the collector's store against simulator ground truth.

The replay stream feeds the collector in ground-truth order, so the N-th
page row in the store describes the N-th truth event.  That positional join
needs no heuristics; timestamps are cross-checked anyway so a store built
from some other stream fails loudly instead of scoring garbage.
"""

from __future__ import annotations

from typing import Hashable

from .baseline import AccuracyReport, UniverseMismatchError, score_labelings, truth_labels
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
    # (opn_id, page time in epoch seconds, session user_id, cookie map) for
    # every page, by page id.  A visitor's pages repeat one cookie text, so
    # pages with equal text share one decoded map.
    maps: dict[str, dict[str, str]] = {}
    rows = []
    for opn_id, epoch, user_id, text in store._query(
        "SELECT p.log_opn_id, CAST(strftime('%s', p.log_datetime) AS INTEGER),"
        " s.user_id, p.log_cookie_serialize"
        " FROM log_page p JOIN log_session s ON s.opn_id = p.log_opn_id"
        " ORDER BY p.log_details_id"
    ):
        if text not in maps:
            maps[text] = deserialize_map(text)
        rows.append((opn_id, epoch, user_id, maps[text]))
    if len(rows) != len(truth.events):
        raise UniverseMismatchError(
            f"store holds {len(rows)} pageviews, truth lists {len(truth.events)}"
        )
    pred_session: dict[int, Hashable] = {}
    pred_user: dict[int, Hashable] = {}
    for (opn_id, stored_epoch, user_id, cookies), truth_event in zip(rows, truth.events):
        if stored_epoch != truth_event.epoch:
            raise UniverseMismatchError(
                f"event {truth_event.event_seq}: store time {stored_epoch}"
                f" != truth time {truth_event.epoch}"
            )
        if user_id is not None:
            user_label: Hashable = ("account", user_id)
        else:
            token = cookies.get("sid")
            user_label = ("cookie", token) if token else ("lone", opn_id)
        pred_session[truth_event.event_seq] = opn_id
        pred_user[truth_event.event_seq] = user_label
    return score_labelings(pred_session, pred_user, *truth_labels(truth.events))
