"""Scoring both sides against simulator ground truth (FORMATS.md "Scoring").

Each side labels the truth's events with a session and a user, and one
joint label count over event positions scores them.  The N-th page row of
the collector's store is the N-th truth event, as the replay feeds the
collector in truth order; its time is cross-checked, so a store built from
another stream fails loudly instead of scoring garbage.  The rows of the
classical sessions CSV are joined to the served truth events by (epoch, ip,
resource), in epoch seconds from the file to the join.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .storage import LogStore, UserInfo, deserialize_map
from .truth import GroundTruth, TruthEvent


@dataclass
class AccuracyReport:
    user_precision: float
    user_recall: float
    session_precision: float
    session_recall: float
    exact_session_match_rate: float
    truth_sessions: int = 0
    predicted_sessions: int = 0

    def to_text(self) -> str:
        """One ``  name: value`` line per field, the rates to six decimals."""
        return "\n".join(
            f"  {name}: {value}" if name.endswith("_sessions") else f"  {name}: {value:.6f}"
            for name, value in vars(self).items()
        )


class UniverseMismatchError(ValueError):
    """Prediction and truth do not describe the same set of events."""


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _precision_recall(joint: Counter, pred: Counter, truth: Counter) -> tuple[float, float]:
    """Pairwise precision/recall from the events under each label pair and label."""
    together_both = sum(map(_pairs, joint.values()))
    together_pred = sum(map(_pairs, pred.values()))
    together_truth = sum(map(_pairs, truth.values()))
    precision = together_both / together_pred if together_pred else 1.0
    recall = together_both / together_truth if together_truth else 1.0
    return precision, recall


def _pairwise(pred: Sequence[Hashable], truth: Sequence[Hashable]) -> tuple[float, float]:
    """Pairwise precision/recall of a predicted clustering of events, the
    labels of event i at index i of both sequences."""
    return _precision_recall(Counter(zip(pred, truth)), Counter(pred), Counter(truth))


def score_labelings(
    pred_session: Sequence[Hashable],
    pred_user: Sequence[Hashable],
    truth_session: Sequence[Hashable],
    truth_user: Sequence[Hashable],
) -> AccuracyReport:
    """Score predicted session/user labels against truth labels.

    Index i of each of the four sequences labels the same event; labels
    need only be hashable.  Precision/recall are pairwise co-membership
    metrics.  A truth session is matched exactly when one predicted session
    holds the same events: then their joint count equals both sessions' sizes.
    """
    if not len(pred_session) == len(pred_user) == len(truth_session) == len(truth_user):
        raise UniverseMismatchError("label sequences cover different events")
    sessions = Counter(zip(pred_session, truth_session))
    pred_sizes, truth_sizes = Counter(pred_session), Counter(truth_session)
    session_precision, session_recall = _precision_recall(sessions, pred_sizes, truth_sizes)
    user_precision, user_recall = _pairwise(pred_user, truth_user)
    exact = sum(1 for (p, t), n in sessions.items() if n == pred_sizes[p] == truth_sizes[t])
    return AccuracyReport(
        user_precision=user_precision,
        user_recall=user_recall,
        session_precision=session_precision,
        session_recall=session_recall,
        exact_session_match_rate=exact / len(truth_sizes) if truth_sizes else 1.0,
        truth_sessions=len(truth_sizes),
        predicted_sessions=len(pred_sizes),
    )


def load_roster(store: LogStore, truth: GroundTruth) -> None:
    """Register the truth's account holders so replay can resolve auth users."""
    with store.transaction():
        for user in truth.users:
            if user.username is not None:
                store.upsert_user(UserInfo(
                    user_id=user.user_id,
                    username=user.username,
                    user_type=user.user_type,
                    gender=user.gender or "not_applicable",
                ))


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


def score_against_truth(rows: Iterable[tuple], truth: GroundTruth) -> AccuracyReport:
    """Score the rows of a sessions CSV, ``(user_key, session_id, epoch,
    resource, inferred)`` each, against ground truth.

    Real (non-inferred) events are joined to non-cached truth events by
    (epoch, ip, resource), the ip being ``user_key`` up to its first ``|``;
    duplicate keys pair up in occurrence order, the rows taken by the text
    of their ((ip, agent), session_id), then in file order.  The two
    universes must contain the same key multiset.
    """
    served = truth.served_events()
    # key -> the positions in ``served`` of its events not yet paired
    positions: dict[tuple[int, str, str], list[int]] = {}
    for i, e in enumerate(served):
        positions.setdefault((e.epoch, e.ip, e.resource), []).append(i)
    # (user_key, session_id) -> the (epoch, resource) of its real events, in file order
    clusters: dict[tuple[str, int], list[tuple[int, str]]] = defaultdict(list)
    for user_key, session_id, epoch, resource, inferred in rows:
        if not inferred:
            clusters[user_key, session_id].append((epoch, resource))
    pred_session: list[Hashable] = [None] * len(served)
    pred_user: list[Hashable] = [None] * len(served)
    # partition(...)[::2] is the (ip, agent) a user_key holds
    for cluster in sorted(clusters, key=lambda c: str((c[0].partition("|")[::2], c[1]))):
        user_key = cluster[0]
        ip = user_key.partition("|")[0]
        for epoch, resource in clusters[cluster]:
            free = positions.get((epoch, ip, resource))
            if not free:
                raise UniverseMismatchError(
                    f"predicted event not in truth: {_first_excess(clusters, served)}"
                )
            i = free.pop(0)
            pred_session[i] = cluster
            pred_user[i] = user_key
    unmatched = [key for key, free in positions.items() if free]
    if unmatched:
        raise UniverseMismatchError(f"truth events missing from prediction: {sorted(unmatched)[:3]}")
    return score_labelings(pred_session, pred_user, [e.true_session_id for e in served],
                           [e.true_user_id for e in served])


def _first_excess(clusters: dict, served: Sequence[TruthEvent]) -> tuple[int, str, str]:
    """The least key that more real events of ``clusters`` carry than ``served`` does."""
    truth_keys = Counter((e.epoch, e.ip, e.resource) for e in served)
    pred_keys = Counter(
        (epoch, user_key.partition("|")[0], resource)
        for (user_key, _), events in clusters.items() for epoch, resource in events
    )
    return min(key for key, n in pred_keys.items() if n > truth_keys[key])
