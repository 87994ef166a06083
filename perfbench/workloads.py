"""The benchmark's workloads.

Each workload is one simulator configuration (the seed comes from the
command line) plus the number of its replay events that each iteration also
sends through the request-time API.  Why each one exists, and which layers
it is meant to stress, is written out in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_users: int
    session_rate: float
    pageviews_mean: float
    nat_share: float = 0.0
    dynamic_ip_share: float = 0.0
    cookie_loss_share: float = 0.0
    cached_nav_share: float = 0.0
    # First N replay events sent one by one through handle_request_begin /
    # handle_request_end per iteration; 0 sends every event.
    live_requests: int = 0

    def config_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``webusage.simulator.WorkloadConfig``."""
        return {
            "seed": seed,
            "n_users": self.n_users,
            "session_rate": self.session_rate,
            "pageviews_per_session_mean": self.pageviews_mean,
            "nat_share": self.nat_share,
            "dynamic_ip_share": self.dynamic_ip_share,
            "cookie_loss_share": self.cookie_loss_share,
            "cached_nav_share": self.cached_nav_share,
        }

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campus-week",
            why="clean campus week, ~5k pageviews, 1 session start per 10 pages:"
                " bound by page appends, large page-joined reports",
            n_users=25,
            session_rate=20.0,
            pageviews_mean=10.0,
            live_requests=2000,
        ),
        Workload(
            name="stressed-short",
            why="all four stresses, short sessions, ~4k pageviews: bound by session"
                " starts (UA parsing), session-summary reports, path completion",
            n_users=70,
            session_rate=20.0,
            pageviews_mean=3.0,
            nat_share=0.3,
            dynamic_ip_share=0.5,
            cookie_loss_share=0.25,
            cached_nav_share=0.3,
            live_requests=2000,
        ),
        Workload(
            name="live-requests",
            why="campus-week's traffic, every one of its ~5k requests committed on its own"
                " through the request API into a file-backed store, with a sweep every"
                " 5 minutes",
            n_users=25,
            session_rate=20.0,
            pageviews_mean=10.0,
            live_requests=0,
        ),
    )
}
