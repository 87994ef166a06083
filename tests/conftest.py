"""Shared fixtures: one small simulated workload replayed into a store.

The session-scoped store is read-only by convention; tests that mutate
storage build their own instances.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from webusage.collector import Collector, replay_stream
from webusage.compare import load_roster
from webusage.enrichment import sample_geoip_table
from webusage.simulator import SITE_HOST, WorkloadConfig, generate
from webusage.storage import LogStore

# pyproject.toml puts src/ on this process's sys.path; tests that run
# `python -m webusage` in a subprocess need it on theirs as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

SMALL_CONFIG = WorkloadConfig(
    seed=17,
    n_users=12,
    session_rate=3.0,
    pageviews_per_session_mean=5.0,
    cached_nav_share=0.15,
    duration=2 * 86400.0,
)


@pytest.fixture(scope="session")
def small_workload():
    events, truth = generate(SMALL_CONFIG)
    return SMALL_CONFIG, events, truth


@pytest.fixture(scope="session")
def sim_store(tmp_path_factory, small_workload):
    config, events, truth = small_workload
    path = tmp_path_factory.mktemp("store") / "usage.db"
    store = LogStore(path)
    load_roster(store, truth)
    collector = Collector(
        store,
        site_hosts=[SITE_HOST],
        geoip=sample_geoip_table(),
        timeout=config.timeout,
    )
    pages, errors = replay_stream(collector, events)
    assert errors == 0
    assert pages == len(truth.events)
    yield store
    store.close()


@pytest.fixture(scope="session")
def sim_export(tmp_path_factory, sim_store):
    out = tmp_path_factory.mktemp("export")
    sim_store.export_all(out)
    return out


@pytest.fixture
def mem_store():
    store = LogStore(":memory:")
    yield store
    store.close()
