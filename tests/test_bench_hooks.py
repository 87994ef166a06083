"""perfbench/tracing.py wraps package functions by name from outside the
package; every name it wraps must still exist, and uninstalling must put
the originals back."""

import importlib
import importlib.util
from pathlib import Path

import webusage.storage

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(tracing):
    """(owner, attribute) for every name the tracer replaces."""
    out = [(importlib.import_module(m), attr) for m, attr, _ in tracing._FUNCTIONS]
    out += [
        (getattr(importlib.import_module(m), cls), attr)
        for m, cls, attr, _ in tracing._METHODS
    ]
    out.append((webusage.storage.LogStore, "__init__"))
    return out


def test_every_traced_name_resolves_and_is_restored():
    tracing = _load_tracing()
    hooked = _hooked(tracing)
    before = [owner.__dict__[attr] for owner, attr in hooked]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(hooked, before):
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(hooked, before):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
