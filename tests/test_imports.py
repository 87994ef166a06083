"""Importing a module loads only the package modules it needs: the package
root imports nothing, so an application that builds in the collector does
not load the baseline, the simulator or the reports."""

import json
import subprocess
import sys

import pytest


def _loaded_after(module: str) -> set[str]:
    """The package modules a fresh interpreter holds after ``import module``."""
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'webusage')))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module, loaded", [
    ("webusage.collector", {"collector", "storage", "enrichment", "events", "csvio"}),
    ("webusage.csvio", {"csvio"}),
    ("webusage.compare", {"compare", "truth", "storage", "enrichment", "events", "csvio"}),
])
def test_import_loads_only_its_dependencies(module, loaded):
    assert _loaded_after(module) == {"webusage"} | {f"webusage.{name}" for name in loaded}
