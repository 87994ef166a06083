"""The runtime is stdlib-only: every module of the package imports only the
standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import webusage

MODULES = sorted(Path(webusage.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_is_checked():
    assert {"collector.py", "enrichment.py", "storage.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    foreign = [
        name for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "webusage"
    ]
    assert foreign == []


def test_only_the_csv_module_imports_csv():
    """One module owns the CSV dialect and the form of an unreadable row."""
    importers = [p.name for p in MODULES if "csv" in _absolute_imports(p)]
    assert importers == ["csvio.py"]
