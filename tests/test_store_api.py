"""Every public ``LogStore`` method has a caller in the program: the package,
its scripts or perfbench.  A method only tests call is dead API.

A call is matched by attribute name (``x.NAME(...)``), so the check is loose
for a common name such as ``close``, but it catches a method nobody calls."""

import ast
from pathlib import Path

from webusage.storage import LogStore

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))

# Public methods without a caller.  perfbench/tracing.py wraps get_session and
# join_sessions_pages by name, and FORMATS.md documents import_table.  A name
# leaves this list when it gains a caller or is deleted.
EXEMPT = {"get_session", "join_sessions_pages", "import_table"}


def _public_methods() -> set[str]:
    return {name for name, value in vars(LogStore).items()
            if callable(value) and not name.startswith("_")}


def _called_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_sources_are_found():
    assert {"storage.py", "output_digests.py", "tracing.py"} <= {p.name for p in SOURCES}


def test_every_public_store_method_has_a_caller():
    assert _public_methods() - EXEMPT - _called_names() == set()


def test_exempt_names_are_public_methods_without_a_caller():
    assert EXEMPT <= _public_methods()
    assert EXEMPT & _called_names() == set()
