"""Every public function, class and method of the package is used by the
program: the package, its scripts or perfbench.  A name only tests use is
dead API.

A use is matched by name (``NAME`` or ``x.NAME``), so the check is loose for
a common name such as ``close``, but it catches a name nobody uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "webusage").glob("*.py"))
SOURCES = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))

# Public names without a use, each with its reason.  A name leaves this map
# when it gains a use or is deleted.
EXEMPT = {
    "get_session": "perfbench/tracing.py wraps it by name",
    "join_sessions_pages": "perfbench/tracing.py wraps it by name",
    "session_summaries": "perfbench/tracing.py wraps it by name",
    "filter_entries": "perfbench/tracing.py wraps it by name",
    "identify_users": "perfbench/tracing.py wraps it by name",
    "end_session": "FORMATS.md documents it",
    "parse_log_line": "FORMATS.md documents it",
    "render_log_line": "FORMATS.md documents it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_names() -> set[str]:
    """Module-level functions and classes of the package, and the methods
    of its classes, whose names do not start with ``_``."""
    names = set()
    for path in PACKAGE:
        for node in _parse(path).body:
            defs = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            names.update(d.name for d in defs
                         if isinstance(d, (ast.FunctionDef, ast.ClassDef)))
    return {name for name in names if not name.startswith("_")}


def _used_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_sources_are_found():
    assert {"storage.py", "output_digests.py", "tracing.py"} <= {p.name for p in SOURCES}
    assert {"LogStore", "Collector", "handle_request_begin", "cell"} <= _public_names()


def test_every_public_name_has_a_use():
    assert _public_names() - EXEMPT.keys() - _used_names() == set()


def test_exempt_names_are_public_names_without_a_use():
    assert EXEMPT.keys() <= _public_names()
    assert EXEMPT.keys() & _used_names() == set()
