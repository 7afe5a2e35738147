"""Every top-level function and class in the package is used by the package.

Slow reference versions and helpers that only tests call belong in
``tests/``; a definition that nothing in ``src/wikicat`` refers to, and that
``wikicat.__all__`` does not export, fails this check.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wikicat

# Synthetic wiki generators for tests, scripts and users: no pipeline step
# calls them.
_EXEMPT = {"synth.py"}


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
    return used


def _unreferenced(package: Path, exported: set[str]) -> list[str]:
    """``file:line: name`` of each top-level definition nothing else uses."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    # What each top-level statement of each module refers to.
    used = {
        (module, stmt): _names_used(stmt)
        for module, tree in trees.items()
        for stmt in tree.body
    }
    found = []
    for module, tree in trees.items():
        if module in _EXEMPT:
            continue
        for stmt in tree.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or stmt.name in exported:
                continue
            if not any(
                stmt.name in names
                for where, names in used.items()
                if where != (module, stmt)
            ):
                found.append(f"{module}:{stmt.lineno}: {stmt.name}")
    return found


def test_every_definition_is_used_or_exported():
    package = Path(wikicat.__file__).parent
    assert _unreferenced(package, set(wikicat.__all__)) == []


def test_check_flags_test_only_and_self_only_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def exported():\n    return 2\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "class Orphan:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import used\n\nVALUE = used()\n", encoding="utf-8"
    )
    assert _unreferenced(tmp_path, {"exported"}) == [
        "a.py:7: lonely",
        "a.py:10: Orphan",
    ]
