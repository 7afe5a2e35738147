"""Every top-level function and class and every method in the package is
used by the package, every defaulted parameter is passed by some call in
it, and every name a module imports is referred to in that module.

Slow reference versions and helpers that only tests call belong in
``tests/``; a definition that nothing in ``src/wikicat`` refers to, and that
``wikicat.__all__`` does not export, fails this check.  So does a method
that no statement outside its own body names as an attribute, and a
parameter with a default that no call in ``src/wikicat`` passes, by keyword
or by position: it selects a behaviour only tests use.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import wikicat

# Module-level functions that the interpreter calls (PEP 562): a module's
# ``__getattr__`` for a name it lacks, and its ``__dir__`` for ``dir()``.
_MODULE_HOOKS = {"__getattr__", "__dir__"}
# The console entry point: the interpreter calls it without arguments, and
# tests pass ``argv``.
_UNPASSED = {("cli.py", "main", "argv")}


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
        for stmt in tree.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or stmt.name in exported | _MODULE_HOOKS:
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
        "class Orphan:\n    pass\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n\n"
        "def __dir__():\n    return []\n\n"
        "def __repr__():\n    return 'a'\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import used\n\nVALUE = used()\n", encoding="utf-8"
    )
    assert _unreferenced(tmp_path, {"exported"}) == [
        "a.py:7: lonely",
        "a.py:10: Orphan",
        "a.py:19: __repr__",
    ]


def _unreferenced_methods(package: Path) -> list[str]:
    """``file:line: Class.method`` of each method, other than a dunder, whose
    name no attribute outside its own body spells.  Names are matched alone,
    so a method is used when any object's attribute of its name is read."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }

    def attributes(node: ast.AST) -> Counter:
        return Counter(
            sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
        )

    everywhere = sum(map(attributes, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or func.name.startswith("__") and func.name.endswith("__"):
                    continue
                if everywhere[func.name] == attributes(func)[func.name]:
                    found.append(f"{module}:{func.lineno}: {cls.name}.{func.name}")
    return found


def test_every_method_is_used():
    assert _unreferenced_methods(Path(wikicat.__file__).parent) == []


def test_method_check_flags_methods_only_their_own_bodies_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def __len__(self):\n        return self.n\n\n"
        "    def used(self):\n        return self.n\n\n"
        "    @property\n"
        "    def size(self):\n        return self.n\n\n"
        "    def recursive(self, k):\n"
        "        return self.recursive(k - 1) if k else 0\n\n"
        "    def lonely(self):\n        return 1\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box\n\nVALUE = Box().used() + Box().size\n",
        encoding="utf-8",
    )
    assert _unreferenced_methods(tmp_path) == [
        "a.py:15: Box.recursive",
        "a.py:18: Box.lonely",
    ]


def _defaulted(func: ast.FunctionDef | ast.AsyncFunctionDef, method: bool):
    """``(name, position)`` of each parameter of ``func`` with a default; the
    position counts the arguments a call passes (a method's ``self`` or
    ``cls`` is not one of them), and is None for a keyword-only parameter."""
    a = func.args
    positional = a.posonlyargs + a.args
    first, shift = len(positional) - len(a.defaults), 1 if method else 0
    out = [(arg.arg, i - shift) for i, arg in enumerate(positional) if i >= first]
    out += [
        (arg.arg, None)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults)
        if default is not None
    ]
    return out


def _unpassed(package: Path) -> list[str]:
    """``file:line: function(parameter)`` of each defaulted parameter that no
    call in the package passes.  Calls match definitions by name; a call
    through a class's name calls its ``__init__``, and a call with ``*`` or
    ``**`` passes every parameter."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    classes = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    passed: dict[str, set] = {}  # callee name -> keywords and positions
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in classes:
                name = "__init__"
            seen = passed.setdefault(name, set())
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                seen.add("*")
            seen.update(range(len(call.args)))
            seen.update(kw.arg for kw in call.keywords)
    found = []
    for module, tree in trees.items():
        methods = {
            id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            seen = passed.get(func.name, set())
            for param, position in _defaulted(func, id(func) in methods):
                if (module, func.name, param) in _UNPASSED or "*" in seen:
                    continue
                if param not in seen and position not in seen:
                    found.append(f"{module}:{func.lineno}: {func.name}({param})")
    return found


def test_every_defaulted_parameter_is_passed():
    assert _unpassed(Path(wikicat.__file__).parent) == []


def test_parameter_check_counts_keywords_positions_classes_and_stars(tmp_path):
    (tmp_path / "a.py").write_text(
        "def by_keyword(x, k=1):\n    pass\n\n"
        "def by_position(x, k=1):\n    pass\n\n"
        "def by_star(x, k=1):\n    pass\n\n"
        "def unpassed(x, k=1, *, only=2):\n    pass\n\n"
        "class Box:\n"
        "    def __init__(self, k=1):\n        pass\n\n"
        "    def method(self, k=1):\n        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, by_keyword, by_position, by_star, unpassed\n\n"
        "by_keyword(0, k=2)\nby_position(0, 2)\nby_star(*[0, 2])\n"
        "unpassed(0)\nBox(2).method()\n",
        encoding="utf-8",
    )
    assert _unpassed(tmp_path) == [
        "a.py:10: unpassed(k)",
        "a.py:10: unpassed(only)",
        "a.py:17: method(k)",
    ]


def _unused_imports(package: Path) -> list[str]:
    """``file:line: name`` of each name that a module imports, under
    ``TYPE_CHECKING`` too, and never refers to.  ``from __future__``
    imports set compiler flags, so they are exempt."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_every_imported_name_is_used():
    assert _unused_imports(Path(wikicat.__file__).parent) == []


def test_import_check_flags_names_their_module_never_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport re as regex\nimport sys\n"
        "from typing import TYPE_CHECKING, Any\n\n"
        "from .b import VALUE, unused\n\n"
        "if TYPE_CHECKING:\n    from .c import Graph, Lonely\n\n"
        "def f(g: Graph) -> Any:\n    return os.path.join(regex.escape(VALUE))\n",
        encoding="utf-8",
    )
    assert _unused_imports(tmp_path) == [
        "a.py:5: sys",
        "a.py:8: unused",
        "a.py:11: Lonely",
    ]
