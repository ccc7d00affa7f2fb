"""Every name a module of the package imports is used there or exported,
and every private module-level definition is read somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (at any depth) that the module neither
    reads nor lists in __all__."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_imports_are_caught():
    source = (
        "from dataclasses import dataclass, field\n"
        "from asg.core import JsonRecord, to_plain\n"
        "import os.path\n"
        "__all__ = ['Record']\n"
        "def helper():\n"
        "    import json\n"
        "    return json.dumps(1)\n"
        "@dataclass\n"
        "class Record(JsonRecord):\n"
        "    x: int\n"
    )
    assert unused_imports(source) == ["field (line 1)", "os (line 3)", "to_plain (line 2)"]


def private_definitions(source: str) -> set[str]:
    """Module-level _names a module defines: functions, classes and
    constants assigned to a plain name."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level definitions that no module of `sources` reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}: {name}" for module, source in sources.items() for name in private_definitions(source) - read
    )


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_definitions(sources) == []


def test_unread_private_definitions_are_caught():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "_ATTR = 5\n"
            "__all__ = ['public']\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Gone:\n"
            "    _field = 1\n"
            "def public():\n"
            "    _local = 2\n"
            "    return _local\n"
        ),
        "b.py": "import a\nfrom a import _helper\nx = a._ATTR\n",
    }
    assert unread_private_definitions(sources) == ["a.py: _Gone", "a.py: _UNUSED"]
