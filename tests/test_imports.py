"""Every name a module of the package imports is used there or exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
