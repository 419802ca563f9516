"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "holocycle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # "from __future__ import annotations" is a compiler directive, not a name
    imported.pop("annotations", None)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_finder_flags_only_dead_names():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    dead = unused_imports(path.read_text())
    assert not dead, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in dead)
