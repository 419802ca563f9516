"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import collections
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


def _named(node):
    """Every name a subtree reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_defs(sources, exported=()):
    """Module-level functions that no code outside their own body names.

    sources maps a module name to its source; names in exported count as
    referenced.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    counts = collections.Counter(
        name for tree in trees.values() for name in _named(tree))
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in exported:
                own = sum(name == node.name for name in _named(node))
                if counts[node.name] == own:
                    dead.append(f"{mod}.{node.name}")
    return sorted(dead)


def test_unreferenced_def_finder():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
                    "def h():\n    pass\n",
               "b": "import a\na.g()\n"}
    assert unreferenced_defs(sources) == ["a.f", "a.h"]
    assert unreferenced_defs(sources, exported=("h",)) == ["a.f"]


def test_every_def_is_referenced_or_exported():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and node.targets[0].id == "__all__")
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    dead = unreferenced_defs(sources, exported)
    assert not dead, "unreferenced functions: " + ", ".join(dead)


# the parameter domains of chains.py; they own their geometry (half-spaces,
# bounds, intervals, polygons), so no other module branches on their type
DOMAIN_CLASSES = ("Box", "SimplexDomain", "ClippedBox", "PolygonDomain",
                  "PointDomain")


def domain_type_checks(source):
    """(line, class) of every isinstance test against a domain class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            spec = node.args[1]
            classes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            found += [(node.lineno, name) for cls in classes
                      for name in _named(cls) if name in DOMAIN_CLASSES]
    return found


def test_domain_classes_exist():
    chains = ast.parse((SRC / "chains.py").read_text())
    defined = {node.name for node in chains.body if isinstance(node, ast.ClassDef)}
    assert set(DOMAIN_CLASSES) <= defined


def test_domain_type_check_finder():
    source = ("isinstance(d, Box)\nisinstance(d, (chains.ClippedBox, int))\n"
              "isinstance(d, AffineMap)\n")
    assert domain_type_checks(source) == [(1, "Box"), (2, "ClippedBox")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "chains.py"],
                         ids=lambda p: p.name)
def test_no_domain_type_checks_outside_chains(path):
    found = domain_type_checks(path.read_text())
    assert not found, f"{path.name}: isinstance on domain classes " + ", ".join(
        f"{name} (line {line})" for line, name in found)


def imported_modules(source):
    """Top-level package of every import statement, at any nesting level."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_module_finder():
    source = "import numpy as np\ndef f():\n    from scipy.spatial import cKDTree\n"
    assert imported_modules(source) == {"numpy", "scipy"}


# importing scipy.spatial after numpy costs about 0.35 s and 38 MiB of
# resident memory (x86_64, Python 3.11, scipy 1.17), a third of a small
# run's peak; the package needs numpy only
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())
