"""Every name a package module imports is used by that module, and each
module imports only the package modules of its layer.

The checks read each module's syntax tree with the standard library's
``ast``: a name bound by ``import`` or ``from ... import`` must occur as a
name somewhere else in the module, and the relative imports, at any depth
of the module, must be the ones ``LAYERS`` declares.  ``__init__.py``
re-exports by design and is skipped by the first check.
"""

from __future__ import annotations

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "postcal"

MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# module -> the package modules it imports, "__init__" for the package root;
# the samplers (hb) read no sample and the calibration solve no cell
LAYERS = {
    "errors": set(),
    "frame": {"errors"},
    "calibration": {"errors", "frame"},
    "hb": {"calibration", "errors"},
    "io": {"errors", "frame", "hb"},
    "config": {"errors", "frame", "hb", "io"},
    "fitting": {"config", "errors", "frame", "hb"},
    "replicate": {"calibration", "errors", "frame", "hb"},
    "variance": {"calibration", "errors", "frame", "hb"},
    "report": {"calibration", "frame", "hb", "io", "replicate", "variance"},
    "simulate": {"config", "errors", "fitting", "frame", "hb", "io", "replicate", "report"},
    "__init__": {"frame", "report"},
    "cli": {"__init__", "config", "errors", "fitting", "hb", "io", "report", "simulate"},
}


def unused_imports(path: Path) -> set[str]:
    """The names ``path`` imports but never reads."""
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def package_imports(path: Path) -> dict[str, set[str]]:
    """The package modules ``path`` imports, each with the names taken from
    it; ``from . import name`` takes a module, or a name of the package root."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        for alias in node.names:
            if node.module:
                found.setdefault(node.module.split(".")[0], set()).add(alias.name)
            elif (PACKAGE / f"{alias.name}.py").exists():
                found.setdefault(alias.name, set())
            else:
                found.setdefault("__init__", set()).add(alias.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_module_imports_its_layers(path):
    assert set(package_imports(path)) == LAYERS[path.stem]


def test_the_layers_cover_the_package_and_have_no_cycle():
    assert set(LAYERS) == {p.stem for p in PACKAGE.glob("*.py")}
    assert list(TopologicalSorter(LAYERS).static_order())  # raises CycleError on a cycle


def test_the_samplers_read_no_sample_and_the_solve_no_cell():
    assert "frame" not in package_imports(PACKAGE / "hb.py")
    taken = set().union(*package_imports(PACKAGE / "calibration.py").values())
    assert {name for name in taken if name.startswith("Cell")} == set()
