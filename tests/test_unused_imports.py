"""Every name a package module imports is used by that module.

The check reads each module's syntax tree with the standard library's
``ast``: a name bound by ``import`` or ``from ... import`` must occur as a
name somewhere else in the module.  ``__init__.py`` re-exports by design
and is skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "postcal"

# (module, name) imported only so that a hook of bench/tracing.py, named by
# its layer, resolves: the tracer wraps the name in that module's namespace.
HOOKED = {
    ("fitting", "draws_to_domain_totals"): "hb.draws_to_domain_totals",
    ("replicate", "cell_weighted_moment"): "calibration.cell_weighted_moment",
}

MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    allowed = {name for module, name in HOOKED if module == path.stem}
    assert unused_imports(path) - allowed == set()


@pytest.mark.parametrize("module,name", sorted(HOOKED))
def test_each_allowed_name_is_still_an_unused_import(module, name):
    # an allowance outlives its hook otherwise
    assert name in unused_imports(PACKAGE / f"{module}.py")
