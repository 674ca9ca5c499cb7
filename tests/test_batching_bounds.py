"""Every batching bound of the package is varied by some test.

A batching bound is a module-level integer constant named ``*_BYTES``,
``*_ROWS`` or ``*_CHUNK``: it cuts work into blocks, and every output must
be the same under any value of it.  The check reads the package's and the
tests' syntax trees with the standard library's ``ast`` (and each bound's
value from its module): each bound must be the name patched by some
``setattr`` call of a test, as ``setattr(module, "NAME", ...)`` or
``setattr("postcal.module.NAME", ...)``.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BOUND = re.compile(r"[A-Z][A-Z0-9_]*_(BYTES|ROWS|CHUNK)")


def bounds() -> list[str]:
    """``module.NAME`` of each batching bound of the package."""
    found = []
    for path in sorted((ROOT / "src" / "postcal").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and BOUND.fullmatch(target.id):
                if isinstance(getattr(importlib.import_module(f"postcal.{path.stem}"), target.id), int):
                    found.append(f"{path.stem}.{target.id}")
    return found


def patched() -> set[str]:
    """Every string that a ``setattr`` call of a test names, each dotted
    path also by its last part."""
    names = set()
    for path in ROOT.glob("tests/**/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "setattr":
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names.update({arg.value, arg.value.rsplit(".", 1)[-1]})
    return names


def test_the_scan_finds_the_bounds():
    assert bounds() == [
        "frame.COLUMN_BLOCK_BYTES",
        "hb.FOLD_BLOCK_BYTES",
        "io.BLOCK_ROWS",
        "replicate.TOTALS_GROUP_BYTES",
        "simulate.REPLICATION_CHUNK",
    ]


@pytest.mark.parametrize("bound", bounds())
def test_every_batching_bound_is_patched_by_a_test(bound):
    assert bound.split(".")[1] in patched(), f"no test patches {bound}"
