"""No package module re-wraps the text of an error.

A package error takes its context as parts (``PostcalError.within``), so no
``except`` block formats the package error it caught into a new message
(``f"...{exc}"``, ``str(exc)``), and nothing rewrites an error's ``args``.
The check reads each module's syntax tree with the standard library's
``ast``.  The errors of other libraries, whose text is all they hold, and
the CLI's print of the one message are allowed by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "postcal"

# the errors of other libraries whose text a message may quote
FOREIGN = {"csv.Error", "yaml.YAMLError", "OSError"}
# (module, function) whose except blocks print the error they catch
PRINTS = {("cli", "main")}

MODULES = sorted(PACKAGE.glob("*.py"))


def _quoted(node: ast.AST) -> ast.AST | None:
    """What ``node`` puts into a string: an f-string field, or the argument
    of ``str``/``repr``."""
    if isinstance(node, ast.FormattedValue):
        return node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("str", "repr"):
        return node.args[0] if node.args else None
    return None


def rewraps(source: str, module: str) -> list[str]:
    """Each place in ``source`` that re-wraps an error's text, as
    "function:line"."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "args" for target in targets for t in ast.walk(target)):
                found.append(f"{function}:{node.lineno}")
        if (
            isinstance(node, ast.ExceptHandler)
            and node.name
            and (module, function) not in PRINTS
            and not (node.type and ast.unparse(node.type) in FOREIGN)
        ):
            for inner in ast.walk(node):
                quoted = _quoted(inner)
                if isinstance(quoted, ast.Name) and quoted.id == node.name:
                    found.append(f"{function}:{inner.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_rewraps_an_error(path):
    assert rewraps(path.read_text(), path.stem) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f():\n try: g()\n except DataError as exc:\n  raise DataError(f'x: {exc}')", ["f:4"]),
        ("def f():\n try: g()\n except DataError as exc:\n  raise DataError(str(exc))", ["f:4"]),
        ("def f(e):\n e.args = ('x',)", ["f:2"]),
        ("def f():\n try: g()\n except DataError as exc:\n  raise exc.within('x: ')", []),
        ("def f():\n try: g()\n except csv.Error as exc:\n  raise DataError(f'x: {exc}')", []),
        ("def main():\n try: g()\n except DataError as exc:\n  print(f'error: {exc}')", []),
    ],
)
def test_check_finds_each_rewrap(source, found):
    assert rewraps(source, "cli") == found
