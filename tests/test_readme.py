"""The README's *Library use* block runs as written against a fitted demo
and reproduces the rows ``infer`` writes for the same cells, floats to a
relative 1e-12, its fuzz paragraph counts the cases each arm runs, and its
unknown-key example is the parser's refusal."""

from __future__ import annotations

import ast
import json
import math
import re
from pathlib import Path

import pytest

from postcal.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "configs" / "demo" / "config.yaml"


def library_use_block() -> str:
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    out = ["--config", str(DEMO_CONFIG), "--out", str(tmp_path)]
    assert main(["fit", *out]) == 0
    assert main(["infer", *out, "--draws", str(tmp_path / "draws.csv")]) == 0
    code = library_use_block()
    assert "out/demo/draws.csv" in code
    monkeypatch.chdir(ROOT)  # the block reads the demo inputs by relative path
    namespace: dict = {}
    exec(code.replace("out/demo/draws.csv", str(tmp_path / "draws.csv")), namespace)

    rows = {row.name: row for row in namespace["report"].rows}
    assert {name: row.tier.value for name, row in rows.items()} == {
        "emp_trades": "2-NCA",
        "emp_hours_40+": "2-CA",
    }
    cli_rows = {c["name"]: c for c in json.loads((tmp_path / "report.json").read_text())["cells"]}
    for name, row in rows.items():
        assert row.tier.value == cli_rows[name]["tier"], name
        # the run's other cells split its atoms further, which reorders sums
        for field in ("point", "cri_lower", "cri_upper", "cbi_lower", "cbi_upper"):
            want = cli_rows[name][field]
            assert getattr(row, field) == pytest.approx(want, rel=1e-12, abs=0.0), (name, field)
    assert capsys.readouterr().out.count("\n") == 2


def test_package_root_binds_the_version_and_the_names_the_block_imports_from_it():
    # every other name is imported from the module that defines it
    tree = ast.parse((ROOT / "src" / "postcal" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets}
    readme = re.search(r"^from postcal import (.+)$", library_use_block(), re.M).group(1)
    assert bound == {"__version__", *readme.split(", ")}


def test_fuzz_paragraph_counts_the_cases_each_arm_collects():
    import test_mutation_fuzz

    # each arm is one test function, in definition order, with one parametrize mark
    arms = [test for name, test in vars(test_mutation_fuzz).items() if name.startswith("test_")]
    collected = [math.prod(len(mark.args[1]) for mark in arm.pytestmark if mark.name == "parametrize") for arm in arms]
    readme = (ROOT / "README.md").read_text().split("\n\n")
    paragraph = next(p for p in readme if p.startswith("`tests/test_mutation_fuzz.py`"))
    counts = [int(n) for n in re.findall(r"\b(\d+)\s+(?:seeded\s+|more\s+)?cases\b", paragraph)]
    assert counts == [sum(collected), *collected]


def test_unknown_key_example_is_what_the_parser_prints():
    import yaml

    from postcal.config import parse_config
    from postcal.errors import ConfigError

    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"`(cells\[0\]\.wher: unknown key; expected one of \[[^`]*\])`", text).group(1)
    raw = yaml.safe_load(DEMO_CONFIG.read_text())
    raw["cells"][0]["wher"] = raw["cells"][0].pop("where")
    with pytest.raises(ConfigError) as refused:
        parse_config(raw, base_dir=DEMO_CONFIG.parent)
    assert str(refused.value) == quoted
