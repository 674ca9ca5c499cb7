"""The README's *Library use* block runs as written against a fitted demo
and reproduces the rows ``infer`` writes for the same cells, floats to a
relative 1e-12."""

from __future__ import annotations

import json
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
