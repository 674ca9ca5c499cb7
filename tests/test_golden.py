"""Golden-output fixture: the shipped demo and smoke runs must not move.

Runs demo ``fit`` and then ``infer``/``calibrate``/``diagnose`` from its draw
file, plus the smoke ``simulate --keep-replications``, and compares the
machine outputs with the files under ``tests/golden/``.  Strings and
integers must match exactly, floats to a relative 1e-9.

A change that is meant to move the outputs re-baselines them with
``PYTHONPATH=src python tests/test_golden.py``, which rewrites, and names,
only the goldens that the new outputs fail, and says why in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from postcal.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_CONFIG = ROOT / "configs" / "demo" / "config.yaml"
SMOKE_CONFIG = ROOT / "configs" / "simulate_smoke.yaml"
REL_TOL = 1e-9

DEMO_FILES = (
    "report.json",
    "report_estimates.csv",
    "report_diagnostics.csv",
    "weights.csv",
    "diagnostics.csv",
    "convergence.csv",
    "fit.json",
    "calibrate.json",
    "diagnose.json",
)
SIMULATE_FILES = (
    "coverage.json",
    "replications.csv",
    "coverage_by_cell.csv",
    "coverage_by_tier.csv",
    "cv_by_tier.csv",
)


def run_demo(out: Path) -> None:
    config = ["--config", str(DEMO_CONFIG), "--out", str(out)]
    draws = ["--draws", str(out / "draws.csv")]
    assert main(["fit", *config]) == 0
    for command in ("infer", "calibrate", "diagnose"):
        assert main([command, *config, *draws]) == 0


def run_simulate(out: Path) -> None:
    argv = ["simulate", "--config", str(SMOKE_CONFIG), "--out", str(out), "--keep-replications"]
    assert main(argv) == 0


def _same_scalar(got, want, where: str) -> None:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        ok = (math.isnan(want) and math.isnan(got)) or math.isclose(
            got, want, rel_tol=REL_TOL
        )
        assert ok, f"{where}: {got!r} != golden {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != golden {want!r}"


def _same_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    else:
        _same_scalar(got, want, where)


def _csv_value(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _csv_rows(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return [comments] + [[_csv_value(v) for v in row] for row in csv.reader(body)]


def assert_matches_golden(got: Path, want: Path) -> None:
    if want.suffix == ".json":
        _same_json(json.loads(got.read_text()), json.loads(want.read_text()), want.name)
        return
    got_rows, want_rows = _csv_rows(got), _csv_rows(want)
    assert got_rows[0] == want_rows[0], f"{want.name}: metadata lines differ"
    assert len(got_rows) == len(want_rows), f"{want.name}: row counts differ"
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:])):
        assert len(g) == len(w), f"{want.name} row {i}: widths differ"
        for j, (gv, wv) in enumerate(zip(g, w)):
            _same_scalar(gv, wv, f"{want.name} row {i} col {j}")


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "demo"
    run_demo(out)
    return out


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "simulate_smoke"
    run_simulate(out)
    return out


@pytest.mark.parametrize("name", DEMO_FILES)
def test_demo_matches_golden(demo_out, name):
    assert_matches_golden(demo_out / name, GOLDEN / "demo" / name)


@pytest.mark.parametrize("name", SIMULATE_FILES)
def test_simulate_smoke_matches_golden(simulate_out, name):
    assert_matches_golden(simulate_out / name, GOLDEN / "simulate_smoke" / name)


def test_comparison_catches_a_moved_float(demo_out, tmp_path):
    moved = json.loads((demo_out / "report.json").read_text())
    moved["cells"][0]["point"] *= 1 + 1e-7
    path = tmp_path / "report.json"
    path.write_text(json.dumps(moved))
    with pytest.raises(AssertionError, match="point"):
        assert_matches_golden(path, GOLDEN / "demo" / "report.json")


def test_regeneration_rewrites_only_a_moved_golden(demo_out, tmp_path, monkeypatch):
    golden = tmp_path / "demo"
    shutil.copytree(GOLDEN / "demo", golden)
    moved = json.loads((golden / "report.json").read_text())
    moved["cells"][0]["point"] *= 1 + 1e-7
    (golden / "report.json").write_text(json.dumps(moved))
    before = {name: (golden / name).read_bytes() for name in DEMO_FILES}

    def run_again(*args):
        raise AssertionError("regeneration re-ran a command")

    monkeypatch.setattr(sys.modules[__name__], "main", run_again)
    assert rewrite_moved(demo_out, golden, DEMO_FILES) == ["report.json"]
    before["report.json"] = (demo_out / "report.json").read_bytes()
    assert {name: (golden / name).read_bytes() for name in DEMO_FILES} == before


def rewrite_moved(out: Path, golden: Path, files) -> list[str]:
    """Copy each of ``files`` from ``out`` over its golden under ``golden``
    where the golden is missing or ``assert_matches_golden`` fails; return
    the names copied."""
    golden.mkdir(parents=True, exist_ok=True)
    moved = []
    for name in files:
        try:
            assert_matches_golden(out / name, golden / name)
        except (AssertionError, FileNotFoundError):
            shutil.copyfile(out / name, golden / name)
            moved.append(name)
    return moved


def regenerate(scratch: Path) -> None:
    """Rewrite the goldens that the current code's outputs fail, printing
    each one's path."""
    for name, run, files in (
        ("demo", run_demo, DEMO_FILES),
        ("simulate_smoke", run_simulate, SIMULATE_FILES),
    ):
        run(scratch / name)
        for f in rewrite_moved(scratch / name, GOLDEN / name, files):
            print(GOLDEN / name / f)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        regenerate(Path(scratch))
