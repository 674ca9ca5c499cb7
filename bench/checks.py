"""Output checks of the benchmark ops.

A worker process checks each op only cheaply: the exit code, that the
command's files were written, and that its deterministic file is
byte-identical to the one the first op of that command wrote (the
determinism check).  It keeps a copy of that first file.  ``run.py`` then
runs the content checks of ``OutputChecker`` on the kept copies after the
workers have ended, so no check's memory counts in a worker's peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

EXPECTED_FILES = {
    "fit": ("draws.csv", "convergence.csv", "fit.json"),
    "infer": ("report.json", "report_estimates.csv", "report_diagnostics.csv"),
    "calibrate": ("weights.csv", "calibrate.json"),
    "diagnose": ("diagnostics.csv", "convergence.csv", "diagnose.json"),
    "simulate": ("coverage_by_cell.csv", "coverage_by_tier.csv", "cv_by_tier.csv", "coverage.json"),
}

# The file of each command whose bytes must repeat exactly across ops of one
# run; its first copy is what the content checks read.
DETERMINISTIC = {
    "fit": "draws.csv",
    "infer": "report.json",
    "calibrate": "weights.csv",
    "diagnose": "diagnostics.csv",
    "simulate": "coverage.json",
}

REL_TOL = 1e-9


def clear_outputs(command: str, out: Path) -> None:
    """Remove the command's files, so that an op that does not write them fails."""
    for name in EXPECTED_FILES[command]:
        (out / name).unlink(missing_ok=True)


def inspect_op(command: str, out: Path, keep: Path, hashes: dict) -> str | None:
    """The cheap per-op check; a failure message, or None.

    ``hashes`` maps file names to the digest of their first copy; the first
    copy of each deterministic file is kept in ``keep``.
    """
    missing = [f for f in EXPECTED_FILES[command] if not (out / f).is_file()]
    if missing:
        return f"{command}: missing outputs {missing}"
    name = DETERMINISTIC[command]
    with open(out / name, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    first = hashes.setdefault(name, digest)
    if digest != first:
        return f"{command}: {name} differs from the first op of this process"
    if not (keep / name).is_file():
        shutil.copyfile(out / name, keep / name)
    return None


def _data_lines(path) -> list[str]:
    with open(path) as fh:
        return [line for line in fh if line.strip() and not line.startswith("#")]


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class OutputChecker:
    """Content checks of kept outputs against the facts in the workload spec.

    Each ``_check_<command>`` reads the command's deterministic file from the
    directory ``self.out`` set by ``check``.
    """

    def __init__(self, spec: dict):
        self.spec = spec
        self.out = None
        self._means: dict[str, np.ndarray] = {}
        self._records = None

    def check(self, command: str, kept: Path) -> list[str]:
        """Failure messages of the command's kept output in ``kept``."""
        self.out = kept
        return getattr(self, f"_check_{command}")()

    def excluded(self, kept: Path) -> int:
        """Non-converged replications of the kept ``simulate`` output."""
        payload = json.loads((kept / "coverage.json").read_text())
        return int(payload["excluded_nonconverged"])

    def _posterior_mean(self) -> np.ndarray:
        path = self.spec["draws"].format(out=self.out)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if digest not in self._means:
            lines = _data_lines(path)
            values = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
            self._means[digest] = values[:, 1:].mean(axis=0)
        return self._means[digest]

    def _check_tiers(self, command: str, tiers: dict) -> list[str]:
        expected = self.spec["tiers"]
        if tiers == expected:
            return []
        wrong = sorted(
            n for n in expected.keys() | tiers.keys() if tiers.get(n) != expected.get(n)
        )
        return [f"{command}: unexpected tiers for cells {wrong}"]

    def _check_fit(self) -> list[str]:
        lines = _data_lines(self.out / "draws.csv")
        values = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        p = len(self.spec["calibration"]) * len(self.spec["domain_order"])
        if values.shape[1] != p + 1:
            return [f"fit: draws.csv has {values.shape[1]} columns, expected {p + 1}"]
        if not np.isfinite(values).all():
            return ["fit: draws.csv has non-finite entries"]
        return []

    def _check_infer(self) -> list[str]:
        report = json.loads((self.out / "report.json").read_text())
        cells = report["cells"]
        failures = self._check_tiers("infer", {c["name"]: c["tier"] for c in cells})
        for c in cells:
            for kind in ("cri", "cbi"):
                lo, hi = c[f"{kind}_lower"], c[f"{kind}_upper"]
                if kind == "cbi" and lo is None and hi is None:
                    continue
                if lo is None or hi is None or not (math.isfinite(lo) and math.isfinite(hi)):
                    failures.append(f"infer: cell {c['name']} has a non-finite {kind}")
                elif lo > hi:
                    failures.append(f"infer: cell {c['name']} has {kind} lower > upper")
        mean = self._posterior_mean()
        points = {c["name"]: c["point"] for c in cells}
        for name, column in self.spec["exact_columns"].items():
            if name in points and _rel_err(points[name], mean[column]) > REL_TOL:
                failures.append(
                    f"infer: 1-E cell {name} point {points[name]!r} is not the "
                    f"posterior-mean total {mean[column]!r}"
                )
        return failures

    def _load_records(self):
        if self._records is None:
            spec = self.spec
            order = spec["domain_order"]
            ids, domains, values = [], [], []
            with open(spec["records"], newline="") as fh:
                for row in csv.DictReader(line for line in fh if not line.startswith("#")):
                    ids.append(row[spec["record_id"]])
                    domains.append(order.index(row[spec["domain_column"]]))
                    values.append([float(row[v]) for v in spec["calibration"]])
            self._records = (ids, np.array(domains), np.array(values))
        return self._records

    def _check_calibrate(self) -> list[str]:
        ids, domains, values = self._load_records()
        lines = _data_lines(self.out / "weights.csv")
        rows = list(csv.reader(lines[1:]))
        if [r[0] for r in rows] != ids:
            return ["calibrate: weights.csv record ids do not match the records file"]
        weights = np.array([float(r[3]) for r in rows])
        D = len(self.spec["domain_order"])
        totals = np.zeros(values.shape[1] * D)
        for v in range(values.shape[1]):
            totals[v * D : (v + 1) * D] = np.bincount(
                domains, weights=weights * values[:, v], minlength=D
            )
        mean = self._posterior_mean()
        bad = [k for k in range(mean.size) if _rel_err(totals[k], mean[k]) > REL_TOL]
        if bad:
            return [f"calibrate: weighted totals miss the posterior mean at blocks {bad}"]
        return []

    def _check_diagnose(self) -> list[str]:
        rows = list(csv.DictReader(_data_lines(self.out / "diagnostics.csv")))
        return self._check_tiers("diagnose", {r["cell"]: r["tier"] for r in rows})

    def _check_simulate(self) -> list[str]:
        payload = json.loads((self.out / "coverage.json").read_text())
        requested = self.spec["replications"]
        failures = self._check_tiers(
            "simulate", {c["name"]: c["tier"] for c in payload["cells"]}
        )
        if payload["replications_requested"] != requested:
            failures.append(
                f"simulate: {payload['replications_requested']} replications "
                f"requested, expected {requested}"
            )
        used, excluded = payload["replications_used"], payload["excluded_nonconverged"]
        if used + excluded != requested:
            failures.append(
                f"simulate: used {used} + excluded {excluded} != requested {requested}"
            )
        for c in payload["cells"]:
            for key in ("cri_coverage", "cbi_coverage"):
                value = c[key]
                if value is not None and not 0.0 <= value <= 1.0:
                    failures.append(f"simulate: cell {c['name']} {key} {value} outside [0, 1]")
        return failures
