import csv
import dataclasses
import datetime
import filecmp
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from postcal.cli import build_parser, main
from postcal.config import (
    AttributeModel,
    BinaryVariableModel,
    ContinuousVariableModel,
    OutcomeModel,
    SimulateConfig,
    SyntheticPopulationSpec,
    load_config,
    parse_config,
)
from postcal.errors import ConfigError, DataError
from postcal.fitting import fit_all_variables
from postcal.frame import CalibrationSpec, SampleSet, StratumSpec
from postcal.hb import HBPrior, McmcConfig, chain_rng
from postcal.io import read_draws, read_sample
from postcal import simulate
from postcal.report import CellReportRow
from postcal.simulate import draw_stratified_sample, generate_population, run_chunk

from test_golden import DEMO_CONFIG, run_demo, run_simulate
from test_simulate import run_config, small_spec

SMOKE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_smoke.yaml"


def write_sample_files(tmp_path, seed=77, fraction=0.12, drop_employed_in_d2=False):
    frame = generate_population(small_spec(seed=seed))
    sample = draw_stratified_sample(frame, fraction, chain_rng(seed, 0))
    records_path = tmp_path / "records.csv"
    with open(records_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["stratum", "domain", "weight", "employed", "hours", "occ", "income"]
        )
        for i in range(sample.n):
            employed, hours = (float(v) for v in sample.calib[i])
            domain = sample.domain_ids[sample.domain_idx[i]]
            if drop_employed_in_d2 and domain == "d2":
                employed = 0.0
            writer.writerow(
                [
                    sample.stratum_ids[sample.stratum_idx[i]],
                    domain,
                    repr(float(sample.weights[i])),
                    repr(employed),
                    repr(hours),
                    sample.attributes["occ"][i],
                    repr(float(sample.outcomes["income"][i])),
                ]
            )
    strata_path = tmp_path / "strata.csv"
    with open(strata_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "population_size", "deff", "z"])
        for s, plan in zip(frame.strata, frame.spec.strata):
            writer.writerow(
                [s.id, s.population_size, repr(float(s.deff)), repr(float(plan.covariate))]
            )
    return records_path, strata_path


def base_config(chains=2, rhat_threshold=1.5):
    return {
        "seed": 4242,
        "sample": {
            "records": "records.csv",
            "strata": "strata.csv",
            "columns": {
                "stratum": "stratum",
                "domain": "domain",
                "weight": "weight",
                "calibration": ["employed", "hours"],
                "attributes": ["occ"],
                "outcomes": ["income"],
            },
            "derived": [
                {
                    "name": "hours_band",
                    "source": "hours",
                    "else_label": "none",
                    "bands": [
                        {"label": "1-29", "min": 1, "max": 29},
                        {"label": "30+", "min": 30},
                    ],
                }
            ],
        },
        "models": {
            "employed": {"kind": "binary", "covariates": ["z"]},
            "hours": {"kind": "gaussian", "covariates": ["z"]},
        },
        "mcmc": {
            "burnin": 60,
            "iterations": 120,
            "chains": chains,
            "rhat_threshold": rhat_threshold,
        },
        "cells": [
            {"name": "hours_d1", "sum": "hours", "where": {"domain": "d1"}},
            {"name": "emp_band_30", "sum": "employed", "where": {"hours_band": "30+"}},
            {"name": "emp_occ_a", "sum": "employed", "where": {"occ": "a"}},
            {"name": "inc_occ_b", "sum": "income", "where": {"occ": "b"}},
            {"name": "empty", "sum": "employed", "where": {"occ": "nobody"}},
        ],
    }


def write_config(tmp_path, cfg):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def same_tree(a, b, names):
    for name in names:
        assert (a / name).exists(), f"{name} missing in {a}"
        assert filecmp.cmp(a / name, b / name, shallow=False), f"{name} differs"


@pytest.mark.parametrize("command", ["calibrate", "infer", "diagnose"])
def test_verbose_writes_only_to_stderr_and_changes_no_output(tmp_path, capsys, command):
    write_sample_files(tmp_path)
    cfg = write_config(tmp_path, base_config())
    draws = tmp_path / "draws.csv"
    draws.write_text("chain,v1_d1,v1_d2,v2_d1,v2_d2\n" + "".join(f"{c},30,40,900,1100\n" for c in (0, 0, 1, 1)))
    streams = {}
    for flags in ([], ["--verbose"]):
        capsys.readouterr()
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"out{len(flags)}"), "--draws", str(draws)]
        assert main(argv + flags) == 0
        streams[bool(flags)] = capsys.readouterr()
    assert streams[False].out == streams[True].out == ""
    assert f"4 draws from {draws}\n" in streams[True].err
    assert "draws from" not in streams[False].err
    names = sorted(p.name for p in (tmp_path / "out0").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "out1").iterdir())
    same_tree(tmp_path / "out0", tmp_path / "out1", names)


class TestFit:
    def test_outputs_and_determinism(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        for out in ("out1", "out2"):
            code = main(
                ["fit", "--config", str(cfg), "--out", str(tmp_path / out)]
            )
            assert code == 0
        same_tree(
            tmp_path / "out1",
            tmp_path / "out2",
            ["draws.csv", "convergence.csv", "fit.json"],
        )
        lines = [
            line
            for line in (tmp_path / "out1" / "draws.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "chain,v1_d1,v1_d2,v2_d1,v2_d2"
        assert len(lines) - 1 == 2 * 120  # chains * iterations

    def test_single_chain_warns_but_succeeds(self, tmp_path, capsys):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config(chains=1))
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert payload["rhat_available"] is False
        assert any("unavailable" in w for w in payload["warnings"])
        warning = (
            "warning: convergence diagnostic unavailable: a single chain cannot "
            "support a between-chain diagnostic"
        )
        assert warning in capsys.readouterr().err
        draws = str(tmp_path / "out" / "draws.csv")
        for command in ("infer", "diagnose"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(cfg), "--out", out, "--draws", draws]) == 0
            assert warning in capsys.readouterr().err

    def test_convergence_exit_code(self, tmp_path):
        write_sample_files(tmp_path)
        # R-hat is floored at 1, so the lowest valid threshold fails any
        # fit whose chains are not exact copies
        cfg = write_config(tmp_path, base_config(rhat_threshold=1.0))
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 4
        assert (tmp_path / "out" / "draws.csv").exists()

    def test_fit_json_reports_acceptance(self, tmp_path):
        write_sample_files(tmp_path)
        path = write_config(tmp_path, base_config())
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        written = json.loads((tmp_path / "out" / "fit.json").read_text())["acceptance"]
        cfg = load_config(path)
        ingested = read_sample(
            cfg.records_path,
            cfg.strata_path,
            cfg.roles,
            domain_order=cfg.domain_order,
            band_rules=cfg.band_rules,
        )
        _, acceptance, _ = fit_all_variables(
            ingested.sample, ingested.spec, cfg.models, ingested.strata_covariates, cfg.mcmc
        )
        assert written == acceptance
        assert written["hours"] == {}  # the Gibbs model has no proposals
        assert sorted(written["employed"]) == ["beta", "effects"]
        assert all(0.0 <= rate <= 1.0 for rate in written["employed"].values())


class TestInfer:
    def test_file_draws_equal_in_run_fit(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
        assert (
            main(
                [
                    "infer",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path / "from_file"),
                    "--draws",
                    str(tmp_path / "fit" / "draws.csv"),
                ]
            )
            == 0
        )
        assert (
            main(["infer", "--config", str(cfg), "--out", str(tmp_path / "in_run")])
            == 0
        )
        same_tree(
            tmp_path / "from_file",
            tmp_path / "in_run",
            ["report.json", "report_estimates.csv", "report_diagnostics.csv"],
        )

    def test_tier_appropriate_rows(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rows = {row["name"]: row for row in report["cells"]}
        assert rows["hours_d1"]["tier"] == "1-E"
        assert rows["hours_d1"]["cri_kind"] == "posterior"
        assert rows["hours_d1"]["cbi_lower"] is None
        assert rows["emp_band_30"]["tier"] == "2-CA"
        assert rows["emp_band_30"]["cri_kind"] == "quasi-posterior"
        assert rows["emp_band_30"]["cbi_lower"] is not None
        assert rows["emp_occ_a"]["tier"] == "2-NCA"
        assert rows["inc_occ_b"]["tier"] == "3-NCV"
        assert rows["inc_occ_b"]["link_variable"] == "hours"
        assert rows["inc_occ_b"]["link_rho"] is not None
        meta = report["metadata"]
        assert meta["seed"] == 4242
        assert meta["gram_rank"] == 4
        assert "rhat_max" in meta and "config_hash" in meta

    def test_whole_domain_cells_of_the_demo_are_exact(self, tmp_path):
        # a calibration variable summed over all domains (no where:) or over
        # both listed is 1-E: its CrI is the quantiles of its summed draw
        # columns, and it has no CBI
        shutil.copytree(DEMO_CONFIG.parent, tmp_path, dirs_exist_ok=True)
        raw = yaml.safe_load(DEMO_CONFIG.read_text())
        raw["cells"] += [
            {"name": "hours_all", "sum": "hours"},
            {"name": "employed_both", "sum": "employed", "where": {"domain": ["east", "west"]}},
        ]
        config = ["--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]
        assert main(["fit", *config]) == 0
        assert main(["infer", *config, "--draws", str(tmp_path / "out" / "draws.csv")]) == 0
        rows = {row["name"]: row for row in json.loads((tmp_path / "out" / "report.json").read_text())["cells"]}
        spec = CalibrationSpec(tuple(raw["sample"]["columns"]["calibration"]), ("east", "west"))
        draws = read_draws(tmp_path / "out" / "draws.csv", spec).draws
        for name, v in (("hours_all", spec.variable_names.index("hours")),
                        ("employed_both", spec.variable_names.index("employed"))):
            row = rows[name]
            assert (row["tier"], row["cri_kind"], row["cbi_lower"], row["cbi_upper"]) == (
                "1-E", "posterior", None, None
            )
            summed = draws[:, 2 * v] + draws[:, 2 * v + 1]
            np.testing.assert_allclose(
                [row["cri_lower"], row["cri_upper"]], np.quantile(summed, [0.025, 0.975]), rtol=1e-9
            )

    def test_report_cells_are_the_row_fields(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = sorted(f.name for f in dataclasses.fields(CellReportRow))
        assert [sorted(row) for row in report["cells"]] == [names] * len(report["cells"])

    @pytest.mark.parametrize("level,z", [(0.80, 1.28), (0.90, 1.64), (0.95, 1.96)])
    def test_cbi_follows_the_report_level(self, tmp_path, level, z):
        write_sample_files(tmp_path)
        raw = base_config()
        raw["report"] = {"level": level}
        cfg = write_config(tmp_path, raw)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["cells"]
        rows = [r for r in rows if r["cbi_lower"] is not None]
        assert rows
        for r in rows:
            half = z * math.sqrt(r["component1"] + r["component2"])
            assert r["cbi_upper"] - r["point"] == pytest.approx(half, rel=1e-9)
            if r["point"]:
                width = r["cbi_upper"] - r["cbi_lower"]
                assert r["cv_cbi"] == pytest.approx(width / (2 * z) / abs(r["point"]), rel=1e-9)

    def test_empty_cell_row(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        row = next(r for r in report["cells"] if r["name"] == "empty")
        assert row["point"] == 0.0
        assert row["cri_lower"] == row["cri_upper"] == 0.0
        assert any("empty cell" in w for w in row["warnings"])

    def test_rank_deficiency_exit_code(self, tmp_path, capsys):
        write_sample_files(tmp_path, drop_employed_in_d2=True)
        cfg = write_config(tmp_path, base_config())
        code = main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "employed" in err and "d2" in err

    def test_missing_cells_rejected(self, tmp_path):
        write_sample_files(tmp_path)
        raw = base_config()
        raw["cells"] = []
        cfg = write_config(tmp_path, raw)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestCalibrateAndDiagnose:
    def test_calibrated_weights_hit_posterior_mean(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
        assert (
            main(
                [
                    "calibrate",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path / "cal"),
                    "--draws",
                    str(tmp_path / "fit" / "draws.csv"),
                ]
            )
            == 0
        )
        # reload everything and verify the calibration identity holds
        draws_lines = [
            line
            for line in (tmp_path / "fit" / "draws.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        draw_rows = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in draws_lines[1:]]
        )
        posterior_mean = draw_rows.mean(axis=0)
        weight_lines = [
            line
            for line in (tmp_path / "cal" / "weights.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        w_cal = np.array([float(line.split(",")[3]) for line in weight_lines[1:]])
        w_design = np.array([float(line.split(",")[1]) for line in weight_lines[1:]])
        g = np.array([float(line.split(",")[2]) for line in weight_lines[1:]])
        assert np.allclose(w_cal, w_design * g, rtol=1e-12)
        with open(tmp_path / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        achieved = np.zeros(4)
        domains = ["d1", "d2"]
        for row, w in zip(rows, w_cal):
            d = domains.index(row["domain"])
            achieved[d] += w * float(row["employed"])
            achieved[2 + d] += w * float(row["hours"])
        assert np.allclose(achieved, posterior_mean, rtol=1e-8)
        payload = json.loads((tmp_path / "cal" / "calibrate.json").read_text())
        assert payload["gram_rank"] == 4

    def test_diagnose_smoke(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "diagnostics.csv").exists()
        assert (tmp_path / "d" / "convergence.csv").exists()
        payload = json.loads((tmp_path / "d" / "diagnose.json").read_text())
        assert payload["gram_rank"] == 4
        assert payload["negative_weight_count"] >= 0


def simulate_config():
    return {
        "seed": 515,
        "sample": {
            "records": "records.csv",
            "strata": "strata.csv",
            "columns": {
                "stratum": "stratum",
                "domain": "domain",
                "weight": "weight",
                "calibration": ["employed", "hours"],
                "attributes": ["occ"],
                "outcomes": ["income"],
            },
            "derived": [
                {
                    "name": "hours_band",
                    "source": "hours",
                    "else_label": "none",
                    "bands": [{"label": "30+", "min": 30}],
                }
            ],
        },
        "models": {
            "employed": {"kind": "binary", "covariates": ["z"]},
            "hours": {"kind": "gaussian", "covariates": ["z"]},
        },
        "mcmc": {"burnin": 40, "iterations": 80, "chains": 2},
        "cells": [
            {"name": "hours_d1", "sum": "hours", "where": {"domain": "d1"}},
            {"name": "emp_occ_a", "sum": "employed", "where": {"occ": "a"}},
            {"name": "inc_occ_b", "sum": "income", "where": {"occ": "b"}},
        ],
        "simulate": {
            "population": {
                "domains": ["d1", "d2"],
                "strata": {"per_domain": 2, "population_size": 300},
                "variables": [
                    {"name": "employed", "kind": "binary", "intercept": 0.4, "slope": 0.5, "stratum_sd": 0.1},
                    {
                        "name": "hours",
                        "kind": "continuous",
                        "mean": 38,
                        "slope": 2,
                        "stratum_sd": 1,
                        "unit_sd": 10,
                        "clip": [1, 60],
                        "gated_by": "employed",
                    },
                ],
                "attributes": [
                    {"name": "occ", "levels": {"a": 0.5, "b": 0.3, "c": 0.2}}
                ],
                "outcomes": [
                    {"name": "income", "link": "hours", "rho": 0.6, "loc": 900, "scale": 400}
                ],
            },
            "mc": {"replications": 2, "sampling_fraction": 0.2},
        },
    }


class TestSimulateCommand:
    def test_smoke_and_determinism(self, tmp_path):
        # the sample section is unused by simulate but the files must exist
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, simulate_config())
        for out in ("s1", "s2"):
            code = main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path / out),
                    "--keep-replications",
                ]
            )
            assert code == 0
        names = [
            "coverage_by_cell.csv",
            "coverage_by_tier.csv",
            "cv_by_tier.csv",
            "coverage.json",
            "replications.csv",
        ]
        same_tree(tmp_path / "s1", tmp_path / "s2", names)
        payload = json.loads((tmp_path / "s1" / "coverage.json").read_text())
        assert payload["replications_used"] <= 2
        assert {c["name"] for c in payload["cells"]} == {
            "hours_d1",
            "emp_occ_a",
            "inc_occ_b",
        }
        tier_table = (tmp_path / "s1" / "coverage_by_tier.csv").read_text()
        assert "1-E" in tier_table and "3-NCV" in tier_table

    def test_seed_flag_equals_the_config_seed(self, tmp_path):
        # --seed reaches the population and every replication's samples and
        # fits as a config `seed:` does; only the hash of the document differs
        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["seed"] = 11
        config = tmp_path / "smoke.yaml"
        # the level order of an attribute is the order of its draw
        config.write_text(yaml.safe_dump(raw, sort_keys=False))
        runs = {
            "flag": ["--config", str(SMOKE_CONFIG), "--seed", "11"],
            "key": ["--config", str(config)],
        }
        for out, argv in runs.items():
            assert main(["simulate", *argv, "--out", str(tmp_path / out), "--keep-replications"]) == 0

        def without_hash(path):
            if path.suffix == ".json":
                payload = json.loads(path.read_text())
                payload["metadata"].pop("config_hash")
                return payload
            return [line for line in path.read_text().splitlines() if not line.startswith("# config_hash=")]

        names = sorted(p.name for p in (tmp_path / "flag").iterdir())
        assert len(names) == 5 and names == sorted(p.name for p in (tmp_path / "key").iterdir())
        for name in names:
            assert without_hash(tmp_path / "flag" / name) == without_hash(tmp_path / "key" / name), name

    @staticmethod
    def _smoke(out, threads):
        argv = ["simulate", "--config", str(SMOKE_CONFIG), "--keep-replications"]
        assert main([*argv, "--out", str(out), "--threads", threads]) == 0

    @staticmethod
    def _assert_same_files(a, b):
        names = sorted(p.name for p in a.iterdir())
        assert len(names) == 5
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_files_do_not_depend_on_threads_or_chunking(self, tmp_path, monkeypatch):
        # replication i reads only the streams (seed, i, ...), so the smoke run
        # writes the same bytes in one process as in chunks of two over two
        # worker processes
        self._smoke(tmp_path / "t1", "1")
        monkeypatch.setattr(simulate, "REPLICATION_CHUNK", 2)
        self._smoke(tmp_path / "t2", "2")
        self._assert_same_files(tmp_path / "t1", tmp_path / "t2")

    def test_files_do_not_depend_on_threads_in_the_natural_chunks(self, tmp_path):
        # the 5 replications run as one chunk in one process and as chunks of
        # 3 and 2 over two worker processes
        assert [len(c) for c in simulate.replication_chunks(5, 1)] == [5]
        assert [len(c) for c in simulate.replication_chunks(5, 2)] == [3, 2]
        self._smoke(tmp_path / "t1", "1")
        self._smoke(tmp_path / "t2", "2")
        self._assert_same_files(tmp_path / "t1", tmp_path / "t2")


class TestErrors:
    def test_missing_config_is_validation_error(self, tmp_path):
        assert (
            main(["fit", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
            == 2
        )

    def test_seed_override_changes_outputs(self, tmp_path):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        main(["fit", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["fit", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "b")])
        assert not filecmp.cmp(
            tmp_path / "a" / "draws.csv", tmp_path / "b" / "draws.csv", shallow=False
        )


def set_csv_field(path, column, value, row=0):
    """Overwrite ``column`` in data row ``row`` (0-based) of a simple CSV file."""
    header, *rows = path.read_text().splitlines()
    fields = rows[row].split(",")
    fields[header.split(",").index(column)] = value
    rows[row] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")


def repeat_record_id(tmp_path):
    """Give the records a declared id column whose third row repeats the first id."""
    path = tmp_path / "records.csv"
    header, *rows = path.read_text().splitlines()
    ids = [f"p{i + 1:04d}" for i in range(len(rows))]
    ids[2] = ids[0]
    lines = [f"person_id,{header}", *(f"{i},{row}" for i, row in zip(ids, rows))]
    path.write_text("\n".join(lines) + "\n")
    set_config("sample.columns.id", "person_id")(tmp_path)


def set_key(raw, dotted_key, value):
    """Set a value of the config ``raw`` by dotted path; numeric parts index
    lists."""
    *parents, key = [int(k) if k.isdigit() else k for k in dotted_key.split(".")]
    section = raw
    for name in parents:
        section = section[name] if isinstance(section, list) else section.setdefault(name, {})
    section[key] = value


def set_config(dotted_key, value):
    """``set_key`` on the config file."""

    def corrupt(tmp_path):
        raw = yaml.safe_load((tmp_path / "config.yaml").read_text())
        set_key(raw, dotted_key, value)
        write_config(tmp_path, raw)

    return corrupt


def drop_config(dotted_key):
    """Remove a config key by dotted path."""

    def corrupt(tmp_path):
        raw = yaml.safe_load((tmp_path / "config.yaml").read_text())
        *parents, key = dotted_key.split(".")
        section = raw
        for name in parents:
            section = section[name]
        del section[key]
        write_config(tmp_path, raw)

    return corrupt


def rename_model(tmp_path):
    """Rename ``models.hours`` to ``models.hourz``."""
    raw = yaml.safe_load((tmp_path / "config.yaml").read_text())
    raw["models"]["hourz"] = raw["models"].pop("hours")
    write_config(tmp_path, raw)


def drop_stratum(tmp_path, stratum="s2"):
    """Remove one stratum's row from the strata file; the records still name it."""
    path = tmp_path / "strata.csv"
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"{stratum},")]
    path.write_text("\n".join(lines) + "\n")


def header_only_records(tmp_path):
    """Leave the records file its header among '#' and blank lines."""
    path = tmp_path / "records.csv"
    header = path.read_text().splitlines()[0]
    path.write_text(f"# seed=0\n\n{header}\n\n# no rows follow\n")


def put_byte_not_utf8(name, row=1):
    """Put the byte 0xff (never valid UTF-8) into data row ``row`` (0-based)
    of a CSV file with its header on line 1."""

    def corrupt(tmp_path):
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[row + 1] = lines[row + 1].replace(b",", b"\xff,", 1)
        path.write_bytes(b"".join(lines))

    return corrupt


def draws_as_directory(tmp_path):
    (tmp_path / "draws.csv").unlink()
    (tmp_path / "draws.csv").mkdir()


def filter_on_undeclared_domain(tmp_path):
    """Declare the sample's domains and filter a cell on one outside them."""
    set_config("sample.domain_order", ["d1", "d2"])(tmp_path)
    set_config("cells.0.where.domain", "d9")(tmp_path)


def break_yaml(tmp_path):
    with open(tmp_path / "config.yaml", "a") as fh:
        fh.write("cells: [unclosed\n")


MALFORMED_INPUTS = [
    pytest.param(
        lambda t: set_csv_field(t / "strata.csv", "population_size", "nan"),
        "strata.csv:2",
        id="strata-population-nan",
    ),
    pytest.param(
        lambda t: set_csv_field(t / "strata.csv", "population_size", "1500.7"),
        "strata.csv:2: population_size '1500.7' is not an integer",
        id="strata-population-fraction",
    ),
    *(
        pytest.param(
            lambda t, column=column, value=value: set_csv_field(t / "strata.csv", column, value),
            f"strata.csv:2: stratum 's1': {rule}",
            id=f"strata-{column}-{value}",
        )
        for column, value, rule in [
            ("population_size", "0", "population_size: expected at least 1, got 0"),
            ("deff", "0", "deff: expected positive, got 0.0"),
            ("deff", "-1.5", "deff: expected positive, got -1.5"),
        ]
    ),
    pytest.param(
        lambda t: set_csv_field(t / "draws.csv", "chain", "nan"),
        "draws.csv:2",
        id="draws-chain-nan",
    ),
    pytest.param(
        lambda t: (t / "draws.csv").write_text("chain,v1_d1,v1_d2,v2_d1,v2_d2\n0,30,40,900,1100\n"),
        "draws.csv: 1 draw; infer needs at least 2",
        id="draws-one-draw",
    ),
    *(
        pytest.param(
            lambda t, tag=tag: set_csv_field(t / "draws.csv", "chain", tag, row=1),
            f"draws.csv:3: chain tag '{tag}' is not an integer",
            id=f"draws-chain-{tag}",
        )
        for tag in ("0.7", "1.5", "-0.25")
    ),
    pytest.param(
        lambda t: set_csv_field(t / "records.csv", "hours", "nan"),
        "records.csv:2",
        id="records-calibration-nan",
    ),
    pytest.param(
        lambda t: set_csv_field(t / "records.csv", "employed", "inf"),
        "records.csv:2",
        id="records-calibration-inf",
    ),
    pytest.param(
        lambda t: set_csv_field(t / "strata.csv", "id", "s1", row=2),
        "strata.csv:4: duplicate stratum id 's1'",
        id="strata-duplicate-id",
    ),
    pytest.param(
        repeat_record_id,
        "records.csv:4: duplicate record id 'p0001'",
        id="records-duplicate-id",
    ),
    pytest.param(header_only_records, "records.csv: no data rows", id="records-header-only"),
    pytest.param(
        lambda t: set_csv_field(t / "draws.csv", "v2_d2", "1100,0", row=2),
        "draws.csv:4: 6 fields, header has 5",
        id="draws-ragged-row",
    ),
    pytest.param(
        drop_stratum,
        "records.csv: records reference unknown strata: ['s2']",
        id="records-unknown-stratum",
    ),
    # a weight is named by its records line, a stratum's size by its strata line
    pytest.param(
        lambda t: set_csv_field(t / "records.csv", "weight", "-3", row=4),
        "records.csv:6: design weight '-3' is not > 0",
        id="records-negative-weight",
    ),
    pytest.param(
        lambda t: set_csv_field(t / "strata.csv", "population_size", "10"),
        "strata.csv:2: stratum 's1': 30 sampled records exceed the population size 10",
        id="records-exceed-population",
    ),
    pytest.param(
        lambda t: (t / "draws.csv").unlink(),
        "draws.csv: cannot read (No such file or directory)",
        id="draws-missing",
    ),
    pytest.param(draws_as_directory, "draws.csv: cannot read (Is a directory)", id="draws-directory"),
    *(
        pytest.param(
            put_byte_not_utf8(name), f"{name}:3: byte 0xff is not UTF-8", id=f"{name[:-4]}-not-utf8"
        )
        for name in ("records.csv", "strata.csv", "draws.csv")
    ),
    pytest.param(set_config("mcmc.burnin", "abc"), "mcmc.burnin", id="mcmc-burnin-abc"),
    # the sampler's own bounds, named by key path
    *(
        pytest.param(set_config(f"mcmc.{key}", value), f"mcmc.{key}: expected {bound}", id=f"mcmc-{key}-{value}")
        for key, value, bound in [
            ("burnin", -1, "at least 0, got -1"),
            ("iterations", 0, "at least 1, got 0"),
            ("chains", 0, "at least 1, got 0"),
            ("proposal_sd", 0, "positive, got 0"),
        ]
    ),
    # R-hat is floored at 1: below it every fit fails, NaN lets every fit pass
    *(
        pytest.param(
            set_config("mcmc.rhat_threshold", value),
            "mcmc.rhat_threshold",
            id=f"mcmc-rhat-threshold-{value}",
        )
        for value in (float("nan"), float("inf"), 0.99)
    ),
    pytest.param(set_config("report.level", "high"), "report.level", id="report-level-high"),
    pytest.param(set_config("seed", "x"), "seed", id="seed-x"),
    # an integer key neither truncates a fraction nor reads a boolean
    *(
        pytest.param(set_config(key, value), key, id=f"{key}-{value}")
        for key, value in [
            ("mcmc.chains", 2.9),
            ("mcmc.chains", True),
            ("mcmc.iterations", float("inf")),
            ("seed", 2.5),
        ]
    ),
    # a real-valued key does not read a boolean as 1.0 or 0.0
    *(
        pytest.param(set_config(key, value), cause, id=f"{key}-{value}")
        for key, value, cause in [
            ("mcmc.rhat_threshold", True, "mcmc.rhat_threshold: expected real, got True"),
            ("models.employed.prior_scale", True, "models.employed.prior_scale: expected positive, got True"),
            ("report.level", False, "report.level: expected real, got False"),
            ("mcmc.proposal_sd", True, "mcmc.proposal_sd: expected positive, got True"),
            ("cells.0.where.hours", {"min": True}, "cells[0].where.hours.min: expected real, got True"),
        ]
    ),
    # a summed variable, a band source or a declared cell domain that the
    # sample lacks is named by its key path when the config is parsed
    pytest.param(
        set_config("cells.2.sum", "x"),
        "cells[2].sum: variable 'x' is neither a calibration variable nor an outcome",
        id="cell-sum-unknown",
    ),
    pytest.param(
        set_config("sample.derived.0.source", 2.5),
        "sample.derived[0].source: '2.5' is not a numeric column",
        id="band-source-unknown",
    ),
    pytest.param(
        set_config("sample.derived.0.source", "occ"),
        "sample.derived[0].source: 'occ' is not a numeric column",
        id="band-source-attribute",
    ),
    # a cell's tier follows from its filter and the sample; no key sets it
    pytest.param(
        set_config("cells.0.tier", "2-CA"),
        "cells[0].tier: unknown key; expected one of ['name', 'sum', 'where', 'link']",
        id="cell-tier-key",
    ),
    pytest.param(
        filter_on_undeclared_domain,
        "cells[0].where.domain: unknown domains ['d9']; declared ['d1', 'd2']",
        id="cell-domain-undeclared",
    ),
    # one model entry per calibration variable, and none for anything else
    pytest.param(
        set_config("models.wages", {"kind": "gaussian"}),
        "models.wages: not a calibration variable; the calibration variables are "
        "['employed', 'hours']",
        id="model-not-calibration",
    ),
    pytest.param(
        set_config("models.income", {"kind": "gaussian"}),
        "models.income: not a calibration variable",
        id="model-for-outcome",
    ),
    pytest.param(rename_model, "models.hourz: not a calibration variable", id="model-renamed"),
    pytest.param(
        drop_config("models.hours"),
        "models: no model for calibration variables ['hours']",
        id="model-missing",
    ),
    # a pinned stratum-effect variance: >= 0 for the binary model (0 switches
    # the effects off), > 0 for the Gaussian one; NaN for neither
    *(
        pytest.param(
            set_config(f"models.{variable}.fixed_sigma2", value),
            f"models.{variable}.fixed_sigma2",
            id=f"{variable}-fixed_sigma2-{value}",
        )
        for variable, value in [
            ("employed", -1),
            ("employed", float("nan")),
            ("hours", 0),
            ("hours", float("nan")),
        ]
    ),
    pytest.param(break_yaml, "config.yaml", id="yaml-syntax-error"),
    # the input paths must be strings, a cell filter's keys too
    *(
        pytest.param(set_config(f"sample.{key}", value), f"sample.{key}: expected string", id=f"{key}-{value}")
        for key, value in [("records", None), ("strata", None), ("records", 5), ("strata", ["a.csv"])]
    ),
    pytest.param(
        set_config("cells.0.where", {1: "x", "domain": "d1"}),
        "cells[0].where (cell 'hours_d1'): expected string, got 1",
        id="cell-filter-integer-key",
    ),
    # a column name or a cell's domain that is a mapping or list cannot be hashed
    *(
        pytest.param(set_config(key, value), f"{path}: expected a name, got", id=f"{key}-{type(value).__name__}")
        for key, path, value in [
            ("sample.columns.stratum", "sample.columns.stratum", {"a": 1}),
            ("sample.columns.id", "sample.columns.id", ["id"]),
            ("sample.columns.outcomes", "sample.columns.outcomes[0]", [{"a": 1}]),
            ("sample.columns.attributes", "sample.columns.attributes", {"a": 1}),
            ("cells.0.where.domain", "cells[0].where.domain", {"a": 1}),
            # null once made a band level named 'None', and a list its repr
            ("sample.derived.0.else_label", "sample.derived[0].else_label", None),
            ("sample.derived.0.else_label", "sample.derived[0].else_label", ["x"]),
        ]
    ),
    pytest.param(set_config("sample.records", "absent.csv"), "sample.records: input file not found", id="records-absent"),
    # a key that a fixed-key mapping does not declare is refused by its path
    *(
        pytest.param(set_config(key, value), f"{key}: unknown key; expected one of [{first!r},", id=id)
        for id, key, value, first in [
            ("integer-key-mcmc.1", "mcmc.1", 5, "rhat_threshold"),
            ("integer-key-1", "1", "x", "seed"),
            ("date-value", "notes", datetime.date(2020, 1, 1), "seed"),
        ]
    ),
    # the config hash writes the document as JSON with sorted keys: a free-form
    # mapping's key must be a string, and no leaf may be a YAML date
    pytest.param(
        set_config("models.1", {"kind": "binary"}), "models.1: expected string, got 1", id="integer-key-models.1"
    ),
    pytest.param(
        set_config("cells.2.where.occ", datetime.date(2020, 1, 1)),
        "cells[2].where.occ: expected a string, number, boolean or null, got datetime.date(2020, 1, 1)",
        id="date-value-in-where",
    ),
    *(
        pytest.param(set_config(key, value), f"{key}: expected a mapping", id=f"{key}-not-a-mapping")
        for key, value in [
            ("sample", 5),
            ("sample.columns", ["stratum"]),
            ("models", 5),
            ("models.hours", "gaussian"),
            ("mcmc", 5),
            ("report", 0.9),
            ("simulate", "yes"),
            ("simulate.population", 5),
            ("simulate.mc", [2]),
        ]
    ),
    # malformed list entries: the error names the key path, list entries as `cells[0]`
    *(
        pytest.param(
            set_config(key, value),
            re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", key) + ": expected",
            id=key,
        )
        for key, value in [
            ("cells", 5),
            ("cells.0.where", [1, 2]),
            ("cells.0.name", ["a"]),
            ("cells.0.where.hours.min", "abc"),
            ("sample.derived.0.bands.0.min", "abc"),
            ("sample.derived.0.bands", 5),
            ("sample.derived", 5),
            ("sample.domain_order", 5),
            ("sample.columns.calibration", 5),
        ]
    ),
]


POPULATION = "simulate.population"
SIMULATE_MALFORMED = [
    # the error names list entries as `variables[0]`
    pytest.param(set_config(key, value), re.sub(r"\.(\d+)\.", r"[\1].", key), id=key)
    for key, value in [
        ("simulate.mc.replications", "abc"),
        ("simulate.mc.sampling_fraction", "tenth"),
        (f"{POPULATION}.strata.per_domain", "two"),
        (f"{POPULATION}.strata.population_size", "big"),
        (f"{POPULATION}.strata.covariate_range", 3),
        (f"{POPULATION}.strata.deff", "high"),
        (f"{POPULATION}.variables.0.intercept", "high"),
        (f"{POPULATION}.variables.0.stratum_sd", [0.1]),
        (f"{POPULATION}.variables.1.unit_sd", "wide"),
        (f"{POPULATION}.variables.1.clip", ["low", 60]),
        (f"{POPULATION}.attributes.0.levels.a", "half"),
        (f"{POPULATION}.attributes.0.domain_tilt", "some"),
        (f"{POPULATION}.outcomes.0.rho", "strong"),
        (f"{POPULATION}.outcomes.0.scale", "x"),
    ]
] + [
    *(
        pytest.param(set_config(key, value), key, id=f"{key}-{value}")
        for key, value in [
            ("simulate.mc.replications", 2.5),
            ("simulate.mc.replications", True),
            (f"{POPULATION}.strata.covariate_range", [True, 1.0]),
            ("simulate.mc.sampling_fraction", 1.5),
            ("simulate.mc.sampling_fraction", 0),
        ]
    ),
    pytest.param(
        set_config(f"{POPULATION}.strata", [{"id": "s1", "domain": "d1", "population_size": "many"}]),
        f"{POPULATION}.strata[0].population_size",
        id="explicit-stratum-population_size",
    ),
    pytest.param(
        set_config(f"{POPULATION}.strata", 5),
        f"{POPULATION}.strata: expected a mapping",
        id="strata-not-a-section",
    ),
    pytest.param(
        set_config(f"{POPULATION}.variables", 5),
        f"{POPULATION}.variables: expected a list",
        id="variables-not-a-list",
    ),
    pytest.param(
        set_config(f"{POPULATION}.attributes.0.levels", ["a", "b"]),
        f"{POPULATION}.attributes[0].levels: expected a mapping",
        id="levels-not-a-mapping",
    ),
    # an empty population, and falsy values that must not fall back to the default
    *(
        pytest.param(set_config(key, value), re.sub(r"\.(\d+)\.", r"[\1].", key) + ": expected", id=name)
        for name, key, value in [
            ("per_domain-zero", f"{POPULATION}.strata.per_domain", 0),
            ("domains-empty", f"{POPULATION}.domains", []),
            ("strata-empty", f"{POPULATION}.strata", []),
            ("covariate_range-zero", f"{POPULATION}.strata.covariate_range", 0),
            ("clip-empty", f"{POPULATION}.variables.1.clip", []),
        ]
    ),
    # stratum sizes from which a stratified draw cannot take 2 units
    *(
        pytest.param(
            set_config(f"{POPULATION}.strata.population_size", size),
            f"{POPULATION}.strata.population_size: expected at least 2, got {size}",
            id=f"population_size-{size}",
        )
        for size in (-5, 1)
    ),
    pytest.param(
        set_config(f"{POPULATION}.strata", [{"id": "s1", "domain": "d1", "population_size": -5}]),
        f"{POPULATION}.strata[0].population_size: expected at least 2, got -5",
        id="listed-stratum-population_size--5",
    ),
]


# a value out of its key's range, or not finite, that once reached a
# sampler or the population generator; null, not an infinity, is an open end
OUT_OF_RANGE = [
    pytest.param(key, value, re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", key) + f": {why}", id=f"{key}-{value}")
    for key, value, why in [
        (f"{POPULATION}.attributes.0.domain_tilt", 5, "expected a real in [-1, 1], got 5"),
        (f"{POPULATION}.attributes.0.domain_tilt", -3, "expected a real in [-1, 1], got -3"),
        (f"{POPULATION}.attributes.0.levels.b", math.nan, "expected a real in [0, 1], got nan"),
        (f"{POPULATION}.variables.0.intercept", math.inf, "expected real, got inf"),
        (f"{POPULATION}.outcomes.0.scale", math.nan, "expected real, got nan"),
        (f"{POPULATION}.strata.covariate_range", [math.nan, 1], "expected real, got nan"),
        (f"{POPULATION}.strata.deff", -1, "expected positive, got -1"),
        (f"{POPULATION}.outcomes.0.rho", 7, "expected a real in [-1, 1], got 7"),
        (f"{POPULATION}.variables.1.clip", [60, 1], "min 60.0 exceeds max 1.0"),
        ("models.employed.prior_df", -1, "expected positive, got -1"),
        ("models.hours.prior_scale", 0, "expected positive, got 0"),
        ("models.employed.fixed_sigma2", math.inf, "expected real, got inf"),
        ("mcmc.proposal_sd", math.inf, "expected positive, got inf"),
        ("cells.0.where.hours.min", math.nan, "expected real, got nan"),
        ("cells.0.where.hours.min", -math.inf, "expected real, got -inf"),
        ("sample.derived.0.bands.0.max", math.inf, "expected real, got inf"),
    ]
] + [
    # level shares that do not sum to 1 are refused by the attribute's levels
    pytest.param(
        f"{POPULATION}.attributes.0.levels.b",
        0.2,
        f"{POPULATION}.attributes[0].levels: expected shares that sum to 1, got a sum of 0.9",
        id=f"{POPULATION}.attributes.0.levels.b-0.2",
    ),
    # an integer that no float holds
    pytest.param(
        "mcmc.proposal_sd", 10**400, f"mcmc.proposal_sd: expected positive, got {10**400}", id="mcmc.proposal_sd-1e400"
    ),
]


D12 = ("d1", "d2")


def _population(**change):
    """A one-stratum population spec, with ``change``."""
    fields = {
        "domains": ("d1",),
        "strata": (StratumSpec("s1", 10, domain="d1"),),
        "variables": (BinaryVariableModel("employed", 0.0),),
    }
    return SyntheticPopulationSpec(**{**fields, **change})


# each range and reference rule a spec type holds: the config values that
# break it, the key path the parse names, and a hand-built value that breaks
# it and the type's error class; both refusals read the same after the path
SPEC_RULES = [
    pytest.param(changes, path, hand_built, error, id=id_)
    for id_, changes, path, hand_built, error in [
        ("rho", {f"{POPULATION}.outcomes.0.rho": 7}, f"{POPULATION}.outcomes[0]",
         lambda: OutcomeModel("income", "hours", 7), ConfigError),
        ("level-share", {f"{POPULATION}.attributes.0.levels.b": math.nan}, f"{POPULATION}.attributes[0]",
         lambda: AttributeModel("occ", (("a", 0.5), ("b", math.nan), ("c", 0.2))), ConfigError),
        ("level-sum", {f"{POPULATION}.attributes.0.levels.b": 0.2}, f"{POPULATION}.attributes[0]",
         lambda: AttributeModel("occ", (("a", 0.5), ("b", 0.2), ("c", 0.2))), ConfigError),
        ("domain_tilt", {f"{POPULATION}.attributes.0.domain_tilt": 5}, f"{POPULATION}.attributes[0]",
         lambda: AttributeModel("occ", (("a", 1.0),), domain_tilt=5), ConfigError),
        ("domain_tilt-one",
         {f"{POPULATION}.attributes.0.levels": {"a": 1.0}, f"{POPULATION}.attributes.0.domain_tilt": -1},
         f"{POPULATION}.attributes[0]", lambda: AttributeModel("occ", (("a", 1.0),), domain_tilt=-1), ConfigError),
        ("stratum_sd", {f"{POPULATION}.variables.0.stratum_sd": -0.5}, f"{POPULATION}.variables[0]",
         lambda: BinaryVariableModel("employed", 0.4, stratum_sd=-0.5), ConfigError),
        ("unit_sd", {f"{POPULATION}.variables.1.unit_sd": -10}, f"{POPULATION}.variables[1]",
         lambda: ContinuousVariableModel("hours", 38.0, -10), ConfigError),
        ("link", {f"{POPULATION}.outcomes.0.link": "wages"}, POPULATION,
         lambda: _population(outcomes=(OutcomeModel("income", "wages", 0.5),)), ConfigError),
        ("stratum-domain", {f"{POPULATION}.strata": [{"id": "s1", "domain": "d9", "population_size": 10}]},
         POPULATION, lambda: _population(strata=(StratumSpec("s1", 10, domain="d9"),)), ConfigError),
        ("prior_df", {"models.employed.prior_df": -1}, "models.employed",
         lambda: HBPrior("binary", prior_df=-1), DataError),
        ("prior_scale", {"models.hours.prior_scale": 0}, "models.hours",
         lambda: HBPrior("gaussian", prior_scale=0), DataError),
        ("binary-fixed_sigma2", {"models.employed.fixed_sigma2": -1}, "models.employed",
         lambda: HBPrior("binary", fixed_sigma2=-1.0), DataError),
        ("gaussian-fixed_sigma2", {"models.hours.fixed_sigma2": 0}, "models.hours",
         lambda: HBPrior("gaussian", fixed_sigma2=0.0), DataError),
        ("kind", {"models.hours.kind": "poisson"}, "models.hours", lambda: HBPrior("poisson"), DataError),
        ("burnin", {"mcmc.burnin": -1}, "mcmc", lambda: McmcConfig(burnin=-1), DataError),
        ("iterations", {"mcmc.iterations": 0}, "mcmc", lambda: McmcConfig(iterations=0), DataError),
        ("chains", {"mcmc.chains": 0}, "mcmc", lambda: McmcConfig(chains=0), DataError),
        ("proposal_sd", {"mcmc.proposal_sd": 0}, "mcmc", lambda: McmcConfig(proposal_sd=0), DataError),
        ("seed", {"seed": -1}, "", lambda: McmcConfig(seed=-1), DataError),
        ("deff", {f"{POPULATION}.strata.deff": -1}, f"{POPULATION}.strata",
         lambda: StratumSpec("s1", 300, deff=-1, domain="d1"), DataError),
        ("population_size", {f"{POPULATION}.strata.population_size": 1}, f"{POPULATION}.strata",
         lambda: StratumSpec("s1", 1, domain="d1"), DataError),
        ("replications", {"simulate.mc.replications": 0}, "simulate.mc",
         lambda: SimulateConfig(small_spec(), replications=0), ConfigError),
        ("sampling_fraction", {"simulate.mc.sampling_fraction": 1.5}, "simulate.mc",
         lambda: SimulateConfig(small_spec(), sampling_fraction=1.5), ConfigError),
        ("domain-repeat", {f"{POPULATION}.domains": ["d1", "d1"]}, POPULATION,
         lambda: _population(domains=("d1", "d1")), ConfigError),
        ("stratum-repeat", {f"{POPULATION}.strata": [{"id": "s1", "domain": d, "population_size": 10} for d in D12]},
         POPULATION, lambda: _population(domains=D12, strata=tuple(StratumSpec("s1", 10, domain=d) for d in D12)),
         ConfigError),
        ("variable-repeat", {f"{POPULATION}.variables.1.name": "employed"}, POPULATION,
         lambda: _population(variables=(BinaryVariableModel("employed", 0.0),) * 2), ConfigError),
        ("attribute-repeat", {f"{POPULATION}.attributes": [{"name": "occ", "levels": {"a": 1.0}}] * 2}, POPULATION,
         lambda: _population(attributes=(AttributeModel("occ", (("a", 1.0),)),) * 2), ConfigError),
        ("outcome-repeat", {f"{POPULATION}.outcomes": [{"name": "income", "link": "employed", "rho": 0.5}] * 2},
         POPULATION, lambda: _population(outcomes=(OutcomeModel("income", "employed", 0.5),) * 2), ConfigError),
        ("attribute-takes-variable", {f"{POPULATION}.attributes.0.name": "employed"}, POPULATION,
         lambda: _population(attributes=(AttributeModel("employed", (("a", 1.0),)),)), ConfigError),
        ("outcome-takes-variable", {f"{POPULATION}.outcomes.0.name": "employed"}, POPULATION,
         lambda: _population(outcomes=(OutcomeModel("employed", "employed", 0.5),)), ConfigError),
        ("outcome-takes-attribute", {f"{POPULATION}.outcomes.0.name": "occ"}, POPULATION,
         lambda: _population(attributes=(AttributeModel("occ", (("a", 1.0),)),),
                             outcomes=(OutcomeModel("occ", "employed", 0.5),)), ConfigError),
    ]
]


def assert_exit_2_naming(capsys, argv, cause):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert cause in err
    assert "Traceback" not in err


class TestMalformedInput:
    @pytest.mark.parametrize("corrupt,cause", MALFORMED_INPUTS)
    def test_exit_2_names_the_cause(self, tmp_path, capsys, corrupt, cause):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        (tmp_path / "draws.csv").write_text(
            "chain,v1_d1,v1_d2,v2_d1,v2_d2\n"
            + "".join(f"{c},30,40,900,1100\n" for c in (0, 0, 1, 1))
        )
        corrupt(tmp_path)
        argv = ["infer", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv + ["--draws", str(tmp_path / "draws.csv")], cause)

    @pytest.mark.parametrize("covariates", [["z", "z2"], ["z2", "z"]], ids=["z-first", "z2-first"])
    @pytest.mark.parametrize("variable", ["employed", "hours"], ids=["binary", "gaussian"])
    def test_collinear_covariates_exit_2_naming_the_variable(self, tmp_path, capsys, variable, covariates):
        # under the flat beta prior either model's posterior is improper; the
        # pivot keeps z2 = 2 z, the larger, so z is named in either order
        write_sample_files(tmp_path)
        path = tmp_path / "strata.csv"
        header, *rows = path.read_text().splitlines()
        doubled = [f"{row},{2 * float(row.split(',')[3])!r}" for row in rows]
        path.write_text("\n".join([f"{header},z2", *doubled]) + "\n")
        cfg = write_config(tmp_path, base_config())
        set_config(f"models.{variable}.covariates", covariates)(tmp_path)
        argv = ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]
        cause = f"error: variable {variable!r}: covariate cross-product is singular; collinear columns ['z']"
        assert_exit_2_naming(capsys, argv, cause)

    def test_fit_refuses_an_unknown_cell_variable_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("fit sampled")

        monkeypatch.setattr("postcal.fitting.fit_binary_hb", no_sampling)
        monkeypatch.setattr("postcal.fitting.fit_gaussian_fh", no_sampling)
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        set_config("cells.2.sum", "x")(tmp_path)
        argv = ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv, "cells[2].sum: variable 'x'")
        assert not (tmp_path / "out" / "draws.csv").exists()

    def test_fit_refuses_a_stratum_in_two_domains_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("fit sampled")

        monkeypatch.setattr("postcal.fitting.fit_binary_hb", no_sampling)
        monkeypatch.setattr("postcal.fitting.fit_gaussian_fh", no_sampling)
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        records = tmp_path / "records.csv"
        rows = records.read_text().splitlines()[1:]
        first = next(i for i, line in enumerate(rows) if line.startswith("s1,d1,"))
        set_csv_field(records, "domain", "d2", row=first)
        argv = ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv, "stratum 's1' spans multiple domains ['d1', 'd2']")
        assert not (tmp_path / "out" / "draws.csv").exists()

    def test_unmatched_quote_in_a_demo_draw_file_names_its_line(self, tmp_path, capsys):
        # the quoted field runs on past the csv module's field size limit
        config = ["--config", str(DEMO_CONFIG), "--out", str(tmp_path)]
        assert main(["fit", *config]) == 0
        path = tmp_path / "draws.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith(b"chain,")) + 100
        lines[row] = lines[row].replace(b",", b',"', 1)
        path.write_bytes(b"".join(lines))
        cause = f"draws.csv:{row + 1}: field larger than field limit ({csv.field_size_limit()})"
        for command in ("infer", "calibrate", "diagnose"):
            assert_exit_2_naming(capsys, [command, *config, "--draws", str(path)], cause)

    def test_one_draw_file_is_too_few_for_diagnose_but_enough_for_calibrate(self, tmp_path, capsys):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        draws = tmp_path / "draws.csv"
        draws.write_text("chain,v1_d1,v1_d2,v2_d1,v2_d2\n0,30,40,900,1100\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), "--draws", str(draws)]
        assert_exit_2_naming(capsys, ["diagnose", *argv], f"{draws}: 1 draw; diagnose needs at least 2")
        assert main(["calibrate", *argv]) == 0
        assert (tmp_path / "out" / "weights.csv").exists()

    def test_integer_key_stops_fit_before_it_samples(self, tmp_path, capsys, monkeypatch):
        # the config hash is written only after the fit; the key is refused before it
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, base_config())
        set_config("mcmc.1", 5)(tmp_path)
        monkeypatch.setattr("postcal.cli.fit_all_variables", lambda *a, **k: pytest.fail("fit ran"))
        assert_exit_2_naming(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")], "mcmc.1")

    @pytest.mark.parametrize("command", ["fit", "calibrate", "infer", "diagnose", "simulate"])
    def test_one_retained_draw_is_refused_by_key_where_intervals_need_two(
        self, tmp_path, capsys, command
    ):
        write_sample_files(tmp_path)
        raw = simulate_config()
        raw["mcmc"] = {"burnin": 5, "iterations": 1, "chains": 1}
        cfg = write_config(tmp_path, raw)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command in ("fit", "calibrate"):
            assert main(argv) == 0
        else:
            cause = f"mcmc.chains x mcmc.iterations = 1 x 1 retains 1 draw; {command} needs at least 2"
            assert_exit_2_naming(capsys, argv, cause)

    @pytest.mark.parametrize("corrupt,cause", SIMULATE_MALFORMED)
    def test_simulate_exit_2_names_the_key(self, tmp_path, capsys, corrupt, cause):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, simulate_config())
        corrupt(tmp_path)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv, cause)

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize("key,value,cause", OUT_OF_RANGE)
    def test_out_of_range_value_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value, cause):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, simulate_config())
        set_config(key, value)(tmp_path)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv, cause)

    @pytest.mark.parametrize("changes,path,hand_built,error", SPEC_RULES)
    def test_spec_type_refuses_what_the_parse_refuses(self, changes, path, hand_built, error):
        raw = simulate_config()
        del raw["sample"]  # a simulation-only config needs no sample files
        for key, value in changes.items():
            set_key(raw, key, value)
        with pytest.raises(ConfigError) as parsed:
            parse_config(raw)
        with pytest.raises(error) as built:
            hand_built()
        assert str(parsed.value) == (f"{path}.{built.value}" if path else str(built.value))

    def test_simulated_covariate_is_checked_before_the_population(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "generate_population", None)  # reaching it would fail
        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["models"]["hours"]["covariates"] = [7]
        cfg = write_config(tmp_path, raw)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_exit_2_naming(capsys, argv, "models.hours.covariates: unknown stratum covariate '7'")

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_simulate_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        write_sample_files(tmp_path)
        cfg = write_config(tmp_path, simulate_config())
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: expected an integer of at least 1, got '{threads}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(SMOKE_CONFIG), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected an integer of at least 0, got '-1'" in err
        assert "Traceback" not in err

    def test_simulate_without_a_converged_replication_exits_4(self, tmp_path, capsys):
        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["simulate"]["mc"]["replications"] = 1
        raw["mcmc"] = {"burnin": 5, "iterations": 10, "chains": 7}
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: no converged replications to accumulate: ")
        assert "mcmc.rhat_threshold 1.2 in each of the 1 replications" in err

    def test_replication_refusal_names_its_variable_once_at_any_thread_count(self, tmp_path, capsys):
        # no one is employed, so every stratum's hours are 0: a constant variable
        raw = yaml.safe_load(SMOKE_CONFIG.read_text())
        raw["simulate"]["mc"]["replications"] = 2
        raw["simulate"]["population"]["variables"][0]["intercept"] = -7
        cfg = write_config(tmp_path, raw)
        errs = []
        for threads in ("1", "2"):
            argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / threads), "--threads", threads]
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: replication 0, variable 'hours': zero sampling variance is not usable")
        assert errs[0].count("variable 'hours'") == 1

    def test_threads_is_a_simulate_option_only(self, tmp_path, capsys):
        base = ["--config", "c.yaml", "--out", str(tmp_path)]
        options = {
            "--draws": ["--draws", "d.csv"],
            "--threads": ["--threads", "2"],
            "--keep-replications": ["--keep-replications"],
        }
        accepted = {
            "fit": (),
            "calibrate": ("--draws",),
            "infer": ("--draws",),
            "diagnose": ("--draws",),
            "simulate": ("--threads", "--keep-replications"),
        }
        for command, own in accepted.items():
            for option, argv in options.items():
                if option in own:
                    build_parser().parse_args([command, *base, *argv])
                    continue
                with pytest.raises(SystemExit) as exc:
                    main([command, *base, *argv])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["simulate", *base, "--threads", "2", "--keep-replications"]
        )
        assert (args.threads, args.keep_replications) == (2, True)
        assert build_parser().parse_args(["infer", *base, "--draws", "d.csv"]).draws == "d.csv"


def test_no_command_reads_the_attribute_label_view(tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("the attribute label view was built")

    monkeypatch.setattr(SampleSet, "attributes", property(forbidden))
    run_demo(tmp_path / "demo")
    run_simulate(tmp_path / "smoke")


def test_no_command_forms_the_dense_design_matrix(tmp_path, monkeypatch):
    def forbidden(self, spec):
        raise AssertionError("an n x p design matrix was formed")

    monkeypatch.setattr(SampleSet, "design_matrix", forbidden)
    write_sample_files(tmp_path)
    cfg = write_config(tmp_path, base_config())
    for command in ("calibrate", "infer"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    mc = run_config(41, 1, 0.15, {"burnin": 30, "iterations": 60, "chains": 2})
    assert run_chunk(generate_population(mc.simulate.population), mc, [0])[0].rows
