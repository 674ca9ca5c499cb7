"""Seeded inputs for the benchmark workloads.

``prepare`` writes every input a workload needs into a work directory and
returns the workload spec the worker processes execute: the CLI commands of
one op cycle and the facts the output checks compare against.  The program
under test sees only these files and configs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml

DEMO_CONFIG = "configs/demo/config.yaml"
SIMULATE_CONFIG = "configs/simulate_default.yaml"

# Replications per `postcal simulate` op: enough that one op does several
# seconds' worth of pipeline passes, few enough for several ops per run.
SIM_REPLICATIONS = 4

# infer-large: half of the 100,000-unit default population, external draws.
LARGE_FRACTION = 0.5
LARGE_DRAWS = 6000
LARGE_CHAINS = 3
LARGE_DRAW_CV = 0.02

WORKLOADS = ("demo-cli", "infer-large", "simulate-1w")


def expected_tier(cell: dict, calibration: tuple, derived: set) -> str:
    """Tier a configured cell must receive, from the rules in the README.

    A calibration variable over exactly one whole domain is 1-E; one under
    filters built only from calibration-derived attributes or intervals on
    calibration values is 2-CA; any other filter makes it 2-NCA; a
    non-calibration outcome is 3-NCV.
    """
    if cell["sum"] not in calibration:
        return "3-NCV"
    where = dict(cell.get("where") or {})
    domain = where.pop("domain", None)
    if isinstance(domain, list) and len(domain) == 1:
        domain = domain[0]
    if not where and isinstance(domain, str):
        return "1-E"
    if all(k in derived or k in calibration for k in where):
        return "2-CA"
    return "2-NCA"


def _cell_facts(cells, calibration, derived, domain_order):
    """Expected tiers, and the draw column each 1-E cell must reproduce."""
    tiers = {c["name"]: expected_tier(c, calibration, derived) for c in cells}
    columns = {}
    for c in cells:
        if tiers[c["name"]] == "1-E":
            domain = c["where"]["domain"]
            domain = domain[0] if isinstance(domain, list) else domain
            v = calibration.index(c["sum"])
            columns[c["name"]] = v * len(domain_order) + domain_order.index(domain)
    return tiers, columns


def _derived_from(rules, calibration) -> set:
    return {r["name"] for r in rules or () if r["source"] in calibration}


def _demo(root: Path, work: Path, seed: int) -> dict:
    config = root / DEMO_CONFIG
    raw = yaml.safe_load(config.read_text())
    sample = raw["sample"]
    calibration = tuple(sample["columns"]["calibration"])
    order = tuple(sample["domain_order"])
    tiers, columns = _cell_facts(
        raw["cells"], calibration, _derived_from(sample.get("derived"), calibration), order
    )
    common = ["--config", str(config), "--seed", str(seed), "--out", "{out}"]
    draws = ["--draws", "{out}/draws.csv"]
    return {
        "commands": [
            ["fit", *common],
            ["infer", *common, *draws],
            ["calibrate", *common, *draws],
            ["diagnose", *common, *draws],
        ],
        "draws": "{out}/draws.csv",
        "records": str(config.parent / sample["records"]),
        "record_id": sample["columns"]["id"],
        "domain_column": sample["columns"]["domain"],
        "calibration": list(calibration),
        "domain_order": list(order),
        "tiers": tiers,
        "exact_columns": columns,
    }


def _large_cells(domains, occupations, sexes, bands):
    cells = []

    def add(name, summed, **where):
        cells.append({"name": name, "sum": summed, "where": where})

    for v in ("employed", "unemployed", "hours"):
        for d in domains:
            add(f"{v}_{d}", v, domain=d)
    for v in ("employed", "hours"):
        for b in bands:
            add(f"{v}_band_{b}", v, hours_band=b)
    for d in domains:
        for b in bands:
            add(f"employed_{d}_band_{b}", "employed", domain=d, hours_band=b)
    for v in ("employed", "unemployed", "hours"):
        for o in occupations:
            add(f"{v}_occ_{o}", v, occupation=o)
    for d in domains:
        for o in occupations:
            add(f"employed_{d}_occ_{o}", "employed", domain=d, occupation=o)
    for v in ("income", "condition_score"):
        for o in occupations:
            add(f"{v}_occ_{o}", v, occupation=o)
    for s in sexes:
        add(f"income_sex_{s}", "income", sex=s)
    for d in domains:
        for o in occupations:
            add(f"income_{d}_occ_{o}", "income", domain=d, occupation=o)
    return cells


def _fmt(x: float) -> str:
    return "%.17g" % x


def _infer_large(root: Path, work: Path, seed: int) -> dict:
    """50,000 records drawn at fraction 0.5 from the default population.

    The population comes from the package's own generator; the draws are
    synthesised around the population domain totals instead of fitted, so
    generation is fast and independent of the MCMC code.
    """
    from postcal.config import load_config
    from postcal.simulate import build_simulation

    cfg = load_config(root / SIMULATE_CONFIG, seed_override=seed)
    frame, _, _ = build_simulation(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    chosen = []
    for pos in range(len(frame.strata)):
        members = np.nonzero(frame.stratum_idx == pos)[0]
        n_h = max(2, round(LARGE_FRACTION * members.size))
        chosen.append((pos, np.sort(rng.choice(members, size=n_h, replace=False))))

    calibration = tuple(frame.calibration.variable_names)
    domains = tuple(frame.spec.domains)
    attributes = sorted(a for a in frame.attributes if a != "hours_band")
    outcomes = sorted(frame.outcomes)
    with open(work / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "stratum", "domain", "weight", *calibration, *attributes, *outcomes]
        )
        k = 0
        for pos, members in chosen:
            weight = _fmt(frame.strata[pos].population_size / members.size)
            for i in members:
                k += 1
                writer.writerow(
                    [f"r{k:06d}", frame.strata[pos].id, domains[frame.domain_idx[i]], weight]
                    + [_fmt(x) for x in frame.calib[i]]
                    + [frame.attributes[a][i] for a in attributes]
                    + [_fmt(frame.outcomes[o][i]) for o in outcomes]
                )
    with open(work / "strata.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "population_size", "deff", "z"])
        for s, z in zip(frame.strata, frame.covariates["z"]):
            writer.writerow([s.id, s.population_size, _fmt(s.deff), _fmt(z)])

    totals = frame.calibration_truth_vector()
    noise = rng.standard_normal((LARGE_DRAWS, totals.size))
    draws = totals * (1.0 + LARGE_DRAW_CV * noise)
    with open(work / "draws.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        labels = [
            f"v{v + 1}_d{d + 1}" for v in range(len(calibration)) for d in range(len(domains))
        ]
        writer.writerow(["chain", *labels])
        per_chain = LARGE_DRAWS // LARGE_CHAINS
        for b, row in enumerate(draws):
            writer.writerow([str(b // per_chain)] + [_fmt(x) for x in row])

    raw = yaml.safe_load((root / SIMULATE_CONFIG).read_text())
    bands = raw["simulate"]["derived"]
    levels = {a["name"]: list(a["levels"]) for a in raw["simulate"]["population"]["attributes"]}
    cells = _large_cells(
        domains, levels["occupation"], levels["sex"], [b["label"] for b in bands[0]["bands"]]
    )
    config = {
        "seed": seed,
        "sample": {
            "records": "records.csv",
            "strata": "strata.csv",
            "columns": {
                "stratum": "stratum",
                "domain": "domain",
                "weight": "weight",
                "calibration": list(calibration),
                "attributes": attributes,
                "outcomes": outcomes,
                "id": "id",
            },
            "domain_order": list(domains),
            "derived": bands,
        },
        "report": {"level": 0.95},
        "cells": cells,
    }
    (work / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    tiers, columns = _cell_facts(cells, calibration, _derived_from(bands, calibration), domains)
    common = ["--config", str(work / "config.yaml"), "--out", "{out}"]
    draws_arg = ["--draws", str(work / "draws.csv")]
    return {
        "commands": [["infer", *common, *draws_arg], ["calibrate", *common, *draws_arg]],
        "draws": str(work / "draws.csv"),
        "records": str(work / "records.csv"),
        "record_id": "id",
        "domain_column": "domain",
        "calibration": list(calibration),
        "domain_order": list(domains),
        "tiers": tiers,
        "exact_columns": columns,
    }


def _simulate(root: Path, work: Path, seed: int) -> dict:
    raw = yaml.safe_load((root / SIMULATE_CONFIG).read_text())
    raw["seed"] = seed
    raw["simulate"]["mc"]["replications"] = SIM_REPLICATIONS
    config = work / "simulate.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    calibration = tuple(v["name"] for v in raw["simulate"]["population"]["variables"])
    derived = _derived_from(raw["simulate"].get("derived"), calibration)
    return {
        "commands": [
            ["simulate", "--config", str(config), "--out", "{out}", "--threads", "1"]
        ],
        "replications": SIM_REPLICATIONS,
        "tiers": {c["name"]: expected_tier(c, calibration, derived) for c in raw["cells"]},
    }


def prepare(name: str, root: Path, work: Path, seed: int) -> dict:
    """Write the inputs of workload ``name`` under ``work``; return its spec."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "demo-cli":
        spec = _demo(root, work, seed)
    elif name == "infer-large":
        spec = _infer_large(root, work, seed)
    elif name == "simulate-1w":
        spec = _simulate(root, work, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    spec["workload"] = name
    spec["seed"] = seed
    return spec
