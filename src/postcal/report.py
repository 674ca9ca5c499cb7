"""The cell layer, one pass over all of a run's cells, and report assembly.

One artifact bundle (Gram factorization, HT totals, posterior-mean weights)
is computed per run and shared read-only across cells.  ``build_run_report``
then infers every cell in three stages.  Reductions over records run once
per atom (``frame.CellAtoms``: the records that share their stratum, domain
and clause-membership pattern), and each cell's statistics are reductions
over its atoms, one ``frame.CellPairs`` of every cell's (cell, atom) pairs,
each a ``np.bincount`` keyed by cell.  One solve gives every cell's direction,
and the draw axis is reduced in column groups of the replicate totals
(``replicate.TOTALS_GROUP_BYTES``).  Links, CBI bounds and diagnostics are
columns over all cells (``variance.ratio_links``, ``cbi_bounds``,
``cells_diagnostics``), from which each row is built once.
``analyze_cell`` is the same pass over a table of one cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import calibration as cal
from . import replicate as rep
from . import variance as var
from .frame import CalibrationSpec, CellAtoms, CellQuery, SampleSet, TierLabel, evaluate_cell
from .hb import PosteriorDraws
from .io import MACHINE_FLOAT, write_json, write_table

HUMAN_FLOAT = "%.6g"


@dataclass(frozen=True)
class InferenceArtifacts:
    """Shared read-only inputs for cell analysis."""

    sample: SampleSet
    gram: cal.GramMatrix
    ht: np.ndarray
    draws: PosteriorDraws
    mean_weights: cal.CalibratedWeights
    level: float

    @property
    def summary(self) -> dict:
        """Rank and condition of the calibration system, and the count of
        negative posterior-mean weights."""
        return {
            "gram_rank": self.gram.rank,
            "gram_condition": self.gram.condition_estimate,
            "negative_weight_count": self.mean_weights.negative_count,
        }


def build_artifacts(sample: SampleSet, draws: PosteriorDraws, level: float) -> InferenceArtifacts:
    """Factorize the calibration system and calibrate to the posterior mean."""
    gram = cal.compute_gram(sample, sample.calibration)
    ht = cal.ht_totals(sample, sample.calibration)
    mean_weights = cal.calibrate(sample, gram, ht, draws.posterior_mean)
    return InferenceArtifacts(
        sample=sample, gram=gram, ht=ht, draws=draws, mean_weights=mean_weights, level=level
    )


@dataclass
class CellReportRow:
    """One report row; interval columns are None where not applicable."""

    name: str
    tier: TierLabel
    n_cell: int
    point: float
    cri_lower: float
    cri_upper: float
    cri_kind: str
    cbi_lower: float | None = None
    cbi_upper: float | None = None
    component1: float | None = None
    component2: float | None = None
    a_norm: float = 0.0
    cos_theta: float | None = None
    orthogonality_flag: bool = False
    cv_cri: float | None = None
    cv_cbi: float | None = None
    link_variable: str | None = None
    link_rho: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def cri_width(self) -> float:
        return self.cri_upper - self.cri_lower

    @property
    def cbi_width(self) -> float | None:
        if self.cbi_lower is None:
            return None
        return self.cbi_upper - self.cbi_lower


@dataclass
class RunReport:
    rows: list[CellReportRow]
    metadata: dict


def _analyze_cells(
    queries: Sequence[CellQuery], art: InferenceArtifacts, atoms: CellAtoms | None = None
) -> list[CellReportRow]:
    """The tier-appropriate inference of every cell, in one pass.

    Reductions over records run once per atom of ``atoms`` (by default the
    table of ``queries``), and per cell over its atoms (``CellAtoms.pairs``);
    one solve gives every direction, the draw axis is reduced in the column
    groups of ``rep.total_columns``, the domain sums of a CBI are taken once
    its denominator is known, and each row is built once from columns of
    links, CBIs and diagnostics over all cells, with its warnings in a fixed
    order.
    """
    sample, draws = art.sample, art.draws
    spec = sample.calibration
    rep.check_draws(draws, spec)
    C = len(queries)
    tiers = [rep.classify_cell(query, sample) for query in queries]
    needs_cbi = np.array([tier is not TierLabel.TIER_1E for tier in tiers], dtype=bool)
    needs_link = np.array([tier is TierLabel.TIER_3NCV for tier in tiers], dtype=bool)
    atoms = CellAtoms.of(sample, queries) if atoms is None else atoms
    pairs = atoms.pairs(range(C))
    counts = pairs.counts
    mean_sums = atoms.totals(art.mean_weights.weights)
    fixed_ht = rep.cell_totals(pairs, atoms.totals(sample.weights))
    points = rep.cell_totals(pairs, mean_sums)

    directions = cal.replicate_direction(art.gram, rep.cell_weighted_moments(pairs).T)
    lower, upper = np.zeros(C), np.zeros(C)
    for columns, totals in rep.total_columns(draws, art.ht, directions, fixed_ht):
        lower[columns], upper[columns] = rep.quantile_bounds(totals, art.level)

    # a 2-CA or 2-NCA cell's CBI shares it out over the domain totals of its
    # summed variable, a 3-NCV cell's over those of its ratio link; -1 and NaN
    # mark a position and a value that a cell has none of
    names = spec.variable_names
    denominators, links, link_rho = np.full(C, -1), np.full(C, -1), np.full(C, np.nan)
    two, linked = np.flatnonzero(needs_cbi & ~needs_link), np.flatnonzero(needs_link)
    denominators[two] = var.denominator_positions(names, [queries[c].summed_variable for c in two])
    links[linked], link_rho[linked], refusals = var.ratio_links(
        names, var.link_correlations(pairs.select(needs_link)), [queries[c] for c in linked]
    )
    denominators[linked] = links[linked]
    at = np.flatnonzero(denominators >= 0)
    sums = var.domain_sums(pairs.select(denominators >= 0), mean_sums)
    shares, share_warnings = var.domain_shares(sample, sums, denominators[at], draws.posterior_mean)
    component1, component2 = np.full((2, C), np.nan)
    component1[at], component2[at], _ = var.components(shares, denominators[at], draws)
    cbi_lower, cbi_upper = var.cbi_bounds(points, component1, component2, art.level)
    a_norm, cos_theta, _, cv_cri, cv_cbi, orthogonal = var.cells_diagnostics(
        directions, draws.posterior_mean, art.ht, draws,
        upper - lower, cbi_upper - cbi_lower, points, art.level,
    )

    warnings: list[list[str]] = [[] for _ in queries]
    for c in np.flatnonzero(counts == 0).tolist():
        warnings[c].append("empty cell: no sampled records match the filter")
    for c, refusal, rho in zip(linked.tolist(), refusals, link_rho[linked].tolist()):
        if refusal is not None:
            warnings[c].append(refusal)
        elif var.weak_link(rho):
            warnings[c].append(
                f"weak ratio link |rho|={abs(rho):.3f} < {var.WEAK_LINK_THRESHOLD}; design-based "
                f"direct estimation is the recommended primary interval"
            )
    for c, cell_warnings in zip(at.tolist(), share_warnings):
        warnings[c].extend(cell_warnings)

    columns = {
        "name": [query.name for query in queries],
        "tier": tiers,
        "n_cell": counts.tolist(),
        "point": points.tolist(),
        "cri_lower": lower.tolist(),
        "cri_upper": upper.tolist(),
        "cri_kind": [
            "posterior" if tier is TierLabel.TIER_1E else "quasi-posterior" for tier in tiers
        ],
        "cbi_lower": _optional(cbi_lower),
        "cbi_upper": _optional(cbi_upper),
        "component1": _optional(component1),
        "component2": _optional(component2),
        "a_norm": a_norm.tolist(),
        "cos_theta": _optional(cos_theta),
        "orthogonality_flag": orthogonal.tolist(),
        "cv_cri": _optional(cv_cri),
        "cv_cbi": _optional(cv_cbi),
        "link_variable": [names[v] if v >= 0 else None for v in links.tolist()],
        "link_rho": _optional(link_rho),
        "warnings": [tuple(cell_warnings) for cell_warnings in warnings],
    }
    return [CellReportRow(**dict(zip(columns, row))) for row in zip(*columns.values())]


def _optional(column: np.ndarray) -> list[float | None]:
    """A float column as the rows carry it, None where NaN."""
    return [None if math.isnan(value) else value for value in column.tolist()]


def analyze_cell(query: CellQuery, art: InferenceArtifacts) -> CellReportRow:
    """Run the full tier-appropriate inference for one cell: the one-cell
    case of ``build_run_report``'s pass."""
    cell = evaluate_cell(query, art.sample, art.sample.calibration)
    (row,) = _analyze_cells((query,), art, CellAtoms.one(cell, art.sample))
    return row


def build_run_report(
    art: InferenceArtifacts,
    cells: tuple[CellQuery, ...],
    metadata: dict | None = None,
) -> RunReport:
    """Every cell's report row in one pass (``_analyze_cells``), with the
    run metadata."""
    rows = _analyze_cells(cells, art)
    meta = {
        "n_records": art.sample.n,
        "p": art.sample.calibration.p,
        "n_draws": art.draws.n_draws,
        "level": art.level,
        **art.summary,
    }
    meta.update(metadata or {})
    return RunReport(rows=rows, metadata=meta)


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def _record(row, skip: tuple[str, ...] = ()) -> dict:
    """A row dataclass as a JSON object keyed by its field names."""
    return {f.name: _jsonable(getattr(row, f.name)) for f in fields(row) if f.name not in skip}


def write_report_json(path: str | Path, report: RunReport) -> None:
    """``report.json``: the run metadata and each row's fields."""
    write_json(
        path,
        {
            "metadata": {k: _jsonable(v) for k, v in report.metadata.items()},
            "cells": [_record(row) for row in report.rows],
        },
    )


def _human(value, float_format: str = HUMAN_FLOAT) -> str:
    """One table field: empty for None and NaN, strings as they are, enums
    by value, tuples joined by "; ", bools in lower case, floats in
    ``float_format``."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return "; ".join(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return ""
    return float_format % value


# A table is declared once as its columns over a row object: a
# (header, attribute) pair, or a bare name when the two agree.
ESTIMATE_COLUMNS = (
    ("cell", "name"),
    "tier",
    "n_cell",
    "point",
    "cri_lower",
    "cri_upper",
    "cri_kind",
    "cbi_lower",
    "cbi_upper",
)
REPORT_DIAGNOSTIC_COLUMNS = (
    ("cell", "name"),
    "tier",
    "a_norm",
    "cos_theta",
    ("orthogonal", "orthogonality_flag"),
    "component1",
    "component2",
    "cv_cri",
    "cv_cbi",
    "link_variable",
    "link_rho",
    "warnings",
)
DIAGNOSE_COLUMNS = (
    ("cell", "name"),
    "tier",
    "n_cell",
    "a_norm",
    "cos_theta",
    ("orthogonal", "orthogonality_flag"),
)


@dataclass
class CellCoverage:
    """Accumulated repeated-sampling performance of one cell."""

    name: str
    tier: str
    truth: float
    replications: int
    mean_point: float
    mean_are: float | None
    mean_n_cell: float
    cri_coverage: float
    cri_mc_se: float
    cri_outside_2se: bool
    cbi_coverage: float | None
    cbi_mc_se: float | None
    cbi_outside_2se: bool | None
    mean_cv_cri: float | None
    mean_cv_cbi: float | None


COVERAGE_CELL_COLUMNS = (("cell", "name"), *(f.name for f in fields(CellCoverage)[1:]))
COVERAGE_TIER_COLUMNS = (
    "tier",
    "cells",
    "cri_cov_min",
    "cri_cov_mean",
    "cri_cov_max",
    "cbi_cov_min",
    "cbi_cov_mean",
    "cbi_cov_max",
    "nominal",
)
CV_TIER_COLUMNS = (
    "tier",
    "cells",
    "n_cell_min",
    "n_cell_max",
    "cv_cri_min",
    "cv_cri_max",
    "cv_cbi_min",
    "cv_cbi_max",
)
REPLICATION_COLUMNS = (
    "replication",
    ("cell", "name"),
    "tier",
    "point",
    "cri_lower",
    "cri_upper",
    "cbi_lower",
    "cbi_upper",
)


def write_rows(
    path: str | Path,
    columns,
    rows,
    metadata: dict | None = None,
    float_format: str = HUMAN_FLOAT,
) -> None:
    """Write ``rows`` as the declared ``columns``, each value through
    ``_human``; an attribute a row lacks is an empty field."""
    pairs = [(c, c) if isinstance(c, str) else c for c in columns]
    write_table(
        path,
        [header for header, _ in pairs],
        (
            [_human(getattr(row, attr, None), float_format) for _, attr in pairs]
            for row in rows
        ),
        metadata=metadata,
    )


def write_convergence(path: str | Path, spec: CalibrationSpec, convergence, metadata: dict) -> None:
    """R-hat per draw column, no rows when the diagnostic is unavailable."""
    rows = zip(spec.block_labels(), convergence.rhat) if convergence.available else ()
    rows = (SimpleNamespace(parameter=label, rhat=float(value)) for label, value in rows)
    write_rows(path, ("parameter", "rhat"), rows, metadata, float_format=MACHINE_FLOAT)


def write_report_tables(out_dir: str | Path, report: RunReport) -> None:
    """Panel-style tables: estimates (intervals) and diagnostics."""
    out_dir = Path(out_dir)
    meta = {
        k: report.metadata[k]
        for k in ("seed", "config_hash")
        if k in report.metadata
    }
    write_rows(out_dir / "report_estimates.csv", ESTIMATE_COLUMNS, report.rows, meta)
    write_rows(out_dir / "report_diagnostics.csv", REPORT_DIAGNOSTIC_COLUMNS, report.rows, meta)


def _tier_summaries(coverage) -> list[SimpleNamespace]:
    """Per tier present: its cell count, the nominal level, and the min,
    mean and max over its cells of each non-missing coverage statistic."""
    summaries = []
    for tier in TierLabel:
        cells = [c for c in coverage.cells if c.tier == tier.value]
        if not cells:
            continue
        summary = SimpleNamespace(tier=tier.value, cells=len(cells), nominal=coverage.nominal)
        for prefix, attr in (
            ("cri_cov", "cri_coverage"),
            ("cbi_cov", "cbi_coverage"),
            ("n_cell", "mean_n_cell"),
            ("cv_cri", "mean_cv_cri"),
            ("cv_cbi", "mean_cv_cbi"),
        ):
            values = [getattr(c, attr) for c in cells if getattr(c, attr) is not None]
            if values:
                setattr(summary, f"{prefix}_min", min(values))
                setattr(summary, f"{prefix}_mean", sum(values) / len(values))
                setattr(summary, f"{prefix}_max", max(values))
        summaries.append(summary)
    return summaries


def _replication_rows(results):
    """Each replication's interval rows, tagged with its index; a replication
    that did not converge is one row naming it so."""
    for r in results:
        for row in r.rows:
            yield SimpleNamespace(replication=r.index, **vars(row))
        if not r.converged:
            yield SimpleNamespace(replication=r.index, name="<not converged>")


def write_coverage(out_dir: str | Path, coverage, results, metadata: dict) -> None:
    """The coverage experiment's tables and ``coverage.json``; with
    ``results``, also every replication's intervals in ``replications.csv``."""
    out_dir = Path(out_dir)
    write_rows(out_dir / "coverage_by_cell.csv", COVERAGE_CELL_COLUMNS, coverage.cells, metadata)
    tiers = _tier_summaries(coverage)
    write_rows(out_dir / "coverage_by_tier.csv", COVERAGE_TIER_COLUMNS, tiers, metadata)
    write_rows(out_dir / "cv_by_tier.csv", CV_TIER_COLUMNS, tiers, metadata)
    write_json(
        out_dir / "coverage.json",
        {
            **_record(coverage, skip=("cells",)),
            "metadata": metadata,
            "cells": [_record(c, skip=("replications",)) for c in coverage.cells],
        },
    )
    if results is not None:
        write_rows(
            out_dir / "replications.csv",
            REPLICATION_COLUMNS,
            _replication_rows(results),
            metadata,
            float_format=MACHINE_FLOAT,
        )
