"""The cell layer, one pass over all of a run's cells, and report assembly.

One artifact bundle (Gram factorization, HT totals, posterior-mean weights)
is computed per run and shared read-only across cells.  ``build_run_report``
then infers every cell in three stages.  Reductions over records run once
per atom (``frame.CellAtoms``: the records that share their stratum, domain
and clause-membership pattern), and each cell's statistics are reductions
over its atoms, in groups of cells of at most ``frame.CELL_GROUP_PAIRS``
(cell, atom) pairs, each a ``np.bincount`` keyed by cell; only O(p + H D)
numbers a cell outlive its group.  One solve gives every cell's direction,
and the draw axis is reduced in column groups of the replicate totals
(``replicate.TOTALS_GROUP_BYTES``).  The rows are assembled last.
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
from .errors import LinkSelectionError, RankDeficiencyError
from .frame import CalibrationSpec, CellAtoms, CellQuery, SampleSet, TierLabel, evaluate_cell
from .hb import PosteriorDraws
from .io import MACHINE_FLOAT, format_machine, write_json, write_table

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
    if not gram.full_rank:
        raise RankDeficiencyError(
            f"calibration cross-product has rank {gram.rank} < {gram.p}; "
            f"deficient blocks: {list(gram.deficient_blocks)}",
            gram.deficient_blocks,
        )
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
    table of ``queries``), and per cell over its atoms, in groups of cells
    (``CellAtoms.groups``) that leave O(p + D + V) numbers a cell; one solve
    gives every direction, the draw axis is reduced in the column groups of
    ``rep.total_columns``, and the rows are assembled last, each with its
    warnings in a fixed order.
    """
    sample, draws = art.sample, art.draws
    spec = sample.calibration
    rep.check_draws(draws, spec)
    C, V, D = len(queries), spec.n_variables, spec.n_domains
    autos = [rep.classify_cell(query, sample) for query in queries]
    tiers = [query.tier_override or auto for query, auto in zip(queries, autos)]
    needs_cbi = np.array([tier is not TierLabel.TIER_1E for tier in tiers], dtype=bool)
    needs_link = np.array([tier is TierLabel.TIER_3NCV for tier in tiers], dtype=bool)
    atoms = CellAtoms.of(sample, queries) if atoms is None else atoms

    counts = np.zeros(C, dtype=np.intp)
    moments, fixed_ht, points = np.zeros((C, spec.p)), np.zeros(C), np.zeros(C)
    numerator, variance, met = np.zeros((C, D)), np.zeros((C, D)), np.zeros((C, D), dtype=bool)
    correlations = np.full((C, V), np.nan)
    ht_sums, mean_sums = atoms.totals(sample.weights), atoms.totals(art.mean_weights.weights)
    for at, pairs in atoms.groups(range(C)):
        counts[at] = pairs.counts
        moments[at] = cal.cell_weighted_moments(pairs)
        fixed_ht[at] = rep.cell_totals(pairs, ht_sums)
        points[at] = rep.cell_totals(pairs, mean_sums)
        cbi, link = at[needs_cbi[at]], at[needs_link[at]]
        if cbi.size:
            sums = var.domain_sums(pairs.select(needs_cbi[at]), mean_sums)
            numerator[cbi], met[cbi], variance[cbi] = sums
        if link.size:
            correlations[link] = var.link_correlations(pairs.select(needs_link[at]))

    points = points.tolist()  # Python floats, as the rows carry them
    directions = cal.replicate_direction(art.gram, moments.T)
    lower, upper = np.zeros(C), np.zeros(C)
    for columns, totals in rep.total_columns(draws, art.ht, directions, fixed_ht):
        lower[columns], upper[columns] = rep.quantile_bounds(totals, art.level)

    warnings: list[list[str]] = [[] for _ in queries]
    links: list[var.RatioLink | None] = [None] * C
    denominators: dict[int, str] = {}
    for c, (query, auto, tier) in enumerate(zip(queries, autos, tiers)):
        if tier is not auto:
            warnings[c].append(
                f"tier override {tier.value} replaces automatic classification {auto.value}"
            )
        if counts[c] == 0:
            warnings[c].append("empty cell: no sampled records match the filter")
        if tier is TierLabel.TIER_3NCV:
            try:
                links[c] = _resolve_link(query, spec.variable_names, correlations[c])
            except LinkSelectionError as exc:
                warnings[c].append(str(exc))
                continue
            denominators[c] = links[c].variable
            if links[c].weak:
                warnings[c].append(
                    f"weak ratio link |rho|={abs(links[c].correlation):.3f} < "
                    f"{var.WEAK_LINK_THRESHOLD}; design-based direct "
                    f"estimation is the recommended primary interval"
                )
        elif tier is not TierLabel.TIER_1E:
            denominators[c] = query.summed_variable

    intervals: list[var.CbiInterval | None] = [None] * C
    if denominators:
        at = np.fromiter(denominators, np.intp, len(denominators))
        positions = var.denominator_positions(spec.variable_names, denominators.values())
        sums = numerator[at], met[at], variance[at]
        shares, share_warnings = var.domain_shares(sample, sums, positions, draws.posterior_mean)
        component1, component2, _ = var.components(shares, positions, draws)
        for c, c1, c2, cell_warnings in zip(
            at.tolist(), component1.tolist(), component2.tolist(), share_warnings
        ):
            warnings[c].extend(cell_warnings)
            components = var.VarianceComponents(c1, c2, warnings=cell_warnings)
            intervals[c] = var.cbi(points[c], components, art.level)

    diagnostics = var.cells_diagnostics(
        directions,
        draws.posterior_mean,
        art.ht,
        draws,
        (upper - lower).tolist(),
        [cbi.width if cbi is not None else None for cbi in intervals],
        points,
        art.level,
    )
    rows = []
    for c, (query, tier, link, cbi, diag) in enumerate(
        zip(queries, tiers, links, intervals, diagnostics)
    ):
        rows.append(
            CellReportRow(
                name=query.name,
                tier=tier,
                n_cell=int(counts[c]),
                point=points[c],
                cri_lower=float(lower[c]),
                cri_upper=float(upper[c]),
                cri_kind="posterior" if tier is TierLabel.TIER_1E else "quasi-posterior",
                cbi_lower=cbi.lower if cbi else None,
                cbi_upper=cbi.upper if cbi else None,
                component1=cbi.components.component1 if cbi else None,
                component2=cbi.components.component2 if cbi else None,
                a_norm=diag.a_norm,
                cos_theta=diag.cos_theta,
                orthogonality_flag=diag.orthogonality_flag,
                cv_cri=_none_if_nan(diag.cv_cri),
                cv_cbi=_none_if_nan(diag.cv_cbi),
                link_variable=link.variable if link else None,
                link_rho=link.correlation if link else None,
                warnings=tuple(warnings[c]),
            )
        )
    return rows


def analyze_cell(query: CellQuery, art: InferenceArtifacts) -> CellReportRow:
    """Run the full tier-appropriate inference for one cell: the one-cell
    case of ``build_run_report``'s pass."""
    cell = evaluate_cell(query, art.sample, art.sample.calibration)
    (row,) = _analyze_cells((query,), art, CellAtoms.one(cell, art.sample))
    return row


def _resolve_link(query: CellQuery, names: tuple[str, ...], correlations) -> var.RatioLink:
    if query.link_variable is not None and query.link_variable not in names:
        raise LinkSelectionError(
            f"cell {query.name!r}: linking variable "
            f"{query.link_variable!r} is not a calibration variable"
        )
    auto = var.ratio_link(names, correlations)
    if query.link_variable is None:
        return auto
    # one candidate per calibration variable, in declaration order
    candidate = auto.candidates[names.index(query.link_variable)]
    rho = candidate.correlation if candidate.correlation is not None else 0.0
    return var.RatioLink(
        variable=candidate.name,
        correlation=rho,
        candidates=auto.candidates,
        weak=abs(rho) < var.WEAK_LINK_THRESHOLD,
    )


def _none_if_nan(value: float | None) -> float | None:
    if value is None or math.isnan(value):
        return None
    return value


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
COVERAGE_CELL_COLUMNS = (
    ("cell", "name"),
    "tier",
    "truth",
    "replications",
    "mean_point",
    "mean_are",
    "mean_n_cell",
    "cri_coverage",
    "cri_mc_se",
    "cri_outside_2se",
    "cbi_coverage",
    "cbi_mc_se",
    "cbi_outside_2se",
    "mean_cv_cri",
    "mean_cv_cbi",
)
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
    write_table(
        path,
        ["parameter", "rhat"],
        ([label, format_machine(float(value))] for label, value in rows),
        metadata=metadata,
    )


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
