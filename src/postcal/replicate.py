"""Propagation of posterior draws into replicate cell totals and intervals.

Because calibrated weights are affine in the target vector, the replicate
total of a cell under the weights calibrated to draw b is

    T_c(b) = sum_{i in c} value_i w_i  +  (t_b - T_ht)' a_c,

with a_c solving G a_c = sum_{i in c} value_i w_i y_i.  This identity is the
computational path: replicate weight sets are never materialized, yet the
result is algebraically identical to recalibrating the weights at every draw
and summing over the cell.  A run's cells share one solve for all their
directions, and their totals are formed and reduced to intervals a column
group at a time (``total_columns``, ``quantile_bounds``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .calibration import (
    GramMatrix,
    cell_weighted_moment,  # unused here; bench/tracing.py wraps it under this name
    cell_weighted_moments,
    replicate_direction,
)
from .errors import DataError, NumericalError, checked, nominal_level
from .frame import (
    CalibrationSpec,
    CellData,
    CellQuery,
    CellPairs,
    SampleSet,
    TierLabel,
    evaluate_cell,
)
from .hb import PosteriorDraws


@dataclass(frozen=True)
class ReplicateTotals:
    """Cell totals under every posterior draw, with their affine pieces."""

    values: np.ndarray
    fixed_ht: float
    direction: np.ndarray


@dataclass(frozen=True)
class CredibleInterval:
    """Empirical-quantile interval of the replicate totals.

    ``kind`` is "posterior" for exact constraint cells and "quasi-posterior"
    otherwise, where the interval omits compositional sampling variability.
    """

    lower: float
    upper: float
    level: float
    kind: str = "quasi-posterior"

    @property
    def width(self) -> float:
        return self.upper - self.lower


def classify_cell(query: CellQuery, sample: SampleSet) -> TierLabel:
    """Assign the inferential tier of a cell; classification is total.

    A calibration variable summed under no attribute and no interval clause
    is 1-E, over one domain, several or all: calibration reproduces each
    domain's total, so every replicate total is a sum of draw columns.  A
    filter on attributes is calibration-derived when every attribute it
    reads is one of ``sample.calibration_attributes``; interval clauses on
    calibration values always are.
    """
    try:
        sample.column(query.summed_variable)  # rejects an unknown variable
    except DataError as error:
        raise error.within(f"cell {query.name!r}: ")
    if query.summed_variable not in sample.calibration.variable_names:
        return TierLabel.TIER_3NCV
    f = query.filter
    if not (f.attribute_levels or f.value_ranges):
        return TierLabel.TIER_1E
    if all(attr in sample.calibration_attributes for attr, _ in f.attribute_levels):
        return TierLabel.TIER_2CA
    return TierLabel.TIER_2NCA


# Most bytes of replicate totals (draws x cells) held at once: the cells'
# totals are formed and reduced to intervals in column groups of this size.
# On the benchmark's 50,000-record sample with 6,000 draws, the cell layer
# of ``infer`` lifts the peak RSS by 1.0 MiB in groups of 256 KiB and by
# 3.5 MiB in groups of 1 MiB.
TOTALS_GROUP_BYTES = 1 << 18


def total_columns(
    draws: PosteriorDraws, ht: np.ndarray, directions: np.ndarray, fixed_ht: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Replicate totals fixed_ht_c + (t_b - T_ht)' a_c of the cells whose
    p x C ``directions`` are given, as (column slice, B x C_g totals) in
    groups of at most ``TOTALS_GROUP_BYTES``: one matrix product a group,
    the draws centred on ``ht`` once a call."""
    width = max(1, TOTALS_GROUP_BYTES // (8 * draws.n_draws))
    centred = draws.draws - ht
    for start in range(0, directions.shape[1], width):
        columns = slice(start, start + width)
        totals = centred @ directions[:, columns]
        totals += fixed_ht[columns]
        yield columns, totals


def cell_totals(pairs: CellPairs, sums: np.ndarray) -> np.ndarray:
    """Each cell's weighted total sum_{i in c} value_i weights_i, from the
    atoms' totals ``sums = CellAtoms.totals(weights)``."""
    return np.bincount(pairs.cell, pairs.take(sums), minlength=pairs.n_cells)


def replicate_totals(
    cell: CellData,
    draws: PosteriorDraws,
    gram: GramMatrix,
    ht: np.ndarray,
    sample: SampleSet,
    spec: CalibrationSpec,
) -> ReplicateTotals:
    """Replicate cell totals via the affine propagation identity: the
    one-cell case of ``cell_weighted_moments``, ``replicate_direction``,
    ``cell_totals`` and ``total_columns``, over one atom table.

    Cost is O(n V + p^2) once per cell, for the cell's table over the n
    records, plus O(B p) across draws, centred on T_ht once per call.
    """
    sample.check_spec(spec)
    check_draws(draws, spec)
    pairs = CellPairs.one(cell, sample)
    direction = replicate_direction(gram, cell_weighted_moments(pairs)[0])
    fixed_ht = cell_totals(pairs, pairs.atoms.totals(sample.weights))
    (_, values), = total_columns(draws, ht, direction[:, None], fixed_ht)
    return ReplicateTotals(values=values[:, 0], fixed_ht=float(fixed_ht[0]), direction=direction)


def check_draws(draws: PosteriorDraws, spec: CalibrationSpec) -> None:
    """Require a draw matrix of ``spec.p`` columns."""
    if draws.p != spec.p:
        raise DataError(
            f"draw matrix has {draws.p} columns, calibration system has {spec.p}"
        )


def quantile_bounds(totals: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-tailed interval bounds of each column of B x C ``totals``,
    ``empirical_quantile_ci`` of every cell in one ``np.quantile`` call; the
    first column holding a non-finite total is named by its count."""
    if totals.shape[0] < 2:
        raise DataError("need at least 2 replicate values")
    checked(level, nominal_level, "level")
    bad = np.count_nonzero(~np.isfinite(totals), axis=0)
    if bad.any():
        raise NumericalError(f"{bad[bad > 0][0]} non-finite replicate values")
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(totals, [alpha, 1.0 - alpha], axis=0, method="linear")
    return lower, upper


def empirical_quantile_ci(
    values: np.ndarray, level: float, kind: str = "quasi-posterior"
) -> CredibleInterval:
    """Equal-tailed interval from order statistics: ``quantile_bounds`` of
    one cell.

    Quantiles interpolate linearly at plotting positions (k-1)/(B-1), the
    standard type-7 definition, which is deterministic and continuous in the
    data.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DataError(f"expected a 1-d array of replicate values, got shape {values.shape}")
    lower, upper = quantile_bounds(values[:, None], level)
    return CredibleInterval(
        lower=float(lower[0]), upper=float(upper[0]), level=level, kind=kind
    )


def recalibration_oracle(
    query: CellQuery,
    draws: PosteriorDraws,
    gram: GramMatrix,
    ht: np.ndarray,
    sample: SampleSet,
    spec: CalibrationSpec,
) -> np.ndarray:
    """Reference path: recalibrate the full weight set at every draw.

    Kept as an independent check of the affine identity; quadratic in memory
    and time, so only suitable for small fixtures.
    """
    from .calibration import calibrate

    cell = evaluate_cell(query, sample, spec)
    out = np.empty(draws.n_draws)
    for b in range(draws.n_draws):
        w = calibrate(sample, gram, ht, draws.draws[b])
        out[b] = float(np.sum(cell.values * cell.mask * w.weights))
    return out
