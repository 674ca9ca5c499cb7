"""Propagation of posterior draws into replicate cell totals and intervals.

Because calibrated weights are affine in the target vector, the replicate
total of a cell under the weights calibrated to draw b is

    T_c(b) = sum_{i in c} value_i w_i  +  (t_b - T_ht)' a_c,

with a_c solving G a_c = sum_{i in c} value_i w_i y_i.  This identity is the
computational path: replicate weight sets are never materialized, yet the
result is algebraically identical to recalibrating the weights at every draw
and summing over the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import (
    CalibratedWeights,
    GramMatrix,
    cell_weighted_moment,
    replicate_direction,
)
from .errors import DataError, NumericalError
from .frame import (
    CalibrationSpec,
    CellData,
    CellQuery,
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

    A filter on attributes is calibration-derived when every attribute it
    reads is one of ``sample.calibration_attributes``; interval clauses on
    calibration values always are.
    """
    sample.column(query.summed_variable, query.name)  # rejects an unknown variable
    if query.summed_variable not in sample.calibration.variable_names:
        return TierLabel.TIER_3NCV
    f = query.filter
    if f.single_domain() is not None:
        return TierLabel.TIER_1E
    if all(attr in sample.calibration_attributes for attr, _ in f.attribute_levels):
        return TierLabel.TIER_2CA
    return TierLabel.TIER_2NCA


def replicate_totals(
    cell: CellData,
    draws: PosteriorDraws,
    gram: GramMatrix,
    ht: np.ndarray,
    sample: SampleSet,
    spec: CalibrationSpec,
) -> ReplicateTotals:
    """Replicate cell totals via the affine propagation identity.

    Cost is O(n_c V + p^2) once per cell, n_c its records, plus O(B p)
    across draws, centred on T_ht once per draw set.
    """
    sample.check_spec(spec)
    if draws.p != spec.p:
        raise DataError(
            f"draw matrix has {draws.p} columns, calibration system has {spec.p}"
        )
    moment = cell_weighted_moment(sample, cell.rows, cell.values)
    direction = replicate_direction(gram, moment)
    fixed_ht = float(np.sum(sample.weights[cell.rows] * cell.values[cell.rows]))
    values = fixed_ht + draws.centred(ht) @ direction
    return ReplicateTotals(values=values, fixed_ht=fixed_ht, direction=direction)


def empirical_quantile_ci(
    values: np.ndarray, level: float, kind: str = "quasi-posterior"
) -> CredibleInterval:
    """Equal-tailed interval from order statistics.

    Quantiles interpolate linearly at plotting positions (k-1)/(B-1), the
    standard type-7 definition, which is deterministic and continuous in the
    data.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise DataError("need at least 2 replicate values")
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")
    bad = int(np.sum(~np.isfinite(values)))
    if bad:
        raise NumericalError(f"{bad} non-finite replicate values")
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(values, [alpha, 1.0 - alpha], method="linear")
    return CredibleInterval(
        lower=float(lower), upper=float(upper), level=level, kind=kind
    )


def point_estimate(cell: CellData, weights: CalibratedWeights) -> float:
    """Weighted cell total under the posterior-mean calibrated weights."""
    return float(np.sum(cell.values[cell.rows] * weights.weights[cell.rows]))


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
