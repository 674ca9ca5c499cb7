"""Chi-square calibration of design weights to arbitrary target vectors.

The weight set minimizing sum((w' - w)^2 / w) subject to the p calibration
constraints sum_i w'_i y_i = t has the closed form

    w'_i(t) = w_i * (1 + (t - T_ht)' G^{-1} y_i),

where G = sum_i w_i y_i y_i' is the weighted cross-product of the design
vectors and T_ht the Horvitz-Thompson total vector.  The multiplicative
factor is the familiar g-weight of regression calibration.  G and its
rank are computed once per sample and shared across all targets.
No n x p design matrix is formed: totals are ``block_sums`` reductions,
cell moments sums of the per-atom moments of ``frame.CellAtoms`` keyed by
(cell, domain), and G is block-diagonal by domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, RankDeficiencyError
from .frame import CalibrationSpec, CellData, CellPairs, SampleSet, block_sums

# A pivot below p * max(diag G) * 2^-50 is treated as numerically zero.
_PIVOT_RELATIVE_TOL = 2.0 ** -50


def _pivot_tolerance(a: np.ndarray) -> float:
    """p * max(diag a) * 2^-50, the largest diagonal taken over non-NaN entries."""
    diag = a.diagonal()
    diag = diag[~np.isnan(diag)]
    return a.shape[0] * (float(diag.max()) if diag.size else 0.0) * _PIVOT_RELATIVE_TOL


def pivoted_cholesky_rank(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Numerical rank and pivot order of a symmetric positive semi-definite matrix.

    Applies the diagonal pivoting rule of LAPACK's unblocked ``dpstf2``
    (Lucas 2004, LAPACK Working Note 161): each step pivots on the largest
    remaining Schur-complement diagonal, ties going to the first, and the
    factorization stops when that diagonal is at or below
    ``_pivot_tolerance(a)`` or is NaN.  As in ``dpstf2``, NaN candidates are
    passed over except at the first diagonal of the first step.  Returns the
    rank r and the 0-based pivot order; ``order[r:]`` are the columns left
    unpivoted, the dependent ones.
    """
    a = np.array(a, dtype=float)  # the lower triangle becomes the factor
    p = a.shape[0]
    order = np.arange(p)
    tol = _pivot_tolerance(a)
    sums = np.zeros(p)  # squared norms of the factor rows so far
    for j in range(p):
        if j:
            sums[j:] += a[j:, j - 1] ** 2
        candidates = a.diagonal()[j:] - sums[j:]
        nan = np.isnan(candidates)
        k = 0 if j == 0 and nan[0] else int(np.argmax(np.where(nan, -np.inf, candidates)))
        pivot = candidates[k]
        if not pivot > tol:
            return j, order
        if k:
            swap = [j, j + k]
            a[swap] = a[swap[::-1]]
            a[:, swap] = a[:, swap[::-1]]
            sums[swap] = sums[swap[::-1]]
            order[swap] = order[swap[::-1]]
        a[j, j] = np.sqrt(pivot)
        a[j + 1 :, j] = (a[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) * (1.0 / a[j, j])
    return p, order


@dataclass(frozen=True)
class GramMatrix:
    """p x p calibration cross-product with its rank.

    Immutable; safe to share across worker threads.
    """

    g: np.ndarray
    rank: int
    condition_estimate: float
    deficient_blocks: tuple[str, ...]
    spec: CalibrationSpec

    @property
    def p(self) -> int:
        return self.g.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.rank == self.p

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve G x = rhs; G must have full rank."""
        if not self.full_rank:
            raise RankDeficiencyError(
                f"cross-product matrix has rank {self.rank} < {self.p}; "
                f"deficient blocks: {list(self.deficient_blocks)}",
                self.deficient_blocks,
            )
        return np.linalg.solve(self.g, rhs)


@dataclass(frozen=True)
class CalibratedWeights:
    """Calibrated weight set for one target vector.

    ``g_factors`` are the per-record multiplicative adjustments; negative
    calibrated weights are counted but never truncated, since truncation
    would break the exact calibration property.
    """

    weights: np.ndarray
    g_factors: np.ndarray
    target: np.ndarray
    negative_count: int


def compute_gram(sample: SampleSet, spec: CalibrationSpec) -> GramMatrix:
    """Accumulate G = sum_i w_i y_i y_i' and find its rank.

    Entry (v*D + d, u*D + e) is zero unless d == e, so G is assembled from
    one V x V cross-product Z_d'Z_d per domain, Z_d the rows of
    sqrt(w) * calib in domain d, which keeps it symmetric positive
    semi-definite by construction.  Rank is determined by a pivoted
    Cholesky factorization with a scale-relative pivot tolerance
    (``pivoted_cholesky_rank``); when deficient, the error names the
    (variable, domain) blocks that could not be pivoted (typically empty
    variable-domain cells).
    """
    sample.check_spec(spec)
    V, D = spec.n_variables, spec.n_domains
    Z = sample.calib * np.sqrt(sample.weights)[:, None]
    g = np.zeros((V, D, V, D))
    for d in range(D):
        Z_d = Z[sample.domain_idx == d]
        g[:, d, :, d] = Z_d.T @ Z_d
    g = g.reshape(spec.p, spec.p)
    g = (g + g.T) / 2.0

    p = spec.p
    rank, order = pivoted_cholesky_rank(g)

    deficient: tuple[str, ...] = ()
    condition = float("inf")
    if rank == p:
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            rank = p - 1  # borderline indefiniteness; treat as deficient
        else:
            condition = float(np.linalg.cond(g))
    if rank < p:
        # Unpivoted trailing columns are the dependent blocks; report empty
        # variable-domain cells (zero diagonal) first for readability.
        tol = _pivot_tolerance(g)
        rejected = sorted(int(j) for j in order[rank:])
        zero_diag = [j for j in rejected if g[j, j] <= tol]
        dependent = [j for j in rejected if j not in zero_diag]
        deficient = tuple(
            spec.describe_block(j) + (" [empty]" if j in zero_diag else "")
            for j in zero_diag + dependent
        )
    return GramMatrix(
        g=g,
        rank=rank,
        condition_estimate=condition,
        deficient_blocks=deficient,
        spec=spec,
    )


def ht_totals(sample: SampleSet, spec: CalibrationSpec) -> np.ndarray:
    """Horvitz-Thompson total vector T_ht = sum_i w_i y_i."""
    sample.check_spec(spec)
    return block_sums(sample, sample.weights)


def calibrate(
    sample: SampleSet,
    gram: GramMatrix,
    ht: np.ndarray,
    target: np.ndarray,
) -> CalibratedWeights:
    """Calibrate the design weights so that sum_i w'_i y_i equals ``target``.

    Implemented as a single solve G u = (target - T_ht) followed by the
    per-record dot products y_i'u = sum_v calib[i, v] * u[v*D + d_i]; the
    inverse of G is never formed.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (gram.p,):
        raise DataError(
            f"target has shape {target.shape}, expected ({gram.p},)"
        )
    if not np.all(np.isfinite(target)):
        bad = np.nonzero(~np.isfinite(target))[0]
        raise NumericalError(
            f"target has non-finite components at positions {bad.tolist()}"
        )
    spec = gram.spec
    sample.check_spec(spec)
    u = gram.solve(target - ht).reshape(spec.n_variables, spec.n_domains)
    g_factors = 1.0 + np.sum(sample.calib * u.T[sample.domain_idx], axis=1)
    weights = sample.weights * g_factors
    return CalibratedWeights(
        weights=weights,
        g_factors=g_factors,
        target=target.copy(),
        negative_count=int(np.sum(weights < 0)),
    )


def cell_weighted_moments(pairs: CellPairs) -> np.ndarray:
    """Each cell's moment vector sum_{i in c} value_i w_i y_i, G x p: one
    ``np.bincount`` of the atoms' moments keyed by (variable, cell,
    domain)."""
    atoms = pairs.atoms
    V, D = atoms.sample.calibration.n_variables, atoms.sample.calibration.n_domains
    G = pairs.n_cells
    key = pairs.cell * D + atoms.domain[pairs.atom] + G * D * np.arange(V)[:, None]
    sums = np.bincount(key.ravel(), pairs.take(atoms.moments).ravel(), minlength=V * G * D)
    return sums.reshape(V, G, D).transpose(1, 0, 2).reshape(G, -1)


def cell_weighted_moment(sample: SampleSet, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cell moment vector sum_{i in c} value_i w_i y_i over the cell's
    ``rows`` (positions or a mask): ``cell_weighted_moments`` of one cell."""
    mask = np.zeros(sample.n, dtype=bool)
    mask[rows] = True
    return cell_weighted_moments(CellPairs.one(CellData(mask, values), sample))[0]


def replicate_direction(gram: GramMatrix, cell_weighted_moment: np.ndarray) -> np.ndarray:
    """Direction a_c solving G a_c = sum_{i in c} value_i w_i y_i; given a
    p x C moment matrix, one solve gives every cell's direction as a column.

    The replicate total of the cell is then an affine function of the target:
    fixed HT cell total plus (t - T_ht)' a_c.
    """
    moment = np.asarray(cell_weighted_moment, dtype=float)
    if moment.shape[:1] != (gram.p,) or moment.ndim > 2:
        raise DataError(
            f"moment has shape {moment.shape}, expected ({gram.p},) or ({gram.p}, C)"
        )
    return gram.solve(moment)
