"""Total-variance decomposition and calibrated Bayes intervals for cells.

The posterior-propagation interval of a filtered cell carries only the
uncertainty of the domain totals; the sampling variability of the
within-domain cell shares is invisible to it.  The calibrated Bayes interval
(CBI) restores it by combining, over the domains d of the denominator
variable,

* component 1 = sum_d total_d^2 * Var(share_d), the design-based
  Taylor-linearised variance of the calibrated cell shares.  With z_d the
  cell-masked values zeroed outside d, total_d^2 * Var(share_d) =
  sum_h N_h^2 * deff_h * (1 - f_h) * s2_h(z_d) / n_h over the strata h;
  the stratum factors of every domain come from one pass of
  ``SampleSet.stratum_mean_variance`` over the cell's rows keyed by
  (stratum, domain), the kernel that also gives the Gaussian model's
  sampling variances psi_h;
* component 2 = sum_d share_d^2 * V_d, the model-based variance of the
  domain totals, where V_d is the diagonal entry of the draw covariance
  ``PosteriorDraws.covariance``, computed once per draw set and shared with
  the replicate-variance diagnostic of every cell,

around the point estimate with the normal multiplier z of the report level
(``cbi_z``, 1.96 at 0.95).  For cells summing a non-calibration outcome, the
share is formed against the calibration variable most correlated with the
outcome (the linking variable), giving a ratio-type interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .calibration import CalibratedWeights
from .errors import DataError, LinkSelectionError
from .frame import CellData, SampleSet
from .hb import PosteriorDraws


def cbi_z(level: float) -> float:
    """The two-sided normal multiplier of ``level``, rounded to two decimals
    as in the conventional tables: 1.28, 1.64, 1.96 at 0.80, 0.90, 0.95."""
    return round(NormalDist().inv_cdf((1.0 + level) / 2.0), 2)


CBI_Z = cbi_z(0.95)

# Operational cutoff for "the direction is essentially orthogonal to the
# posterior correction": below this the propagation interval collapses.
ORTHOGONALITY_COS_THRESHOLD = 0.01

# Linking correlations weaker than this make the ratio link uninformative;
# design-based direct estimation is the recommended primary interval.
WEAK_LINK_THRESHOLD = 0.1


@dataclass(frozen=True)
class DomainShares:
    """A cell's share of each domain total, in block order.

    ``excluded`` marks the domains the cell meets whose denominator total is
    zero; their share and share variance are 0.
    """

    share: np.ndarray
    share_variance: np.ndarray
    domain_total: np.ndarray
    excluded: np.ndarray


@dataclass(frozen=True)
class VarianceComponents:
    """Compositional (design) and domain (model) variance parts.

    component1 = sum_d total_d^2 * Var(share_d); component2 =
    sum_d share_d^2 * V_d, with V_d in ``posterior_variance`` (0 for excluded
    domains).  The bookkeeping is exact: the total variance the interval uses
    is component1 + component2 as assembled here.
    """

    component1: float
    component2: float
    shares: DomainShares | None = None
    posterior_variance: np.ndarray | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CbiInterval:
    """Symmetric normal-multiplier interval around the point estimate."""

    lower: float
    upper: float
    z: float
    components: VarianceComponents

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class LinkCandidate:
    name: str
    correlation: float | None
    admissible: bool


@dataclass(frozen=True)
class RatioLink:
    """Chosen ratio denominator for a non-calibration outcome cell."""

    variable: str
    correlation: float
    candidates: tuple[LinkCandidate, ...]
    weak: bool


@dataclass(frozen=True)
class CellDiagnostics:
    """Pre-publication diagnostics for one cell.

    ``cos_theta`` is None when the direction or the posterior-mean residual
    is a zero vector, in which case alignment is undefined rather than zero.
    """

    a_norm: float
    cos_theta: float | None
    replicate_variance: float
    cv_cri: float
    cv_cbi: float | None
    orthogonality_flag: bool


def share_and_variance(
    sample: SampleSet,
    cell: CellData,
    weights: CalibratedWeights,
    denominator_variable: str,
    posterior_mean: np.ndarray,
) -> tuple[DomainShares, tuple[str, ...]]:
    """Calibrated cell shares per domain with Taylor-linearised variances.

    The share of domain d is the calibrated cell total within d divided by
    the posterior-mean domain total of the denominator variable; shares are
    computed once and held fixed across draws.  The denominator is a
    calibration constant, so the share variance is the design variance of
    the numerator total scaled by 1/total^2: sum_h N_h^2 times the stratum
    kernel of z_d, the cell-masked summed values zeroed outside d, over the
    whole stratum sample (so strata spanning domains are covered too).

    Domains whose denominator total is zero are excluded with a warning when
    the cell intersects them; singleton strata touching a domain with a
    non-zero total contribute zero with a warning, in domain order.
    """
    spec = sample.calibration
    if denominator_variable not in spec.variable_names:
        raise DataError(
            f"denominator {denominator_variable!r} is not a calibration variable"
        )
    v = spec.variable_names.index(denominator_variable)
    D = spec.n_domains
    values, domain = cell.values[cell.rows], sample.domain_idx[cell.rows]
    total = np.asarray(posterior_mean, dtype=float)[v * D : (v + 1) * D]
    numerator = np.bincount(domain, values * weights.weights[cell.rows], minlength=D)
    met = np.bincount(domain, minlength=D) > 0
    zero = total == 0.0

    # a singleton stratum has one record, so it touches exactly one domain
    singletons = sample.stratum_domain_pairs & (sample.stratum_counts == 1)[:, None]
    warnings: list[str] = []
    for d in range(D):
        if zero[d] and met[d]:
            warnings.append(
                f"domain {spec.domain_order[d]!r} excluded: zero "
                f"denominator total for {denominator_variable!r}"
            )
        elif not zero[d]:
            warnings.extend(
                f"stratum {sample.strata[h].id!r}: singleton, share-variance "
                f"contribution set to 0"
                for h in np.flatnonzero(singletons[:, d])
            )

    variance = sample.stratum_sizes**2 @ sample.stratum_mean_variance(values, cell.rows)
    kept = ~zero
    shares = DomainShares(
        share=np.divide(numerator, total, out=np.zeros(D), where=kept),
        share_variance=np.divide(variance, total**2, out=np.zeros(D), where=kept),
        domain_total=total,
        excluded=zero & met,
    )
    return shares, tuple(warnings)


def variance_components(
    sample: SampleSet,
    cell: CellData,
    weights: CalibratedWeights,
    denominator_variable: str,
    posterior_mean: np.ndarray,
    draws: PosteriorDraws,
) -> VarianceComponents:
    """Assemble both variance components for one cell."""
    shares, warnings = share_and_variance(
        sample, cell, weights, denominator_variable, posterior_mean
    )
    spec = sample.calibration
    v, D = spec.variable_names.index(denominator_variable), spec.n_domains
    kept = ~shares.excluded
    posterior_variance = np.zeros(D)
    if kept.any():
        if draws.n_draws < 2:
            raise DataError("need at least 2 draws for a posterior variance")
        column_variances = np.diagonal(draws.covariance)[v * D : (v + 1) * D]
        posterior_variance[kept] = column_variances[kept]
    return VarianceComponents(
        component1=float(np.sum(shares.domain_total**2 * shares.share_variance)),
        component2=float(np.sum(shares.share**2 * posterior_variance)),
        shares=shares,
        posterior_variance=posterior_variance,
        warnings=warnings,
    )


def cbi(
    point: float, components: VarianceComponents, level: float = 0.95
) -> CbiInterval:
    """Calibrated Bayes interval: point +/- z sqrt(comp1 + comp2), with
    z = cbi_z(level)."""
    warnings = list(components.warnings)
    c1, c2 = components.component1, components.component2
    if c1 < 0 or c2 < 0:
        warnings.append("negative variance component clamped to 0")
        c1, c2 = max(c1, 0.0), max(c2, 0.0)
        components = replace(
            components, component1=c1, component2=c2, warnings=tuple(warnings)
        )
    z = cbi_z(level)
    half = z * float(np.sqrt(c1 + c2))
    return CbiInterval(
        lower=point - half, upper=point + half, z=z, components=components
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if x.size < 2:
        return None
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def select_linking_variable(sample: SampleSet, cell: CellData) -> RatioLink:
    """Pick the calibration variable most correlated with the cell outcome.

    Correlations are plain Pearson over the sampled records in the cell.
    Candidates structurally constant within the cell cannot serve as ratio
    denominators and are excluded regardless of formal correlation; ties
    break by declaration order.
    """
    idx = cell.rows
    u = cell.values[idx]
    candidates = []
    best_name = None
    best_rho = None
    for v, name in enumerate(sample.calibration.variable_names):
        col = sample.calib[idx, v]
        constant = idx.size < 2 or float(np.ptp(col)) == 0.0
        if constant:
            candidates.append(
                LinkCandidate(name=name, correlation=None, admissible=False)
            )
            continue
        rho = _pearson(u, col)
        if rho is None:
            rho = 0.0  # outcome constant in the cell; no informative link
        candidates.append(
            LinkCandidate(name=name, correlation=rho, admissible=True)
        )
        if best_rho is None or abs(rho) > abs(best_rho):
            best_name, best_rho = name, rho
    if best_name is None:
        raise LinkSelectionError(
            "no admissible linking variable: every calibration variable is "
            "constant within the cell; publish a design-based direct estimate "
            "for this cell instead"
        )
    return RatioLink(
        variable=best_name,
        correlation=best_rho,
        candidates=tuple(candidates),
        weak=abs(best_rho) < WEAK_LINK_THRESHOLD,
    )


def coefficient_of_variation(width: float, point: float, z: float = CBI_Z) -> float:
    """Interval width divided by 2z (3.92 at 95%), as a fraction of the point
    estimate."""
    if point == 0.0:
        return float("nan")
    return (width / (2.0 * z)) / abs(point)


def cell_diagnostics(
    direction: np.ndarray,
    posterior_mean: np.ndarray,
    ht: np.ndarray,
    draws: PosteriorDraws,
    cri_width: float,
    cbi_width: float | None,
    point: float,
    level: float = 0.95,
) -> CellDiagnostics:
    """Alignment and scale diagnostics explaining the propagation width.

    The replicate variance is the quadratic form a' Cov(draws) a, which must
    agree with the empirical variance of the replicate totals.  The CVs take
    the interval widths at ``level`` over 2 ``cbi_z(level)``.
    """
    z = cbi_z(level)
    a_norm = float(np.linalg.norm(direction))
    residual = posterior_mean - ht
    r_norm = float(np.linalg.norm(residual))
    if a_norm == 0.0 or r_norm == 0.0:
        cos_theta = None
    else:
        cos_theta = float(direction @ residual / (a_norm * r_norm))
    replicate_variance = float(direction @ draws.covariance @ direction)
    return CellDiagnostics(
        a_norm=a_norm,
        cos_theta=cos_theta,
        replicate_variance=replicate_variance,
        cv_cri=coefficient_of_variation(cri_width, point, z),
        cv_cbi=(
            coefficient_of_variation(cbi_width, point, z)
            if cbi_width is not None
            else None
        ),
        orthogonality_flag=(
            cos_theta is not None and abs(cos_theta) < ORTHOGONALITY_COS_THRESHOLD
        ),
    )
