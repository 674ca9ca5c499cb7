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
  the stratum factors of every domain of a set of cells come from one
  pass over their (cell, atom) pairs keyed by (cell, stratum, domain)
  (``stratum_kernel``), which pools the atoms' centred sums of squares and
  shares its finish, ``SampleSet.mean_variance``, with the Gaussian
  model's sampling variances psi_h;
* component 2 = sum_d share_d^2 * V_d, the model-based variance of the
  domain totals, where V_d is the diagonal entry of the draw covariance
  ``PosteriorDraws.covariance``, computed once per draw set and shared with
  the replicate-variance diagnostic of every cell,

around the point estimate with the normal multiplier z of the report level
(``cbi_z``, 1.96 at 0.95).  For cells summing a non-calibration outcome, the
share is formed against the calibration variable most correlated with the
outcome (the linking variable), giving a ratio-type interval.

Each quantity is a column over a set of cells (``domain_sums``,
``domain_shares``, ``components``, ``cbi_bounds``, ``link_correlations``,
``ratio_links``, ``cells_diagnostics``), the record-level ones from the
per-atom statistics of ``frame.CellAtoms``; ``variance_components``,
``select_linking_variable`` and ``cell_diagnostics`` wrap them for one
cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .calibration import CalibratedWeights
from .errors import DataError, LinkSelectionError
from .frame import CellData, CellPairs, CellQuery, SampleSet
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


def weak_link(rho: float) -> bool:
    """Whether a link of correlation ``rho`` is weak: |rho| below ``WEAK_LINK_THRESHOLD``."""
    return abs(rho) < WEAK_LINK_THRESHOLD


@dataclass(frozen=True)
class DomainShares:
    """A cell's share of each domain total, in block order (D), or each of a
    set of G cells' (G x D).

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
class RatioLink:
    """Chosen ratio denominator for a non-calibration outcome cell."""

    variable: str
    correlation: float

    @property
    def weak(self) -> bool:
        """``weak_link`` of the correlation."""
        return weak_link(self.correlation)


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


def stratum_kernel(pairs: CellPairs) -> tuple[np.ndarray, np.ndarray]:
    """The stratum kernel deff_h * (1 - f_h) * s2_h(z_d) / n_h of each
    (cell, stratum, domain) key k = (c H + h) D + d that the pairs' cells
    meet, with the keys in ascending order; every other key's kernel is 0.
    z_d is the cell-masked summed values zeroed outside domain d, over the
    whole stratum sample (so strata spanning domains are covered too).

    The atoms of a key are a run of the pairs, since atoms come in stratum
    and domain order.  Their ``Spread`` is pooled about the key's largest
    value, so an all-equal key has sum of squares exactly 0, to which the
    stratum's zeros outside k add n_k (n_h - n_k) / n_h * mean_k^2.
    """
    atoms = pairs.atoms
    sample = atoms.sample
    H, D = len(sample.strata), sample.calibration.n_domains
    if not pairs.atom.size:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    key = (pairs.cell * H + atoms.stratum[pairs.atom]) * D + atoms.domain[pairs.atom]
    new = np.empty(key.size, dtype=bool)
    new[0], new[1:] = True, key[1:] != key[:-1]
    run, first = np.cumsum(new) - 1, np.flatnonzero(new)
    top_a, _, offset_a, m2_a = (pairs.take(table) for table in atoms.spread)
    top = np.maximum.reduceat(top_a, first)
    n_k = np.bincount(run, pairs.count)
    deviation = top_a - top[run] + offset_a
    mean = np.bincount(run, pairs.count * deviation) / n_k
    deviation -= mean[run]
    ss = np.bincount(run, m2_a + pairs.count * deviation * deviation)
    h = key[first] // D % H
    n_h = sample.stratum_counts[h]
    ss += n_k * (n_h - n_k) / n_h * (top + mean) ** 2
    return key[first], sample.mean_variance(h, ss)


def domain_sums(
    pairs: CellPairs, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's reductions per domain d, G x D: its total within d from
    the atoms' totals ``sums`` under the posterior-mean weights (the share
    numerator), whether it has records in d, and sum_h N_h^2 times its
    ``stratum_kernel`` of z_d."""
    sample = pairs.atoms.sample
    G, H, D = pairs.n_cells, len(sample.strata), sample.calibration.n_domains
    key = pairs.cell * D + pairs.atoms.domain[pairs.atom]
    numerator = np.bincount(key, pairs.take(sums), minlength=G * D)
    met = np.bincount(key, minlength=G * D) > 0
    keys, kernel = stratum_kernel(pairs)
    cell_stratum, d = np.divmod(keys, D)
    c, h = np.divmod(cell_stratum, H)
    terms = sample.stratum_sizes[h] ** 2 * kernel
    variance = np.bincount(c * D + d, terms, minlength=G * D)
    return numerator.reshape(G, D), met.reshape(G, D), variance.reshape(G, D)


def denominator_positions(names: Sequence[str], denominators) -> np.ndarray:
    """Each denominator variable's position among the calibration variables
    ``names``."""
    for name in denominators:
        if name not in names:
            raise DataError(f"denominator {name!r} is not a calibration variable")
    return np.array([names.index(name) for name in denominators], dtype=np.intp)


def domain_shares(
    sample: SampleSet, sums: tuple, positions: np.ndarray, posterior_mean: np.ndarray
) -> tuple[DomainShares, list[tuple[str, ...]]]:
    """Calibrated cell shares per domain with Taylor-linearised variances,
    G x D, and each cell's warnings, from the cells' ``domain_sums``; cell c
    is shared out over the domain totals of calibration variable
    ``positions[c]``.

    The share of domain d is the calibrated cell total within d divided by
    the posterior-mean domain total of the denominator variable; shares are
    computed once and held fixed across draws.  The denominator is a
    calibration constant, so the share variance is the design variance of
    the numerator total scaled by 1/total^2.

    Domains whose denominator total is zero are excluded with a warning when
    the cell intersects them; singleton strata touching a domain with a
    non-zero total contribute zero with a warning, in domain order.
    """
    spec = sample.calibration
    V, D = spec.n_variables, spec.n_domains
    numerator, met, variance = sums
    total = np.asarray(posterior_mean, dtype=float).reshape(V, D)[positions]
    zero = total == 0.0
    kept = ~zero
    shares = DomainShares(
        share=np.divide(numerator, total, out=np.zeros(total.shape), where=kept),
        share_variance=np.divide(variance, total**2, out=np.zeros(total.shape), where=kept),
        domain_total=total,
        excluded=zero & met,
    )

    # a singleton stratum has one record, so it touches exactly one domain
    singletons = sample.stratum_domain_pairs & (sample.stratum_counts == 1)[:, None]
    singleton_warnings = [
        [
            f"stratum {sample.strata[h].id!r}: singleton, share-variance "
            f"contribution set to 0"
            for h in np.flatnonzero(singletons[:, d])
        ]
        for d in range(D)
    ]
    warnings = []
    for v, cell_zero, cell_met in zip(positions, zero.tolist(), met.tolist()):
        cell_warnings: list[str] = []
        for d in range(D):
            if cell_zero[d] and cell_met[d]:
                cell_warnings.append(
                    f"domain {spec.domain_order[d]!r} excluded: zero "
                    f"denominator total for {spec.variable_names[v]!r}"
                )
            elif not cell_zero[d]:
                cell_warnings.extend(singleton_warnings[d])
        warnings.append(tuple(cell_warnings))
    return shares, warnings


def components(
    shares: DomainShares, positions, draws: PosteriorDraws
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component 1, component 2 and the posterior variances V_d (0 for
    excluded domains) of shares over the domain totals of the calibration
    variables at ``positions``, for one cell or each of a set."""
    kept = ~shares.excluded
    posterior_variance = np.zeros(kept.shape)
    if kept.any():
        if draws.n_draws < 2:
            raise DataError("need at least 2 draws for a posterior variance")
        column_variances = np.diagonal(draws.covariance).reshape(-1, kept.shape[-1])[positions]
        posterior_variance = np.where(kept, column_variances, 0.0)
    return (
        np.sum(shares.domain_total**2 * shares.share_variance, axis=-1),
        np.sum(shares.share**2 * posterior_variance, axis=-1),
        posterior_variance,
    )


def variance_components(
    sample: SampleSet,
    cell: CellData,
    weights: CalibratedWeights,
    denominator_variable: str,
    posterior_mean: np.ndarray,
    draws: PosteriorDraws,
) -> VarianceComponents:
    """Assemble both variance components for one cell, with its
    ``domain_shares`` and their warnings."""
    positions = denominator_positions(sample.calibration.variable_names, [denominator_variable])
    pairs = CellPairs.one(cell, sample)
    sums = domain_sums(pairs, pairs.atoms.totals(weights.weights))
    group, warnings = domain_shares(sample, sums, positions, posterior_mean)
    shares = DomainShares(*(getattr(group, f.name)[0] for f in fields(group)))
    component1, component2, posterior_variance = components(shares, positions[0], draws)
    return VarianceComponents(
        component1=float(component1),
        component2=float(component2),
        shares=shares,
        posterior_variance=posterior_variance,
        warnings=warnings[0],
    )


def cbi_bounds(points, component1, component2, level: float = 0.95):
    """Calibrated Bayes interval bounds of each cell: point -/+
    z sqrt(comp1 + comp2), with z = cbi_z(level), elementwise."""
    half = cbi_z(level) * np.sqrt(component1 + component2)
    return points - half, points + half


def link_correlations(pairs: CellPairs) -> np.ndarray:
    """Pearson correlation of each cell's outcome with each calibration
    variable over the cell's records, G x V; NaN marks a variable constant
    within the cell (or a cell of fewer than 2 records), which cannot serve
    as a ratio denominator, and an outcome constant within the cell gives 0.

    A cell's pairs are contiguous, so the atoms' means, sums of squares and
    co-moments pool into the cell's by ``np.bincount`` keyed by (variable,
    cell), the outcome and the calibration variables at once; constancy is
    decided exactly, by each cell's largest and smallest values.
    """
    atoms = pairs.atoms
    G, V = pairs.n_cells, atoms.sample.calibration.n_variables
    rho = np.full((G, V), np.nan)
    met = pairs.sizes > 0
    if not met.any():
        return rho
    cell, count = pairs.cell, pairs.count
    n = np.bincount(cell, count, minlength=G)
    starts = (np.cumsum(pairs.sizes) - pairs.sizes)[met]
    comoments = pairs.take(atoms.comoments(pairs.columns.tolist()))

    def per_cell(rows):
        """Each row of a rows x P array summed over each cell, rows x G."""
        R = rows.shape[0]
        key = cell + G * np.arange(R)[:, None]
        return np.bincount(key.ravel(), rows.ravel(), minlength=R * G).reshape(R, G)

    # row 0 the outcome, rows 1..V the calibration variables, at each pair
    top, bottom, offset, m2 = (
        np.vstack([pairs.take(table), np.take(table[:V], pairs.atom, axis=1)])
        for table in atoms.spread
    )
    mean_a = top + offset
    deviation = mean_a - (per_cell(count * mean_a) / np.maximum(n, 1))[:, cell]
    pooled = per_cell(m2 + count * deviation * deviation)[:, met]
    root_mean_square = np.sqrt(pooled / n[met])
    constant = np.equal(
        np.maximum.reduceat(top, starts, axis=1), np.minimum.reduceat(bottom, starts, axis=1)
    )
    products = comoments + count * deviation[0] * deviation[1:]
    covariance = per_cell(products)[:, met] / n[met]
    su, sc = root_mean_square[0], root_mean_square[1:]
    informative = ~constant[0] & (sc != 0.0)
    within = np.divide(covariance, su * sc, out=np.zeros(sc.shape), where=informative)
    within[(n[met] < 2) | constant[1:]] = np.nan
    rho[met] = within.T
    return rho


def ratio_links(
    names: Sequence[str], correlations: np.ndarray, cells: Sequence[CellQuery]
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """The ratio link of each of G cells from its row of G x V
    ``link_correlations``: its position among ``names``, its rho (0 for a
    variable constant in the cell) and no refusal text, or -1, NaN and one.

    A cell's named ``link_variable`` is taken if it is a calibration
    variable and refused otherwise; a cell that names none takes the
    admissible variable of largest |rho|, the first in declaration order on
    a tie, and is refused when no variable is admissible.
    """
    admissible = ~np.isnan(correlations)
    positions = np.argmax(np.where(admissible, np.abs(correlations), -1.0), axis=1)
    refusals: list[str | None] = [None] * len(cells)
    for c, cell in enumerate(cells):
        if cell.link_variable in names:
            positions[c] = names.index(cell.link_variable)
        elif cell.link_variable is not None:
            refusals[c] = (
                f"cell {cell.name!r}: linking variable "
                f"{cell.link_variable!r} is not a calibration variable"
            )
        elif not admissible[c].any():
            refusals[c] = (
                "no admissible linking variable: every calibration variable is constant within "
                "the cell; publish a design-based direct estimate for this cell instead"
            )
    rho = np.where(admissible, correlations, 0.0)[np.arange(len(cells)), positions]
    refused = np.array([refusal is not None for refusal in refusals], dtype=bool)
    positions[refused], rho[refused] = -1, np.nan
    return positions, rho, refusals


def select_linking_variable(sample: SampleSet, cell: CellData) -> RatioLink:
    """Pick the calibration variable most correlated with the cell outcome
    (``ratio_links`` of one cell that names no link).

    Correlations are plain Pearson over the sampled records in the cell.
    Candidates structurally constant within the cell cannot serve as ratio
    denominators and are excluded regardless of formal correlation; ties
    break by declaration order.
    """
    names = sample.calibration.variable_names
    correlations = link_correlations(CellPairs.one(cell, sample))
    (position,), (rho,), (refusal,) = ratio_links(names, correlations, [CellQuery("", "")])
    if refusal is not None:
        raise LinkSelectionError(refusal)
    return RatioLink(variable=names[position], correlation=float(rho))


def coefficient_of_variation(width, point, z: float = CBI_Z):
    """Interval width divided by 2z (3.92 at 95%), as a fraction of the point
    estimate, elementwise; NaN where the point is 0 or the width is NaN."""
    point = np.asarray(point, dtype=float)
    cv = np.full(point.shape, np.nan)
    np.divide(np.divide(width, 2.0 * z), np.abs(point), out=cv, where=point != 0.0)
    return cv[()]


def cells_diagnostics(
    directions: np.ndarray, posterior_mean: np.ndarray, ht: np.ndarray, draws: PosteriorDraws,
    cri_widths, cbi_widths, points, level: float = 0.95,
) -> tuple[np.ndarray, ...]:
    """Alignment and scale diagnostics of each cell whose direction is a
    column of p x C ``directions``: the columns a_norm, cos_theta,
    replicate_variance, cv_cri, cv_cbi and orthogonal.  ``cbi_widths`` is
    NaN for a cell without a CBI, and so is its cv_cbi.

    cos_theta is NaN, and the cell not orthogonal, where the direction or
    the posterior-mean residual is a zero vector: alignment is then
    undefined rather than zero.  The replicate variance is the quadratic
    form a' Cov(draws) a, which must agree with the empirical variance of
    the replicate totals.  The CVs take the interval widths at ``level``
    over 2 ``cbi_z(level)``.
    """
    z = cbi_z(level)
    a_norm = np.linalg.norm(directions, axis=0)
    residual = posterior_mean - ht
    r_norm = float(np.linalg.norm(residual))
    cos_theta = np.full(a_norm.shape, np.nan)
    defined = (a_norm != 0.0) & (r_norm != 0.0)
    np.divide(residual @ directions, a_norm * r_norm, out=cos_theta, where=defined)
    return (
        a_norm,
        cos_theta,
        np.sum(directions * (draws.covariance @ directions), axis=0),
        coefficient_of_variation(cri_widths, points, z),
        coefficient_of_variation(cbi_widths, points, z),
        np.abs(cos_theta) < ORTHOGONALITY_COS_THRESHOLD,
    )


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
    """``cells_diagnostics`` of one cell; an undefined cos_theta is None, and
    so is cv_cbi without a CBI."""
    columns = cells_diagnostics(
        np.asarray(direction, dtype=float)[:, None], posterior_mean, ht, draws,
        [cri_width], [np.nan if cbi_width is None else cbi_width], [point], level,
    )
    a_norm, cos_theta, variance, cv_cri, cv_cbi, orthogonal = (c.item() for c in columns)
    return CellDiagnostics(
        a_norm, None if math.isnan(cos_theta) else cos_theta, variance, cv_cri,
        None if cbi_width is None else cv_cbi, orthogonal,
    )
