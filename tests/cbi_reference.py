"""Per-domain, per-stratum loop form of the CBI variance components.

The reference that ``postcal.variance.share_and_variance`` and
``variance_components`` are checked against: every domain and every stratum
touching it is visited in a Python loop, stratum members come from a scan of
``stratum_idx`` and each stratum variance from ``np.var``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceTerm:
    domain: str
    share: float
    share_variance: float
    posterior_variance: float
    domain_total: float
    excluded: bool = False


def reference_share_and_variance(
    sample, spec, cell, weights, denominator_variable, posterior_mean
):
    v = spec.variable_names.index(denominator_variable)
    D = spec.n_domains
    masked_values = cell.values * cell.mask

    terms = []
    warnings: list[str] = []
    flagged_singletons: set[str] = set()
    for d in range(D):
        domain_id = spec.domain_order[d]
        in_domain = sample.domain_idx == d
        total = float(posterior_mean[v * D + d])
        numerator = float(np.sum(masked_values[in_domain] * weights.weights[in_domain]))
        intersects = bool(np.any(cell.mask & in_domain))
        if total == 0.0:
            if intersects:
                warnings.append(
                    f"domain {domain_id!r} excluded: zero denominator total "
                    f"for {denominator_variable!r}"
                )
            terms.append(ReferenceTerm(domain_id, 0.0, 0.0, 0.0, 0.0, intersects))
            continue

        z = masked_values * in_domain
        variance = 0.0
        for pos in np.unique(sample.stratum_idx[in_domain]):
            members = np.flatnonzero(sample.stratum_idx == pos)
            n_h = members.size
            if n_h < 2:
                stratum_id = sample.strata[int(pos)].id
                if stratum_id not in flagged_singletons:
                    flagged_singletons.add(stratum_id)
                    warnings.append(
                        f"stratum {stratum_id!r}: singleton, share-variance "
                        f"contribution set to 0"
                    )
                continue
            # all-equal values vary by exactly 0, which np.var can miss by a rounding residue
            s2 = 0.0 if np.ptp(z[members]) == 0.0 else float(np.var(z[members], ddof=1))
            fpc = 1.0 - sample.sampling_fractions[int(pos)]
            N_h = sample.stratum_sizes[int(pos)]
            variance += sample.stratum_deff[int(pos)] * N_h**2 * fpc * s2 / n_h
        terms.append(
            ReferenceTerm(domain_id, numerator / total, variance / total**2, 0.0, total)
        )
    return tuple(terms), tuple(warnings)


def reference_variance_components(
    sample, spec, cell, weights, denominator_variable, posterior_mean, draws
):
    """(component1, component2, terms, warnings) of the loop form."""
    terms, warnings = reference_share_and_variance(
        sample, spec, cell, weights, denominator_variable, posterior_mean
    )
    v = spec.variable_names.index(denominator_variable)
    completed = []
    component1 = 0.0
    component2 = 0.0
    for term in terms:
        if term.excluded:
            completed.append(term)
            continue
        d = spec.domain_position(term.domain)
        v_d = float(np.var(draws.draws[:, v * spec.n_domains + d], ddof=1))
        completed.append(
            ReferenceTerm(term.domain, term.share, term.share_variance, v_d, term.domain_total)
        )
        component1 += term.domain_total**2 * term.share_variance
        component2 += term.share**2 * v_d
    return component1, component2, tuple(completed), warnings
