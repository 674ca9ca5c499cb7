import numpy as np
import pytest

from postcal.frame import CalibrationSpec, SampleSet, StratumSpec


def sample_from_rows(rows, strata, spec, attributes=None, outcomes=None, calibration_attributes=()):
    """Columnar sample from (stratum id, domain id, weight, calib values) rows
    laid out by the calibration ``spec``.

    ``attributes`` and ``outcomes`` map names to per-row columns;
    ``calibration_attributes`` names the attributes derived from calibration
    variables.
    """
    strata = tuple(strata)
    stratum_pos = {s.id: i for i, s in enumerate(strata)}
    domain_pos = {d: i for i, d in enumerate(spec.domain_order)}
    stratum_ids, domain_ids, weights, calib = zip(*rows)
    return SampleSet(
        strata,
        spec,
        stratum_idx=[stratum_pos[s] for s in stratum_ids],
        domain_idx=[domain_pos[d] for d in domain_ids],
        weights=weights,
        calib=calib,
        attributes=attributes,
        outcomes=outcomes,
        calibration_attributes=calibration_attributes,
    )


def take_rows(sample, rows):
    """The sample restricted to, and reordered by, the given row indices."""
    return SampleSet(
        sample.strata,
        sample.calibration,
        sample.stratum_idx[rows],
        sample.domain_idx[rows],
        sample.weights[rows],
        sample.calib[rows],
        {name: column[rows] for name, column in sample.attributes.items()},
        {name: column[rows] for name, column in sample.outcomes.items()},
        sample.calibration_attributes,
    )


def make_random_sample(
    n: int,
    n_variables: int,
    n_domains: int,
    seed: int,
    n_strata: int = 2,
    binary_first: bool = True,
):
    """Random but reproducible sample with full-rank calibration support."""
    rng = np.random.default_rng(seed)
    strata = tuple(
        StratumSpec(f"s{h + 1}", population_size=10 * n) for h in range(n_strata)
    )
    spec = CalibrationSpec(
        variable_names=tuple(f"v{k + 1}" for k in range(n_variables)),
        domain_order=tuple(f"d{j + 1}" for j in range(n_domains)),
    )
    # draws interleave per record in the order the fixture always used
    calib = np.empty((n, n_variables))
    weights = np.empty(n)
    group = np.empty(n, dtype=object)
    u = np.empty(n)
    for i in range(n):
        for k in range(n_variables):
            if binary_first and k == 0:
                calib[i, k] = float(rng.random() < 0.6)
            else:
                calib[i, k] = float(rng.uniform(0.5, 40.0))
        weights[i] = float(rng.uniform(1.0, 5.0))
        group[i] = "a" if rng.random() < 0.5 else "b"
        u[i] = float(rng.normal(10.0, 3.0))
    rows = np.arange(n)
    sample = SampleSet(
        strata,
        spec,
        stratum_idx=rows % n_strata,
        domain_idx=rows % n_domains,
        weights=weights,
        calib=calib,
        attributes={"group": group},
        outcomes={"u": u},
    )
    return sample, spec


@pytest.fixture
def small_sample():
    """30 records, 2 variables (binary + continuous), 2 domains, 2 strata."""
    return make_random_sample(30, 2, 2, seed=42)
