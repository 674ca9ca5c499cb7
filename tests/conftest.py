import numpy as np
import pytest

from postcal.errors import DataError
from postcal.frame import CalibrationSpec, SampleSet, StratumSpec


def domain_position(spec: CalibrationSpec, domain_id: str) -> int:
    """0-based position of a domain id in the block layout."""
    try:
        return spec.domain_order.index(domain_id)
    except ValueError:
        raise DataError(f"unknown domain {domain_id!r}") from None


def build_design_vector(domain: str, calib_values, spec: CalibrationSpec) -> np.ndarray:
    """Stack one record's calibration values into its p-length design vector.

    Entry (v, d) carries the record's value for variable v when the record
    belongs to domain d, zero otherwise; at most V entries are non-zero.
    A per-record reference: the package reduces over the layout with
    ``block_sums`` and never forms design vectors.
    """
    if len(calib_values) != spec.n_variables:
        raise DataError(
            f"record has {len(calib_values)} calibration values, "
            f"spec declares {spec.n_variables}"
        )
    d = domain_position(spec, domain)
    y = np.zeros(spec.p)
    for v, value in enumerate(calib_values):
        y[v * spec.n_domains + d] = value
    return y


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
