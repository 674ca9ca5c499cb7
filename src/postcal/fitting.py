"""Turns a sample into the samplers' per-stratum inputs (``compute_psi``,
``domain_map``), runs all variable fits and folds draws into domain totals."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError, NumericalError
from .frame import CalibrationSpec, SampleSet
from .hb import (
    BinaryHBInput,
    DomainMap,
    GaussianFHInput,
    McmcConfig,
    PosteriorDraws,
    StratumDraws,
    fit_binary_hb,
    fit_gaussian_fh,
)

# Continuous variables are modelled as stratum means and scaled by the
# stratum population size when aggregated to domain totals.
CONTINUOUS_SCALE_NOTE = "stratum_means_scaled_by_population_size"

# one sample's fit: domain-total draws, acceptance rates per variable, warnings
SampleFit = tuple[PosteriorDraws, dict[str, dict[str, float]], tuple[str, ...]]


def _covariate_matrix(
    sample: SampleSet,
    model: ModelConfig,
    strata_covariates: dict[str, np.ndarray],
) -> np.ndarray:
    """The H x k covariates of ``model``: a column of ones, named
    ``(intercept)`` in a refusal, then each named stratum covariate."""
    H = len(sample.strata)
    columns = [np.ones(H)]
    for name in model.covariates:
        if name not in strata_covariates:
            raise ConfigError(f"models.{model.variable}.covariates: unknown stratum covariate {name!r}")
        column = np.asarray(strata_covariates[name], dtype=float)
        if column.shape != (H,):
            raise DataError(
                f"stratum covariate {name!r} has {column.shape[0]} rows, "
                f"sample has {H} strata"
            )
        columns.append(column)
    return np.column_stack(columns)


def compute_psi(sample: SampleSet, variable: str) -> np.ndarray:
    """Known sampling variances deff * (1 - f) * S^2 / n per stratum, in
    frame order: ``SampleSet.stratum_mean_variance`` of the variable's
    column.  A stratum with fewer than two records is an error, since S^2
    needs n_h >= 2, and so is a zero value (a census stratum or a constant
    variable), which the measurement-error model cannot use.
    """
    column = sample.column(variable)
    counts = sample.stratum_counts
    too_small = [sample.strata[h].id for h in np.flatnonzero(counts < 2)]
    if too_small:
        raise DataError(f"sampling variance needs n_h >= 2 in strata {too_small}", f"variable {variable!r}: ")
    psi = sample.stratum_mean_variance(column)
    degenerate = "; ".join(
        f"stratum {sample.strata[h].id!r}: degenerate sampling variance "
        f"({'census stratum' if sample.sampling_fractions[h] == 1.0 else 'constant variable'})"
        for h in np.flatnonzero(psi == 0.0)
    )
    if degenerate:
        cause = f"zero sampling variance is not usable in the measurement-error model ({degenerate})"
        raise DataError(cause, f"variable {variable!r}: ")
    return psi


def domain_map(sample: SampleSet) -> DomainMap:
    """The map that folds a sample's stratum values into its domain totals:
    each stratum's domain, weighted by its population size N_h.  Errors if a
    stratum has no sampled record, or has records in more than one domain:
    the first such stratum in frame order is named.
    """
    empty = [s.id for s, n_h in zip(sample.strata, sample.stratum_counts) if n_h == 0]
    if empty:
        raise DataError(f"strata without sampled records: {empty}")
    present = sample.stratum_domain_pairs
    spanning = np.flatnonzero(present.sum(axis=1) > 1)
    if spanning.size:
        h = spanning[0]
        domains = sorted(sample.domain_ids[d] for d in np.flatnonzero(present[h]))
        raise DataError(f"stratum {sample.strata[h].id!r} spans multiple domains {domains}")
    return DomainMap(present.argmax(axis=1), sample.stratum_sizes, sample.calibration.n_domains)


def model_input(
    sample: SampleSet,
    model: ModelConfig,
    strata_covariates: dict[str, np.ndarray],
) -> BinaryHBInput | GaussianFHInput:
    """The validated per-stratum input of one calibration variable's model,
    folded by the sample's ``domain_map``, built first, which checks that
    every stratum is sampled; a refusal of the input names the variable."""
    domains = domain_map(sample)
    if model.variable not in sample.calibration.variable_names:
        raise ConfigError(
            f"model variable {model.variable!r} is not a calibration variable"
        )
    column = sample.column(model.variable)
    Z = _covariate_matrix(sample, model, strata_covariates)
    # stratum sums of 0/1 values are exact integers in any summation order
    stratum_sums = np.bincount(
        sample.stratum_idx, column, minlength=len(sample.strata)
    )

    if model.kind == "binary":
        if not ((column == 0.0) | (column == 1.0)).all():
            raise DataError(
                f"variable {model.variable!r} is not binary; found values "
                f"outside {{0, 1}}"
            )
        kind = BinaryHBInput
        data = {"successes": stratum_sums, "sizes": sample.stratum_counts.astype(float)}
    else:
        kind = GaussianFHInput
        data = {
            "estimates": stratum_sums / sample.stratum_counts,
            "sampling_variances": compute_psi(sample, model.variable),
        }
    try:
        names = ("(intercept)", *model.covariates)
        return kind(**data, covariates=Z, prior=model.prior, domains=domains, covariate_names=names)
    except (DataError, NumericalError) as error:
        raise error.within(f"variable {model.variable!r}: ")


def fit_all_variables(
    samples: SampleSet | Sequence[SampleSet],
    spec: CalibrationSpec,
    models: dict[str, ModelConfig],
    strata_covariates: dict[str, np.ndarray],
    mcmc: McmcConfig,
    base_keys: Sequence[tuple[int, ...]] = ((),),
    labels: Sequence[str] = (),
) -> list[SampleFit] | SampleFit:
    """Fit every calibration variable of every sample and aggregate each
    sample's draws to domain totals.

    The samples share the strata of ``strata_covariates``; a lone
    ``SampleSet`` is fitted as a one-sample sequence and gives its own fit,
    whose warnings are prefixed with their variable's name.  Every model
    input is built and validated first, sample by sample in spec order, and
    carries its sample's ``domain_map``, so that a refusal of the map names
    the sample's first variable.  Variables whose model settings agree in all but the
    variable name (prior and covariates) are then fitted in one sampler call
    across all the samples, their chains advancing as one set of lanes.  Chain c of
    variable v of sample s reads the stream (seed, *base_keys[s], v, c), so
    results are reproducible under any grouping, batching or execution
    order.  The samplers fold their kept values into domain totals as they
    go, so no call holds every kept stratum value, and each call's totals
    are copied into their samples' draw matrices.  A sample's fit is its
    domain totals, the acceptance rates of each variable's random walks and
    the warnings.  With ``labels`` (one per sample), a ``DataError`` or
    ``NumericalError`` raised for one sample's variable names them, as in
    "replication 7, variable 'hours': ...".
    """
    if isinstance(samples, SampleSet):
        return fit_all_variables([samples], spec, models, strata_covariates, mcmc, base_keys)[0]
    if len(base_keys) != len(samples) or (labels and len(labels) != len(samples)):
        raise DataError(f"{len(samples)} samples need one stream key and label each")
    for sample in samples:
        sample.check_spec(spec)
    missing = [v for v in spec.variable_names if v not in models]
    if missing:
        raise ConfigError(f"no model configured for variables {missing}")
    names = spec.variable_names

    def name_in(error: DataError | NumericalError, members) -> None:
        # the labelled (sample, variable) pairs at fault; compute_psi's refusal names its variable
        if labels:
            *others, (s, v) = members
            earlier = "".join(f"{labels[t]}, variable {names[u]!r}; " for t, u in others)
            error.within(f"{earlier}{labels[s]}, ", f"variable {names[v]!r}: ")

    inputs: dict[tuple[int, int], BinaryHBInput | GaussianFHInput] = {}
    for s, sample in enumerate(samples):
        for v, name in enumerate(names):
            try:
                inputs[s, v] = model_input(sample, models[name], strata_covariates)
            except (DataError, NumericalError) as error:
                name_in(error, [(s, v)])
                raise
    groups: dict[ModelConfig, list[tuple[int, int]]] = {}
    for s, v in inputs:
        groups.setdefault(replace(models[names[v]], variable=""), []).append((s, v))
    n_draws = mcmc.chains * mcmc.iterations
    totals: dict[int, np.ndarray] = {}  # made as their first call returns
    acceptance: dict[tuple[int, int], dict[str, float]] = {}
    warnings: dict[tuple[int, int], tuple[str, ...]] = {}
    for setting, members in groups.items():
        fit = fit_binary_hb if setting.kind == "binary" else fit_gaussian_fh
        try:
            results = fit(
                [inputs[member] for member in members],
                mcmc,
                spawn_keys=[(*base_keys[s], v) for s, v in members],
            )
        except NumericalError as error:
            name_in(error, [members[j] for j in error.models])
            raise
        for (s, v), result in zip(members, results):
            if s not in totals:
                totals[s] = np.empty((n_draws, len(names), spec.n_domains))
            totals[s][:, v] = result.draws
            acceptance[s, v], warnings[s, v] = result.acceptance, result.warnings
        tags = result.chain_tags
        del results, result  # this call's kept draws go before the next call's

    return [
        (
            PosteriorDraws(draws=totals[s].reshape(n_draws, spec.p), chain_tags=tags),
            {name: acceptance[s, v] for v, name in enumerate(names)},
            tuple(f"{name}: {w}" for v, name in enumerate(names) for w in warnings[s, v]),
        )
        for s in range(len(samples))
    ]


def draws_to_domain_totals(stratum_draws: dict[str, StratumDraws], sample: SampleSet) -> PosteriorDraws:
    """Aggregate stratum draws into the p-vector of domain-total draws.

    Binary draws (p_h) and Gaussian draws of stratum means (theta_h) both
    scale by the stratum population size: the domain total draw is the sum
    over strata in the domain of N_h * draw_h, in frame order, folded by
    ``domain_map(sample)`` as the samplers fold their kept values.
    """
    spec = sample.calibration
    missing = [v for v in spec.variable_names if v not in stratum_draws]
    if missing:
        raise DataError(f"missing stratum draws for variables {missing}")
    domains = domain_map(sample)
    first = stratum_draws[spec.variable_names[0]]
    tags, n_draws = first.chain_tags, first.draws.shape[0]
    totals = np.empty((n_draws, spec.n_variables, spec.n_domains))
    for v, name in enumerate(spec.variable_names):
        d = stratum_draws[name]
        if d.draws.shape[1] != len(sample.strata):
            raise DataError(
                f"variable {name!r}: draws cover {d.draws.shape[1]} strata, "
                f"sample has {len(sample.strata)}"
            )
        if d.draws.shape[0] != n_draws or not np.array_equal(d.chain_tags, tags):
            raise DataError("stratum draws disagree on chain layout")
        domains.fold(d.draws.T, totals[:, v].T)
    return PosteriorDraws(draws=totals.reshape(n_draws, spec.p), chain_tags=tags)
