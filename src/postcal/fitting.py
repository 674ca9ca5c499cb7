"""Builds per-stratum model inputs from a sample and runs all variable fits."""

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
    compute_psi,
    domain_map,
    draws_to_domain_totals,  # unused here; bench/tracing.py wraps it under this name
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


def model_input(
    sample: SampleSet,
    model: ModelConfig,
    strata_covariates: dict[str, np.ndarray],
    domains: DomainMap,
) -> BinaryHBInput | GaussianFHInput:
    """The validated per-stratum input of one calibration variable's model,
    folded by ``domains``, the sample's ``domain_map`` (which checks that
    every stratum is sampled)."""
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
        return BinaryHBInput(
            successes=stratum_sums,
            sizes=sample.stratum_counts.astype(float),
            covariates=Z,
            prior=model.prior,
            domains=domains,
        )

    return GaussianFHInput(
        estimates=stratum_sums / sample.stratum_counts,
        sampling_variances=compute_psi(sample, model.variable),
        covariates=Z,
        prior=model.prior,
        domains=domains,
    )


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
    carries its sample's ``domain_map``, checked before the sample's first
    input is built.  Variables whose model settings agree in all but the
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
                if v == 0:  # the sample's strata are checked with its first variable
                    domains = domain_map(sample)
                inputs[s, v] = model_input(sample, models[name], strata_covariates, domains)
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
