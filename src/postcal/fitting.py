"""Builds per-stratum model inputs from a sample and runs all variable fits."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError
from .frame import CalibrationSpec, SampleSet
from .hb import (
    BinaryHBInput,
    GaussianFHInput,
    McmcConfig,
    PosteriorDraws,
    StratumDraws,
    compute_psi,
    draws_to_domain_totals,
    fit_binary_hb,
    fit_gaussian_fh,
)

# Continuous variables are modelled as stratum means and scaled by the
# stratum population size when aggregated to domain totals.
CONTINUOUS_SCALE_NOTE = "stratum_means_scaled_by_population_size"


def _covariate_matrix(
    sample: SampleSet,
    model: ModelConfig,
    strata_covariates: dict[str, np.ndarray],
) -> np.ndarray:
    H = len(sample.strata)
    columns = [np.ones(H)]
    for name in model.covariates:
        if name not in strata_covariates:
            raise ConfigError(
                f"model for {model.variable!r} references unknown stratum "
                f"covariate {name!r}"
            )
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
) -> BinaryHBInput | GaussianFHInput:
    """The validated per-stratum input of one calibration variable's model."""
    if model.variable not in sample.calibration.variable_names:
        raise ConfigError(
            f"model variable {model.variable!r} is not a calibration variable"
        )
    empty = [s.id for s, n_h in zip(sample.strata, sample.stratum_counts) if n_h == 0]
    if empty:
        raise DataError(f"strata without sampled records: {empty}")
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
            prior_df=model.prior_df,
            prior_scale=model.prior_scale,
            fixed_sigma2=model.fixed_sigma2,
        )

    psi, degenerate = compute_psi(sample, model.variable)
    if degenerate:
        raise DataError(
            f"variable {model.variable!r}: zero sampling variance is not "
            f"usable in the measurement-error model ({'; '.join(degenerate)})"
        )
    return GaussianFHInput(
        estimates=stratum_sums / sample.stratum_counts,
        sampling_variances=psi,
        covariates=Z,
        prior_df=model.prior_df,
        prior_scale=model.prior_scale,
        fixed_sigma2=model.fixed_sigma2,
    )


def fit_all_variables(
    sample: SampleSet,
    spec: CalibrationSpec,
    models: dict[str, ModelConfig],
    strata_covariates: dict[str, np.ndarray],
    mcmc: McmcConfig,
    base_key: tuple[int, ...] = (),
) -> tuple[PosteriorDraws, dict[str, StratumDraws], tuple[str, ...]]:
    """Fit every calibration variable and aggregate to domain totals.

    Every variable's model input is built and validated first, in spec
    order.  Variables whose model settings agree in all but the variable
    name (kind, priors, covariates, fixed_sigma2) are then fitted in one
    sampler call, their chains advancing as one set of lanes.  Chain
    streams are addressed by (seed, *base_key, variable index, chain), so
    results are reproducible under any grouping or execution order.
    """
    sample.check_spec(spec)
    missing = [v for v in spec.variable_names if v not in models]
    if missing:
        raise ConfigError(f"no model configured for variables {missing}")
    names = spec.variable_names
    inputs = [model_input(sample, models[name], strata_covariates) for name in names]
    groups: dict[ModelConfig, list[int]] = {}
    for v, name in enumerate(names):
        groups.setdefault(replace(models[name], variable=""), []).append(v)
    fitted: dict[int, StratumDraws] = {}
    for setting, members in groups.items():
        fit = fit_binary_hb if setting.kind == "binary" else fit_gaussian_fh
        results = fit(
            [inputs[v] for v in members],
            mcmc,
            spawn_keys=[(*base_key, v) for v in members],
        )
        fitted.update(zip(members, results))
    stratum_draws = {name: fitted[v] for v, name in enumerate(names)}
    warnings = tuple(
        f"{name}: {w}" for name, result in stratum_draws.items() for w in result.warnings
    )
    totals = draws_to_domain_totals(stratum_draws, sample)
    return totals, stratum_draws, warnings
