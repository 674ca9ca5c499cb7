"""Variables whose model settings agree are fitted in one sampler call.

``fit_all_variables`` builds and validates every variable's input first, then
groups the variables by model setting (kind, priors, covariates,
fixed_sigma2) and fits each group as one set of lanes.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from postcal import fitting
from postcal.config import (
    BinaryVariableModel,
    ContinuousVariableModel,
    StratumPlan,
    SyntheticPopulationSpec,
    load_config,
)
from postcal.errors import DataError
from postcal.hb import McmcConfig, chain_rng
from postcal.simulate import draw_stratified_sample, generate_population

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_default.yaml"
MCMC = McmcConfig(burnin=20, iterations=30, chains=2, seed=3)


@pytest.fixture(scope="module")
def frame():
    strata = tuple(
        StratumPlan(id=f"s{h + 1}", domain=f"d{h // 3 + 1}", population_size=300,
                    covariate=-1.0 + 2.0 * h / 5)
        for h in range(6)
    )
    spec = SyntheticPopulationSpec(
        domains=("d1", "d2"),
        strata=strata,
        variables=(
            BinaryVariableModel("employed", intercept=0.4, slope=0.5, stratum_sd=0.15),
            BinaryVariableModel(
                "unemployed", intercept=-1.5, slope=-0.3, exclusive_with="employed"
            ),
            ContinuousVariableModel(
                "hours", mean=38.0, unit_sd=10.0, slope=3.0, clip=(1.0, 60.0),
                gated_by="employed",
            ),
        ),
        seed=13,
    )
    return generate_population(spec)


@pytest.fixture(scope="module")
def default_models():
    return load_config(DEFAULT_CONFIG).models


@pytest.fixture
def calls(monkeypatch):
    """(kind, batch size) of every sampler call, in call order."""
    log = []
    for kind, name in (("binary", "fit_binary_hb"), ("gaussian", "fit_gaussian_fh")):
        original = getattr(fitting, name)

        def recording(models, config, spawn_keys, kind=kind, original=original):
            log.append((kind, len(models)))
            return original(models, config, spawn_keys=spawn_keys)

        monkeypatch.setattr(fitting, name, recording)
    return log


def fit(frame, models):
    sample = draw_stratified_sample(frame, 0.2, chain_rng(5, 0))
    return fitting.fit_all_variables(
        sample, frame.calibration, models, frame.covariates, MCMC, base_key=(0, 1)
    )


def test_default_config_fits_both_binary_variables_in_one_call(frame, default_models, calls):
    _, stratum_draws, _ = fit(frame, default_models)
    assert calls == [("binary", 2), ("gaussian", 1)]
    assert list(stratum_draws) == ["employed", "unemployed", "hours"]
    assert stratum_draws["employed"].acceptance.keys() == {"beta", "effects"}
    assert not np.array_equal(
        stratum_draws["employed"].draws, stratum_draws["unemployed"].draws
    )


@pytest.mark.parametrize(
    "change",
    [{"covariates": ()}, {"prior_scale": 2.0}, {"prior_df": 3.0}, {"fixed_sigma2": 0.5}],
    ids=["covariates", "prior_scale", "prior_df", "fixed_sigma2"],
)
def test_other_setting_gets_its_own_call(frame, default_models, calls, change):
    models = dict(default_models)
    models["unemployed"] = replace(models["unemployed"], **change)
    _, alone, _ = fit(frame, models)
    assert calls == [("binary", 1), ("binary", 1), ("gaussian", 1)]
    # the stream address does not depend on the grouping
    calls.clear()
    _, batched, _ = fit(frame, default_models)
    assert np.array_equal(alone["employed"].draws, batched["employed"].draws)
    assert np.array_equal(alone["hours"].draws, batched["hours"].draws)


def test_later_invalid_input_fails_before_any_sampling(frame, default_models, calls):
    models = dict(default_models)
    models["hours"] = replace(models["hours"], kind="binary")
    with pytest.raises(DataError, match="'hours' is not binary"):
        fit(frame, models)
    assert calls == []
