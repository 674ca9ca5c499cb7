"""Variables whose model settings agree are fitted in one sampler call.

``fit_all_variables`` builds and validates every variable's input first, then
groups the variables by model setting (kind, priors, covariates,
fixed_sigma2) and fits each group in one sampler call.  Each input carries
its sample's domain map, so each sampler call returns every variable's
domain-total draws, which the tests read off the calls; refitting an input
without its map gives its stratum draws.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from postcal import fitting
from postcal.config import (
    BinaryVariableModel,
    ContinuousVariableModel,
    SyntheticPopulationSpec,
    load_config,
)
from postcal.errors import DataError, NumericalError
from postcal.fitting import domain_map
from postcal.frame import SampleSet, StratumSpec
from postcal.hb import HBPrior, McmcConfig, chain_rng, fit_binary_hb, fit_gaussian_fh
from postcal.simulate import draw_stratified_sample, generate_population

from test_hb import added_one_by_one, assert_same_bits

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_default.yaml"
MCMC = McmcConfig(burnin=20, iterations=30, chains=2, seed=3)


@pytest.fixture(scope="module")
def frame():
    strata = tuple(
        StratumSpec(id=f"s{h + 1}", domain=f"d{h // 3 + 1}", population_size=300,
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


class Calls(list):
    """(kind, batch size) of every sampler call, in call order, and by spawn
    key the model input of each call and the ``StratumDraws`` (domain
    totals) it returned."""

    def __init__(self):
        super().__init__()
        self.drawn = {}
        self.inputs = {}


@pytest.fixture
def calls(monkeypatch):
    log = Calls()
    for kind, name in (("binary", "fit_binary_hb"), ("gaussian", "fit_gaussian_fh")):
        original = getattr(fitting, name)

        def recording(models, config, spawn_keys, kind=kind, original=original):
            log.append((kind, len(models)))
            results = original(models, config, spawn_keys=spawn_keys)
            log.drawn.update(zip(spawn_keys, results))
            log.inputs.update(zip(spawn_keys, models))
            return results

        monkeypatch.setattr(fitting, name, recording)
    return log


def fit(frame, models):
    sample = draw_stratified_sample(frame, 0.2, chain_rng(5, 0))
    return fitting.fit_all_variables(
        sample, frame.calibration, models, frame.covariates, MCMC, base_keys=[(0, 1)]
    )


def test_default_config_fits_both_binary_variables_in_one_call(frame, default_models, calls):
    _, acceptance, _ = fit(frame, default_models)
    assert calls == [("binary", 2), ("gaussian", 1)]
    assert list(acceptance) == ["employed", "unemployed", "hours"]
    assert acceptance["employed"].keys() == {"beta", "effects"}
    assert sorted(calls.drawn) == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
    assert not np.array_equal(calls.drawn[0, 1, 0].draws, calls.drawn[0, 1, 1].draws)


@pytest.mark.parametrize(
    "change",
    [{"covariates": ()}, {"prior_scale": 2.0}, {"prior_df": 3.0}, {"fixed_sigma2": 0.5}],
    ids=["covariates", "prior_scale", "prior_df", "fixed_sigma2"],
)
def test_other_setting_gets_its_own_call(frame, default_models, calls, change):
    models = dict(default_models)
    model = models["unemployed"]
    if "covariates" not in change:
        change = {"prior": replace(model.prior, **change)}
    models["unemployed"] = replace(model, **change)
    fit(frame, models)
    assert calls == [("binary", 1), ("binary", 1), ("gaussian", 1)]
    alone = dict(calls.drawn)
    # the stream address does not depend on the grouping
    calls.clear()
    fit(frame, default_models)
    for key in ((0, 1, 0), (0, 1, 2)):  # employed, hours
        assert np.array_equal(alone[key].draws, calls.drawn[key].draws)


def test_later_invalid_input_fails_before_any_sampling(frame, default_models, calls):
    models = dict(default_models)
    models["hours"] = replace(models["hours"], prior=HBPrior("binary"))
    with pytest.raises(DataError, match="'hours' is not binary"):
        fit(frame, models)
    assert calls == []


ARRAYS = ("draws", "chain_tags", "beta_draws", "sigma2_draws")


def test_samples_fitted_together_draw_what_they_draw_alone(frame, default_models, calls):
    samples = [draw_stratified_sample(frame, 0.2, chain_rng(5, s)) for s in range(3)]
    keys = [(s, 1) for s in range(3)]
    together = fitting.fit_all_variables(
        samples, frame.calibration, default_models, frame.covariates, MCMC, base_keys=keys
    )
    # one sampler call per model setting covers every sample
    assert calls == [("binary", 6), ("gaussian", 3)]
    assert len(together) == 3
    batched = dict(calls.drawn)
    names = frame.calibration.variable_names
    for sample, key, (totals, acceptance, warnings) in zip(samples, keys, together):
        calls.drawn.clear()
        alone_totals, alone_acceptance, alone_warnings = fitting.fit_all_variables(
            sample, frame.calibration, default_models, frame.covariates, MCMC, base_keys=[key]
        )
        assert np.array_equal(alone_totals.draws, totals.draws)
        assert np.array_equal(alone_totals.chain_tags, totals.chain_tags)
        assert alone_acceptance == acceptance
        assert list(acceptance) == list(names)
        for v, name in enumerate(names):
            draws, each = calls.drawn[(*key, v)], batched[(*key, v)]
            for array in ARRAYS:
                assert np.array_equal(getattr(draws, array), getattr(each, array)), (name, array)
            assert draws.acceptance == each.acceptance == acceptance[name]
            assert draws.warnings == each.warnings
        assert alone_warnings == warnings
    # each sample's chains read their own streams: the fits differ
    assert not np.array_equal(together[0][0].draws, together[1][0].draws)


def test_totals_are_the_stratum_draws_added_one_by_one(frame, default_models, calls):
    # each variable's columns of the totals are its sampler call's fold,
    # bit for bit the stratum draws of the same input fitted without a map,
    # weighted by N_h and added into their domains in frame order
    sample = draw_stratified_sample(frame, 0.2, chain_rng(5, 0))
    totals, _, _ = fitting.fit_all_variables(
        sample, frame.calibration, default_models, frame.covariates, MCMC, base_keys=[(0, 1)]
    )
    domains = domain_map(sample)
    D = frame.calibration.n_domains
    for v, name in enumerate(frame.calibration.variable_names):
        key = (0, 1, v)
        model = calls.inputs[key]
        assert model.domains == domains
        fit = fit_binary_hb if default_models[name].kind == "binary" else fit_gaussian_fh
        (strata,) = fit([replace(model, domains=None)], MCMC, spawn_keys=[key])
        assert strata.draws.shape == (MCMC.chains * MCMC.iterations, len(frame.strata))
        want = added_one_by_one(strata.draws, domains)
        assert_same_bits(calls.drawn[key].draws, want)
        assert_same_bits(totals.draws[:, v * D : (v + 1) * D], want)
        assert np.array_equal(totals.chain_tags, strata.chain_tags)


def test_fit_holds_no_array_of_every_kept_stratum_value():
    # a 4-replication chunk of the default experiment: its binary call's
    # kept stratum values alone, (lanes, iterations, H), would outweigh the
    # whole fit's peak
    cfg = load_config(DEFAULT_CONFIG)
    frame = generate_population(cfg.simulate.population, cfg.band_rules)
    samples = [
        draw_stratified_sample(frame, cfg.simulate.sampling_fraction, chain_rng(cfg.seed, i, 0))
        for i in range(4)
    ]
    binary = sum(model.kind == "binary" for model in cfg.models.values())
    stratum_bytes = 8 * len(samples) * binary * cfg.mcmc.chains * cfg.mcmc.iterations * len(frame.strata)
    tracemalloc.start()
    try:
        fits = fitting.fit_all_variables(
            samples, frame.calibration, cfg.models, frame.covariates, cfg.mcmc,
            base_keys=[(i, 1) for i in range(4)],
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fits) == 4
    assert peak < stratum_bytes, (peak, stratum_bytes)


def test_every_sample_needs_its_stream_key(frame, default_models):
    samples = [draw_stratified_sample(frame, 0.2, chain_rng(5, s)) for s in range(2)]
    with pytest.raises(DataError, match="2 samples need one stream key and label each"):
        fitting.fit_all_variables(
            samples, frame.calibration, default_models, frame.covariates, MCMC
        )


def test_domain_map_error_names_the_sample(frame, default_models, calls):
    # one record of the second sample's first stratum is moved to another
    # domain; the map is checked with the sample's first variable
    samples = [draw_stratified_sample(frame, 0.2, chain_rng(5, s)) for s in range(2)]
    moved = samples[1]
    domain_idx = moved.domain_idx.copy()
    i = np.flatnonzero(moved.stratum_idx == 0)[0]
    domain_idx[i] = (domain_idx[i] + 1) % frame.calibration.n_domains
    samples[1] = SampleSet(
        moved.strata, moved.calibration, moved.stratum_idx, domain_idx, moved.weights,
        moved.calib, outcomes=moved.outcomes, attribute_codes=moved.attribute_codes,
        calibration_attributes=moved.calibration_attributes,
    )
    first = frame.calibration.variable_names[0]
    with pytest.raises(
        DataError,
        match=rf"^replication 9, variable '{first}': stratum '{moved.strata[0].id}' spans multiple domains",
    ):
        fitting.fit_all_variables(
            samples, frame.calibration, default_models, frame.covariates, MCMC,
            base_keys=[(4, 1), (9, 1)], labels=["replication 4", "replication 9"],
        )
    assert calls == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_sampler_error_names_the_sample_and_variable(frame, default_models, monkeypatch):
    # the second sample's 'unemployed' input is swapped for counts so large
    # that n * log(1 + exp(eta)) overflows at the start of the binary fit
    original = fitting.fit_binary_hb

    def crafted(models, config, spawn_keys):
        models = list(models)
        H = len(models[3].successes)
        models[3] = replace(models[3], successes=np.full(H, 9e307), sizes=np.full(H, 1e308))
        return original(models, config, spawn_keys=spawn_keys)

    monkeypatch.setattr(fitting, "fit_binary_hb", crafted)
    samples = [draw_stratified_sample(frame, 0.2, chain_rng(5, s)) for s in range(2)]
    with pytest.raises(
        NumericalError,
        match=r"^replication 9, variable 'unemployed': non-finite log-posterior at initial state$",
    ):
        fitting.fit_all_variables(
            samples, frame.calibration, default_models, frame.covariates, MCMC,
            base_keys=[(4, 1), (9, 1)], labels=["replication 4", "replication 9"],
        )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "bad,where",
    [
        ((1, 3), "replication 4, variable 'unemployed'; replication 9, variable 'unemployed'"),
        ((2, 3), "replication 9, variable 'employed'; replication 9, variable 'unemployed'"),
    ],
)
def test_batch_sampler_error_names_each_model_at_fault(frame, default_models, monkeypatch, bad, where):
    # the binary call fits (sample, variable) (0, employed), (0, unemployed),
    # (1, employed) and (1, unemployed); the inputs at ``bad`` overflow
    original = fitting.fit_binary_hb

    def crafted(models, config, spawn_keys):
        models = list(models)
        for j in bad:
            H = len(models[j].successes)
            models[j] = replace(models[j], successes=np.full(H, 9e307), sizes=np.full(H, 1e308))
        return original(models, config, spawn_keys=spawn_keys)

    monkeypatch.setattr(fitting, "fit_binary_hb", crafted)
    samples = [draw_stratified_sample(frame, 0.2, chain_rng(5, s)) for s in range(2)]
    with pytest.raises(NumericalError) as refused:
        fitting.fit_all_variables(
            samples, frame.calibration, default_models, frame.covariates, MCMC,
            base_keys=[(4, 1), (9, 1)], labels=["replication 4", "replication 9"],
        )
    assert str(refused.value) == f"{where}: non-finite log-posterior at initial state"
