"""Sampler-kernel fixtures: the exact draws of both HB samplers must not move.

``tests/golden/hb_kernels.json`` holds short fits (2-3 chains) in the modes
the demo and smoke goldens do not reach: binary with free, pinned and zero
effect variance, a single pinned stratum, and Gaussian with free and pinned
variance.  Every draw array, the chain tags and the acceptance rates must
match to a relative 1e-9.  Property tests check that each chain reads only
its own stream: a 2-chain fit is the first two chains of a 3-chain fit, and
a model fitted alone draws what it draws in any position of a batch, bit for
bit.  A recording generator pins stream contract v2: the order, method and
size of every draw call, one per variate kind per lane per window, and the
model-major order of the lanes' stream keys.

A change that is meant to move the draws re-baselines the fixture with
``PYTHONPATH=src python tests/test_hb_kernels.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcal import hb
from postcal.errors import DataError, NumericalError
from postcal.hb import (
    BinaryHBInput,
    GaussianFHInput,
    HBPrior,
    McmcConfig,
    fit_binary_hb,
    fit_gaussian_fh,
)

FIXTURE = Path(__file__).resolve().parent / "golden" / "hb_kernels.json"
REL_TOL = 1e-9

_Z5 = np.column_stack([np.ones(5), np.linspace(-1.0, 1.0, 5)])
_BINARY = dict(
    successes=[3, 7, 0, 12, 5], sizes=[10, 15, 8, 20, 9], covariates=_Z5
)
_GAUSSIAN = dict(
    estimates=[4.1, 5.3, 3.2, 6.8, 5.0],
    sampling_variances=[0.4, 0.9, 0.25, 1.6, 0.5],
    covariates=_Z5,
)
# burn-in 120 crosses two adaptation windows and ends inside a third
_MCMC = dict(burnin=120, iterations=30, seed=11, proposal_sd=0.5)


def _pinned(sigma2):
    """A binary model's prior with the effect variance pinned at ``sigma2``."""
    return HBPrior("binary", fixed_sigma2=sigma2)


CASES = {
    "binary-free": (fit_binary_hb, BinaryHBInput(**_BINARY), 3),
    "binary-pinned": (fit_binary_hb, BinaryHBInput(**_BINARY, prior=_pinned(0.3)), 3),
    "binary-no-effects": (fit_binary_hb, BinaryHBInput(**_BINARY, prior=_pinned(0.0)), 2),
    "binary-single-stratum": (
        fit_binary_hb,
        BinaryHBInput(successes=[4], sizes=[11], covariates=[[1.0]], prior=_pinned(0.5)),
        2,
    ),
    "gaussian-free": (fit_gaussian_fh, GaussianFHInput(**_GAUSSIAN), 3),
    "gaussian-pinned": (
        fit_gaussian_fh,
        GaussianFHInput(**_GAUSSIAN, prior=HBPrior("gaussian", fixed_sigma2=0.8)),
        2,
    ),
}

ARRAYS = ("draws", "beta_draws", "sigma2_draws", "chain_tags")


def run_case(name: str):
    fit, model, chains = CASES[name]
    return fit([model], McmcConfig(chains=chains, **_MCMC), spawn_keys=[(2,)])[0]


def as_record(result) -> dict:
    record = {key: getattr(result, key).tolist() for key in ARRAYS}
    record["acceptance"] = dict(result.acceptance)
    return record


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_fixture(fixture, name):
    got, want = as_record(run_case(name)), fixture[name]
    for key in ARRAYS:
        assert np.shape(got[key]) == np.shape(want[key]), key
        np.testing.assert_allclose(got[key], want[key], rtol=REL_TOL, atol=0, err_msg=key)
    assert sorted(got["acceptance"]) == sorted(want["acceptance"])
    for key, value in want["acceptance"].items():
        assert got["acceptance"][key] == pytest.approx(value, rel=REL_TOL, abs=0)


def random_batch(data, size):
    """``size`` small binary or Gaussian inputs that share one setting: the
    covariates, the priors and a variance mode."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="inputs"))
    kind = data.draw(st.sampled_from(["binary", "gaussian"]), label="kind")
    H = data.draw(st.integers(1, 6), label="strata")
    k = data.draw(st.integers(1, min(H, 3)), label="k")
    Z = np.column_stack([np.ones(H), rng.normal(size=(H, k - 1))])
    modes = [None, 0.4] if kind == "gaussian" else [None, 0.4, 0.0]
    fixed = data.draw(st.sampled_from(modes if H > 1 else modes[1:]), label="sigma2")
    if kind == "binary":
        models = []
        for _ in range(size):
            sizes = rng.integers(1, 30, size=H)
            models.append(
                BinaryHBInput(
                    successes=rng.integers(0, sizes + 1), sizes=sizes, covariates=Z,
                    prior=HBPrior("binary", fixed_sigma2=fixed),
                )
            )
        return fit_binary_hb, models
    models = [
        GaussianFHInput(
            estimates=rng.normal(5.0, 2.0, size=H),
            sampling_variances=rng.uniform(0.1, 2.0, size=H),
            covariates=Z,
            prior=HBPrior("gaussian", fixed_sigma2=fixed),
        )
        for _ in range(size)
    ]
    return fit_gaussian_fh, models


def random_model(data):
    """A small binary or Gaussian input in one of its variance modes."""
    fit, (model,) = random_batch(data, 1)
    return fit, model


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chains_read_only_their_own_stream(data):
    fit, model = random_model(data)
    burnin = data.draw(st.integers(0, 130), label="burnin")
    iterations = data.draw(st.integers(1, 20), label="iterations")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")

    def run(chains):
        config = McmcConfig(burnin=burnin, iterations=iterations, chains=chains, seed=seed)
        return fit([model], config, spawn_keys=[(1, 0)])[0]

    two, three = run(2), run(3)
    rows = 2 * iterations
    for key in ARRAYS:
        assert np.array_equal(getattr(two, key), getattr(three, key)[:rows]), key


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_model_draws_do_not_depend_on_the_batch(data):
    check_batch_invariance(data)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_model_draws_do_not_depend_on_the_batch_with_softplus_in_parts(data):
    # the five-call softplus that wide settings use, forced onto small ones
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hb, "_SOFTPLUS_IN_PARTS_STRATA", 1)
        check_batch_invariance(data)


@pytest.mark.parametrize("strata", [6, 40], ids=["logaddexp", "in-parts"])
def test_scaled_softplus_matches_logaddexp(strata):
    # both forms are n * log(1 + exp(eta)) to within a few units in the last place
    rng = np.random.default_rng(strata)
    eta = np.concatenate([rng.normal(0.0, 4.0, (4, strata)), np.full((1, strata), 0.0)])
    eta[0, :4] = [-800.0, 800.0, 1e-300, -1e-300]
    n = rng.integers(1, 50, size=eta.shape).astype(float)
    out, tmp = np.empty_like(eta), np.empty_like(eta)
    np.testing.assert_allclose(
        hb._scaled_softplus(n, eta, out, tmp), n * np.logaddexp(0.0, eta), rtol=1e-15, atol=0
    )


def check_batch_invariance(data):
    size = data.draw(st.integers(1, 3), label="batch")
    fit, models = random_batch(data, size)
    keys = data.draw(
        st.lists(st.integers(0, 9), min_size=size, max_size=size, unique=True), label="keys"
    )
    config = McmcConfig(
        burnin=data.draw(st.integers(0, 130), label="burnin"),
        iterations=data.draw(st.integers(1, 20), label="iterations"),
        chains=data.draw(st.integers(1, 3), label="chains"),
        seed=data.draw(st.integers(0, 2**31 - 1), label="seed"),
    )
    batch = fit(models, config, spawn_keys=[(3, key) for key in keys])
    assert len(batch) == size
    for model, key, together in zip(models, keys, batch):
        (alone,) = fit([model], config, spawn_keys=[(3, key)])
        for name in ARRAYS:
            assert np.array_equal(getattr(alone, name), getattr(together, name)), name
        assert alone.acceptance == together.acceptance
        assert alone.warnings == together.warnings


def test_batch_must_share_one_setting():
    config = McmcConfig(burnin=5, iterations=5, chains=1)
    model = BinaryHBInput(**_BINARY)
    shifted = BinaryHBInput(**{**_BINARY, "covariates": _Z5 + 1.0})
    for other in (
        shifted,
        BinaryHBInput(**_BINARY, prior=HBPrior("binary", prior_df=2.0)),
        BinaryHBInput(**_BINARY, prior=HBPrior("binary", prior_scale=2.0)),
        BinaryHBInput(**_BINARY, prior=HBPrior("binary", fixed_sigma2=0.3)),
    ):
        with pytest.raises(DataError, match="fitted together must share"):
            fit_binary_hb([model, other], config, spawn_keys=[(0,), (1,)])
    gaussian = GaussianFHInput(**_GAUSSIAN)
    with pytest.raises(DataError, match="fitted together must share"):
        fit_gaussian_fh(
            [gaussian, GaussianFHInput(**_GAUSSIAN, prior=HBPrior("gaussian", fixed_sigma2=0.8))],
            config,
            spawn_keys=[(0,), (1,)],
        )
    with pytest.raises(DataError, match="2 models need as many spawn keys, got 1"):
        fit_binary_hb([model, model], config)
    with pytest.raises(DataError, match="at least one model"):
        fit_gaussian_fh([], config, spawn_keys=[])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_log_posterior_names_its_model():
    # n * log(1 + exp(eta)) overflows for the second model only
    config = McmcConfig(burnin=5, iterations=5, chains=2)
    model = BinaryHBInput(**_BINARY)
    huge = BinaryHBInput(successes=np.full(5, 9e307), sizes=np.full(5, 1e308), covariates=_Z5)
    with pytest.raises(NumericalError, match="non-finite log-posterior at initial state") as caught:
        fit_binary_hb([model, huge, model], config, spawn_keys=[(0,), (1,), (2,)])
    assert caught.value.models == (1,)


def test_non_finite_log_posterior_during_sampling_names_its_model():
    # with no successes the likelihood does not bound eta from below, so a
    # huge coefficient step toward -inf is accepted and m * eta = 0 * -inf;
    # the per-iteration check catches it for the second model only
    config = McmcConfig(burnin=200, iterations=50, chains=2, seed=1, proposal_sd=1e307)
    model = BinaryHBInput(**_BINARY)
    zero = BinaryHBInput(**{**_BINARY, "successes": np.zeros(5)})
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as caught:
            fit_binary_hb([model, zero], config, spawn_keys=[(0,), (1,)])
    assert str(caught.value) == "non-finite log-posterior during sampling"
    assert caught.value.models == (1,)


class RecordingRng:
    """A generator that logs each call's method and the shape it returns."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, np.shape(out)))
            return out

        return call


# per window, in call order: the variate kind and its count per iteration
STREAM_CONTRACT = {
    "binary-free": ["normal k", "uniform k", "normal H", "uniform H", "chisquare"],
    "binary-pinned": ["normal k", "uniform k", "normal H", "uniform H"],
    "binary-no-effects": ["normal k", "uniform k"],
    "gaussian-free": ["normal H", "normal k", "chisquare"],
    "gaussian-pinned": ["normal H", "normal k"],
}
METHODS = {"normal": "standard_normal", "uniform": "random", "chisquare": "chisquare"}


@pytest.fixture
def stream_logs(monkeypatch):
    """Each generator's draw-call log, keyed by its spawn key in creation order."""
    logs = {}
    chain_rng = hb.chain_rng

    def recording_rng(seed, *key):
        logs[key] = []
        return RecordingRng(chain_rng(seed, *key), logs[key])

    monkeypatch.setattr(hb, "chain_rng", recording_rng)
    return logs


# burn-in ends inside the second window, and 115 iterations leave a short
# last window of 15
_CONTRACT_MCMC = McmcConfig(burnin=70, iterations=45, chains=3, seed=5)


def contract_log(name, model):
    """One lane's draw calls under ``STREAM_CONTRACT[name]`` for ``_CONTRACT_MCMC``."""
    H, k = model.covariates.shape
    dims = {"k": (k,), "H": (H,), "": ()}
    return [
        (METHODS[kind], (width, *dims[dim]))
        for width in (50, 50, 15)
        for kind, _, dim in (entry.partition(" ") for entry in STREAM_CONTRACT[name])
    ]


@pytest.mark.parametrize("name", sorted(STREAM_CONTRACT))
def test_stream_contract_v2(stream_logs, name):
    fit, model, _ = CASES[name]
    fit([model], _CONTRACT_MCMC, spawn_keys=[(2,)])
    assert list(stream_logs) == [(2, c) for c in range(3)]
    for log in stream_logs.values():
        assert log == contract_log(name, model)


def test_stream_contract_two_models(stream_logs):
    # lanes are model-major: every chain of the first model's key, then of the
    # second's, each reading the one-model contract
    _, model, _ = CASES["binary-free"]
    other = BinaryHBInput(**{**_BINARY, "successes": [1, 2, 3, 4, 5]})
    fit_binary_hb([model, other], _CONTRACT_MCMC, spawn_keys=[(2, 0), (2, 1)])
    assert list(stream_logs) == [(2, 0, c) for c in range(3)] + [(2, 1, c) for c in range(3)]
    for log in stream_logs.values():
        assert log == contract_log("binary-free", model)


def regenerate() -> None:
    """Rewrite the fixture from the current code, one line per case."""
    lines = [f"{json.dumps(name)}: {json.dumps(as_record(run_case(name)))}" for name in sorted(CASES)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
