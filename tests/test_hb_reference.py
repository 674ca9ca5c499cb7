"""The samplers against reference posteriors (``hb_reference``).

Each stratum value's posterior mean, SD and 5% and 95% quantiles must lie
within ``Z_LIMIT`` Monte Carlo standard errors of the reference's.  The
Gaussian sampler is held to two references: the quadrature over log sigma2,
whose formula it shares, and a plain Gibbs chain on the model's full
conditionals, which shares none.  The binary sampler is held to the exact
posterior of the logits on a grid.  A golden re-baseline cannot pass a
wrong sampler here.
"""

from __future__ import annotations

import numpy as np
import pytest

from hb_reference import batch_mcse, binary_grid, compare, gaussian_gibbs, gaussian_quadrature, iid_mcse
from postcal.hb import BinaryHBInput, GaussianFHInput, HBPrior, McmcConfig, fit_binary_hb, fit_gaussian_fh

from test_hb_kernels import _GAUSSIAN

Z_LIMIT = 4.0

_WEAK = dict(estimates=[2.0, 3.1, 2.6], sampling_variances=[1.5, 2.5, 2.0], covariates=np.ones((3, 1)))
GAUSSIAN_CASES = {
    "free": (_GAUSSIAN, HBPrior("gaussian")),
    "pinned": (_GAUSSIAN, HBPrior("gaussian", fixed_sigma2=0.8)),
    "weak": (_WEAK, HBPrior("gaussian", prior_df=2.0, prior_scale=0.5)),
}
GAUSSIAN_MCMC = McmcConfig(burnin=200, iterations=15_000, chains=2, seed=3)
GIBBS_ITERATIONS = 6_000


def prior_terms(prior: HBPrior) -> dict:
    return dict(prior_df=prior.prior_df, prior_scale=prior.prior_scale, fixed_sigma2=prior.fixed_sigma2)


@pytest.fixture(scope="module")
def gaussian_references():
    references = {}
    for seed, (name, (data, prior)) in enumerate(GAUSSIAN_CASES.items()):
        inputs = (data["estimates"], data["sampling_variances"], data["covariates"])
        quadrature = gaussian_quadrature(*inputs, **prior_terms(prior))
        gibbs = gaussian_gibbs(*inputs, GIBBS_ITERATIONS, seed, **prior_terms(prior))
        references[name] = quadrature, gibbs
    return references


@pytest.mark.parametrize("name", sorted(GAUSSIAN_CASES))
def test_gaussian_sampler_matches_the_references(gaussian_references, name):
    data, prior = GAUSSIAN_CASES[name]
    (draws,) = fit_gaussian_fh([GaussianFHInput(**data, prior=prior)], GAUSSIAN_MCMC, spawn_keys=[(7,)])
    quadrature, gibbs = gaussian_references[name]
    # the draws are independent
    distance = compare(draws.draws, quadrature, iid_mcse)
    assert distance.max() < Z_LIMIT, distance
    distance = compare(draws.draws, quadrature, iid_mcse, other=(gibbs, batch_mcse))
    assert distance.max() < Z_LIMIT, distance


@pytest.mark.parametrize("name", sorted(GAUSSIAN_CASES))
def test_gibbs_reference_matches_the_quadrature(gaussian_references, name):
    # the two references check each other's formulas
    quadrature, gibbs = gaussian_references[name]
    distance = compare(gibbs, quadrature, batch_mcse)
    assert distance.max() < Z_LIMIT, distance


_BINARY3 = dict(successes=[3, 14, 6], sizes=[20, 25, 18], covariates=np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]]))
BINARY_CASES = {
    "free": HBPrior("binary", prior_df=1.0, prior_scale=0.5),
    "pinned": HBPrior("binary", fixed_sigma2=0.3),
}
BINARY_MCMC = McmcConfig(burnin=300, iterations=2_500, chains=3, seed=5)


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
def test_binary_sampler_matches_the_grid(name):
    prior = BINARY_CASES[name]
    reference = binary_grid(
        _BINARY3["successes"], _BINARY3["sizes"], _BINARY3["covariates"], **prior_terms(prior)
    )
    (draws,) = fit_binary_hb([BinaryHBInput(**_BINARY3, prior=prior)], BINARY_MCMC, spawn_keys=[(7,)])
    distance = compare(draws.draws, reference, batch_mcse)
    assert distance.max() < Z_LIMIT, distance
