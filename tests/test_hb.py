import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from postcal import hb
from postcal.errors import DataError, NumericalError
from postcal.fitting import compute_psi, domain_map, draws_to_domain_totals
from postcal.frame import (
    CalibrationSpec,
    SampleSet,
    StratumSpec,
)
from postcal.hb import (
    BinaryHBInput,
    DomainMap,
    GaussianFHInput,
    HBPrior,
    McmcConfig,
    PosteriorDraws,
    StratumDraws,
    fit_binary_hb,
    fit_gaussian_fh,
    gelman_rubin,
)

from conftest import sample_from_rows
from hb_reference import batch_mcse


class TestBinarySampler:
    def test_single_stratum_matches_grid_oracle(self):
        # with the stratum effect pinned to zero the posterior is a smooth
        # 1-d density over the intercept; integrate it on a fine grid
        model = BinaryHBInput(
            successes=[5], sizes=[10], covariates=[[1.0]], prior=HBPrior("binary", fixed_sigma2=0.0)
        )
        config = McmcConfig(burnin=500, iterations=3000, chains=3, seed=11, proposal_sd=0.8)
        result = fit_binary_hb([model], config)[0]
        eta = np.linspace(-15.0, 15.0, 400_001)
        loglik = 5 * eta - 10 * np.logaddexp(0.0, eta)
        weight = np.exp(loglik - loglik.max())
        expit = 1.0 / (1.0 + np.exp(-eta))
        oracle = np.trapezoid(expit * weight, eta) / np.trapezoid(weight, eta)
        sampled = result.draws[:, 0]
        tol = 3.0 * max(batch_mcse(sampled), 1e-4)
        assert abs(sampled.mean() - oracle) < tol

    def test_all_zero_successes(self):
        model = BinaryHBInput(
            successes=[0, 0, 0],
            sizes=[30, 30, 30],
            covariates=np.ones((3, 1)),
            prior=HBPrior("binary", prior_df=1.0, prior_scale=0.5),
        )
        result = fit_binary_hb([model], McmcConfig(burnin=300, iterations=800, chains=2, seed=3))[0]
        assert any("no successes" in w for w in result.warnings)
        assert np.all(result.draws > 0.0) and np.all(result.draws < 1.0)
        assert result.draws.mean() < 0.1

    def test_all_successes_flagged(self):
        model = BinaryHBInput(
            successes=[20, 20],
            sizes=[20, 20],
            covariates=np.ones((2, 1)),
        )
        result = fit_binary_hb([model], McmcConfig(burnin=100, iterations=200, chains=1, seed=4))[0]
        assert any("all trials" in w for w in result.warnings)

    def test_degenerate_inputs_keep_open_support(self):
        # with boundary data the regression drift pushes the logit to
        # extremes; retained probabilities must stay strictly inside (0, 1)
        model = BinaryHBInput(
            successes=[50, 50],
            sizes=[50, 50],
            covariates=np.ones((2, 1)),
            prior=HBPrior("binary", fixed_sigma2=0.0),
        )
        result = fit_binary_hb(
            [model], McmcConfig(burnin=1000, iterations=3000, chains=1, seed=2, proposal_sd=2.0)
        )[0]
        assert np.all(result.draws > 0.0)
        assert np.all(result.draws < 1.0)

    def test_identical_strata_are_exchangeable(self):
        model = BinaryHBInput(
            successes=[12, 12],
            sizes=[40, 40],
            covariates=np.ones((2, 1)),
            prior=HBPrior("binary", prior_df=2.0, prior_scale=0.3),
        )
        result = fit_binary_hb(
            [model], McmcConfig(burnin=400, iterations=2000, chains=3, seed=8)
        )[0]
        ks = stats.ks_2samp(result.draws[:, 0], result.draws[:, 1]).statistic
        assert ks < 0.08

    def test_sigma2_draws_positive(self):
        model = BinaryHBInput(
            successes=[3, 9, 15],
            sizes=[30, 30, 30],
            covariates=np.ones((3, 1)),
        )
        result = fit_binary_hb([model], McmcConfig(burnin=200, iterations=500, chains=2, seed=6))[0]
        assert np.all(result.sigma2_draws > 0.0)
        assert np.all((result.draws > 0.0) & (result.draws < 1.0))

    def test_single_stratum_needs_pinned_variance(self):
        with pytest.raises(DataError, match="at least 2 strata"):
            BinaryHBInput(successes=[5], sizes=[10], covariates=[[1.0]])

    def test_invalid_counts_rejected(self):
        with pytest.raises(DataError, match="m_h"):
            BinaryHBInput(
                successes=[11], sizes=[10], covariates=[[1.0]], prior=HBPrior("binary", fixed_sigma2=0.0)
            )

    def test_pinned_variance_below_zero_rejected(self):
        # a pinned 0 switches the stratum effects off; below it is no variance
        with pytest.raises(DataError, match="fixed_sigma2: expected >= 0 for the binary model"):
            HBPrior("binary", fixed_sigma2=-1.0)


MODEL_DATA = [
    (BinaryHBInput, {"successes": [1.0, 2.0], "sizes": [3.0, 4.0]}),
    (GaussianFHInput, {"estimates": [1.0, 2.0], "sampling_variances": [0.5, 0.5]}),
]


@pytest.mark.parametrize("model,data", MODEL_DATA, ids=["binary", "gaussian"])
@pytest.mark.parametrize(
    "change,error,message",
    [
        ({"covariates": np.ones((3, 1))}, DataError, "covariate rows must match the number of strata"),
        ({"covariates": [1.0, 1.0]}, DataError, "covariate rows must match the number of strata"),
        ({"covariates": [[1.0], [np.nan]]}, NumericalError, "non-finite model inputs"),
        ({"prior": "other"}, DataError, "prior: a {kind} model needs a {kind} prior, got a {other} one"),
        ({"domains": DomainMap.identity(3)}, DataError, "domain map covers 3 strata, model has 2"),
        # the flat beta prior makes either posterior improper
        ({"covariates": [[1.0, 0.0], [1.0, 0.0]]}, DataError,
         "covariate cross-product is singular; collinear columns [1]"),
        # named columns are named; the pivot keeps the larger column c
        ({"covariates": [[1.0, 5.0], [1.0, 5.0]], "covariate_names": ("(intercept)", "c")}, DataError,
         "covariate cross-product is singular; collinear columns ['(intercept)']"),
        ({"covariate_names": ("a", "b")}, DataError, "2 covariate names for 1 covariate columns"),
        # of two faults, the one checked first is reported
        ({"covariates": np.ones((3, 1)), "prior": "other"}, DataError, "covariate rows"),
    ],
    ids=["rows", "rows-1d", "non-finite", "prior", "domains", "collinear", "collinear-named", "names", "rows-first"],
)
def test_model_inputs_share_their_checks(model, data, change, error, message):
    kind, other = ("binary", "gaussian") if model is BinaryHBInput else ("gaussian", "binary")
    if "prior" in change:
        change = {**change, "prior": HBPrior(other)}
    with pytest.raises(error, match=re.escape(message.format(kind=kind, other=other))):
        model(**{"covariates": np.ones((2, 1)), **data, **change})


@pytest.mark.parametrize(
    "model,data",
    [
        (BinaryHBInput, {"successes": [1.0, 2.0, 3.0], "sizes": [4.0, 5.0, 6.0]}),
        (GaussianFHInput, {"estimates": [1.0, 2.0, 3.0], "sampling_variances": [0.5, 0.5, 0.5]}),
    ],
    ids=["binary", "gaussian"],
)
def test_covariates_are_read_as_strata_by_columns(model, data):
    # a k x H matrix was transposed when k != H and read as given when k == H,
    # which fits another model; only H x k is read
    with pytest.raises(DataError, match="covariate rows must match the number of strata"):
        model(**data, covariates=[[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
    z = [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]
    assert np.array_equal(model(**data, covariates=z).covariates, z)


@pytest.mark.parametrize(
    "prior,message",
    [
        ({"prior_scale": 0.0}, "prior_scale: expected positive, got 0.0"),
        ({"prior_df": -1}, "prior_df: expected positive, got -1"),
        ({"kind": "poisson"}, "kind: expected 'binary' or 'gaussian', got 'poisson'"),
        ({"kind": "gaussian", "fixed_sigma2": 0.0}, "fixed_sigma2: expected > 0 for the gaussian model, got 0.0"),
        # a pinned variance is a finite real: a fit would otherwise draw NaN
        ({"kind": "gaussian", "fixed_sigma2": float("inf")}, "fixed_sigma2: expected real, got inf"),
        ({"fixed_sigma2": float("nan")}, "fixed_sigma2: expected real, got nan"),
        ({"fixed_sigma2": True}, "fixed_sigma2: expected real, got True"),
        # of two faults, the one checked first is reported
        ({"prior_df": 0.0, "fixed_sigma2": -1.0}, "prior_df"),
    ],
    ids=["scale", "df", "kind", "gaussian-sigma2", "inf", "nan", "true", "df-first"],
)
def test_prior_refuses_by_field(prior, message):
    with pytest.raises(DataError, match=re.escape(message)):
        HBPrior(**{"kind": "binary", **prior})


@pytest.mark.parametrize(
    "model,data,message",
    [
        (BinaryHBInput, {"successes": 3.0, "sizes": 5.0}, "successes and sizes must be 1-d"),
        (GaussianFHInput, {"estimates": 3.0, "sampling_variances": 1.0}, "must align"),
    ],
    ids=["binary", "gaussian"],
)
def test_scalar_stratum_values_rejected(model, data, message):
    with pytest.raises(DataError, match=message):
        model(covariates=[1.0], **data)


class TestGaussianSampler:
    def test_matches_gls_shrinkage_oracle(self):
        estimates = np.array([10.0, 12.0, 8.0, 11.0, 9.5, 10.5])
        psi = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.8])
        sigma2 = 4.0
        model = GaussianFHInput(
            estimates=estimates,
            sampling_variances=psi,
            covariates=np.ones((6, 1)),
            prior=HBPrior("gaussian", fixed_sigma2=sigma2),
        )
        result = fit_gaussian_fh(
            [model], McmcConfig(burnin=500, iterations=4000, chains=3, seed=21)
        )[0]
        # closed form: precision-weighted blend of the direct estimate and
        # the GLS synthetic mean
        V = psi + sigma2
        beta_gls = (estimates / V).sum() / (1.0 / V).sum()
        gamma = sigma2 / (sigma2 + psi)
        blup = gamma * estimates + (1.0 - gamma) * beta_gls
        means = result.draws.mean(axis=0)
        for h in range(6):
            tol = 3.0 * max(batch_mcse(result.draws[:, h]), 1e-4)
            assert abs(means[h] - blup[h]) < tol
        # iterated-expectation identity with the sampler's own beta mean
        mu = result.beta_draws.mean()
        blend = (estimates / psi + mu / sigma2) / (1.0 / psi + 1.0 / sigma2)
        assert np.max(np.abs(means - blend)) < 0.05

    def test_uninformative_stratum_shrinks_to_synthetic(self):
        estimates = np.array([10.0, 11.0, 9.0, 123.0])
        psi = np.array([0.5, 0.5, 0.5, 1e8])
        model = GaussianFHInput(
            estimates=estimates,
            sampling_variances=psi,
            covariates=np.ones((4, 1)),
            prior=HBPrior("gaussian", fixed_sigma2=1.0),
        )
        result = fit_gaussian_fh(
            [model], McmcConfig(burnin=500, iterations=3000, chains=2, seed=9)
        )[0]
        theta_big = result.draws[:, 3]
        beta = result.beta_draws[:, 0]
        assert abs(theta_big.mean() - beta.mean()) < 0.2
        assert abs(theta_big.mean() - 123.0) > 100.0

    def test_symmetric_inputs_give_equal_means(self):
        model = GaussianFHInput(
            estimates=np.full(4, 7.0),
            sampling_variances=np.full(4, 1.0),
            covariates=np.ones((4, 1)),
            prior=HBPrior("gaussian", prior_df=2.0, prior_scale=1.0),
        )
        result = fit_gaussian_fh(
            [model], McmcConfig(burnin=400, iterations=3000, chains=2, seed=14)
        )[0]
        means = result.draws.mean(axis=0)
        assert np.max(means) - np.min(means) < 0.1

    def test_collinear_covariates_named(self):
        # columns 1 and 2 are proportional; either may be reported
        Z = np.column_stack([np.ones(5), np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(DataError, match=r"collinear columns \[[12]\]"):
            fit_gaussian_fh(
                [
                    GaussianFHInput(
                        estimates=np.arange(5.0),
                        sampling_variances=np.ones(5),
                        covariates=Z,
                    )
                ],
                McmcConfig(burnin=10, iterations=10, chains=1, seed=0),
            )

    def test_nonpositive_sampling_variance_rejected(self):
        with pytest.raises(DataError, match="sampling variances"):
            GaussianFHInput(
                estimates=np.zeros(3),
                sampling_variances=np.array([1.0, 0.0, 2.0]),
                covariates=np.ones((3, 1)),
            )


def psi_sample(values_by_stratum, sizes, deff=1.0):
    strata = tuple(
        StratumSpec(f"s{k + 1}", population_size=sizes[k], deff=deff)
        for k in range(len(values_by_stratum))
    )
    records = [
        (f"s{k + 1}", "d1", 1.0, (float(v),))
        for k, values in enumerate(values_by_stratum)
        for v in values
    ]
    spec = CalibrationSpec(("y",), ("d1",))
    return sample_from_rows(records, strata, spec), spec


class TestComputePsi:
    def test_hand_arithmetic(self):
        # S^2 of {1,2,3} is 1; psi = (1 - 3/30) * 1 / 3 = 0.3
        sample, spec = psi_sample([[1.0, 2.0, 3.0]], [30])
        psi = compute_psi(sample, "y")
        assert psi.shape == (1,)
        assert psi[0] == pytest.approx(0.3, abs=1e-12)

    def test_census_stratum_zero_via_fpc(self):
        sample, spec = psi_sample([[1.0, 2.0, 3.0]], [3])
        with pytest.raises(DataError, match=re.escape("stratum 's1': degenerate sampling variance (census stratum)")):
            compute_psi(sample, "y")

    def test_constant_variable_flagged(self):
        sample, spec = psi_sample([[5.0, 5.0, 5.0]], [30])
        with pytest.raises(DataError, match="constant variable"):
            compute_psi(sample, "y")

    @pytest.mark.parametrize("n", [10, 60, 125])
    def test_constant_column_is_exactly_zero(self, n):
        # np.var of 0.1 repeated 60 times is about 1.8e-33, not 0
        sample, spec = psi_sample([[0.1] * n], [10 * n])
        assert sample.stratum_mean_variance(sample.column("y"))[0] == 0.0
        with pytest.raises(DataError) as refusal:
            compute_psi(sample, "y")
        assert str(refusal.value) == (
            "variable 'y': zero sampling variance is not usable in the measurement-error model "
            "(stratum 's1': degenerate sampling variance (constant variable))"
        )

    def test_deff_multiplies(self):
        sample, spec = psi_sample([[1.0, 2.0, 3.0]], [30], deff=2.5)
        psi = compute_psi(sample, "y")
        assert psi[0] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("second", [[7.0], []], ids=["singleton", "empty"])
    def test_singleton_stratum_rejected(self, second):
        sample, spec = psi_sample([[1.0, 2.0], second], [20, 20])
        with pytest.raises(DataError, match=re.escape("sampling variance needs n_h >= 2 in strata ['s2']")):
            compute_psi(sample, "y")


def aggregation_fixture():
    """3 strata, 2 domains: s1 and s2 in dA, s3 in dB."""
    spec = CalibrationSpec(("v1",), ("dA", "dB"))
    strata = (
        StratumSpec("s1", 100),
        StratumSpec("s2", 200),
        StratumSpec("s3", 300),
    )
    records = [
        ("s1", "dA", 1.0, (1.0,)),
        ("s2", "dA", 1.0, (0.0,)),
        ("s3", "dB", 1.0, (1.0,)),
    ]
    sample = sample_from_rows(records, strata, spec)
    return sample, spec


class TestStratumDomainMap:
    def test_each_stratum_maps_to_its_domain(self):
        sample, _ = aggregation_fixture()
        domains = domain_map(sample)
        assert [sample.domain_ids[d] for d in domains.positions] == ["dA", "dA", "dB"]

    def test_first_unassigned_stratum_in_frame_order_is_named(self):
        spec = CalibrationSpec(("v1",), ("dA", "dB"))
        strata = tuple(StratumSpec(f"s{k}", 100) for k in (1, 2, 3, 4))
        spans = [("s1", "dA"), ("s3", "dB"), ("s3", "dA"), ("s4", "dB")]
        records = [(s, d, 1.0, (1.0,)) for s, d in spans]
        with pytest.raises(DataError, match=re.escape("strata without sampled records: ['s2']")):
            domain_map(sample_from_rows(records, strata, spec))
        records.append(("s2", "dA", 1.0, (1.0,)))
        with pytest.raises(DataError, match=r"'s3' spans multiple domains \['dA', 'dB'\]"):
            domain_map(sample_from_rows(records, strata, spec))


def folded(sample, values):
    """(B, H) stratum values folded into (B, D) domain totals by the
    sample's ``domain_map``, as the samplers fold their kept values."""
    values = np.asarray(values, dtype=float)
    out = np.empty((sample.calibration.n_domains, values.shape[0]))
    domain_map(sample).fold(values.T, out)
    return out.T


def added_one_by_one(values, domains):
    """The reference fold: zeros, then each weighted stratum added into its
    domain's column in frame order."""
    scaled = values * domains.weights
    totals = np.zeros((values.shape[0], domains.n_domains))
    for h, d in enumerate(domains.positions):
        totals[:, d] += scaled[:, h]
    return totals


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def domain_maps(draw):
    """Maps of up to 30 strata; one domain holds 8 or more, interleaved
    with the others, since NumPy sums 8 or more terms pairwise where it can."""
    n_domains = draw(st.integers(1, 5), label="domains")
    crowded = draw(st.integers(8, 12), label="crowded")
    others = draw(st.lists(st.integers(0, n_domains - 1), max_size=18), label="others")
    positions = draw(st.permutations([0] * crowded + others), label="positions")
    weights = draw(
        st.lists(st.integers(1, 5000), min_size=len(positions), max_size=len(positions)),
        label="weights",
    )
    return DomainMap(positions, np.array(weights, dtype=float), n_domains)


def spread_values(rng, shape):
    # magnitudes over 16 decades and some signed zeros, so that any other
    # order of addition rounds differently
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    values[rng.random(shape) < 0.05] = -0.0
    return values


class TestDomainAggregation:
    def test_hand_computed_totals(self):
        sample, spec = aggregation_fixture()
        totals = folded(sample, [[0.5, 0.2, 0.1], [0.4, 0.3, 0.2]])
        # dA: 100*p1 + 200*p2 ; dB: 300*p3
        assert totals[0].tolist() == [100 * 0.5 + 200 * 0.2, 300 * 0.1]
        assert totals[1].tolist() == [100 * 0.4 + 200 * 0.3, 300 * 0.2]

    def test_single_stratum_direct_product(self):
        spec = CalibrationSpec(("v1",), ("dA",))
        sample = sample_from_rows(
            [("s1", "dA", 1.0, (1.0,))],
            (StratumSpec("s1", 100),),
            spec,
        )
        assert folded(sample, [[0.5]])[0, 0] == 50.0

    def test_linear_in_population_sizes(self):
        sample, spec = aggregation_fixture()
        draws = [[0.5, 0.2, 0.1]]
        base = folded(sample, draws)
        scaled_sample = SampleSet(
            tuple(
                StratumSpec(s.id, s.population_size * 3, s.deff)
                for s in sample.strata
            ),
            sample.calibration,
            sample.stratum_idx,
            sample.domain_idx,
            sample.weights,
            sample.calib,
        )
        scaled = folded(scaled_sample, draws)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-14)

    def test_stratum_spanning_domains_rejected(self):
        spec = CalibrationSpec(("v1",), ("dA", "dB"))
        records = [
            ("s1", "dA", 1.0, (1.0,)),
            ("s1", "dB", 1.0, (1.0,)),
        ]
        sample = sample_from_rows(records, (StratumSpec("s1", 10),), spec)
        with pytest.raises(DataError, match="multiple domains"):
            domain_map(sample)

    def test_missing_variable_rejected(self):
        sample, spec = aggregation_fixture()
        with pytest.raises(DataError, match="missing stratum draws"):
            draws_to_domain_totals({}, sample)

    def test_variables_fold_into_their_own_columns(self):
        # draws_to_domain_totals puts each variable's fold, bit for bit, in
        # its block of columns, and the variables must share a chain layout
        spec = CalibrationSpec(("v1", "v2", "v3"), ("dA", "dB"))
        sample = sample_from_rows(
            [("s1", "dA", 1.0, (1.0, 0.0, 5.0)), ("s2", "dA", 1.0, (0.0, 1.0, 7.0)),
             ("s3", "dB", 1.0, (1.0, 1.0, 9.0))],
            (StratumSpec("s1", 100), StratumSpec("s2", 200), StratumSpec("s3", 300)),
            spec,
        )
        rng = np.random.default_rng(4)
        tags = np.array([0, 0, 1, 1])

        def draws(tags=tags):
            return StratumDraws(rng.random((len(tags), 3)), tags, np.zeros((len(tags), 1)), np.ones(len(tags)))

        stratum_draws = {name: draws() for name in ("v1", "v2", "v3")}
        whole = draws_to_domain_totals(stratum_draws, sample)
        for v, name in enumerate(spec.variable_names):
            assert_same_bits(whole.draws[:, 2 * v : 2 * v + 2], folded(sample, stratum_draws[name].draws))
        assert np.array_equal(whole.chain_tags, tags)
        with pytest.raises(DataError, match=r"missing stratum draws for variables \['v2'\]"):
            draws_to_domain_totals({"v1": stratum_draws["v1"], "v3": stratum_draws["v3"]}, sample)
        stratum_draws["v2"] = draws(np.array([0, 1, 0, 1]))
        with pytest.raises(DataError, match="disagree on chain layout"):
            draws_to_domain_totals(stratum_draws, sample)


class TestDomainFold:
    @settings(max_examples=60, deadline=None)
    @given(domains=domain_maps(), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_fold_adds_the_strata_one_by_one(self, domains, rows, seed):
        # one row is the case NumPy would otherwise sum pairwise
        values = spread_values(np.random.default_rng(seed), (rows, domains.positions.size))
        out = np.empty((domains.n_domains, rows))
        domains.fold(values.T, out)
        assert_same_bits(out.T, added_one_by_one(values, domains))

    @settings(max_examples=40, deadline=None)
    @given(
        domains=domain_maps(),
        models=st.integers(1, 3),
        chains=st.integers(1, 3),
        burnin=st.integers(0, 60),
        iterations=st.integers(1, 40),
        block=st.integers(1, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_driver_folds_its_kept_values_in_blocks(self, domains, models, chains, burnin, iterations, block, seed):
        # the driver's blocks of ``block`` iterations (a partial last one when
        # ``block`` does not divide ``iterations``) give the totals of adding
        # every kept p_h one by one
        H, L = domains.positions.size, models * chains
        kept = []

        def draw(rng, width):
            return {"values": rng.normal(0, 5, (width, H))}

        def window(blocks, scales, accepted):
            def step(i):
                kept.append(blocks["values"][i].copy())
                return blocks["values"][i], np.zeros((L, 1)), np.zeros(L)

            return step

        config = McmcConfig(burnin=burnin, iterations=iterations, chains=chains, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hb, "FOLD_BLOCK_BYTES", 8 * L * H * block)
            results = hb._run_lanes(config, [(m,) for m in range(models)], (H, 1), draw, window, domains, {})
        values = np.stack(kept[burnin:], axis=1)  # (lanes, iterations, H)
        hb._expit_open(values)
        for j, result in enumerate(results):
            lanes = values[j * chains : (j + 1) * chains].reshape(chains * iterations, H)
            assert_same_bits(result.draws, added_one_by_one(lanes, domains))

    def test_gaussian_sampler_folds_its_draws_in_frame_order(self):
        # the same streams under the identity map draw the stratum values;
        # a map's totals are those of adding them one by one
        inputs = dict(estimates=[4.0, 6.5, 5.1, 3.3, 7.2], sampling_variances=[0.5, 1.0, 0.7, 0.4, 2.0])
        domains = DomainMap([1, 0, 1, 1, 0], [3.0, 7.0, 11.0, 13.0, 17.0], 2)
        config = McmcConfig(iterations=40, chains=2, seed=3)
        (strata,) = fit_gaussian_fh([GaussianFHInput(**inputs, covariates=np.ones((5, 1)))], config)
        (totals,) = fit_gaussian_fh([GaussianFHInput(**inputs, covariates=np.ones((5, 1)), domains=domains)], config)
        assert_same_bits(totals.draws, added_one_by_one(strata.draws, domains))

    def test_identity_map_keeps_the_stratum_values(self):
        values = spread_values(np.random.default_rng(2), (5, 9))
        out = np.empty((9, 5))
        DomainMap.identity(9).fold(values.T, out)
        assert_same_bits(out.T, values + 0.0)

    def test_map_must_fit_its_domains_and_the_model(self):
        domains = DomainMap([0, 1, 0], [1.0, 2.0, 3.0], 2)
        with pytest.raises(DataError, match=r"domain positions must lie in \[0, 2\)"):
            DomainMap([0, 2], [1.0, 1.0], 2)
        with pytest.raises(DataError, match="domain map covers 3 strata, model has 2"):
            GaussianFHInput([1.0, 2.0], [1.0, 1.0], np.ones((2, 1)), domains=domains)

    def test_batch_must_share_the_domain_map(self):
        config = McmcConfig(burnin=5, iterations=5, chains=1)
        inputs = dict(estimates=[1.0, 2.0, 3.0], sampling_variances=[1.0, 1.0, 1.0], covariates=np.ones((3, 1)))
        one = GaussianFHInput(**inputs, domains=DomainMap([0, 1, 0], [1.0, 2.0, 3.0], 2))
        for other in (
            GaussianFHInput(**inputs),
            GaussianFHInput(**inputs, domains=DomainMap([0, 1, 1], [1.0, 2.0, 3.0], 2)),
            GaussianFHInput(**inputs, domains=DomainMap([0, 1, 0], [1.0, 2.0, 4.0], 2)),
        ):
            with pytest.raises(DataError, match="must share the domain map"):
                fit_gaussian_fh([one, other], config, spawn_keys=[(0,), (1,)])


class TestPosteriorDraws:
    def test_posterior_mean_is_column_mean(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(50, 4))
        draws = PosteriorDraws(draws=matrix, chain_tags=np.zeros(50, dtype=int))
        assert np.array_equal(draws.posterior_mean, matrix.mean(axis=0))

    def test_non_finite_rejected(self):
        matrix = np.ones((3, 2))
        matrix[1, 1] = np.inf
        with pytest.raises(Exception, match="non-finite"):
            PosteriorDraws(draws=matrix, chain_tags=np.zeros(3, dtype=int))


class TestGelmanRubin:
    def test_exact_copies_give_exactly_one(self):
        rng = np.random.default_rng(0)
        chain = rng.normal(size=(100, 3))
        draws = PosteriorDraws(
            draws=np.vstack([chain, chain, chain]),
            chain_tags=np.repeat([0, 1, 2], 100),
        )
        report = gelman_rubin(draws)
        assert report.available
        assert np.all(report.rhat == 1.0)
        assert report.rhat_max == 1.0

    def test_disjoint_chains_diverge(self):
        draws = PosteriorDraws(
            draws=np.concatenate([np.zeros(50), np.ones(50)])[:, None],
            chain_tags=np.repeat([0, 1], 50),
        )
        report = gelman_rubin(draws)
        assert report.rhat_max > 1.1

    def test_well_mixed_chains_near_one(self):
        rng = np.random.default_rng(42)
        draws = PosteriorDraws(
            draws=rng.normal(size=(3000, 2)),
            chain_tags=np.repeat([0, 1, 2], 1000),
        )
        report = gelman_rubin(draws)
        assert report.rhat_max < 1.05
        assert np.all(report.rhat >= 1.0)

    def test_single_chain_unavailable(self):
        draws = PosteriorDraws(
            draws=np.random.default_rng(1).normal(size=(100, 2)),
            chain_tags=np.zeros(100, dtype=int),
        )
        report = gelman_rubin(draws)
        assert not report.available
        assert report.rhat is None
        assert "single chain" in report.reason
