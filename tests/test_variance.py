import numpy as np
import pytest

from postcal.calibration import calibrate, cell_weighted_moment, compute_gram, ht_totals, replicate_direction
from postcal.errors import LinkSelectionError
from postcal.frame import (
    CalibrationSpec,
    CellFilter,
    CellQuery,
    StratumSpec,
    evaluate_cell,
)
from postcal.hb import PosteriorDraws
from postcal.variance import (
    CBI_Z,
    VarianceComponents,
    cbi,
    cell_diagnostics,
    coefficient_of_variation,
    select_linking_variable,
    variance_components,
)

from conftest import sample_from_rows


def two_stratum_fixture():
    """6 records in one domain; strata differ in size, deff, and weight.

    Stratum s1: N=30, deff=1, w=10, emp values (1, 1, 0), cell flags (1, 0, 0).
    Stratum s2: N=60, deff=2, w=20, emp values (1, 0, 1), cell flags (1, 0, 1).
    """
    spec = CalibrationSpec(("emp",), ("d1",))
    strata = (StratumSpec("s1", 30, deff=1.0), StratumSpec("s2", 60, deff=2.0))
    rows = [
        ("s1", 10.0, 1.0, "a"),
        ("s1", 10.0, 1.0, "b"),
        ("s1", 10.0, 0.0, "b"),
        ("s2", 20.0, 1.0, "a"),
        ("s2", 20.0, 0.0, "b"),
        ("s2", 20.0, 1.0, "a"),
    ]
    records = [(s, "d1", w, (emp,)) for s, w, emp, _ in rows]
    groups = [g for *_, g in rows]
    return sample_from_rows(records, strata, spec, attributes={"g": groups}), spec


def shares_and_warnings(sample, cell, weights, posterior_mean):
    """The ``shares`` and ``warnings`` of the cell's ``variance_components``
    over ``emp``, its draws two copies of ``posterior_mean``."""
    draws = PosteriorDraws(np.vstack([posterior_mean, posterior_mean]), np.zeros(2, dtype=int))
    components = variance_components(sample, cell, weights, "emp", posterior_mean, draws)
    return components.shares, components.warnings


class TestShareAndVariance:
    def test_hand_computed_two_stratum_variance(self):
        sample, spec = two_stratum_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)  # 10*2 + 20*2 = 60
        weights = calibrate(sample, gram, ht, ht)
        cell = evaluate_cell(
            CellQuery("a", "emp", CellFilter.build(attributes={"g": "a"})), sample, spec
        )
        shares, warnings = shares_and_warnings(sample, cell, weights, ht)
        assert warnings == ()
        # numerator: one in-cell employed record at w=10 plus two at w=20
        assert shares.share[0] == pytest.approx(50.0 / 60.0, rel=1e-12)
        # per-stratum sample variances of emp * 1(cell): both are 1/3
        # s1: 1 * 30^2 * (1 - 0.1) * (1/3) / 3 = 90
        # s2: 2 * 60^2 * (1 - 0.05) * (1/3) / 3 = 760
        expected = (90.0 + 760.0) / 60.0**2
        assert shares.share_variance[0] == pytest.approx(expected, rel=1e-12)

    def test_full_domain_cell_share_is_one(self):
        sample, spec = two_stratum_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        target = ht * 1.1
        weights = calibrate(sample, gram, ht, target)
        cell = evaluate_cell(
            CellQuery("d1", "emp", CellFilter.build(domains="d1")), sample, spec
        )
        shares, _ = shares_and_warnings(sample, cell, weights, target)
        assert shares.share[0] == pytest.approx(1.0, rel=1e-12)
        # masked values equal the variable itself, so s2 is the stratum
        # variance of emp: 1/3 in both strata
        expected = (90.0 + 760.0) / target[0] ** 2
        assert shares.share_variance[0] == pytest.approx(expected, rel=1e-12)

    def test_empty_cell_zero_share_zero_variance(self):
        sample, spec = two_stratum_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)
        cell = evaluate_cell(
            CellQuery("none", "emp", CellFilter.build(attributes={"g": "zz"})),
            sample,
            spec,
        )
        shares, warnings = shares_and_warnings(sample, cell, weights, ht)
        assert shares.share[0] == 0.0
        assert shares.share_variance[0] == 0.0
        assert warnings == ()

    def test_zero_domain_total_excluded_with_warning(self):
        sample, spec = two_stratum_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)
        cell = evaluate_cell(
            CellQuery("a", "emp", CellFilter.build(attributes={"g": "a"})), sample, spec
        )
        shares, warnings = shares_and_warnings(sample, cell, weights, np.zeros(1))
        assert shares.excluded[0]
        assert shares.share[0] == shares.share_variance[0] == 0.0
        assert any("zero denominator" in w for w in warnings)

    def test_singleton_stratum_contribution_zeroed(self):
        spec = CalibrationSpec(("emp",), ("d1",))
        strata = (StratumSpec("s1", 30), StratumSpec("s2", 40))
        records = [
            ("s1", "d1", 10.0, (1.0,)),
            ("s2", "d1", 20.0, (1.0,)),
            ("s2", "d1", 20.0, (0.0,)),
        ]
        sample = sample_from_rows(records, strata, spec)
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)
        cell = evaluate_cell(CellQuery("all", "emp", CellFilter()), sample, spec)
        shares, warnings = shares_and_warnings(sample, cell, weights, ht)
        assert any("singleton" in w for w in warnings)
        # only s2 contributes: 1 * 40^2 * (1 - 0.05) * 0.5 / 2 = 380
        assert shares.share_variance[0] == pytest.approx(380.0 / ht[0] ** 2, rel=1e-12)


class TestPosteriorDomainVariance:
    """V_d is the diagonal of the draw covariance."""

    def test_hand_arithmetic(self):
        draws = PosteriorDraws(
            draws=np.array([[0.0], [2.0]]), chain_tags=np.array([0, 0])
        )
        assert draws.covariance[0, 0] == 2.0

    def test_constant_draws(self):
        draws = PosteriorDraws(draws=np.full((9, 1), 3.0), chain_tags=np.zeros(9, dtype=int))
        assert draws.covariance[0, 0] == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(40, 1))
        v1 = PosteriorDraws(base, np.zeros(40, dtype=int)).covariance[0, 0]
        v3 = PosteriorDraws(3.0 * base, np.zeros(40, dtype=int)).covariance[0, 0]
        assert v3 == pytest.approx(9.0 * v1, rel=1e-12)

    def test_diagonal_is_the_column_variance_and_computed_once(self):
        rng = np.random.default_rng(8)
        draws = PosteriorDraws(rng.normal(size=(50, 3)), np.zeros(50, dtype=int))
        assert np.diagonal(draws.covariance) == pytest.approx(
            np.var(draws.draws, axis=0, ddof=1), rel=1e-12
        )
        assert draws.covariance is draws.covariance


class TestCbi:
    def test_arithmetic_example(self):
        components = VarianceComponents(component1=4.0, component2=0.0)
        interval = cbi(100.0, components)
        assert interval.lower == pytest.approx(96.08, abs=1e-12)
        assert interval.upper == pytest.approx(103.92, abs=1e-12)

    def test_degenerate(self):
        components = VarianceComponents(component1=0.0, component2=0.0)
        interval = cbi(5.0, components)
        assert interval.lower == interval.upper == 5.0

    def test_negative_component_clamped_with_warning(self):
        components = VarianceComponents(component1=-1e-9, component2=1.0)
        interval = cbi(0.0, components)
        assert any("clamped" in w for w in interval.components.warnings)
        assert interval.upper == pytest.approx(CBI_Z, rel=1e-12)

    def test_wider_than_domain_component_alone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c1, c2 = rng.uniform(0.0, 10.0, size=2)
            components = VarianceComponents(component1=c1, component2=c2)
            interval = cbi(0.0, components)
            assert interval.width >= 2.0 * CBI_Z * np.sqrt(c2) - 1e-12

    @pytest.mark.parametrize("level,z", [(0.80, 1.28), (0.90, 1.64), (0.95, 1.96)])
    def test_half_width_is_the_level_multiplier(self, level, z):
        components = VarianceComponents(component1=4.0, component2=5.0)
        interval = cbi(10.0, components, level)
        assert interval.z == z
        assert interval.upper - 10.0 == pytest.approx(z * 3.0, rel=1e-14)
        assert 10.0 - interval.lower == pytest.approx(z * 3.0, rel=1e-14)
        draws = PosteriorDraws(np.array([[1.0], [2.0]]), np.array([0, 0]))
        diag = cell_diagnostics(
            np.ones(1), draws.posterior_mean, np.zeros(1), draws, 1.0, interval.width, 10.0, level
        )
        assert diag.cv_cbi == pytest.approx(3.0 / 10.0, rel=1e-14)
        assert diag.cv_cri == pytest.approx(1.0 / (2.0 * z) / 10.0, rel=1e-14)

    def test_bookkeeping_exact(self):
        sample, spec = two_stratum_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)
        draws = PosteriorDraws(
            draws=np.array([[58.0], [62.0]]), chain_tags=np.array([0, 0])
        )
        cell = evaluate_cell(
            CellQuery("a", "emp", CellFilter.build(attributes={"g": "a"})), sample, spec
        )
        comp = variance_components(sample, cell, weights, "emp", ht, draws)
        assert comp.component1 == pytest.approx(850.0, rel=1e-12)
        assert comp.component2 == pytest.approx((50.0 / 60.0) ** 2 * 8.0, rel=1e-12)
        interval = cbi(50.0, comp)
        half = CBI_Z * np.sqrt(comp.component1 + comp.component2)
        assert interval.upper - 50.0 == pytest.approx(half, rel=1e-14)


def link_fixture(outcome_fn, n=40, seed=3):
    rng = np.random.default_rng(seed)
    spec = CalibrationSpec(("employed", "hours"), ("d1",))
    strata = (StratumSpec("s1", 5000),)
    records = []
    outcome = []
    for i in range(n):
        hours = float(rng.uniform(5.0, 50.0))
        records.append(("s1", "d1", 2.0, (1.0, hours)))
        outcome.append(outcome_fn(hours, rng))
    return sample_from_rows(records, strata, spec, outcomes={"u": outcome}), spec


class TestLinkSelection:
    def test_perfect_proportionality(self):
        sample, spec = link_fixture(lambda h, rng: 2.0 * h)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        link = select_linking_variable(sample, cell)
        assert link.variable == "hours"
        assert link.correlation == pytest.approx(1.0, abs=1e-12)
        assert not link.weak

    def test_constant_candidate_excluded(self):
        # employed is 1 for every record, so it cannot be a denominator
        sample, spec = link_fixture(lambda h, rng: 2.0 * h)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        link = select_linking_variable(sample, cell)
        employed = next(c for c in link.candidates if c.name == "employed")
        assert not employed.admissible
        assert employed.correlation is None

    def test_engineered_moderate_correlation(self):
        def outcome(h, rng):
            return 0.6 * (h - 27.5) / 13.0 + 0.8 * rng.standard_normal()

        sample, spec = link_fixture(outcome, n=200, seed=5)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        link = select_linking_variable(sample, cell)
        assert link.variable == "hours"
        assert 0.4 < link.correlation < 0.8
        assert not link.weak

    def test_weak_flag(self):
        sample, spec = link_fixture(lambda h, rng: rng.standard_normal(), n=800, seed=1)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        link = select_linking_variable(sample, cell)
        assert link.weak

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_constant_outcome_links_with_correlation_exactly_zero(self, n):
        # the mean of n copies of 0.1 leaves a rounding residue; constancy
        # is decided by the values themselves, not by a spread computed
        # about that mean
        sample, spec = link_fixture(lambda h, rng: 0.1, n=n)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        link = select_linking_variable(sample, cell)
        assert (link.variable, link.correlation, link.weak) == ("hours", 0.0, True)

    def test_no_admissible_candidate(self):
        spec = CalibrationSpec(("employed", "hours"), ("d1",))
        strata = (StratumSpec("s1", 100),)
        records = [("s1", "d1", 1.0, (1.0, 38.0))] * 5
        sample = sample_from_rows(
            records, strata, spec, outcomes={"u": [float(k) for k in range(5)]}
        )
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        with pytest.raises(LinkSelectionError, match="direct estimate"):
            select_linking_variable(sample, cell)

    def test_invariant_to_affine_rescaling_of_outcome(self):
        def outcome(h, rng):
            return 0.5 * h + rng.standard_normal()

        sample, spec = link_fixture(outcome, n=100, seed=8)
        cell = evaluate_cell(CellQuery("all", "u", CellFilter()), sample, spec)
        base = select_linking_variable(sample, cell)
        rescaled = type(cell)(mask=cell.mask, values=3.0 * cell.values + 7.0)
        again = select_linking_variable(sample, rescaled)
        assert again.variable == base.variable
        assert again.correlation == pytest.approx(base.correlation, rel=1e-9)


def orthogonality_fixture():
    """p = 2 fixture; the cell is the first constraint with direction e1."""
    spec = CalibrationSpec(("y",), ("d1", "d2"))
    strata = (StratumSpec("s1", 100),)
    records = [
        ("s1", "d1", 2.0, (3.0,)),
        ("s1", "d1", 1.0, (5.0,)),
        ("s1", "d2", 2.0, (4.0,)),
        ("s1", "d2", 3.0, (1.0,)),
    ]
    sample = sample_from_rows(records, strata, spec)
    gram = compute_gram(sample, spec)
    ht = ht_totals(sample, spec)
    cell = evaluate_cell(
        CellQuery("d1", "y", CellFilter.build(domains="d1")), sample, spec
    )
    moment = cell_weighted_moment(sample, cell.mask, cell.values)
    direction = replicate_direction(gram, moment)
    return sample, spec, gram, ht, cell, direction


class TestDiagnostics:
    def test_parallel_residual_gives_cos_one(self):
        _, _, _, ht, _, direction = orthogonality_fixture()
        steps = np.array([0.5, 1.0, 1.5, 2.0])
        draws = PosteriorDraws(
            draws=ht[None, :] + np.outer(steps, direction),
            chain_tags=np.zeros(4, dtype=int),
        )
        diag = cell_diagnostics(direction, draws.posterior_mean, ht, draws, 1.0, None, 10.0)
        assert diag.cos_theta == pytest.approx(1.0, abs=1e-10)
        assert not diag.orthogonality_flag

    def test_orthogonal_residual_collapses_width(self):
        sample, spec, gram, ht, cell, direction = orthogonality_fixture()
        # orthogonal direction built from swapped components: the dot product
        # cancels exactly in floating point
        u = np.array([-direction[1], direction[0]])
        steps = np.array([-2.0, -1.0, 1.0, 2.0, 3.0])
        draws = PosteriorDraws(
            draws=ht[None, :] + np.outer(steps, u),
            chain_tags=np.zeros(5, dtype=int),
        )
        from postcal.replicate import empirical_quantile_ci, replicate_totals

        totals = replicate_totals(cell, draws, gram, ht, sample, spec)
        ci = empirical_quantile_ci(totals.values, 0.95)
        point = totals.fixed_ht
        assert ci.width < 1e-6 * abs(point)
        diag = cell_diagnostics(
            direction, draws.posterior_mean, ht, draws, ci.width, None, point
        )
        assert diag.cos_theta is not None
        assert abs(diag.cos_theta) < 1e-10
        assert diag.orthogonality_flag

    def test_quadratic_form_matches_empirical_variance(self):
        rng = np.random.default_rng(12)
        p = 4
        direction = rng.normal(size=p)
        draws_matrix = rng.normal(size=(600, p)) @ rng.normal(size=(p, p))
        draws = PosteriorDraws(draws=draws_matrix, chain_tags=np.zeros(600, dtype=int))
        ht = np.zeros(p)
        values = draws_matrix @ direction
        empirical = float(np.var(values, ddof=1))
        diag = cell_diagnostics(direction, draws.posterior_mean, ht, draws, 1.0, None, 1.0)
        mc_se = empirical * np.sqrt(2.0 / (len(values) - 1))
        assert abs(diag.replicate_variance - empirical) < 3.0 * mc_se

    def test_zero_direction_reports_undefined(self):
        draws = PosteriorDraws(
            draws=np.array([[1.0, 2.0], [3.0, 4.0]]), chain_tags=np.array([0, 0])
        )
        diag = cell_diagnostics(
            np.zeros(2), draws.posterior_mean, np.zeros(2), draws, 1.0, None, 1.0
        )
        assert diag.cos_theta is None
        assert not diag.orthogonality_flag

    def test_cv_definition(self):
        assert coefficient_of_variation(3.92, 100.0) == pytest.approx(0.01, rel=1e-14)
        assert np.isnan(coefficient_of_variation(1.0, 0.0))


class TestComponentTwoAgreement:
    def test_share_weighted_sum_matches_quadratic_form_for_diagonal_draws(self):
        # when every record in a domain carries identical calibration values,
        # the cell direction is exactly the share-weighted constraint basis;
        # with independent draw columns the share-weighted per-domain
        # variances then agree with the quadratic form up to the sampling
        # noise of the off-diagonal covariance estimates
        spec = CalibrationSpec(("y",), ("d1", "d2"))
        strata = (StratumSpec("s1", 1000),)
        records = [
            ("s1", d, 4.0, (value,))
            for d, value in (("d1", 2.0), ("d2", 3.0))
            for k in range(10)
        ]
        groups = ["a" if k < 4 else "b" for _ in range(2) for k in range(10)]
        sample = sample_from_rows(records, strata, spec, attributes={"g": groups})
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)

        rng = np.random.default_rng(17)
        B = 4000
        draws_matrix = ht[None, :] + rng.normal(0.0, [3.0, 5.0], size=(B, 2))
        draws = PosteriorDraws(draws=draws_matrix, chain_tags=np.zeros(B, dtype=int))
        weights = calibrate(sample, gram, ht, draws.posterior_mean)

        cell = evaluate_cell(
            CellQuery("a", "y", CellFilter.build(attributes={"g": "a"})), sample, spec
        )
        comp = variance_components(sample, cell, weights, "y", draws.posterior_mean, draws)
        moment = cell_weighted_moment(sample, cell.mask, cell.values)
        direction = replicate_direction(gram, moment)
        assert np.allclose(direction, [0.4, 0.4], atol=1e-12)

        cov = np.cov(draws_matrix, rowvar=False, ddof=1)
        quadform = float(direction @ cov @ direction)
        # sampling noise of the single off-diagonal covariance term
        shares = comp.shares.share
        variances = comp.posterior_variance
        se = np.sqrt(
            2.0
            * shares[0] ** 2
            * shares[1] ** 2
            * variances[0]
            * variances[1]
            / (B - 1)
        )
        assert abs(comp.component2 - quadform) <= 3.0 * se
