import tracemalloc

import numpy as np
import pytest

from postcal import replicate
from postcal.calibration import calibrate, compute_gram, ht_totals
from postcal.errors import DataError, NumericalError
from postcal.frame import (
    CalibrationSpec,
    CellFilter,
    CellPairs,
    CellQuery,
    SampleSet,
    StratumSpec,
    TierLabel,
    evaluate_cell,
)
from postcal.hb import PosteriorDraws
from postcal.replicate import (
    classify_cell,
    empirical_quantile_ci,
    recalibration_oracle,
    replicate_totals,
)
from postcal.report import analyze_cell, build_artifacts, build_run_report

from conftest import make_random_sample, sample_from_rows


def survey_sample(calibration_attributes=()):
    """Sample with binary employment, hours, an occupation attribute, an
    hours band declared ``calibration_attributes`` or not, and an income
    outcome; 3 domains."""
    rng = np.random.default_rng(31)
    spec = CalibrationSpec(("employed", "hours"), ("d1", "d2", "d3"))
    strata = (StratumSpec("s1", 400), StratumSpec("s2", 400))
    records = []
    occupation, hours_band, income = [], [], []
    for i in range(48):
        employed = float(rng.random() < 0.65)
        hours = employed * rng.uniform(4.0, 55.0)
        stratum = "s1" if i % 2 == 0 else "s2"
        weight = rng.uniform(2.0, 6.0)
        records.append((stratum, spec.domain_order[i % 3], weight, (employed, hours)))
        occupation.append(rng.choice(["managers", "trades", "sales"]))
        hours_band.append("35-39" if 35 <= hours <= 39 else "other")
        income.append(hours * 25.0 + rng.normal(0.0, 40.0))
    sample = sample_from_rows(
        records,
        strata,
        spec,
        attributes={"occupation": occupation, "hours_band": hours_band},
        outcomes={"income": income},
        calibration_attributes=calibration_attributes,
    )
    return sample, spec


def synthetic_draws(ht, n_draws, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, scale, size=(n_draws, ht.shape[0]))
    return PosteriorDraws(
        draws=ht[None, :] * (1.0 + noise),
        chain_tags=np.zeros(n_draws, dtype=int),
    )


class TestClassification:
    def test_domain_total_of_calibration_variable(self):
        sample, spec = survey_sample()
        q = CellQuery("hours_d1", "hours", CellFilter.build(domains="d1"))
        assert classify_cell(q, sample) is TierLabel.TIER_1E

    def test_interval_filter_is_calibration_derived(self):
        sample, spec = survey_sample()
        q = CellQuery(
            "emp_band", "employed", CellFilter.build(ranges={"hours": (35, 39)})
        )
        assert classify_cell(q, sample) is TierLabel.TIER_2CA

    def test_declared_derived_attribute(self):
        q = CellQuery(
            "emp_band", "employed", CellFilter.build(attributes={"hours_band": "35-39"})
        )
        derived, _ = survey_sample(calibration_attributes=("hours_band",))
        assert classify_cell(q, derived) is TierLabel.TIER_2CA
        sample, _ = survey_sample()
        assert classify_cell(q, sample) is TierLabel.TIER_2NCA

    def test_non_calibration_attribute(self):
        sample, spec = survey_sample()
        q = CellQuery(
            "emp_occ", "employed", CellFilter.build(attributes={"occupation": "trades"})
        )
        assert classify_cell(q, sample) is TierLabel.TIER_2NCA

    def test_outcome_variable(self):
        sample, spec = survey_sample()
        q = CellQuery(
            "income_occ", "income", CellFilter.build(attributes={"occupation": "sales"})
        )
        assert classify_cell(q, sample) is TierLabel.TIER_3NCV

    def test_multi_domain_filter_is_not_exact(self):
        sample, spec = survey_sample()
        q = CellQuery(
            "hours_d12", "hours", CellFilter.build(domains=("d1", "d2"))
        )
        assert classify_cell(q, sample) is TierLabel.TIER_2CA

    def test_mixed_filter_falls_to_nca(self):
        sample, spec = survey_sample()
        q = CellQuery(
            "mixed",
            "employed",
            CellFilter.build(
                attributes={"occupation": "trades"}, ranges={"hours": (10, 20)}
            ),
        )
        assert classify_cell(q, sample) is TierLabel.TIER_2NCA


class TestReplicateTotals:
    def test_exact_constraint_cell_reproduces_draw_column(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = synthetic_draws(ht, 50, seed=1)
        q = CellQuery("hours_d2", "hours", CellFilter.build(domains="d2"))
        cell = evaluate_cell(q, sample, spec)
        totals = replicate_totals(cell, draws, gram, ht, sample, spec)
        column = draws.draws[:, 1 * 3 + 1]  # (hours, d2) block position
        assert np.max(np.abs(totals.values - column) / np.abs(column)) < 1e-12

    def test_constant_draws_give_fixed_ht(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = PosteriorDraws(
            draws=np.tile(ht, (4, 1)), chain_tags=np.zeros(4, dtype=int)
        )
        q = CellQuery(
            "emp_occ", "employed", CellFilter.build(attributes={"occupation": "sales"})
        )
        cell = evaluate_cell(q, sample, spec)
        totals = replicate_totals(cell, draws, gram, ht, sample, spec)
        assert np.allclose(totals.values, totals.fixed_ht, rtol=1e-12)

    def test_matches_full_recalibration_oracle(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = synthetic_draws(ht, 10, seed=2)
        for q in (
            CellQuery("occ", "employed", CellFilter.build(attributes={"occupation": "managers"})),
            CellQuery("inc", "income", CellFilter.build(attributes={"occupation": "trades"})),
            CellQuery("band", "hours", CellFilter.build(ranges={"hours": (10, 30)})),
        ):
            cell = evaluate_cell(q, sample, spec)
            fast = replicate_totals(cell, draws, gram, ht, sample, spec)
            slow = recalibration_oracle(q, draws, gram, ht, sample, spec)
            scale = max(1.0, np.abs(slow).max())
            assert np.max(np.abs(fast.values - slow)) < 1e-10 * scale

    def test_partition_additivity_per_draw(self):
        # occupation levels partition the sample, so per-draw cell totals
        # must sum to the per-draw grand total
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = synthetic_draws(ht, 20, seed=3)
        parts = []
        for occ in ("managers", "trades", "sales"):
            q = CellQuery(occ, "employed", CellFilter.build(attributes={"occupation": occ}))
            cell = evaluate_cell(q, sample, spec)
            parts.append(replicate_totals(cell, draws, gram, ht, sample, spec).values)
        grand = replicate_totals(
            evaluate_cell(CellQuery("all", "employed", CellFilter()), sample, spec),
            draws,
            gram,
            ht,
            sample,
            spec,
        ).values
        assert np.max(np.abs(sum(parts) - grand)) < 1e-9 * np.abs(grand).max()

    def test_draws_centred_on_the_origin_given(self):
        # one draw set serves every cell; its centring must follow T_ht, and
        # subtracting before the product keeps a tight posterior's spread
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = synthetic_draws(ht, 30, seed=4, scale=1e-9)
        cell = evaluate_cell(CellQuery("all", "employed", CellFilter()), sample, spec)
        for origin in (ht, 1.1 * ht, ht.copy()):
            totals = replicate_totals(cell, draws, gram, origin, sample, spec)
            want = totals.fixed_ht + (draws.draws - origin) @ totals.direction
            assert totals.values.tolist() == want.tolist()

    def test_dimension_mismatch_rejected(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        bad = PosteriorDraws(draws=np.ones((5, 4)), chain_tags=np.zeros(5, dtype=int))
        cell = evaluate_cell(CellQuery("all", "employed", CellFilter()), sample, spec)
        with pytest.raises(DataError, match="columns"):
            replicate_totals(cell, bad, gram, ht, sample, spec)


class TestQuantiles:
    def test_interpolated_order_statistics(self):
        values = np.arange(1.0, 101.0)
        ci = empirical_quantile_ci(values, 0.95)
        assert ci.lower == pytest.approx(3.475, abs=1e-12)
        assert ci.upper == pytest.approx(97.525, abs=1e-12)

    def test_constant_values_degenerate(self):
        ci = empirical_quantile_ci(np.full(10, 7.0), 0.95)
        assert ci.lower == ci.upper == 7.0

    def test_symmetric_values_symmetric_interval(self):
        values = np.concatenate([np.linspace(-5, 5, 41)])
        ci = empirical_quantile_ci(values, 0.9)
        assert abs(ci.lower + ci.upper) < 1e-12

    def test_monotone_in_level(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=500)
        narrow = empirical_quantile_ci(values, 0.8)
        wide = empirical_quantile_ci(values, 0.95)
        assert wide.lower <= narrow.lower
        assert wide.upper >= narrow.upper

    def test_non_finite_rejected_with_count(self):
        values = np.array([1.0, np.nan, 2.0, np.inf])
        with pytest.raises(NumericalError, match="2 non-finite"):
            empirical_quantile_ci(values, 0.95)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.7])
    def test_invalid_level(self, level):
        with pytest.raises(DataError, match="level"):
            empirical_quantile_ci(np.arange(10.0), level)

    def test_needs_two_values(self):
        with pytest.raises(DataError, match="at least 2"):
            empirical_quantile_ci(np.array([1.0]), 0.95)


def point_estimate(cell, sample, weights):
    """The cell's weighted total under ``weights``: ``cell_totals`` over the
    cell's own atom table."""
    pairs = CellPairs.one(cell, sample)
    return float(replicate.cell_totals(pairs, pairs.atoms.totals(weights.weights))[0])


class TestPointEstimate:
    def test_exact_cell_equals_posterior_mean_component(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        draws = synthetic_draws(ht, 30, seed=6)
        weights = calibrate(sample, gram, ht, draws.posterior_mean)
        q = CellQuery("emp_d1", "employed", CellFilter.build(domains="d1"))
        cell = evaluate_cell(q, sample, spec)
        point = point_estimate(cell, sample, weights)
        assert point == pytest.approx(draws.posterior_mean[0], rel=1e-10)

    def test_empty_cell_is_zero(self):
        sample, spec = survey_sample()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)
        q = CellQuery(
            "none", "employed", CellFilter.build(attributes={"occupation": "astronaut"})
        )
        cell = evaluate_cell(q, sample, spec)
        assert point_estimate(cell, sample, weights) == 0.0

    def test_hand_weighted_sum(self):
        sample, spec = make_random_sample(10, 2, 2, seed=1)
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        weights = calibrate(sample, gram, ht, ht)  # identity calibration
        q = CellQuery("grp", "v2", CellFilter.build(attributes={"group": "a"}))
        cell = evaluate_cell(q, sample, spec)
        by_hand = sum(
            w * values[1]
            for w, values, group in zip(
                sample.weights, sample.calib, sample.attributes["group"]
            )
            if group == "a"
        )
        assert point_estimate(cell, sample, weights) == pytest.approx(by_hand, rel=1e-12)


TRADES = CellFilter.build(attributes={"occupation": "trades"})
MANAGERS = CellFilter.build(attributes={"occupation": "managers"})
# one case per branch of the cell's tier and CBI-denominator decision:
# (query, tier, CBI built, link variable, link rho, warnings)
ANALYZE_CASES = [
    (
        CellQuery("same", "employed", MANAGERS, tier_override=TierLabel.TIER_2NCA),
        TierLabel.TIER_2NCA, True, None, None, (),
    ),
    (
        CellQuery("override", "employed", MANAGERS, tier_override=TierLabel.TIER_2CA),
        TierLabel.TIER_2CA, True, None, None,
        ("tier override 2-CA replaces automatic classification 2-NCA",),
    ),
    (
        CellQuery("exact", "hours", CellFilter.build(domains="d1")),
        TierLabel.TIER_1E, False, None, None, (),
    ),
    (
        CellQuery("empty", "employed", CellFilter.build(attributes={"occupation": "nobody"})),
        TierLabel.TIER_2NCA, True, None, None,
        ("empty cell: no sampled records match the filter",),
    ),
    (
        CellQuery("auto_link", "income", TRADES),
        TierLabel.TIER_3NCV, True, "hours", "pearson", (),
    ),
    (
        CellQuery("bad_link", "income", TRADES, link_variable="income"),
        TierLabel.TIER_3NCV, False, None, None,
        ("cell 'bad_link': linking variable 'income' is not a calibration variable",),
    ),
    (
        # every record working 10-30 hours is employed: a constant named link
        CellQuery(
            "constant_link", "income", CellFilter.build(ranges={"hours": (10, 30)}),
            link_variable="employed",
        ),
        TierLabel.TIER_3NCV, True, "employed", 0.0,
        ("weak ratio link |rho|=0.000 < 0.1; design-based direct estimation is "
         "the recommended primary interval",),
    ),
    (
        # no hours means not employed: both calibration variables are constant
        CellQuery("no_link", "income", CellFilter.build(ranges={"hours": (None, 0.0)})),
        TierLabel.TIER_3NCV, False, None, None,
        ("no admissible linking variable: every calibration variable is "
         "constant within the cell; publish a design-based direct estimate "
         "for this cell instead",),
    ),
]


def survey_artifacts():
    sample, spec = survey_sample()
    draws = synthetic_draws(ht_totals(sample, spec), 40, seed=5)
    return build_artifacts(sample, draws, level=0.95)


class TestAnalyzeCell:
    @pytest.mark.parametrize(
        "query,tier,has_cbi,link,rho,warnings",
        ANALYZE_CASES,
        ids=[case[0].name for case in ANALYZE_CASES],
    )
    def test_tier_link_and_warnings(
        self, monkeypatch, query, tier, has_cbi, link, rho, warnings
    ):
        classified = []

        def counting(query, *args):
            classified.append(query.name)
            return classify_cell(query, *args)

        monkeypatch.setattr(replicate, "classify_cell", counting)
        art = survey_artifacts()
        row = analyze_cell(query, art)
        assert classified == [query.name]
        assert row.tier is tier
        assert (row.cbi_lower is None) is not has_cbi
        assert row.link_variable == link
        if rho == "pearson":
            cell = evaluate_cell(query, art.sample, art.sample.calibration)
            income = cell.values[cell.mask]
            hours = art.sample.column("hours")[cell.mask]
            assert row.link_rho == pytest.approx(np.corrcoef(income, hours)[0, 1], rel=1e-12)
        else:
            assert row.link_rho == rho
        assert row.warnings == warnings


def test_run_report_holds_one_group_of_rows_and_of_totals_at_a_time():
    # eight times the cells may at most double the memory the cell layer
    # frees again (its peak above what it retains); holding every cell's
    # rows, or every cell's totals over 8,000 draws, at once is 8 or 6 times
    rng = np.random.default_rng(3)
    n, B = 16_000, 8_000
    spec = CalibrationSpec(("v1", "v2"), ("d1", "d2"))
    sample = SampleSet(
        (StratumSpec("s1", 10 * n), StratumSpec("s2", 10 * n)),
        spec,
        np.arange(n) % 2,
        np.arange(n) // 2 % 2,
        rng.uniform(1.0, 5.0, n),
        np.column_stack([(rng.random(n) < 0.6).astype(float), rng.uniform(0.5, 40.0, n)]),
        attributes={"group": rng.choice(["a", "b"], n)},
        outcomes={"u": rng.normal(10.0, 3.0, n)},
    )
    draws = PosteriorDraws(
        ht_totals(sample, spec) * rng.normal(1.0, 0.02, (B, spec.p)), np.zeros(B, dtype=int)
    )
    art = build_artifacts(sample, draws, level=0.95)
    filters = [
        CellFilter.build(attributes={"group": "a"}),
        CellFilter.build(attributes={"group": "b"}),
        CellFilter.build(domains="d1"),
        CellFilter.build(),
    ]
    cells = tuple(CellQuery(f"c{k}", ("v2", "u", "v1")[k % 3], filters[k % 4]) for k in range(64))
    build_run_report(art, cells[:1])  # the draws' cached centring and covariance

    def transient(count):
        tracemalloc.start()
        try:
            build_run_report(art, cells[:count])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - retained

    assert transient(64) <= 2 * transient(8)
