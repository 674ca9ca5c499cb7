import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from postcal.cli import main

from postcal.config import (
    AttributeModel,
    BinaryVariableModel,
    ContinuousVariableModel,
    OutcomeModel,
    SyntheticPopulationSpec,
    parse_config,
    population_spec_from_config,
)
from postcal.errors import ConfigError, DataError, NumericalError
from postcal.frame import CellFilter, CellQuery, StratumSpec, TierLabel
from postcal.hb import McmcConfig, PosteriorDraws, chain_rng
from postcal.io import BandRule
from postcal.replicate import classify_cell
from postcal.report import build_artifacts, build_run_report
from postcal.simulate import (
    REPLICATION_CHUNK,
    ReplicationResult,
    _rate,
    accumulate_report,
    build_simulation,
    draw_stratified_sample,
    generate_population,
    replication_chunks,
    run_chunk,
    run_replication,
    run_simulation,
)


def small_spec(seed=7, n_strata=4, size=250):
    strata = tuple(
        StratumSpec(
            id=f"s{k + 1}",
            domain="d1" if k < n_strata // 2 else "d2",
            population_size=size,
            covariate=(-1.0 + 2.0 * k / max(n_strata - 1, 1)),
        )
        for k in range(n_strata)
    )
    return SyntheticPopulationSpec(
        domains=("d1", "d2"),
        strata=strata,
        variables=(
            BinaryVariableModel("employed", intercept=0.4, slope=0.5, stratum_sd=0.1),
            ContinuousVariableModel(
                "hours",
                mean=38.0,
                unit_sd=10.0,
                slope=2.0,
                stratum_sd=1.0,
                clip=(1.0, 60.0),
                gated_by="employed",
            ),
        ),
        attributes=(
            AttributeModel("occ", (("a", 0.5), ("b", 0.3), ("c", 0.2)), domain_tilt=0.05),
        ),
        outcomes=(
            OutcomeModel("income", link="hours", rho=0.6, loc=900.0, scale=400.0),
        ),
        seed=seed,
    )


# the population of small_spec() as a `simulate.population` section
SMALL_POPULATION = {
    "domains": ["d1", "d2"],
    "strata": {"per_domain": 2, "population_size": 250},
    "variables": [
        {"name": "employed", "kind": "binary", "intercept": 0.4, "slope": 0.5, "stratum_sd": 0.1},
        {
            "name": "hours",
            "kind": "continuous",
            "mean": 38.0,
            "unit_sd": 10.0,
            "slope": 2.0,
            "stratum_sd": 1.0,
            "clip": [1.0, 60.0],
            "gated_by": "employed",
        },
    ],
    "attributes": [{"name": "occ", "levels": {"a": 0.5, "b": 0.3, "c": 0.2}, "domain_tilt": 0.05}],
    "outcomes": [{"name": "income", "link": "hours", "rho": 0.6, "loc": 900.0, "scale": 400.0}],
}
DEFAULT_CELLS = [
    {"name": "hours_d1", "sum": "hours", "where": {"domain": "d1"}},
    {"name": "emp_occ_a", "sum": "employed", "where": {"occ": "a"}},
    {"name": "income_occ_b", "sum": "income", "where": {"occ": "b"}},
]


def run_config(seed, replications, fraction, mcmc=None, cells=DEFAULT_CELLS):
    """A parsed experiment on the small population, binary and Gaussian
    models on the stratum covariate ``z``."""
    return parse_config(
        {
            "seed": seed,
            "models": {
                "employed": {"kind": "binary", "covariates": ["z"]},
                "hours": {"kind": "gaussian", "covariates": ["z"]},
            },
            "mcmc": mcmc or {},
            "cells": cells,
            "simulate": {
                "population": SMALL_POPULATION,
                "mc": {"replications": replications, "sampling_fraction": fraction},
            },
        }
    )


def truth_targeted(frame, cfg):
    """Replication 0's sample and, for draws, two chains of one draw each
    pinned to the population's domain totals."""
    draws = PosteriorDraws(np.tile(frame.calibration_truth_vector(), (2, 1)), [0, 1])
    return draw_stratified_sample(frame, cfg.simulate.sampling_fraction, chain_rng(cfg.seed, 0, 0)), draws


class TestGeneratePopulation:
    def test_deterministic_under_seed(self):
        a = generate_population(small_spec(seed=123))
        b = generate_population(small_spec(seed=123))
        assert np.array_equal(a.calib, b.calib)
        assert np.array_equal(a.outcomes["income"], b.outcomes["income"])
        assert np.array_equal(
            a.attributes["occ"].astype(str), b.attributes["occ"].astype(str)
        )

    def test_different_seed_differs(self):
        a = generate_population(small_spec(seed=1))
        b = generate_population(small_spec(seed=2))
        assert not np.array_equal(a.calib, b.calib)

    def test_binary_prevalence_concentrates(self):
        spec = SyntheticPopulationSpec(
            domains=("d1",),
            strata=(StratumSpec("s1", domain="d1", population_size=10_000, covariate=0.0),),
            variables=(BinaryVariableModel("employed", intercept=0.4),),
            seed=5,
        )
        frame = generate_population(spec)
        p = 1.0 / (1.0 + np.exp(-0.4))
        count = frame.calib[:, 0].sum()
        sd = np.sqrt(10_000 * p * (1.0 - p))
        assert abs(count - 10_000 * p) < 3.0 * sd

    def test_zero_target_correlation(self):
        spec = small_spec(seed=11)
        spec = SyntheticPopulationSpec(
            domains=spec.domains,
            strata=spec.strata,
            variables=spec.variables,
            attributes=spec.attributes,
            outcomes=(OutcomeModel("noise", link="hours", rho=0.0),),
            seed=11,
        )
        frame = generate_population(spec)
        rho = np.corrcoef(frame.outcomes["noise"], frame.calib[:, 1])[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(frame.n)

    def test_moderate_target_correlation_realized(self):
        frame = generate_population(small_spec(seed=3, size=2500))
        rho = np.corrcoef(frame.outcomes["income"], frame.calib[:, 1])[0, 1]
        assert abs(rho - 0.6) < 0.05

    def test_infeasible_rho_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("rho: expected a real in [-1, 1], got 1.5")):
            OutcomeModel("u", link="hours", rho=1.5)

    def test_constant_link_rejected(self):
        spec = SyntheticPopulationSpec(
            domains=("d1",),
            strata=(StratumSpec("s1", domain="d1", population_size=100),),
            variables=(
                ContinuousVariableModel("flat", mean=5.0, unit_sd=0.0),
            ),
            outcomes=(OutcomeModel("u", link="flat", rho=0.5),),
            seed=1,
        )
        with pytest.raises(ConfigError, match="unreachable"):
            generate_population(spec)

    def test_gating_zeroes_non_members(self):
        frame = generate_population(small_spec(seed=9))
        employed = frame.calib[:, 0]
        hours = frame.calib[:, 1]
        assert np.all(hours[employed == 0.0] == 0.0)
        assert np.all(hours[employed == 1.0] >= 1.0)

    def test_exclusive_binary(self):
        spec = SyntheticPopulationSpec(
            domains=("d1",),
            strata=(StratumSpec("s1", domain="d1", population_size=5000),),
            variables=(
                BinaryVariableModel("employed", intercept=0.4),
                BinaryVariableModel("unemployed", intercept=-1.0, exclusive_with="employed"),
            ),
            seed=2,
        )
        frame = generate_population(spec)
        both = (frame.calib[:, 0] == 1.0) & (frame.calib[:, 1] == 1.0)
        assert not both.any()
        assert frame.calib[:, 1].sum() > 0

    def test_attribute_probabilities_validated(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            AttributeModel("occ", (("a", 0.6), ("b", 0.6)))


class TestTruthTable:
    def test_matches_independent_pass(self):
        frame = generate_population(
            small_spec(seed=21),
            (BandRule("band", "hours", (("lo", 1.0, 29.0), ("hi", 30.0, None)), "none"),),
        )
        cells = (
            CellQuery("emp_d1", "employed", CellFilter.build(domains="d1")),
            CellQuery("inc_a", "income", CellFilter.build(attributes={"occ": "a"})),
            CellQuery("emp_hi", "employed", CellFilter.build(attributes={"band": "hi"})),
        )
        truths = frame.truth_table(cells)
        # independent pass: plain python loops over the raw columns
        expected = {"emp_d1": 0.0, "inc_a": 0.0, "emp_hi": 0.0}
        for i in range(frame.n):
            emp = frame.calib[i, 0]
            hours = frame.calib[i, 1]
            if frame.domain_idx[i] == 0:
                expected["emp_d1"] += emp
            if frame.attributes["occ"][i] == "a":
                expected["inc_a"] += frame.outcomes["income"][i]
            if hours >= 30.0:
                expected["emp_hi"] += emp
        for name, value in expected.items():
            assert truths[name] == pytest.approx(value, rel=1e-12)

    def test_calibration_truth_vector(self):
        frame = generate_population(small_spec(seed=22))
        vector = frame.calibration_truth_vector()
        d1 = frame.domain_idx == 0
        assert vector[0] == pytest.approx(frame.calib[d1, 0].sum(), rel=1e-12)
        assert vector[3] == pytest.approx(frame.calib[~d1, 1].sum(), rel=1e-12)


class TestStratifiedSampling:
    def test_census_fraction(self):
        frame = generate_population(small_spec(seed=2, size=50))
        sample = draw_stratified_sample(frame, 1.0, chain_rng(0, 0))
        assert sample.n == frame.n
        assert np.all(sample.weights == 1.0)

    def test_weights_constant_within_stratum(self):
        frame = generate_population(small_spec(seed=2))
        sample = draw_stratified_sample(frame, 0.1, chain_rng(0, 1))
        for pos in range(len(sample.strata)):
            members = sample.stratum_idx == pos
            assert np.unique(sample.weights[members]).size == 1

    def test_minimum_two_per_stratum(self):
        frame = generate_population(small_spec(seed=2, size=100))
        sample = draw_stratified_sample(frame, 0.001, chain_rng(0, 2))
        assert np.all(sample.stratum_counts == 2)

    def test_ht_totals_unbiased_over_repeats(self):
        from postcal.calibration import ht_totals

        frame = generate_population(small_spec(seed=13, n_strata=2, size=60))
        truth = frame.calibration_truth_vector()
        rng = chain_rng(99, 0)
        totals = []
        for _ in range(500):
            sample = draw_stratified_sample(frame, 0.3, rng)
            totals.append(ht_totals(sample, frame.calibration))
        totals = np.array(totals)
        mean = totals.mean(axis=0)
        se = totals.std(axis=0, ddof=1) / np.sqrt(totals.shape[0])
        assert np.all(np.abs(mean - truth) <= 3.0 * np.maximum(se, 1e-9))

    def test_sample_keeps_the_derived_bands(self):
        rules = (
            BandRule("band", "hours", (("high", 30.0, None),)),
            BandRule("rich", "income", (("high", 1000.0, None),)),
        )
        frame = generate_population(small_spec(seed=71), rules)
        assert frame.calibration_attributes == ("band",)
        sample = draw_stratified_sample(frame, 0.1, chain_rng(0, 3))
        assert sample.calibration_attributes == ("band",)
        for attribute, tier in (("band", TierLabel.TIER_2CA), ("rich", TierLabel.TIER_2NCA)):
            query = CellQuery("c", "employed", CellFilter.build(attributes={attribute: "high"}))
            assert classify_cell(query, sample) is tier

    def test_invalid_fraction(self):
        frame = generate_population(small_spec(seed=2, size=50))
        with pytest.raises(DataError, match="fraction"):
            draw_stratified_sample(frame, 0.0, chain_rng(0, 0))


class TestReplication:
    def test_truth_targets_make_exact_cells_degenerate(self):
        mc = run_config(31, 1, 0.2, {"burnin": 10, "iterations": 20, "chains": 2})
        assert mc.simulate.population == small_spec(seed=31)
        frame = generate_population(mc.simulate.population)
        truths = frame.truth_table(mc.cells)
        result = run_replication(*truth_targeted(frame, mc), mc, 0)
        assert result.converged
        row = result.rows[0]  # hours_d1 is the exact constraint cell
        assert row.tier.value == "1-E"
        assert row.cri_lower == pytest.approx(truths["hours_d1"], rel=1e-9)
        assert row.cri_upper == pytest.approx(truths["hours_d1"], rel=1e-9)
        report = accumulate_report([result], truths, mc)
        assert report.cells[0].cri_coverage == 1.0

    def test_replication_deterministic(self):
        mc = run_config(41, 2, 0.15, {"burnin": 30, "iterations": 60, "chains": 2})
        frame = generate_population(mc.simulate.population)
        a = run_chunk(frame, mc, [1])[0]
        b = run_chunk(frame, mc, [1])[0]
        for ra, rb in zip(a.rows, b.rows):
            assert ra.point == rb.point
            assert ra.cri_lower == rb.cri_lower
            assert ra.cbi_upper == rb.cbi_upper

    def test_replication_matches_standalone_pipeline(self):
        # the harness must be the same code path as a by-hand run with the
        # same derived seeds
        from postcal.fitting import fit_all_variables

        mc = run_config(51, 1, 0.15, {"burnin": 30, "iterations": 60, "chains": 2})
        frame = generate_population(mc.simulate.population)
        result = run_chunk(frame, mc, [3])[0]

        rng = chain_rng(51, 3, 0)
        sample = draw_stratified_sample(frame, 0.15, rng)
        draws, _, _ = fit_all_variables(
            sample,
            frame.calibration,
            mc.models,
            frame.covariates,
            McmcConfig(burnin=30, iterations=60, chains=2, seed=51),
            base_keys=[(3, 1)],
        )
        art = build_artifacts(sample, draws, level=0.95)
        report = build_run_report(art, mc.cells)
        for ra, rb in zip(result.rows, report.rows):
            assert ra.point == rb.point
            assert ra.cri_lower == rb.cri_lower
            assert ra.cri_upper == rb.cri_upper


class TestAccumulation:
    @staticmethod
    def _fake_results(n_total, n_covered, truth=10.0):
        from postcal.report import CellReportRow
        from postcal.frame import TierLabel

        results = []
        for i in range(n_total):
            covered = i < n_covered
            low, high = (9.0, 11.0) if covered else (11.5, 12.5)
            row = CellReportRow(
                name="c",
                tier=TierLabel.TIER_2NCA,
                n_cell=5,
                point=10.0,
                cri_lower=low,
                cri_upper=high,
                cri_kind="quasi-posterior",
                cbi_lower=low,
                cbi_upper=high,
                component1=1.0,
                component2=1.0,
                cv_cri=0.01,
                cv_cbi=0.02,
            )
            results.append(
                ReplicationResult(index=i, converged=True, rows=[row])
            )
        return results

    def test_coverage_arithmetic(self):
        mc = run_config(0, 200, 0.1, cells=[{"name": "c", "sum": "employed"}])
        results = self._fake_results(200, 190)
        report = accumulate_report(results, {"c": 10.0}, mc)
        cell = report.cells[0]
        assert cell.cri_coverage == pytest.approx(0.95)
        assert cell.cri_mc_se == pytest.approx(np.sqrt(0.95 * 0.05 / 200), rel=1e-12)
        assert not cell.cri_outside_2se

    def test_all_covered(self):
        mc = run_config(0, 10, 0.1, cells=[{"name": "c", "sum": "employed"}])
        report = accumulate_report(self._fake_results(10, 10), {"c": 10.0}, mc)
        assert report.cells[0].cri_coverage == 1.0
        assert report.cells[0].cri_mc_se == 0.0

    @pytest.mark.parametrize("nominal", [0.95, 0.9, 0.8])
    def test_flag_takes_the_standard_error_at_the_nominal_rate(self, nominal):
        # |k/R - nominal| > 2 sqrt(nominal (1 - nominal) / R), squared and in
        # exact arithmetic; the standard error at k/R is 0 at 0/R and R/R
        p = Fraction(nominal)
        for R in range(1, 41):
            for k in range(R + 1):
                rate, se, flag = _rate([True] * k + [False] * (R - k), nominal)
                assert flag == ((Fraction(k, R) - p) ** 2 > 4 * p * (1 - p) / R), (k, R)
                assert se == np.sqrt(rate * (1.0 - rate) / R)  # the reported SE is at k/R

    def test_order_independence(self):
        mc = run_config(0, 50, 0.1, cells=[{"name": "c", "sum": "employed"}])
        results = self._fake_results(50, 37)
        forward = accumulate_report(results, {"c": 10.0}, mc)
        backward = accumulate_report(results[::-1], {"c": 10.0}, mc)
        assert forward.cells[0].cri_coverage == backward.cells[0].cri_coverage
        assert forward.cells[0].mean_point == backward.cells[0].mean_point

    def test_nonconverged_excluded_and_counted(self):
        mc = run_config(0, 5, 0.1, cells=[{"name": "c", "sum": "employed"}])
        results = self._fake_results(5, 5)
        results[2] = ReplicationResult(index=2, converged=False)
        report = accumulate_report(results, {"c": 10.0}, mc)
        assert report.replications_used == 4
        assert report.excluded_nonconverged == 1

    def test_no_converged_replications(self):
        mc = run_config(0, 1, 0.1, cells=[{"name": "c", "sum": "employed"}])
        bad = [ReplicationResult(index=0, converged=False)]
        with pytest.raises(DataError, match="no converged"):
            accumulate_report(bad, {"c": 1.0}, mc)


class TestParallelExecution:
    @pytest.mark.parametrize(
        "replications, threads, sizes",
        [(4, 1, [4]), (5, 2, [3, 2]), (17, 2, [9, 8]), (200, 2, [13] * 15 + [5])],
    )
    def test_chunks_are_each_workers_share_up_to_the_cap(self, replications, threads, sizes):
        assert REPLICATION_CHUNK == 13
        chunks = replication_chunks(replications, threads)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [i for chunk in chunks for i in chunk] == list(range(replications))

    def test_threads_match_sequential(self):
        # a replication count that leaves a short last chunk; every field of
        # every row must agree bit for bit (repr round-trips floats exactly)
        replications = 2 * REPLICATION_CHUNK + 1
        mc = run_config(61, replications, 0.15, {"burnin": 20, "iterations": 40, "chains": 2})
        frame = generate_population(mc.simulate.population)
        truths = frame.truth_table(mc.cells)
        seq_report, seq = run_simulation(frame, mc, truths=truths, threads=1)
        par_report, par = run_simulation(frame, mc, truths=truths, threads=2)
        assert [r.index for r in seq] == list(range(replications))
        assert any(r.rows for r in seq)
        assert repr(par) == repr(seq)
        assert repr(par_report) == repr(seq_report)
        # each replication in a chunk of its own gives the same result
        alone = [run_chunk(frame, mc, [i])[0] for i in range(replications)]
        assert repr(alone) == repr(seq)

    @pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
    def test_failing_replication_is_named(self):
        # one population unit's hours is not finite: the first replication in
        # the chunk whose sample draws it is named with the variable
        mc = run_config(61, 1, 0.15, {"burnin": 20, "iterations": 40, "chains": 2})
        frame = generate_population(mc.simulate.population)
        frame.calib[100, frame.calibration.variable_names.index("hours")] = np.nan
        chunk = range(3, 11)
        drawn = [
            i for i in chunk
            if np.isnan(draw_stratified_sample(frame, 0.15, chain_rng(61, i, 0)).column("hours")).any()
        ]
        assert drawn and drawn[0] != chunk[0]
        with pytest.raises(
            NumericalError, match=rf"^replication {drawn[0]}, variable 'hours': non-finite model inputs$"
        ):
            run_chunk(frame, mc, chunk)


class TestConfigBuilders:
    def test_grid_shorthand(self):
        spec = population_spec_from_config(
            {
                "domains": ["d1", "d2"],
                "strata": {"per_domain": 3, "population_size": 100},
                "variables": [
                    {"name": "emp", "kind": "binary", "intercept": 0.2},
                ],
            },
            seed=4,
        )
        assert len(spec.strata) == 6
        assert spec.strata[0].domain == "d1"
        assert spec.strata[5].domain == "d2"
        assert spec.strata[0].covariate == -1.0
        assert spec.strata[5].covariate == 1.0

    def test_explicit_strata(self):
        spec = population_spec_from_config(
            {
                "domains": ["d1"],
                "strata": [
                    {"id": "a", "domain": "d1", "population_size": 10, "covariate": 0.5},
                ],
                "variables": [{"name": "emp", "kind": "binary", "intercept": 0.0}],
            },
            seed=4,
        )
        assert spec.strata[0].id == "a"
        assert spec.strata[0].covariate == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            population_spec_from_config(
                {
                    "domains": ["d1"],
                    "strata": {"per_domain": 1, "population_size": 10},
                    "variables": [{"name": "x", "kind": "poisson"}],
                },
                seed=0,
            )

    def test_exclusive_with_must_name_a_binary_variable(self):
        spec = small_spec()
        with pytest.raises(ConfigError, match="exclusive_with"):
            replace(
                spec,
                variables=spec.variables
                + (BinaryVariableModel("x", intercept=0.0, exclusive_with="hours"),),
            )

    @pytest.mark.parametrize(
        "order,change,link,cause",
        [
            (
                (0, 1),
                {"exclusive_with": "employed"},
                "hours",
                "variables[0].exclusive_with: 'employed' is not an earlier binary variable",
            ),
            ((0, 1), {"gated_by": "hours"}, "hours", "variables[1].gated_by: 'hours' is not an earlier variable"),
            ((1, 0), {}, "hours", "variables[0].gated_by: 'employed' is not an earlier variable"),
            ((0, 1), {}, "wages", "outcomes[0].link: 'wages' is not a generated variable"),
        ],
        ids=["exclusive-with-itself", "gated-by-itself", "gated-by-later", "link-unknown"],
    )
    def test_hand_built_spec_references_are_checked(self, order, change, link, cause):
        spec = small_spec()
        employed, hours = spec.variables
        if "exclusive_with" in change:
            employed = replace(employed, **change)
        else:
            hours = replace(hours, **change)
        with pytest.raises(ConfigError, match=re.escape(cause)):
            replace(
                spec,
                variables=tuple((employed, hours)[i] for i in order),
                outcomes=(replace(spec.outcomes[0], link=link),),
            )

    def test_hand_built_stratum_domain_is_checked(self):
        spec = small_spec()
        strata = spec.strata[:1] + (replace(spec.strata[1], domain="d9"),) + spec.strata[2:]
        with pytest.raises(ConfigError, match=re.escape("strata[1].domain: 'd9' is not a declared domain")):
            replace(spec, strata=strata)

    def test_band_rules_applied_to_frame(self):
        frame = generate_population(
            small_spec(seed=71),
            (BandRule("band", "hours", (("low", None, 29.0), ("high", 30.0, None)), "x"),),
        )
        hours = frame.calib[:, 1]
        bands = frame.attributes["band"]
        assert np.all(bands[hours <= 29.0] == "low")
        assert np.all(bands[hours >= 30.0] == "high")

    def test_interval_cell_in_a_simulation_only_config(self):
        cell = {"name": "emp_long_hours", "sum": "employed", "where": {"hours": {"min": 40}}}
        cfg = run_config(5, 1, 0.2, {"burnin": 10, "iterations": 20, "chains": 2}, cells=[cell])
        frame, cfg, truths = build_simulation(cfg)
        long_hours = frame.column("hours") >= 40
        assert truths["emp_long_hours"] == frame.column("employed")[long_hours].sum()
        [row] = run_replication(*truth_targeted(frame, cfg), cfg, 0).rows
        assert row.tier is TierLabel.TIER_2CA


SMALL_AREA_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_small_area.yaml"


def test_small_area_config_runs(tmp_path):
    # the shipped config cut to 3 replications: its 75 cells in all four tiers
    raw = yaml.safe_load(SMALL_AREA_CONFIG.read_text())
    raw["simulate"]["mc"]["replications"] = 3
    config = tmp_path / "small_area.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    cells = json.loads((tmp_path / "out" / "coverage.json").read_text())["cells"]
    assert Counter(cell["tier"] for cell in cells) == {"1-E": 8, "2-CA": 4, "2-NCA": 15, "3-NCV": 48}
