import re

import numpy as np
import pytest

from postcal.errors import DataError
from postcal.frame import (
    CalibrationSpec,
    CellFilter,
    CellQuery,
    SampleSet,
    StratumSpec,
    block_sums,
    evaluate_cell,
)

from conftest import build_design_vector, make_random_sample, sample_from_rows, take_rows


def spec_vd(v, d):
    return CalibrationSpec(
        variable_names=tuple(f"v{k + 1}" for k in range(v)),
        domain_order=tuple(f"d{k + 1}" for k in range(d)),
    )


def units(spec, domain_idx, calib):
    """One-stratum sample of the given domains and calibration rows."""
    n = len(domain_idx)
    return SampleSet((StratumSpec("s1", 10),), spec, [0] * n, domain_idx, [1.0] * n, calib)


class TestBlockSums:
    def test_worked_example(self):
        # two records in d2 and one in d1; variable-major blocks v1_d1, v1_d2, v2_d1, v2_d2
        sample = units(spec_vd(2, 2), [1, 0, 1], [[1.0, 10.0], [0.0, 20.0], [1.0, 30.0]])
        assert block_sums(sample).tolist() == [0.0, 2.0, 20.0, 40.0]
        scaled = block_sums(sample, scale=np.array([2.0, 3.0, 0.5]))
        assert scaled.tolist() == [0.0, 2.5, 60.0, 35.0]

    def test_empty_domain_gives_zero_blocks(self):
        sums = block_sums(units(spec_vd(3, 8), [4], [[1.0, 0.0, 38.0]]))
        assert sums.shape == (24,)
        assert np.flatnonzero(sums).tolist() == [4, 20]

    @pytest.mark.parametrize("width", [1, 3])
    def test_variable_count_mismatch_rejected(self, width):
        # the store rejects the rows, so block_sums never meets them
        with pytest.raises(DataError, match="2 variables"):
            units(spec_vd(2, 2), [0], np.ones((1, width)))


class TestDesignVector:
    def test_worked_example_three_nonzero(self):
        # employed person in the first of eight domains working 38 h/week
        spec = spec_vd(3, 8)
        y = build_design_vector("d1", (1.0, 0.0, 38.0), spec)
        assert y.shape == (24,)
        assert y[0] == 1.0
        assert y[16] == 38.0
        assert np.count_nonzero(y) == 2  # the zero-valued variable drops out

    def test_all_zero_values(self):
        spec = spec_vd(3, 8)
        assert np.all(build_design_vector("d3", (0.0, 0.0, 0.0), spec) == 0.0)

    def test_two_by_two_layout(self):
        spec = spec_vd(2, 2)
        assert build_design_vector("d2", (3.0, 5.0), spec).tolist() == [
            0.0, 3.0, 0.0, 5.0,
        ]

    def test_unknown_domain_named_in_error(self):
        spec = spec_vd(2, 2)
        with pytest.raises(DataError, match="nowhere"):
            build_design_vector("nowhere", (1.0, 2.0), spec)

    def test_at_most_one_nonzero_per_block(self):
        sample, spec = make_random_sample(40, 3, 4, seed=9)
        D = spec.n_domains
        for d, values in zip(sample.domain_idx, sample.calib):
            y = build_design_vector(spec.domain_order[d], values, spec)
            for v in range(spec.n_variables):
                block = y[v * D : (v + 1) * D]
                assert np.count_nonzero(block) <= 1

    def test_weighted_sum_matches_filtered_totals(self):
        # block layout cross-check: the weighted design-vector sum must agree
        # with direct per-(variable, domain) filtered summation
        sample, spec = make_random_sample(60, 2, 3, seed=5)
        total = np.zeros(spec.p)
        for w, d, values in zip(sample.weights, sample.domain_idx, sample.calib):
            total += w * build_design_vector(spec.domain_order[d], values, spec)
        for v, name in enumerate(spec.variable_names):
            for d, dom in enumerate(spec.domain_order):
                direct = sum(
                    w * values[v]
                    for w, di, values in zip(
                        sample.weights, sample.domain_idx, sample.calib
                    )
                    if di == d
                )
                assert total[v * spec.n_domains + d] == pytest.approx(direct, rel=1e-12)


def toy_ten_records():
    hours = [10.0, 36.0, 38.0, 40.0, 35.0, 39.0, 12.0, 37.0, 50.0, 0.0]
    employed = [1, 1, 1, 1, 1, 1, 0, 1, 1, 0]
    spec = CalibrationSpec(("employed", "hours"), ("d1", "d2"))
    strata = (StratumSpec("s1", 100),)
    rows = [
        ("s1", "d1" if i < 5 else "d2", 2.0, (float(employed[i]), hours[i]))
        for i in range(10)
    ]
    sample = sample_from_rows(
        rows,
        strata,
        spec,
        attributes={"sex": ["f" if i % 2 == 0 else "m" for i in range(10)]},
        outcomes={"income": [100.0 * i for i in range(10)]},
    )
    return sample, spec


class TestEvaluateCell:
    def test_always_true_filter(self):
        sample, spec = toy_ten_records()
        cell = evaluate_cell(
            CellQuery("all", "hours", CellFilter()), sample, spec
        )
        assert cell.mask.all()
        assert np.array_equal(cell.values, sample.calib[:, 1])

    def test_domain_filter_selects_domain(self):
        sample, spec = toy_ten_records()
        cell = evaluate_cell(
            CellQuery("d2", "employed", CellFilter.build(domains="d2")), sample, spec
        )
        assert cell.mask.tolist() == [False] * 5 + [True] * 5

    def test_hours_band_hand_enumerated(self):
        sample, spec = toy_ten_records()
        cell = evaluate_cell(
            CellQuery(
                "band", "employed", CellFilter.build(ranges={"hours": (35.0, 39.0)})
            ),
            sample,
            spec,
        )
        # hours 36, 38, 35, 39, 37 fall in the closed band
        assert cell.mask.tolist() == [
            False, True, True, False, True, True, False, True, False, False,
        ]
        assert np.count_nonzero(cell.mask) == 5

    def test_attribute_and_outcome_resolution(self):
        sample, spec = toy_ten_records()
        cell = evaluate_cell(
            CellQuery("inc_f", "income", CellFilter.build(attributes={"sex": "f"})),
            sample,
            spec,
        )
        assert np.count_nonzero(cell.mask) == 5
        assert cell.values[2] == 200.0

    def test_order_independence(self):
        sample, spec = toy_ten_records()
        shuffled = take_rows(sample, np.arange(sample.n)[::-1])
        q = CellQuery("band", "employed", CellFilter.build(ranges={"hours": (35, 39)}))
        a = evaluate_cell(q, sample, spec)
        b = evaluate_cell(q, shuffled, spec)
        assert np.count_nonzero(a.mask) == np.count_nonzero(b.mask)
        assert a.values[a.mask].sum() == b.values[b.mask].sum()

    def test_idempotent(self):
        sample, spec = toy_ten_records()
        q = CellQuery("d1", "hours", CellFilter.build(domains="d1"))
        first = evaluate_cell(q, sample, spec)
        second = evaluate_cell(q, sample, spec)
        assert np.array_equal(first.mask, second.mask)

    def test_unknown_variable(self):
        sample, spec = toy_ten_records()
        with pytest.raises(DataError, match="neither"):
            evaluate_cell(CellQuery("x", "wages", CellFilter()), sample, spec)

    def test_unknown_attribute(self):
        sample, spec = toy_ten_records()
        with pytest.raises(DataError, match="occupation"):
            evaluate_cell(
                CellQuery(
                    "x", "employed", CellFilter.build(attributes={"occupation": "a"})
                ),
                sample,
                spec,
            )

    def test_unknown_domain_in_filter(self):
        sample, spec = toy_ten_records()
        with pytest.raises(DataError, match="d9"):
            evaluate_cell(
                CellQuery("x", "employed", CellFilter.build(domains="d9")),
                sample,
                spec,
            )


def one_stratum_sample(n=1, population=10, weight=1.0, **columns):
    args = dict(
        stratum_idx=[0] * n,
        domain_idx=[0] * n,
        weights=[weight] * n,
        calib=[(1.0,)] * n,
    )
    args.update(columns)
    return SampleSet((StratumSpec("s1", population),), spec_vd(1, 1), **args)


class TestSampleSetValidation:
    def test_valid_columns_accepted(self):
        sample = one_stratum_sample(n=3)
        assert sample.n == 3
        assert sample.calib.shape == (3, 1)
        assert sample.stratum_counts.tolist() == [3]

    def test_unknown_stratum_rejected(self):
        # ids resolve to positions at ingestion; a position outside the
        # strata is the columnar form of an unknown stratum
        with pytest.raises(DataError, match="stratum positions"):
            one_stratum_sample(stratum_idx=[1])

    def test_unknown_domain_position_rejected(self):
        with pytest.raises(DataError, match="domain positions"):
            one_stratum_sample(domain_idx=[-1])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="stratum ids"):
            SampleSet(
                (StratumSpec("s1", 10), StratumSpec("s1", 10)),
                spec_vd(1, 1),
                stratum_idx=[0],
                domain_idx=[0],
                weights=[1.0],
                calib=[(1.0,)],
            )

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError, match="at least one record"):
            one_stratum_sample(n=0, calib=np.empty((0, 1)))

    @pytest.mark.parametrize(
        "column",
        ["stratum_idx", "domain_idx", "calib", "attributes", "outcomes"],
    )
    def test_column_length_must_match(self, column):
        bad = {
            "stratum_idx": [0, 0, 0],
            "domain_idx": [0],
            "calib": [(1.0,)],
            "attributes": {"sex": ["f"]},
            "outcomes": {"income": [1.0, 2.0, 3.0]},
        }[column]
        with pytest.raises(DataError, match="shape"):
            one_stratum_sample(n=2, **{column: bad})

    def test_calibration_attributes_must_be_attribute_columns(self):
        sample = one_stratum_sample(
            n=2, attributes={"band": ["lo", "hi"]}, calibration_attributes=["band"]
        )
        assert sample.calibration_attributes == ("band",)
        assert one_stratum_sample().calibration_attributes == ()
        with pytest.raises(DataError, match="attribute 'hours_band' is not an attribute column"):
            one_stratum_sample(
                n=2, attributes={"band": ["lo", "hi"]}, calibration_attributes=["band", "hours_band"]
            )

    @pytest.mark.parametrize(
        "columns,cause",
        [
            ({"outcomes": {"v1": [1.0, 2.0]}}, "outcomes[0]: 'v1' is a calibration variable"),
            ({"attributes": {"v1": ["x", "y"]}}, "attributes[0]: 'v1' is a calibration variable"),
            ({"attribute_codes": {"v1": (("z",), [0, 0])}}, "attribute_codes[0]: 'v1' is a calibration variable"),
            ({"attributes": {"g": ["x", "y"]}, "outcomes": {"g": [1.0, 2.0]}}, "outcomes[0]: 'g' is in attributes"),
            (
                {"attribute_codes": {"g": (("z",), [0, 0])}, "outcomes": {"g": [1.0, 2.0]}},
                "outcomes[0]: 'g' is in attribute_codes",
            ),
            # the codes were once kept over the labels without a word
            (
                {"attributes": {"g": ["x", "y"]}, "attribute_codes": {"g": (("z",), [0, 0])}},
                "attribute_codes[0]: 'g' is in attributes",
            ),
        ],
        ids=["outcome", "attribute", "coded-attribute", "outcome-attribute", "outcome-coded", "attribute-twice"],
    )
    def test_a_name_holds_one_column(self, columns, cause):
        with pytest.raises(DataError, match=re.escape(cause)):
            one_stratum_sample(n=2, **columns)

    def test_calibration_values_must_be_a_matrix(self):
        with pytest.raises(DataError, match="n x V"):
            one_stratum_sample(n=2, calib=[1.0, 2.0])

    def test_check_spec_compares_variable_names(self):
        sample = make_random_sample(6, 2, 2, seed=1)[0]
        sample.check_spec(spec_vd(2, 2))
        renamed = CalibrationSpec(("v1", "w2"), ("d1", "d2"))
        with pytest.raises(DataError, match="sample layout .* does not match"):
            sample.check_spec(renamed)
        with pytest.raises(DataError, match="sample layout .* does not match"):
            evaluate_cell(CellQuery("all", "v1"), sample, renamed)
        with pytest.raises(DataError, match="sample layout .* does not match"):
            sample.check_spec(CalibrationSpec(("v1", "v2"), ("d2", "d1")))

    def test_column_by_name(self):
        sample, _ = toy_ten_records()
        assert np.array_equal(sample.column("hours"), sample.calib[:, 1])
        assert sample.column("income") is sample.outcomes["income"]
        with pytest.raises(DataError, match="^variable 'wages' is neither"):
            sample.column("wages")
        with pytest.raises(DataError, match="^cell 'c': variable 'wages'"):
            sample.column("wages", "c")

    def test_sample_larger_than_population_rejected(self):
        with pytest.raises(DataError, match="exceeds"):
            one_stratum_sample(n=3, population=2)

    def test_nonpositive_weight_rejected(self):
        for weight in (0.0, -1.0, float("nan")):
            with pytest.raises(DataError, match="'s1': design weight"):
                one_stratum_sample(weight=weight)
