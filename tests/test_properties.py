"""Invariants checked as properties over random columnar samples."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postcal.calibration import (
    CalibratedWeights,
    calibrate,
    cell_weighted_moment,
    compute_gram,
    ht_totals,
    pivoted_cholesky_rank,
)
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
from postcal import replicate
from postcal.hb import PosteriorDraws
from postcal.io import BandRule
from postcal.replicate import classify_cell, recalibration_oracle, replicate_totals
from postcal.report import analyze_cell, build_artifacts, build_run_report
from postcal.simulate import SurveyFrame
from postcal.variance import stratum_kernel, variance_components

from cbi_reference import reference_variance_components
from conftest import make_random_sample, take_rows

seeds = st.integers(0, 2**32 - 1)


def random_sample(data, min_n=1):
    V = data.draw(st.integers(1, 3), label="V")
    D = data.draw(st.integers(1, 4), label="D")
    n = data.draw(st.integers(max(1, min_n * V * D), max(60, 2 * min_n * V * D)), label="n")
    H = data.draw(st.integers(1, 3), label="strata")
    return make_random_sample(n, V, D, seed=data.draw(seeds, label="seed"), n_strata=H)


def random_filter(data, spec) -> CellFilter:
    bounds = st.none() | st.floats(0.0, 40.0)
    domains = st.none() | st.sets(st.sampled_from(spec.domain_order), min_size=1)
    groups = st.sets(st.sampled_from(["a", "b", "c"]), min_size=1)
    attributes = st.none() | st.fixed_dictionaries({"group": groups})
    ranges = st.none() | st.dictionaries(
        st.sampled_from(spec.variable_names), st.tuples(bounds, bounds), max_size=2
    )
    return CellFilter.build(
        domains=data.draw(domains, label="domains"),
        attributes=data.draw(attributes, label="attributes"),
        ranges=data.draw(ranges, label="ranges"),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_permutation_permutes_cell_masks(data):
    sample, spec = random_sample(data)
    order = np.random.default_rng(data.draw(seeds, label="order")).permutation(sample.n)
    permuted = take_rows(sample, order)
    summed = st.sampled_from(spec.variable_names + ("u",))
    for k in range(data.draw(st.integers(1, 4), label="cells")):
        query = CellQuery(f"c{k}", data.draw(summed), random_filter(data, spec))
        cell = evaluate_cell(query, sample, spec)
        moved = evaluate_cell(query, permuted, spec)
        assert np.array_equal(moved.mask, cell.mask[order])
        assert np.count_nonzero(moved.mask) == np.count_nonzero(cell.mask)
        total = (sample.weights * cell.values)[cell.mask].sum()
        moved_total = (permuted.weights * moved.values)[moved.mask].sum()
        assert moved_total == pytest.approx(total, rel=1e-12)


def label_mask(f: CellFilter, sample: SampleSet) -> np.ndarray:
    """Reference filter: ``np.isin`` on the label columns themselves."""
    domain_labels = np.array(sample.domain_ids, dtype=object)[sample.domain_idx]
    mask = np.isin(domain_labels, list(f.domains)) if f.domains is not None else True
    for attr, levels in f.attribute_levels:
        mask = mask & np.isin(sample.attributes[attr], list(levels))
    for var, (lo, hi) in f.value_ranges:
        column = sample.column(var)
        mask = mask & (lo is None or column >= lo) & (hi is None or column <= hi)
    return np.broadcast_to(mask, (sample.n,))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coded_masks_equal_label_masks(data):
    sample, spec, _ = spanning_sample(data)
    frame = SurveyFrame(
        spec=None,
        covariates={},
        strata=sample.strata,
        calibration=spec,
        stratum_idx=sample.stratum_idx,
        domain_idx=sample.domain_idx,
        calib=sample.calib,
        attributes=sample.attributes,
        outcomes=sample.outcomes,
    )
    # "zz" never occurs in the sample
    levels = st.sets(st.sampled_from(["a", "b", "c", "zz"]), min_size=1)
    filters = [
        random_filter(data, spec),
        CellFilter.build(attributes={"group": data.draw(levels, label="levels")}),
        CellFilter.build(attributes={"group": {"zz"}}),
        CellFilter.build(attributes={"group": {"a", "zz"}}),
    ]
    for k, f in enumerate(filters):
        want = label_mask(f, sample)
        query = CellQuery(f"c{k}", "u", f)
        for units in (sample, frame):
            cell = evaluate_cell(query, units, spec)
            assert cell.mask.tolist() == want.tolist()
        # the truth adds per-atom sums, so its order is not that of one pass
        truth = sample.outcomes["u"][want].sum()
        assert frame.truth_table((query,))[query.name] == pytest.approx(truth, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_calibration_reproduces_random_targets(data):
    sample, spec = random_sample(data, min_n=6)
    gram = compute_gram(sample, spec)
    assume(gram.full_rank and gram.condition_estimate < 1e8)
    ht = ht_totals(sample, spec)
    rng = np.random.default_rng(data.draw(seeds, label="targets"))
    target = ht * rng.uniform(0.7, 1.3, size=spec.p)
    weights = calibrate(sample, gram, ht, target)
    achieved = sample.design_matrix(spec).T @ weights.weights
    violation = np.abs(achieved - target) / np.maximum(np.abs(target), 1e-12)
    assert violation.max() < 1e-8


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_replicate_totals_match_recalibration_at_every_draw(data):
    # the affine identity: propagating draws through a_c equals recalibrating
    sample, spec = random_sample(data, min_n=6)
    gram = compute_gram(sample, spec)
    assume(gram.full_rank and gram.condition_estimate < 1e6)
    ht = ht_totals(sample, spec)
    rng = np.random.default_rng(data.draw(seeds, label="draws"))
    B = data.draw(st.integers(2, 8), label="B")
    draws = PosteriorDraws(ht * rng.uniform(0.7, 1.3, (B, spec.p)), np.zeros(B, dtype=int))
    summed = st.sampled_from(spec.variable_names + ("u",))
    for k in range(data.draw(st.integers(1, 3), label="cells")):
        query = CellQuery(f"c{k}", data.draw(summed, label="summed"), random_filter(data, spec))
        cell = evaluate_cell(query, sample, spec)
        got = replicate_totals(cell, draws, gram, ht, sample, spec).values
        want = recalibration_oracle(query, draws, gram, ht, sample, spec)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tier_classification_is_total_and_ignores_clause_order(data):
    sample, spec = random_sample(data)
    names = ("group", "band", "region")
    derived = data.draw(st.sets(st.sampled_from(names)), label="derived")
    summed = data.draw(st.sampled_from(spec.variable_names + ("u",)), label="summed")
    domains = data.draw(
        st.none() | st.sets(st.sampled_from(spec.domain_order), min_size=1), label="domains"
    )
    levels = st.sets(st.sampled_from(["a", "b", "c"]), min_size=1)
    attributes = data.draw(st.dictionaries(st.sampled_from(names), levels), label="attributes")
    bounds = st.none() | st.floats(0.0, 40.0)
    ranges = data.draw(
        st.dictionaries(st.sampled_from(spec.variable_names), st.tuples(bounds, bounds)),
        label="ranges",
    )

    # every name is an attribute column, so any subset may be declared derived
    sample = SampleSet(
        sample.strata,
        spec,
        sample.stratum_idx,
        sample.domain_idx,
        sample.weights,
        sample.calib,
        attributes={name: sample.attributes["group"] for name in names},
        outcomes=sample.outcomes,
        calibration_attributes=derived,
    )

    def tier(attributes, ranges):
        query = CellQuery("c", summed, CellFilter.build(domains, attributes, ranges))
        return classify_cell(query, sample)

    got = tier(attributes, ranges)
    assert isinstance(got, TierLabel)
    shuffled = [dict(data.draw(st.permutations(list(d.items())))) for d in (attributes, ranges)]
    assert tier(*shuffled) is got
    calibrated = summed in spec.variable_names
    bare_domain = domains is not None and len(domains) == 1 and not attributes and not ranges
    assert (got is TierLabel.TIER_3NCV) == (not calibrated)
    assert (got is TierLabel.TIER_1E) == (calibrated and bare_domain)
    assert (got is TierLabel.TIER_2CA) == (
        calibrated and not bare_domain and set(attributes) <= derived
    )


def spanning_sample(data):
    """Records placed in random strata and domains, so strata span domains;
    some strata are singletons, empty or fully sampled (census)."""
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    H = data.draw(st.integers(1, 5), label="strata")
    D = data.draw(st.integers(1, 4), label="domains")
    n = data.draw(st.integers(2, 40), label="n")
    stratum_idx = rng.integers(0, H, n)
    counts = np.bincount(stratum_idx, minlength=H)
    sizes = np.maximum(counts + rng.integers(0, 3 * counts + 2), 1)
    strata = tuple(
        StratumSpec(f"s{h + 1}", int(size), deff=float(rng.uniform(0.5, 3.0)))
        for h, size in enumerate(sizes)
    )
    spec = CalibrationSpec(("v1", "v2"), tuple(f"d{j + 1}" for j in range(D)))
    calib = np.column_stack(
        [(rng.random(n) < 0.6).astype(float), rng.uniform(0.5, 40.0, n)]
    )
    sample = SampleSet(
        strata,
        spec,
        stratum_idx,
        rng.integers(0, D, n),
        rng.uniform(1.0, 5.0, n),
        calib,
        attributes={"group": rng.choice(["a", "b", "c"], n)},
        outcomes={"u": rng.uniform(1.0, 20.0, n)},
    )
    return sample, spec, rng


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stratum_kernel_matches_np_var(data):
    sample, _, rng = spanning_sample(data)
    values = sample.calib[:, 1].copy()
    constant = int(rng.integers(len(sample.strata)))
    values[sample.stratum_idx == constant] = 0.1
    got = sample.stratum_mean_variance(values)
    assert got[constant] == 0.0
    for h, stratum in enumerate(sample.strata):
        members = values[sample.stratum_idx == h]
        n_h = members.size
        if h == constant or n_h < 2:
            assert got[h] == 0.0
            continue
        f = n_h / stratum.population_size
        want = stratum.deff * (1.0 - f) * np.var(members, ddof=1) / n_h
        assert got[h] == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_variance_components_match_the_loop_form(data):
    sample, spec, rng = spanning_sample(data)
    posterior_mean = rng.uniform(50.0, 500.0, spec.p)
    posterior_mean[rng.random(spec.p) < 0.3] = 0.0  # zero-total domains
    B = data.draw(st.integers(2, 30), label="draws")
    draws = PosteriorDraws(
        posterior_mean + rng.normal(0.0, 10.0, (B, spec.p)), np.zeros(B, dtype=int)
    )
    weights = CalibratedWeights(sample.weights, np.ones(sample.n), posterior_mean, 0)
    # a copy where stratum `still` lies wholly in one domain, its outcome constant there
    still = int(rng.integers(len(sample.strata)))
    in_still = sample.stratum_idx == still
    still_sample = SampleSet(
        sample.strata,
        spec,
        sample.stratum_idx,
        np.where(in_still, int(rng.integers(spec.n_domains)), sample.domain_idx),
        sample.weights,
        sample.calib,
        attributes=sample.attributes,
        outcomes={"u": np.where(in_still, 0.1, sample.outcomes["u"])},
    )
    filters = [random_filter(data, spec), CellFilter.build(attributes={"group": "zz"})]
    summed = st.sampled_from(spec.variable_names + ("u",))
    cases = [(sample, CellQuery(f"c{k}", data.draw(summed), f)) for k, f in enumerate(filters)]
    cases.append((still_sample, CellQuery("c2", "u")))
    for units, query in cases:
        cell = evaluate_cell(query, units, spec)
        denominator = data.draw(st.sampled_from(spec.variable_names), label="denominator")
        args = (cell, weights, denominator, posterior_mean, draws)
        got = variance_components(units, *args)
        c1, c2, terms, warnings = reference_variance_components(units, spec, *args)
        assert got.warnings == warnings
        assert got.shares.excluded.tolist() == [t.excluded for t in terms]
        for name in ("share", "share_variance", "domain_total"):
            want = [getattr(t, name) for t in terms]
            np.testing.assert_allclose(getattr(got.shares, name), want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            got.posterior_variance, [t.posterior_variance for t in terms], rtol=1e-12, atol=0
        )
        np.testing.assert_allclose([got.component1, got.component2], [c1, c2], rtol=1e-12, atol=0)
    # the whole-sample cell c2: `still` adds exactly 0 to every domain
    keys, values = stratum_kernel(CellPairs.one(cell, still_sample))
    kernel = np.zeros(len(sample.strata) * spec.n_domains)
    kernel[keys] = values
    assert kernel.reshape(-1, spec.n_domains)[still].tolist() == [0.0] * spec.n_domains


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_kernels_match_the_dense_design_matrix(data):
    sample, spec, rng = spanning_sample(data)
    Y = sample.design_matrix(spec)
    w = sample.weights

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    close(ht_totals(sample, spec), Y.T @ w)
    summed = data.draw(st.sampled_from(spec.variable_names + ("u",)), label="summed")
    cell = evaluate_cell(CellQuery("c", summed, random_filter(data, spec)), sample, spec)
    close(
        cell_weighted_moment(sample, cell.mask, cell.values),
        Y.T @ (w * cell.values * cell.mask),
    )
    gram = compute_gram(sample, spec)
    close(gram.g, Y.T @ (Y * w[:, None]))
    if gram.full_rank:
        ht = ht_totals(sample, spec)
        target = ht * rng.uniform(0.7, 1.3, spec.p)
        u = gram.solve(target - ht)
        # g_i = 1 + y_i'u may cancel to near 0: bound the error by its terms
        got = calibrate(sample, gram, ht, target).g_factors
        assert np.all(np.abs(got - (1.0 + Y @ u)) <= 1e-12 * (1.0 + np.abs(Y) @ np.abs(u)))
    frame = SurveyFrame(
        spec=None,
        covariates={},
        strata=sample.strata,
        calibration=spec,
        stratum_idx=sample.stratum_idx,
        domain_idx=sample.domain_idx,
        calib=sample.calib,
        attributes=sample.attributes,
        outcomes=sample.outcomes,
    )
    close(frame.calibration_truth_vector(), Y.sum(axis=0))


def label_one(rule: BandRule, value: float) -> str:
    """Per-value reference: the first band whose closed interval holds it."""
    for label, lo, hi in rule.bands:
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return label
    return rule.else_label


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_labels_match_a_per_value_reference(data):
    edges = [-1.0, 0.0, 1.0, 29.0, 29.5, 30.0, 45.0]
    bound = st.none() | st.sampled_from(edges)
    bands = data.draw(
        st.lists(st.tuples(st.sampled_from(["lo", "mid", "hi", "x"]), bound, bound), max_size=4),
        label="bands",
    )
    rule = BandRule("band", "v", tuple(bands), else_label="none")
    # values exactly on the band edges, plus any float (NaN included)
    values = data.draw(
        st.lists(st.sampled_from(edges) | st.floats(allow_nan=True), max_size=30),
        label="values",
    )
    levels, codes = rule.codes(np.array(values, dtype=float))
    assert [levels[c] for c in codes.tolist()] == [label_one(rule, v) for v in values]


def planted_psd_matrix(data) -> np.ndarray:
    """A p x p positive semi-definite matrix, p <= 12, of rank at most r
    (any r <= p), with planted zero columns, a column proportional to another,
    tied diagonals (an equicorrelation matrix, rank 1 at rho = 1) or one NaN
    diagonal."""
    p = data.draw(st.integers(1, 12), label="p")
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    if data.draw(st.booleans(), label="tied"):
        rho = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="rho")
        a = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    else:
        r = data.draw(st.integers(0, p), label="rank")
        M = rng.normal(size=(r, p))
        zero = data.draw(st.sets(st.integers(0, p - 1), max_size=p), label="zero columns")
        M[:, sorted(zero)] = 0.0
        if p > 1 and data.draw(st.booleans(), label="proportional"):
            i, j = rng.choice(p, size=2, replace=False)
            M[:, j] = data.draw(st.sampled_from([-3.0, 0.5, 2.0]), label="factor") * M[:, i]
        a = M.T @ M
    a *= 10.0 ** data.draw(st.integers(-6, 6), label="scale")
    if data.draw(st.booleans(), label="nan"):
        i = data.draw(st.integers(0, p - 1), label="nan at")
        a[i, i] = np.nan
    return a


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pivoted_cholesky_rank_matches_lapack_dpstrf(data):
    lapack = pytest.importorskip("scipy.linalg.lapack")
    a = planted_psd_matrix(data)
    p = a.shape[0]
    diag = a.diagonal()[~np.isnan(a.diagonal())]
    tol = p * (diag.max() if diag.size else 0.0) * 2.0**-50
    _, piv, want_rank, _ = lapack.dpstrf(a, tol=tol, lower=1)
    rank, order = pivoted_cholesky_rank(a)
    assert rank == want_rank
    assert sorted(order[rank:].tolist()) == sorted((piv[want_rank:] - 1).tolist())
    assert sorted(order.tolist()) == list(range(p))


def assert_rows_match(got, want, totals=None):
    """Report rows agree: floats to 1e-12 of their size, or of the row's
    totals where those cancel to near 0, everything else exactly; ``totals``
    maps a cell to the size of its HT total, which the interval bounds
    subtract from when a posterior-mean domain total is 0."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        fixed = (totals or {}).get(w.name, 0.0)
        scale = max(abs(w.point), abs(w.cri_lower), abs(w.cri_upper), fixed, 1.0)
        for f in fields(g):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if f.name in ("cv_cri", "cv_cbi"):
                if max(abs(g.point), abs(w.point)) <= 1e-12 * scale:
                    continue  # a point that cancels to 0 leaves its CV undetermined
                if a is not None:
                    # a CV is a width over the point, which may cancel to near 0
                    a, b = a * abs(g.point), b * abs(w.point)
            if isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * scale), (g.name, f.name)
            else:
                assert a == b, (g.name, f.name)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_report_matches_per_cell_analysis_in_any_grouping(data):
    # a singleton stratum, zero posterior-mean domain totals, and cells that
    # take every branch of the cell layer, reduced in groups of any size
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    D = data.draw(st.integers(1, 3), label="domains")
    H = data.draw(st.integers(1, 3), label="strata")
    n = data.draw(st.integers(6 * D, 60), label="n")
    stratum_idx = np.append(rng.integers(0, H, n - 1), H)
    counts = np.bincount(stratum_idx)
    strata = tuple(
        StratumSpec(f"s{h + 1}", max(int(c + rng.integers(0, 5)), 1), deff=float(rng.uniform(0.5, 3.0)))
        for h, c in enumerate(counts)
    )
    spec = CalibrationSpec(("v1", "v2"), tuple(f"d{j + 1}" for j in range(D)))
    sample = SampleSet(
        strata,
        spec,
        stratum_idx,
        np.arange(n) % D,
        rng.uniform(1.0, 5.0, n),
        np.column_stack([(rng.random(n) < 0.6).astype(float), rng.uniform(0.5, 40.0, n)]),
        attributes={"group": rng.choice(["a", "b", "c"], n)},
        outcomes={"u": rng.uniform(1.0, 20.0, n)},
    )
    assume(compute_gram(sample, spec).full_rank)
    B = data.draw(st.integers(2, 30), label="draws")
    mean = ht_totals(sample, spec) * rng.uniform(0.8, 1.2, spec.p)
    mean[rng.random(spec.p) < 0.25] = 0.0  # zero denominator totals
    draws = PosteriorDraws(mean * rng.normal(1.0, 0.05, (B, spec.p)), np.zeros(B, dtype=int))
    art = build_artifacts(sample, draws, level=0.9)

    names = st.sampled_from(("v1", "v2", "u"))
    cells = []
    for k in range(data.draw(st.integers(0, 6), label="cells")):
        summed = data.draw(names, label="summed")
        # an outcome has no CBI but as a ratio: its tier is 3-NCV
        tiers = [TierLabel.TIER_3NCV] if summed == "u" else list(TierLabel)
        override = data.draw(st.none() | st.sampled_from(tiers), label="override")
        link = data.draw(st.none() | names, label="link")
        cells.append(CellQuery(f"c{k}", summed, random_filter(data, spec), override, link))
    cells += [
        # empty, so no variable is an admissible link
        CellQuery("empty", "u", CellFilter.build(attributes={"group": "zz"})),
        CellQuery("override", "v2", CellFilter.build(domains="d1"), TierLabel.TIER_2NCA),
        # v1 is constant in the cell: a named link of correlation 0, so weak
        CellQuery("weak", "u", CellFilter.build(ranges={"v1": (1.0, 1.0)}), link_variable="v1"),
        # meets every domain and stratum: zero totals and the singleton
        CellQuery("whole", "v1"),
    ]
    cells = data.draw(st.permutations(cells), label="order")

    want = [analyze_cell(query, art) for query in cells]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("postcal.frame.CELL_GROUP_PAIRS", data.draw(st.sampled_from([1, 7, 10**9])))
        patch.setattr(replicate, "TOTALS_GROUP_BYTES", data.draw(st.sampled_from([1, 24 * B, 10**9])))
        got = build_run_report(art, tuple(cells)).rows
        backwards = build_run_report(art, tuple(cells[::-1])).rows
    totals = {}
    for query in cells:
        cell = evaluate_cell(query, sample, spec)
        totals[query.name] = float(np.abs(sample.weights * cell.values)[cell.mask].sum())
    assert_rows_match(got, want, totals)
    assert_rows_match(backwards, want[::-1], totals)
