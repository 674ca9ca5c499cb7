"""Invariants checked as properties over random columnar samples."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postcal.calibration import calibrate, compute_gram, ht_totals
from postcal.frame import CellFilter, CellQuery, evaluate_cell

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
        assert moved.count == cell.count
        total = (sample.weights * cell.values)[cell.mask].sum()
        moved_total = (permuted.weights * moved.values)[moved.mask].sum()
        assert moved_total == pytest.approx(total, rel=1e-12)


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
def test_stratum_members_match_a_scan(data):
    sample, _ = random_sample(data)
    for pos in range(len(sample.strata)):
        members = sample.stratum_members(pos)
        assert np.array_equal(members, np.flatnonzero(sample.stratum_idx == pos))
        assert not members.flags.writeable
