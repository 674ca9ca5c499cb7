import numpy as np
import pytest

from postcal.calibration import (
    calibrate,
    cell_weighted_moment,
    compute_gram,
    ht_totals,
    replicate_direction,
)
from postcal.errors import NumericalError, RankDeficiencyError
from postcal.frame import (
    CalibrationSpec,
    CellFilter,
    CellQuery,
    StratumSpec,
    build_design_vector,
    evaluate_cell,
)

from conftest import make_random_sample, sample_from_rows


def dense_gram_oracle(sample, spec):
    """Direct triple product Y' diag(w) Y with Y assembled record by record."""
    Y = np.array(
        [
            build_design_vector(spec.domain_order[d], values, spec)
            for d, values in zip(sample.domain_idx, sample.calib)
        ]
    )
    return Y.T @ np.diag(sample.weights) @ Y


def kkt_oracle(sample, spec, target):
    """Solve the constrained quadratic program as one dense saddle system."""
    n = sample.n
    w = sample.weights
    Y = sample.design_matrix(spec)
    p = spec.p
    A = np.zeros((n + p, n + p))
    A[:n, :n] = np.diag(2.0 / w)
    A[:n, n:] = -Y
    A[n:, :n] = Y.T
    rhs = np.concatenate([2.0 * np.ones(n), target])
    solution = np.linalg.solve(A, rhs)
    return solution[:n]


class TestGram:
    def test_matches_dense_oracle(self):
        sample, spec = make_random_sample(5, 2, 2, seed=3)
        gram = compute_gram(sample, spec)
        oracle = dense_gram_oracle(sample, spec)
        assert np.max(np.abs(gram.g - oracle)) < 1e-12 * max(1.0, np.abs(oracle).max())

    def test_single_variable_is_diagonal(self):
        # one record per domain with unit values and weights: orthogonal blocks
        spec = CalibrationSpec(("v1",), ("d1", "d2", "d3"))
        records = [("s1", d, 1.0, (1.0,)) for d in spec.domain_order]
        sample = sample_from_rows(records, (StratumSpec("s1", 10),), spec)
        gram = compute_gram(sample, spec)
        assert np.array_equal(gram.g, np.eye(3))
        assert gram.full_rank

    def test_empty_block_reported_as_deficient(self):
        # no record in domain d2 carries variable v1, so that block is empty
        spec = CalibrationSpec(("v1",), ("d1", "d2"))
        records = [
            ("s1", "d1", 1.0, (2.0,)),
            ("s1", "d2", 1.0, (0.0,)),
        ]
        sample = sample_from_rows(records, (StratumSpec("s1", 10),), spec)
        gram = compute_gram(sample, spec)
        assert gram.rank == 1
        assert not gram.full_rank
        assert any("(v1, d2)" in b for b in gram.deficient_blocks)
        with pytest.raises(RankDeficiencyError, match=r"\(v1, d2\)"):
            gram.solve(np.zeros(2))

    def test_rank_matches_independent_factorization(self):
        for seed in range(5):
            sample, spec = make_random_sample(12, 2, 2, seed=seed)
            gram = compute_gram(sample, spec)
            Y = sample.design_matrix(spec)
            assert gram.rank == np.linalg.matrix_rank(
                Y * np.sqrt(sample.weights)[:, None]
            )

    def test_symmetry(self):
        sample, spec = make_random_sample(25, 3, 2, seed=8)
        gram = compute_gram(sample, spec)
        assert np.array_equal(gram.g, gram.g.T)


class TestHtTotals:
    def test_unit_weights_give_raw_sums(self):
        sample, spec = toy_fixture()
        ht = ht_totals(sample, spec)
        Y = sample.design_matrix(spec)
        assert np.allclose(ht, Y.sum(axis=0) * 2.0)  # all weights are 2.0

    def test_single_record(self):
        spec = CalibrationSpec(("v1",), ("d1",))
        records = [("s1", "d1", 10.0, (2.0,))]
        sample = sample_from_rows(records, (StratumSpec("s1", 20),), spec)
        assert ht_totals(sample, spec).tolist() == [20.0]

    def test_matches_filtered_sums(self):
        sample, spec = make_random_sample(40, 2, 3, seed=11)
        ht = ht_totals(sample, spec)
        for v in range(2):
            for d, dom in enumerate(spec.domain_order):
                direct = sum(
                    w * values[v]
                    for w, di, values in zip(
                        sample.weights, sample.domain_idx, sample.calib
                    )
                    if di == d
                )
                assert ht[v * 3 + d] == pytest.approx(direct, rel=1e-12)


def toy_fixture():
    """6 records, p = 2 (one variable, two domains), constant weight 2."""
    spec = CalibrationSpec(("v1",), ("d1", "d2"))
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    records = [
        ("s1", "d1" if i < 3 else "d2", 2.0, (values[i],))
        for i in range(6)
    ]
    sample = sample_from_rows(records, (StratumSpec("s1", 50),), spec)
    return sample, spec


class TestCalibrate:
    def test_identity_target_returns_design_weights(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        result = calibrate(sample, gram, ht, ht)
        assert np.allclose(result.weights, sample.weights, rtol=0, atol=1e-12)
        assert np.allclose(result.g_factors, 1.0, atol=1e-14)
        assert result.negative_count == 0

    def test_calibration_property_exact(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        rng = np.random.default_rng(77)
        Y = sample.design_matrix(spec)
        for _ in range(20):
            t = ht * rng.uniform(0.5, 1.5, size=spec.p)
            w = calibrate(sample, gram, ht, t)
            achieved = Y.T @ w.weights
            assert np.max(np.abs(achieved - t) / np.abs(t)) < 1e-10

    def test_matches_kkt_oracle(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = ht * rng.uniform(0.6, 1.4, size=spec.p)
            closed = calibrate(sample, gram, ht, t).weights
            oracle = kkt_oracle(sample, spec, t)
            assert np.allclose(closed, oracle, rtol=1e-8, atol=1e-8)

    def test_affinity(self):
        # the weight map is affine in the target
        sample, spec = make_random_sample(20, 2, 2, seed=13)
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        rng = np.random.default_rng(2)
        t1 = ht * rng.uniform(0.8, 1.2, spec.p)
        t2 = ht * rng.uniform(0.8, 1.2, spec.p)
        w1 = calibrate(sample, gram, ht, t1).weights
        w2 = calibrate(sample, gram, ht, t2).weights
        w_ht = calibrate(sample, gram, ht, ht).weights
        w_sum = calibrate(sample, gram, ht, t1 + t2 - ht).weights
        assert np.max(np.abs(w1 + w2 - w_ht - w_sum)) < 1e-10 * np.abs(w_sum).max()

    def test_objective_minimality_against_random_feasible_points(self):
        # closed form must not lose to any feasible perturbation
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        rng = np.random.default_rng(19)
        t = ht * 1.07
        w_opt = calibrate(sample, gram, ht, t).weights
        chi2 = np.sum((w_opt - sample.weights) ** 2 / sample.weights)
        Y = sample.design_matrix(spec)
        # Euclidean projector onto the null space of the constraint matrix
        P = Y @ np.linalg.solve(Y.T @ Y, Y.T)
        best = np.inf
        for _ in range(10_000):
            delta = rng.normal(0.0, 0.3, size=sample.n)
            w_alt = w_opt + delta - P @ delta
            assert np.max(np.abs(Y.T @ w_alt - t)) < 1e-8 * np.abs(t).max()
            best = min(best, np.sum((w_alt - sample.weights) ** 2 / sample.weights))
        assert chi2 <= best + 1e-12

    def test_negative_weights_counted_never_truncated(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        t = ht * np.array([3.0, 0.01])  # extreme target forces negative weights
        result = calibrate(sample, gram, ht, t)
        assert result.negative_count == int(np.sum(result.weights < 0))
        assert result.negative_count > 0
        achieved = sample.design_matrix(spec).T @ result.weights
        assert np.allclose(achieved, t, rtol=1e-10)

    def test_non_finite_target_rejected(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        ht = ht_totals(sample, spec)
        bad = ht.copy()
        bad[1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            calibrate(sample, gram, ht, bad)


class TestReplicateDirection:
    def test_full_sample_single_constraint_gives_one(self):
        spec = CalibrationSpec(("v1",), ("d1",))
        records = [
            ("s1", "d1", w, (y,))
            for w, y in [(2.0, 1.0), (3.0, 4.0), (1.5, 2.0)]
        ]
        sample = sample_from_rows(records, (StratumSpec("s1", 30),), spec)
        gram = compute_gram(sample, spec)
        cell = evaluate_cell(CellQuery("all", "v1", CellFilter()), sample, spec)
        moment = cell_weighted_moment(sample, cell.mask, cell.values)
        a = replicate_direction(gram, moment)
        assert a.shape == (1,)
        assert a[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_cell_gives_zero(self):
        sample, spec = toy_fixture()
        gram = compute_gram(sample, spec)
        moment = cell_weighted_moment(sample, np.zeros(sample.n, dtype=bool), sample.calib[:, 0])
        assert np.array_equal(replicate_direction(gram, moment), np.zeros(2))

    def test_residual_check(self):
        sample, spec = make_random_sample(30, 2, 2, seed=23)
        gram = compute_gram(sample, spec)
        cell = evaluate_cell(
            CellQuery("g", "v1", CellFilter.build(attributes={"group": "a"})),
            sample,
            spec,
        )
        moment = cell_weighted_moment(sample, cell.mask, cell.values)
        a = replicate_direction(gram, moment)
        assert np.max(np.abs(gram.g @ a - moment)) < 1e-10 * max(1.0, np.abs(moment).max())
