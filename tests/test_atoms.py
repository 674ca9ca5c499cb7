"""The atom table against a brute-force per-cell reference.

``frame.CellAtoms`` groups records that share stratum, domain and clause
membership, and every per-cell statistic of the cell layer is a reduction
over a cell's atoms.  Here each of them is checked over random samples
against NumPy over the cell's records: counts and met domains exactly,
floats to a relative 1e-12, and the zeros of the stratum kernel exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcal.calibration import cell_weighted_moments
from postcal.frame import (
    CalibrationSpec,
    CellAtoms,
    CellFilter,
    CellQuery,
    SampleSet,
    StratumSpec,
    evaluate_cell,
)
from postcal.replicate import cell_totals
from postcal.variance import domain_sums, link_correlations, stratum_kernel

seeds = st.integers(0, 2**32 - 1)


def random_sample(data):
    """Records in random strata and domains, with a census stratum s1, a
    stratum s2 of at least 3 records wholly in one domain whose outcome is
    constant, and a singleton stratum."""
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    H = data.draw(st.integers(3, 5), label="strata")
    D = data.draw(st.integers(1, 4), label="domains")
    n = data.draw(st.integers(H + 4, 60), label="n")
    stratum_idx = np.append(rng.integers(0, H - 1, n - 1), H - 1)  # the last is a singleton
    stratum_idx[:3] = 1
    still = stratum_idx == 1
    counts = np.bincount(stratum_idx, minlength=H)
    sizes = counts + rng.integers(0, 3 * counts + 2)
    sizes[0] = counts[0]  # a census stratum
    strata = tuple(
        StratumSpec(f"s{h + 1}", max(int(size), 1), deff=float(rng.uniform(0.5, 3.0)))
        for h, size in enumerate(sizes)
    )
    spec = CalibrationSpec(("v1", "v2"), tuple(f"d{j + 1}" for j in range(D)))
    u = np.where(still, 0.1, rng.uniform(1.0, 20.0, n))
    sample = SampleSet(
        strata,
        spec,
        stratum_idx,
        np.where(still, int(rng.integers(D)), rng.integers(0, D, n)),
        rng.uniform(1.0, 5.0, n),
        np.column_stack([(rng.random(n) < 0.6).astype(float), rng.uniform(0.5, 40.0, n)]),
        attributes={"group": rng.choice(["a", "b", "c"], n)},
        outcomes={"u": u},
    )
    return sample, spec, rng


def random_cells(data, spec, rng) -> list[CellQuery]:
    """Cells over more than 63 distinct clauses, an empty cell, a cell whose
    link variable v1 is constant, and the whole sample."""
    summed = st.sampled_from(("v1", "v2", "u"))
    levels = st.sets(st.sampled_from(["a", "b", "c"]), min_size=1)
    cells = []
    for k in range(data.draw(st.integers(64, 72), label="ranges")):
        low = float(rng.uniform(0.0, 40.0))
        high = data.draw(st.none() | st.just(low + float(rng.uniform(1.0, 20.0))), label="high")
        domains = data.draw(st.none() | st.sets(st.sampled_from(spec.domain_order), min_size=1))
        attributes = data.draw(st.none() | st.fixed_dictionaries({"group": levels}))
        f = CellFilter.build(domains=domains, attributes=attributes, ranges={"v2": (low, high)})
        cells.append(CellQuery(f"r{k}", data.draw(summed, label="summed"), f))
    cells += [
        CellQuery("empty", "u", CellFilter.build(attributes={"group": "zz"})),
        CellQuery("v1 constant", "u", CellFilter.build(ranges={"v1": (1.0, 1.0)})),
        CellQuery("whole", "u"),
        CellQuery("whole v2", "v2", CellFilter.build(domains=spec.domain_order)),
    ]
    return data.draw(st.permutations(cells), label="order")


def atom_statistics(sample, cells, weights) -> dict:
    """Every per-cell statistic of the cell layer over the atom table."""
    spec = sample.calibration
    C, H, D, V = len(cells), len(sample.strata), spec.n_domains, spec.n_variables
    atoms = CellAtoms.of(sample, cells)
    out = {
        "count": np.zeros(C, dtype=np.intp),
        "moment": np.zeros((C, spec.p)),
        "ht": np.zeros(C),
        "numerator": np.zeros((C, D)),
        "met": np.zeros((C, D), dtype=bool),
        "variance": np.zeros((C, D)),
        "kernel": np.zeros((C, H, D)),
        "rho": np.full((C, V), np.nan),
    }
    ht, sums = atoms.totals(sample.weights), atoms.totals(weights)
    for at, pairs in atoms.groups(range(C)):
        out["count"][at] = pairs.counts
        out["moment"][at] = cell_weighted_moments(pairs)
        out["ht"][at] = cell_totals(pairs, ht)
        out["numerator"][at], out["met"][at], out["variance"][at] = domain_sums(pairs, sums)
        out["rho"][at] = link_correlations(pairs)
        keys, kernel = stratum_kernel(pairs)
        local, hd = np.divmod(keys, H * D)
        out["kernel"].reshape(C, H * D)[at[local], hd] = kernel
    return out


def reference_statistics(sample, cells, weights) -> dict:
    """The same statistics from each cell's records, one cell at a time."""
    spec = sample.calibration
    H, D = len(sample.strata), spec.n_domains
    Y = sample.design_matrix(spec)
    out = {key: [] for key in ("count", "moment", "ht", "numerator", "met", "kernel", "rho")}
    for query in cells:
        cell = evaluate_cell(query, sample, spec)
        mask, x = cell.mask, cell.values
        out["count"].append(int(mask.sum()))
        out["moment"].append(Y.T @ (sample.weights * x * mask))
        out["ht"].append(float(np.sum(sample.weights * x * mask)))
        in_domain = [mask & (sample.domain_idx == d) for d in range(D)]
        out["numerator"].append([np.sum((weights * x)[m]) for m in in_domain])
        out["met"].append([bool(m.any()) for m in in_domain])
        kernel = np.zeros((H, D))
        for h, stratum in enumerate(sample.strata):
            members = sample.stratum_idx == h
            n_h = int(members.sum())
            for d, m in enumerate(in_domain):
                z = np.where(m, x, 0.0)[members]
                if n_h < 2 or np.ptp(z) == 0.0:
                    continue  # exactly 0
                f = n_h / stratum.population_size
                kernel[h, d] = stratum.deff * (1.0 - f) * np.var(z, ddof=1) / n_h
        out["kernel"].append(kernel)
        rho = []
        for column in sample.calib[mask].T:
            if mask.sum() < 2 or np.ptp(column) == 0.0:
                rho.append(np.nan)
            elif np.ptp(x[mask]) == 0.0:
                rho.append(0.0)
            else:
                rho.append(np.corrcoef(x[mask], column)[0, 1])
        out["rho"].append(rho)
    out = {key: np.array(value) for key, value in out.items()}
    out["variance"] = np.einsum("h,chd->cd", sample.stratum_sizes**2, out["kernel"])
    return out


def take_records(sample, order) -> SampleSet:
    """``sample`` with its records in ``order``."""
    return SampleSet(
        sample.strata,
        sample.calibration,
        sample.stratum_idx[order],
        sample.domain_idx[order],
        sample.weights[order],
        sample.calib[order],
        attributes={k: v[order] for k, v in sample.attributes.items()},
        outcomes={k: v[order] for k, v in sample.outcomes.items()},
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_atom_table_matches_per_cell_records(data):
    sample, spec, rng = random_sample(data)
    cells = random_cells(data, spec, rng)
    weights = sample.weights * rng.uniform(0.5, 1.5, sample.n)
    with pytest.MonkeyPatch.context() as patch:
        bound = data.draw(st.sampled_from([1, 7, 10**9]), label="pair bound")
        patch.setattr("postcal.frame.CELL_GROUP_PAIRS", bound)
        got = atom_statistics(sample, cells, weights)
    want = reference_statistics(sample, cells, weights)
    # one group of every cell gives the same bits as any other grouping
    whole = atom_statistics(sample, cells, weights)
    for key in got:
        np.testing.assert_array_equal(got[key], whole[key], err_msg=key)

    assert got["count"].tolist() == want["count"].tolist()
    assert got["met"].tolist() == want["met"].tolist()
    for key in ("moment", "ht", "numerator"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    # the stratum kernel is exactly 0 where the reference is, else close to it
    assert ((got["kernel"] == 0.0) == (want["kernel"] == 0.0)).all()
    scale = (sample.stratum_sizes**2 * sample.stratum_deff).sum() * np.abs(sample.calib).max() ** 2
    scale = max(scale, (sample.stratum_sizes**2).sum() * sample.outcomes["u"].max() ** 2)
    for key in ("kernel", "variance"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12 * scale, err_msg=key)
    # NaN exactly where a link variable is constant or the cell too small
    np.testing.assert_allclose(got["rho"], want["rho"], rtol=0, atol=1e-12, equal_nan=True)
    names = [query.name for query in cells]
    # s2's outcome is constant over the stratum, which the whole cell holds
    assert (got["kernel"][names.index("whole"), 1] == 0.0).all()
    assert np.isnan(got["rho"][names.index("empty")]).all()
    assert np.isnan(got["rho"][names.index("v1 constant"), 0])

    # the same records in another order give the same statistics
    order = data.draw(st.permutations(range(sample.n)), label="records")
    shuffled = atom_statistics(take_records(sample, np.array(order)), cells, weights[order])
    for key in got:
        if got[key].dtype == float:
            np.testing.assert_allclose(
                shuffled[key], got[key], rtol=1e-12, atol=1e-12 * scale, equal_nan=True, err_msg=key
            )
            assert ((shuffled[key] == 0.0) == (got[key] == 0.0)).all(), key
        else:
            assert shuffled[key].tolist() == got[key].tolist(), key


def test_atoms_share_stratum_domain_and_pattern():
    rng = np.random.default_rng(3)
    n, spec = 200, CalibrationSpec(("v1", "v2"), ("d1", "d2", "d3"))
    sample = SampleSet(
        (StratumSpec("s1", 500), StratumSpec("s2", 500)),
        spec,
        rng.integers(0, 2, n),
        rng.integers(0, 3, n),
        np.ones(n),
        rng.uniform(0.0, 10.0, (n, 2)),
    )
    # 70 distinct value-range clauses: the pattern does not fit 63 bits
    cells = [
        CellQuery(f"c{k}", "v1", CellFilter.build(ranges={"v2": (k / 7.0, None)}))
        for k in range(70)
    ]
    atoms = CellAtoms.of(sample, cells)
    masks = np.array([evaluate_cell(query, sample, spec).mask for query in cells])
    records = [
        atoms.order[start : start + count] for start, count in zip(atoms.starts, atoms.count)
    ]
    keys = set()
    for a, rows in enumerate(records):
        assert (sample.stratum_idx[rows] == atoms.stratum[a]).all()
        assert (sample.domain_idx[rows] == atoms.domain[a]).all()
        assert (masks[:, rows] == atoms.pattern[:, a : a + 1]).all()
        keys.add((atoms.stratum[a], atoms.domain[a], atoms.pattern[:, a].tobytes()))
    # one atom per distinct (stratum, domain, pattern), in that order
    assert len(keys) == atoms.n_atoms
    order = [
        (s, d, tuple(p.tolist())) for s, d, p in zip(atoms.stratum, atoms.domain, atoms.pattern.T)
    ]
    assert order == sorted(order)


def test_more_atoms_than_a_16_bit_key_holds():
    # one record in each of 2**16 + 10 strata: the atom key outgrows the radix sort
    rng = np.random.default_rng(5)
    n = 2**16 + 10
    spec = CalibrationSpec(("v1",), ("d1",))
    sample = SampleSet(
        tuple(StratumSpec(f"s{h}", 3) for h in range(n)),
        spec,
        rng.permutation(n),
        np.zeros(n, dtype=int),
        rng.uniform(1.0, 5.0, n),
        rng.uniform(0.0, 10.0, (n, 1)),
    )
    cells = [
        CellQuery("low", "v1", CellFilter.build(ranges={"v1": (None, 5.0)})),
        CellQuery("all", "v1"),
    ]
    got = atom_statistics(sample, cells, sample.weights)
    atoms = CellAtoms.of(sample, cells)
    assert atoms.n_atoms == n
    assert (atoms.stratum == np.arange(n)).all()
    low = sample.calib[:, 0] <= 5.0
    assert got["count"].tolist() == [int(low.sum()), n]
    want = [np.sum((sample.weights * sample.calib[:, 0])[m]) for m in (low, np.ones(n, bool))]
    np.testing.assert_allclose(got["ht"], want, rtol=1e-12, atol=0)
    assert not got["kernel"].any()  # every stratum is a singleton
