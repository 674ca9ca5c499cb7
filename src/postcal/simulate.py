"""Synthetic populations and repeated-sampling coverage experiments.

The harness realizes a finite population with known cell truths, draws fresh
stratified samples, pushes them through the full inference pipeline and
accumulates coverage of both interval kinds against the truths.  Replications
run in chunks of each worker's share, at most ``REPLICATION_CHUNK``: a chunk's
samples are fitted together, one sampler call per model setting with lanes =
replications x variables x chains, and each replication then passes its own
R-hat gate and cell layer.  With ``threads`` > 1 worker processes run whole
chunks.  The population is a census ``SampleSet`` (every unit, each weight
1), so its truths and the samples' cells go through the same atom table,
``frame.CellAtoms``.  Seeds are split hierarchically (master seed,
replication, stage, chain), so runs are reproducible under parallel
execution and replication order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import (
    BinaryVariableModel,
    ContinuousVariableModel,
    RunConfig,
    SyntheticPopulationSpec,
)
from .errors import ConfigError, DataError
from .fitting import fit_all_variables
from .frame import (
    CalibrationSpec,
    CellAtoms,
    SampleSet,
    StratumSpec,
    block_sums,
    compact_codes,
)
from .hb import PosteriorDraws, chain_rng, gelman_rubin
from .io import BandRule, derive_bands
from .replicate import cell_totals
from .report import CellReportRow, build_artifacts, build_run_report


class SurveyFrame(SampleSet):
    """Census of a synthetic population: every unit, each with weight 1.

    ``columns`` are the ``SampleSet`` arguments but the weights; the frame
    adds the generating ``SyntheticPopulationSpec`` and the stratum
    ``covariates``.
    """

    def __init__(self, spec, covariates, **columns):
        weights = np.broadcast_to(1.0, np.shape(columns["stratum_idx"]))
        super().__init__(weights=weights, **columns)
        self.spec = spec
        self.covariates = covariates

    def truth_table(self, cells) -> dict[str, float]:
        """Exhaustive population total of each cell's summed variable, over
        the cells' atoms as in a report."""
        atoms = CellAtoms.of(self, cells)
        sums, truths = atoms.totals(self.weights), np.zeros(len(cells))
        for at, pairs in atoms.groups(range(len(cells))):
            truths[at] = cell_totals(pairs, sums)
        return {query.name: float(truth) for query, truth in zip(cells, truths.tolist())}

    def calibration_truth_vector(self) -> np.ndarray:
        """Population domain totals of the calibration variables."""
        return block_sums(self)


def _outcome_column(model, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An outcome with target correlation ``model.rho`` to its link column."""
    sd = float(base.std())
    if sd == 0.0 and model.rho != 0.0:
        raise ConfigError(
            f"outcome {model.name!r}: target correlation {model.rho} is "
            f"unreachable because {model.link!r} is constant in the "
            f"population"
        )
    standardized = (base - base.mean()) / sd if sd > 0 else np.zeros(base.size)
    noise = rng.standard_normal(base.size)
    mix = model.rho * standardized + math.sqrt(1.0 - model.rho**2) * noise
    return model.loc + model.scale * mix


def generate_population(
    spec: SyntheticPopulationSpec, band_rules: tuple[BandRule, ...] = ()
) -> SurveyFrame:
    """Realize every population unit, deterministic under the spec seed.

    Band rules derive their attributes from the generated numeric columns
    before the census store is built.  Generated and band attributes are
    kept as codes into their levels in declaration order.
    """
    unknown = sorted({s.domain for s in spec.strata} - set(spec.domains))
    if unknown:
        raise ConfigError(f"strata reference unknown domains {unknown}")
    calibration = CalibrationSpec(tuple(v.name for v in spec.variables), tuple(spec.domains))
    names = calibration.variable_names
    for v in spec.variables:
        if isinstance(v, BinaryVariableModel) and v.exclusive_with is not None:
            earlier = spec.variables[: names.index(v.name)]
            binary = [b.name for b in earlier if isinstance(b, BinaryVariableModel)]
            if v.exclusive_with not in binary:
                raise ConfigError(
                    f"variable {v.name!r}: exclusive_with must reference an "
                    f"earlier binary variable"
                )
        if isinstance(v, ContinuousVariableModel) and v.gated_by is not None:
            if v.gated_by not in names[: names.index(v.name)]:
                raise ConfigError(
                    f"variable {v.name!r}: gated_by must reference an earlier "
                    f"variable"
                )
    for o in spec.outcomes:
        if not -1.0 <= o.rho <= 1.0:
            raise ConfigError(
                f"outcome {o.name!r}: target correlation {o.rho} outside [-1, 1]"
            )
        if o.link not in names:
            raise ConfigError(
                f"outcome {o.name!r}: link {o.link!r} is not a generated variable"
            )

    rng = chain_rng(spec.seed, 0)
    H = len(spec.strata)
    sizes = np.array([s.population_size for s in spec.strata])
    z = np.array([s.covariate for s in spec.strata])
    N = int(sizes.sum())
    domain_pos = {d: i for i, d in enumerate(spec.domains)}
    stratum_idx = np.repeat(np.arange(H), sizes)
    domain_idx = np.repeat(
        np.array([domain_pos[s.domain] for s in spec.strata]), sizes
    )

    calib = np.zeros((N, len(spec.variables)))
    for v_pos, model in enumerate(spec.variables):
        effects = rng.normal(0.0, model.stratum_sd, H) if model.stratum_sd else np.zeros(H)
        if isinstance(model, BinaryVariableModel):
            eta = model.intercept + model.slope * z + effects
            p = 1.0 / (1.0 + np.exp(-eta))
            column = (rng.random(N) < p[stratum_idx]).astype(float)
            if model.exclusive_with is not None:
                other = calib[:, names.index(model.exclusive_with)]
                column = column * (1.0 - other)
        else:
            mu = model.mean + model.slope * z + effects
            column = mu[stratum_idx] + rng.normal(0.0, model.unit_sd, N)
            lo, hi = model.clip
            if lo is not None or hi is not None:
                column = np.clip(column, lo, hi)
            if model.gated_by is not None:
                column = column * calib[:, names.index(model.gated_by)]
        calib[:, v_pos] = column

    attributes: dict[str, tuple[tuple, np.ndarray]] = {}
    for attr in spec.attributes:
        codes = np.zeros(N, dtype=np.intp)
        for d in range(len(spec.domains)):
            members = np.nonzero(domain_idx == d)[0]
            if members.size == 0:
                continue
            codes[members] = rng.choice(len(attr.levels), size=members.size, p=attr.domain_probs(d))
        attributes[attr.name] = compact_codes([label for label, _ in attr.levels], codes)

    # each outcome's N-float temporaries are freed before the bands are derived
    outcomes = {
        model.name: _outcome_column(model, calib[:, names.index(model.link)], rng)
        for model in spec.outcomes
    }
    bands, calibration_attributes = derive_bands(
        band_rules, {**outcomes, **dict(zip(names, calib.T))}, names
    )
    return SurveyFrame(
        spec=spec,
        covariates={"z": z},
        strata=tuple(
            StratumSpec(id=s.id, population_size=s.population_size, deff=s.deff)
            for s in spec.strata
        ),
        calibration=calibration,
        stratum_idx=stratum_idx,
        domain_idx=domain_idx,
        calib=calib,
        outcomes=outcomes,
        calibration_attributes=calibration_attributes,
        attribute_codes={**attributes, **bands},
    )


def draw_stratified_sample(
    frame: SurveyFrame, fraction: float, rng: np.random.Generator
) -> SampleSet:
    """Stratified simple random sample without replacement.

    Takes round(fraction * N_h) units per stratum with a floor of 2, and
    attaches the design weights N_h / n_h.  Rows come in stratum order, then
    ascending population index; the sample keeps the frame's
    ``calibration_attributes`` and its attribute levels.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"sampling fraction must be in (0, 1], got {fraction}")
    chosen = []
    weights = []
    for stratum, members in zip(frame.strata, frame.stratum_rows):
        N_h = members.size
        if N_h < 2:
            raise DataError(
                f"stratum {stratum.id!r} has population {N_h} < 2"
            )
        n_h = min(N_h, max(2, round(fraction * N_h)))
        chosen.append(np.sort(rng.choice(members, size=n_h, replace=False)))
        weights.append(np.full(n_h, N_h / n_h))
    rows = np.concatenate(chosen)
    return SampleSet(
        strata=frame.strata,
        calibration=frame.calibration,
        stratum_idx=frame.stratum_idx[rows],
        domain_idx=frame.domain_idx[rows],
        weights=np.concatenate(weights),
        calib=frame.calib[rows],
        outcomes={o: column[rows] for o, column in frame.outcomes.items()},
        calibration_attributes=frame.calibration_attributes,
        attribute_codes={
            a: (levels, codes[rows]) for a, (levels, codes) in frame.attribute_codes.items()
        },
    )


@dataclass
class ReplicationResult:
    index: int
    converged: bool
    rows: list[CellReportRow] = field(default_factory=list)


# Most replications per chunk.  A chunk's fits run as one sampler call per
# model setting, lanes = replications x variables x chains, and each call has
# a large fixed cost, so larger chunks run faster.  A chunk holds its samples
# and one call's kept domain totals at once (the samplers fold their stratum
# values as they go), and the worker's peak RSS grows by about 1.1 MiB per
# replication: the 200-replication default run at two workers peaks at
# 51.4-51.6, 55.9-56.1, 56.2-56.4, 58.2-58.4 and 60.7-61.8 MiB per worker
# in chunks of 8, 12, 13, 14 and 16 (2 vCPUs), and takes 2.16-2.17,
# 2.09-2.12, 2.06-2.09, 2.04-2.07 and 2.04-2.09 s.  13 is the largest chunk
# that stays within the 57.3-57.6 MiB that chunks of 8 took when the
# samplers kept every stratum value.
REPLICATION_CHUNK = 13


def replication_chunks(replications: int, threads: int) -> list[range]:
    """Replication indexes cut into chunks of each worker's share.

    Chunks hold ceil(replications / threads) replications, at most
    ``REPLICATION_CHUNK``: no worker sits idle for want of a chunk, and
    each chunk pays the sampler calls' fixed cost once.
    """
    size = min(REPLICATION_CHUNK, math.ceil(replications / threads))
    indexes = range(replications)
    return [indexes[i : i + size] for i in indexes[::size]]


def run_chunk(frame: SurveyFrame, cfg: RunConfig, indexes: Sequence[int]) -> list[ReplicationResult]:
    """Sample, fit, calibrate and infer the replications ``indexes`` together.

    Replication i owns the generator streams addressed by (seed, i, ...): its
    sample reads (seed, i, 0) and chain c of variable v reads
    (seed, i, 1, v, c), so its result does not depend on the chunk it runs
    in.  The fits run on ``cfg.mcmc`` as parsed, which carries ``cfg.seed``;
    with truth targets the domain totals are the population's.
    """
    fraction = cfg.simulate.sampling_fraction
    samples = [draw_stratified_sample(frame, fraction, chain_rng(cfg.seed, i, 0)) for i in indexes]
    if cfg.simulate.target_mode == "truth":
        truth = np.tile(frame.calibration_truth_vector(), (2, 1))
        draws = [PosteriorDraws(draws=truth, chain_tags=np.array([0, 1])) for _ in indexes]
    else:
        fits = fit_all_variables(
            samples,
            frame.calibration,
            cfg.models,
            frame.covariates,
            cfg.mcmc,
            base_keys=[(i, 1) for i in indexes],
            labels=[f"replication {i}" for i in indexes],
        )
        draws = [totals for totals, _, _ in fits]
    return [
        run_replication(sample, each, cfg, i) for i, sample, each in zip(indexes, samples, draws)
    ]


def run_replication(
    sample: SampleSet, draws: PosteriorDraws, cfg: RunConfig, index: int
) -> ReplicationResult:
    """Replication ``index``'s convergence gate and cell layer.

    Draws whose R-hat exceeds ``cfg.rhat_threshold`` are flagged as not
    converged and carry no rows; truth targets (one draw per chain) have no
    R-hat and pass.
    """
    convergence = gelman_rubin(draws)
    if convergence.available and convergence.rhat_max > cfg.rhat_threshold:
        return ReplicationResult(index=index, converged=False)
    report = build_run_report(build_artifacts(sample, draws, level=cfg.level), cfg.cells)
    return ReplicationResult(index=index, converged=True, rows=report.rows)


@dataclass
class CellCoverage:
    """Accumulated repeated-sampling performance of one cell."""

    name: str
    tier: str
    truth: float
    replications: int
    mean_point: float
    mean_are: float | None
    mean_n_cell: float
    cri_coverage: float
    cri_mc_se: float
    cri_outside_2se: bool
    cbi_coverage: float | None
    cbi_mc_se: float | None
    cbi_outside_2se: bool | None
    mean_cv_cri: float | None
    mean_cv_cbi: float | None


@dataclass
class CoverageReport:
    cells: list[CellCoverage]
    replications_requested: int
    replications_used: int
    excluded_nonconverged: int
    nominal: float


def _mean_or_none(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _covered(lower: float, upper: float, truth: float) -> bool:
    # membership with a rounding guard so that intervals that are exactly
    # degenerate at the truth (up to summation order) count as covering it
    tol = 1e-12 * max(abs(lower), abs(upper), abs(truth), 1.0)
    return lower - tol <= truth <= upper + tol


def accumulate_report(
    results: list[ReplicationResult],
    truths: dict[str, float],
    cfg: RunConfig,
) -> CoverageReport:
    """Reduce replication outputs to per-cell coverage statistics.

    Results are reduced in replication order regardless of arrival order, so
    the report is independent of scheduling.  Coverage differences from the
    nominal level beyond two Monte Carlo standard errors are annotated as
    significant.
    """
    ordered = sorted(results, key=lambda r: r.index)
    used = [r for r in ordered if r.converged]
    if not used:
        raise DataError("no converged replications to accumulate")
    nominal = cfg.level

    cells: list[CellCoverage] = []
    for pos, query in enumerate(cfg.cells):
        truth = truths[query.name]
        points: list[float] = []
        ares: list[float] = []
        n_cells: list[float] = []
        cri_hits: list[bool] = []
        cbi_hits: list[bool] = []
        cv_cri: list[float] = []
        cv_cbi: list[float] = []
        tier = None
        for r in used:
            row = r.rows[pos]
            tier = row.tier
            points.append(row.point)
            n_cells.append(row.n_cell)
            if truth != 0.0:
                ares.append(abs(row.point - truth) / abs(truth))
            cri_hits.append(_covered(row.cri_lower, row.cri_upper, truth))
            if row.cbi_lower is not None:
                cbi_hits.append(_covered(row.cbi_lower, row.cbi_upper, truth))
            if row.cv_cri is not None:
                cv_cri.append(row.cv_cri)
            if row.cv_cbi is not None:
                cv_cbi.append(row.cv_cbi)
        R = len(used)
        cri_rate = float(np.mean(cri_hits))
        cri_se = math.sqrt(cri_rate * (1.0 - cri_rate) / R)
        if cbi_hits:
            cbi_rate = float(np.mean(cbi_hits))
            cbi_se = math.sqrt(cbi_rate * (1.0 - cbi_rate) / len(cbi_hits))
            cbi_sig = abs(cbi_rate - nominal) > 2.0 * cbi_se
        else:
            cbi_rate = cbi_se = cbi_sig = None
        cells.append(
            CellCoverage(
                name=query.name,
                tier=tier.value if tier is not None else "",
                truth=truth,
                replications=R,
                mean_point=float(np.mean(points)),
                mean_are=_mean_or_none(ares),
                mean_n_cell=float(np.mean(n_cells)),
                cri_coverage=cri_rate,
                cri_mc_se=cri_se,
                cri_outside_2se=abs(cri_rate - nominal) > 2.0 * cri_se,
                cbi_coverage=cbi_rate,
                cbi_mc_se=cbi_se,
                cbi_outside_2se=cbi_sig,
                mean_cv_cri=_mean_or_none(cv_cri),
                mean_cv_cbi=_mean_or_none(cv_cbi),
            )
        )
    return CoverageReport(
        cells=cells,
        replications_requested=cfg.simulate.replications,
        replications_used=len(used),
        excluded_nonconverged=len(ordered) - len(used),
        nominal=nominal,
    )


def build_simulation(cfg: RunConfig) -> tuple[SurveyFrame, RunConfig, dict[str, float]]:
    """Realize the configured experiment: population, settings, truths.

    ``cfg`` is a parsed run configuration with a ``simulate`` section and is
    returned as the experiment's settings; band rules are derived on the
    population so truths and samples agree.
    """
    if cfg.simulate is None:
        raise ConfigError("config lacks a 'simulate' section")
    if not cfg.cells:
        raise ConfigError("config declares no cells to simulate")
    frame = generate_population(cfg.simulate.population, cfg.band_rules)
    return frame, cfg, frame.truth_table(cfg.cells)


# The frame and settings a pool worker serves: sent once per worker process
# by the pool initializer, not pickled with every chunk.
_SERVED: tuple = ()


def _serve(frame: SurveyFrame, cfg: RunConfig) -> None:
    global _SERVED
    _SERVED = (frame, cfg)


def _run_served_chunk(indexes: Sequence[int]) -> list[ReplicationResult]:
    return run_chunk(*_SERVED, indexes)


def run_simulation(
    frame: SurveyFrame,
    cfg: RunConfig,
    truths: dict[str, float] | None = None,
    threads: int = 1,
) -> tuple[CoverageReport, list[ReplicationResult]]:
    """Run all replications in the chunks of ``replication_chunks`` and
    accumulate.

    With ``threads`` > 1 the chunks run in that many worker processes (no
    more than there are chunks), each sent the frame once.
    """
    truths = truths if truths is not None else frame.truth_table(cfg.cells)
    chunks = replication_chunks(cfg.simulate.replications, threads)
    workers = min(threads, len(chunks))
    if workers > 1:
        # imported here: the process pool loads multiprocessing, socket and
        # subprocess, which a one-worker run and every other command skip
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_serve, initargs=(frame, cfg)) as pool:
            parts = list(pool.map(_run_served_chunk, chunks))
    else:
        parts = [run_chunk(frame, cfg, chunk) for chunk in chunks]
    results = [result for part in parts for result in part]
    return accumulate_report(results, truths, cfg), results
