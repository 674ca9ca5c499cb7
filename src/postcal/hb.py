"""Hierarchical Bayes samplers for stratum-level small area models.

Two models are fitted with bespoke samplers:

* a logit-normal binomial model for binary variables, sampled by
  Metropolis-within-Gibbs (random-walk proposals on the regression
  coefficients and stratum effects, conjugate scaled-inverse-chi-square
  update for the effect variance), and
* a Gaussian measurement-error model for continuous variables with known
  per-stratum sampling variances, sampled by full-conditional Gibbs.

Both samplers run on one chain-batched driver: the chains are lanes of
``(chains, ...)`` state arrays that advance together, one numpy pass per
iteration, with per-lane proposal scales and acceptance counts.

Stream contract: chain c of variable v reads only the generator
``chain_rng(seed, *key, v, c)``, and one iteration consumes a fixed sequence
of variates from it whatever the chain's state:

* binary model: k x (normal, uniform), then H normals, then H uniforms,
  then one chi-square draw (the effects and chi-square draws only when the
  effects are on and the variance is free, respectively);
* Gaussian model: H normals, then k normals, then one chi-square draw (the
  chi-square only when the variance is free).

The driver pre-draws each lane's variates in that order one adaptation
window (50 iterations) at a time, and every per-lane product is the same
BLAS call a lone chain makes, so the draws do not depend on the chain count
or on the batching: a 2-chain fit is bit for bit the first two chains of a
3-chain fit.

Stratum-level draws are aggregated to domain totals in the block layout of
the calibration system; externally produced draw matrices are accepted as a
first-class alternative (see :mod:`postcal.io`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError
from .frame import CalibrationSpec, SampleSet

# Random-walk scales adapt toward this acceptance band during burn-in.
_ACCEPT_LOW = 0.2
_ACCEPT_HIGH = 0.5
_ADAPT_WINDOW = 50


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout and seeding; B = chains * iterations draws are retained."""

    burnin: int = 1000
    iterations: int = 5000
    chains: int = 3
    seed: int = 0
    proposal_sd: float = 0.5

    def __post_init__(self):
        if self.burnin < 0:
            raise DataError("burnin must be >= 0")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if self.chains < 1:
            raise DataError("chains must be >= 1")
        if not self.proposal_sd > 0:
            raise DataError("proposal_sd must be > 0")


@dataclass(frozen=True)
class BinaryHBInput:
    """Per-stratum binomial counts with stratum-level covariates.

    ``fixed_sigma2`` pins the stratum-effect variance instead of sampling it;
    zero disables the stratum effects entirely.  A single stratum is allowed
    only in that pinned mode, because the free hierarchical variance is not
    identifiable from one stratum.
    """

    successes: np.ndarray
    sizes: np.ndarray
    covariates: np.ndarray
    prior_df: float = 1.0
    prior_scale: float = 1.0
    fixed_sigma2: float | None = None

    def __post_init__(self):
        m = np.asarray(self.successes)
        n = np.asarray(self.sizes)
        z = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        if z.shape[0] != m.shape[0]:
            z = z.T
        object.__setattr__(self, "successes", m.astype(float))
        object.__setattr__(self, "sizes", n.astype(float))
        object.__setattr__(self, "covariates", z)
        if m.shape != n.shape or m.ndim != 1:
            raise DataError("successes and sizes must be 1-d and aligned")
        if np.any(n < 1):
            raise DataError("every stratum needs sample size >= 1")
        if np.any((m < 0) | (m > n)):
            raise DataError("successes must satisfy 0 <= m_h <= n_h")
        if z.shape[0] != m.shape[0]:
            raise DataError("covariate rows must match the number of strata")
        if not (np.isfinite(z).all() and np.isfinite(m).all()):
            raise NumericalError("non-finite model inputs")
        if not (self.prior_df > 0 and self.prior_scale > 0):
            raise DataError("prior_df and prior_scale must be > 0")
        if self.fixed_sigma2 is None and m.shape[0] < 2:
            raise DataError(
                "at least 2 strata are required unless fixed_sigma2 is given"
            )

    @property
    def n_strata(self) -> int:
        return self.successes.shape[0]


@dataclass(frozen=True)
class GaussianFHInput:
    """Per-stratum direct estimates with known sampling variances."""

    estimates: np.ndarray
    sampling_variances: np.ndarray
    covariates: np.ndarray
    prior_df: float = 1.0
    prior_scale: float = 1.0
    fixed_sigma2: float | None = None

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        psi = np.asarray(self.sampling_variances, dtype=float)
        z = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        if z.shape[0] != est.shape[0]:
            z = z.T
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "sampling_variances", psi)
        object.__setattr__(self, "covariates", z)
        if est.shape != psi.shape or est.ndim != 1:
            raise DataError("estimates and sampling variances must align")
        if np.any(psi <= 0):
            bad = np.nonzero(psi <= 0)[0].tolist()
            raise DataError(f"sampling variances must be > 0 (strata {bad})")
        if z.shape[0] != est.shape[0]:
            raise DataError("covariate rows must match the number of strata")
        if not (np.isfinite(z).all() and np.isfinite(est).all()):
            raise NumericalError("non-finite model inputs")
        if not (self.prior_df > 0 and self.prior_scale > 0):
            raise DataError("prior_df and prior_scale must be > 0")
        if self.fixed_sigma2 is not None and not self.fixed_sigma2 > 0:
            raise DataError("fixed_sigma2 must be > 0 for the Gaussian model")
        if self.fixed_sigma2 is None and est.shape[0] < 2:
            raise DataError(
                "at least 2 strata are required unless fixed_sigma2 is given"
            )

    @property
    def n_strata(self) -> int:
        return self.estimates.shape[0]


@dataclass(frozen=True)
class StratumDraws:
    """Retained post-burn-in draws of the stratum-level quantity.

    ``draws`` has one row per retained draw (all chains concatenated) and one
    column per stratum; rows carry p_h for the binary model and theta_h for
    the Gaussian model.
    """

    draws: np.ndarray
    chain_tags: np.ndarray
    beta_draws: np.ndarray
    sigma2_draws: np.ndarray
    acceptance: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PosteriorDraws:
    """B x p matrix of domain-total draws in block order, chain tagged."""

    draws: np.ndarray
    chain_tags: np.ndarray

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        tags = np.asarray(self.chain_tags, dtype=int)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "chain_tags", tags)
        if draws.ndim != 2:
            raise DataError("draws must be a B x p matrix")
        if tags.shape != (draws.shape[0],):
            raise DataError("chain tags must align with draw rows")
        if not np.isfinite(draws).all():
            raise NumericalError("draw matrix contains non-finite entries")

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def p(self) -> int:
        return self.draws.shape[1]

    @cached_property
    def posterior_mean(self) -> np.ndarray:
        return self.draws.mean(axis=0)

    @cached_property
    def covariance(self) -> np.ndarray:
        """p x p sample covariance of the draw columns (divisor B - 1)."""
        return np.atleast_2d(np.cov(self.draws, rowvar=False, ddof=1))

    def centred(self, origin: np.ndarray) -> np.ndarray:
        """draws - origin, kept for the last origin (a run's one T_ht)."""
        if not np.array_equal(self.__dict__.get("_origin"), origin):
            object.__setattr__(self, "_origin", np.array(origin, dtype=float))
            object.__setattr__(self, "_centred", self.draws - origin)
        return self._centred


@dataclass(frozen=True)
class ConvergenceReport:
    """Gelman-Rubin potential scale reduction per parameter."""

    available: bool
    rhat: np.ndarray | None = None
    rhat_max: float | None = None
    reason: str = ""


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) address.

    The spawn-key scheme makes replication/chain streams independent and
    reproducible regardless of execution order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _binomial_loglik(eta: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    # log Binomial(m | n, expit(eta)) up to constants, stable for |eta| large
    return m * eta - n * np.logaddexp(0.0, eta)


_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)


def _expit_open(eta: np.ndarray) -> np.ndarray:
    # overflow-free logistic clamped to the nearest representable values
    # inside (0, 1); extreme logits would otherwise round to exactly 0 or 1
    out = np.where(
        eta >= 0.0,
        1.0 / (1.0 + np.exp(-np.abs(eta))),
        np.exp(-np.abs(eta)) / (1.0 + np.exp(-np.abs(eta))),
    )
    return np.clip(out, _P_FLOOR, _P_CEIL)


def _sigma2_draws(
    effects: np.ndarray, chisq: np.ndarray, df: float, scale: float
) -> np.ndarray:
    # scaled-inverse-chi-square posterior given iid N(0, sigma2) effects, one
    # per lane; the stacked product is one BLAS dot per lane
    post_df = df + effects.shape[1]
    sum_sq = (effects[:, None, :] @ effects[:, :, None])[:, 0, 0]
    post_scale = (df * scale + sum_sq) / post_df
    return post_df * post_scale / chisq


def _run_lanes(
    config: McmcConfig,
    spawn_key: tuple[int, ...],
    shape: tuple[int, int],
    n_variates: int,
    draw,
    step,
    proposals: dict[str, int] | None = None,
    link=None,
) -> StratumDraws:
    """Advance all chains together and keep their post-burn-in draws.

    ``draw(rng, rows)`` fills ``rows[i]`` with the ``n_variates`` variates
    iteration i of a window consumes on one chain, in the model's fixed call
    order.  They are pre-drawn for every lane one adaptation window at a
    time, each lane from its own stream.  ``step(it, variates)`` advances
    every lane one iteration given the ``(chains, n_variates)`` variates and
    returns the stratum values, coefficients and variances as
    ``(chains, H)``, ``(chains, k)`` and ``(chains,)`` arrays, plus per-lane
    counts of accepted proposals keyed like ``proposals`` (proposals per
    iteration).  ``link`` maps the kept stratum values, one window at a time.
    """
    C, burnin, iterations = config.chains, config.burnin, config.iterations
    H, k = shape
    proposals = proposals or {}
    rngs = [chain_rng(config.seed, *spawn_key, c) for c in range(C)]
    kept_stratum = np.empty((C, iterations, H))
    kept_beta = np.empty((C, iterations, k))
    kept_sigma2 = np.empty((C, iterations))
    accepted = {name: np.zeros(C, dtype=int) for name in proposals}

    total = burnin + iterations
    for start in range(0, total, _ADAPT_WINDOW):
        width = min(_ADAPT_WINDOW, total - start)
        variates = np.empty((width, C, n_variates))
        for c, rng in enumerate(rngs):
            draw(rng, variates[:, c])
        for i in range(width):
            it = start + i
            stratum, beta, sigma2, counts = step(it, variates[i])
            if it >= burnin:
                keep = it - burnin
                kept_stratum[:, keep] = stratum
                kept_beta[:, keep] = beta
                kept_sigma2[:, keep] = sigma2
                for name, count in counts.items():
                    accepted[name] += count
        kept_from, kept_to = max(start - burnin, 0), start + width - burnin
        if link is not None and kept_to > kept_from:
            window = kept_stratum[:, kept_from:kept_to]
            window[...] = link(window)

    return StratumDraws(
        draws=kept_stratum.reshape(C * iterations, H),
        chain_tags=np.repeat(np.arange(C), iterations),
        beta_draws=kept_beta.reshape(C * iterations, k),
        sigma2_draws=kept_sigma2.reshape(C * iterations),
        acceptance={
            name: float(np.mean(accepted[name] / (per_iteration * iterations)))
            for name, per_iteration in proposals.items()
        },
    )


def fit_binary_hb(
    model: BinaryHBInput,
    config: McmcConfig,
    spawn_key: tuple[int, ...] = (),
) -> StratumDraws:
    """Sample stratum success probabilities from the logit-normal model.

    All chains start from the empirical-logit fit and advance together, each
    on its own stream (see the module docstring).  Proposal scales adapt
    per chain toward a 20-50% acceptance rate during burn-in and are frozen
    afterwards.
    """
    m, n, Z = model.successes, model.sizes, model.covariates
    H, k = Z.shape[0], Z.shape[1]
    C = config.chains
    warnings = []
    if np.all(m == 0):
        warnings.append("degenerate input: no successes in any stratum")
    if np.all(m == n):
        warnings.append("degenerate input: all trials are successes")

    free_sigma = model.fixed_sigma2 is None
    # the effect variance stays > 0 whenever the effects are on: pinned > 0,
    # or a scaled-inverse-chi-square draw
    use_effects = free_sigma or model.fixed_sigma2 > 0
    post_df = model.prior_df + H

    # empirical-logit start values shared by all chains
    p_hat = (m + 0.5) / (n + 1.0)
    eta_hat = np.log(p_hat / (1.0 - p_hat))
    beta0, *_ = np.linalg.lstsq(Z, eta_hat, rcond=None)
    v0 = np.clip(eta_hat - Z @ beta0, -2.0, 2.0) if use_effects else np.zeros(H)

    beta = np.tile(beta0, (C, 1))
    v = np.tile(v0, (C, 1))
    sigma2 = np.full(C, model.prior_scale if free_sigma else model.fixed_sigma2)
    beta_scale = np.full((C, k), config.proposal_sd)
    v_scale = np.full((C, H), config.proposal_sd)
    beta_acc = np.zeros((C, k))
    v_acc = np.zeros((C, H))

    eta = Z @ beta0 + v
    loglik = _binomial_loglik(eta, m, n)
    if not np.isfinite(loglik).all():
        raise NumericalError("non-finite log-posterior at initial state")

    # per iteration: k x (normal, uniform), H normals, H uniforms, one
    # chi-square; ``random`` is ``uniform`` on [0, 1) without the affine map
    n_variates = 2 * k + (2 * H if use_effects else 0) + (1 if free_sigma else 0)
    z_v = slice(2 * k, 2 * k + H)
    log_u_v = slice(2 * k + H, 2 * k + 2 * H)

    def draw(rng, rows):
        for row in rows:
            for j in range(k):
                row[j] = rng.standard_normal()
                row[k + j] = rng.random()
            if use_effects:
                rng.standard_normal(out=row[z_v])
                rng.random(out=row[log_u_v])
            if free_sigma:
                row[-1] = rng.chisquare(post_df)
        # the accept tests compare log-uniforms
        for logs in (rows[:, k : 2 * k], rows[:, log_u_v]):
            np.log(logs, out=logs)

    def step(it, variates):
        nonlocal v, eta, loglik, sigma2, v_acc
        beta_count = np.zeros(C, dtype=int)
        # regression coefficients: coordinate-wise random walk
        for j in range(k):
            prop = beta[:, j] + beta_scale[:, j] * variates[:, j]
            eta_prop = eta + Z[:, j] * (prop - beta[:, j])[:, None]
            loglik_prop = _binomial_loglik(eta_prop, m, n)
            delta = loglik_prop.sum(axis=1) - loglik.sum(axis=1)
            accept = variates[:, k + j] < delta
            beta[:, j] = np.where(accept, prop, beta[:, j])
            eta = np.where(accept[:, None], eta_prop, eta)
            loglik = np.where(accept[:, None], loglik_prop, loglik)
            beta_acc[:, j] += accept
            beta_count += accept
        # stratum effects: simultaneous independent random walks
        v_count = np.zeros(C, dtype=int)
        if use_effects:
            v_prop = v + v_scale * variates[:, z_v]
            eta_prop = eta + (v_prop - v)
            loglik_prop = _binomial_loglik(eta_prop, m, n)
            delta = (
                loglik_prop
                - loglik
                - (v_prop**2 - v**2) / (2.0 * sigma2)[:, None]
            )
            accept = variates[:, log_u_v] < delta
            v = np.where(accept, v_prop, v)
            eta = np.where(accept, eta_prop, eta)
            loglik = np.where(accept, loglik_prop, loglik)
            v_acc += accept
            v_count = accept.sum(axis=1)
        if free_sigma:
            sigma2 = _sigma2_draws(
                v, variates[:, -1], model.prior_df, model.prior_scale
            )

        if it < config.burnin and (it + 1) % _ADAPT_WINDOW == 0:
            for scale, acc in ((beta_scale, beta_acc), (v_scale, v_acc)):
                rate = acc / _ADAPT_WINDOW
                scale[rate < _ACCEPT_LOW] *= 0.7
                scale[rate > _ACCEPT_HIGH] *= 1.4
                acc[:] = 0.0
        if not np.isfinite(loglik).all():
            raise NumericalError("non-finite log-posterior during sampling")
        return eta, beta, sigma2, {"beta": beta_count, "effects": v_count}

    result = _run_lanes(
        config,
        spawn_key,
        (H, k),
        n_variates,
        draw,
        step,
        proposals={"beta": k, "effects": H},
        link=_expit_open,
    )
    return replace(result, warnings=tuple(warnings))


def _collinear_columns(Z: np.ndarray) -> list[int]:
    # pivoted QR: columns beyond the numerical rank are the dependent ones
    from scipy.linalg import qr

    _, r, piv = qr(Z, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(Z.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    return sorted(int(j) for j in piv[rank:])


def fit_gaussian_fh(
    model: GaussianFHInput,
    config: McmcConfig,
    spawn_key: tuple[int, ...] = (),
) -> StratumDraws:
    """Gibbs sampler for the Gaussian measurement-error model.

    Full conditionals: theta_h is Gaussian with precision 1/psi_h + 1/sigma2
    (the shrinkage form), beta is Gaussian under a flat prior, and sigma2 is
    scaled-inverse-chi-square.
    """
    est, psi, Z = model.estimates, model.sampling_variances, model.covariates
    H, k = Z.shape[0], Z.shape[1]
    C = config.chains

    ztz = Z.T @ Z
    if np.linalg.matrix_rank(ztz) < k:
        cols = _collinear_columns(Z)
        raise DataError(
            f"covariate cross-product is singular; collinear columns {cols}"
        )
    ztz_inv = np.linalg.inv(ztz)
    ztz_inv_chol = np.linalg.cholesky(ztz_inv)

    free_sigma = model.fixed_sigma2 is None
    post_df = model.prior_df + H
    beta = np.tile(ztz_inv @ (Z.T @ est), (C, 1))
    sigma2 = np.full(C, model.prior_scale if free_sigma else model.fixed_sigma2)

    # per iteration: H normals, k normals, one chi-square
    n_variates = H + k + (1 if free_sigma else 0)

    def draw(rng, rows):
        for row in rows:
            # one call draws the same stream as H normals then k normals
            rng.standard_normal(out=row[: H + k])
            if free_sigma:
                row[-1] = rng.chisquare(post_df)

    # stacked products run the same BLAS call per lane as a single chain
    def synthetic(beta):
        return (Z @ beta[:, :, None])[:, :, 0]

    def step(it, variates):
        nonlocal beta, sigma2
        prec = 1.0 / psi + 1.0 / sigma2[:, None]
        mean = (est / psi + synthetic(beta) / sigma2[:, None]) / prec
        theta = mean + variates[:, :H] / np.sqrt(prec)

        beta_hat = ztz_inv @ (Z.T @ theta[:, :, None])
        noise = ztz_inv_chol @ variates[:, H : H + k, None]
        beta = (beta_hat + np.sqrt(sigma2)[:, None, None] * noise)[:, :, 0]

        if free_sigma:
            sigma2 = _sigma2_draws(
                theta - synthetic(beta),
                variates[:, -1],
                model.prior_df,
                model.prior_scale,
            )
        return theta, beta, sigma2, {}

    return _run_lanes(config, spawn_key, (H, k), n_variates, draw, step)


def compute_psi(
    sample: SampleSet, variable: str, spec: CalibrationSpec
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    """Known sampling variances deff * (1 - f) * S^2 / n per sampled stratum.

    Returns (stratum ids, psi values, degeneracy warnings) for the strata
    present in the sample, in frame order; the values are
    ``SampleSet.stratum_mean_variance`` of the variable's column.  A stratum
    with one record is an error, since S^2 needs n_h >= 2.
    """
    sample.check_spec(spec)
    column = sample.column(variable)

    counts = sample.stratum_counts
    too_small = [sample.strata[h].id for h in np.flatnonzero(counts == 1)]
    if too_small:
        raise DataError(
            f"variable {variable!r}: sampling variance needs n_h >= 2 in "
            f"strata {too_small}"
        )
    sampled = np.flatnonzero(counts > 0)
    psi = sample.stratum_mean_variance(column)[sampled]
    census = sample.sampling_fractions[sampled] == 1.0
    warnings = tuple(
        f"stratum {sample.strata[h].id!r}: degenerate sampling variance "
        f"({'census stratum' if is_census else 'constant variable'})"
        for h, value, is_census in zip(sampled, psi, census)
        if value == 0.0
    )
    return tuple(sample.strata[h].id for h in sampled), psi, warnings


def stratum_domain_map(sample: SampleSet) -> dict[str, str]:
    """Domain of each sampled stratum; errors if a stratum is unassigned.

    A stratum must contain records from exactly one domain to contribute to
    domain totals.
    """
    present = sample.stratum_domain_pairs
    spread = present.sum(axis=1)
    domain_ids = sample.domain_ids
    unassigned = np.flatnonzero(spread != 1)
    if unassigned.size:
        h = unassigned[0]
        stratum_id = sample.strata[h].id
        if not spread[h]:
            raise DataError(f"stratum {stratum_id!r} has no domain assignment")
        domains = sorted(domain_ids[d] for d in np.flatnonzero(present[h]))
        raise DataError(f"stratum {stratum_id!r} spans multiple domains {domains}")
    return {
        s.id: domain_ids[d] for s, d in zip(sample.strata, present.argmax(axis=1))
    }


def draws_to_domain_totals(
    stratum_draws: dict[str, StratumDraws],
    sample: SampleSet,
    spec: CalibrationSpec,
) -> PosteriorDraws:
    """Aggregate stratum draws into the p-vector of domain-total draws.

    Binary draws (p_h) and Gaussian draws of stratum means (theta_h) both
    scale by the stratum population size: the domain total draw is
    sum over strata in the domain of N_h * draw_h, added stratum by stratum
    in frame order.
    """
    missing = [v for v in spec.variable_names if v not in stratum_draws]
    if missing:
        raise DataError(f"missing stratum draws for variables {missing}")
    sample.check_spec(spec)
    stratum_domain_map(sample)  # each stratum lies in exactly one domain
    domain_pos = sample.stratum_domain_pairs.argmax(axis=1)
    H = len(sample.strata)

    tags = None
    n_draws = None
    for name in spec.variable_names:
        d = stratum_draws[name]
        if d.draws.shape[1] != H:
            raise DataError(
                f"variable {name!r}: draws cover {d.draws.shape[1]} strata, "
                f"sample has {H}"
            )
        if tags is None:
            tags = d.chain_tags
            n_draws = d.draws.shape[0]
        elif d.draws.shape[0] != n_draws or not np.array_equal(d.chain_tags, tags):
            raise DataError("stratum draws disagree on chain layout")

    totals = np.zeros((n_draws, spec.n_variables, spec.n_domains))
    for v, name in enumerate(spec.variable_names):
        scaled = stratum_draws[name].draws * sample.stratum_sizes[None, :]
        for h, d in enumerate(domain_pos):
            totals[:, v, d] += scaled[:, h]
    return PosteriorDraws(draws=totals.reshape(n_draws, spec.p), chain_tags=tags)


def gelman_rubin(draws: PosteriorDraws) -> ConvergenceReport:
    """Between/within potential scale reduction per parameter.

    Requires at least two chains; exact chain copies give R-hat of exactly 1
    (the statistic is floored at 1, its no-divergence value), and chains with
    disjoint support diverge to infinity.
    """
    chains = np.unique(draws.chain_tags)
    if chains.size < 2:
        return ConvergenceReport(
            available=False,
            reason="a single chain cannot support a between-chain diagnostic",
        )
    groups = [draws.draws[draws.chain_tags == c] for c in chains]
    length = min(g.shape[0] for g in groups)
    if length < 2:
        return ConvergenceReport(
            available=False,
            reason="need at least 2 iterations per chain",
        )
    stacked = np.stack([g[:length] for g in groups])  # M x L x p
    L = length
    within = stacked.var(axis=1, ddof=1).mean(axis=0)
    between = stacked.mean(axis=1).var(axis=0, ddof=1)
    rhat = np.ones(draws.p)
    pooled = (L - 1) / L * within + between
    positive = within > 0
    rhat[positive] = np.sqrt(
        np.maximum(pooled[positive] / within[positive], 1.0)
    )
    rhat[(~positive) & (between > 0)] = np.inf
    return ConvergenceReport(
        available=True, rhat=rhat, rhat_max=float(np.max(rhat))
    )
