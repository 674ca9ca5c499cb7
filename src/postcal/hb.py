"""Hierarchical Bayes samplers for stratum-level small area models.

Two models are fitted with bespoke samplers:

* a logit-normal binomial model for binary variables, sampled by
  Metropolis-within-Gibbs (random-walk proposals on the regression
  coefficients and stratum effects, conjugate scaled-inverse-chi-square
  update for the effect variance), and
* a Gaussian measurement-error model for continuous variables with known
  per-stratum sampling variances, sampled by full-conditional Gibbs.

Both samplers run on one lane-batched driver.  One call fits a batch of
models that share the covariate matrix, the priors and the variance mode
(one per calibration variable); their chains are the lanes of ``(lanes,
...)`` state arrays, lanes = models x chains in model-major order, that
advance together, one numpy pass per iteration, with per-lane model data,
proposal scales and acceptance counts.  Each model keeps its own start
values and warnings, and one ``StratumDraws`` comes back per model.

Stream contract (v2): chain c of variable v reads only the generator
``chain_rng(seed, *key, v, c)``, whichever batch the variable is fitted in.
The driver draws one adaptation window (W = 50 iterations, fewer in a short
last window) at a time, with one call per variate kind per window, whatever
the chain's state:

* binary model: W x k normals, W x k uniforms, then W x H normals and
  W x H uniforms (only when the effects are on), then W chi-square draws
  (only when the variance is free);
* Gaussian model: W x H normals, W x k normals, then W chi-square draws
  (only when the variance is free).

Proposal scales change only at window ends, so the per-window arithmetic
(log-uniforms, proposal increments and the shifts of eta they cause, the
m * shift and m * step terms of the binomial steps, the Gaussian coefficient
noise) is done once per window, and a window's variates are held
iteration-major, ``(width, lanes, ...)``, so that each iteration reads
contiguous slices.  Both samplers' per-iteration arithmetic runs through
``out=`` in buffers allocated once per fit, so an iteration allocates
nothing.  The binary state is the rows eta, n * softplus(eta), v and v^2 of
one ``(4, lanes, H)`` array, so an accepted coefficient is one masked copy
of two rows and an accepted effects step one masked copy of all four; the
coordinate walk reads its terms through ``(width, k, lanes)`` views and
adds the accepted coefficient steps with one masked add at its end.  The
Gaussian sampler carries Z beta, formed for the sigma2 draw, into the next
iteration's conditional mean, and forms the terms of sigma2 alone (the theta
precision, its root and sqrt(sigma2)) once per draw.  Every per-lane
product is the same BLAS call a lone chain makes, so the draws do not depend
on the chain count or on the batch: a 2-chain fit is bit for bit the first
two chains of a 3-chain fit, and a model fitted alone draws what it draws in
any position of a batch.

The driver keeps no array of every kept stratum value.  Each model carries
a ``DomainMap``: the domain of each stratum and its weight, N_h when the
values are aggregated to domain totals.  Kept stratum values wait in a block
of at most ``FOLD_BLOCK_BYTES``; when it is full, and once at the end, the
block is mapped to the model's scale (p_h for the binary model), weighted
and added into the kept domain totals, each domain's strata in frame order,
which is the order, and so the rounding, of adding them one by one.  A model
fitted without a map keeps each stratum as its own domain with weight 1, so
its draws are the stratum values.  Externally produced draw matrices are
accepted as a first-class alternative (see :mod:`postcal.io`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .calibration import pivoted_cholesky_rank
from .errors import DataError, NumericalError, at_least, check_fields, one_of, positive, real, restricted
from .frame import SampleSet

# Random-walk scales adapt toward this acceptance band during burn-in.
_ACCEPT_LOW = 0.2
_ACCEPT_HIGH = 0.5
_ADAPT_WINDOW = 50


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout, seeding and the R-hat threshold a fit must not exceed;
    B = chains * iterations draws are retained."""

    burnin: int = 1000
    iterations: int = 5000
    chains: int = 3
    seed: int = 0
    proposal_sd: float = 0.5
    rhat_threshold: float = 1.2

    def __post_init__(self):
        check_fields(
            self,
            burnin=at_least(0),
            iterations=at_least(1),
            chains=at_least(1),
            seed=at_least(0),
            proposal_sd=positive,
            # R-hat is floored at 1: a lower threshold fails every fit
            rhat_threshold=restricted(real, "a finite value >= 1.0", lambda v: v >= 1.0),
        )


@dataclass(frozen=True)
class HBPrior:
    """A model's kind and the prior of its stratum-effect variance sigma2:
    scaled inverse chi-square with ``prior_df`` degrees of freedom and scale
    ``prior_scale``, or ``fixed_sigma2`` pinned in its place.  A pinned 0
    switches the binary model's stratum effects off; the Gaussian model
    needs a variance."""

    kind: str  # "binary" or "gaussian"
    prior_df: float = 1.0
    prior_scale: float = 1.0
    fixed_sigma2: float | None = None

    def __post_init__(self):
        check_fields(self, kind=one_of("binary", "gaussian"), prior_df=positive, prior_scale=positive)
        s2 = self.fixed_sigma2
        if s2 is not None and not (s2 > 0 or (s2 == 0 and self.kind == "binary")):
            bound = ">= 0" if self.kind == "binary" else "> 0"
            raise DataError(f"fixed_sigma2: expected {bound} for the {self.kind} model, got {s2}")


def _add_in_order(terms: np.ndarray, out: np.ndarray) -> None:
    # out = ((0 + terms[0]) + terms[1]) + ..., the rounding of adding the
    # rows one by one: np.add.reduce adds the rows of a contiguous array in
    # turn, except rows of a single value, which it sums pairwise from 8 up
    if out.size > 1:
        np.add.reduce(terms, axis=0, out=out, initial=0.0)
    else:
        out[...] = 0.0
        for row in terms:
            out += row


@dataclass(frozen=True, eq=False)
class DomainMap:
    """Where a model's stratum values are added: stratum h goes into domain
    ``positions[h]`` of ``n_domains`` with weight ``weights[h]``.

    ``fold`` adds each domain's strata in frame order, so its totals are bit
    for bit those of adding the weighted strata one at a time.
    """

    positions: np.ndarray
    weights: np.ndarray
    n_domains: int

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.intp)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        if positions.ndim != 1 or weights.shape != positions.shape:
            raise DataError("domain positions and weights must be 1-d and aligned")
        if positions.size and not (positions.min() >= 0 and positions.max() < self.n_domains):
            raise DataError(f"domain positions must lie in [0, {self.n_domains})")

    @classmethod
    def identity(cls, n_strata: int) -> DomainMap:
        """Each stratum its own domain, with weight 1."""
        return cls(np.arange(n_strata), np.ones(n_strata), n_strata)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DomainMap)
            and self.n_domains == other.n_domains
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.weights, other.weights)
        )

    @cached_property
    def _order(self) -> np.ndarray:
        # the strata by domain, each domain's in frame order
        return np.argsort(self.positions, kind="stable")

    @cached_property
    def _ordered_weights(self) -> np.ndarray:
        return self.weights[self._order]

    @cached_property
    def _bounds(self) -> list[int]:
        counts = np.bincount(self.positions, minlength=self.n_domains)
        return [0, *np.cumsum(counts).tolist()]

    def fold(self, values: np.ndarray, out: np.ndarray, work: np.ndarray | None = None) -> None:
        """Set ``out[d]`` to the sum of ``weights[h] * values[h]`` over the
        strata h of domain d, in frame order.

        ``values`` is ``(H, ...)`` and ``out`` ``(D, ...)``; either may be a
        strided view.  The weighted values are gathered by domain into
        ``work`` (at least ``values.size`` floats, allocated if not given),
        so that each domain's terms are one contiguous run.
        """
        scaled = np.empty(values.shape) if work is None else work[: values.size].reshape(values.shape)
        weights = self._ordered_weights.reshape(-1, *(1,) * (values.ndim - 1))
        np.take(values, self._order, axis=0, out=scaled, mode="clip")
        np.multiply(scaled, weights, out=scaled)
        bounds = self._bounds
        for d in range(self.n_domains):
            _add_in_order(scaled[bounds[d] : bounds[d + 1]], out[d])


def _check_model(model, values: np.ndarray, kind: str) -> None:
    """The checks the two model inputs share, run after their own checks of
    the 1-d per-stratum ``values``: the covariates as H x k (a k x H matrix
    is transposed), finite covariates and values, covariates of full column
    rank (under the flat beta prior either model's posterior is improper
    otherwise; dependent columns are named by ``covariate_names``, or by
    position if it is empty), a prior of the input's ``kind``, 2 strata unless
    ``fixed_sigma2`` is given, and a domain map covering the strata
    (``DomainMap.identity`` when none is given)."""
    H = values.shape[0]
    z = np.atleast_2d(np.asarray(model.covariates, dtype=float))
    if z.shape[0] != H:
        z = z.T
    object.__setattr__(model, "covariates", z)
    if z.shape[0] != H:
        raise DataError("covariate rows must match the number of strata")
    names = model.covariate_names or range(z.shape[1])
    if len(names) != z.shape[1]:
        raise DataError(f"{len(names)} covariate names for {z.shape[1]} covariate columns")
    if not (np.isfinite(z).all() and np.isfinite(values).all()):
        raise NumericalError("non-finite model inputs")
    # pivoted Cholesky of Z'Z: columns beyond the numerical rank are the dependent ones
    rank, order = pivoted_cholesky_rank(z.T @ z)
    if rank < z.shape[1]:
        raise DataError(
            f"covariate cross-product is singular; collinear columns "
            f"{[names[j] for j in sorted(order[rank:].tolist())]}"
        )
    if model.prior.kind != kind:
        raise DataError(f"prior: a {kind} model needs a {kind} prior, got a {model.prior.kind} one")
    if model.prior.fixed_sigma2 is None and H < 2:
        raise DataError("at least 2 strata are required unless fixed_sigma2 is given")
    if model.domains is None:
        object.__setattr__(model, "domains", DomainMap.identity(H))
    elif model.domains.positions.size != H:
        raise DataError(f"domain map covers {model.domains.positions.size} strata, model has {H}")


@dataclass(frozen=True)
class BinaryHBInput:
    """Per-stratum binomial counts with stratum-level covariates.

    The prior's ``fixed_sigma2`` pins the stratum-effect variance instead of
    sampling it; zero disables the stratum effects entirely.  A single
    stratum is allowed only in that pinned mode, because the free
    hierarchical variance is not identifiable from one stratum.  ``domains``
    folds the kept p_h into the draws (``DomainMap.identity`` if not given:
    the p_h themselves).  ``covariate_names`` labels the covariate columns
    in a refusal.
    """

    successes: np.ndarray
    sizes: np.ndarray
    covariates: np.ndarray
    prior: HBPrior = HBPrior("binary")
    domains: DomainMap | None = None
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.successes, dtype=float)
        n = np.asarray(self.sizes, dtype=float)
        object.__setattr__(self, "successes", m)
        object.__setattr__(self, "sizes", n)
        if m.shape != n.shape or m.ndim != 1:
            raise DataError("successes and sizes must be 1-d and aligned")
        if np.any(n < 1):
            raise DataError("every stratum needs sample size >= 1")
        if np.any((m < 0) | (m > n)):
            raise DataError("successes must satisfy 0 <= m_h <= n_h")
        _check_model(self, m, "binary")


@dataclass(frozen=True)
class GaussianFHInput:
    """Per-stratum direct estimates with known sampling variances;
    ``domains`` (of theta_h) and ``covariate_names`` as in ``BinaryHBInput``."""

    estimates: np.ndarray
    sampling_variances: np.ndarray
    covariates: np.ndarray
    prior: HBPrior = HBPrior("gaussian")
    domains: DomainMap | None = None
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        psi = np.asarray(self.sampling_variances, dtype=float)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "sampling_variances", psi)
        if est.shape != psi.shape or est.ndim != 1:
            raise DataError("estimates and sampling variances must align")
        if np.any(psi <= 0):
            bad = np.nonzero(psi <= 0)[0].tolist()
            raise DataError(f"sampling variances must be > 0 (strata {bad})")
        _check_model(self, est, "gaussian")


@dataclass(frozen=True)
class StratumDraws:
    """Retained post-burn-in draws of a model.

    ``draws`` has one row per retained draw (all chains concatenated) and one
    column per domain of the model's ``DomainMap``: the weighted sum of the
    domain's p_h for the binary model and of its theta_h for the Gaussian
    model.  Under the identity map the columns are the strata and the rows
    carry the p_h or theta_h themselves.
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


@dataclass(frozen=True)
class ConvergenceReport:
    """Gelman-Rubin potential scale reduction per parameter."""

    available: bool
    rhat: np.ndarray | None = None
    rhat_max: float | None = None
    reason: str = ""

    def exceeds(self, threshold: float) -> bool:
        """Whether R-hat is available and above ``threshold``: a fit that
        fails the gate."""
        return self.available and self.rhat_max > threshold


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) address.

    The spawn-key scheme makes replication/chain streams independent and
    reproducible regardless of execution order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# From this many strata up, the softplus is evaluated as five vectorised
# calls instead of one np.logaddexp, whose scalar loop costs about 30 ns per
# element: per call, 2.4 against 3.0 us at (3 lanes, 40 strata) and 12.0
# against 5.1 us at (18, 40), but 1.3 against 2.5 us at (3, 6).  The choice
# rests on the model setting alone, so a model draws the same in any batch.
_SOFTPLUS_IN_PARTS_STRATA = 16


def _scaled_softplus(n: np.ndarray, eta: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # out = n * log(1 + exp(eta)) in preallocated buffers, overflow-free; the
    # binomial log-likelihood is m * eta - out up to constants
    if eta.shape[-1] < _SOFTPLUS_IN_PARTS_STRATA:
        np.logaddexp(0.0, eta, out=out)
    else:  # log1p(exp(-|eta|)) + max(eta, 0)
        np.copysign(eta, -1.0, out=tmp)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
        np.maximum(eta, 0.0, out=out)
        np.add(out, tmp, out=out)
    return np.multiply(out, n, out=out)


_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)


def _expit_open(eta: np.ndarray) -> None:
    # in place: overflow-free logistic clamped to the nearest representable
    # values inside (0, 1); extreme logits would otherwise round to exactly 0
    # or 1
    upper = eta >= 0.0
    tail = np.exp(np.copysign(eta, -1.0, out=eta), out=eta)
    denom = tail + 1.0
    np.divide(tail, denom, out=tail)
    np.divide(1.0, denom, out=denom)
    np.copyto(tail, denom, where=upper)
    np.clip(tail, _P_FLOOR, _P_CEIL, out=tail)


def _sigma2_sampler(effects: np.ndarray, prior_ss: float, sigma2: np.ndarray):
    """``draw(chisq)`` sets ``sigma2`` in place from the current ``effects``.

    Scaled-inverse-chi-square posterior given iid N(0, sigma2) effects, one
    per lane: post_df * post_scale / chisq with chisq ~ chi2(df + H), and
    post_df * post_scale = ``prior_ss`` (df * scale) + sum of squares.  The
    stacked product is one BLAS dot per lane; views and buffers are made
    once, so a draw allocates nothing.
    """
    rows, cols = effects[:, None, :], effects[:, :, None]
    sum_sq = np.empty((len(effects), 1, 1))
    flat = sum_sq[:, 0, 0]
    matmul, add, divide = np.matmul, np.add, np.divide

    def draw(chisq: np.ndarray) -> None:
        matmul(rows, cols, out=sum_sq)
        add(prior_ss, flat, out=flat)
        divide(flat, chisq, out=sigma2)

    return draw


def _non_finite(loglik: np.ndarray, chains: int, when: str) -> NumericalError:
    # the error names the batch positions of the models with a non-finite lane
    bad = np.flatnonzero(~np.isfinite(loglik).all(axis=1)) // chains
    return NumericalError(f"non-finite log-posterior {when}", models=np.unique(bad).tolist())


def _lanes(rows, chains: int) -> np.ndarray:
    # one row per model -> one row per lane, model-major
    return np.repeat(np.stack(rows), chains, axis=0)


def _shared_setting(models: Sequence, spawn_keys: Sequence[tuple[int, ...]]):
    """The first model, once the batch is checked to share one setting."""
    if not models:
        raise DataError("a fit needs at least one model")
    if len(spawn_keys) != len(models):
        raise DataError(
            f"{len(models)} models need as many spawn keys, got {len(spawn_keys)}"
        )
    first = models[0]
    for model in models[1:]:
        if not np.array_equal(model.covariates, first.covariates):
            raise DataError("models fitted together must share the covariate matrix")
        if model.domains != first.domains:
            raise DataError("models fitted together must share the domain map")
        if model.prior != first.prior:
            raise DataError("models fitted together must share the prior")
    return first


# Most bytes of kept stratum values that ``_run_lanes`` holds before it
# folds them into the domain totals; the fold's weighted copy takes as much
# again.  Each fold has a fixed cost, so a smaller block costs time: on 2
# vCPUs, simulate-1w (a 24-lane binary call over 40 strata) peaked at 55.1,
# 55.4 and 56.0 MiB with cycles of 112.8, 111.0 and 109.6 ms at 32, 64 and
# 128 KiB, against 59.0 MiB and 111.1 ms with every kept value held, and
# demo-cli at 45.34, 45.34 and 45.49 MiB against 45.55 (medians of 3 and 4
# runs).
FOLD_BLOCK_BYTES = 1 << 16


def _run_lanes(
    config: McmcConfig,
    spawn_keys: Sequence[tuple[int, ...]],
    shape: tuple[int, int],
    draw,
    window,
    domains: DomainMap,
    proposals: dict[str, int] | None = None,
    link=None,
) -> list[StratumDraws]:
    """Advance all chains of all models together and keep their post-burn-in
    draws, one ``StratumDraws`` per spawn key.

    Lanes are models x chains, model-major: lane (j, c) reads
    ``chain_rng(seed, *spawn_keys[j], c)``.  ``draw(rng, width)`` returns one
    lane's variates for a window of ``width`` iterations, a dict of blocks
    in stream-contract order.  Stacked over lanes in iteration-major order,
    ``(width, lanes, ...)`` arrays so that iteration i's operands are
    contiguous slices, they go to ``window(blocks, scales, accepted)``, which
    returns ``step(i)``: advance every lane through iteration i of the
    window and return the stratum values, coefficients and variances as
    ``(lanes, H)``, ``(lanes, k)`` and ``(lanes,)`` arrays.  ``proposals``
    maps each random walk to its proposals per iteration; ``scales[name]``
    holds its per-lane scales, fixed within a window, and ``step`` sets its
    accept flags in ``accepted[name][i]``.

    The kept stratum values are copied into a block of at most
    ``FOLD_BLOCK_BYTES``, iteration-major.  When it is full, and once at the
    end, ``link`` maps the block in place and ``domains`` folds it into the
    kept ``(lanes, iterations, D)`` domain totals, which are the draws.
    """
    C, burnin, iterations = config.chains, config.burnin, config.iterations
    J = len(spawn_keys)
    L = J * C
    H, k = shape
    proposals = proposals or {}
    rngs = [chain_rng(config.seed, *key, c) for key in spawn_keys for c in range(C)]
    kept_totals = np.empty((L, iterations, domains.n_domains))
    totals_by_domain = kept_totals.transpose(2, 1, 0)
    kept_beta = np.empty((L, iterations, k))
    kept_sigma2 = np.empty((L, iterations))
    block = np.empty((min(max(FOLD_BLOCK_BYTES // (8 * L * H), 1), iterations), L, H))
    work = np.empty(block.size)
    held = 0  # kept iterations in the block
    scales = {name: np.full((L, size), config.proposal_sd) for name, size in proposals.items()}
    kept_accepted = {name: np.zeros(L, dtype=int) for name in proposals}

    total = burnin + iterations
    buffers = {}
    for start in range(0, total, _ADAPT_WINDOW):
        width = min(_ADAPT_WINDOW, total - start)
        for lane, rng in enumerate(rngs):
            for kind, values in draw(rng, width).items():
                if kind not in buffers:  # the first window is the widest
                    buffers[kind] = np.empty((width, L, *values.shape[1:]))
                buffers[kind][:width, lane] = values
        blocks = {kind: buffer[:width] for kind, buffer in buffers.items()}
        accepted = {name: np.zeros((width, L, size), bool) for name, size in proposals.items()}
        step = window(blocks, scales, accepted)
        for i in range(width):
            stratum, beta, sigma2 = step(i)
            keep = start + i - burnin
            if keep >= 0:
                block[held] = stratum
                held += 1
                if held == len(block) or keep == iterations - 1:
                    filled = block[:held]
                    if link is not None:
                        link(filled)
                    kept = totals_by_domain[:, keep + 1 - held : keep + 1]
                    domains.fold(filled.transpose(2, 0, 1), kept, work)
                    held = 0
                kept_beta[:, keep] = beta
                kept_sigma2[:, keep] = sigma2
        # iterations of this window still in burn-in; a window wholly inside
        # burn-in adapts the scales toward the acceptance band
        burning = max(burnin - start, 0)
        for name, flags in accepted.items():
            kept_accepted[name] += flags[burning:].sum(axis=(0, 2))
            if burning >= _ADAPT_WINDOW:
                rate = flags.sum(axis=0) / _ADAPT_WINDOW
                scale = scales[name]
                scale[rate < _ACCEPT_LOW] *= 0.7
                scale[rate > _ACCEPT_HIGH] *= 1.4
        del blocks, accepted, step  # free this window's arrays before the next

    kept_totals = kept_totals.reshape(J, C * iterations, domains.n_domains)
    kept_beta = kept_beta.reshape(J, C * iterations, k)
    kept_sigma2 = kept_sigma2.reshape(J, C * iterations)
    kept_accepted = {name: counts.reshape(J, C) for name, counts in kept_accepted.items()}
    return [
        StratumDraws(
            draws=kept_totals[j],
            chain_tags=np.repeat(np.arange(C), iterations),
            beta_draws=kept_beta[j],
            sigma2_draws=kept_sigma2[j],
            acceptance={
                name: float(np.mean(kept_accepted[name][j] / (size * iterations)))
                for name, size in proposals.items()
            },
        )
        for j in range(J)
    ]


def fit_binary_hb(
    models: Sequence[BinaryHBInput],
    config: McmcConfig,
    spawn_keys: Sequence[tuple[int, ...]] = ((),),
) -> list[StratumDraws]:
    """Sample stratum success probabilities from the logit-normal model.

    ``models`` share the covariate matrix, the priors and the variance mode
    (``DataError`` otherwise); ``spawn_keys`` holds one stream key per model
    and one ``StratumDraws`` is returned per model.  Each model's chains
    start from its own empirical-logit fit, and all lanes advance together,
    each on its own stream (see the module docstring).  Proposal scales
    adapt per lane toward a 20-50% acceptance rate during burn-in and are
    frozen afterwards.
    """
    model = _shared_setting(models, spawn_keys)
    sigma_prior = model.prior
    Z = model.covariates
    H, k = Z.shape[0], Z.shape[1]
    C = config.chains

    free_sigma = sigma_prior.fixed_sigma2 is None
    # the effect variance stays > 0 whenever the effects are on: pinned > 0,
    # or a scaled-inverse-chi-square draw
    use_effects = free_sigma or sigma_prior.fixed_sigma2 > 0
    post_df = sigma_prior.prior_df + H

    # empirical-logit start values, per model, shared by its chains
    warnings, beta0, v0 = [], [], []
    for each in models:
        m, n = each.successes, each.sizes
        flags = []
        if np.all(m == 0):
            flags.append("degenerate input: no successes in any stratum")
        if np.all(m == n):
            flags.append("degenerate input: all trials are successes")
        warnings.append(tuple(flags))
        p_hat = (m + 0.5) / (n + 1.0)
        eta_hat = np.log(p_hat / (1.0 - p_hat))
        start, *_ = np.linalg.lstsq(Z, eta_hat, rcond=None)
        beta0.append(start)
        v0.append(np.clip(eta_hat - Z @ start, -2.0, 2.0) if use_effects else np.zeros(H))

    m = _lanes([each.successes for each in models], C)
    n = _lanes([each.sizes for each in models], C)
    beta = _lanes(beta0, C)
    v = _lanes(v0, C)
    sigma2 = np.full(len(beta), sigma_prior.prior_scale if free_sigma else sigma_prior.fixed_sigma2)

    eta = _lanes([Z @ start for start in beta0], C) + v
    # state: the rows eta, nsp = n * softplus(eta), v and v^2 of one array,
    # so that an accepted proposal is one masked copy; a proposal changes
    # the log-likelihood m * eta - nsp by m * (eta' - eta) - (nsp' - nsp), so
    # only the finiteness check forms it
    state = np.stack([eta, np.empty_like(eta), v, np.square(v)])
    eta, nsp, v, v_sq = state
    prop = np.empty_like(state)
    eta_prop, nsp_prop, v_prop, v_sq_prop = prop
    # a coefficient moves rows eta and nsp, an effects step rows eta and v
    # (nsp and v^2 follow from them)
    coef_rows, coef_rows_prop = state[:2], prop[:2]
    step_rows, step_rows_prop = state[::2], prop[::2]
    gain_h, prior, tmp, loglik = (np.empty_like(eta) for _ in range(4))
    finite = np.empty(eta.shape, dtype=bool)
    L = len(eta)
    sum_prop, gain = np.empty(L), np.empty(L)
    shift_buffer = np.empty((_ADAPT_WINDOW, k, L, H))
    sigma2_col = sigma2[:, None]
    two_sigma2 = np.multiply(sigma2_col, 2.0)
    draw_sigma2 = _sigma2_sampler(v, sigma_prior.prior_df * sigma_prior.prior_scale, sigma2)
    multiply, subtract, less, copyto = np.multiply, np.subtract, np.less, np.copyto
    add, reduce, square, divide, isfinite = np.add, np.add.reduce, np.square, np.divide, np.isfinite

    def check(when):
        multiply(m, eta, out=loglik)
        subtract(loglik, nsp, out=loglik)
        if not isfinite(loglik, out=finite).all():
            raise _non_finite(loglik, C, when)

    _scaled_softplus(n, eta, nsp, tmp)
    check("at initial state")
    nsp_sum = nsp.sum(axis=1)
    m_z = (m[:, None, :] @ Z)[:, 0]  # (lanes, k): column j is sum_h m_h Z_hj
    z_t = Z.T[:, None, :]

    def draw(rng, width):
        # ``random`` is ``uniform`` on [0, 1) without the affine map
        block = {"z_beta": rng.standard_normal((width, k)), "u_beta": rng.random((width, k))}
        if use_effects:
            block["z_v"] = rng.standard_normal((width, H))
            block["u_v"] = rng.random((width, H))
        if free_sigma:
            block["chisq"] = rng.chisquare(post_df, width)
        return block

    def window(block, scales, accepted):
        # the scales are fixed within a window, so every proposal increment,
        # its shift of eta, the m * shift and m * step terms of its
        # log-likelihood change and the log-uniform it is tested against are
        # known before the window's first iteration (computed in place of the
        # draws); the coefficient terms are read through (width, k, lanes)
        # views, one row per coordinate
        beta_steps = np.multiply(block["z_beta"], scales["beta"], out=block["z_beta"])
        steps_t = beta_steps.transpose(0, 2, 1)
        shifts = multiply(steps_t[..., None], z_t, out=shift_buffer[: len(beta_steps)])
        m_beta = (beta_steps * m_z).transpose(0, 2, 1)
        log_u_beta = np.log(block["u_beta"], out=block["u_beta"]).transpose(0, 2, 1)
        beta_flags = accepted["beta"]
        flags_t = beta_flags.transpose(0, 2, 1)
        flag_cols = flags_t[..., None]
        if use_effects:
            v_steps = np.multiply(block["z_v"], scales["effects"], out=block["z_v"])
            m_v = v_steps * m
            log_u_v = np.log(block["u_v"], out=block["u_v"])
            v_flags = accepted["effects"]
        chisq = block.get("chisq")

        def step(i):
            # regression coefficients: coordinate-wise random walk; the
            # log-likelihood change is m * shift - (sum nsp' - sum nsp), and
            # each coefficient's own step is added where its flag is set
            # once the walk is done
            for shift, m_shift, log_u, flag, flag_col in zip(
                shifts[i], m_beta[i], log_u_beta[i], flags_t[i], flag_cols[i]
            ):
                add(eta, shift, out=eta_prop)
                reduce(_scaled_softplus(n, eta_prop, nsp_prop, tmp), axis=1, out=sum_prop)
                subtract(sum_prop, nsp_sum, out=gain)
                subtract(m_shift, gain, out=gain)
                less(log_u, gain, out=flag)
                copyto(coef_rows, coef_rows_prop, where=flag_col)
                copyto(nsp_sum, sum_prop, where=flag)
            add(beta, beta_steps[i], out=beta, where=beta_flags[i])
            # stratum effects: simultaneous independent random walks, each
            # tested on m * step - (nsp' - nsp) - (v'^2 - v^2) / (2 sigma2)
            if use_effects:
                add(step_rows, v_steps[i], out=step_rows_prop)
                _scaled_softplus(n, eta_prop, nsp_prop, tmp)
                subtract(m_v[i], subtract(nsp_prop, nsp, out=tmp), out=gain_h)
                square(v_prop, out=v_sq_prop)
                subtract(v_sq_prop, v_sq, out=prior)
                divide(prior, two_sigma2, out=prior)
                subtract(gain_h, prior, out=gain_h)
                copyto(state, prop, where=less(log_u_v[i], gain_h, out=v_flags[i]))
                reduce(nsp, axis=1, out=nsp_sum)
            if free_sigma:
                draw_sigma2(chisq[i])
                multiply(sigma2_col, 2.0, out=two_sigma2)
            check("during sampling")
            return eta, beta, sigma2

        return step

    results = _run_lanes(
        config,
        spawn_keys,
        (H, k),
        draw,
        window,
        model.domains,
        proposals={"beta": k, "effects": H},
        link=_expit_open,
    )
    return [replace(result, warnings=flags) for result, flags in zip(results, warnings)]


def fit_gaussian_fh(
    models: Sequence[GaussianFHInput],
    config: McmcConfig,
    spawn_keys: Sequence[tuple[int, ...]] = ((),),
) -> list[StratumDraws]:
    """Gibbs sampler for the Gaussian measurement-error model.

    Full conditionals: theta_h is Gaussian with precision 1/psi_h + 1/sigma2
    (the shrinkage form), beta is Gaussian under a flat prior, and sigma2 is
    scaled-inverse-chi-square.  Batching follows ``fit_binary_hb``: one
    setting per call, one stream key and one ``StratumDraws`` per model, and
    each model's chains start from its own least-squares fit.
    """
    model = _shared_setting(models, spawn_keys)
    Z = model.covariates
    H, k = Z.shape[0], Z.shape[1]
    C = config.chains

    ztz_inv = np.linalg.inv(Z.T @ Z)
    ztz_inv_chol = np.linalg.cholesky(ztz_inv)

    sigma_prior = model.prior
    free_sigma = sigma_prior.fixed_sigma2 is None
    post_df = sigma_prior.prior_df + H
    beta = _lanes([ztz_inv @ (Z.T @ each.estimates) for each in models], C)
    sigma2 = np.full(len(beta), sigma_prior.prior_scale if free_sigma else sigma_prior.fixed_sigma2)
    projection = ztz_inv @ Z.T
    est = _lanes([each.estimates for each in models], C)
    psi = _lanes([each.sampling_variances for each in models], C)
    prec_data, est_prec = 1.0 / psi, est / psi

    # per-iteration buffers; stacked products run the same BLAS call per lane
    # as a single chain, and Z beta, formed for the sigma2 draw, is carried
    # into the next iteration's conditional mean
    theta, mean, prec, prec_sd, resid = (np.empty_like(est) for _ in range(5))
    sigma2_col = sigma2[:, None]
    inv_sigma2, sigma2_sd = np.empty_like(sigma2_col), np.empty_like(sigma2_col)
    # (lanes, n, 1) products and their (lanes, n) views
    beta_hat = np.empty((*beta.shape, 1))
    synthetic = np.matmul(Z, beta[:, :, None])
    theta_col, beta_col = theta[:, :, None], beta[:, :, None]
    beta_hat_row, synthetic_row = beta_hat[:, :, 0], synthetic[:, :, 0]
    draw_sigma2 = _sigma2_sampler(resid, sigma_prior.prior_df * sigma_prior.prior_scale, sigma2)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    sqrt, matmul = np.sqrt, np.matmul

    def set_sigma2_terms():
        # the theta precision 1/psi + 1/sigma2, its root and sqrt(sigma2),
        # which change only with sigma2
        divide(1.0, sigma2_col, out=inv_sigma2)
        add(prec_data, inv_sigma2, out=prec)
        sqrt(prec, out=prec_sd)
        sqrt(sigma2_col, out=sigma2_sd)

    set_sigma2_terms()

    def draw(rng, width):
        block = {"z_theta": rng.standard_normal((width, H))}
        block["z_beta"] = rng.standard_normal((width, k))
        if free_sigma:
            block["chisq"] = rng.chisquare(post_df, width)
        return block

    def window(block, scales, accepted):
        noise = (ztz_inv_chol @ block["z_beta"][..., None])[..., 0]
        z_theta, chisq = block["z_theta"], block.get("chisq")

        def step(i):
            divide(synthetic_row, sigma2_col, out=mean)
            add(est_prec, mean, out=mean)
            divide(mean, prec, out=mean)
            divide(z_theta[i], prec_sd, out=theta)
            add(mean, theta, out=theta)
            matmul(projection, theta_col, out=beta_hat)
            multiply(sigma2_sd, noise[i], out=beta)
            add(beta_hat_row, beta, out=beta)
            matmul(Z, beta_col, out=synthetic)
            if free_sigma:
                subtract(theta, synthetic_row, out=resid)
                draw_sigma2(chisq[i])
                set_sigma2_terms()
            return theta, beta, sigma2

        return step

    return _run_lanes(config, spawn_keys, (H, k), draw, window, model.domains)


def compute_psi(sample: SampleSet, variable: str) -> np.ndarray:
    """Known sampling variances deff * (1 - f) * S^2 / n per stratum, in
    frame order: ``SampleSet.stratum_mean_variance`` of the variable's
    column.  A stratum with fewer than two records is an error, since S^2
    needs n_h >= 2, and so is a zero value (a census stratum or a constant
    variable), which the measurement-error model cannot use.
    """
    column = sample.column(variable)

    counts = sample.stratum_counts
    too_small = [sample.strata[h].id for h in np.flatnonzero(counts < 2)]
    if too_small:
        raise DataError(f"sampling variance needs n_h >= 2 in strata {too_small}", f"variable {variable!r}: ")
    psi = sample.stratum_mean_variance(column)
    degenerate = "; ".join(
        f"stratum {sample.strata[h].id!r}: degenerate sampling variance "
        f"({'census stratum' if sample.sampling_fractions[h] == 1.0 else 'constant variable'})"
        for h in np.flatnonzero(psi == 0.0)
    )
    if degenerate:
        cause = f"zero sampling variance is not usable in the measurement-error model ({degenerate})"
        raise DataError(cause, f"variable {variable!r}: ")
    return psi


def domain_map(sample: SampleSet) -> DomainMap:
    """The map that folds a sample's stratum values into its domain totals:
    each stratum's domain, weighted by its population size N_h.  Errors if a
    stratum has no sampled record, or has records in more than one domain:
    the first such stratum in frame order is named.
    """
    empty = [s.id for s, n_h in zip(sample.strata, sample.stratum_counts) if n_h == 0]
    if empty:
        raise DataError(f"strata without sampled records: {empty}")
    present = sample.stratum_domain_pairs
    spanning = np.flatnonzero(present.sum(axis=1) > 1)
    if spanning.size:
        h = spanning[0]
        domains = sorted(sample.domain_ids[d] for d in np.flatnonzero(present[h]))
        raise DataError(f"stratum {sample.strata[h].id!r} spans multiple domains {domains}")
    return DomainMap(
        present.argmax(axis=1),
        sample.stratum_sizes,
        sample.calibration.n_domains,
    )


def draws_to_domain_totals(stratum_draws: dict[str, StratumDraws], sample: SampleSet) -> PosteriorDraws:
    """Aggregate stratum draws into the p-vector of domain-total draws.

    Binary draws (p_h) and Gaussian draws of stratum means (theta_h) both
    scale by the stratum population size: the domain total draw is the sum
    over strata in the domain of N_h * draw_h, in frame order, folded by
    ``domain_map(sample)`` as the samplers fold their kept values.
    """
    spec = sample.calibration
    missing = [v for v in spec.variable_names if v not in stratum_draws]
    if missing:
        raise DataError(f"missing stratum draws for variables {missing}")
    domains = domain_map(sample)
    first = stratum_draws[spec.variable_names[0]]
    tags, n_draws = first.chain_tags, first.draws.shape[0]
    totals = np.empty((n_draws, spec.n_variables, spec.n_domains))
    for v, name in enumerate(spec.variable_names):
        d = stratum_draws[name]
        if d.draws.shape[1] != len(sample.strata):
            raise DataError(
                f"variable {name!r}: draws cover {d.draws.shape[1]} strata, "
                f"sample has {len(sample.strata)}"
            )
        if d.draws.shape[0] != n_draws or not np.array_equal(d.chain_tags, tags):
            raise DataError("stratum draws disagree on chain layout")
        domains.fold(d.draws.T, totals[:, v].T)
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
