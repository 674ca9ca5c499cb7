"""Reference posteriors of the two HB models, and the comparison of a
sampler's draws with them.

The samplers are judged by what they draw, not by their bytes: a golden
re-baseline regenerates the bytes of a wrong sampler as readily as those of
a right one.  Each reference here is computed in plain NumPy from the model
alone:

* ``gaussian_quadrature``: under the flat beta prior, the Gaussian
  measurement-error model's p(sigma2 | y) is a 1-d density, and theta_h
  given sigma2 is Gaussian, so its posterior is a mixture over a fine
  log-sigma2 grid;
* ``gaussian_gibbs``: the model's full conditionals (theta_h given beta and
  sigma2, beta given theta, sigma2 given theta and beta), run as one plain
  chain; it shares no formula with the quadrature;
* ``binary_grid``: for the logit-normal binomial model with three strata,
  beta and sigma2 integrate out analytically, leaving p(eta | y) on a 3-d
  grid of the logits.

``compare`` scores a sampler's mean, SD and 5% and 95% quantiles of each
stratum value against a reference in Monte Carlo standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

QUANTILES = (0.05, 0.95)


@dataclass(frozen=True)
class Summary:
    """Posterior mean, SD and 5%/95% quantiles of each stratum value, with
    the density at each quantile (which converts the Monte Carlo error of
    an indicator into that of the quantile)."""

    mean: np.ndarray
    sd: np.ndarray
    quantiles: np.ndarray  # (2, H)
    density: np.ndarray  # (2, H)


def _trapezoid_weights(n: int) -> np.ndarray:
    weights = np.ones(n)
    weights[[0, -1]] = 0.5
    return weights


def _mixture_quantile(q, weights, mean, sd, lo, hi, steps=45):
    """The q-quantile of each column of a Gaussian mixture, by bisection of
    its CDF on [lo, hi]: ``weights`` (T,), ``mean`` and ``sd`` (T, H)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(steps):
        mid = (lo + hi) / 2
        below = weights @ ndtr((mid - mean) / sd) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


def gaussian_quadrature(estimates, psi, Z, prior_df=1.0, prior_scale=1.0, fixed_sigma2=None, points=20_001):
    """Posterior summary of theta under the Gaussian model.

    p(sigma2 | y) is proportional to p(sigma2) |V|^-1/2 |Z'V^-1 Z|^-1/2
    exp(-y'Py / 2), V = diag(psi + sigma2), and is taken on ``points``
    values of log sigma2, with the Jacobian sigma2.  Given sigma2, theta_h
    has mean g y_h + (1 - g) z_h' beta_hat and variance g psi_h +
    (1 - g)^2 z_h' (Z'V^-1 Z)^-1 z_h, g = sigma2 / (sigma2 + psi_h); the
    posterior is their mixture.  A pinned sigma2 is a single component.
    """
    y, psi, Z = (np.asarray(a, dtype=float) for a in (estimates, psi, Z))

    def gls(t):
        w = 1.0 / (psi + np.exp(t)[:, None])  # (T, H)
        gram = np.einsum("th,hi,hj->tij", w, Z, Z)
        beta = np.linalg.solve(gram, np.einsum("th,hi,h->ti", w, Z, y)[..., None])[..., 0]
        return w, gram, beta @ Z.T

    if fixed_sigma2 is None:
        center = np.log(psi.mean() + y.var())
        t = np.linspace(center - 60.0, center + 80.0, points)
        w, gram, fitted = gls(t)
        _, logdet_gram = np.linalg.slogdet(gram)
        quad = (w * (y - fitted) ** 2).sum(axis=1)
        log_post = 0.5 * (np.log(w).sum(axis=1) - logdet_gram - quad - prior_df * t - prior_df * prior_scale * np.exp(-t))
        log_post -= log_post.max()
        assert max(log_post[0], log_post[-1]) < -40.0, "the grid does not bracket the mass"
        weights = np.exp(log_post) * _trapezoid_weights(len(t))
        # points below e^-50 of the peak add nothing at double precision
        kept = log_post > -50.0
        t, weights = t[kept], weights[kept] / weights.sum()
    else:
        t, weights = np.log([fixed_sigma2]), np.ones(1)
    w, gram, fitted = gls(t)
    sigma2 = np.exp(t)[:, None]
    cov = np.linalg.inv(gram)
    gamma = sigma2 / (sigma2 + psi)
    mean = gamma * y + (1.0 - gamma) * fitted
    var = gamma * psi + (1.0 - gamma) ** 2 * np.einsum("hi,tij,hj->th", Z, cov, Z)
    sd = np.sqrt(var)
    post_mean = weights @ mean
    post_sd = np.sqrt(weights @ (var + mean**2) - post_mean**2)
    lo, hi = post_mean - 20.0 * post_sd, post_mean + 20.0 * post_sd
    quantiles = np.stack([_mixture_quantile(q, weights, mean, sd, lo, hi) for q in QUANTILES])
    density = np.stack(
        [weights @ (np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))) for x in quantiles]
    )
    return Summary(post_mean, post_sd, quantiles, density)


def gaussian_gibbs(estimates, psi, Z, iterations, seed, prior_df=1.0, prior_scale=1.0, fixed_sigma2=None, burnin=500):
    """``iterations`` post-burn-in draws of theta, (iterations, H), from one
    Gibbs chain on the Gaussian model's full conditionals, started at the
    least-squares beta and sigma2 = the prior scale (or the pinned value):

    * theta_h | beta, sigma2: precision 1/psi_h + 1/sigma2, mean
      (y_h/psi_h + z_h' beta/sigma2) / precision;
    * beta | theta, sigma2: N((Z'Z)^-1 Z' theta, sigma2 (Z'Z)^-1) (flat prior);
    * sigma2 | theta, beta: (prior_df prior_scale + |theta - Z beta|^2) /
      chi2(prior_df + H).
    """
    y, psi, Z = (np.asarray(a, dtype=float) for a in (estimates, psi, Z))
    H, k = Z.shape
    rng = np.random.default_rng(seed)
    ztz_inv = np.linalg.inv(Z.T @ Z)
    root = np.linalg.cholesky(ztz_inv)
    projection = ztz_inv @ Z.T
    beta = projection @ y
    sigma2 = prior_scale if fixed_sigma2 is None else fixed_sigma2
    kept = np.empty((iterations, H))
    for i in range(burnin + iterations):
        precision = 1.0 / psi + 1.0 / sigma2
        theta = (y / psi + Z @ beta / sigma2) / precision + rng.standard_normal(H) / np.sqrt(precision)
        beta = projection @ theta + np.sqrt(sigma2) * (root @ rng.standard_normal(k))
        if fixed_sigma2 is None:
            resid = theta - Z @ beta
            sigma2 = (prior_df * prior_scale + resid @ resid) / rng.chisquare(prior_df + H)
        if i >= burnin:
            kept[i - burnin] = theta
    return kept


def binary_grid(successes, sizes, Z, prior_df=1.0, prior_scale=1.0, fixed_sigma2=None, points=121):
    """Posterior summary of p_h = expit(eta_h) under the logit-normal
    binomial model with three strata.

    With beta (flat) and sigma2 (scaled inverse chi-square) integrated out,
    p(eta | y) is proportional to prod_h Binom(m_h | n_h, expit eta_h)
    (prior_df prior_scale + S(eta))^-(prior_df + H - k)/2, S the residual
    sum of squares of eta on Z; a pinned sigma2 puts exp(-S / 2 sigma2) in
    place of the power.  It is taken on a ``points``^3 grid that spans, on
    each axis, the logits at which the stratum's binomial likelihood is
    within e^30 of its peak.
    """
    m, n, Z = (np.asarray(a, dtype=float) for a in (successes, sizes, Z))
    H, k = Z.shape
    assert H == 3
    eta = np.linspace(-30.0, 30.0, 6001)
    loglik = m[:, None] * eta - n[:, None] * np.logaddexp(0.0, eta)
    spans = [eta[row >= row.max() - 30.0] for row in loglik]
    axes = [np.linspace(span[0], span[-1], points) for span in spans]
    annihilator = np.eye(H) - Z @ np.linalg.solve(Z.T @ Z, Z.T)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    rss = sum(annihilator[a, b] * grids[a] * grids[b] for a in range(H) for b in range(H))
    if fixed_sigma2 is None:
        log_post = -0.5 * (prior_df + H - k) * np.log(prior_df * prior_scale + rss)
    else:
        log_post = -rss / (2.0 * fixed_sigma2)
    for h in range(H):
        log_post = log_post + m[h] * grids[h] - n[h] * np.logaddexp(0.0, grids[h])
    mass = np.exp(log_post - log_post.max())
    mass /= mass.sum()
    means, sds, quantiles, density = [], [], [], []
    for h, axis in enumerate(axes):
        marginal = mass.sum(axis=tuple(a for a in range(H) if a != h))
        assert max(marginal[0], marginal[-1]) < 1e-9 * marginal.max(), "the grid does not bracket the mass"
        p = 1.0 / (1.0 + np.exp(-axis))
        means.append(marginal @ p)
        sds.append(np.sqrt(marginal @ p**2 - means[-1] ** 2))
        # each point's mass spread over its cell: a piecewise-linear CDF of eta
        step = axis[1] - axis[0]
        cdf = np.cumsum(marginal)
        eta_q = np.interp(QUANTILES, cdf, axis + step / 2)
        p_q = 1.0 / (1.0 + np.exp(-eta_q))
        quantiles.append(p_q)
        density.append(np.interp(eta_q, axis, marginal) / step / (p_q * (1.0 - p_q)))
    return Summary(np.array(means), np.array(sds), np.array(quantiles).T, np.array(density).T)


def iid_mcse(values: np.ndarray) -> np.ndarray:
    """Standard error of each column's mean, for independent draws."""
    return values.std(axis=0, ddof=1) / np.sqrt(len(values))


def batch_mcse(values: np.ndarray, n_batches: int = 30) -> np.ndarray:
    """Batch-means standard error of each column's mean, for a chain (the
    draws of several chains in turn are batched as one sequence)."""
    usable = len(values) // n_batches * n_batches
    batches = values[:usable].reshape(n_batches, -1, *values.shape[1:]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def summarize(draws: np.ndarray, reference: Summary, mcse) -> tuple[np.ndarray, np.ndarray]:
    """The mean, SD and 5%/95% quantiles of the columns of ``draws``, as
    rows of a (4, H) array, and their Monte Carlo standard errors: ``mcse``
    of the draws, of their centred squares over 2 SD, and of the indicators
    of each quantile over the reference density there."""
    mean, sd = draws.mean(axis=0), draws.std(axis=0, ddof=1)
    quantiles = np.quantile(draws, QUANTILES, axis=0)
    stats = np.vstack([mean, sd, quantiles])
    errors = [mcse(draws), mcse((draws - mean) ** 2) / (2.0 * sd)]
    for q, density in zip(quantiles, reference.density):
        errors.append(mcse((draws <= q).astype(float)) / density)
    return stats, np.vstack(errors)


def compare(draws: np.ndarray, reference: Summary, mcse, other=None) -> np.ndarray:
    """The (4, H) distances, in Monte Carlo standard errors, of the mean, SD
    and quantiles of ``draws`` from ``reference``'s; or, given ``other``
    (a ``(draws, mcse)`` pair of a sampled reference), from those of
    ``other``, the two errors combined."""
    stats, errors = summarize(draws, reference, mcse)
    if other is None:
        want = np.vstack([reference.mean, reference.sd, reference.quantiles])
        return np.abs(stats - want) / errors
    other_draws, other_mcse = other
    want, other_errors = summarize(other_draws, reference, other_mcse)
    return np.abs(stats - want) / np.hypot(errors, other_errors)
