"""Low-level conditional tail samplers.

All routines are pure functions of their parameters and the supplied
generator; thread safety is the caller's stream discipline (one derived
stream per worker).  Every draw is a batch: ``size`` is a required row
count, and a draw returns ``size`` rows (or ``size`` values per coordinate).
A Gaussian model given some of its coordinates is drawn by kriging: one
unconditional draw from the model, corrected by a per-law gain, so no law
factors a covariance of its own.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ModelSpecError, _dimension, _real
from .special import SQRT2, norm_hazard, norm_logsf

__all__ = [
    "shifted_exponential_rate",
    "sample_truncated_std_normal",
    "GaussianConditional",
    "sample_truncated_std_normal_pair",
    "gibbs_bivariate_truncated",
    "sample_inverse_gaussian",
    "laplace_conditional_exceedance",
]

# Rows per block of a Gaussian draw.  A block's normals and matrix products
# live in block-sized buffers, so a draw holds its output plus O(ROW_BLOCK)
# scratch instead of three whole-size temporaries.
ROW_BLOCK = 4096


def row_blocks(n: int):
    """``(start, stop)`` of near-equal blocks of at most ``ROW_BLOCK`` rows covering n rows.

    The blocks are near-equal so none is tiny: BLAS takes a different code
    path for a handful of rows, with different last bits, while blocks of
    thousands of rows give exactly the bits of one whole-array product.
    """
    count = max(1, -(-n // ROW_BLOCK))
    size, extra = divmod(n, count)
    start = 0
    for b in range(count):
        stop = start + size + (b < extra)
        yield start, stop
        start = stop


def shifted_exponential_rate(gamma):
    """Optimal rate of the shifted-exponential proposal for the tail beyond
    gamma, elementwise over an array of truncation points.

    Maximizes the acceptance probability of the rejection scheme; the
    acceptance stays above one half for any non-negative truncation point
    and tends to one deep in the tail.
    """
    return 0.5 * (gamma + np.sqrt(gamma * gamma + 4.0))


def _trunc_std_normal_batch(gammas: np.ndarray, rng) -> np.ndarray:
    """N(0,1) conditioned on exceeding per-element thresholds.

    Shifted-exponential proposals where the threshold is non-negative,
    plain rejection from the untruncated normal elsewhere (acceptance at
    least one half in both regimes).
    """
    gammas = np.asarray(gammas, dtype=float)
    out = np.empty(gammas.shape)
    pending = np.arange(gammas.size)
    flat = gammas.ravel()
    res = out.ravel()
    while pending.size:
        g = flat[pending]
        pos = g >= 0.0
        n = pending.size
        cand = np.empty(n)
        accept = np.zeros(n, dtype=bool)
        if pos.any():
            gp = g[pos]
            lam = shifted_exponential_rate(gp)
            c = gp + rng.exponential(1.0, gp.size) / lam
            logu = np.log(rng.random(gp.size))
            cand[pos] = c
            accept[pos] = logu < -0.5 * (c - lam) ** 2
        if (~pos).any():
            m = int((~pos).sum())
            c = rng.standard_normal(m)
            cand[~pos] = c
            accept[~pos] = c > g[~pos]
        res[pending[accept]] = cand[accept]
        pending = pending[~accept]
    return out


def sample_truncated_std_normal(gamma: float, rng, size):
    """``size`` draws from N(0,1) conditioned on being greater than ``gamma``."""
    gamma = _real(gamma, "the truncation point")
    return _trunc_std_normal_batch(np.full(_dimension(size, "size", least=0), gamma), rng)


class GaussianConditional:
    """Law of a Gaussian model given the values of some of its coordinates, by kriging.

    Only the ``(d, k)`` gain ``K = sigma[:, given] sigma[given, given]^-1``
    is stored.  A draw takes unconditional vectors ``X`` from the model and
    moves each by ``(values - X[:, given]) @ K.T``: the exact conditioning
    identity (Hoffman & Ribak 1991), which needs no factor of the
    conditional covariance.
    """

    def __init__(self, model, given):
        given = tuple(model._check_index(i) for i in given)
        if len(set(given)) != len(given):
            raise ModelSpecError("conditioning indices must be distinct")
        sigma = model.sigma
        self.model = model
        self.given = given
        self.gain = np.linalg.solve(sigma[np.ix_(given, given)], sigma[list(given)]).T

    def draw(self, values, rng):
        """Whole ``(n, d)`` vectors given the ``(n, k)`` conditioned values.

        Rows are corrected block by block, with the bits of
        ``X + (values - X[:, given]) @ K.T`` on one ``model.sample`` draw;
        the conditioned columns are then exactly ``values``.
        """
        values = np.asarray(values, dtype=float)
        x = self.model.sample(rng, values.shape[0])
        cols = list(self.given)
        for start, stop in row_blocks(x.shape[0]):
            block, v = x[start:stop], values[start:stop]
            block += (v - block[:, cols]) @ self.gain.T
            block[:, cols] = v
        return x


def _pair_log_ratio(x, ti, tj, rho, s, mu):
    """``psi(x)``: log of the pair target over the tilted proposal at first coordinate x."""
    return -x * mu + 0.5 * mu * mu + norm_logsf(ti - mu) + norm_logsf((tj - rho * x) / s)


# 65,536 keys hold every pair key of a model with all-distinct keys up to
# d = 362, so an estimate that cycles through its pair laws never evicts
# one of its own tilts.
@lru_cache(maxsize=1 << 16)
def _pair_tilt(ti: float, tj: float, rho: float) -> tuple[float, float]:
    """Minimax tilt ``(mu, psi_star)`` of the pair sampler (Botev 2017, JRSS-B).

    Computed for the thresholds in sampling order, the larger one first,
    and memoised: it is a pure function of its key, which many pair laws
    of one model share.
    The saddle point of ``psi`` solves ``mu = (rho/s) h((tj - rho x)/s)`` and
    ``x = mu + h(ti - mu)``, with ``h`` the normal hazard.  Taking ``mu`` as
    that function of x makes x the stationary point, hence the maximum, of
    ``psi(., mu)``, which is concave in x; so ``psi_star = psi(x)`` bounds the
    ratio wherever the root search stops, and the root only sets the
    acceptance rate.  ``excess(x) = x - mu(x) - h(ti - mu(x))`` increases
    strictly in x, is negative at ``ti`` and non-negative at
    ``ti - excess(ti)``, so bisection on that bracket converges.
    """
    if not (math.isfinite(ti) and math.isfinite(tj) and -1.0 < rho < 1.0):
        raise ModelSpecError(
            f"the pair sampler needs finite thresholds and a correlation inside (-1, 1), "
            f"got {ti}, {tj}, {rho}"
        )
    ti, tj = max(ti, tj), min(ti, tj)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))

    def tilt_at(x):
        return rho / s * norm_hazard((tj - rho * x) / s)

    def excess(x):
        mu = tilt_at(x)
        return x - mu - norm_hazard(ti - mu)

    lo = ti
    hi = ti - excess(ti)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    mu = tilt_at(hi)
    return mu, _pair_log_ratio(hi, ti, tj, rho, s, mu)


def sample_truncated_std_normal_pair(ti: float, tj: float, rho: float, rng, size):
    """``size`` exact draws of a standard bivariate normal pair with
    correlation ``rho`` conditioned on ``Z_i > ti`` and ``Z_j > tj``.

    The coordinate with the larger threshold is drawn first; call it ``Z_i``.
    With ``Z_j = rho Z_i + s Y`` and ``s = sqrt(1 - rho**2)``, ``Z_i`` comes
    from its pair-conditional marginal by rejection from the tilted
    truncated normal ``mu + TN(ti - mu)``, accepted when
    ``log U < psi(Z_i) - psi_star``; then ``Y`` is drawn exactly from
    ``TN((tj - rho Z_i) / s)``.  The acceptance stays above 0.8 for ``rho``
    in [-0.9, 0.99] and thresholds in [-1, 8].
    """
    ti, tj, rho = _real(ti, "ti"), _real(tj, "tj"), _real(rho, "rho")
    swap = ti < tj
    if swap:
        ti, tj = tj, ti
    mu, psi_star = _pair_tilt(ti, tj, rho)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    n = _dimension(size, "size", least=0)
    zi = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        x = mu + _trunc_std_normal_batch(np.full(m, ti - mu), rng)
        accept = np.log(rng.random(m)) < _pair_log_ratio(x, ti, tj, rho, s, mu) - psi_star
        zi[pending[accept]] = x[accept]
        pending = pending[~accept]
    zj = rho * zi + s * _trunc_std_normal_batch((tj - rho * zi) / s, rng)
    if swap:
        zi, zj = zj, zi
    return zi, zj


def gibbs_bivariate_truncated(model, i: int, j: int, gamma: float, burnin: int, rng, size):
    """``size`` approximate draws from ``(X_i, X_j)`` given both exceed ``gamma``.

    Alternates the two univariate truncated-normal full conditionals.  One
    independent chain per requested draw, each burned in from an
    independent-truncation start, so draws carry no serial correlation;
    the only approximation is the finite burn-in.  Every returned pair
    satisfies the constraint by construction.  Kept as a cross-check of
    the exact :func:`sample_truncated_std_normal_pair`, which the
    estimators use.
    """
    burnin = _dimension(burnin, "burnin")
    i, j = model._check_pair(i, j)
    gamma = _real(gamma, "gamma")
    n = _dimension(size, "size", least=0)
    mu = np.asarray(model.mu, dtype=float)
    sigma = np.asarray(model.sigma, dtype=float)
    si = math.sqrt(sigma[i, i])
    sj = math.sqrt(sigma[j, j])
    rho = sigma[i, j] / (si * sj)
    ti = (gamma - mu[i]) / si
    tj = (gamma - mu[j]) / sj
    s = math.sqrt(max(1.0 - rho * rho, 0.0))
    if s == 0.0:
        raise ModelSpecError("degenerate pair correlation; the chain cannot move")
    zi = _trunc_std_normal_batch(np.full(n, ti), rng)
    zj = _trunc_std_normal_batch(np.full(n, tj), rng)
    for _ in range(burnin):
        zj = rho * zi + s * _trunc_std_normal_batch((tj - rho * zi) / s, rng)
        zi = rho * zj + s * _trunc_std_normal_batch((ti - rho * zj) / s, rng)
    xi = mu[i] + si * zi
    xj = mu[j] + sj * zj
    return xi, xj


def sample_inverse_gaussian(mu, lam, rng, size):
    """``size`` inverse Gaussian draws by the transform-with-rejection method.

    Solves the quadratic for the transformed chi-square variate and picks
    the root with the correct probability.  Parameters may be scalars or
    arrays of ``size`` values.
    """
    shape = (_dimension(size, "size", least=0),)
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if mu.shape not in ((), shape) or lam.shape not in ((), shape):
        raise ModelSpecError(f"inverse Gaussian parameters must be scalars or {shape[0]} values")
    if not (np.isfinite(mu).all() and np.isfinite(lam).all() and (mu > 0).all() and (lam > 0).all()):
        raise ModelSpecError("inverse Gaussian parameters must be finite and strictly positive")
    mu = np.broadcast_to(mu, shape)
    lam = np.broadcast_to(lam, shape)
    nu = rng.standard_normal(shape)
    y = nu * nu
    w = mu * y / lam
    # smaller root of the quadratic, written without cancellation
    denom = 1.0 + 0.5 * w + 0.5 * np.sqrt(w * (4.0 + w))
    x = mu / denom
    take_root = rng.random(shape) <= mu / (mu + x)
    return np.where(take_root, x, mu * denom)


def laplace_conditional_exceedance(d: int, i: int, gamma: float, rng, size):
    """``size`` draws of the common-factor Laplace vector given ``X_i > gamma``.

    Exploits memorylessness of the exponential tail of component i and the
    exact conditional law of the underlying Gaussian coordinate given the
    product ``sqrt(R) Y_i``: that coordinate is the square root of an
    inverse Gaussian.  Requires a positive threshold.
    """
    gamma = _real(gamma, "gamma")
    if not gamma > 0.0:
        raise ModelSpecError(f"the conditional exceedance sampler needs gamma > 0, got {gamma}")
    d, i = _dimension(d), _dimension(i, "event index", least=0)
    if i >= d:
        raise ModelSpecError(f"index {i} out of range for dimension {d}")
    n = _dimension(size, "size", least=0)
    x_i = gamma + rng.exponential(1.0 / SQRT2, n)
    y_i = np.sqrt(sample_inverse_gaussian(SQRT2 * x_i, 2.0 * x_i * x_i, rng, n))
    out = np.empty((n, d))
    out[:, i] = x_i
    rest = [k for k in range(d) if k != i]
    if rest:
        y_rest = rng.standard_normal((n, d - 1))
        out[:, rest] = (x_i / y_i)[:, None] * y_rest
    return out
