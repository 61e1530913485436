"""Low-level conditional tail samplers.

Every routine draws only from the supplied generator; thread safety is
the caller's stream discipline (one derived stream per worker).  Every
draw is a batch: ``size`` is a required row count, and a draw returns
``size`` rows (or ``size`` values per coordinate).  The routines are pure
functions of their parameters, except the Gaussian conditional law
(:class:`GaussianConditional`), a handle that holds its model.  All
Gaussian rows come from one row-block pass, :func:`gaussian_rows`, which
krigs each block as it is drawn: an unconditional block moved by a
per-law gain, so no law factors a covariance of its own.  Given a per-row
function, the pass hands each finished block to it and keeps only the values
it returns, so an estimator's draw holds two buffers of ``block_rows(d)`` rows
(``BLOCK_ELEMENTS`` values, 512 kB at any d) instead of its whole sample.
The truncated normals draw one threshold, and rounds whose thresholds share
a sign, without per-element masks.
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
    "gaussian_rows",
    "GaussianConditional",
    "sample_truncated_std_normal_pair",
    "gibbs_bivariate_truncated",
    "sample_inverse_gaussian",
    "laplace_conditional_exceedance",
]

# Values per block of a Gaussian draw: enough that a narrow draw does not pay
# the fixed cost of its ten or so numpy calls per block on a few thousand
# values.  A block's normals and matrix products live in block-sized buffers,
# so a draw holds its output plus BLOCK_ELEMENTS values of scratch per buffer
# (512 kB at any d) instead of three whole-size temporaries; with a per-row
# function the output is one value per row.
BLOCK_ELEMENTS = 1 << 16


def block_rows(d: int) -> int:
    """The most rows a block of a d-column Gaussian draw holds."""
    return max(1, BLOCK_ELEMENTS // d)


def row_blocks(n: int, d: int):
    """``(start, stop)`` of near-equal blocks of at most ``block_rows(d)``
    rows covering n rows.

    The blocks are near-equal, so each block of a draw of several blocks
    holds at least about ``BLOCK_ELEMENTS / 2`` values.  BLAS takes a
    different code path for small products, with different last bits: on
    OpenBLAS 0.3.31 (SkylakeX kernels) ``z @ chol.T`` differed from one
    whole-array product only on calls of at most 1,024 values (16 rows at
    d = 64, 1 row at d = 1,024), and the kriging product ``dv @ gain.T`` of
    k <= 2 columns only on 1 row, so blocks of 2^15 values keep the bits of
    the whole-array products.
    """
    count = max(1, -(-n // block_rows(d)))
    size, extra = divmod(n, count)
    start = 0
    for b in range(count):
        stop = start + size + (b < extra)
        yield start, stop
        start = stop


_SQRT_MAX = math.sqrt(np.finfo(float).max)  # a larger gamma overflows gamma * gamma


def shifted_exponential_rate(gamma):
    """Optimal rate of the shifted-exponential proposal for the tail beyond
    gamma, elementwise over an array of truncation points.

    Maximizes the acceptance probability of the rejection scheme; the
    acceptance stays above one half for any non-negative truncation point
    and tends to one deep in the tail.  Where ``gamma * gamma`` overflows
    (gamma above about 1.34e154) the rate is gamma itself, its limit.
    """
    gamma = np.asarray(gamma, dtype=float)
    rate = np.empty(gamma.shape)
    with np.errstate(over="ignore"):
        np.multiply(gamma, gamma, out=rate)
    rate += 4.0
    np.sqrt(rate, out=rate)
    rate += gamma
    rate *= 0.5
    return np.where(gamma > _SQRT_MAX, gamma, rate)[()]


def _rejection_fill(n: int, attempt) -> np.ndarray:
    """n values of a rejection sampler that proposes one candidate per open
    slot each round.  ``attempt(pending)`` returns the round's candidates
    and which of them it accepts, for the open slots ``pending`` (``None``
    in the first round: all n, in order); a slot keeps the candidate of the
    round that accepts it.  Rejected candidates are written too and then
    overwritten, which saves compressing the candidates of every round."""
    if not n:
        return np.empty(0)
    out, accept = attempt(None)
    pending = np.flatnonzero(~accept)
    while pending.size:
        cand, accept = attempt(pending)
        out[pending] = cand
        pending = pending[~accept]
    return out


def _exponential_round(g, lam, rng, m: int):
    """Shifted-exponential candidates beyond thresholds ``g >= 0`` (one or m)
    at the rates ``lam``, and their acceptance test."""
    cand = g + rng.exponential(1.0, m) / lam
    log_u = np.log(rng.random(m))
    return cand, log_u < -0.5 * (cand - lam) ** 2


def _normal_round(g, rng, m: int):
    """Plain normal candidates above thresholds ``g < 0`` and their test."""
    cand = rng.standard_normal(m)
    return cand, cand > g


def _trunc_std_normal(t: float, rng, n: int) -> np.ndarray:
    """n draws of N(0,1) conditioned on exceeding the one threshold t: the
    draws of :func:`_trunc_std_normal_batch` on n copies of t, bit for bit."""
    if t >= 0.0:
        lam = shifted_exponential_rate(t)
        step = lambda m: _exponential_round(t, lam, rng, m)
    else:
        step = lambda m: _normal_round(t, rng, m)
    return _rejection_fill(n, lambda pending: step(n if pending is None else pending.size))


def _trunc_std_normal_batch(gammas: np.ndarray, rng) -> np.ndarray:
    """N(0,1) conditioned on exceeding each of a 1-D array of thresholds.

    Shifted-exponential proposals where the threshold is non-negative,
    plain rejection from the untruncated normal elsewhere (acceptance at
    least one half in both regimes).  A round draws the exponentials and
    uniforms of its non-negative thresholds, then the normals of the rest;
    a round with one sign only draws the same numbers without masks.
    """
    gammas = np.asarray(gammas, dtype=float)
    rates = shifted_exponential_rate(gammas)  # elementwise, so each round gathers its own

    def attempt(pending):
        g, lam = (gammas, rates) if pending is None else (gammas[pending], rates[pending])
        pos = g >= 0.0
        npos = np.count_nonzero(pos)
        if npos == g.size:
            return _exponential_round(g, lam, rng, npos)
        if not npos:
            return _normal_round(g, rng, g.size)
        cand, accept = np.empty(g.size), np.empty(g.size, dtype=bool)
        neg = ~pos
        cand[pos], accept[pos] = _exponential_round(g[pos], lam[pos], rng, npos)
        cand[neg], accept[neg] = _normal_round(g[neg], rng, g.size - npos)
        return cand, accept

    return _rejection_fill(gammas.size, attempt)


def sample_truncated_std_normal(gamma: float, rng, size):
    """``size`` draws from N(0,1) conditioned on being greater than ``gamma``."""
    return _trunc_std_normal(_real(gamma, "the truncation point"), rng, _dimension(size, "size", least=0))


def gaussian_rows(model, rng, n: int, given=(), values=None, gain=None, _per_row=None) -> np.ndarray:
    """n rows of a Gaussian model, block by block, with the bits of
    ``mu + z @ chol.T`` on one ``(n, d)`` normal draw.

    Given the ``(d, k)`` gain ``K`` of the coordinates ``given`` and their
    ``(n, k)`` values, each block is kriged as soon as it is drawn: moved by
    ``(values - X[:, given]) @ K.T``, the exact conditioning identity
    (Hoffman & Ribak 1991), which needs no factor of the conditional
    covariance.  The product reuses the block's normal buffer, and the
    conditioned columns are then exactly ``values``.

    Each finished block is handed to ``_per_row``, a function of one block
    of rows that returns one value per row and reads only its own row, and
    the ``(n,)`` values it gives are returned; the rows themselves live in
    block-sized scratch only, so the draw never holds all n of them.  With
    no function the ``(n, d)`` rows are returned.
    """
    rows, d = _per_row is None, model.d
    out = np.empty((n, d) if rows else n)
    size = min(n, block_rows(d))
    scratch = np.empty((1 if rows else 2, size, d))
    diff = np.empty((size, len(given)))
    chol_t = model.chol.T
    # a zero mean adds nothing; on 4-wide rows its add would cost about a sixth of the normals
    mu = model.mu if model.mu.any() else None
    for start, stop in row_blocks(n, d):
        z = scratch[-1, :stop - start]
        block = out[start:stop] if rows else scratch[0, :stop - start]
        rng.standard_normal(out=z)
        np.matmul(z, chol_t, out=block)
        if mu is not None:
            block += mu
        if gain is not None:
            v, dv = values[start:stop], diff[:stop - start]
            for j, c in enumerate(given):  # column by column: a gathered block[:, given] is F-ordered
                np.subtract(v[:, j], block[:, c], dv[:, j])
            np.matmul(dv, gain.T, out=z)
            block += z
            for j, c in enumerate(given):
                block[:, c] = v[:, j]
        if not rows:
            out[start:stop] = _per_row(block)
    return out


class GaussianConditional:
    """Law of a Gaussian model given ``X_k > gamma`` for k in ``given``,
    one index or a distinct pair.

    One conditioned coordinate is a truncated-normal draw; a pair is an
    exact minimax-tilted accept-reject draw.  The whole vector is then
    drawn given those values by one kriged pass of :func:`gaussian_rows`,
    with the gain ``K = sigma[:, given] sigma[given, given]^-1``.
    """

    def __init__(self, model, given, gamma):
        given = tuple(model._check_index(i) for i in given)
        if len(given) not in (1, 2) or len(set(given)) != len(given):
            raise ModelSpecError(f"a Gaussian conditional needs one index or a distinct pair, got {given}")
        gamma = model.check_threshold(gamma)
        cols, sigma = list(given), model.sigma
        self.model = model
        self.given = given
        self.gain = np.linalg.solve(sigma[np.ix_(cols, cols)], sigma[cols]).T
        self._mu = model.mu[cols]
        self._sd = np.sqrt(sigma[cols, cols])
        self._t = (gamma - self._mu) / self._sd
        if len(given) == 2:
            self._rho = model.correlation(*given)

    def draw(self, rng, size, _per_row=None) -> np.ndarray:
        n = _dimension(size, "size", least=0)
        if len(self.given) == 1:
            z = (sample_truncated_std_normal(self._t[0], rng, n),)
        else:
            z = sample_truncated_std_normal_pair(*self._t, self._rho, rng, size=n)
        values = np.empty((n, len(z)))
        for j, zj in enumerate(z):  # mu + sd z, column by column
            np.multiply(zj, self._sd[j], out=values[:, j])
            values[:, j] += self._mu[j]
        return gaussian_rows(self.model, rng, n, self.given, values, self.gain, _per_row)


class _PairLaw:
    """The pair sampler's law of its first coordinate for one key in sampling
    order (``ti >= tj``): the minimax tilt (Botev 2017, JRSS-B) and a
    two-sided chord squeeze of the log ratio ``psi(x) - psi_star``.

    The saddle point of ``psi`` solves ``mu = (rho/s) h((tj - rho x)/s)`` and
    ``x = mu + h(ti - mu)``, with ``h`` the normal hazard.  Taking ``mu`` as
    that function of x makes x the stationary point, hence the maximum, of
    ``psi(., mu)``, which is concave in x; so ``psi_star = psi(x)`` bounds the
    ratio wherever the root search stops, and the root only sets the
    acceptance rate.  ``excess(x) = x - mu(x) - h(ti - mu(x))`` increases
    strictly in x, is negative at ``ti`` and non-negative at
    ``ti - excess(ti)``, so bisection on that bracket converges.

    ``psi`` is concave in x: a line plus ``log P(Z > (tj - rho x) / s)``,
    whose second derivative lies in ``(-(rho/s)^2, 0)`` because the normal
    hazard grows with a slope inside (0, 1).  So between knots ``step``
    apart the chord lies below ``psi`` by at most ``(rho step / s)^2 / 8``.
    The margin, 1e-9 of the largest term of ``psi``, covers the rounding of
    the chord and of ``psi`` itself many times over, so a decision taken on
    the squeeze is the one the exact ratio takes.  The knots run from ``ti``,
    below which no candidate falls, to where the proposal's tail is about
    ``e^-12``; beyond them nothing is decided.
    """

    KNOTS = 256

    def __init__(self, ti: float, tj: float, rho: float):
        self.s = s = math.sqrt((1.0 - rho) * (1.0 + rho))
        self.tj, self.rho = tj, rho

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
        self.mu = mu = tilt_at(hi)
        a = ti - mu
        self.log_tail = norm_logsf(a)  # log P(Z > ti - mu), free of x
        self.psi_star = psi_star = self.psi(hi)
        self.lo = ti
        self.step = (12.0 / shifted_exponential_rate(max(a, 0.0)) + max(-a, 0.0)) / (self.KNOTS - 1)
        x = ti + self.step * np.arange(self.KNOTS)
        self.ratio = self.exact(x)
        self.slope = np.append(np.diff(self.ratio), 0.0)
        terms = np.abs(x).max() * abs(mu) + 0.5 * mu * mu + abs(self.log_tail) + abs(psi_star)
        self.margin = 1e-9 * (1.0 + np.abs(self.ratio).max() + 2.0 * terms)
        self.width = (rho * self.step / s) ** 2 / 8.0 + self.margin

    def psi(self, x):
        """Log of the pair target over the tilted proposal at first coordinate x."""
        mu = self.mu
        return -x * mu + 0.5 * mu * mu + self.log_tail + norm_logsf((self.tj - self.rho * x) / self.s)

    def exact(self, x):
        """``psi(x) - psi_star``, which the acceptance test compares with log U."""
        return self.psi(x) - self.psi_star

    def decide(self, x, log_u):
        """``(accept, unsure)``: ``accept`` is the exact test's decision
        except at the indices ``unsure``, which the squeeze leaves open."""
        t = x - self.lo
        t /= self.step
        tc = np.maximum(t, 0.0)
        np.minimum(tc, self.KNOTS - 1, out=tc)
        k = tc.astype(np.intp)
        d = tc - k  # the chord at tc: ratio[k] + (tc - k) slope[k]
        d *= self.slope.take(k)
        d += self.ratio.take(k)
        np.subtract(log_u, d, out=d)
        accept = d < -self.margin
        unsure = d < self.width  # holds wherever accept does
        unsure ^= accept
        unsure |= tc != t
        return accept, unsure.nonzero()[0]


# memoised: a pure function of its key, which many pair laws of one model
# share.  1,024 keys hold about 4.5 MB of knots; a model with more distinct
# pair keys rebuilds laws (a bisection and one kernel call on 256 points).
_pair_law = lru_cache(maxsize=1 << 10)(_PairLaw)


def sample_truncated_std_normal_pair(ti: float, tj: float, rho: float, rng, size):
    """``size`` exact draws of a standard bivariate normal pair with
    correlation ``rho`` conditioned on ``Z_i > ti`` and ``Z_j > tj``.

    The coordinate with the larger threshold is drawn first; call it ``Z_i``.
    With ``Z_j = rho Z_i + s Y`` and ``s = sqrt(1 - rho**2)``, ``Z_i`` comes
    from its pair-conditional marginal by rejection from the tilted
    truncated normal ``mu + TN(ti - mu)``, accepted when
    ``log U < psi(Z_i) - psi_star``; then ``Y`` is drawn exactly from
    ``TN((tj - rho Z_i) / s)``.  The acceptance stays above 0.8 for ``rho``
    in [-0.9, 0.99] and thresholds in [-1, 8].  The test reads a chord
    squeeze of ``psi`` (``_PairLaw``, memoised per key) and evaluates
    ``psi`` itself only where the squeeze cannot decide, so it takes the
    exact test's decisions with a few array operations per candidate.
    """
    ti, tj, rho = _real(ti, "ti"), _real(tj, "tj"), _real(rho, "rho")
    if not -1.0 < rho < 1.0:
        raise ModelSpecError(f"the pair sampler needs a correlation inside (-1, 1), got {rho}")
    swap = ti < tj
    if swap:
        ti, tj = tj, ti
    law = _pair_law(ti, tj, rho)
    mu, s = law.mu, law.s
    n = _dimension(size, "size", least=0)

    def attempt(pending):
        m = n if pending is None else pending.size
        x = _trunc_std_normal(ti - mu, rng, m)
        x += mu
        log_u = np.log(rng.random(m))
        accept, unsure = law.decide(x, log_u)
        if unsure.size:
            accept[unsure] = log_u[unsure] < law.exact(x[unsure])
        return x, accept

    zi = _rejection_fill(n, attempt)
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
    zi = _trunc_std_normal(ti, rng, n)
    zj = _trunc_std_normal(tj, rng, n)
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
    w = rng.standard_normal(shape)
    w *= w  # chi-square with one degree of freedom
    np.multiply(mu, w, out=w)
    w /= lam
    # smaller root of the quadratic, written without cancellation:
    # denom = 1 + w / 2 + sqrt(w (4 + w)) / 2, and the root is mu / denom
    root = np.add(w, 4.0)
    root *= w
    np.sqrt(root, out=root)
    root *= 0.5
    denom = np.multiply(w, 0.5, out=w)
    denom += 1.0
    denom += root
    x = np.divide(mu, denom)
    u = rng.random(shape)
    np.add(mu, x, out=root)
    take_root = u <= np.divide(mu, root, out=root)
    np.multiply(mu, denom, out=denom)  # the other root, mu denom
    np.copyto(denom, x, where=take_root)
    return denom


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
    x_i = rng.exponential(1.0 / SQRT2, n)
    x_i += gamma
    y_i = sample_inverse_gaussian(SQRT2 * x_i, 2.0 * x_i * x_i, rng, n)
    np.sqrt(y_i, out=y_i)
    out = np.empty((n, d))
    out[:, i] = x_i
    if d > 1:
        y_rest = rng.standard_normal((n, d - 1))
        scale = np.divide(x_i, y_i, out=y_i)
        for j, k in enumerate(k for k in range(d) if k != i):  # a column at a time, not a scatter
            np.multiply(scale, y_rest[:, j], out=out[:, k])
    return out
