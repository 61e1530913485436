"""Deterministic ground-truth values for union probabilities.

Three routes, picked by model structure:

* equicorrelated normal with non-negative correlation: one-factor
  representation reduces the union probability to a 1-D integral;
* general normal covariance (dimension up to eight): quasi-Monte Carlo
  over the sequentially conditioned Gaussian, one integral per cell of
  the disjoint first-occurrence partition so relative accuracy survives
  deep in the tail;
* common-factor Laplace: 1-D integral over the exponential factor.

All complements of the form ``1 - cdf**d`` go through ``log1p``/``expm1``
so the small union probabilities keep full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri
from scipy.stats import qmc

from .errors import ModelSpecError
from .special import SQRT2, integrate, norm_sf

__all__ = [
    "oracle_union_normal_equicorr",
    "oracle_union_laplace",
    "oracle_union_normal_qmc",
    "QmcEstimate",
    "oracle_for_model",
]

_NORMAL_CUTOFF = 37.0
_QMC_ENTROPY = 0x5EEDED  # fixed: the oracle is deterministic by design


def _union_tail_power(u: float, d: int) -> float:
    """``1 - Phi(u)**d`` without cancellation."""
    tail = norm_sf(u)
    if tail >= 1.0:
        return 1.0
    return -math.expm1(d * math.log1p(-tail))


def oracle_union_normal_equicorr(d: int, rho: float, gamma: float) -> float:
    """Union probability for the zero-mean unit-variance equicorrelated normal.

    Uses the one-factor representation
    ``X_i = sqrt(rho) Z + sqrt(1-rho) W_i`` and integrates the conditional
    union probability over the common factor.  Relative accuracy is about
    1e-10, far below what any table comparison needs.  Negative
    correlation has no one-factor form; use the QMC oracle there.
    """
    d = int(d)
    if d < 1:
        raise ModelSpecError("dimension must be at least 1")
    rho = float(rho)
    if rho < 0.0:
        raise ModelSpecError("the one-factor oracle needs rho >= 0; use the QMC oracle")
    if rho >= 1.0:
        raise ModelSpecError("rho must be below 1")
    if d == 1 or rho == 0.0:
        return _union_tail_power(gamma, d)
    sr = math.sqrt(rho)
    s1 = math.sqrt(1.0 - rho)

    def f(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * _union_tail_power(
            (gamma - sr * z) / s1, d
        )

    lo, hi = -_NORMAL_CUTOFF, _NORMAL_CUTOFF
    hints = [0.0, gamma * sr, gamma / sr if sr > 0 else 0.0]
    return integrate(f, lo, hi, points=hints, epsrel=1e-12)


def oracle_union_laplace(d: int, gamma: float) -> float:
    """Union probability for the common-factor Laplace model.

    Conditional on the exponential factor the coordinates are independent
    Gaussians, so the union probability is a 1-D integral with the same
    stable complement trick.  Only positive thresholds are meaningful
    here (the union probability exceeds one half otherwise).
    """
    d = int(d)
    if d < 1:
        raise ModelSpecError("dimension must be at least 1")
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ModelSpecError("the Laplace oracle requires gamma > 0")

    def f(r):
        return math.exp(-r) * _union_tail_power(gamma / math.sqrt(r), d)

    peak = gamma / SQRT2
    hi = max(60.0, 6.0 * peak)
    return integrate(f, 0.0, hi, points=[peak], epsrel=1e-11)


@dataclass(frozen=True)
class QmcEstimate:
    """Deterministic QMC value with an internal error estimate.

    The error field is the standard error across the fixed set of
    scrambles, a practical (not guaranteed) accuracy indicator.
    """

    value: float
    error: float

    def __float__(self) -> float:
        return self.value


def _phi_bar_np(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / SQRT2)


def _genz_cell(mu, sigma, gamma, tail_index, box, points, seed) -> float:
    """Mean Genz integrand for ``P(X_t > gamma, X_b <= gamma for b in box)``.

    The tail coordinate is conditioned first so the rare factor is exact
    and the remaining factors are order-one conditional probabilities;
    the per-point product then has bounded relative error.
    """
    order = [tail_index] + list(box)
    s = np.asarray(sigma, dtype=float)[np.ix_(order, order)]
    m = np.asarray(mu, dtype=float)[order]
    k = len(order)
    chol = np.linalg.cholesky(s)
    if k == 1:
        return float(_phi_bar_np((gamma - m[0]) / chol[0, 0]))
    scramble_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_QMC_ENTROPY, spawn_key=seed))
    )
    eng = qmc.Sobol(k - 1, scramble=True, seed=scramble_rng)
    u = eng.random(points)
    tail_prob = float(_phi_bar_np((gamma - m[0]) / chol[0, 0]))
    prob = np.full(points, tail_prob)
    z = np.empty((points, k - 1))
    z[:, 0] = -ndtri(np.clip(u[:, 0] * tail_prob, 1e-317, 1.0))
    for i in range(1, k):
        shift = z[:, :i] @ chol[i, :i]
        e_i = 1.0 - _phi_bar_np((gamma - m[i] - shift) / chol[i, i])
        prob = prob * e_i
        if i < k - 1:
            z[:, i] = ndtri(np.clip(u[:, i] * e_i, 1e-317, 1.0))
    return float(prob.mean())


def oracle_union_normal_qmc(model, gamma: float, points: int = 1 << 20, scrambles: int = 8) -> QmcEstimate:
    """Union probability for a general normal model by low-discrepancy integration.

    Splits the union into the disjoint cells "first exceedance at i" and
    integrates each with a scrambled low-discrepancy point set.  The
    result is deterministic for a given point count because the scramble
    seeds are fixed; the spread across scrambles provides the error
    estimate.  The point count is rounded up to a power of two to keep
    the point sets balanced.
    """
    mu = np.asarray(model.mu, dtype=float)
    sigma = np.asarray(model.sigma, dtype=float)
    d = mu.size
    if d > 8:
        raise ModelSpecError("the QMC oracle supports d <= 8")
    points = 1 << max(4, int(math.ceil(math.log2(max(2, int(points))))))
    if d == 1:
        return QmcEstimate(value=norm_sf((gamma - mu[0]) / math.sqrt(sigma[0, 0])), error=0.0)
    totals = []
    for s in range(int(scrambles)):
        total = 0.0
        for i in range(d):
            total += _genz_cell(mu, sigma, gamma, i, range(i), points, seed=(s, i))
        totals.append(total)
    totals = np.asarray(totals)
    err = float(totals.std(ddof=1) / math.sqrt(len(totals))) if len(totals) > 1 else 0.0
    return QmcEstimate(value=float(totals.mean()), error=err)


def oracle_for_model(model, gamma: float, qmc_points: int = 1 << 20):
    """Best available deterministic union probability for a model, or None.

    Equicorrelated normals with non-negative correlation use the
    one-factor integral, general normals (including autoregressive paths,
    which are Gaussian) the QMC route, the Laplace model its factor
    integral, and finite pattern models exhaustive summation.  A general
    normal beyond the QMC route's dimension raises its ModelSpecError.
    """
    from . import events as ev
    from .models import AR1Model, FinitePatternModel, LaplaceModel, NormalModel

    gamma = model.check_threshold(gamma)
    if isinstance(model, FinitePatternModel):
        return ev.brute_force_union(model)
    if isinstance(model, LaplaceModel):
        return oracle_union_laplace(model.d, gamma)
    if isinstance(model, AR1Model) and model.d <= 8:
        var = model.sigma_marginal**2
        lags = np.abs(np.subtract.outer(np.arange(model.d), np.arange(model.d)))
        model = NormalModel(var * model.phi**lags)
    if isinstance(model, NormalModel):
        rho = model.equicorrelation
        if rho is not None and rho >= 0.0:
            return oracle_union_normal_equicorr(model.d, rho, gamma)
        return oracle_union_normal_qmc(model, gamma, points=qmc_points).value
    return None
