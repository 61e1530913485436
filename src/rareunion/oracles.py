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

from . import events as ev
from ._workers import ordered_map
from .errors import ModelSpecError
from .models import FinitePatternModel, LaplaceModel, NormalModel, _dimension
from .special import _NORMAL_CUTOFF, SQRT2, integrate, norm_sf

__all__ = [
    "oracle_union_normal_equicorr",
    "oracle_union_laplace",
    "oracle_union_normal_qmc",
    "QmcEstimate",
    "oracle_for_model",
]

_QMC_ENTROPY = 0x5EEDED  # fixed: the oracle is deterministic by design
_SOBOL_BLOCK = 1 << 16  # rows per Sobol draw, so no whole-array copy is made
_QMC_FIRST_POINTS = 1 << 12  # first level of the doubling under a relative target

# The relative scramble spread at which ``oracle_for_model`` stops doubling:
# 500 times finer than the half-unit of the four digits a table prints.
QMC_REL_TARGET = 1e-6


class _LazyQmc:
    """``scipy.stats.qmc``, imported on first use: importing ``scipy.stats``
    would add most of a second to every ``import rareunion``."""

    def __getattr__(self, name):
        from scipy.stats import qmc as module

        return getattr(module, name)


qmc = _LazyQmc()  # a module attribute, so it can be swapped like the module it stands for


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
    ``points`` is the per-scramble point count actually integrated
    (0 for the one-dimensional closed form).
    """

    value: float
    error: float
    points: int

    def __float__(self) -> float:
        return self.value


def _phi_bar_np(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / SQRT2)


def _sobol_engine(dim: int, seed):
    scramble_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_QMC_ENTROPY, spawn_key=seed))
    )
    return qmc.Sobol(dim, scramble=True, seed=scramble_rng)


def _genz_cell(m, chol, gamma, engine, points) -> float:
    """Mean Genz integrand for ``P(X_0 > gamma, X_b <= gamma for 0 < b < k)``.

    ``m`` and ``chol`` are the mean and Cholesky factor of the cell's
    ``k`` coordinates with the tail coordinate first (``X_0`` above), so
    the rare factor is exact and the remaining
    factors are order-one conditional probabilities; the per-point
    product then has bounded relative error.  ``engine`` draws the
    ``k - 1`` uniforms of each point.

    The kernel works in place: one ``(points, k - 1)`` array receives the
    Sobol draws in blocks of ``_SOBOL_BLOCK`` rows, and its column ``i``
    is overwritten by ``z_i`` once ``u_i`` is used.  Every elementwise
    step writes into one length-``points`` scratch array, in the same
    order of operations as the plain expression
    ``1 - 0.5 * erfc((gamma - m_i - z @ chol_i) / chol_ii / sqrt 2)``.
    """
    k = len(m)
    tail_prob = float(_phi_bar_np((gamma - m[0]) / chol[0, 0]))
    if k == 1:
        return tail_prob
    w = np.empty((points, k - 1))
    for start in range(0, points, _SOBOL_BLOCK):
        w[start:start + _SOBOL_BLOCK] = engine.random(min(_SOBOL_BLOCK, points - start))
    prob = np.full(points, tail_prob)
    tmp = np.empty(points)
    np.multiply(w[:, 0], tail_prob, out=tmp)
    np.clip(tmp, 1e-317, 1.0, out=tmp)
    ndtri(tmp, out=tmp)
    np.negative(tmp, out=w[:, 0])
    for i in range(1, k):
        np.matmul(w[:, :i], chol[i, :i], out=tmp)
        np.subtract(gamma - m[i], tmp, out=tmp)
        np.divide(tmp, chol[i, i], out=tmp)
        np.divide(tmp, SQRT2, out=tmp)
        erfc(tmp, out=tmp)
        np.multiply(0.5, tmp, out=tmp)
        np.subtract(1.0, tmp, out=tmp)  # e_i, the conditional probability
        np.multiply(prob, tmp, out=prob)
        if i < k - 1:
            np.multiply(w[:, i], tmp, out=tmp)
            np.clip(tmp, 1e-317, 1.0, out=tmp)
            ndtri(tmp, out=w[:, i])
    return float(prob.mean())


def oracle_union_normal_qmc(
    model, gamma: float, points: int = 1 << 20, scrambles: int = 8, rel_target: float = 0.0
) -> QmcEstimate:
    """Union probability for a general normal model by low-discrepancy integration.

    Splits the union into the disjoint cells "first exceedance at i" and
    integrates each with a scrambled low-discrepancy point set.  The
    result is deterministic for a given point count because the scramble
    seeds are fixed; the spread across scrambles provides the error
    estimate.  The point count is rounded up to a power of two to keep
    the point sets balanced.

    ``rel_target == 0`` integrates ``points`` per scramble in one pass.
    ``rel_target > 0`` makes ``points`` a cap: the count starts at
    ``min(points, 2**12)`` and doubles until ``error / value`` is at most
    ``rel_target``, the value is 0, or the cap is reached.  A doubling
    integrates only the new half: each unit's engine continues its Sobol
    sequence, and the unit's mean becomes the average of the two halves'
    means, exact because the halves are equal powers of two.  The
    scrambled-net spread has covered the actual error at every level from
    2^12 up (Owen 1997; Genz & Bretz 2009, ch. 4), which is what makes it a
    sound stopping rule.  ``QmcEstimate.points`` reports the count used.

    Each (scramble, cell) integral is an independent unit with its own
    scrambled engine.  The units of a level run on the package's worker
    pool (``_workers.ordered_map``), and each scramble's cells are summed
    in cell order afterwards, so ``value`` and ``error`` are bit-identical
    for every thread count.  The engines are built in the calling thread,
    because scipy fills its Sobol direction-number cache lazily, on the
    first engine, without a lock.  Each unit runs the in-place kernel
    ``_genz_cell``, which holds one ``(n, k - 1)`` array and two
    length-``n`` arrays for the ``n`` points of its pass: at most 75 MB
    for d=8 at 2^20 points, so peak memory grows by that much per worker.
    """
    mu = np.asarray(model.mu, dtype=float)
    sigma = np.asarray(model.sigma, dtype=float)
    d = mu.size
    if d > 8:
        raise ModelSpecError("the QMC oracle supports d <= 8")
    cap = 1 << max(4, (_dimension(points, "points") - 1).bit_length())
    scrambles = _dimension(scrambles, "scrambles")
    try:
        target = float(rel_target)
    except (TypeError, ValueError):
        target = math.nan
    if not 0.0 <= target < math.inf:
        raise ModelSpecError(f"rel_target must be finite and non-negative, got {rel_target!r}")
    if d == 1:
        return QmcEstimate(value=norm_sf((gamma - mu[0]) / math.sqrt(sigma[0, 0])), error=0.0, points=0)
    cells = []
    for i in range(d):
        order = [i, *range(i)]
        cells.append((mu[order], np.linalg.cholesky(sigma[np.ix_(order, order)])))
    units = [(s, i) for s in range(scrambles) for i in range(d)]
    engines = [_sobol_engine(i, (s, i)) if i else None for s, i in units]

    def integrate_units(count):
        def integrate_unit(job):
            (_, i), engine = job
            return _genz_cell(*cells[i], gamma, engine, count)

        return list(ordered_map(integrate_unit, zip(units, engines)))

    n = min(cap, _QMC_FIRST_POINTS) if target else cap
    means = integrate_units(n)
    while True:
        totals = []
        for s in range(scrambles):
            total = 0.0  # left to right in cell order: the order fixes the bits
            for value in means[s * d:(s + 1) * d]:
                total += value
            totals.append(total)
        totals = np.asarray(totals)
        value = float(totals.mean())
        err = float(totals.std(ddof=1) / math.sqrt(len(totals))) if len(totals) > 1 else 0.0
        if n >= cap or value == 0.0 or err / value <= target:
            return QmcEstimate(value=value, error=err, points=n)
        means = [0.5 * (old + new) for old, new in zip(means, integrate_units(n))]
        n *= 2


def oracle_for_model(model, gamma: float, qmc_points: int = 1 << 20):
    """Best available deterministic union probability for a model, or None.

    Equicorrelated normals with non-negative correlation use the
    one-factor integral, every other normal (AR(1) paths among them) the
    QMC route, the Laplace model its factor integral, and finite pattern
    models exhaustive summation.  The QMC route runs under the relative
    target ``QMC_REL_TARGET``, with ``qmc_points`` as its cap on the
    points per scramble.  A normal beyond the QMC route's dimension
    raises its ModelSpecError; a model with no route gives None.
    """
    gamma = model.check_threshold(gamma)
    qmc_points = _dimension(qmc_points, "qmc_points")
    if isinstance(model, FinitePatternModel):
        return ev.brute_force_union(model)
    if isinstance(model, LaplaceModel):
        return oracle_union_laplace(model.d, gamma)
    if isinstance(model, NormalModel):
        rho = model.equicorrelation
        if rho is not None and rho >= 0.0:
            return oracle_union_normal_equicorr(model.d, rho, gamma)
        return oracle_union_normal_qmc(model, gamma, points=qmc_points, rel_target=QMC_REL_TARGET).value
    return None
