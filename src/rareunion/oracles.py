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

from . import _qmc as qmc  # a module attribute, so the engine source can be swapped
from . import events as ev
from ._qmc import BITS as _SOBOL_BITS
from ._workers import ordered_map
from .errors import ModelSpecError, _dimension, _real
from .models import FinitePatternModel, LaplaceModel, NormalModel
from .special import _NORMAL_CUTOFF, SQRT2, erfc, integrate, ndtri, norm_pdf, norm_sf

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
_QMC_SCRAMBLES = 8  # independent scrambles; their spread is the error estimate

# The relative scramble spread at which ``oracle_for_model`` stops doubling:
# 500 times finer than the half-unit of the four digits a table prints.
QMC_REL_TARGET = 1e-6
# The default cap on QMC points, for the oracles and the command line.
QMC_POINT_CAP = 1 << 20


def _union_tail_power(u, d: int):
    """``1 - Phi(u)**d`` without cancellation, elementwise."""
    with np.errstate(divide="ignore"):  # a tail of one gives log1p(-1) = -inf, and the result 1
        return -np.expm1(d * np.log1p(-norm_sf(u)))


def oracle_union_normal_equicorr(d: int, rho: float, gamma: float) -> float:
    """Union probability for the zero-mean unit-variance equicorrelated normal.

    Uses the one-factor representation
    ``X_i = sqrt(rho) Z + sqrt(1-rho) W_i`` and integrates the conditional
    union probability over the common factor.  Relative accuracy is about
    1e-10, far below what any table comparison needs.  Negative
    correlation has no one-factor form; use the QMC oracle there.
    """
    d = _dimension(d)
    rho, gamma = _real(rho, "rho"), _real(gamma, "gamma")
    if rho < 0.0:
        raise ModelSpecError("the one-factor oracle needs rho >= 0; use the QMC oracle")
    if rho >= 1.0:
        raise ModelSpecError("rho must be below 1")
    if d == 1 or rho == 0.0:
        return float(_union_tail_power(gamma, d))
    sr = math.sqrt(rho)
    s1 = math.sqrt(1.0 - rho)

    def f(z):
        return norm_pdf(z) * _union_tail_power((gamma - sr * z) / s1, d)

    lo, hi = -_NORMAL_CUTOFF, _NORMAL_CUTOFF
    hints = [0.0, gamma * sr, gamma / sr]
    return integrate(f, lo, hi, points=hints, epsrel=1e-12)


def oracle_union_laplace(d: int, gamma: float) -> float:
    """Union probability for the common-factor Laplace model.

    Conditional on the exponential factor the coordinates are independent
    Gaussians, so the union probability is a 1-D integral with the same
    stable complement trick.  Only positive thresholds are meaningful
    here (the union probability exceeds one half otherwise).
    """
    d = _dimension(d)
    gamma = _real(gamma, "gamma")
    if gamma <= 0.0:
        raise ModelSpecError("the Laplace oracle requires gamma > 0")

    def f(r):
        return np.exp(-r) * _union_tail_power(gamma / np.sqrt(r), d)

    peak = gamma / SQRT2
    hi = max(60.0, 6.0 * peak)
    return integrate(f, 0.0, hi, points=[peak], epsrel=1e-11)


@dataclass(frozen=True)
class QmcEstimate:
    """Deterministic QMC value with an internal error estimate.

    The error field is the standard error across the eight fixed
    scrambles, a practical (not guaranteed) accuracy indicator.
    ``points`` is the per-scramble point count actually integrated
    (0 for the one-dimensional closed form).
    """

    value: float
    error: float
    points: int

    def __float__(self) -> float:
        return self.value


def _sobol_engine(dim: int, seed):
    scramble_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_QMC_ENTROPY, spawn_key=seed))
    )
    return qmc.Sobol(dim, seed=scramble_rng)


def _genz_cell(m, chol, gamma, engines, points) -> np.ndarray:
    """Mean Genz integrand for ``P(X_0 > gamma, X_b <= gamma for 0 < b < k)``,
    one mean per engine.

    ``m`` and ``chol`` are the mean and Cholesky factor of the cell's
    ``k`` coordinates with the tail coordinate first (``X_0`` above), so
    the rare factor is exact and the remaining
    factors are order-one conditional probabilities; the per-point
    product then has bounded relative error.  Each of ``engines`` draws
    the ``k - 1`` uniforms of its own ``points`` points.

    The kernel works in place: one ``(len(engines) * points, k - 1)``
    array receives the engines' Sobol draws one after the other, in
    blocks of ``_SOBOL_BLOCK`` rows, and its column ``i`` is overwritten
    by ``z_i`` once ``u_i`` is used.  Every elementwise step writes into
    one scratch array, in the same order of operations as the plain
    expression ``1 - 0.5 * erfc((gamma - m_i - z @ chol_i) / chol_ii / sqrt 2)``,
    so a point's value does not depend on the engines beside it.
    """
    k = len(m)
    tail_prob = norm_sf((gamma - m[0]) / chol[0, 0])
    if k == 1:
        return np.full(len(engines), tail_prob)
    n = len(engines) * points
    w = np.empty((n, k - 1))
    for j, engine in enumerate(engines):
        stop = (j + 1) * points
        for start in range(j * points, stop, _SOBOL_BLOCK):
            rows = min(_SOBOL_BLOCK, stop - start)
            w[start:start + rows] = engine.random(rows)
    prob = np.full(n, tail_prob)
    tmp = np.empty(n)
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
    return prob.reshape(len(engines), points).mean(axis=1)


def oracle_union_normal_qmc(
    model, gamma: float, points: int = QMC_POINT_CAP, rel_target: float = 0.0
) -> QmcEstimate:
    """Union probability for a general normal model by low-discrepancy integration.

    Splits the union into the disjoint cells "first exceedance at i" and
    integrates each with eight scrambled low-discrepancy point sets.  The
    result is deterministic for a given point count because the scramble
    seeds are fixed; the spread across the eight scrambles provides the
    error estimate.  The point count is rounded up to a power of two to keep
    the point sets balanced, and may be at most 2^30, the length of the
    30-bit Sobol sequence.

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

    Each (scramble, cell) integral has its own scrambled engine.  A unit of
    work is one cell for as many scrambles as fit in 2^16 points (all eight
    at the 4,096-point first level, one from 2^16 points up), so a short
    level makes a few long kernel calls.  The units of a level run on the
    package's worker pool (``_workers.ordered_map``), and each scramble's
    cells are summed in cell order afterwards, so ``value`` and ``error``
    are bit-identical for every thread count.  The engines (``qmc.Sobol``)
    are built once, up front, because each continues its sequence from
    level to level; an engine holds only its scrambled direction numbers,
    and builds each draw's points on the spot.  Each unit runs the
    in-place kernel ``_genz_cell``, which holds one ``(n, k - 1)`` array
    and two length-``n`` arrays for the ``n`` points of its pass: at most
    75 MB for d=8 at 2^20 points, so peak memory grows by that much per
    worker.
    """
    if not isinstance(model, NormalModel):
        raise ModelSpecError(f"the QMC oracle needs a NormalModel, got {type(model).__name__}")
    mu = np.asarray(model.mu, dtype=float)
    sigma = np.asarray(model.sigma, dtype=float)
    d = mu.size
    if d > 8:
        raise ModelSpecError("the QMC oracle supports d <= 8")
    points = _dimension(points, "points")
    if points > 1 << _SOBOL_BITS:
        raise ModelSpecError(f"points must be at most 2**{_SOBOL_BITS}, got {points}")
    cap = 1 << max(4, (points - 1).bit_length())
    gamma = _real(gamma, "gamma")
    target = _real(rel_target, "rel_target")
    if target < 0.0:
        raise ModelSpecError(f"rel_target must be non-negative, got {rel_target!r}")
    if d == 1:
        return QmcEstimate(value=norm_sf((gamma - mu[0]) / math.sqrt(sigma[0, 0])), error=0.0, points=0)
    cells = []
    for i in range(d):
        order = [i, *range(i)]
        cells.append((mu[order], np.linalg.cholesky(sigma[np.ix_(order, order)])))
    engines = [[_sobol_engine(i, (s, i)) if i else None for i in range(d)] for s in range(_QMC_SCRAMBLES)]

    def integrate_units(count):
        group = max(1, min(_QMC_SCRAMBLES, _SOBOL_BLOCK // count))
        jobs = [(s, i) for s in range(0, _QMC_SCRAMBLES, group) for i in range(d)]

        def integrate_unit(job):
            s, i = job
            return _genz_cell(*cells[i], gamma, [e[i] for e in engines[s:s + group]], count)

        means = np.empty((_QMC_SCRAMBLES, d))
        for (s, i), unit in zip(jobs, ordered_map(integrate_unit, jobs)):
            means[s:s + group, i] = unit
        return means

    n = min(cap, _QMC_FIRST_POINTS) if target else cap
    means = integrate_units(n)
    while True:
        totals = []
        for row in means:
            total = 0.0  # left to right in cell order: the order fixes the bits
            for value in row:
                total += value
            totals.append(total)
        totals = np.asarray(totals)
        value = float(totals.mean())
        err = float(totals.std(ddof=1) / math.sqrt(_QMC_SCRAMBLES))
        if n >= cap or value == 0.0 or err / value <= target:
            return QmcEstimate(value=value, error=err, points=n)
        means = 0.5 * (means + integrate_units(n))
        n *= 2


def oracle_for_model(model, gamma: float, qmc_points: int = QMC_POINT_CAP):
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
