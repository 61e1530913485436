"""Gaussian tail helpers and a batched adaptive quadrature.

The survival function is computed through the complementary error
function.  Going through ``1 - cdf`` instead would cancel catastrophically
around six standard deviations, which is exactly the regime the tail
estimators live in.

``integrate`` is a numpy Gauss-Kronrod (G7/K15) rule, the one QUADPACK's
``qk15`` uses (Piessens et al. 1983), made adaptive over a whole batch of
problems at once: each round evaluates the integrand on every panel that
still fails its share of the tolerance, in one call.  The bivariate normal
orthant is the 1-D integral of Genz & Bretz (2009), ch. 2, over the
coordinate with the larger threshold.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, erfcx, log_ndtr, ndtri

from .errors import ModelSpecError, QuadratureError

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
SQRT2_OVER_PI = math.sqrt(2.0 / math.pi)

# beyond this the standard normal density underflows to zero anyway
_NORMAL_CUTOFF = 37.0


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT2PI
    return float(out) if out.ndim == 0 else out


def norm_sf(x):
    """P(Z > x) for standard normal Z, accurate deep into both tails."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / SQRT2)
    return float(out) if out.ndim == 0 else out


def norm_logsf(x):
    """log P(Z > x), finite for every finite x."""
    out = log_ndtr(-np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_hazard(x):
    """Hazard ``phi(x) / P(Z > x)``, through the scaled complementary error
    function so that deep in the right tail it is not zero over zero."""
    out = SQRT2_OVER_PI / erfcx(np.asarray(x, dtype=float) / SQRT2)
    return float(out) if out.ndim == 0 else out


# Gauss-Kronrod G7/K15 on [-1, 1]: the positive Kronrod nodes from the
# outside in, then the Kronrod and the Gauss weights from the outside to the
# centre node.  The Gauss nodes are every second Kronrod node.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.concatenate([np.negative(_XGK), [0.0], _XGK[::-1]])  # increasing
_KRONROD = np.array(_WGK + _WGK[-2::-1])
_GAUSS = np.array(_WG + _WG[-2::-1])

_PANEL_CAP = 400  # panels per problem
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _kronrod15(f, lo, hi, problem, batched):
    """Kronrod value and QUADPACK's ``qk15`` error estimate on each panel.

    Nodes run along the last axis, so each panel's sums are reduced over
    its own 15 values in the same order, whatever the number of panels.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = f(x, np.broadcast_to(problem[:, None], x.shape)) if batched else f(x)
    fx = np.broadcast_to(fx, x.shape)
    kronrod = (fx * _KRONROD).sum(axis=1)
    gauss = (fx[:, 1::2] * _GAUSS).sum(axis=1)
    resabs = (np.abs(fx) * _KRONROD).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _KRONROD).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(1.0, 200.0 * err / resasc)
    err = np.where((resasc != 0.0) & (err != 0.0), resasc * scale * np.sqrt(scale), err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def integrate(f, a, b, *, points=None, epsrel=1e-11):
    """Adaptive Gauss-Kronrod quadrature of ``f`` on ``[a, b]``.

    ``a`` and ``b`` are finite numbers with ``a <= b``, or arrays of m
    such limits, one problem each.  For one problem ``f(x)`` receives an
    array of nodes; for m problems ``f(x, k)`` also receives each node's
    problem index.  ``points`` are breakpoints used where they fall
    inside a problem's interval.

    A problem is done when its summed error estimate is at most
    ``epsrel`` times its value (no absolute tolerance, so tiny tail
    values keep their digits).  Until then, every panel whose error is
    above its share of that tolerance, in proportion to its width, is
    bisected, up to 400 panels.  Each decision reads only the problem's
    own panels, and its panels are summed left to right, so a problem's
    value does not depend on what else is in the batch.  Raises
    :class:`QuadratureError` when a problem stops at the panel cap with
    an error estimate above ``max(1e-8 |value|, 1e-300)``.
    """
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = np.atleast_1d(a).ravel(), np.atleast_1d(b).ravel()
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a <= b)):
        raise ModelSpecError("integrate needs finite limits with a <= b")
    m = a.size
    cuts = np.sort(np.asarray([] if points is None else points, dtype=float))
    edges = np.column_stack([a, np.clip(cuts, a[:, None], b[:, None]), b])
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    problem = np.repeat(np.arange(m), cuts.size + 1)
    nonempty = hi > lo
    lo, hi, problem = lo[nonempty], hi[nonempty], problem[nonempty]
    value, err = _kronrod15(f, lo, hi, problem, batched)
    while True:
        total = np.bincount(problem, value, m)
        error = np.bincount(problem, err, m)
        # the floor ends a problem whose value and error are both below the normal range
        tol = np.maximum(epsrel * np.abs(total), _TINY)
        split = (err > tol[problem] * (hi - lo) / (b - a)[problem]) & (error > tol)[problem]
        after = np.bincount(problem, minlength=m) + np.bincount(problem[split], minlength=m)
        capped = after > _PANEL_CAP
        split &= ~capped[problem]
        if not split.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.column_stack([lo[split], mid]).ravel()
        new_hi = np.column_stack([mid, hi[split]]).ravel()
        new_value, new_err = _kronrod15(f, new_lo, new_hi, np.repeat(problem[split], 2), batched)
        # each bisected panel is replaced in place by its two halves
        reps = 1 + split
        slots = (np.cumsum(reps) - reps)[split][:, None] + np.arange(2)
        lo, hi, value, err, problem = (np.repeat(v, reps) for v in (lo, hi, value, err, problem))
        for v, new in ((lo, new_lo), (hi, new_hi), (value, new_value), (err, new_err)):
            v[slots.ravel()] = new
    failed = np.flatnonzero(capped & (error > np.maximum(1e-8 * np.abs(total), 1e-300)))
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"quadrature did not converge on [{a[k]}, {b[k]}]: "
            f"value={total[k]:.6e}, error estimate={error[k]:.2e}"
        )
    return total if batched else float(total[0])


def bivariate_normal_orthant(t1, t2, rho):
    """P(Z1 > t1, Z2 > t2) for standard bivariate normal with correlation rho.

    Takes numbers or arrays that broadcast together, and integrates every
    element that has no closed form in one batch.  Each is a 1-D integral
    over the coordinate with the larger threshold, whose integrand is the
    conditional tail of the other coordinate.  Exactly symmetric in
    (t1, t2) by construction.
    """
    t1, t2, rho = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t1, t2, rho)))
    shape = rho.shape
    t1, t2, rho = (np.atleast_1d(v).ravel() for v in (t1, t2, rho))
    valid = (rho >= -1.0) & (rho <= 1.0)
    if not valid.all():
        raise ModelSpecError(f"correlation must lie in [-1, 1], got {rho[~valid][0]}")
    hi, lo = np.maximum(t1, t2), np.minimum(t1, t2)
    out = np.empty(rho.shape)
    indep = rho == 0.0
    out[indep] = norm_sf(t1[indep]) * norm_sf(t2[indep])
    same = ~indep & (rho >= 1.0 - 1e-12)
    out[same] = norm_sf(hi[same])
    # Z2 = -Z1: the event is {Z1 > hi, Z1 < -lo}
    opposite = ~indep & (rho <= -1.0 + 1e-12)
    out[opposite] = np.maximum(0.0, norm_sf(hi[opposite]) - norm_sf(-lo[opposite]))
    rest = ~(indep | same | opposite)
    lo, r = lo[rest], rho[rest]
    s = np.sqrt((1.0 - r) * (1.0 + r))

    def f(z, k):
        return norm_pdf(z) * norm_sf((lo[k] - r[k] * z) / s[k])

    out[rest] = integrate(f, hi[rest], np.maximum(hi[rest] + 2.0, _NORMAL_CUTOFF), epsrel=1e-11)
    return float(out[0]) if not shape else out.reshape(shape)
