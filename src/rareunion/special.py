"""Gaussian tail helpers and the 1-D quadrature wrapper.

The survival function is computed through the complementary error
function.  Going through ``1 - cdf`` instead would cancel catastrophically
around six standard deviations, which is exactly the regime the tail
estimators live in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, erfcx, log_ndtr

from .errors import QuadratureError

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


def integrate(f, a, b, *, points=None, epsrel=1e-11):
    """Adaptive quadrature of ``f`` on ``[a, b]`` with a convergence check.

    Thin wrapper around the adaptive Gauss-Kronrod integrator with a
    purely relative tolerance (no absolute one, so tiny tail values keep
    their digits) and at most 400 subintervals; infinite endpoints are
    transformed onto a finite interval internally.  Raises
    :class:`QuadratureError` when the reported error estimate is not small
    relative to the value.
    """
    kwargs = {}
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = sorted({float(p) for p in points if a < p < b})
        if pts:
            kwargs["points"] = pts
    value, abserr, info, *rest = quad(
        f, a, b, epsabs=0.0, epsrel=epsrel, limit=400, full_output=1, **kwargs
    )
    if rest:  # an explanation string is appended only on failure
        tol = max(abs(value) * 1e-8, 1e-300)
        if abserr > tol:
            raise QuadratureError(
                f"quadrature did not converge on [{a}, {b}]: "
                f"value={value:.6e}, error estimate={abserr:.2e}"
            )
    return value


def bivariate_normal_orthant(t1, t2, rho):
    """P(Z1 > t1, Z2 > t2) for standard bivariate normal with correlation rho.

    Evaluated as a 1-D integral over the coordinate with the larger
    threshold; the integrand is the conditional tail of the other
    coordinate.  Exactly symmetric in (t1, t2) by construction.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if rho == 0.0:
        return norm_sf(t1) * norm_sf(t2)
    hi, lo = (t1, t2) if t1 >= t2 else (t2, t1)
    if rho >= 1.0 - 1e-12:
        return norm_sf(hi)
    if rho <= -1.0 + 1e-12:
        # Z2 = -Z1: event is {Z1 > hi, Z1 < -lo}
        return max(0.0, norm_sf(hi) - norm_sf(-lo))
    s = math.sqrt((1.0 - rho) * (1.0 + rho))

    def f(z):
        return norm_pdf(z) * norm_sf((lo - rho * z) / s)

    upper = max(hi + 2.0, _NORMAL_CUTOFF)
    return integrate(f, hi, upper, epsrel=1e-11)
