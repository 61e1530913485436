"""Reference samplers and densities the sampler tests compare against.

They are not part of the package: no estimator draws from them.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def rejection_pair_exceedance_oracle(model, i: int, j: int, gamma: float, rng, raw: int):
    """Reference sampler for ``(X_i, X_j) | min > gamma`` by plain rejection.

    Draws ``raw`` unconditional vectors and keeps the qualifying pairs.
    Only feasible at moderate thresholds; used to validate the pair
    samplers empirically.
    """
    kept_i = []
    kept_j = []
    step = 1 << 16
    done = 0
    while done < raw:
        m = min(step, raw - done)
        x = model.sample(rng, m)
        ok = (x[:, i] > gamma) & (x[:, j] > gamma)
        kept_i.append(x[ok, i])
        kept_j.append(x[ok, j])
        done += m
    return np.concatenate(kept_i), np.concatenate(kept_j)


def laplace_sqrt_ig_pdf(y, x_i):
    """Density of the Gaussian coordinate given the observed product, at x_i.

    It is the density of the square root of an inverse Gaussian with mean
    ``sqrt(2) x_i`` and shape ``2 x_i**2``.
    """
    y = np.asarray(y, dtype=float)
    x = float(x_i)
    out = np.zeros_like(y)
    pos = y > 0
    yy = y[pos]
    out[pos] = (
        2.0 * x / (math.sqrt(math.pi) * yy * yy)
        * np.exp(-(x * x) / (yy * yy) - 0.5 * yy * yy + SQRT2 * x)
    )
    return out
