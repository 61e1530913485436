"""The batched Gauss-Kronrod quadrature and the bivariate normal orthant.

References come from mpmath at 30 digits, integrated in both orders: over
the coordinate with the larger threshold, and over the other one.  A grid
point is used only where the two orders agree to 1e-20.  mpmath's
quadrature tolerance is absolute, so each integrand is scaled to peak 1
first; unscaled, a value near 1e-100 passes after one coarse rule.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import log_ndtr

from rareunion import LaplaceModel, ModelSpecError, NormalModel, QuadratureError
from rareunion.special import bivariate_normal_orthant, integrate


def _mp_conditional(t_out, t_in, rho):
    """``int_{t_out}^inf phi(z) P(Z > (t_in - rho z) / s) dz``, ``s = sqrt(1 - rho^2)``."""
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    z = t_out + np.linspace(0.0, 40.0, 40_001)
    peak = z[np.argmax(-0.5 * z * z + log_ndtr((rho * z - t_in) / s))]  # log-concave
    t_out, t_in, rho, peak = map(mp.mpf, (t_out, t_in, rho, peak))
    s = mp.sqrt((1 - rho) * (1 + rho))

    def f(x):
        return mp.npdf(x) * mp.ncdf((rho * x - t_in) / s)

    top = f(peak)
    cuts = sorted({t_out, peak, *(c for c in (peak - 1, peak + 1, peak + 4) if c > t_out)})
    return mp.quad(lambda x: f(x) / top, cuts + [mp.inf], method="gauss-legendre") * top


def mp_orthant(t1, t2, rho):
    """The mpmath value, or None where the two integration orders disagree."""
    with mp.workdps(30):
        a = _mp_conditional(max(t1, t2), min(t1, t2), rho)
        b = _mp_conditional(min(t1, t2), max(t1, t2), rho)
        return a if abs(a - b) <= mp.mpf("1e-20") * a else None


def test_matches_mpmath_on_a_grid():
    # distinct thresholds only: for t1 == t2 the two orders are one integral
    points = [
        (t1, t2, rho)
        for rho in (-0.95, -0.4, 0.5, 0.995)
        for t1, t2 in ((2.0, -1.0), (5.0, 2.0), (8.0, 0.5), (6.5, 4.0))
    ]
    refs = [mp_orthant(*p) for p in points]
    assert None not in refs  # both orders agree at every point
    got = bivariate_normal_orthant(*np.array(points).T)
    errors = [float(abs(mp.mpf(g) - r) / r) for g, r in zip(got, refs)]
    assert max(errors) <= 1e-12


def test_converges_where_the_value_is_tiny():
    # a per-panel relative tolerance alone never converges here (value 1.4e-233)
    point = (7.8736213, 3.71664554, -0.93592481)
    ref = mp_orthant(*point)
    assert ref is not None
    assert float(abs(mp.mpf(bivariate_normal_orthant(*point)) - ref) / ref) <= 1e-12


def test_non_convergent_integrand_raises():
    with pytest.raises(QuadratureError, match=r"did not converge on \[0.0, 1.0\]"):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)
    # in a batch, the problem that fails is named
    with pytest.raises(QuadratureError, match=r"did not converge on \[0.0, 2.0\]"):
        integrate(lambda x, k: np.where(k == 1, 1.0 / x, x), [0.0, 0.0], [1.0, 2.0])


def test_batch_problems_receive_their_index():
    got = integrate(lambda x, k: x**k, np.zeros(4), np.ones(4))
    assert got == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4], rel=1e-14)
    assert integrate(lambda x: np.ones_like(x), 0.0, 3.0, points=[1.0, 5.0, -1.0]) == 3.0
    assert integrate(lambda x, k: x, np.zeros(0), np.zeros(0)).shape == (0,)


def test_a_problem_does_not_depend_on_its_batch():
    rng = np.random.default_rng(7)
    t1, t2 = rng.uniform(-1.0, 8.0, (2, 40))
    rho = rng.uniform(-0.95, 0.995, 40)
    batch = bivariate_normal_orthant(t1, t2, rho)
    order = rng.permutation(40)
    assert np.array_equal(bivariate_normal_orthant(t1[order], t2[order], rho[order]), batch[order])
    single = [bivariate_normal_orthant(a, b, r) for a, b, r in zip(t1, t2, rho)]
    assert np.array_equal(single, batch)


def _toeplitz(d):
    return NormalModel(0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d))))


def _mixed_mean():
    a = np.random.default_rng(3).standard_normal((6, 6))
    return NormalModel(a @ a.T + 0.5 * np.eye(6), mu=np.linspace(-1.0, 1.5, 6))


@pytest.mark.parametrize(
    "build", [lambda: _toeplitz(8), _mixed_mean, lambda: LaplaceModel(4)],
    ids=["toeplitz8", "mixed-mean", "laplace"],
)
def test_pair_survival_equals_pair_survivals_bitwise(build):
    m = build()
    for gamma in (0.5, 2.0, 4.0, 6.5):
        pairs = itertools.combinations(range(m.d), 2)
        single = [m.pair_survival(i, j, gamma) for i, j in pairs]
        assert np.array_equal(single, m.pair_survivals(gamma))


def test_scalars_in_scalar_out():
    assert isinstance(bivariate_normal_orthant(2.0, 1.0, 0.5), float)
    assert bivariate_normal_orthant([2.0, 1.0], 1.0, [[0.5], [0.0]]).shape == (2, 2)
    assert bivariate_normal_orthant(2.0, 1.0, 0.0) == bivariate_normal_orthant(1.0, 2.0, 0.0)


@pytest.mark.parametrize("rho", [1.5, -1.01, [0.5, 2.0]])
def test_orthant_correlation_outside_unit_interval_is_a_model_spec_error(rho):
    # this once raised a bare ValueError
    with pytest.raises(ModelSpecError, match="correlation must lie in"):
        bivariate_normal_orthant(1.0, 1.0, rho)
