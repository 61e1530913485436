"""The elementwise kernels, the batched Gauss-Kronrod quadrature and the
bivariate normal orthant.

Kernel references come from mpmath at 40 digits.  Orthant references come
from mpmath at 30 digits, integrated in both orders: over the coordinate
with the larger threshold, and over the other one.  A grid point is used
only where the two orders agree to 1e-20.  mpmath's quadrature tolerance is
absolute, so each integrand is scaled to peak 1 first; unscaled, a value
near 1e-100 passes after one coarse rule.
"""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from rareunion import LaplaceModel, ModelSpecError, NormalModel, QuadratureError
from rareunion import special
from rareunion.special import bivariate_normal_orthant, erfc, erfcx, integrate, log_ndtr, ndtri


def _ndtri_mp(p, guess):
    """The standard normal quantile of ``p``: Newton from ``guess``, at 40 digits."""
    x, p = mp.mpf(guess), mp.mpf(p)
    for _ in range(4):
        x -= (mp.ncdf(x) - p) / mp.npdf(x)
    return x


def _with_neighbours(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


_GRID_RNG = np.random.default_rng(20)
# name: (kernel, grid, 40-digit reference of one double, bound).  Each grid
# covers its kernel's range on a lattice, at random points, and on both sides
# of every interval boundary.  The bound is the larger of 2e-15 and scipy
# 1.17's own largest relative error on the same grid.
KERNELS = {
    "erfc": (
        erfc,
        np.concatenate([
            np.linspace(-6.0, 26.5, 1301),
            _GRID_RNG.uniform(-6.0, 26.5, 300),
            _with_neighbours([-4.0, -0.46875, 0.46875, 4.0]),
        ]),
        lambda x: mp.erfc(x),
        5.7e-14,
    ),
    "erfcx": (
        erfcx,
        np.concatenate([
            np.linspace(-8.0, 8.0, 641),
            np.geomspace(8.0, 1000.0, 200),
            _GRID_RNG.uniform(-8.0, 30.0, 300),
            _with_neighbours([-4.0, -0.46875, 0.46875, 4.0]),
        ]),
        lambda x: mp.exp(x * x) * mp.erfc(x),
        3.6e-15,
    ),
    "log_ndtr": (
        log_ndtr,
        np.concatenate([
            np.linspace(-40.0, 8.0, 961),
            _GRID_RNG.uniform(-40.0, 8.0, 300),
            _with_neighbours([-5.65685424949238, -1.0, -0.6629126073623883, 0.6629126073623883]),
        ]),
        lambda x: mp.log(mp.ncdf(x)),
        8.6e-15,
    ),
    "ndtri": (
        ndtri,
        np.concatenate([
            10.0 ** -np.linspace(0.1, 317.0, 700),
            np.linspace(0.005, 0.995, 200),
            1.0 - 10.0 ** -np.linspace(1.0, 15.0, 57),
            _GRID_RNG.random(300),
            _with_neighbours([1e-317, math.exp(-25.0), 0.075, 0.925]),
        ]),
        None,  # the reference needs the value: _ndtri_mp
        2e-15,
    ),
}


def kernel_errors(name, values):
    """Relative error of ``values`` against mpmath at each point of a kernel's grid."""
    _, grid, reference, _ = KERNELS[name]
    errors = []
    with mp.workdps(40):
        for x, got in zip(grid, values):
            ref = _ndtri_mp(x, got) if reference is None else reference(mp.mpf(x))
            errors.append(float(abs(mp.mpf(got) - ref) / abs(ref)))
    return np.array(errors)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_mpmath(name):
    kernel, grid, _, bound = KERNELS[name]
    errors = kernel_errors(name, kernel(grid))
    assert errors.max() <= bound, grid[errors.argmax()]


def test_log_ndtr_takes_its_right_tail_exponent_from_x():
    # exp(-y^2) from the rounded y = x / sqrt 2 has a relative error growing
    # like x^2, 7.8e-15 at x = 7.3; exp(-x^2 / 2) keeps it under 6e-16
    grid = KERNELS["log_ndtr"][1]
    errors = kernel_errors("log_ndtr", log_ndtr(grid))
    assert errors.max() <= 2e-15, grid[errors.argmax()]


SPECIAL_VALUES = {
    "erfc": {np.inf: 0.0, -np.inf: 2.0, 0.0: 1.0, -0.0: 1.0, 27.5: 0.0, -40.0: 2.0},
    "erfcx": {np.inf: 0.0, -np.inf: np.inf, 0.0: 1.0, -30.0: np.inf, 1e300: 0.56418958354775628 / 1e300},
    "log_ndtr": {np.inf: 0.0, -np.inf: -np.inf, 0.0: math.log(0.5)},
    "ndtri": {0.0: -np.inf, 1.0: np.inf, 0.5: 0.0, -0.5: np.nan, 1.5: np.nan, -np.inf: np.nan, np.inf: np.nan},
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_special_values(name):
    kernel = KERNELS[name][0]
    x, want = (np.array(list(v), dtype=float) for v in zip(*SPECIAL_VALUES[name].items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warning escapes a kernel
        got = kernel(np.append(x, np.nan))
        assert np.array_equal(got, np.append(want, np.nan), equal_nan=True)
        assert [kernel(v) for v in x] == pytest.approx(list(want), rel=0, abs=0, nan_ok=True)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_value_does_not_depend_on_length_or_position(name):
    # the grid in order puts whole blocks in one interval (all-tail for ndtri);
    # shuffled, every block mixes them; the array spans several blocks
    kernel, grid, _, _ = KERNELS[name]
    shuffled = np.random.default_rng(5).permutation(grid)
    x = np.concatenate([np.resize(grid, special._BLOCK + 3), np.resize(shuffled, special._BLOCK + 4)])
    whole = [v.hex() for v in kernel(x)]
    for start, stop in ((0, 1), (1, 8), (3, 1004), (special._BLOCK - 5, special._BLOCK + 10), (7, x.size)):
        assert [v.hex() for v in kernel(x[start:stop])] == whole[start:stop]
    picks = range(0, x.size, 97)
    assert [float(kernel(x[i])).hex() for i in picks] == [whole[i] for i in picks]
    in_place = x.copy()
    kernel(in_place, out=in_place)
    strided = np.zeros((x.size, 3))
    kernel(x, out=strided[:, 1])
    assert [v.hex() for v in in_place] == whole == [v.hex() for v in strided[:, 1]]


def test_kernels_keep_shapes_and_scalars():
    x = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    for kernel in (erfc, erfcx, log_ndtr, ndtri):
        assert kernel(x).shape == (2, 3)
        assert isinstance(kernel(0.3), np.float64)
        assert np.array_equal(kernel(x.T), kernel(x).T)
        out = np.empty((2, 3))
        assert kernel(x, out=out) is out


def test_kernels_reject_an_out_they_cannot_fill():
    with pytest.raises(ValueError, match="shape"):
        erfc(np.zeros(3), out=np.empty(4))
    with pytest.raises(ValueError, match="C-contiguous"):
        erfc(np.zeros((3, 2)), out=np.empty((3, 2), order="F"))


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


def test_pair_layers_make_no_empty_kernel_call(monkeypatch):
    # the table command's normal grid has one correlation, 0.75, so none of
    # the closed-form selections (rho = 0 and rho = +-1) has an element
    sizes = []
    norm_sf = special.norm_sf

    def counted(x):
        sizes.append(np.size(x))
        return norm_sf(x)

    monkeypatch.setattr(special, "norm_sf", counted)
    m = NormalModel.equicorrelated(4, 0.75)
    for gamma in (2.0, 4.0, 6.0, 8.0):
        m.pair_survivals(gamma)
    assert sizes and sizes.count(0) == 0


def test_scalars_in_scalar_out():
    assert isinstance(bivariate_normal_orthant(2.0, 1.0, 0.5), float)
    assert bivariate_normal_orthant([2.0, 1.0], 1.0, [[0.5], [0.0]]).shape == (2, 2)
    assert bivariate_normal_orthant(2.0, 1.0, 0.0) == bivariate_normal_orthant(1.0, 2.0, 0.0)


@pytest.mark.parametrize("rho", [1.5, -1.01, [0.5, 2.0]])
def test_orthant_correlation_outside_unit_interval_is_a_model_spec_error(rho):
    # this once raised a bare ValueError
    with pytest.raises(ModelSpecError, match="correlation must lie in"):
        bivariate_normal_orthant(1.0, 1.0, rho)
