import functools
import math

import numpy as np
import pytest

from rareunion import (
    ArchimedeanModel,
    CapabilityError,
    DependenceModel,
    FinitePatternModel,
    LaplaceModel,
    ModelSpecError,
    NormalModel,
    bonferroni_bounds,
    build_model,
    brute_force_union,
    oracle_union_laplace,
    oracle_union_normal_equicorr,
)
from rareunion.special import integrate, norm_sf

SQRT2 = math.sqrt(2.0)


def rng_for(tag):
    import zlib

    return np.random.default_rng(zlib.crc32(tag.encode()))


class TestBuildModel:
    def test_equicorrelated_shorthand(self):
        m = build_model({"type": "normal", "d": 4, "rho": 0.75})
        assert isinstance(m, NormalModel)
        assert m.d == 4
        assert m.sigma[0, 1] == pytest.approx(0.75)
        assert m.sigma[0, 0] == pytest.approx(1.0)
        assert m.equicorrelation == 0.75

    def test_laplace(self):
        m = build_model({"type": "laplace", "d": 4})
        assert isinstance(m, LaplaceModel)
        assert m.d == 4

    def test_not_positive_definite(self):
        with pytest.raises(ModelSpecError):
            build_model({"type": "normal", "sigma": [[1.0, 2.0], [2.0, 1.0]]})

    def test_theta_out_of_range(self):
        with pytest.raises(ModelSpecError):
            build_model({"type": "archimedean", "family": "gumbel", "theta": 0.5, "d": 3})

    def test_equicorrelation_out_of_range(self):
        with pytest.raises(ModelSpecError):
            NormalModel.equicorrelated(4, -0.5)
        with pytest.raises(ModelSpecError):
            NormalModel.equicorrelated(4, 1.0)

    def test_unknown_type(self):
        with pytest.raises(ModelSpecError):
            build_model({"type": "student"})

    def test_ar1_and_finite(self):
        assert isinstance(build_model({"type": "ar1", "phi": 0.5, "sigma_eps": 1.0, "d": 5}), NormalModel)
        assert isinstance(build_model({"type": "finite", "pmf": [0.25] * 4}), FinitePatternModel)

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "ar1", "phi": "x", "sigma_eps": 1.0, "d": 5},
            {"type": "laplace", "d": None},
            {"type": "laplace", "d": 2.7},
            {"type": "normal", "d": 2.7, "rho": 0.5},
            {"type": "archimedean", "family": "clayton", "theta": 2.0, "d": 2.7},
            {"type": "ar1", "phi": 0.5, "sigma_eps": 1.0, "d": 2.7},
            {"type": "finite", "d": 2.7, "pmf": [0.25] * 4},
            {"type": "normal", "sigma": "x"},
            {"type": "normal", "sigma": [[1.0, 0.0], [0.0]]},
            {"type": "archimedean", "family": "frank", "theta": [], "d": 3},
            {"type": "laplace", "d": True},  # once a one-dimensional model
            # each of these strings was once read through float(), and True as 1.0
            {"type": "normal", "d": 4, "rho": "0.75"},
            {"type": "normal", "d": 4, "rho": True},
            {"type": "archimedean", "family": "clayton", "theta": "2", "d": 3},
            {"type": "archimedean", "family": "gumbel", "theta": True, "d": 3},
            {"type": "ar1", "phi": "0.5", "sigma_eps": 1.0, "d": 5},
            {"type": "ar1", "phi": 0.5, "sigma_eps": "1.0", "d": 5},
        ],
    )
    def test_bad_field_is_model_spec_error(self, spec):
        with pytest.raises(ModelSpecError):
            build_model(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "normal", "sigma": [[math.inf]]},
            {"type": "normal", "sigma": [[1.0, 0.5], [0.5, 1.0]], "mu": [0.0, math.nan]},
            {"type": "normal", "sigma": [[1e308, 0.0], [0.0, 1e308]]},
            {"type": "ar1", "phi": 0.5, "sigma_eps": math.inf, "d": 5},
            {"type": "ar1", "phi": 0.5, "sigma_eps": math.nan, "d": 5},
        ],
    )
    def test_non_finite_covariance_or_mean_rejected(self, spec):
        with pytest.raises(ModelSpecError, match="finite"):
            build_model(spec)

    def test_integral_float_dimension_accepted(self):
        assert build_model({"type": "laplace", "d": 3.0}).d == 3


@pytest.mark.parametrize(
    "read, bad",
    [
        (NormalModel.equicorrelated(2, 0.5).check_threshold, "2.5"),
        (NormalModel.equicorrelated(2, 0.5).check_threshold, True),
        (NormalModel.equicorrelated(2, 0.5).check_threshold, np.bool_(True)),
        (NormalModel.equicorrelated(2, 0.5).check_threshold, 10**400),
        (ArchimedeanModel("clayton", 2.0, 2).check_threshold, "0.5"),
        (ArchimedeanModel("clayton", 2.0, 2).check_threshold, False),
        (functools.partial(LaplaceModel(3).marginal_survival, 0), "2"),
        (functools.partial(LaplaceModel(3).pair_survival, 0, 1), True),
        (functools.partial(NormalModel.equicorrelated(2, 0.5).pair_survival, 0, 1), math.nan),
        (lambda g: NormalModel.equicorrelated(3, 0.5).pair_survivals(g), "2"),
        (functools.partial(NormalModel.equicorrelated(3, 0.5).marginal_survival, 0), math.nan),
        (functools.partial(NormalModel.equicorrelated(3, 0.5).marginal_survival, 0), "2"),
        (functools.partial(NormalModel.equicorrelated(3, 0.5).marginal_survival, 0), True),
    ],
    ids=[
        "str", "bool", "numpy-bool", "huge-int", "archimedean-str", "archimedean-bool",
        "laplace-marginal-str", "laplace-pair-bool", "normal-pair-nan", "normal-pairs-str",
        "normal-marginal-nan", "normal-marginal-str", "normal-marginal-bool",
    ],
)
def test_threshold_must_be_a_number(read, bad):
    # check_threshold("2.5") once returned 2.5 and check_threshold(True) 1.0;
    # the Laplace layers once read "2" as 2.0 and True as 1.0; the normal
    # pair probability once returned nan for a nan threshold, and the normal
    # marginal nan for nan, a numpy type error for "2" and 0.1587 for True
    with pytest.raises(ModelSpecError, match="finite number"):
        read(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.marginal_survival(1.5, 2.0),
        lambda m: m.marginal_survival(True, 2.0),
        lambda m: m.pair_survival(0, 1.9, 2.0),
        lambda m: m.conditional_given_exceedance(0.5, 2.0),
    ],
    ids=["marginal-fraction", "marginal-bool", "pair-fraction", "conditional-fraction"],
)
def test_event_index_must_be_an_integer(call):
    # these once used events 1, 1, (0, 1) and 0
    with pytest.raises(ModelSpecError, match="event index must be an integer"):
        call(NormalModel.equicorrelated(3, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: NormalModel.equicorrelated(3, 0.5).marginal_survival(5, 2.0),
        lambda: NormalModel.equicorrelated(3, 0.5).pair_survival(0, 3, 2.0),
        lambda: NormalModel.equicorrelated(3, 0.5).pair_survival(1, 1, 2.0),
        lambda: LaplaceModel(3).pair_survival(1, 1, 2.0),
    ],
    ids=["marginal-beyond-d", "pair-beyond-d", "normal-pair-repeated", "laplace-pair-repeated"],
)
def test_bad_event_index_is_a_model_spec_error(call):
    # an index >= d and a repeated pair once raised a bare ValueError
    with pytest.raises(ModelSpecError, match="out of range|must differ"):
        call()


def test_numpy_scalars_accepted():
    m = NormalModel.equicorrelated(3, np.float32(0.5))
    assert m.equicorrelation == 0.5
    assert m.check_threshold(np.float32(2.5)) == 2.5
    assert m.check_threshold(np.int64(3)) == 3.0
    assert ArchimedeanModel("clayton", np.int64(2), 3).check_threshold(np.float64(0.5)) == 0.5
    lags = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    ar1 = build_model({"type": "ar1", "phi": np.float64(0.5), "sigma_eps": 1, "d": 4})
    assert np.array_equal(ar1.sigma, 1.0 / 0.75 * 0.5**lags)


class TestNormalModel:
    def test_marginal_survival_deep_tail(self):
        m = NormalModel.equicorrelated(4, 0.75)
        assert m.marginal_survival(0, 4.0) == pytest.approx(3.16712418331e-05, rel=1e-9)
        # complement route would be hopeless out here
        assert m.marginal_survival(0, 8.0) == pytest.approx(6.22096057427e-16, rel=1e-9)

    def test_pair_survival_independence_factorizes(self):
        m = NormalModel.equicorrelated(3, 0.0)
        for g in (0.5, 2.0, 4.0):
            assert m.pair_survival(0, 1, g) == m.marginal_survival(0, g) ** 2

    def test_pair_survival_symmetry_exact(self):
        m = NormalModel(
            sigma=np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 1.5]]),
            mu=np.array([0.1, -0.2, 0.0]),
        )
        for g in (0.5, 1.5, 3.0):
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                assert m.pair_survival(i, j, g) == m.pair_survival(j, i, g)

    def test_pair_survival_reference_values(self):
        # frozen from the 1-D conditional-tail quadrature at tight tolerance
        m = NormalModel.equicorrelated(4, 0.75)
        assert m.pair_survival(0, 1, 2.0) == pytest.approx(8.499947e-03, rel=1e-6)
        assert m.pair_survival(0, 1, 4.0) == pytest.approx(3.527127e-06, rel=1e-6)

    def test_sampling_moments(self):
        m = NormalModel.equicorrelated(3, 0.0)
        x = m.sample(rng_for("norm-moments"), 100_000)
        corr = np.corrcoef(x.T)
        assert abs(corr[0, 1]) < 0.02
        assert abs(corr[0, 2]) < 0.02

    def test_scalar_sample_shape(self):
        m = NormalModel.equicorrelated(3, 0.5)
        assert m.sample(rng_for("shape"), 1).shape == (1, 3)
        assert m.sample(rng_for("shape"), 7).shape == (7, 3)

    def test_conditional_single_tail_mean(self):
        m = NormalModel.equicorrelated(1, 0.0)
        handle = m.conditional_given_exceedance(0, 4.0)
        x = handle.draw(rng_for("mills"), 100_000)
        target = math.exp(-8.0) / math.sqrt(2 * math.pi) / norm_sf(4.0)
        se = x[:, 0].std(ddof=1) / math.sqrt(x.shape[0])
        assert abs(x[:, 0].mean() - target) < 4 * se

    def test_conditional_vacuous_truncation(self):
        from scipy.stats import kstest

        m = NormalModel.equicorrelated(2, 0.5)
        handle = m.conditional_given_exceedance(0, -10.0)
        x = handle.draw(rng_for("vacuous"), 10_000)
        stat = kstest(x[:, 0], "norm").statistic
        assert stat < 1.358 / math.sqrt(10_000)  # 5% critical value

    def test_conditional_handles_reject_non_finite_threshold(self):
        # a non-finite threshold would send the truncated-normal rejection loop spinning
        m = NormalModel.equicorrelated(3, 0.5)
        for gamma in (math.nan, math.inf):
            with pytest.raises(ModelSpecError):
                m.conditional_given_exceedance(0, gamma)
            with pytest.raises(ModelSpecError):
                m.conditional_given_pair_exceedance(0, 1, gamma)

    def test_conditional_pair_hard_constraint(self):
        m = NormalModel.equicorrelated(4, 0.75)
        handle = m.conditional_given_pair_exceedance(1, 3, 4.0)
        x = handle.draw(rng_for("pair"), 500)
        assert (x[:, 1] > 4.0).all()
        assert (x[:, 3] > 4.0).all()

    def test_conditional_pair_independence_cross_corr(self):
        m = NormalModel.equicorrelated(2, 0.0)
        handle = m.conditional_given_pair_exceedance(0, 1, 1.0)
        x = handle.draw(rng_for("paircorr"), 20_000)
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr) < 0.03


def toeplitz(d, phi=0.5):
    return phi ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))


class TestLeadingLaw:
    """``leading(c)``: the law of the first c coordinates, which a draw whose
    value reads no later column takes in place of the whole model."""

    def test_normal_leading_blocks_are_the_parent_blocks(self):
        m = NormalModel(toeplitz(8), np.linspace(-1.0, 1.0, 8))
        for c in range(1, 8):
            law = m.leading(c)
            assert isinstance(law, NormalModel) and law.d == c
            assert law.mu.tobytes() == m.mu[:c].tobytes()
            assert law.sigma.tobytes() == np.ascontiguousarray(m.sigma[:c, :c]).tobytes()
            assert law.chol.tobytes() == np.ascontiguousarray(m.chol[:c, :c]).tobytes()
            assert law.correlation(0, c - 1) == m.correlation(0, c - 1)
        assert m.leading(8) is m

    @pytest.mark.parametrize("model", [LaplaceModel(4), ArchimedeanModel("clayton", 2.0, 4),
                                       FinitePatternModel(np.full(16, 1 / 16))],
                             ids=["laplace", "archimedean", "finite"])
    def test_other_models_draw_every_column(self, model):
        assert model.leading(2) is model

    @pytest.mark.parametrize("c", [0, 9, 2.5])
    def test_column_count_out_of_range(self, c):
        with pytest.raises(ModelSpecError):
            NormalModel(toeplitz(8)).leading(c)

    def test_leading_conditional_moments(self):
        # X_0..X_k given X_k > gamma, with gain g_j = S_jk / S_kk: mean
        # mu_j + g_j (E[X_k | X_k > gamma] - mu_k) and variance
        # S_jj - g_j S_jk + g_j^2 Var(X_k | X_k > gamma)
        m = NormalModel(toeplitz(16), np.linspace(-0.5, 0.5, 16))
        k, gamma, n = 9, 1.0, 1 << 18
        x = m.leading(k + 1).conditional_given_exceedance(k, gamma).draw(rng_for("leading"), n)
        assert x.shape == (n, k + 1) and (x[:, k] > gamma).all()
        sd = math.sqrt(m.sigma[k, k])
        t = (gamma - m.mu[k]) / sd
        hazard = math.exp(-t * t / 2) / math.sqrt(2 * math.pi) / norm_sf(t)
        gain = m.sigma[:k + 1, k] / m.sigma[k, k]
        mean = m.mu[:k + 1] + gain * sd * hazard
        tail_var = sd**2 * (1 + t * hazard - hazard**2)
        var = np.diag(m.sigma)[:k + 1] - gain * m.sigma[:k + 1, k] + gain**2 * tail_var
        centred = x - x.mean(axis=0)
        se_mean = x.std(axis=0, ddof=1) / math.sqrt(n)
        se_var = np.sqrt(((centred**2 - centred.var(axis=0)) ** 2).mean(axis=0) / n)
        assert (np.abs(x.mean(axis=0) - mean) < 4 * se_mean).all(), (x.mean(axis=0) - mean) / se_mean
        assert (np.abs(x.var(axis=0) - var) < 4 * se_var).all(), (x.var(axis=0) - var) / se_var


class TestLaplaceModel:
    def test_marginal_closed_form(self):
        m = LaplaceModel(4)
        for g in (0.5, 2.0, 6.0, 12.0):
            assert m.marginal_survival(0, g) == pytest.approx(
                0.5 * math.exp(-SQRT2 * g), rel=1e-14
            )
        assert m.marginal_survival(0, 0.0) == pytest.approx(0.5, abs=0)
        assert m.marginal_survival(0, -1.0) == pytest.approx(
            1.0 - 0.5 * math.exp(-SQRT2), rel=1e-14
        )

    def test_marginal_matches_factor_integral(self):
        m = LaplaceModel(2)
        for g in (1.0, 6.0):
            numeric = integrate(
                lambda r: np.exp(-r) * norm_sf(g / np.sqrt(r)), 0.0, 80.0, epsrel=1e-12
            )
            assert m.marginal_survival(0, g) == pytest.approx(numeric, rel=1e-8)

    def test_pair_survival_reference(self):
        m = LaplaceModel(4)
        assert m.pair_survival(0, 1, 6.0) == pytest.approx(6.166524e-07, rel=1e-6)

    def test_unit_variance(self):
        m = LaplaceModel(1)
        x = m.sample(rng_for("lapvar"), 200_000)
        assert x[:, 0].var(ddof=1) == pytest.approx(1.0, abs=0.02)

    def test_conditional_pair_unsupported(self):
        m = LaplaceModel(4)
        with pytest.raises(CapabilityError, match="cannot sample conditioned on event pairs"):
            m.conditional_given_pair_exceedance(0, 1, 6.0)

    def test_conditional_needs_positive_gamma(self):
        with pytest.raises(ModelSpecError):
            LaplaceModel(4).conditional_given_exceedance(0, -1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_conditional_needs_finite_gamma(self, gamma):
        with pytest.raises(ModelSpecError):
            LaplaceModel(4).conditional_given_exceedance(0, gamma)


@pytest.mark.parametrize("rho", [1.0 - 5e-13, -(1.0 - 5e-13)], ids=["plus", "minus"])
def test_near_degenerate_pair_takes_the_closed_form(rho):
    # within 1e-12 of +-1 the orthant is Z2 = +-Z1, with no quadrature
    m = NormalModel([[1.0, rho], [rho, 1.0]], mu=[0.0, 0.5])
    for gamma in (-1.0, 0.0, 0.4, 2.0):
        hi, lo = max(gamma, gamma - 0.5), min(gamma, gamma - 0.5)
        want = norm_sf(hi) if rho > 0 else max(0.0, norm_sf(hi) - norm_sf(-lo))
        assert m.pair_survival(0, 1, gamma) == want
        assert m.pair_survivals(gamma).tolist() == [want]


def test_bare_model_has_no_pair_layer():
    class Bare(DependenceModel):
        d = 2

        def sample(self, rng, size):
            return np.zeros((size, 2))

    with pytest.raises(CapabilityError, match="cannot compute pairwise probabilities"):
        Bare().pair_survival(0, 1, 1.0)


class TestArchimedeanModel:
    def test_uniform_threshold_marginal(self):
        m = ArchimedeanModel("clayton", 2.0, 3)
        assert m.marginal_survival(0, 0.9) == pytest.approx(0.1, rel=1e-14)

    def test_clayton_diagonal_example(self):
        m = ArchimedeanModel("clayton", 1.0, 2)
        assert m.diagonal(0.9) == pytest.approx(0.9 / 1.1, rel=1e-12)
        assert m.pair_survival(0, 1, 0.9) == pytest.approx(1 - 1.8 + 0.9 / 1.1, rel=1e-9)

    @pytest.mark.parametrize(
        "family,theta",
        # at theta = 2000 a Gamma(1/theta) frailty once underflowed to 0 in 70 %
        # of rows and the stable frailty was nan in 30 %, and Frank's
        # logarithmic frailty once raised from theta = 37 on
        [("clayton", 2.0), ("gumbel", 2.5), ("frank", 3.0), ("amh", 0.6),
         ("clayton", 2000.0), ("frank", 40.0), ("frank", 800.0), ("gumbel", 2000.0)],
    )
    def test_sampled_pair_frequency_matches_diagonal(self, family, theta):
        m = ArchimedeanModel(family, theta, 3)
        u = m.sample(rng_for(f"arch-{family}"), 200_000)
        # the lower level sees rows of a tiny frailty, whose coordinates lie below 0.71
        for level in (0.3, 0.85):
            p = m.pair_survival(0, 1, level)
            emp = ((u[:, 0] > level) & (u[:, 1] > level)).mean()
            se = math.sqrt(p * (1 - p) / u.shape[0])
            assert abs(emp - p) < 4 * se, level

    @pytest.mark.parametrize("theta", [0.5, 3.0, 40.0])
    def test_frank_frailty_is_logarithmic(self, theta):
        # P(V = k) = p^k / (k theta) with p = 1 - e^-theta
        v = np.exp(ArchimedeanModel("frank", theta, 2)._gen.log_frailty(rng_for(f"log-{theta}"), 400_000))
        p = -math.expm1(-theta)
        for k in (1, 2, 3, 5):
            want = p**k / (k * theta)
            se = math.sqrt(want * (1 - want) / v.size)
            assert abs((np.round(v) == k).mean() - want) < 4 * se, k

    def test_independence_members(self):
        for family, theta in [("clayton", 0.0), ("gumbel", 1.0), ("frank", 0.0), ("amh", 0.0)]:
            m = ArchimedeanModel(family, theta, 2)
            u = 0.7
            assert m.pair_survival(0, 1, u) == pytest.approx((1 - u) ** 2, rel=1e-10)

    @pytest.mark.parametrize("family,theta", [("clayton", 0.0), ("gumbel", 1.0), ("frank", 0.0), ("amh", 0.0)])
    def test_independence_frailty_is_one(self, family, theta):
        # a unit frailty draws nothing, so the sample is psi_inv of the
        # generator's own exponentials: exp(-E) for every independence member
        u = ArchimedeanModel(family, theta, 3).sample(rng_for(f"indep-{family}"), 1000)
        e = rng_for(f"indep-{family}").exponential(1.0, (1000, 3))
        np.testing.assert_allclose(u, np.exp(-e), rtol=1e-15, atol=0.0)

    def test_amh_draw_is_the_geometric_frailty_construction(self):
        # (1 - theta) / (exp(E / V) - theta), V geometric, from the same stream
        th = 0.6
        rng = rng_for("amh-draw")
        v = rng.geometric(1.0 - th, 1000).astype(float)
        want = (1.0 - th) / (np.exp(rng.exponential(1.0, (1000, 3)) / v[:, None]) - th)
        got = ArchimedeanModel("amh", th, 3).sample(rng_for("amh-draw"), 1000)
        assert list(map(float.hex, got.ravel())) == list(map(float.hex, want.ravel()))

    @pytest.mark.parametrize("family,theta", [("clayton", t) for t in (-1e-6, -1e-3, -0.1, -0.5, -0.9)]
                             + [("amh", t) for t in (-1.0, -0.5, 0.0, 0.5, 0.99)])
    def test_diagonal_matches_closed_form(self, family, theta):
        # psi_inv(2 psi(u)) once lost digits: 1.5e-10 relative at Clayton theta = -1e-6,
        # 3.9e-14 at AMH theta = 0.99
        import mpmath as mp

        m = ArchimedeanModel(family, theta, 2)
        th = mp.mpf(theta)
        closed = {
            "clayton": lambda u: max(2 * u**-th - 1, 0) ** (-1 / th),
            "amh": lambda u: u * u / (1 - th * (1 - u) ** 2),
        }[family]
        for u in np.concatenate([np.linspace(0.01, 0.99, 99), 1.0 - np.logspace(-1, -12, 23)]):
            got = m.diagonal(float(u))
            with mp.workdps(60):
                want = closed(mp.mpf(float(u)))
                if want == 0:  # below Clayton's generator zero, u <= 2^(1/theta)
                    assert got == 0.0, (u, got)
                else:
                    assert float(abs(got - want) / want) <= 5e-15, (u, got, float(want))

    def test_clayton_generator_zero(self):
        # at theta = -1, C(u, u) = max(2u - 1, 0): 0 at u = 1/2 and below
        m = ArchimedeanModel("clayton", -1.0, 2)
        assert m.pair_survival(0, 1, 0.5) == 0.0
        assert m.pair_survival(0, 1, 0.3) == 0.4

    def test_clayton_theta_zero_is_independence(self):
        # theta = 0 is the independence copula: C(u, u) = u^2, on both sides of
        # the u = 1/2 switch from the diagonal to the upper corner
        m = ArchimedeanModel("clayton", 0.0, 3)
        assert m.diagonal(0.3) == 0.09
        for u in (0.3, 0.9):
            assert m.pair_survival(0, 1, u) == pytest.approx((1.0 - u) ** 2, rel=1e-15, abs=0.0)

    def test_negative_theta_constructs_but_cannot_sample(self):
        m = ArchimedeanModel("clayton", -0.5, 2)
        assert m.pair_survival(0, 1, 0.9) >= 0.0
        with pytest.raises(CapabilityError):
            m.sample(rng_for("neg"), 10)

    def test_threshold_range_enforced(self):
        m = ArchimedeanModel("frank", 2.0, 2)
        with pytest.raises(ModelSpecError):
            m.marginal_survival(0, 1.5)


def _mp_pair_survival(family, theta, u):
    """``1 - 2u + C(u, u)`` at 50 digits, from the textbook generators."""
    import mpmath as mp

    mp.mp.dps = 50 + int(abs(theta) / 2)  # Frank's e^-theta terms need theta / ln 10 digits
    u, th = mp.mpf(u), mp.mpf(theta)
    psi, psi_inv = {
        "clayton": (lambda t: (t**-th - 1) / th, lambda s: max(1 + th * s, 0) ** (-1 / th)),
        "gumbel": (lambda t: (-mp.log(t)) ** th, lambda s: mp.exp(-(s ** (1 / th)))),
        "frank": (
            lambda t: -mp.log(mp.expm1(-th * t) / mp.expm1(-th)),
            lambda s: -mp.log1p(mp.exp(-s) * mp.expm1(-th)) / th,
        ),
        "amh": (lambda t: mp.log((1 - th * (1 - t)) / t), lambda s: (1 - th) / (mp.exp(s) - th)),
    }[family]
    return 1 - 2 * u + psi_inv(2 * psi(u))


_ARCH_TAIL_CASES = [
    ("clayton", 2.0), ("clayton", -0.5), ("gumbel", 2.5), ("frank", 3.0), ("frank", -3.0),
    ("frank", -30.0), ("amh", 0.5), ("amh", -0.7), ("amh", -1.0),
]


class TestArchimedeanPairTail:
    """``1 - 2u + C(u, u)`` cancels as u tends to 1; from u = 1/2 on the layer
    is each family's corner, written in v = 1 - u itself."""

    @pytest.mark.parametrize("family,theta", _ARCH_TAIL_CASES)
    def test_deep_tail_matches_mpmath(self, family, theta):
        m = ArchimedeanModel(family, theta, 2)
        for k in range(1, 11):
            v = 10.0**-k
            got = m.pair_survival(0, 1, 1.0 - v)
            want = _mp_pair_survival(family, theta, 1.0 - v)
            # once negative (Frank, AMH at 1 - u = 1e-8) or 0 (Clayton at 1e-10)
            assert got > 0.0, (k, got)
            assert float(abs(got - want) / want) * v <= 1e-14, (k, got, float(want))

    @pytest.mark.parametrize("family,theta", _ARCH_TAIL_CASES)
    def test_body_matches_mpmath(self, family, theta):
        m = ArchimedeanModel(family, theta, 2)
        for u in (0.1, 0.3, 0.5, 0.7, 0.9):
            want = _mp_pair_survival(family, theta, u)
            assert float(abs(m.pair_survival(0, 1, u) - want) / want) <= 1e-14, u

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0, 20.0, 200.0, -0.5, -0.1, -1e-3, -0.9, -0.99, -0.999])
    def test_clayton_corner_keeps_every_digit(self, theta):
        # 2v + expm1(log C(u, u)) once cancelled like 1/v: 1e-6 relative at theta = 2, 1 - u = 1e-10,
        # and for theta < 0 up to 1.1e-4 at theta = -0.99
        m = ArchimedeanModel("clayton", theta, 2)
        for v in (c * 10.0**-k for k in range(1, 11) for c in (1.0, 3.0)):
            got, want = m.pair_survival(0, 1, 1.0 - v), _mp_pair_survival("clayton", theta, 1.0 - v)
            assert math.isfinite(got) and 0.0 < got <= v, (v, got)
            assert float(abs(got - want) / want) <= 2e-15, (v, got, float(want))

    @pytest.mark.parametrize("theta", [-0.999, -0.99, -0.9])
    def test_clayton_corner_near_theta_minus_one_keeps_every_digit(self, theta):
        # where a = u^-theta - 1 < -1/4 (u up to (3/4)^(1/|theta|)) the corner was
        # 2v + expm1(-log1p(2a) / theta), which loses the factor 1 / (1 + theta):
        # 5.3e-13 relative at theta = -0.999, u = 0.62
        m = ArchimedeanModel("clayton", theta, 2)
        for u in np.linspace(0.5, 0.99, 50):
            got, want = m.pair_survival(0, 1, float(u)), _mp_pair_survival("clayton", theta, float(u))
            assert float(abs(got - want) / want) <= 2e-15, (u, got, float(want))

    def test_large_theta_corner_does_not_overflow(self):
        # u^-theta overflows once theta |log u| passes 709; the layer once read 1 - 2u < 0 there
        m = ArchimedeanModel("clayton", 2000.0, 2)
        for u in (0.5, 0.6, 0.9, 1.0 - 1e-6):
            want = _mp_pair_survival("clayton", 2000.0, u)
            assert float(abs(m.pair_survival(0, 1, u) - want) / want) <= 1e-14, u

    @pytest.mark.parametrize("family,theta", [("clayton", 200.0), ("clayton", 2000.0), ("gumbel", 2000.0),
                                              ("frank", 37.0), ("frank", 100.0), ("frank", 800.0),
                                              ("frank", 5000.0)])
    def test_large_theta_layers_match_mpmath(self, family, theta):
        # below u = 1/2, Clayton's u^-theta and Gumbel's (-log u)^theta once overflowed
        # (Clayton theta = 2000 read 0.4 at u = 0.3, not 0.7) and Frank's psi once
        # rounded to 0 from theta = 37 (inf); above it expm1(theta) overflowed from 710 (nan)
        m = ArchimedeanModel(family, theta, 2)
        for u in (0.1, 0.3, 0.45, 0.49, 0.5, 0.6, 0.7, 0.9, 1 - 1e-4, 1 - 1e-7, 1 - 1e-10):
            got, want = m.pair_survival(0, 1, u), _mp_pair_survival(family, theta, u)
            assert math.isfinite(got) and 0.0 < got <= 1.0, (u, got)
            assert float(abs(got - want) / want) * min(1.0, 10 * (1 - u)) <= 1e-14, (u, got, float(want))
            diagonal = m.diagonal(u)
            assert math.isfinite(diagonal) and 0.0 < diagonal <= u, (u, diagonal)
            assert float(abs(diagonal - (want - 1 + 2 * u)) / u) <= 1e-14, (u, diagonal)

    def test_bonferroni_order_deep_in_the_tail(self):
        # the second bound once exceeded the first: 4.00000022e-08 > 4.00000002e-08
        bounds = bonferroni_bounds(ArchimedeanModel("frank", 3.0, 4), 1.0 - 1e-8)
        assert 0.0 < bounds.second <= bounds.upper


def ar1_model(phi, sigma_eps, d):
    return build_model({"type": "ar1", "phi": phi, "sigma_eps": sigma_eps, "d": d})


class TestAR1Model:
    def test_stationary_moments(self):
        m = ar1_model(phi=0.5, sigma_eps=math.sqrt(0.75), d=6)
        assert m.sigma[0, 0] == pytest.approx(1.0, rel=1e-12)
        x = m.sample(rng_for("ar1"), 100_000)
        assert x.var(axis=0, ddof=1) == pytest.approx(np.ones(6), abs=0.03)
        lag1 = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert lag1 == pytest.approx(0.5, abs=0.02)

    def test_pair_survival_matches_explicit_covariance(self):
        phi, se, d = 0.6, 0.8, 4
        m = ar1_model(phi, se, d)
        var = se**2 / (1 - phi**2)
        cov = var * phi ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        n = NormalModel(cov)
        for g in (0.5, 1.5):
            for i, j in [(0, 1), (0, 3), (1, 2)]:
                assert m.pair_survival(i, j, g) == pytest.approx(
                    n.pair_survival(i, j, g), rel=1e-9
                )

    def test_is_the_toeplitz_normal(self):
        phi, se, d = -0.6, 0.8, 4
        m = ar1_model(phi, se, d)
        lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        assert isinstance(m, NormalModel)
        assert np.array_equal(m.sigma, se**2 / (1 - phi**2) * phi**lags)
        assert np.array_equal(m.mu, np.zeros(d))
        assert m.conditional_given_pair_exceedance(0, 2, 1.0).draw(rng_for("ar1pair"), 3).shape == (3, d)
        assert m.d == d

    def test_invalid_parameters(self):
        with pytest.raises(ModelSpecError):
            ar1_model(1.0, 1.0, 4)
        with pytest.raises(ModelSpecError):
            ar1_model(0.5, 0.0, 4)


class TestFinitePatternModel:
    def test_probabilities_and_conditionals(self):
        pmf = np.array([0.1, 0.2, 0.3, 0.4])
        m = FinitePatternModel(pmf)
        assert m.marginal_survival(0) == pytest.approx(0.7)
        assert m.marginal_survival(1) == pytest.approx(0.6)
        assert m.pair_survival(0, 1) == pytest.approx(0.4)
        handle = m.conditional_given_exceedance(0)
        x = handle.draw(rng_for("finite"), 50_000)
        assert (x[:, 0] > 0.5).all()
        emp = (x[:, 1] > 0.5).mean()
        assert emp == pytest.approx(0.4 / 0.7, abs=0.01)

    def test_json_round_trip(self):
        pmf = [0.05, 0.15, 0.25, 0.55]
        m = FinitePatternModel(pmf)
        again = build_model(m.to_json())
        assert isinstance(again, FinitePatternModel)
        assert np.array_equal(again.pmf, m.pmf)
        assert again.d == 2

    def test_normalization_tolerance(self):
        with pytest.raises(ModelSpecError):
            FinitePatternModel([0.5, 0.5 + 1e-9])
        FinitePatternModel([0.5, 0.5 + 1e-14])  # inside tolerance

    def test_conditioning_on_a_null_event_is_a_spec_error(self):
        # once a bare ValueError
        with pytest.raises(ModelSpecError, match="probability zero"):
            FinitePatternModel([1.0, 0.0, 0.0, 0.0]).conditional_given_exceedance(0)

    def test_gamma_ignored(self):
        m = FinitePatternModel([0.25] * 4)
        assert m.marginal_survival(0, gamma=123.0) == pytest.approx(0.5)


MODEL_ZOO = [
    (NormalModel.equicorrelated(4, 0.75), 1.0),
    (NormalModel.equicorrelated(3, -0.2), 0.8),
    (LaplaceModel(4), 1.0),
    (ArchimedeanModel("clayton", 2.0, 3), 0.8),
    (ArchimedeanModel("gumbel", 2.0, 3), 0.8),
    pytest.param(ar1_model(0.5, math.sqrt(0.75), 5), 1.0, id="AR1Model-1.0"),
    (
        FinitePatternModel(np.random.default_rng(7).dirichlet(np.ones(16))),
        0.0,
    ),
]


@pytest.mark.parametrize("model,gamma", MODEL_ZOO, ids=lambda p: type(p).__name__ if hasattr(p, "d") else str(p))
def test_empirical_exceedance_frequency(model, gamma):
    n = 100_000
    x = model.sample(rng_for(f"emp-{type(model).__name__}"), n)
    patterns = model.exceedance_patterns(x, gamma)
    p = model.marginal_survival(0, gamma)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(patterns[:, 0].mean() - p) < 4 * se


class TestOrderingInvariants:
    def test_boole_frechet_and_bonferroni_normal(self):
        m = NormalModel.equicorrelated(4, 0.75)
        for g in (1.0, 2.0, 3.0, 4.0):
            alpha = oracle_union_normal_equicorr(4, 0.75, g)
            margs = [m.marginal_survival(i, g) for i in range(4)]
            assert max(margs) <= alpha <= sum(margs)
            bounds = bonferroni_bounds(m, g)
            assert bounds.second <= alpha <= bounds.upper

    def test_boole_frechet_and_bonferroni_laplace(self):
        m = LaplaceModel(4)
        for g in (4.0, 6.0, 8.0):
            alpha = oracle_union_laplace(4, g)
            margs = [m.marginal_survival(i, g) for i in range(4)]
            assert max(margs) <= alpha <= sum(margs)
            bounds = bonferroni_bounds(m, g)
            assert bounds.second <= alpha <= bounds.upper

    def test_boole_frechet_finite(self):
        pmf = np.random.default_rng(11).dirichlet(np.ones(8))
        m = FinitePatternModel(pmf)
        alpha = brute_force_union(m)
        margs = [m.marginal_survival(i) for i in range(3)]
        assert max(margs) - 1e-15 <= alpha <= sum(margs) + 1e-15
        bounds = bonferroni_bounds(m, 0.0)
        assert bounds.second - 1e-15 <= alpha <= bounds.upper + 1e-15
