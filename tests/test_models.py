import functools
import math

import numpy as np
import pytest

from rareunion import (
    ArchimedeanModel,
    CapabilityError,
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
        assert m.sample(rng_for("shape")).shape == (3,)
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
        [("clayton", 2.0), ("gumbel", 2.5), ("frank", 3.0), ("amh", 0.6)],
    )
    def test_sampled_pair_frequency_matches_diagonal(self, family, theta):
        m = ArchimedeanModel(family, theta, 3)
        u = m.sample(rng_for(f"arch-{family}"), 200_000)
        level = 0.85
        p = m.pair_survival(0, 1, level)
        emp = ((u[:, 0] > level) & (u[:, 1] > level)).mean()
        se = math.sqrt(p * (1 - p) / u.shape[0])
        assert abs(emp - p) < 4 * se

    def test_independence_members(self):
        for family, theta in [("clayton", 0.0), ("gumbel", 1.0), ("frank", 0.0), ("amh", 0.0)]:
            m = ArchimedeanModel(family, theta, 2)
            u = 0.7
            assert m.pair_survival(0, 1, u) == pytest.approx((1 - u) ** 2, rel=1e-10)

    def test_negative_theta_constructs_but_cannot_sample(self):
        m = ArchimedeanModel("clayton", -0.5, 2)
        assert m.pair_survival(0, 1, 0.9) >= 0.0
        with pytest.raises(CapabilityError):
            m.sample(rng_for("neg"), 10)

    def test_threshold_range_enforced(self):
        m = ArchimedeanModel("frank", 2.0, 2)
        with pytest.raises(ModelSpecError):
            m.marginal_survival(0, 1.5)


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
