import math

import numpy as np
import pytest

from rareunion import (
    ARCHIMEDEAN_TABLE,
    ArchimedeanModel,
    BRE,
    EllipticalInput,
    INEFFICIENT,
    KotzRadial,
    LE,
    LEDFORD_TAWN_TABLE,
    LaplaceModel,
    LedfordTawnParams,
    ModelSpecError,
    NORMAL_RADIAL,
    NormalModel,
    SlowlyVarying,
    UNKNOWN,
    berman_univariate_asymptotic,
    bivariate_type1_asymptotic_rate,
    build_model,
    classify_archimedean,
    classify_kotz3,
    classify_ledford_tawn,
    classify_model,
    classify_normal,
    empirical_efficiency_ratio,
    gaussian_copula_ledford_tawn,
    savage_condition,
)


def ar1_model(phi, sigma_eps, d):
    return build_model({"type": "ar1", "phi": phi, "sigma_eps": sigma_eps, "d": d})


class TestLedfordTawn:
    def test_half_with_bounded_factor_is_bre(self):
        v = classify_ledford_tawn(LedfordTawnParams(0.5, SlowlyVarying.constant(2.0)))
        assert v.level == BRE

    def test_gaussian_copula_positive_rho_inefficient(self):
        params = gaussian_copula_ledford_tawn(0.75)
        assert params.eta == pytest.approx(0.875)
        assert classify_ledford_tawn(params).level == INEFFICIENT

    def test_strictly_below_half_is_bre(self):
        v = classify_ledford_tawn(LedfordTawnParams(0.4, SlowlyVarying.custom("anything")))
        assert v.level == BRE

    def test_half_with_diverging_factor_is_le(self):
        params = gaussian_copula_ledford_tawn(0.0)
        # exponent 0: constant factor, hence BRE
        assert classify_ledford_tawn(params).level == BRE
        diverging = LedfordTawnParams(0.5, SlowlyVarying.log_power(0.3))
        assert classify_ledford_tawn(diverging).level == LE

    def test_catalogue_split(self):
        for row in LEDFORD_TAWN_TABLE:
            level = classify_ledford_tawn(LedfordTawnParams(row.eta, row.L)).level
            if row.eta == 0.5:
                assert level == BRE, row
            else:
                assert level == INEFFICIENT, row

    def test_eta_validation(self):
        with pytest.raises(ModelSpecError):
            LedfordTawnParams(0.0, SlowlyVarying.constant())


def _theta_samples(rule):
    """In-range samples: (efficient ones, non-efficient ones)."""
    lo, hi = rule.valid.lo, rule.valid.hi
    inside = []
    if math.isfinite(lo):
        inside.append(lo if rule.valid.lo_closed else lo + 0.25)
    else:
        inside.append(-2.0)
    if math.isfinite(hi):
        inside.append(hi if rule.valid.hi_closed else hi - 0.25 * (hi - lo if math.isfinite(lo) else 1.0))
    else:
        inside.append((inside[0] if inside else 0.0) + 3.0)
    if rule.valid.contains(1.0):
        inside.append(1.0)
    if rule.valid.contains(0.0):
        inside.append(0.0)
    inside = sorted(set(round(t, 6) for t in inside if rule.valid.contains(t)))
    good = [t for t in inside if rule.theta_efficient(t)]
    bad = [t for t in inside if not rule.theta_efficient(t)]
    return good, bad


class TestArchimedeanCatalogue:
    @pytest.mark.parametrize("rule", ARCHIMEDEAN_TABLE, ids=lambda r: f"family{r.number}")
    def test_catalogue_rows(self, rule):
        good, bad = _theta_samples(rule)
        if rule.efficient != "none":
            assert good, f"no efficient sample for row {rule.number}"
        for theta in good:
            assert classify_archimedean(rule.number, theta).level == BRE
        for theta in bad:
            assert classify_archimedean(rule.number, theta).level != BRE

    def test_named_families(self):
        assert classify_archimedean("clayton", 2.0).level == BRE
        assert classify_archimedean("gumbel-hougaard", 2.0).level == UNKNOWN
        assert classify_archimedean("gumbel-hougaard", 1.0).level == BRE
        assert classify_archimedean("frank", 0.0).level == UNKNOWN
        assert classify_archimedean("frank", -2.0).level == BRE

    def test_invalid_theta(self):
        with pytest.raises(ModelSpecError):
            classify_archimedean("clayton", -2.0)
        with pytest.raises(ModelSpecError):
            classify_archimedean("gumbel", 0.5)
        with pytest.raises(ModelSpecError):
            classify_archimedean(18, 1.0)
        with pytest.raises(ModelSpecError, match="theta"):
            classify_archimedean("clayton", "2")  # once read as 2.0

    def test_unknown_family(self):
        with pytest.raises(ModelSpecError):
            classify_archimedean("copula-nova", 1.0)
        with pytest.raises(ModelSpecError):
            classify_archimedean(23, 1.0)

    @pytest.mark.parametrize("family", [2.5, True, "2"])
    def test_family_number_is_a_count(self, family):
        # 2.5 once answered for family #2 and True for Clayton (#1)
        with pytest.raises(ModelSpecError, match="family"):
            classify_archimedean(family, 2.0)

    @pytest.mark.parametrize("family", ["clayton", "ali-mikhail-haq", "gumbel-hougaard", "frank"])
    def test_model_accepts_exactly_the_catalogue_range(self, family):
        valid = next(rule.valid for rule in ARCHIMEDEAN_TABLE if rule.name == family)
        ends = [end for end in (valid.lo, valid.hi) if math.isfinite(end)]
        for theta in [end + step for end in ends for step in (-1e-9, 0.0, 1e-9)] + [-1e300, 1e300]:
            try:
                accepted = ArchimedeanModel(family, theta, 2).theta == theta
            except ModelSpecError:
                accepted = False
            assert accepted == valid.contains(theta), theta

    @pytest.mark.parametrize("alias, theta", [("amh", 0.5), ("Gumbel", 2.0), ("ali_mikhail haq", 0.5)])
    def test_aliases_resolve_alike(self, alias, theta):
        model = ArchimedeanModel(alias, theta, 2)
        verdict = classify_archimedean(alias, theta)
        assert verdict.diagnostics["family_name"] == model.family
        assert verdict == classify_model(model)


class TestNormalClassification:
    def test_equicorrelated_cases(self):
        ineff = classify_normal(NormalModel.equicorrelated(4, 0.75))
        assert ineff.level == INEFFICIENT
        assert ineff.diagnostics["kappa"] ** 2 == pytest.approx(0.875, rel=1e-12)
        le = classify_normal(NormalModel.equicorrelated(4, 0.0))
        assert le.level == LE
        bre = classify_normal(NormalModel.equicorrelated(4, -0.25))
        assert bre.level == BRE

    def test_monotone_degradation_in_rho(self):
        ranks = {BRE: 0, LE: 1, INEFFICIENT: 2}
        levels = [
            ranks[classify_normal(NormalModel.equicorrelated(4, rho)).level]
            for rho in (-0.3, -0.1, 0.0, 0.2, 0.5, 0.9)
        ]
        assert levels == sorted(levels)
        assert levels[0] == 0 and levels[2] == 1 and levels[-1] == 2

    def test_riding_branch_when_correlation_dominates_scale_ratio(self):
        # scales 1 and 0.5: a = 0.5; rho = 0.9 >= a so kappa is the smaller scale
        sigma = np.array([[1.0, 0.9 * 0.5], [0.9 * 0.5, 0.25]])
        ell = EllipticalInput(np.zeros(2), sigma, NORMAL_RADIAL)
        p = ell.pair_params(0, 1)
        assert p.branch == "rho_ge_a"
        assert p.kappa_ij == pytest.approx(0.5)
        # sigma1^2 = 1 > 2 kappa^2 = 0.5: bounded relative error
        assert classify_normal(NormalModel(sigma)).level == BRE

    def test_kappa_continuous_at_branch_point(self):
        # as rho decreases through a = sigma_j / sigma_i the pair scale is continuous
        s_i, s_j = 1.0, 0.5
        a = s_j / s_i

        def kappa(rho):
            sigma = np.array([[s_i**2, rho * s_i * s_j], [rho * s_i * s_j, s_j**2]])
            return EllipticalInput(np.zeros(2), sigma, NORMAL_RADIAL).pair_params(0, 1).kappa_ij

        assert kappa(a) == pytest.approx(s_j, rel=1e-12)
        assert kappa(a - 1e-9) == pytest.approx(s_j, rel=1e-6)
        assert kappa(a + 1e-9) == pytest.approx(s_j, rel=1e-12)


class TestKotzRule:
    def test_boundary_cases(self):
        assert classify_kotz3(1, 1, 1, 1.0, 2.0, 1.0, 0.0, 0.0).level == LE
        assert classify_kotz3(1, 1, 1, 1.0, 3.0, 1.0, 0.0, 0.0).level == BRE
        assert classify_kotz3(1, 1, 1, 1.0, 1.5, 1.0, 0.0, 0.0).level == INEFFICIENT

    def test_boundary_mean_tiebreak_needs_delta_above_one(self):
        # equality of scales: location dominance upgrades only for delta > 1
        assert classify_kotz3(1, 0, 0.5, 2.0, math.sqrt(2.0), 1.0, 1.0, 0.0).level == BRE
        assert classify_kotz3(1, 0, 0.5, 1.0, 2.0, 1.0, 1.0, 0.0).level == LE

    def test_delta_two_matches_normal_rule(self):
        for rho in (-0.25, 0.0, 0.75):
            m = NormalModel.equicorrelated(4, rho)
            ell = EllipticalInput(m.mu, m.sigma, NORMAL_RADIAL)
            sigma1, mu1 = ell.dominant_marginal()
            kappa, mu = ell.extremal_pair_params()
            direct = classify_kotz3(1.0, 0.0, 0.5, 2.0, sigma1, kappa, mu1, mu)
            assert direct.level == classify_normal(m).level


class TestAr1Classification:
    """An AR(1) path is the Toeplitz normal, so it gets the Gaussian verdict.

    The extremal pair has correlation phi at lag one when phi > 0 and
    phi**2 at lag two when phi < 0; its residual tail index (1 + rho) / 2
    exceeds one half, so the first-order estimator is inefficient.  Only
    independence (rho = 0) and a single negatively correlated pair (d = 2)
    keep bounded relative error.
    """

    @pytest.mark.parametrize(
        "phi,d,level,rho_max",
        [
            pytest.param(0.5, 5, INEFFICIENT, 0.5, id="phi0.5-d5"),
            pytest.param(-0.5, 5, INEFFICIENT, 0.25, id="phi-0.5-d5"),
            pytest.param(0.0, 5, BRE, 0.0, id="phi0-d5"),
            pytest.param(-0.5, 2, BRE, -0.5, id="phi-0.5-d2"),
        ],
    )
    def test_gaussian_verdict_with_extremal_correlation(self, phi, d, level, rho_max):
        v = classify_model(ar1_model(phi, math.sqrt(1.0 - phi * phi), d))
        assert v.level == level
        assert v.diagnostics["rho_max"] == pytest.approx(rho_max, abs=1e-12)

    @pytest.mark.parametrize("phi,d", [(0.5, 5), (-0.5, 5), (0.0, 3), (-0.5, 2), (0.9, 8)])
    def test_same_verdict_as_the_toeplitz_normal(self, phi, d):
        lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        ar1 = classify_model(ar1_model(phi, math.sqrt(1.0 - phi * phi), d))
        normal = classify_model(NormalModel(phi**lags))
        assert (ar1.level, ar1.rules_fired) == (normal.level, normal.rules_fired)

    def test_range_validation(self):
        # a non-stationary coefficient has no path, so no verdict either
        with pytest.raises(ModelSpecError):
            classify_model(build_model({"type": "ar1", "phi": 1.0, "sigma_eps": 1.0, "d": 4}))


class TestSavage:
    def test_identity(self):
        ok, x = savage_condition(np.eye(2), np.ones(2))
        assert ok and np.allclose(x, np.ones(2))

    def test_failing_example(self):
        ok, x = savage_condition(np.array([[1.0, 2.0], [2.0, 5.0]]), np.ones(2))
        assert not ok
        assert np.allclose(x, [3.0, -1.0])

    def test_negative_covariance_example(self):
        ok, _ = savage_condition(np.array([[2.0, -0.5], [-0.5, 1.0]]), np.ones(2))
        assert ok

    def test_singular_rejected(self):
        with pytest.raises(ModelSpecError):
            savage_condition(np.ones((2, 2)), np.ones(2))


class TestBerman:
    def test_normal_radial_value(self):
        got = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 4.0)
        assert got == pytest.approx(math.exp(-8.0) / (4.0 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_approaches_gaussian_tail(self):
        from rareunion.special import norm_sf

        r4 = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 4.0) / norm_sf(4.0)
        r8 = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 8.0) / norm_sf(8.0)
        assert r4 == pytest.approx(1.057, abs=5e-3)
        assert abs(r8 - 1.0) < abs(r4 - 1.0)

    def test_scaling_invariance(self):
        a = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 2.0, 8.0)
        b = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 4.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_kotz_specialization_matches_normal(self):
        kotz = KotzRadial(K=1.0, N=0.0, r=0.5, delta=2.0)
        a = berman_univariate_asymptotic(kotz, 0.0, 1.0, 3.0)
        b = berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 3.0)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, -1.0)


class TestBivariateRate:
    def test_branch_selection(self):
        sigma = np.array([[1.0, 0.9 * 0.5], [0.9 * 0.5, 0.25]])
        ell = EllipticalInput(np.zeros(2), sigma, NORMAL_RADIAL)
        _, branch = bivariate_type1_asymptotic_rate(ell, 0, 1, 3.0)
        assert branch == "rho_gt_a"
        assert ell.pair_params(0, 1).kappa_ij == pytest.approx(0.5)

    def test_log_slope_tracks_pair_probability(self):
        # the rate carries an unknown constant, so compare log against log:
        # the slope of one log series against the other must be near one
        rho = 0.75
        m = NormalModel(np.array([[1.0, rho], [rho, 1.0]]))
        ell = EllipticalInput(m.mu, m.sigma, NORMAL_RADIAL)
        gammas = [3.0, 4.0, 5.0, 6.0]
        log_rate = []
        log_pair = []
        for g in gammas:
            rate, branch = bivariate_type1_asymptotic_rate(ell, 0, 1, g)
            assert branch == "rho_lt_a"
            log_rate.append(math.log(rate))
            log_pair.append(math.log(m.pair_survival(0, 1, g)))
        slope = (log_rate[-1] - log_rate[0]) / (log_pair[-1] - log_pair[0])
        assert abs(slope - 1.0) < 0.05

    def test_boundary_branch_side_condition(self):
        s_i, s_j = 1.0, 0.5
        a = s_j / s_i
        sigma = np.array([[s_i**2, a * s_i * s_j], [a * s_i * s_j, s_j**2]])
        ell = EllipticalInput(np.zeros(2), sigma, NORMAL_RADIAL)
        _, branch = bivariate_type1_asymptotic_rate(ell, 0, 1, 3.0)
        assert branch == "rho_eq_a"
        # super-quadratic radial decay with a dominated location: no usable rate
        steep = EllipticalInput(np.array([0.0, 1.0]), sigma, KotzRadial(delta=3.0))
        with pytest.raises(ModelSpecError):
            bivariate_type1_asymptotic_rate(steep, 0, 1, 3.0)


class TestEmpiricalRatio:
    def test_independent_pair_is_constant_one(self):
        m = NormalModel.equicorrelated(2, 0.0)
        diag = empirical_efficiency_ratio(m, [1.0, 2.0, 3.0, 4.0, 5.0])
        for row in diag.rows:
            assert abs(row.ratio_strict - 1.0) <= 1e-9
        assert diag.strict_trend == "constant"
        assert diag.relaxed_trend == "decreasing"

    def test_dependent_pair_ratio_grows(self):
        m = NormalModel.equicorrelated(2, 0.75)
        diag = empirical_efficiency_ratio(m, [1.0, 2.0, 3.0, 4.0, 5.0])
        values = [row.ratio_strict for row in diag.rows]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert diag.strict_trend == "increasing"

    def test_laplace_pair_ratio_grows(self):
        m = LaplaceModel(2)
        diag = empirical_efficiency_ratio(m, [4.0, 6.0, 8.0, 10.0])
        assert diag.strict_trend == "increasing"

    def test_toeplitz_ratio_bits(self):
        # float.hex of (ratio_strict, ratio_relaxed) on d=8 0.5^|i-j| at gamma 1..6,
        # recorded again when the pair layer moved to the batched Gauss-Kronrod rule
        pinned = [
            ("0x1.3de43d5842c30p+1", "0x1.087037f3ff184p+1"),
            ("0x1.f52ae71a8d3a5p+2", "0x1.574e54ba5f54dp+2"),
            ("0x1.6783dda07a4a6p+5", "0x1.73583e30663c3p+4"),
            ("0x1.e590b503dfca5p+8", "0x1.589f7568afbb9p+7"),
            ("0x1.39a5c675842c9p+13", "0x1.161f8f08c03dbp+11"),
            ("0x1.86a44c4db8df8p+18", "0x1.88e673cc0faa7p+15"),
        ]
        lags = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
        diag = empirical_efficiency_ratio(NormalModel(0.5**lags), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert [(r.ratio_strict.hex(), r.ratio_relaxed.hex()) for r in diag.rows] == pinned

    def test_non_finite_threshold_rejected(self):
        # a nan row once passed through and read as a "constant" trend
        with pytest.raises(ModelSpecError):
            empirical_efficiency_ratio(NormalModel.equicorrelated(2, 0.75), [1.0, math.nan])

    def test_json_shape(self):
        m = NormalModel.equicorrelated(2, 0.5)
        obj = empirical_efficiency_ratio(m, [1.0, 2.0]).to_json()
        assert set(obj) == {"rows", "strict_trend", "relaxed_trend"}


class TestClassifyModel:
    def test_ar1_dispatch(self):
        # the lag-two pair, correlation 0.25, carries the Gaussian tail rule
        v = classify_model(ar1_model(-0.5, 1.0, 6))
        assert v.level == INEFFICIENT and "eta_above_half" in v.rules_fired
        assert v.diagnostics["rho_max"] == pytest.approx(0.25, abs=1e-12)
        assert v.diagnostics["lt_eta"] == pytest.approx(0.625, abs=1e-12)

    def test_archimedean_dispatch(self):
        assert classify_model(ArchimedeanModel("clayton", 3.0, 4)).level == BRE

    def test_normal_identical_marginals_prefers_residual_index_rule(self):
        # on the boundary the scale rule alone says LE, the sharper
        # residual-tail rule says BRE; the latter wins
        v = classify_model(NormalModel.equicorrelated(3, 0.0))
        assert v.level == BRE
        assert "eta_half" in v.rules_fired
        # away from the boundary both rules agree
        assert classify_model(NormalModel.equicorrelated(4, 0.75)).level == INEFFICIENT
        assert classify_model(NormalModel.equicorrelated(4, -0.25)).level == BRE

    def test_normal_distinct_marginals_uses_scale_rule(self):
        sigma = np.diag([4.0, 1.0, 1.0])
        v = classify_model(NormalModel(sigma))
        assert v.level == BRE and "normal_scale_rule" in v.rules_fired

    def test_laplace_unclassified(self):
        v = classify_model(LaplaceModel(4))
        assert v.level == UNKNOWN
        assert "use_empirical_ratio" in v.rules_fired

    def test_verdict_json(self):
        obj = classify_model(ar1_model(0.5, math.sqrt(0.75), 5)).to_json()
        assert set(obj) == {"level", "diagnostics", "rules_fired"}


_NORMAL_GRID = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
_UNIFORM_GRID = [1.0 - 10.0**-k for k in range(1, 7)]

STRUCTURAL_CASES = [
    pytest.param(NormalModel.equicorrelated(4, -0.25), _NORMAL_GRID, id="equicorr-0.25"),
    pytest.param(NormalModel.equicorrelated(4, 0.0), _NORMAL_GRID, id="equicorr0"),
    pytest.param(NormalModel.equicorrelated(4, 0.75), _NORMAL_GRID, id="equicorr0.75"),
    pytest.param(NormalModel(np.diag([4.0, 1.0, 1.0])), _NORMAL_GRID, id="diag411"),
    pytest.param(ar1_model(0.5, math.sqrt(0.75), 5), _NORMAL_GRID, id="ar1-0.5-d5"),
    pytest.param(ar1_model(-0.5, math.sqrt(0.75), 5), _NORMAL_GRID, id="ar1--0.5-d5"),
    pytest.param(ar1_model(0.0, 1.0, 5), _NORMAL_GRID, id="ar1-0-d5"),
    pytest.param(ar1_model(-0.5, math.sqrt(0.75), 2), _NORMAL_GRID, id="ar1--0.5-d2"),
    pytest.param(ArchimedeanModel("clayton", 2.0, 3), _UNIFORM_GRID, id="clayton2"),
    pytest.param(ArchimedeanModel("frank", 3.0, 3), _UNIFORM_GRID, id="frank3"),
    pytest.param(ArchimedeanModel("amh", 0.5, 3), _UNIFORM_GRID, id="amh0.5"),
    pytest.param(ArchimedeanModel("gumbel", 1.0, 3), _UNIFORM_GRID, id="gumbel1"),
]


@pytest.mark.parametrize("model,grid", STRUCTURAL_CASES)
def test_structural_verdict_agrees_with_ratio_growth(model, grid):
    """The verdict must match how the strict ratio grows over the grid:
    BRE stays within a factor 2 of its first value, Inefficient grows more
    than tenfold.  The growth factor is the test, not ``strict_trend``:
    AMH 0.5 rises to its bound (1.41 -> 1.50) and reads "increasing", and
    Gumbel 1 is a constant 1 up to rounding and reads "mixed"."""
    level = classify_model(model).level
    ratios = [row.ratio_strict for row in empirical_efficiency_ratio(model, grid).rows]
    if level == BRE:
        assert max(ratios) / ratios[0] < 2.0, ratios
    else:
        assert level == INEFFICIENT
        assert ratios[-1] / ratios[0] > 10.0, ratios
