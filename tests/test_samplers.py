import math

import numpy as np
import pytest
from scipy.stats import invgauss, kstest

from rareunion import ModelSpecError, NormalModel
from rareunion.samplers import (
    ROW_BLOCK,
    GaussianConditional,
    _laplace_sqrt_ig_pdf,
    _pair_tilt,
    gibbs_bivariate_truncated,
    laplace_conditional_exceedance,
    rejection_pair_exceedance_oracle,
    sample_conditional_mvn,
    sample_conditional_mvn_pair,
    sample_inverse_gaussian,
    sample_truncated_std_normal,
    sample_truncated_std_normal_pair,
    shifted_exponential_rate,
)
from rareunion._rng import derive_generator
from rareunion.special import bivariate_normal_orthant, integrate, norm_pdf, norm_sf

SQRT2 = math.sqrt(2.0)


def rng_for(tag):
    import zlib

    return np.random.default_rng(zlib.crc32(tag.encode()))


def mills_mean(gamma):
    return norm_pdf(gamma) / norm_sf(gamma)


class TestTruncatedNormal:
    def test_deep_tail_mean(self):
        x = sample_truncated_std_normal(4.0, rng_for("tn4"), 100_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mills_mean(4.0)) < 4 * se
        assert (x > 4.0).all()

    def test_half_normal_mean(self):
        x = sample_truncated_std_normal(0.0, rng_for("tn0"), 100_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - math.sqrt(2 / math.pi)) < 4 * se

    def test_vacuous_truncation_is_standard_normal(self):
        x = sample_truncated_std_normal(-10.0, rng_for("tn-10"), 10_000)
        assert kstest(x, "norm").statistic < 1.358 / math.sqrt(10_000)

    def test_proposal_acceptance_rate_deep_tail(self):
        # acceptance probability of the tuned proposal, evaluated directly
        gamma = 4.0
        lam = shifted_exponential_rate(gamma)
        rng = rng_for("acc")
        cand = gamma + rng.exponential(1.0 / lam, 100_000)
        acc = np.exp(-0.5 * (cand - lam) ** 2).mean()
        assert 0.9 <= acc <= 1.0

    def test_rate_values(self):
        assert shifted_exponential_rate(0.0) == pytest.approx(1.0)
        assert shifted_exponential_rate(4.0) == pytest.approx((4 + math.sqrt(20)) / 2)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 8.0])
    def test_proposal_acceptance_above_half_everywhere(self, gamma):
        lam = shifted_exponential_rate(gamma)
        rng = rng_for(f"acc-{gamma}")
        cand = gamma + rng.exponential(1.0 / lam, 50_000)
        acc = np.exp(-0.5 * (cand - lam) ** 2).mean()
        assert acc >= 0.5

    def test_scalar_form(self):
        v = sample_truncated_std_normal(2.0, rng_for("scalar"))
        assert isinstance(v, float) and v > 2.0

    def test_non_finite_threshold_rejected_promptly(self):
        # a nan threshold never satisfies the accept test, so the loop would spin
        import threading

        raised = []

        def run():
            for gamma in (math.nan, math.inf, -math.inf):
                for size in (None, 5):
                    try:
                        sample_truncated_std_normal(gamma, rng_for("tn-nan"), size)
                    except ModelSpecError:
                        raised.append(gamma)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "truncated normal sampler did not return within 30 s"
        assert len(raised) == 6


class TestConditionalMvn:
    def test_independence_ignores_condition(self):
        m = NormalModel.equicorrelated(3, 0.0)
        out = sample_conditional_mvn(m, 0, 5.0, rng_for("ind"), size=50_000)
        assert out.shape == (50_000, 2)
        assert abs(out.mean()) < 0.02

    def test_bivariate_conditional_law(self):
        m = NormalModel.equicorrelated(2, 0.75)
        out = sample_conditional_mvn(m, 0, 4.0, rng_for("cond"), size=100_000)
        # law given the first coordinate at 4: centre 3, spread 1 - 0.75^2
        assert out[:, 0].mean() == pytest.approx(3.0, abs=0.01)
        assert out[:, 0].var(ddof=1) == pytest.approx(0.4375, abs=0.01)

    def test_composition_reproduces_joint_moments(self):
        m = NormalModel(np.eye(3))
        rng = rng_for("compose")
        x0 = rng.standard_normal(50_000)
        rest = sample_conditional_mvn(m, 0, x0, rng)
        joint = np.column_stack([x0, rest])
        cov = np.cov(joint.T)
        assert np.allclose(cov, np.eye(3), atol=0.03)

    def test_composition_law_matches_pair_probability(self):
        # sampling X_i in the tail then the conditional rest reproduces the
        # conditional exceedance frequency of the other coordinate
        m = NormalModel.equicorrelated(4, 0.75)
        for gamma in (2.0, 3.0):
            handle = m.conditional_given_exceedance(0, gamma)
            x = handle.draw(rng_for(f"comp-{gamma}"), 200_000)
            p = m.pair_survival(0, 1, gamma) / m.marginal_survival(0, gamma)
            emp = (x[:, 1] > gamma).mean()
            se = math.sqrt(p * (1 - p) / x.shape[0])
            assert abs(emp - p) < 4 * se

    def test_pair_form(self):
        m = NormalModel.equicorrelated(4, 0.5)
        out = sample_conditional_mvn_pair(m, 0, 2, 1.0, 2.0, rng_for("pairform"), size=1000)
        assert out.shape == (1000, 2)


class TestRowBlockedDraws:
    """Block-by-block draws keep the bits of the plain whole-array expressions
    on the same stream, also for a 1-row draw and just past one block."""

    D = 64

    @pytest.fixture(scope="class")
    def model(self):
        lags = np.abs(np.subtract.outer(np.arange(self.D), np.arange(self.D)))
        return NormalModel(0.5**lags, mu=np.linspace(-1.0, 1.0, self.D))

    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK + 1, 1 << 16])
    def test_sample_matches_plain_expression(self, model, n):
        z = derive_generator(3, n).standard_normal((n, self.D))
        want = model.mu + z @ model.chol.T
        assert np.array_equal(model.sample(derive_generator(3, n), n), want)

    @pytest.mark.parametrize("given", [(5,), (40, 7)])
    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK + 1, 1 << 16])
    def test_conditional_draw_matches_plain_expression(self, model, n, given):
        cond = GaussianConditional(model.mu, model.sigma, given)
        values = 2.0 + derive_generator(4, n).random((n, len(given)))
        mean = cond.mu_rest + (values - cond.mu_given) @ cond.coef.T
        want = mean + derive_generator(5, n).standard_normal((n, len(cond.rest))) @ cond.chol.T
        assert np.array_equal(cond.draw(values, derive_generator(5, n)), want)
        full = np.full((n, self.D), np.nan)
        full[:, list(given)] = values
        assert cond.draw(values, derive_generator(5, n), out=full) is full
        assert np.array_equal(full[:, list(cond.rest)], want)
        assert np.array_equal(full[:, list(given)], values)


class TestGibbs:
    def test_constraint_always_satisfied(self):
        m = NormalModel.equicorrelated(2, 0.6)
        xi, xj = gibbs_bivariate_truncated(m, 0, 1, 1.5, 20, rng_for("gibbs-c"), size=2000)
        assert (np.minimum(xi, xj) > 1.5).all()

    def test_independent_case_matches_truncated_marginals(self):
        m = NormalModel.equicorrelated(2, 0.0)
        xi, xj = gibbs_bivariate_truncated(m, 0, 1, 1.0, 1, rng_for("gibbs-ind"), size=100_000)
        target = mills_mean(1.0)
        for arr in (xi, xj):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean() - target) < 4 * se

    def test_against_rejection_oracle(self):
        m = NormalModel.equicorrelated(2, 0.75)
        xi, _ = gibbs_bivariate_truncated(m, 0, 1, 2.0, 100, rng_for("gibbs-vs"), size=20_000)
        ri, _ = rejection_pair_exceedance_oracle(m, 0, 1, 2.0, rng_for("reject"), raw=600_000)
        assert ri.size > 2_000
        se = math.sqrt(xi.var(ddof=1) / xi.size + ri.var(ddof=1) / ri.size)
        assert abs(xi.mean() - ri.mean()) < 4 * se

    def test_burnin_validation(self):
        m = NormalModel.equicorrelated(2, 0.5)
        with pytest.raises(ValueError):
            gibbs_bivariate_truncated(m, 0, 1, 1.0, 0, rng_for("x"))


def scaled_pair_model(rho):
    """d=3 normal with unequal means and variances, so the pair's
    standardized thresholds differ at a common gamma."""
    sd = np.array([1.5, 0.8, 1.0])
    corr = np.array([[1.0, rho, 0.2], [rho, 1.0, 0.1], [0.2, 0.1, 1.0]])
    return NormalModel(corr * np.outer(sd, sd), mu=[0.6, 0.9, 0.0])


class TestExactPair:
    def test_constraint_always_satisfied(self):
        for rho in (-0.6, 0.3, 0.75):
            x = scaled_pair_model(rho).conditional_given_pair_exceedance(0, 1, 2.0).draw(
                rng_for(f"pair-c-{rho}"), 20_000
            )
            assert x.shape == (20_000, 3)
            assert (np.minimum(x[:, 0], x[:, 1]) > 2.0).all()
        zi, zj = sample_truncated_std_normal_pair(3.0, -1.0, 0.9, rng_for("pair-c-std"), 20_000)
        assert (zi > 3.0).all() and (zj > -1.0).all()

    def test_independent_case_matches_truncated_marginals(self):
        zi, zj = sample_truncated_std_normal_pair(1.0, 2.0, 0.0, rng_for("pair-ind"), 100_000)
        for arr, t in ((zi, 1.0), (zj, 2.0)):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean() - mills_mean(t)) < 4 * se

    @pytest.mark.parametrize("rho", [-0.6, 0.3, 0.75])
    def test_against_rejection_oracle(self, rho):
        m = scaled_pair_model(rho)
        x = m.conditional_given_pair_exceedance(0, 1, 2.0).draw(rng_for(f"pair-vs-{rho}"), 50_000)
        raw = int(5_000 / m.pair_survival(0, 1, 2.0))
        ri, rj = rejection_pair_exceedance_oracle(m, 0, 1, 2.0, rng_for(f"pair-rej-{rho}"), raw=raw)
        assert ri.size > 4_000
        for drawn, ref in ((x[:, 0], ri), (x[:, 1], rj)):
            se = math.sqrt(drawn.var(ddof=1) / drawn.size + ref.var(ddof=1) / ref.size)
            assert abs(drawn.mean() - ref.mean()) < 4 * se

    def test_deep_tail_mean_matches_quadrature(self):
        # min > 8 at rho = 0.75 has probability ~1e-17: far beyond rejection
        gamma, rho = 8.0, 0.75
        s = math.sqrt(1.0 - rho * rho)
        m = NormalModel.equicorrelated(2, rho)
        x = m.conditional_given_pair_exceedance(0, 1, gamma).draw(rng_for("pair-deep"), 100_000)
        first_moment = integrate(lambda z: z * norm_pdf(z) * norm_sf((gamma - rho * z) / s), gamma, 40.0)
        target = first_moment / bivariate_normal_orthant(gamma, gamma, rho)
        for k in (0, 1):
            se = x[:, k].std(ddof=1) / math.sqrt(x.shape[0])
            assert abs(x[:, k].mean() - target) < 4 * se

    def test_extreme_settings_finish_in_time(self):
        # a rejection loop whose acceptance collapsed would never return
        import threading

        done = []

        def run():
            for rho in (-0.9, 0.99):
                for ti in (-1.0, 8.0):
                    for tj in (-1.0, 8.0):
                        zi, zj = sample_truncated_std_normal_pair(ti, tj, rho, rng_for("pair-x"), 65_536)
                        done.append(bool((zi > ti).all() and (zj > tj).all()))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "pair sampler did not finish within 30 s"
        assert done == [True] * 8

    def test_tilt_is_a_valid_bound(self):
        # acceptance probability P(A_i A_j) exp(-psi_star) lies in (0.8, 1]
        for rho in (-0.9, -0.5, 0.3, 0.75, 0.99):
            for ti, tj in ((-1.0, -1.0), (2.0, 2.0), (8.0, 8.0), (2.0, 4.0), (-1.0, 8.0)):
                _, psi_star = _pair_tilt(ti, tj, rho)
                acc = math.exp(math.log(bivariate_normal_orthant(ti, tj, rho)) - psi_star)
                assert 0.8 < acc <= 1.0 + 1e-9, (rho, ti, tj, acc)

    def test_invalid_arguments(self):
        for ti, rho in ((math.nan, 0.5), (math.inf, 0.5), (1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                sample_truncated_std_normal_pair(ti, 1.0, rho, rng_for("pair-bad"), 10)

    def test_scalar_form_and_stream_determinism(self):
        a = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, derive_generator(7, 0), 1000)
        b = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, derive_generator(7, 0), 1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        zi, zj = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, rng_for("pair-scalar"))
        assert isinstance(zi, float) and zi > 2.0 and zj > 1.0


class TestInverseGaussian:
    def test_mean(self):
        x = sample_inverse_gaussian(1.0, 1.0, rng_for("ig-mean"), 200_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 4 * se

    def test_variance(self):
        x = sample_inverse_gaussian(2.0, 8.0, rng_for("ig-var"), 400_000)
        # variance mu^3 / lambda = 1
        assert x.var(ddof=1) == pytest.approx(1.0, abs=0.02)
        assert x.mean() == pytest.approx(2.0, abs=0.01)

    def test_strictly_positive(self):
        x = sample_inverse_gaussian(0.3, 5.0, rng_for("ig-pos"), 100_000)
        assert (x > 0).all()

    def test_distribution_ks(self):
        mu, lam = 1.7, 3.2
        x = sample_inverse_gaussian(mu, lam, rng_for("ig-ks"), 20_000)
        stat = kstest(x, invgauss(mu / lam, scale=lam).cdf).statistic
        assert stat < 1.358 / math.sqrt(x.size)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_inverse_gaussian(-1.0, 1.0, rng_for("bad"))


class TestLaplaceConditional:
    def test_component_exceeds_threshold(self):
        x = laplace_conditional_exceedance(4, 2, 6.0, rng_for("lap-exc"), 5000)
        assert (x[:, 2] > 6.0).all()
        assert x.shape == (5000, 4)

    def test_component_tail_is_shifted_exponential(self):
        gamma = 3.0
        x = laplace_conditional_exceedance(3, 0, gamma, rng_for("lap-exp"), 200_000)
        excess = x[:, 0] - gamma
        se = excess.std(ddof=1) / math.sqrt(excess.size)
        assert abs(excess.mean() - 1 / SQRT2) < 4 * se
        stat = kstest(excess, "expon", args=(0, 1 / SQRT2)).statistic
        assert stat < 1.358 / math.sqrt(excess.size)

    def test_gaussian_coordinate_density_chisquare(self):
        # histogram of the square-root inverse Gaussian against its density
        x_i = 2.0
        draws = np.sqrt(
            sample_inverse_gaussian(SQRT2 * x_i, 2.0 * x_i * x_i, rng_for("sqrtig"), 200_000)
        )
        edges = np.linspace(np.quantile(draws, 0.001), np.quantile(draws, 0.999), 31)
        observed, _ = np.histogram(draws, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = _laplace_sqrt_ig_pdf(centers, x_i)
        expected = dens * np.diff(edges) * draws.size
        mask = expected > 10
        chi2 = (((observed - expected) ** 2) / expected)[mask].sum()
        dof = int(mask.sum()) - 1
        # 99.9% critical value of chi-square with ~29 dof is about 58
        assert chi2 < dof + 4.5 * math.sqrt(2 * dof)

    def test_conditional_pair_frequency_vs_quadrature(self):
        from rareunion import LaplaceModel

        m = LaplaceModel(4)
        gamma = 6.0
        x = laplace_conditional_exceedance(4, 0, gamma, rng_for("lap-freq"), 400_000)
        p = m.pair_survival(0, 1, gamma) / m.marginal_survival(0, gamma)
        emp = (x[:, 1] > gamma).mean()
        se = math.sqrt(p * (1 - p) / x.shape[0])
        assert abs(emp - p) < 4 * se

    def test_gamma_validation(self):
        with pytest.raises(ModelSpecError):
            laplace_conditional_exceedance(3, 0, 0.0, rng_for("bad"))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ModelSpecError):
            laplace_conditional_exceedance(3, 0, gamma, rng_for("bad"), 4)


class TestDeterminism:
    def test_identical_streams_identical_draws(self):
        a = sample_truncated_std_normal(3.0, derive_generator(123, 0), 1000)
        b = sample_truncated_std_normal(3.0, derive_generator(123, 0), 1000)
        assert np.array_equal(a, b)
        c = sample_truncated_std_normal(3.0, derive_generator(123, 1), 1000)
        assert not np.array_equal(a, c)

    def test_frozen_stream_values(self):
        # guards against accidental changes to the stream derivation
        rng = derive_generator(2718, 0)
        got = rng.standard_normal(3)
        rng2 = derive_generator(2718, 0)
        assert np.array_equal(got, rng2.standard_normal(3))
        assert derive_generator(2718).bit_generator.state["bit_generator"] == "Philox"
