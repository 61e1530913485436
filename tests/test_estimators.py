import math
from fractions import Fraction

import numpy as np
import pytest

from rareunion import (
    CapabilityError,
    DependenceModel,
    ModelSpecError,
    ArchimedeanModel,
    FinitePatternModel,
    LaplaceModel,
    NormalModel,
    Payoff,
    bonferroni_bounds,
    brute_force_tail_expectation,
    brute_force_union,
    build_model,
    estimate_beta_n,
    exhaustive_estimator_mean,
    exhaustive_residual_second_moment,
    exhaustive_variance_components,
    empirical_efficiency_ratio,
    oracle_for_model,
    oracle_union_normal_equicorr,
    run_estimator,
)


def rng_for(tag):
    import zlib

    return np.random.default_rng(zlib.crc32(tag.encode()))


def random_finite(seed, d):
    pmf = np.random.default_rng(seed).dirichlet(np.ones(1 << d))
    return FinitePatternModel(pmf / pmf.sum())


ALL_UNION_ESTIMATORS = (
    "cmc",
    "alpha1",
    "alpha2",
    "alpha1_is",
    "alpha2_is",
    "beta1_alpha",
    "beta2_alpha",
)


class TestExhaustiveUnbiasedness:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", ALL_UNION_ESTIMATORS)
    def test_union_estimators(self, d, name):
        model = random_finite(100 + d, d)
        truth = brute_force_union(model)
        assert exhaustive_estimator_mean(name, model) == pytest.approx(truth, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_estimator_with_payoffs(self, d, n):
        model = random_finite(200 + d, d)
        for payoff in (
            Payoff.constant_one(),
            Payoff.residual_alternating(n - 1) if n >= 1 else Payoff.constant_one(),
            Payoff.custom(lambda x, p: 1.0 + p.sum(axis=1) ** 2),
        ):
            truth = brute_force_tail_expectation(model, n, payoff)
            got = exhaustive_estimator_mean("beta_n", model, n=n, payoff=payoff)
            assert got == pytest.approx(truth, abs=1e-12)


class TestVarianceInequalities:
    @pytest.mark.parametrize("seed", range(6))
    def test_residual_second_moment_bound(self, seed):
        d = 2 + seed % 3
        model = random_finite(300 + seed, d)
        lhs = exhaustive_residual_second_moment(model, 1)
        pairs = [
            model.pair_survival(i, j) for i in range(d) for j in range(i + 1, d)
        ]
        assert lhs <= 2.0 * sum(pairs) + 1e-15

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2])
    def test_partition_variance_reduction(self, seed, n):
        d = 2 + seed % 3
        model = random_finite(400 + seed, d)
        for payoff in (Payoff.constant_one(), Payoff.custom(lambda x, p: 1.0 + p.sum(axis=1))):
            comps = exhaustive_variance_components(model, n, payoff)
            assert (
                comps["conditional_sweep_var"]
                <= comps["max_cell_prob"] * comps["crude_sweep_var"] + 1e-15
            )


class TestMixtureIdentity:
    def test_first_order_weighting_collapses_exactly(self):
        # deterministic head plus weighted remainder equals head / count,
        # verified in exact rational arithmetic
        abar = Fraction(91, 1000)
        for count in range(1, 9):
            likelihood = abar / count
            residual = (1 - count) if count >= 2 else 0
            assert abar + residual * likelihood == abar / count


class TestAr1Coverage:
    """An AR(1) path is a Toeplitz NormalModel, so all seven union
    estimators run on it, conditional samplers included."""

    @pytest.mark.parametrize("phi", [0.5, -0.5])
    def test_every_estimator_agrees_with_the_oracle(self, phi):
        m = build_model({"type": "ar1", "phi": phi, "sigma_eps": math.sqrt(1.0 - phi * phi), "d": 5})
        truth = oracle_for_model(m, 2.5, qmc_points=1 << 14)
        bounds = bonferroni_bounds(m, 2.5)
        bound_of = {"alpha1": bounds.upper, "alpha2": bounds.second}
        for name in ALL_UNION_ESTIMATORS:
            r = run_estimator(name, m, 2.5, 20_000, 7)
            if r.degenerate and name in bound_of:
                assert r.estimate == bound_of[name], name
            else:
                assert not r.degenerate, name
                assert abs(r.estimate - truth) < 5 * r.stderr, (name, r.estimate, truth)


class TestDegeneration:
    def test_alpha_n_degenerates_to_bounds(self):
        m = NormalModel.equicorrelated(4, 0.75)
        bounds = bonferroni_bounds(m, 6.0)
        r1 = run_estimator("alpha1", m, 6.0, 2000, 5)
        assert r1.degenerate and r1.sample_std == 0.0 and r1.stderr == 0.0
        assert r1.estimate == bounds.upper
        r2 = run_estimator("alpha2", m, 6.0, 2000, 5)
        assert r2.degenerate
        assert r2.estimate == bounds.second

    def test_cmc_degenerates_to_zero(self):
        m = NormalModel.equicorrelated(4, 0.75)
        r = run_estimator("cmc", m, 8.0, 5000, 1)
        assert r.degenerate and r.estimate == 0.0

    def test_two_events_second_order_is_forced(self):
        m = NormalModel.equicorrelated(2, 0.5)
        bounds = bonferroni_bounds(m, 1.0)
        r = run_estimator("alpha2_is", m, 1.0, 500, 9)
        assert r.degenerate
        assert r.estimate == bounds.upper - (bounds.upper - bounds.second)

    def test_single_event_first_order_is_exact(self):
        m = NormalModel.equicorrelated(1, 0.0)
        r = run_estimator("alpha1_is", m, 2.0, 200, 3)
        assert r.degenerate
        assert r.estimate == m.marginal_survival(0, 2.0)

    def test_empty_partition_cell_still_counts_its_sweeps(self):
        # the one pair cell of d=2 weighs P(A_1 A_2) = 0: it is never drawn,
        # but every sweep still counts, and each sweep's value is the head
        model = FinitePatternModel([0.5, 0.3, 0.2, 0.0])
        r = run_estimator("beta2_alpha", model, 0.0, 100, 1)
        assert r.degenerate and r.replicates == 100
        assert r.estimate == bonferroni_bounds(model, 0.0).upper

    def test_disjoint_events_second_order_returns_upper(self):
        # only single-bit patterns have mass, so every pair probability is 0
        pmf = np.array([0.4, 0.2, 0.3, 0.0, 0.1, 0.0, 0.0, 0.0])
        model = FinitePatternModel(pmf)
        r = run_estimator("alpha2_is", model, 0.0, 100, 1)
        assert r.degenerate and r.replicates == 0
        assert r.estimate == bonferroni_bounds(model, 0.0).upper


class TestReplicateRange:
    def test_second_order_mixture_estimate_within_hard_bounds(self):
        m = NormalModel.equicorrelated(4, 0.75)
        bounds = bonferroni_bounds(m, 2.0)
        q = bounds.upper - bounds.second
        r = run_estimator("alpha2_is", m, 2.0, 4000, 17)
        assert bounds.second - 1e-15 <= r.estimate <= bounds.upper - 2 * q / 4 + 1e-15


class TestReproducibility:
    @pytest.mark.parametrize("name", ALL_UNION_ESTIMATORS)
    def test_bit_identical_for_fixed_seed(self, name):
        m = NormalModel.equicorrelated(3, 0.5)
        a = run_estimator(name, m, 1.5, 3000, 77)
        b = run_estimator(name, m, 1.5, 3000, 77)
        assert a.estimate == b.estimate
        assert a.sample_std == b.sample_std
        c = run_estimator(name, m, 1.5, 3000, 78)
        assert c.estimate != a.estimate or c.sample_std != a.sample_std

    def test_chunk_boundaries_do_not_change_results(self):
        # replicate counts straddling the chunk size keep prefix-consistent streams
        m = NormalModel.equicorrelated(2, 0.5)
        big = run_estimator("cmc", m, 1.0, (1 << 16) + 500, 5)
        assert big.replicates == (1 << 16) + 500


class TestCapabilities:
    def test_laplace_has_no_pair_conditional(self):
        m = LaplaceModel(4)
        with pytest.raises(CapabilityError):
            run_estimator("alpha2_is", m, 6.0, 100, 1)
        with pytest.raises(CapabilityError):
            run_estimator("beta2_alpha", m, 6.0, 100, 1)

    def test_archimedean_has_no_conditionals(self):
        m = ArchimedeanModel("clayton", 2.0, 3)
        with pytest.raises(CapabilityError):
            run_estimator("alpha1_is", m, 0.9, 100, 1)
        # but the partially deterministic estimators work
        r = run_estimator("alpha2", m, 0.9, 5000, 1)
        assert r.replicates == 5000

    @pytest.mark.parametrize(
        "run, law",
        [
            (lambda: run_estimator("alpha1_is", ArchimedeanModel("clayton", 2.0, 3), 0.9, 100, 1), "one event"),
            (lambda: run_estimator("alpha2_is", LaplaceModel(4), 6.0, 100, 1), "event pairs"),
            (lambda: run_estimator("beta2_alpha", LaplaceModel(4), 6.0, 100, 1), "event pairs"),
        ],
        ids=["archimedean-alpha1_is", "laplace-alpha2_is", "laplace-beta2_alpha"],
    )
    def test_unsupported_law_names_its_conditioning(self, run, law):
        with pytest.raises(CapabilityError, match=f"cannot sample conditioned on {law}"):
            run()

    def test_model_that_only_samples(self):
        class SampleOnly(DependenceModel):
            d = 3

            def sample(self, rng, size=None):
                return rng.standard_normal((1 if size is None else size, 3))

        m = SampleOnly()
        assert run_estimator("cmc", m, 1.0, 1000, 1).replicates == 1000
        for run in (
            lambda: run_estimator("alpha1", m, 1.0, 100, 1),
            lambda: run_estimator("alpha1_is", m, 1.0, 100, 1),
            lambda: empirical_efficiency_ratio(m, [1.0, 2.0]),
        ):
            with pytest.raises(CapabilityError, match="cannot compute marginal probabilities"):
                run()

    def test_laws_of_weight_zero_are_never_drawn(self):
        # Clayton at theta = -1 has no frailty law and no conditional
        # sampler, but every pair survival is exactly zero at u = 0.9, so
        # the pair estimators have nothing to draw and return their head
        m = ArchimedeanModel("clayton", -1.0, 3)
        assert [m.pair_survival(i, j, 0.9) for i, j in [(0, 1), (0, 2), (1, 2)]] == [0.0] * 3
        upper = bonferroni_bounds(m, 0.9).upper
        assert upper == 0.29999999999999993
        for r in (run_estimator("alpha2_is", m, 0.9, 1000, 1), run_estimator("beta2_alpha", m, 0.9, 1000, 1)):
            assert r.degenerate and r.estimate == upper

    def test_invalid_inputs(self):
        m = NormalModel.equicorrelated(2, 0.5)
        with pytest.raises(ModelSpecError):
            run_estimator("alpha3", m, 1.0, 100, 1)
        with pytest.raises(ModelSpecError):
            estimate_beta_n(m, 1.0, 3, Payoff.constant_one(), 100, 1)
        with pytest.raises(ModelSpecError):
            run_estimator("cmc", m, 1.0, 0, 1)
        with pytest.raises(ModelSpecError, match="replicates must be an integer"):
            run_estimator("cmc", m, 1.0, 2.7, 1)
        with pytest.raises(ModelSpecError):
            run_estimator("nope", m, 1.0, 10, 1)
        with pytest.raises(ModelSpecError):
            exhaustive_estimator_mean("nope", random_finite(1, 2))
        with pytest.raises(ModelSpecError, match="finite pattern model"):
            exhaustive_estimator_mean("cmc", m)  # once a TypeError
        with pytest.raises(ModelSpecError, match="gamma"):
            run_estimator("alpha1", m, "2.5", 1000, 1)  # once ran at 2.5


class TestAgainstOracle:
    def test_cmc_and_alpha1_consistent_at_moderate_threshold(self):
        m = NormalModel.equicorrelated(4, 0.75)
        alpha = oracle_union_normal_equicorr(4, 0.75, 2.0)
        for name in ("cmc", "alpha1", "alpha1_is", "beta1_alpha"):
            r = run_estimator(name, m, 2.0, 40_000, 11)
            assert abs(r.estimate - alpha) < 4 * r.stderr

    def test_beta_n_constant_payoff_estimates_union(self):
        m = NormalModel.equicorrelated(4, 0.75)
        alpha = oracle_union_normal_equicorr(4, 0.75, 2.0)
        r = estimate_beta_n(m, 2.0, 1, Payoff.constant_one(), 30_000, 13)
        assert abs(r.estimate - alpha) < 4 * r.stderr

    def test_beta_n_order_two_estimates_tail(self):
        # P(at least two exceedances) via the pair partition on a finite model
        model = random_finite(777, 3)
        truth = brute_force_tail_expectation(model, 2)
        r = estimate_beta_n(model, 0.0, 2, Payoff.constant_one(), 30_000, 23)
        assert abs(r.estimate - truth) < 4 * r.stderr


class TestBonferroni:
    def test_independent_two_event_closed_form(self):
        p = 0.25
        pmf = np.outer([1 - p, p], [1 - p, p]).ravel()
        model = FinitePatternModel(pmf)
        bounds = bonferroni_bounds(model, 0.0)
        assert bounds.upper == pytest.approx(2 * p, rel=1e-14)
        assert bounds.second == pytest.approx(2 * p - p * p, rel=1e-14)

    def test_result_fields(self):
        m = NormalModel.equicorrelated(3, 0.5)
        r = run_estimator("cmc", m, 1.0, 5000, 99)
        assert r.stderr == pytest.approx(r.sample_std / math.sqrt(r.replicates))
        assert r.seed == 99
        assert r.wall_ms >= 0.0
        assert set(r.to_json()) == {
            "estimate",
            "sample_std",
            "stderr",
            "replicates",
            "degenerate",
            "seed",
            "wall_ms",
        }


class TestInputBoundary:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ALL_UNION_ESTIMATORS)
    def test_non_finite_threshold_rejected(self, name, gamma):
        m = NormalModel.equicorrelated(4, 0.75)
        with pytest.raises(ModelSpecError):
            run_estimator(name, m, gamma, 100, 1)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_bonferroni_bounds_reject_non_finite_threshold(self, gamma):
        with pytest.raises(ModelSpecError):
            bonferroni_bounds(NormalModel.equicorrelated(4, 0.75), gamma)

    @pytest.mark.parametrize("name", ["alpha1_is", "alpha2_is"])
    def test_mixture_with_nothing_to_weigh(self, name):
        # every marginal and pair probability underflows to zero, so the
        # mixture has no law to pick and its head is zero too
        with pytest.raises(ModelSpecError, match="mixture is undefined"):
            run_estimator(name, NormalModel.equicorrelated(4, 0.75), 40.0, 100, 1)

    def test_laplace_conditional_needs_positive_threshold(self):
        with pytest.raises(ModelSpecError):
            run_estimator("alpha1_is", LaplaceModel(4), -1.0, 100, 1)

    @pytest.mark.parametrize("name", ["bonferroni", "zeta"])
    def test_unknown_estimator_lists_only_runnable_names(self, name):
        # the message once offered "bonferroni", which run_estimator rejects
        with pytest.raises(ModelSpecError, match="valid names") as info:
            run_estimator(name, NormalModel.equicorrelated(2, 0.5), 2.0, 10, 1)
        listed = str(info.value).split("valid names")[1]
        assert "cmc" in listed and "bonferroni" not in listed

    @pytest.mark.parametrize("order", [1.5, True, "1", -1])
    def test_payoff_order_must_be_a_count(self, order):
        # 1.5 and True once became order 1
        with pytest.raises(ModelSpecError, match="order"):
            Payoff.residual_alternating(order)

    @pytest.mark.parametrize("seed", [1.5, True, "s"])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 and True once ran as seed 1, and "s" raised a bare ValueError
        with pytest.raises(ModelSpecError, match="seed"):
            run_estimator("cmc", NormalModel.equicorrelated(3, 0.5), 2.0, 1000, seed)

    @pytest.mark.parametrize(
        "run",
        [
            lambda m: estimate_beta_n(m, 2.0, 2, "x", 100, 1),
            lambda m: exhaustive_estimator_mean("beta_n", m, n=2, payoff="x"),
        ],
        ids=["estimate_beta_n", "exhaustive_estimator_mean"],
    )
    def test_payoff_must_be_a_payoff(self, run):
        # once an AttributeError from inside the runner, after the pair layer
        m = CountingFinite(random_finite(4, 3).pmf)
        with pytest.raises(ModelSpecError, match="Payoff"):
            run(m)
        assert m.pair_calls == 0


class TestBeyondSixtyFourEvents:
    """Exceedance counts above 64 once raised a bare ValueError in the
    binomial terms, so only the estimators without count tables ran."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model({"type": "ar1", "phi": 0.5, "sigma_eps": 0.866, "d": 65})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_count_table_estimators_stay_within_the_bounds(self, model, seed):
        bounds = bonferroni_bounds(model, 3.0)
        # E[(1 - E) 1{E >= 1}] = P(union) - sum P(A_i), so adding the upper
        # bound makes the beta_1 estimate a union estimate
        results = {
            "alpha1": (run_estimator("alpha1", model, 3.0, 20_000, seed), 0.0),
            "alpha2": (run_estimator("alpha2", model, 3.0, 20_000, seed), 0.0),
            "beta_n": (estimate_beta_n(model, 3.0, 1, Payoff.residual_alternating(1), 20_000, seed), bounds.upper),
        }
        for name, (r, shift) in results.items():
            assert math.isfinite(r.estimate), name
            union = r.estimate + shift
            assert bounds.second - 5 * r.stderr <= union <= bounds.upper + 5 * r.stderr, (name, union, bounds)


class CountingFinite(FinitePatternModel):
    """Finite model that counts its pairwise probability calls."""

    pair_calls = 0

    def pair_survival(self, i, j, gamma=0.0):
        self.pair_calls += 1
        return super().pair_survival(i, j, gamma)


class TestLayersAndLaws:
    def test_heads_compute_only_the_layers_they_use(self):
        pmf = random_finite(9, 4).pmf
        for name, calls in (("alpha1", 0), ("alpha1_is", 0), ("beta1_alpha", 0), ("beta2_alpha", 6)):
            model = CountingFinite(pmf)
            run_estimator(name, model, 0.0, 50, 1)
            assert model.pair_calls == calls, name

    def test_zero_weight_laws_are_skipped(self):
        # only single-bit patterns have mass, so every pair cell has weight zero
        pmf = np.array([0.4, 0.2, 0.3, 0.0, 0.1, 0.0, 0.0, 0.0])
        model = FinitePatternModel(pmf)
        r = run_estimator("beta2_alpha", model, 0.0, 90, 1)
        assert r.degenerate and r.replicates == 30
        assert r.estimate == bonferroni_bounds(model, 0.0).upper

    def test_order_beyond_dimension_is_exact(self):
        m = NormalModel.equicorrelated(1, 0.0)
        r = run_estimator("beta2_alpha", m, 1.0, 100, 1)
        assert r.degenerate and r.replicates == 0
        assert r.estimate == m.marginal_survival(0, 1.0)
        r = estimate_beta_n(m, 1.0, 2, Payoff.constant_one(), 100, 1)
        assert r.estimate == 0.0 and r.replicates == 0
