"""Invalid input to the public entry points ends in the package's own
``ModelSpecError`` (a ``ValueError``), never in a bare exception from deep
inside, a silent ``nan`` or an empty-sequence error."""

import math

import numpy as np
import pytest

from rareunion import (
    ArchimedeanModel,
    FinitePatternModel,
    LaplaceModel,
    ModelSpecError,
    NormalModel,
    Payoff,
    empirical_efficiency_ratio,
    estimate_beta_n,
    exhaustive_estimator_mean,
    savage_condition,
)
from rareunion import events as ev
from rareunion import samplers
from rareunion.special import integrate
from rareunion.efficiency import (
    NORMAL_RADIAL,
    EfficiencyVerdict,
    EllipticalInput,
    KotzRadial,
    berman_univariate_asymptotic,
    bivariate_type1_asymptotic_rate,
    gaussian_copula_ledford_tawn,
)
from rareunion.oracles import oracle_union_normal_equicorr


def _rng():
    return np.random.default_rng(1)


_FINITE = FinitePatternModel([0.1, 0.2, 0.3, 0.4])
_NORMAL3 = NormalModel.equicorrelated(3, 0.5)


def _ellipse(mu=(0.0, 0.0, 0.0), sigma=None):
    return EllipticalInput(np.asarray(mu), np.eye(3) if sigma is None else np.asarray(sigma))


CASES = {
    "binomial_term_negative_count": lambda: ev.binomial_term(-1, 0),
    "binomial_term_fractional_count": lambda: ev.binomial_term(2.5, 1),
    "residual_term_fractional_count": lambda: ev.residual_term(3.9, 1),
    "residual_term_fractional_order": lambda: ev.residual_term(3, 0.5),
    "integrate_infinite_limit": lambda: integrate(lambda x: x, 0.0, math.inf),
    "integrate_reversed_limits": lambda: integrate(lambda x: x, 1.0, 0.0),
    "partition_cells_zero_order": lambda: ev.partition_cells(3, 0),
    "partition_cells_fractional_order": lambda: ev.partition_cells(3, 2.5),
    "enumerate_patterns_beyond_twenty": lambda: ev.enumerate_patterns(21),
    "enumerate_patterns_fractional": lambda: ev.enumerate_patterns(2.5),
    "cell_for_empty_pattern": lambda: ev.cell_for_pattern([], 1),
    "brute_force_union_without_pmf": lambda: ev.brute_force_union(NormalModel.equicorrelated(3, 0.5)),
    "elliptical_nan_mean": lambda: _ellipse(mu=(0.0, math.nan, 0.0)),
    "elliptical_inf_covariance": lambda: _ellipse(sigma=[[1.0, math.inf, 0.0], [math.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "pair_params_index_out_of_range": lambda: _ellipse().pair_params(0, 5),
    "pair_params_same_index": lambda: _ellipse().pair_params(0, 0),
    "berman_level_at_zero": lambda: berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, 0.0),
    "berman_level_below_zero": lambda: berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 1.0, -1.0),
    "type1_rate_level_below_zero": lambda: bivariate_type1_asymptotic_rate(_ellipse(), 0, 1, -1.0),
    "ledford_tawn_string_correlation": lambda: gaussian_copula_ledford_tawn("a"),
    "laplace_index_out_of_range": lambda: samplers.laplace_conditional_exceedance(3, 5, 2.0, _rng(), 10),
    "inverse_gaussian_negative_mean": lambda: samplers.sample_inverse_gaussian(-1.0, 1.0, _rng(), 10),
    "pair_sampler_rho_one": lambda: samplers.sample_truncated_std_normal_pair(2.0, 2.0, 1.0, _rng(), 10),
    "pair_sampler_rho_minus_one": lambda: samplers.sample_truncated_std_normal_pair(2.0, 2.0, -1.0, _rng(), 10),
    "pair_sampler_string_rho": lambda: samplers.sample_truncated_std_normal_pair(2.0, 2.0, "x", _rng(), 10),
    "truncated_normal_string_threshold": lambda: samplers.sample_truncated_std_normal("2", _rng(), 10),
    "gibbs_fractional_burnin": lambda: samplers.gibbs_bivariate_truncated(_NORMAL3, 0, 1, 2.0, 2.5, _rng(), 10),
    "gibbs_boolean_burnin": lambda: samplers.gibbs_bivariate_truncated(_NORMAL3, 0, 1, 2.0, True, _rng(), 10),
    "gibbs_string_threshold": lambda: samplers.gibbs_bivariate_truncated(_NORMAL3, 0, 1, "2", 5, _rng(), 10),
    # a nan threshold once made the chain's rejection step loop forever
    "gibbs_nan_threshold": lambda: samplers.gibbs_bivariate_truncated(_NORMAL3, 0, 1, math.nan, 5, _rng(), 10),
    "gibbs_index_out_of_range": lambda: samplers.gibbs_bivariate_truncated(_NORMAL3, 0, 7, 2.0, 5, _rng(), 10),
    "laplace_fractional_index": lambda: samplers.laplace_conditional_exceedance(3, 1.5, 2.0, _rng(), 4),
    "laplace_boolean_index": lambda: samplers.laplace_conditional_exceedance(3, True, 2.0, _rng(), 4),
    "laplace_fractional_dimension": lambda: samplers.laplace_conditional_exceedance(2.5, 0, 2.0, _rng(), 4),
    "inverse_gaussian_shape_mismatch": lambda: samplers.sample_inverse_gaussian(np.ones(3), 1.0, _rng(), 5),
    "inverse_gaussian_nan_mean": lambda: samplers.sample_inverse_gaussian(math.nan, 1.0, _rng(), 5),
    "gaussian_conditional_index_out_of_range": lambda: samplers.GaussianConditional(_NORMAL3, (0, 7), 2.0),
    "gaussian_conditional_repeated_index": lambda: samplers.GaussianConditional(_NORMAL3, (1, 1), 2.0),
    "gaussian_conditional_three_indices": lambda: samplers.GaussianConditional(_NORMAL3, (0, 1, 2), 2.0),
    "gaussian_conditional_no_index": lambda: samplers.GaussianConditional(_NORMAL3, (), 2.0),
    "gaussian_conditional_nan_threshold": lambda: samplers.GaussianConditional(_NORMAL3, (0,), math.nan),
    # a model with no mean or covariance once failed on a bare AttributeError
    "gaussian_conditional_laplace_model": lambda: samplers.GaussianConditional(LaplaceModel(3), (0,), 0.5),
    "gaussian_conditional_archimedean_model":
        lambda: samplers.GaussianConditional(ArchimedeanModel("clayton", 2.0, 3), (0, 1), 0.5),
    "gibbs_laplace_model": lambda: samplers.gibbs_bivariate_truncated(LaplaceModel(3), 0, 1, 0.5, 3, _rng(), 10),
    "gibbs_finite_model": lambda: samplers.gibbs_bivariate_truncated(_FINITE, 0, 1, 0.5, 3, _rng(), 10),
    "gaussian_rows_laplace_model": lambda: samplers.gaussian_rows(LaplaceModel(3), _rng(), 5),
    "gaussian_rows_finite_model": lambda: samplers.gaussian_rows(_FINITE, _rng(), 5),
    "custom_payoff_two_columns": lambda: estimate_beta_n(
        NormalModel.equicorrelated(3, 0.5), 1.0, 1, Payoff.custom(lambda x, p: np.ones((len(p), 2))), 1000, 1
    ),
    "custom_payoff_not_callable": lambda: Payoff.custom(3),
    "payoff_not_callable": lambda: Payoff(None),
    "savage_nan_threshold": lambda: savage_condition(np.eye(2), [1.0, math.nan]),
    "savage_inf_covariance": lambda: savage_condition([[1.0, math.inf], [math.inf, 1.0]], [1.0, 1.0]),
    "savage_mismatched_threshold": lambda: savage_condition(np.eye(2), [1.0, 1.0, 1.0]),
    "ratio_empty_grid": lambda: empirical_efficiency_ratio(NormalModel.equicorrelated(2, 0.5), []),
    "ratio_scalar_grid": lambda: empirical_efficiency_ratio(NormalModel.equicorrelated(2, 0.5), 2.0),
    "exhaustive_cmc_with_order": lambda: exhaustive_estimator_mean("cmc", _FINITE, n=2),
    "exhaustive_cmc_with_payoff": lambda: exhaustive_estimator_mean("cmc", _FINITE, payoff=Payoff.constant_one()),
    "brute_force_tail_boolean_order": lambda: ev.brute_force_tail_expectation(_FINITE, True),
    "brute_force_tail_fractional_order": lambda: ev.brute_force_tail_expectation(_FINITE, 1.5),
    "brute_force_tail_negative_order": lambda: ev.brute_force_tail_expectation(_FINITE, -3),
    "verdict_unknown_label": lambda: EfficiencyVerdict("bogus"),
    "ledford_tawn_comonotone": lambda: gaussian_copula_ledford_tawn(1.0),
    "kotz_zero_scale": lambda: KotzRadial(K=0.0),
    "kotz_sf_at_zero": lambda: KotzRadial().sf(0.0),
    "elliptical_mismatched_covariance": lambda: EllipticalInput([0, 0], np.eye(3)),
    "elliptical_singular_covariance": lambda: EllipticalInput([0, 0], [[0, 0], [0, 1]]),
    "elliptical_one_coordinate_extremal_pair": lambda: EllipticalInput([0.0], [[1.0]]).extremal_pair_params(),
    "berman_zero_scale": lambda: berman_univariate_asymptotic(NORMAL_RADIAL, 0.0, 0.0, 1.0),
    "partition_cells_order_above_dimension": lambda: ev.partition_cells(2, 3),
    "exhaustive_beta_n_without_order": lambda: exhaustive_estimator_mean("beta_n", _FINITE),
    "finite_pmf_beyond_twenty": lambda: FinitePatternModel(np.full(1 << 21, 2.0**-21)),
    "equicorr_oracle_comonotone": lambda: oracle_union_normal_equicorr(4, 1.0, 2.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_input_raises_the_package_error(case):
    with pytest.raises(ModelSpecError):
        CASES[case]()
