"""Property tests: exact estimator means equal brute-force enumeration on
random finite pattern models, including pmfs with exact zeros."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rareunion import (
    FinitePatternModel,
    Payoff,
    brute_force_tail_expectation,
    brute_force_union,
    exhaustive_estimator_mean,
)

UNION_ESTIMATORS = ("cmc", "alpha1", "alpha2", "alpha1_is", "alpha2_is", "beta1_alpha", "beta2_alpha")

# a zero entry often enough that zero-weight laws and all-zero layers occur
_MASS = st.one_of(st.just(0.0), st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def finite_models(draw):
    d = draw(st.integers(1, 5))
    mass = np.array(draw(st.lists(_MASS, min_size=1 << d, max_size=1 << d)))
    if mass.sum() == 0.0:
        mass[draw(st.integers(0, mass.size - 1))] = 1.0
    return FinitePatternModel(mass / mass.sum())


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@PROPERTY
@given(finite_models())
def test_union_estimator_means_equal_brute_force(model):
    truth = brute_force_union(model)
    for name in UNION_ESTIMATORS:
        assert abs(exhaustive_estimator_mean(name, model) - truth) <= 1e-12, name


@PROPERTY
@given(finite_models())
def test_partition_means_equal_tail_expectation(model):
    for n in range(1, min(model.d, 2) + 1):
        for payoff in (Payoff.constant_one(), Payoff.residual_alternating(n - 1)):
            truth = brute_force_tail_expectation(model, n, payoff)
            got = exhaustive_estimator_mean("beta_n", model, n=n, payoff=payoff)
            assert abs(got - truth) <= 1e-12, (n, payoff)
