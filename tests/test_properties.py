"""Property tests: exact estimator means equal brute-force enumeration on
random finite pattern models, including pmfs with exact zeros; sampled
estimates do not depend on the thread count."""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rareunion import (
    FinitePatternModel,
    LaplaceModel,
    NormalModel,
    Payoff,
    RareUnionError,
    brute_force_tail_expectation,
    brute_force_union,
    exhaustive_estimator_mean,
    run_estimator,
)

UNION_ESTIMATORS = ("cmc", "alpha1", "alpha2", "alpha1_is", "alpha2_is", "beta1_alpha", "beta2_alpha")

# a zero entry often enough that zero-weight laws and all-zero layers occur
_MASS = st.one_of(st.just(0.0), st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def finite_models(draw, max_d=5):
    d = draw(st.integers(1, max_d))
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


@st.composite
def sampled_models(draw):
    """(model, gamma) of a normal, Laplace or finite pattern model with d <= 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal", "laplace", "finite"]))
    if kind == "normal":
        rho = draw(st.sampled_from([0.0, 0.3, 0.75]))
        return NormalModel.equicorrelated(d, rho), draw(st.sampled_from([0.5, 1.5, 2.5]))
    if kind == "laplace":
        return LaplaceModel(d), draw(st.sampled_from([1.0, 2.0]))
    return draw(finite_models(max_d=4)), 0.0


def _outcome(name, model, gamma, replicates, threads):
    with mock.patch.dict(os.environ, {"RARE_UNION_THREADS": threads}):
        try:
            r = run_estimator(name, model, gamma, replicates, 99)
        except RareUnionError as exc:
            return type(exc).__name__
    return r.estimate.hex(), r.sample_std.hex(), r.replicates, r.degenerate


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    sampled_models(),
    st.sampled_from(UNION_ESTIMATORS),
    st.sampled_from([1, 2, (1 << 16) + 1, (1 << 17) + 1]),
)
def test_estimates_identical_for_any_thread_count(model_gamma, name, replicates):
    model, gamma = model_gamma
    assert _outcome(name, model, gamma, replicates, "1") == _outcome(name, model, gamma, replicates, "3")
