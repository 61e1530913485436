"""Property tests: exact estimator means equal brute-force enumeration on
random finite pattern models, including pmfs with exact zeros; sampled
estimates do not depend on the thread count; any model spec, valid or
not, gives a result or a RareUnionError, and so does any experiment
config."""

import math
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rareunion import (
    ESTIMATOR_NAMES,
    FinitePatternModel,
    LaplaceModel,
    NormalModel,
    Payoff,
    RareUnionError,
    bonferroni_bounds,
    brute_force_tail_expectation,
    brute_force_union,
    build_model,
    exhaustive_estimator_mean,
    oracle_for_model,
    run_estimator,
)
from rareunion.cli import ExperimentConfig

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
    """(model, gamma) of a normal, AR(1), Laplace or finite pattern model with d <= 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal", "ar1", "laplace", "finite"]))
    if kind == "normal":
        rho = draw(st.sampled_from([0.0, 0.3, 0.75]))
        return NormalModel.equicorrelated(d, rho), draw(st.sampled_from([0.5, 1.5, 2.5]))
    if kind == "ar1":
        phi = draw(st.sampled_from([-0.5, 0.5, 0.9]))
        model = build_model({"type": "ar1", "phi": phi, "sigma_eps": math.sqrt(1.0 - phi * phi), "d": d})
        return model, draw(st.sampled_from([0.5, 1.5, 2.5]))
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


# Each field mixes values its model accepts with values it must reject.
_ANY_BAD = st.sampled_from([None, "x", math.nan, math.inf, -1, 2.7, [], {}])
_FIELDS = {
    "d": [1, 2, 3, 4, 3.0, 0, True],
    "rho": [0.0, 0.5, -0.2, -0.9, 1.0],
    "phi": [0.5, -0.5, 0.0, 0.9, 1.0, -1.2],
    "sigma_eps": [1.0, 0.5, 0.0, -1.0],
    "family": ["clayton", "frank", "amh", "gumbel", "joe", 3],
    "theta": [0.5, 1.0, 2.0, 3.0, 0.0, -0.5, -1.0],
    "sigma": [
        [[1.0]],
        [[1.0, 0.5], [0.5, 1.0]],
        [[4.0, -0.3], [-0.3, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 0.0], [1.0, 1.0]],
        [[1.0, 0.5, 0.0], [0.5, 1.0]],
        [[-1.0]],
        [[1e308, 0.0], [0.0, 1e308]],
        [1.0, 2.0],
    ],
    "mu": [[0.0], [0.0, 1.0], [1.0, -1.0], [math.nan, 0.0], [0.0, 0.0, 0.0]],
    "pmf": [[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.5, 0.5], [0.125] * 8, [0.5, 0.6], [1.0], [-0.5, 1.5]],
}
_SPEC_FIELDS = (
    ("normal", ("d", "rho")),
    ("normal", ("sigma", "mu")),
    ("ar1", ("phi", "sigma_eps", "d")),
    ("laplace", ("d",)),
    ("archimedean", ("family", "theta", "d")),
    ("finite", ("pmf", "d")),
    ("student", ("d",)),
)


@st.composite
def model_specs(draw):
    """A model spec from the field pools, with at most one field spoilt:
    given a value of the wrong kind, or left out."""
    kind, fields = draw(st.sampled_from(_SPEC_FIELDS))
    spec = {"type": kind, **{key: draw(st.sampled_from(_FIELDS[key])) for key in fields}}
    spoilt = draw(st.sampled_from((None,) * len(fields) + fields))
    if spoilt is not None:
        if draw(st.booleans()):
            spec[spoilt] = draw(_ANY_BAD)
        else:
            del spec[spoilt]
    return spec


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(model_specs(), st.sampled_from([0.5, 0.9, 2.0, 0.0, -1.0, math.nan, math.inf]))
def test_any_spec_gives_a_result_or_a_rare_union_error(spec, gamma):
    try:
        model = build_model(spec)
        bounds = bonferroni_bounds(model, gamma)
        value = oracle_for_model(model, gamma, qmc_points=1 << 6)
    except RareUnionError:
        return
    assert 0.0 <= bounds.upper and math.isfinite(bounds.second), (spec, gamma, bounds)
    assert value is None or 0.0 <= value <= 1.0, (spec, gamma, value)


# Values each config field accepts, and values it must reject.
_CONFIG_GOOD = {
    "model": [{"type": "normal", "d": 2, "rho": 0.5}, {"type": "laplace", "d": 3}],
    "gamma_grid": [[1.0], [1.0, 2.0], ["1.5", 2], (0.5,)],
    "estimators": [["cmc"], ["cmc", "bonferroni"], []],
    "replicates": [1, 1000, 2.0, True],
    "master_seed": [0, 7, -3, 2.0, 2**70],
    "output": ["csv", "json"],
    "oracle": ["auto", "none", 1024],
    "switch_below_std": [None, 0.0, 1e-3, math.inf],
}
_CONFIG_BAD = {
    "model": [{"type": "laplace", "d": 0}, "normal"],
    "gamma_grid": [[2.0, 1.0], [], 5, "12", [math.nan], [10**400], ["x"]],
    "estimators": ["cmc", ["zeta"], [["cmc"]]],
    "replicates": [0, 2.7, "10", "x"],
    "master_seed": [1.5, "7", "x"],
    "output": ["xml"],
    "oracle": [0, -5, True, 2.5, "1024"],
    "switch_below_std": [-1.0, math.nan, 10**400, "x"],
}


@st.composite
def experiment_configs(draw):
    """A config from the field pools, with at most one field spoilt:
    given a rejected value, a value of the wrong kind, or left out."""
    config = {key: draw(st.sampled_from(pool)) for key, pool in _CONFIG_GOOD.items()}
    for key in ("estimators", "replicates", "master_seed", "output", "oracle", "switch_below_std"):
        if draw(st.booleans()):
            del config[key]  # the default
    spoilt = draw(st.sampled_from((None,) * 8 + tuple(_CONFIG_BAD)))
    if spoilt is not None:
        how = draw(st.sampled_from(("bad", "any", "absent")))
        if how == "absent":
            config.pop(spoilt, None)
        else:
            config[spoilt] = draw(st.sampled_from(_CONFIG_BAD[spoilt]) if how == "bad" else _ANY_BAD)
    return config


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(experiment_configs())
def test_any_config_gives_a_config_or_a_rare_union_error(obj):
    try:
        cfg = ExperimentConfig.from_dict(obj)
    except RareUnionError:
        return
    assert type(cfg.replicates) is int and cfg.replicates == obj.get("replicates", 100_000) >= 1
    assert type(cfg.master_seed) is int and cfg.master_seed == obj.get("master_seed", 0)
    assert all(math.isfinite(g) for g in cfg.gamma_grid) and list(cfg.gamma_grid) == sorted(set(cfg.gamma_grid))
    assert isinstance(obj.get("estimators", []), list) and set(cfg.estimators) <= set(ESTIMATOR_NAMES)
    assert cfg.oracle in ("auto", "none") or (type(cfg.oracle) is int and cfg.oracle >= 1)
    assert cfg.switch_below_std is None or cfg.switch_below_std >= 0.0
