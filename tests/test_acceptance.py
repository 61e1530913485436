"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each criterion prints an explicit pass/fail line (visible with ``pytest -s``
or ``-rA``).  The paper-scale Monte Carlo criterion runs a million
replicates per cell; set ``RAREUNION_SKIP_PAPER_SCALE=1`` to skip it during
quick iterations.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import rareunion as ru
from rareunion import events as ev
from rareunion.estimators import (
    exhaustive_estimator_mean,
    exhaustive_residual_second_moment,
    exhaustive_variance_components,
)
from rareunion.samplers import laplace_conditional_exceedance, sample_truncated_std_normal
from rareunion.special import norm_pdf, norm_sf
from sampling_references import rejection_pair_exceedance_oracle

SEED = 20260810

# Reference values for the two benchmark models, frozen at four significant
# digits from the deterministic oracles (cross-checked in tests/test_oracles.py).
EQUICORR_UNION = {2.0: "5.633e-02", 4.0: "1.095e-04", 6.0: "3.838e-09", 8.0: "2.481e-15"}
LAPLACE_UNION = {6.0: "4.093e-04", 8.0: "2.435e-05", 10.0: "1.442e-06", 12.0: "8.526e-08"}

EQUICORR_UPPER = {2.0: "9.100e-02", 4.0: "1.267e-04", 6.0: "3.946e-09", 8.0: "2.488e-15"}
EQUICORR_SECOND = {2.0: "4.000e-02", 4.0: "1.055e-04", 6.0: "3.827e-09", 8.0: "2.480e-15"}
LAPLACE_UPPER = {6.0: "4.130e-04", 8.0: "2.441e-05", 10.0: "1.443e-06", 12.0: "8.527e-08"}
LAPLACE_SECOND = {6.0: "4.093e-04", 8.0: "2.435e-05", 10.0: "1.442e-06", 12.0: "8.526e-08"}

# Per-replicate standard deviations of the four sampling-based estimators on
# the equicorrelated benchmark at one million replicates.
BENCHMARK_STD = {
    "alpha1_is": {2.0: 2.817e-02, 4.0: 3.071e-05, 6.0: 4.650e-10, 8.0: 9.972e-17},
    "alpha2_is": {2.0: 9.901e-03, 4.0: 4.244e-06, 6.0: 1.908e-11, 8.0: 8.575e-19},
    "beta1_alpha": {2.0: 1.929e-02, 4.0: 2.089e-05, 6.0: 3.197e-10, 8.0: 6.994e-17},
    "beta2_alpha": {2.0: 1.306e-02, 4.0: 5.265e-06, 6.0: 2.310e-11, 8.0: 1.035e-18},
}

GAMMAS = (2.0, 4.0, 6.0, 8.0)
SAMPLING_ESTIMATORS = ("alpha1_is", "alpha2_is", "beta1_alpha", "beta2_alpha")


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    print(f"[criterion {number:02d}] PASS: {description}")


def random_finite(seed, d):
    pmf = np.random.default_rng(seed).dirichlet(np.ones(1 << d))
    return ru.FinitePatternModel(pmf / pmf.sum())


def test_criterion_01_equicorr_union_oracle():
    with criterion(1, "equicorrelated normal union oracle, 4 significant digits, < 1 s"):
        t0 = time.perf_counter()
        values = {g: ru.oracle_union_normal_equicorr(4, 0.75, g) for g in GAMMAS}
        elapsed = time.perf_counter() - t0
        for g, want in EQUICORR_UNION.items():
            assert f"{values[g]:.3e}" == want, (g, values[g], want)
        assert elapsed < 1.0, f"oracle took {elapsed:.2f}s"


def test_criterion_02_laplace_union_oracle():
    with criterion(2, "common-factor Laplace union oracle, 4 significant digits"):
        for g, want in LAPLACE_UNION.items():
            got = ru.oracle_union_laplace(4, g)
            assert f"{got:.3e}" == want, (g, got, want)


def test_criterion_03_deterministic_bounds():
    with criterion(3, "first- and second-order inclusion-exclusion bounds match references"):
        m = ru.NormalModel.equicorrelated(4, 0.75)
        for g in GAMMAS:
            bounds = ru.bonferroni_bounds(m, g)
            assert f"{bounds.upper:.3e}" == EQUICORR_UPPER[g], (g, bounds.upper)
            assert f"{bounds.second:.3e}" == EQUICORR_SECOND[g], (g, bounds.second)
        lap = ru.LaplaceModel(4)
        for g in LAPLACE_UPPER:
            bounds = ru.bonferroni_bounds(lap, g)
            assert f"{bounds.upper:.3e}" == LAPLACE_UPPER[g], (g, bounds.upper)
            assert f"{bounds.second:.3e}" == LAPLACE_SECOND[g], (g, bounds.second)


def _run_consistency(replicates, check_std, budget_s, label):
    model = ru.NormalModel.equicorrelated(4, 0.75)
    oracle = {g: ru.oracle_union_normal_equicorr(4, 0.75, g) for g in GAMMAS}
    t0 = time.perf_counter()
    failures = []
    for name, gamma in itertools.product(SAMPLING_ESTIMATORS, GAMMAS):
        res = ru.run_estimator(name, model, gamma, replicates, SEED)
        err = abs(res.estimate - oracle[gamma])
        if err > 4 * res.stderr:
            failures.append(f"{name}@{gamma}: |err|={err:.3e} > 4*stderr={4*res.stderr:.3e}")
        if check_std:
            want = BENCHMARK_STD[name][gamma]
            ratio = res.sample_std / want
            if not (1 / 1.25 <= ratio <= 1.25):
                failures.append(f"{name}@{gamma}: std ratio {ratio:.3f} outside [0.8, 1.25]")
    elapsed = time.perf_counter() - t0
    assert not failures, "; ".join(failures)
    assert elapsed < budget_s, f"{label} run took {elapsed:.0f}s > {budget_s}s"
    return elapsed


def test_criterion_04_monte_carlo_consistency_desk_scale():
    with criterion(4, "desk-scale consistency: all sampling estimators within 4 s.e. in < 60 s"):
        _run_consistency(100_000, check_std=False, budget_s=60.0, label="desk-scale")


@pytest.mark.skipif(
    os.environ.get("RAREUNION_SKIP_PAPER_SCALE") == "1",
    reason="paper-scale run skipped via RAREUNION_SKIP_PAPER_SCALE",
)
def test_criterion_04_monte_carlo_consistency_paper_scale():
    with criterion(
        4, "paper-scale consistency: 4 s.e. agreement and per-replicate spreads within x1.25"
    ):
        _run_consistency(1_000_000, check_std=True, budget_s=120.0, label="paper-scale")


def test_criterion_05_degeneration_to_deterministic_bounds():
    with criterion(5, "deep-tail degeneration collapses exactly onto the deterministic bounds"):
        model = ru.NormalModel.equicorrelated(4, 0.75)
        for gamma in (6.0, 8.0):
            bounds = ru.bonferroni_bounds(model, gamma)
            r1 = ru.estimate_alpha_n(model, gamma, 1, 1_000_000, SEED + 1)
            assert r1.degenerate and r1.sample_std == 0.0
            assert r1.estimate == bounds.upper
            r2 = ru.estimate_alpha_n(model, gamma, 2, 1_000_000, SEED + 2)
            assert r2.degenerate and r2.sample_std == 0.0
            assert r2.estimate == bounds.second


def test_criterion_06_exhaustive_unbiasedness_on_random_models():
    with criterion(6, "exhaustive estimator expectations match enumeration on 50 random models"):
        specs = [(2, 17), (3, 17), (4, 16)]  # dimensions and model counts
        checked = 0
        for d, count in specs:
            for k in range(count):
                model = random_finite(1000 * d + k, d)
                union = ru.brute_force_union(model)
                for name in (
                    "cmc",
                    "alpha1",
                    "alpha2",
                    "alpha1_is",
                    "alpha2_is",
                    "beta1_alpha",
                    "beta2_alpha",
                ):
                    got = exhaustive_estimator_mean(name, model)
                    assert abs(got - union) <= 1e-12, (name, d, k, got, union)
                for n in (1, 2):
                    for payoff in (
                        ru.Payoff.constant_one(),
                        ru.Payoff.residual_alternating(n - 1),
                    ):
                        truth = ru.brute_force_tail_expectation(model, n, payoff)
                        got = exhaustive_estimator_mean("beta_n", model, n=n, payoff=payoff)
                        assert abs(got - truth) <= 1e-12, (n, d, k, got, truth)
                checked += 1
        assert checked == 50


def test_criterion_07_partition_and_count_identities():
    with criterion(7, "subset-count identity and partition disjointness/coverage, full enumeration"):
        for d in range(1, 7):
            patterns = ev.enumerate_patterns(d)
            counts = patterns.sum(axis=1)
            # counting identity: i-subsets of occurred events
            for i in range(d + 1):
                direct = np.zeros(len(patterns), dtype=int)
                for combo in itertools.combinations(range(d), i):
                    direct += patterns[:, combo].all(axis=1) if combo else 1
                expected = np.array([ev.binomial_term(int(e), i) for e in counts])
                assert (direct == expected).all(), (d, i)
            # partition: disjoint cells covering exactly the right patterns
            for m in range(1, d + 1):
                cells = ev.partition_cells(d, m)
                hits = np.zeros(len(patterns), dtype=int)
                for cell in cells:
                    hits += cell.contains(patterns)
                assert (hits[counts >= m] == 1).all(), (d, m)
                assert (hits[counts < m] == 0).all(), (d, m)


def test_criterion_08_variance_inequalities_exact():
    with criterion(8, "second-moment and partition variance inequalities hold exactly"):
        for k in range(12):
            d = 2 + k % 3
            model = random_finite(5000 + k, d)
            lhs = exhaustive_residual_second_moment(model, 1)
            q = sum(
                model.pair_survival(i, j) for i in range(d) for j in range(i + 1, d)
            )
            assert lhs <= 2.0 * q + 1e-15, (k, lhs, q)
            for n in (1, 2):
                for payoff in (
                    ru.Payoff.constant_one(),
                    ru.Payoff.custom(lambda x, p: 1.0 + p.sum(axis=1) ** 2),
                ):
                    comp = exhaustive_variance_components(model, n, payoff)
                    assert (
                        comp["conditional_sweep_var"]
                        <= comp["max_cell_prob"] * comp["crude_sweep_var"] + 1e-15
                    ), (k, n)


def test_criterion_09_sampler_distributions():
    with criterion(9, "tail sampler distributions match their analytic references"):
        # truncated normal mean deep in the tail
        rng = np.random.default_rng(SEED + 10)
        x = sample_truncated_std_normal(4.0, rng, 100_000)
        target = norm_pdf(4.0) / norm_sf(4.0)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - target) < 4 * se, (x.mean(), target)

        # conditional exceedance frequency of the Laplace sampler
        lap = ru.LaplaceModel(4)
        gamma = 6.0
        draws = laplace_conditional_exceedance(4, 0, gamma, np.random.default_rng(SEED + 11), 1_000_000)
        p = lap.pair_survival(0, 1, gamma) / lap.marginal_survival(0, gamma)
        emp = (draws[:, 1] > gamma).mean()
        se = math.sqrt(p * (1 - p) / draws.shape[0])
        assert abs(emp - p) < 4 * se, (emp, p)

        # the pair sampler the estimators draw from, against plain rejection
        m = ru.NormalModel.equicorrelated(2, 0.75)
        pair = m.conditional_given_pair_exceedance(0, 1, 2.0)
        xi = pair.draw(np.random.default_rng(SEED + 12), 30_000)[:, 0]
        ri, _ = rejection_pair_exceedance_oracle(m, 0, 1, 2.0, np.random.default_rng(SEED + 13), raw=800_000)
        se = math.sqrt(xi.var(ddof=1) / xi.size + ri.var(ddof=1) / ri.size)
        assert abs(xi.mean() - ri.mean()) < 4 * se, (xi.mean(), ri.mean())


def test_criterion_10_classification_suites():
    with criterion(10, "structural efficiency classification across all catalogued cases"):
        assert ru.classify_normal(ru.NormalModel.equicorrelated(4, 0.75)).level == ru.INEFFICIENT
        assert ru.classify_normal(ru.NormalModel.equicorrelated(4, 0.0)).level == ru.LE
        assert ru.classify_normal(ru.NormalModel.equicorrelated(4, -0.25)).level == ru.BRE

        # AR(1) is the Toeplitz normal.  Its extremal pair has correlation
        # rho = phi (lag one, phi > 0) or phi**2 (lag two, phi < 0), so the
        # residual tail index (1 + rho) / 2 exceeds 1/2 and the first-order
        # estimator is inefficient; BRE needs eta <= 1/2, which only
        # independence and a lone negatively correlated pair give.
        for phi, d, level in ((0.5, 5, ru.INEFFICIENT), (-0.5, 5, ru.INEFFICIENT),
                              (0.0, 5, ru.BRE), (-0.5, 2, ru.BRE)):
            model = ru.AR1Model(phi, math.sqrt(1.0 - phi * phi), d)
            assert ru.classify_model(model).level == level, (phi, d)

        for rule in ru.ARCHIMEDEAN_TABLE:
            thetas = []
            lo, hi = rule.valid.lo, rule.valid.hi
            if math.isfinite(lo):
                thetas.append(lo if rule.valid.lo_closed else lo + 0.25)
            else:
                thetas.append(-2.0)
            if math.isfinite(hi):
                thetas.append(hi if rule.valid.hi_closed else (thetas[0] + hi) / 2)
            else:
                thetas.append(thetas[0] + 3.0)
            for probe in (0.0, 1.0, 2.0):
                if rule.valid.contains(probe):
                    thetas.append(probe)
            for theta in sorted(set(thetas)):
                verdict = ru.classify_archimedean(rule.number, theta)
                if rule.theta_efficient(theta):
                    assert verdict.level == ru.BRE, (rule.number, theta)
                else:
                    assert verdict.level != ru.BRE, (rule.number, theta)

        for row in ru.LEDFORD_TAWN_TABLE:
            level = ru.classify_ledford_tawn(ru.LedfordTawnParams(row.eta, row.L)).level
            if row.eta == 0.5:
                assert level == ru.BRE, row
            else:
                assert level != ru.BRE, row


def test_criterion_11_efficiency_ratio_diagnostic():
    with criterion(11, "efficiency ratio: constant at independence, growing under dependence"):
        indep = ru.empirical_efficiency_ratio(ru.NormalModel.equicorrelated(2, 0.0), [1, 2, 3, 4, 5])
        for row in indep.rows:
            assert abs(row.ratio_strict - 1.0) <= 1e-9, row
        assert indep.strict_trend == "constant"

        dep = ru.empirical_efficiency_ratio(ru.NormalModel.equicorrelated(2, 0.75), [1, 2, 3, 4, 5])
        values = [row.ratio_strict for row in dep.rows]
        assert all(b > a for a, b in zip(values, values[1:])), values
        assert dep.strict_trend == "increasing"
