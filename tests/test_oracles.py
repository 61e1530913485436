import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rareunion
from rareunion import oracles
from rareunion import (
    ModelSpecError,
    NormalModel,
    oracle_for_model,
    oracle_union_laplace,
    oracle_union_normal_equicorr,
    oracle_union_normal_qmc,
)
from rareunion.models import FinitePatternModel, LaplaceModel
from rareunion.oracles import _genz_cell, _sobol_engine
from rareunion.special import norm_sf

# Frozen benchmark values for the equicorrelated normal (d=4, rho=0.75)
# and the common-factor Laplace (d=4); four significant digits.
EQUICORR_REFERENCE = {2.0: "5.633e-02", 4.0: "1.095e-04", 6.0: "3.838e-09", 8.0: "2.481e-15"}
LAPLACE_REFERENCE = {6.0: "4.093e-04", 8.0: "2.435e-05", 10.0: "1.442e-06", 12.0: "8.526e-08"}


class TestEquicorrOracle:
    def test_reference_values_to_four_digits(self):
        for gamma, want in EQUICORR_REFERENCE.items():
            assert f"{oracle_union_normal_equicorr(4, 0.75, gamma):.3e}" == want

    def test_single_variable(self):
        for gamma in (0.0, 2.0, 5.0):
            assert oracle_union_normal_equicorr(1, 0.3, gamma) == pytest.approx(
                norm_sf(gamma), rel=1e-14
            )

    def test_independent_case_closed_form(self):
        got = oracle_union_normal_equicorr(3, 0.0, 2.0)
        assert got == pytest.approx(-math.expm1(3 * math.log1p(-norm_sf(2.0))), rel=1e-13)

    def test_negative_rho_rejected(self):
        with pytest.raises(ModelSpecError):
            oracle_union_normal_equicorr(3, -0.2, 2.0)

    @pytest.mark.parametrize(
        "d, rho, gamma, what",
        [
            (4, math.nan, 2.0, "rho"),  # once returned nan
            (4, 0.5, math.nan, "gamma"),
            (4, "0.5", 2.0, "rho"),
            (2.7, 0.5, 2.0, "dimension"),  # once truncated to 2
            (True, 0.5, 2.0, "dimension"),
        ],
    )
    def test_inputs_validated(self, d, rho, gamma, what):
        with pytest.raises(ModelSpecError, match=what):
            oracle_union_normal_equicorr(d, rho, gamma)


class TestLaplaceOracle:
    def test_reference_values_to_four_digits(self):
        for gamma, want in LAPLACE_REFERENCE.items():
            assert f"{oracle_union_laplace(4, gamma):.3e}" == want

    def test_single_variable_closed_form(self):
        for gamma in (1.0, 4.0, 9.0):
            assert oracle_union_laplace(1, gamma) == pytest.approx(
                0.5 * math.exp(-math.sqrt(2.0) * gamma), rel=1e-8
            )

    def test_gamma_validation(self):
        with pytest.raises(ModelSpecError):
            oracle_union_laplace(4, 0.0)

    @pytest.mark.parametrize(
        "d, gamma, what",
        [
            (2.7, 6.0, "dimension"),  # once the d=2 value, 2.0586863942209993e-04
            (True, 6.0, "dimension"),  # once the d=1 value
            (4, math.nan, "gamma"),  # once nan
            (4, math.inf, "gamma"),  # once 0.0
            (4, "6", "gamma"),
        ],
    )
    def test_inputs_validated(self, d, gamma, what):
        with pytest.raises(ModelSpecError, match=what):
            oracle_union_laplace(d, gamma)


class TestQmcOracle:
    def test_independence_closed_form(self):
        m = NormalModel(np.eye(3))
        est = oracle_union_normal_qmc(m, 2.0, points=1 << 15)
        ref = -math.expm1(3 * math.log1p(-norm_sf(2.0)))
        assert abs(est.value - ref) / ref < 1e-6

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("gamma", [2.0, 4.0])
    def test_cross_oracle_agreement(self, rho, d, gamma):
        m = NormalModel.equicorrelated(d, rho)
        est = oracle_union_normal_qmc(m, gamma, points=1 << 16)
        ref = oracle_union_normal_equicorr(d, rho, gamma)
        assert abs(est.value - ref) / ref < 1e-6

    def test_default_point_count_case(self):
        # one full-size run to exercise the default configuration
        m = NormalModel.equicorrelated(4, 0.5)
        est = oracle_union_normal_qmc(m, 2.0)
        ref = oracle_union_normal_equicorr(4, 0.5, 2.0)
        assert abs(est.value - ref) / ref < 1e-7

    def test_two_dimensional_inclusion_exclusion(self):
        rho = 0.4
        m = NormalModel(np.array([[1.0, rho], [rho, 1.0]]))
        gamma = 1.5
        est = oracle_union_normal_qmc(m, gamma, points=1 << 16)
        ref = 2 * norm_sf(gamma) - m.pair_survival(0, 1, gamma)
        assert abs(est.value - ref) / ref < 1e-6

    def test_deterministic(self):
        m = NormalModel.equicorrelated(3, -0.25)
        a = oracle_union_normal_qmc(m, 2.0, points=1 << 14)
        b = oracle_union_normal_qmc(m, 2.0, points=1 << 14)
        assert a.value == b.value
        assert a.error == b.error and a.error > 0.0

    # float.hex of (value, error) recorded from the serial out-of-place kernel
    GOLDEN = {
        "toeplitz8": (5.0, "0x1.33001d886233ap-19", "0x1.27fe6cf4f549fp-44"),
        "equicorr3_neg": (2.0, "0x1.167da37c1ef4ep-4", "0x1.57b604232c668p-31"),
    }

    @staticmethod
    def golden_model(key):
        if key == "toeplitz8":
            lags = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
            return NormalModel(0.5**lags)
        return NormalModel.equicorrelated(3, -0.25)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_bit_identical_for_any_thread_count(self, key, threads, monkeypatch):
        monkeypatch.setenv("RARE_UNION_THREADS", threads)
        gamma, value, error = self.GOLDEN[key]
        est = oracle_union_normal_qmc(self.golden_model(key), gamma, points=1 << 17)
        assert (est.value.hex(), est.error.hex()) == (value, error)

    @pytest.mark.parametrize("points", [1 << 10, 1 << 17])
    def test_in_place_kernel_matches_plain_expression(self, points):
        # the plain out-of-place Genz recursion, all Sobol rows drawn at once
        from scipy.special import erfc, ndtri

        def phi_bar(x):
            return 0.5 * erfc(x / math.sqrt(2.0))

        m = self.golden_model("toeplitz8")
        gamma = -1.0  # keeps e_i away from 1, where a changed last bit would round away
        for i in (1, 4, 7):
            order = [i, *range(i)]
            mu = m.mu[order]
            chol = np.linalg.cholesky(m.sigma[np.ix_(order, order)])
            u = _sobol_engine(i, (0, i)).random(points)
            tail = float(phi_bar((gamma - mu[0]) / chol[0, 0]))
            prob = np.full(points, tail)
            z = np.empty((points, i))
            z[:, 0] = -ndtri(np.clip(u[:, 0] * tail, 1e-317, 1.0))
            for k in range(1, i + 1):
                e = 1.0 - phi_bar((gamma - mu[k] - z[:, :k] @ chol[k, :k]) / chol[k, k])
                prob = prob * e
                if k < i:
                    z[:, k] = ndtri(np.clip(u[:, k] * e, 1e-317, 1.0))
            got = _genz_cell(mu, chol, gamma, _sobol_engine(i, (0, i)), points)
            assert got.hex() == float(prob.mean()).hex()

    def test_sobol_engines_come_from_the_module_attribute(self, monkeypatch):
        real, made = oracles.qmc, []

        class Recording:
            def Sobol(self, dim, **kwargs):
                made.append(dim)
                return real.Sobol(dim, **kwargs)

        monkeypatch.setattr(oracles, "qmc", Recording())
        oracle_union_normal_qmc(NormalModel.equicorrelated(3, -0.25), 2.0, points=1 << 10)
        assert made == [1, 2] * 8  # cells 1 and 2 of each of the 8 scrambles

    @pytest.mark.parametrize(
        "model",
        [LaplaceModel(3), FinitePatternModel(np.full(4, 0.25))],
        ids=["laplace", "finite"],
    )
    def test_non_normal_model_rejected(self, model):
        # a LaplaceModel once raised AttributeError for its missing mu
        with pytest.raises(ModelSpecError, match="NormalModel"):
            oracle_union_normal_qmc(model, 2.0, points=1 << 10)

    def test_dimension_limit(self):
        m = NormalModel(np.eye(9))
        with pytest.raises(ModelSpecError):
            oracle_union_normal_qmc(m, 1.0, points=1 << 10)

    def test_float_conversion(self):
        m = NormalModel(np.eye(2))
        est = oracle_union_normal_qmc(m, 1.0, points=1 << 12)
        assert float(est) == est.value


class TestQmcRelativeTarget:
    # float.hex of the one-pass 2^20-point value (rel_target=0)
    REFERENCE = {
        ("toeplitz8", 5.0): "0x1.33001eba3e56cp-19",
        ("toeplitz8", 8.0): "0x1.669cf16de6945p-48",
        ("equicorr5_neg", 3.0): "0x1.ba3fb7e6c401cp-8",
    }

    @staticmethod
    def model(key):
        if key == "toeplitz8":
            return TestQmcOracle.golden_model(key)
        return NormalModel.equicorrelated(5, -0.2)

    @pytest.mark.parametrize(
        "key, gamma, target, points",
        [
            ("toeplitz8", 5.0, 1e-6, 1 << 12),
            ("toeplitz8", 8.0, 1e-7, 1 << 12),
            ("equicorr5_neg", 3.0, 1e-7, 1 << 14),
        ],
    )
    def test_early_stop_is_within_its_spread_of_the_full_value(self, key, gamma, target, points):
        est = oracle_union_normal_qmc(self.model(key), gamma, rel_target=target)
        ref = float.fromhex(self.REFERENCE[key, gamma])
        assert est.points == points
        assert est.error / est.value <= target
        assert abs(est.value - ref) <= 4 * est.error

    def test_doubling_draws_only_new_points(self, monkeypatch):
        real, rows = oracles.qmc, []

        class Counting:
            def Sobol(self, dim, **kwargs):
                engine = real.Sobol(dim, **kwargs)
                draw = engine.random

                def random(n):
                    out = draw(n)
                    rows.append(len(out))
                    return out

                engine.random = random
                return engine

        monkeypatch.setattr(oracles, "qmc", Counting())
        est = oracle_union_normal_qmc(self.model("equicorr5_neg"), 3.0, rel_target=1e-7)
        assert est.points == 1 << 14  # two doublings
        assert sum(rows) == 8 * 4 * est.points

    @pytest.mark.parametrize("cap", [1 << 13, 1 << 14])
    def test_cap_stops_the_doubling(self, cap):
        m = self.model("equicorr5_neg")
        est = oracle_union_normal_qmc(m, 3.0, points=cap, rel_target=1e-12)
        assert est.points == cap
        # a power-of-two mean is the average of its halves' means: numpy's
        # pairwise sum splits at the half and dividing by two is exact
        one_pass = oracle_union_normal_qmc(m, 3.0, points=cap)
        assert (est.value.hex(), est.error.hex()) == (one_pass.value.hex(), one_pass.error.hex())

    @pytest.mark.parametrize("points", [1 << 10, 1 << 12])
    def test_small_counts_are_one_pass(self, points):
        m = self.model("equicorr5_neg")
        est = oracle_union_normal_qmc(m, 3.0, points=points, rel_target=1e-12)
        one_pass = oracle_union_normal_qmc(m, 3.0, points=points)
        assert est == one_pass and est.points == points

    def test_bit_identical_for_any_thread_count(self, monkeypatch):
        values = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RARE_UNION_THREADS", threads)
            est = oracle_union_normal_qmc(self.model("equicorr5_neg"), 3.0, rel_target=1e-7)
            values.add((est.value.hex(), est.error.hex(), est.points))
        assert len(values) == 1

    def test_doubling_keeps_sobol_balance(self):
        # the engine raises on a draw that is not an aligned power of two
        # (tests/test_qmc.py), so a doubling run that completes never tripped it
        est = oracle_union_normal_qmc(self.model("equicorr5_neg"), 3.0, rel_target=1e-7)
        assert est.points > 1 << 12

    def test_single_variable_reports_no_points(self):
        est = oracle_union_normal_qmc(NormalModel(np.eye(1)), 2.0, rel_target=1e-6)
        assert (est.value, est.error, est.points) == (norm_sf(2.0), 0.0, 0)

    def test_oracle_for_model_runs_under_the_target(self, monkeypatch):
        seen = []

        def recording(model, gamma, points, rel_target):
            seen.append((points, rel_target))
            return oracles.QmcEstimate(0.5, 0.0, points)

        monkeypatch.setattr(oracles, "oracle_union_normal_qmc", recording)
        assert oracle_for_model(self.model("equicorr5_neg"), 3.0, qmc_points=1 << 15) == 0.5
        assert seen == [(1 << 15, oracles.QMC_REL_TARGET)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points": -5},
            {"points": 0},
            {"points": True},
            {"points": 2.5},
            {"rel_target": -1e-6},
            {"rel_target": math.nan},
            {"rel_target": math.inf},
            {"rel_target": "x"},
            {"rel_target": "1e-6"},
            {"gamma": math.nan},
            {"gamma": "2.5"},
            {"points": 1 << 31},  # past the 2^30-point Sobol sequence; 1 << 40 once ran out of memory
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        # points=-5 and points=0 once integrated 16 points; "1e-6" was once a target;
        # a nan gamma once gave a nan value and "2.5" a numpy type error
        m = NormalModel.equicorrelated(3, -0.25)
        with pytest.raises(ModelSpecError, match=next(iter(kwargs))):
            oracle_union_normal_qmc(m, **{"gamma": 2.0, **kwargs})

    @pytest.mark.parametrize("qmc_points", [0, -5, True])
    def test_oracle_for_model_count_rejected(self, qmc_points):
        with pytest.raises(ModelSpecError, match="qmc_points"):
            oracle_for_model(NormalModel.equicorrelated(3, -0.25), 2.0, qmc_points=qmc_points)


class TestOracleDispatch:
    def test_equicorrelated_uses_one_factor_route(self):
        m = NormalModel.equicorrelated(4, 0.75)
        assert oracle_for_model(m, 4.0) == pytest.approx(
            oracle_union_normal_equicorr(4, 0.75, 4.0), rel=0
        )

    def test_negative_rho_routes_to_qmc(self):
        m = NormalModel.equicorrelated(3, -0.25)
        v = oracle_for_model(m, 2.0, qmc_points=1 << 14)
        assert 0.0 < v < 1.0

    def test_laplace_and_finite(self):
        assert oracle_for_model(LaplaceModel(4), 6.0) == pytest.approx(4.093e-4, rel=1e-3)
        pmf = np.array([0.25, 0.25, 0.25, 0.25])
        assert oracle_for_model(FinitePatternModel(pmf), 0.0) == pytest.approx(0.75)

    def test_ar1_routes_through_gaussian_qmc(self):
        from rareunion import build_model, run_estimator

        m = build_model({"type": "ar1", "phi": 0.5, "sigma_eps": math.sqrt(0.75), "d": 5})
        v = oracle_for_model(m, 1.5, qmc_points=1 << 15)
        r = run_estimator("cmc", m, 1.5, 200_000, 31)
        assert abs(r.estimate - v) < 4 * r.stderr

    def test_non_finite_threshold_rejected(self):
        for model in (NormalModel.equicorrelated(4, 0.75), LaplaceModel(4)):
            with pytest.raises(ModelSpecError):
                oracle_for_model(model, math.nan)

    def test_equicorrelation_is_read_off_the_covariance(self):
        # the sigma spelling of this law once took the QMC route and raised "d <= 8"
        from rareunion import build_model

        sigma = 0.25 * np.eye(10) + 0.75 * np.ones((10, 10))
        by_sigma = build_model({"type": "normal", "sigma": sigma.tolist()})
        by_rho = build_model({"type": "normal", "d": 10, "rho": 0.75})
        assert by_sigma.equicorrelation == by_rho.equicorrelation == 0.75
        assert oracle_for_model(by_sigma, 4.0) == oracle_for_model(by_rho, 4.0)

    @pytest.mark.parametrize(
        "model",
        [
            NormalModel(0.25 * np.eye(3) + 0.75 * np.ones((3, 3)), mu=[0.0, 0.0, 0.1]),
            NormalModel(2.0 * np.eye(3)),
            NormalModel([[1.0, 0.5, 0.5], [0.5, 1.0, 0.4], [0.5, 0.4, 1.0]]),
        ],
        ids=["shifted_mean", "scaled_variance", "unequal_correlation"],
    )
    def test_not_equicorrelated(self, model):
        assert model.equicorrelation is None

    def test_normal_beyond_qmc_dimension_raises(self):
        # not equicorrelated: np.eye(9) is, with rho = 0, and takes the one-factor route
        lags = np.abs(np.subtract.outer(np.arange(9), np.arange(9)))
        with pytest.raises(ModelSpecError, match="d <= 8"):
            oracle_for_model(NormalModel(0.5**lags), 3.0)

    def test_archimedean_has_no_oracle(self):
        from rareunion import ArchimedeanModel

        assert oracle_for_model(ArchimedeanModel("clayton", 1.0, 3), 0.9) is None


def test_equicorr_oracle_is_fast():
    t0 = time.perf_counter()
    for gamma in EQUICORR_REFERENCE:
        oracle_union_normal_equicorr(4, 0.75, gamma)
    assert time.perf_counter() - t0 < 1.0


def test_import_leaves_scipy_stats_unloaded():
    # the quadrature and the Sobol engine are the package's own, so neither
    # importing the package nor running the QMC oracle loads scipy.stats or
    # scipy.integrate (which loads scipy.optimize and scipy.sparse)
    src = str(Path(rareunion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse")
    code = "\n".join([
        "import sys, rareunion, rareunion.cli",
        "model = rareunion.NormalModel.equicorrelated(3, -0.25)",
        "rareunion.oracle_union_normal_qmc(model, 2.0, points=1 << 10, rel_target=1e-9)",
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] in {[h.split('.') for h in heavy]!r}))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
