import inspect
import math

import numpy as np
import pytest
from scipy.stats import invgauss, kstest

from rareunion import ModelSpecError, NormalModel, estimators, models
from rareunion.samplers import (
    GaussianConditional,
    _trunc_std_normal,
    block_rows,
    _pair_law,
    _PairLaw,
    gaussian_rows,
    gibbs_bivariate_truncated,
    laplace_conditional_exceedance,
    sample_inverse_gaussian,
    sample_truncated_std_normal,
    sample_truncated_std_normal_pair,
    shifted_exponential_rate,
)
from rareunion._rng import derive_generator
from rareunion.special import bivariate_normal_orthant, integrate, norm_logsf, norm_pdf, norm_sf
from sampling_references import laplace_sqrt_ig_pdf, rejection_pair_exceedance_oracle

SQRT2 = math.sqrt(2.0)


def rng_for(tag):
    import zlib

    return np.random.default_rng(zlib.crc32(tag.encode()))


def mills_mean(gamma):
    return norm_pdf(gamma) / norm_sf(gamma)


DRAW_ENTRY_POINTS = [
    models.DependenceModel.sample,
    models.NormalModel.sample,
    models.LaplaceModel.sample,
    models.ArchimedeanModel.sample,
    models.FinitePatternModel.sample,
    GaussianConditional.draw,
    models._LaplaceTail.draw,
    models._FiniteConditional.draw,
    sample_truncated_std_normal,
    sample_truncated_std_normal_pair,
    gibbs_bivariate_truncated,
    laplace_conditional_exceedance,
    sample_inverse_gaussian,
]


def test_every_draw_takes_a_required_size():
    # every draw is a batch of ``size`` rows; a default would bring back a
    # second, single-draw mode that no estimator uses
    with_default = [
        fn.__qualname__
        for fn in DRAW_ENTRY_POINTS
        if inspect.signature(fn).parameters["size"].default is not inspect.Parameter.empty
    ]
    assert not with_default, f"size has a default in {with_default}"


_PAPER = NormalModel.equicorrelated(3, 0.5)
_FINITE = models.FinitePatternModel(np.full(8, 0.125))

# one call of each concrete entry point above, as a function of ``size``
DRAW_CALLS = {
    "NormalModel.sample": lambda rng, size: _PAPER.sample(rng, size),
    "LaplaceModel.sample": lambda rng, size: models.LaplaceModel(3).sample(rng, size),
    "ArchimedeanModel.sample":
        lambda rng, size: models.ArchimedeanModel("clayton", 2.0, 3).sample(rng, size),
    "FinitePatternModel.sample": lambda rng, size: _FINITE.sample(rng, size),
    "GaussianConditional.draw":
        lambda rng, size: _PAPER.conditional_given_pair_exceedance(0, 1, 2.0).draw(rng, size),
    "_LaplaceTail.draw":
        lambda rng, size: models.LaplaceModel(3).conditional_given_exceedance(0, 2.0).draw(rng, size),
    "_FiniteConditional.draw": lambda rng, size: _FINITE.conditional_given_exceedance(0).draw(rng, size),
    "sample_truncated_std_normal": lambda rng, size: sample_truncated_std_normal(2.0, rng, size),
    "sample_truncated_std_normal_pair": lambda rng, size: sample_truncated_std_normal_pair(2.0, 1.5, 0.5, rng, size),
    "gibbs_bivariate_truncated": lambda rng, size: gibbs_bivariate_truncated(_PAPER, 0, 1, 2.0, 3, rng, size),
    "laplace_conditional_exceedance": lambda rng, size: laplace_conditional_exceedance(3, 0, 2.0, rng, size),
    "sample_inverse_gaussian": lambda rng, size: sample_inverse_gaussian(1.0, 2.0, rng, size),
}


def test_every_concrete_draw_has_a_size_case():
    concrete = {fn.__qualname__ for fn in DRAW_ENTRY_POINTS} - {"DependenceModel.sample"}
    assert set(DRAW_CALLS) == concrete


@pytest.mark.parametrize("name", sorted(DRAW_CALLS))
def test_size_is_a_non_negative_integer(name):
    # ``int(size)`` once drew 2 rows for 2.5 and 1 for True, and failed on
    # -1 with numpy's bare ValueError
    draw = DRAW_CALLS[name]
    for bad in (2.5, True, -1):
        with pytest.raises(ModelSpecError, match="size"):
            draw(rng_for(name), bad)
    out = draw(rng_for(name), 0)
    for part in out if isinstance(out, tuple) else (out,):
        assert len(part) == 0
    out = draw(rng_for(name), np.int64(3))
    for part in out if isinstance(out, tuple) else (out,):
        assert len(part) == 3


def _row_values(x):
    """A per-row function that reads only its own row, for the ``_per_row`` draws."""
    return x[:, 0] * x[:, -1] + x.max(axis=1) - (x > 0.5).sum(axis=1)


# the draws that take the estimators' value function and evaluate each row
# block as it is drawn; every other draw returns its rows
PER_ROW_DRAWS = [
    fn.__qualname__ for fn in DRAW_ENTRY_POINTS if "_per_row" in inspect.signature(fn).parameters
]


def test_only_the_gaussian_draws_take_a_per_row_function():
    assert set(PER_ROW_DRAWS) == {"NormalModel.sample", "GaussianConditional.draw"}


# the (model, gamma, events) of each model and handle draw in DRAW_CALLS, as
# the estimators' runner looks its draw up
RUNNER_LAWS = {
    "NormalModel.sample": (_PAPER, 2.0, ()),
    "LaplaceModel.sample": (models.LaplaceModel(3), 2.0, ()),
    "ArchimedeanModel.sample": (models.ArchimedeanModel("clayton", 2.0, 3), 0.5, ()),
    "FinitePatternModel.sample": (_FINITE, 0.0, ()),
    "GaussianConditional.draw": (_PAPER, 2.0, (0, 1)),
    "_LaplaceTail.draw": (models.LaplaceModel(3), 2.0, (0,)),
    "_FiniteConditional.draw": (_FINITE, 0.0, (0,)),
}


@pytest.mark.parametrize("name", sorted(RUNNER_LAWS))
@pytest.mark.parametrize("size", [0, 1, 7])
def test_per_row_draw_returns_one_value_per_row(name, size):
    # through the runner every model and handle draw gives ``size`` values,
    # the count the benchmark's tracer reads as rows, with the bits of the
    # function on the whole draw from the same stream
    got = estimators._sampler(*RUNNER_LAWS[name])(rng_for(name), size, _per_row=_row_values)
    assert got.shape == (size,)
    assert list(map(float.hex, got)) == list(map(float.hex, _row_values(DRAW_CALLS[name](rng_for(name), size))))


def _masked_truncated_normal(gammas, rng):
    """The per-element rejection loop with sign masks in every round: the
    reference that the one-threshold and one-sign rounds must reproduce."""
    gammas = np.asarray(gammas, dtype=float)
    out, pending = np.empty(gammas.size), np.arange(gammas.size)
    while pending.size:
        g = gammas[pending]
        pos, n = g >= 0.0, pending.size
        cand, accept = np.empty(n), np.zeros(n, dtype=bool)
        if pos.any():
            gp = g[pos]
            lam = shifted_exponential_rate(gp)
            c = gp + rng.exponential(1.0, gp.size) / lam
            logu = np.log(rng.random(gp.size))
            cand[pos], accept[pos] = c, logu < -0.5 * (c - lam) ** 2
        if (~pos).any():
            c = rng.standard_normal(int((~pos).sum()))
            cand[~pos], accept[~pos] = c, c > g[~pos]
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
    return out


class TestTruncatedNormalPaths:
    """One threshold, one threshold per row and the rounds of one sign draw
    the same numbers as the masked per-element loop and leave the generator
    in the same state, bit for bit."""

    SIZES = [0, 1, 7, 10_000]

    @staticmethod
    def same(got, rng, want, ref_rng):
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    @pytest.mark.parametrize("t", [0.0, 4.0, 1e200, -1.0])
    @pytest.mark.parametrize("n", SIZES)
    def test_one_threshold(self, t, n):
        want = _masked_truncated_normal(np.full(n, t), ref := derive_generator(9, n))
        for draw in (lambda rng: _trunc_std_normal(t, rng, n), lambda rng: sample_truncated_std_normal(t, rng, n)):
            self.same(draw(rng := derive_generator(9, n)), rng, want, ref)
        self.same(_trunc_std_normal(np.full(n, t), rng := derive_generator(9, n), n), rng, want, ref)

    @pytest.mark.parametrize("n", SIZES)
    def test_mixed_signs(self, n):
        gammas = derive_generator(10, n).permutation(np.linspace(-2.0, 3.0, n))
        want = _masked_truncated_normal(gammas, ref := derive_generator(11, n))
        self.same(_trunc_std_normal(gammas, rng := derive_generator(11, n), n), rng, want, ref)


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

    def test_rate_past_the_overflow_of_its_square(self):
        # gamma * gamma overflows above ~1.34e154; an infinite rate never accepted
        gamma = np.array([2e154, 1e300])
        rate = shifted_exponential_rate(gamma)
        assert np.isfinite(rate).all() and (rate >= gamma).all()
        # the fallback is for large positive gamma only: a huge negative one keeps a positive rate
        assert shifted_exponential_rate(-1e300) > 0.0
        # the excess over gamma (~1/gamma) is below half an ulp of gamma here
        x = sample_truncated_std_normal(1e300, rng_for("tn-huge"), 3)
        assert x.shape == (3,) and (x >= 1e300).all() and np.isfinite(x).all()

    def test_rate_bits_unchanged_below_the_overflow(self):
        gamma = np.concatenate([np.linspace(0.0, 10.0, 1001), np.geomspace(1e-300, 1e150, 1001)])
        old = 0.5 * (gamma + np.sqrt(gamma * gamma + 4.0))
        assert [v.hex() for v in shifted_exponential_rate(gamma)] == [v.hex() for v in old]
        assert shifted_exponential_rate(4.0).hex() == old[400].hex()

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 8.0])
    def test_proposal_acceptance_above_half_everywhere(self, gamma):
        lam = shifted_exponential_rate(gamma)
        rng = rng_for(f"acc-{gamma}")
        cand = gamma + rng.exponential(1.0 / lam, 50_000)
        acc = np.exp(-0.5 * (cand - lam) ** 2).mean()
        assert acc >= 0.5

    def test_scalar_form(self):
        # a single draw is a batch of one row
        v = sample_truncated_std_normal(2.0, rng_for("scalar"), 1)
        assert v.shape == (1,) and v[0] > 2.0

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


def krig(model, given, values, rng):
    """The kriging step alone: one ``gaussian_rows`` pass with the gain
    ``K = sigma[:, given] sigma[given, given]^-1``."""
    cols = list(given)
    gain = np.linalg.solve(model.sigma[np.ix_(cols, cols)], model.sigma[cols]).T
    return gaussian_rows(model, rng, len(values), given, values, gain)


class TestConditionalMvn:
    def test_independence_ignores_condition(self):
        m = NormalModel.equicorrelated(3, 0.0)
        out = krig(m, (0,), np.full((50_000, 1), 5.0), rng_for("ind"))
        assert out.shape == (50_000, 3)
        assert (out[:, 0] == 5.0).all()
        assert abs(out[:, 1:].mean()) < 0.02

    def test_bivariate_conditional_law(self):
        m = NormalModel.equicorrelated(2, 0.75)
        out = krig(m, (0,), np.full((100_000, 1), 4.0), rng_for("cond"))
        # law given the first coordinate at 4: centre 3, spread 1 - 0.75^2
        assert out[:, 1].mean() == pytest.approx(3.0, abs=0.01)
        assert out[:, 1].var(ddof=1) == pytest.approx(0.4375, abs=0.01)

    def test_composition_reproduces_joint_moments(self):
        m = NormalModel(np.eye(3))
        rng = rng_for("compose")
        x0 = rng.standard_normal(50_000)
        joint = krig(m, (0,), x0[:, None], rng)
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
        out = krig(m, (0, 2), np.tile([1.0, 2.0], (1000, 1)), rng_for("pairform"))
        assert out.shape == (1000, 4)

    def test_kriging_matches_the_exact_conditional_law(self):
        # a non-zero mean and a dense covariance, conditioned on two
        # non-adjacent coordinates: the rest has mean
        # mu_R + (x_S - mu_S) K_R^T and covariance sigma_RR - K_R sigma_SR
        a = rng_for("krig-model").standard_normal((6, 6))
        sigma = a @ a.T + 0.5 * np.eye(6)
        mu = rng_for("krig-mean").standard_normal(6)
        given, rest, x_s, n = [1, 4], [0, 2, 3, 5], np.array([2.7, 3.1]), 2_000_000
        k_rest = np.linalg.solve(sigma[np.ix_(given, given)], sigma[given][:, rest]).T
        mean = mu[rest] + (x_s - mu[given]) @ k_rest.T
        cov = sigma[np.ix_(rest, rest)] - k_rest @ sigma[np.ix_(given, rest)]
        x = krig(NormalModel(sigma, mu=mu), given, np.tile(x_s, (n, 1)), derive_generator(8, 0))[:, rest]
        sd = np.sqrt(np.diag(cov))
        assert (np.abs(x.mean(axis=0) - mean) < 4 * sd / math.sqrt(n)).all()
        # the s.e. of a sample covariance over sd_i sd_j is sqrt((1 + r_ij^2) / n)
        corr = cov / np.outer(sd, sd)
        err = (np.cov(x.T) - cov) / np.outer(sd, sd)
        assert (np.abs(err) < 5 * np.sqrt((1 + corr**2) / n)).all()

    @pytest.mark.parametrize("given", [(0,), (3, 1), (0, 1, 2, 3)])
    def test_conditioned_columns_equal_values(self, given):
        m = NormalModel(0.5 ** abs(np.subtract.outer(np.arange(4), np.arange(4))), mu=[1.0, -2.0, 0.5, 3.0])
        n = block_rows(4) + 7
        values = 2.0 + rng_for("krig-values").random((n, len(given)))
        out = krig(m, given, values, rng_for("krig-cols"))
        assert out.shape == (n, 4)
        assert np.array_equal(out[:, list(given)], values)


def _toeplitz(d, mean):
    """A Toeplitz normal of correlation 0.5^|i - j|, with a mean ramp or none."""
    lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return NormalModel(0.5**lags, mu=np.linspace(-1.0, 1.0, d) if mean else None)


# (d, n) of the whole-array comparisons, each without and with a per-row
# function, and the conditioned columns of each d
_WIDE_CASES = [(64, n) for n in (1, 2, block_rows(64) + 1, 1 << 16)] + [(256, 2 * block_rows(256) + 1)]
_WIDE_SIZES = [
    pytest.param(d, n, per_row, id=f"d{d}-{n}" + ("-per_row" if per_row else ""))
    for per_row in (None, _row_values)
    for d, n in _WIDE_CASES
]
_WIDE_GIVEN = {64: [(5,), (40, 7)], 256: [(5,), (200, 7)]}
_WIDE_CONDITIONAL = [
    pytest.param(*p.values, given, id=f"{p.id}-{'_'.join(map(str, given))}")
    for p in _WIDE_SIZES
    for given in _WIDE_GIVEN[p.values[0]]
]


class TestRowBlockedDraws:
    """Block-by-block draws keep the bits of the plain whole-array expressions
    on the same stream: at d = 64 for 1- and 2-row draws, just past one
    block of 1,024 rows and at 2^16 rows, and at d = 256 just past two
    blocks of 256 rows, where the near-equal blocks hold 171 rows each."""

    # a zero mean is not added at all, and must leave the same bits as adding it
    @pytest.fixture(params=[True, False], ids=["mean", "zero_mean"])
    def mean(self, request):
        return request.param

    @staticmethod
    def check(got, want, per_row):
        """With a per-row function, the draw returns its values on each
        block, which must be its values on the whole expression, bit for bit."""
        if per_row is None:
            assert np.array_equal(got, want)
        else:
            assert list(map(float.hex, got)) == list(map(float.hex, per_row(want)))

    @pytest.mark.parametrize("d, n, per_row", _WIDE_SIZES)
    def test_sample_matches_plain_expression(self, mean, d, n, per_row):
        model = _toeplitz(d, mean)
        z = derive_generator(3, n).standard_normal((n, d))
        want = model.mu + z @ model.chol.T
        self.check(model.sample(derive_generator(3, n), n, _per_row=per_row), want, per_row)

    @pytest.mark.parametrize("d, n, per_row, given", _WIDE_CONDITIONAL)
    def test_conditional_draw_matches_plain_expression(self, mean, d, n, per_row, given):
        # the whole-array kriging step: one model draw X moved by
        # (values - X_S) K^T, with K = sigma[:, S] sigma[S, S]^-1
        model, cols = _toeplitz(d, mean), list(given)
        gain = np.linalg.solve(model.sigma[np.ix_(cols, cols)], model.sigma[cols]).T
        values = 2.0 + derive_generator(4, n).random((n, len(given)))
        x = model.mu + derive_generator(5, n).standard_normal((n, d)) @ model.chol.T
        want = x + (values - x[:, cols]) @ gain.T
        want[:, cols] = values
        got = gaussian_rows(model, derive_generator(5, n), n, given, values, gain, _per_row=per_row)
        self.check(got, want, per_row)


class TestNarrowRowBlockedDraws:
    """At d = 4 and 8 a block holds ``BLOCK_ELEMENTS`` values in 16,384 and
    8,192 rows; the draws keep the bits of the whole-array expressions just
    past one such block and at 2^16 rows."""

    CASES = [pytest.param(d, n, id=f"d{d}-{n}") for d in (4, 8) for n in (block_rows(d) + 1, 1 << 16)]
    PER_ROW = pytest.mark.parametrize("per_row", [None, _row_values], ids=["rows", "per_row"])
    MEAN = pytest.mark.parametrize("mean", [True, False], ids=["mean", "zero_mean"])

    @staticmethod
    def model(d, mean):
        lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        return NormalModel(0.6**lags, mu=np.linspace(-1.0, 1.0, d) if mean else None)

    def test_block_rule(self):
        # one budget of 2^16 values at every d, down to one row past d = 2^16
        assert [block_rows(d) for d in (1, 4, 8, 16, 17, 64, 256)] == [65536, 16384, 8192, 4096, 3855, 1024, 256]
        assert block_rows(1 << 17) == 1

    @MEAN
    @PER_ROW
    @pytest.mark.parametrize("d, n", CASES)
    def test_sample_matches_plain_expression(self, d, n, per_row, mean):
        m = self.model(d, mean)
        want = m.mu + derive_generator(6, n).standard_normal((n, d)) @ m.chol.T
        TestRowBlockedDraws.check(m.sample(derive_generator(6, n), n, _per_row=per_row), want, per_row)

    @MEAN
    @PER_ROW
    @pytest.mark.parametrize("given", [(1,), (3, 0)])
    @pytest.mark.parametrize("d, n", CASES)
    def test_conditional_draw_matches_plain_expression(self, d, n, given, per_row, mean):
        m, cols = self.model(d, mean), list(given)
        gain = np.linalg.solve(m.sigma[np.ix_(cols, cols)], m.sigma[cols]).T
        values = 2.0 + derive_generator(7, n).random((n, len(given)))
        x = m.mu + derive_generator(8, n).standard_normal((n, d)) @ m.chol.T
        want = x + (values - x[:, cols]) @ gain.T
        want[:, cols] = values
        got = gaussian_rows(m, derive_generator(8, n), n, given, values, gain, _per_row=per_row)
        TestRowBlockedDraws.check(got, want, per_row)


@pytest.mark.parametrize("events", [(2,), (0, 2)])
def test_conditional_draw_is_one_pass_without_the_model_draw(monkeypatch, events):
    # a conditional law draws and krigs its rows in one ``gaussian_rows``
    # pass; a call back into ``NormalModel.sample`` would be a second pass
    calls = []
    sample = NormalModel.sample

    def counted(self, rng, size):
        calls.append(size)
        return sample(self, rng, size)

    monkeypatch.setattr(NormalModel, "sample", counted)
    if len(events) == 1:
        law = _PAPER.conditional_given_exceedance(*events, 2.0)
    else:
        law = _PAPER.conditional_given_pair_exceedance(*events, 2.0)
    assert isinstance(law, GaussianConditional)
    n = block_rows(3) + 1
    x = law.draw(rng_for(f"one-pass-{events}"), n)
    assert x.shape == (n, 3) and (x[:, list(events)] > 2.0).all()
    assert calls == []


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

    def test_bits_equal_the_plain_chain(self):
        # the chain written out from the model's mean and covariance: its
        # standardisation, independent-truncation start and half-steps, with
        # the masked reference loop for every truncated-normal draw
        m, gamma, burnin, n = scaled_pair_model(0.75), 2.0, 3, 5_000
        mu, sigma = m.mu, m.sigma
        si, sj = math.sqrt(sigma[0, 0]), math.sqrt(sigma[1, 1])
        rho = sigma[0, 1] / (si * sj)
        ti, tj = (gamma - mu[0]) / si, (gamma - mu[1]) / sj
        s = math.sqrt(1.0 - rho * rho)
        ref = rng_for("gibbs-bits")
        zi = _masked_truncated_normal(np.full(n, ti), ref)
        zj = _masked_truncated_normal(np.full(n, tj), ref)
        for _ in range(burnin):
            zj = rho * zi + s * _masked_truncated_normal((tj - rho * zi) / s, ref)
            zi = rho * zj + s * _masked_truncated_normal((ti - rho * zj) / s, ref)
        got = gibbs_bivariate_truncated(m, 0, 1, gamma, burnin, rng := rng_for("gibbs-bits"), n)
        for x, want in zip(got, (mu[0] + si * zi, mu[1] + sj * zj)):
            assert list(map(float.hex, x)) == list(map(float.hex, want))
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    def test_burnin_validation(self):
        m = NormalModel.equicorrelated(2, 0.5)
        with pytest.raises(ValueError):
            gibbs_bivariate_truncated(m, 0, 1, 1.0, 0, rng_for("x"), 1)


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
                psi_star = _PairLaw(max(ti, tj), min(ti, tj), rho).psi_star
                acc = math.exp(math.log(bivariate_normal_orthant(ti, tj, rho)) - psi_star)
                assert 0.8 < acc <= 1.0 + 1e-9, (rho, ti, tj, acc)

    def test_one_tilt_per_distinct_pair_key(self):
        # the d=64 Toeplitz model 0.5^|i-j| at gamma=4 has 2,016 pair laws
        # but only 63 distinct keys (4, 4, 0.5^k)
        lags = np.abs(np.subtract.outer(np.arange(64), np.arange(64)))
        model = NormalModel(0.5**lags)
        _pair_law.cache_clear()
        rng = rng_for("pair-keys")
        for i in range(64):
            for j in range(i + 1, 64):
                model.conditional_given_pair_exceedance(i, j, 4.0).draw(rng, 1)
        info = _pair_law.cache_info()
        assert (info.misses, info.hits) == (63, 2016 - 63)

    def test_squeeze_takes_the_exact_decisions(self):
        # log U on, next to and around the exact ratio, inside and beyond the
        # knots: every decision the squeeze takes is the exact test's
        rng = rng_for("squeeze")
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.75, 0.99):
            for ti, tj in ((-1.0, -1.0), (2.0, 2.0), (8.0, 8.0), (4.0, 2.0), (8.0, -1.0)):
                squeeze = _PairLaw(ti, tj, rho)
                span = squeeze.step * (squeeze.KNOTS - 1)
                x = np.tile(ti + rng.uniform(-0.1 * span, 1.2 * span, 1000), 5)
                exact = squeeze.exact(x)
                log_u = np.concatenate([
                    exact[:1000],
                    np.nextafter(exact[1000:2000], -np.inf),
                    np.nextafter(exact[2000:3000], np.inf),
                    exact[3000:4000] + rng.normal(0.0, 1e-4, 1000),
                    exact[4000:] + rng.normal(0.0, 1.0, 1000),
                ])
                accept, unsure = squeeze.decide(x, log_u)
                decided = np.ones(x.size, dtype=bool)
                decided[unsure] = False
                assert np.array_equal(accept[decided], (log_u < exact)[decided]), (ti, tj, rho)
                assert decided[4000:].mean() > 0.5, (ti, tj, rho)
                assert not decided[(x < ti) | (x > ti + span)].any()

    def test_invalid_arguments(self):
        for ti, rho in ((math.nan, 0.5), (math.inf, 0.5), (1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                sample_truncated_std_normal_pair(ti, 1.0, rho, rng_for("pair-bad"), 10)

    def test_scalar_form_and_stream_determinism(self):
        a = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, derive_generator(7, 0), 1000)
        b = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, derive_generator(7, 0), 1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        zi, zj = sample_truncated_std_normal_pair(2.0, 1.0, 0.5, rng_for("pair-scalar"), 1)
        assert zi.shape == zj.shape == (1,) and zi[0] > 2.0 and zj[0] > 1.0


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
            sample_inverse_gaussian(-1.0, 1.0, rng_for("bad"), 1)


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
        dens = laplace_sqrt_ig_pdf(centers, x_i)
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
            laplace_conditional_exceedance(3, 0, 0.0, rng_for("bad"), 1)

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
        # guards against changes to the stream derivation, in the package or in
        # numpy: every recorded estimate in test_golden.py moves with these draws
        assert derive_generator(2718).bit_generator.state["bit_generator"] == "SFC64"
        first = {
            (0,): ["0x1.179c96b9f29f7p-1", "0x1.b7019dad245f6p-1", "0x1.2fe418c7ebaadp-4"],
            (1, 0): ["0x1.07f15df699c09p-2", "-0x1.5ca867b90df4dp-1", "-0x1.7eff05982bf21p-2"],
        }
        for key, want in first.items():
            assert [x.hex() for x in derive_generator(2718, *key).standard_normal(3)] == want, key
