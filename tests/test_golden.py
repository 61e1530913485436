"""Bit-identity of every estimator's output for fixed inputs.

The table was recorded before the estimators were redescribed as one
record each, read by one chunked runner; it pins ``float.hex`` of
``(estimate, sample_std)`` plus ``replicates`` and ``degenerate``.  The
four ``alpha2_is``/``beta2_alpha`` rows on the normal model were
recorded again when the exact tilted pair sampler replaced the Gibbs
chain, which changed both their law and their random stream.  Every
conditioning row on a normal model (``alpha1_is``, ``alpha2_is``,
``beta1_alpha``, ``beta2_alpha``) was recorded again when Gaussian
conditionals moved to kriging, which draws the whole vector from the
model's own factor and so gives those draws a new random stream.  The
values also pin numpy's Philox streams under ``SeedSequence`` spawn keys
and the substream keys: a record of one stratum draws chunk c from
``(seed, c)``, and stratum k of several from ``(seed, k + 1, c)``.  The
``beta1_alpha`` row on ``normal2`` was recorded again when that rule
replaced the mixture-versus-stratified split, because its one partition
cell is one stratum and moved from ``(seed, 1, c)`` to ``(seed, c)``.
Every row on a normal model whose estimator reads a marginal tail
probability was recorded again when the package's own erfc/ndtri kernels
replaced scipy.special's: those rows moved by at most 5.4e-16 relative,
because the marginal tails moved by an ulp or two, each closer to 40-digit
mpmath.  The two ``beta1_alpha`` rows on ``normal`` were recorded again
when a Gaussian partition cell k began to draw only ``X_0..X_k``, the
columns its value reads: a shorter normal draw per row moves the stream.
They sit 0.67 and -0.41 s.e. from the QMC oracle 0.15343808804.  A numpy
release that changes the streams changes them too.
"""

import numpy as np
import pytest

import rareunion as ru

PMF3 = [0.05, 0.1, 0.15, 0.2, 0.1, 0.15, 0.05, 0.2]
DISJOINT = [0.4, 0.2, 0.3, 0.0, 0.1, 0.0, 0.0, 0.0]  # every pair probability is zero

MODELS = {
    "finite": (lambda: ru.FinitePatternModel(PMF3), 0.0),
    "normal": (lambda: ru.NormalModel.equicorrelated(3, 0.5), 1.5),
    "laplace": (lambda: ru.LaplaceModel(3), 1.5),
    "normal2": (lambda: ru.NormalModel.equicorrelated(2, 0.5), 1.0),
    "normal1": (lambda: ru.NormalModel.equicorrelated(1, 0.0), 1.0),
    "disjoint": (lambda: ru.FinitePatternModel(DISJOINT), 0.0),
}

# (estimator, model, replicates, seed): (estimate, sample_std, replicates, degenerate)
# 2**16 + 500 replicates cross a chunk boundary; the last two rows are the
# deterministic branches (d=1 beta1_alpha, alpha2_is with q = 0).
GOLDEN = {
    ('cmc', 'finite', 2000, 11): ('0x1.e0c49ba5e353fp-1', '0x1.ea4564d10f9f1p-3', 2000, False),
    ('cmc', 'finite', 2000, 2024): ('0x1.e5a1cac083127p-1', '0x1.c4c0a258ab46ep-3', 2000, False),
    ('alpha1', 'finite', 2000, 11): ('0x1.ef5c28f5c28f8p-1', '0x1.830d887b0ace7p-1', 2000, False),
    ('alpha1', 'finite', 2000, 2024): ('0x1.d78d4fdf3b648p-1', '0x1.839533f569eafp-1', 2000, False),
    ('alpha2', 'finite', 2000, 11): ('0x1.e6a7ef9db22d3p-1', '0x1.9a16066057448p-2', 2000, False),
    ('alpha2', 'finite', 2000, 2024): ('0x1.ee5604189374ep-1', '0x1.a5246150f4058p-2', 2000, False),
    ('alpha1_is', 'finite', 2000, 11): ('0x1.e70cf87d9c54cp-1', '0x1.b53cb3f012992p-2', 2000, False),
    ('alpha1_is', 'finite', 2000, 2024): ('0x1.f0624dd2f1aa2p-1', '0x1.bb9c570cf4d0ap-2', 2000, False),
    ('alpha2_is', 'finite', 2000, 11): ('0x1.e6e978d4fdf3dp-1', '0x1.4e189004364eap-3', 2000, False),
    ('alpha2_is', 'finite', 2000, 2024): ('0x1.e37fa89e60f07p-1', '0x1.50ae888ea5bd6p-3', 2000, False),
    ('beta1_alpha', 'finite', 2000, 11): ('0x1.e51eb851eb852p-1', '0x1.86226c3a44c4ap-2', 1000, False),
    ('beta1_alpha', 'finite', 2000, 2024): ('0x1.e61e4f765fd8bp-1', '0x1.8ab4c9ff72ef4p-2', 1000, False),
    ('beta2_alpha', 'finite', 2000, 11): ('0x1.e7211591ec80cp-1', '0x1.20cdcb2fa8007p-2', 667, False),
    ('beta2_alpha', 'finite', 2000, 2024): ('0x1.ed6c76d3b5637p-1', '0x1.1e7ad929abfadp-2', 667, False),
    ('cmc', 'normal', 2000, 11): ('0x1.3333333333333p-3', '0x1.6dbb8a5ee2559p-2', 2000, False),
    ('cmc', 'normal', 2000, 2024): ('0x1.374bc6a7ef9dbp-3', '0x1.6fbab5c2ffa83p-2', 2000, False),
    ('alpha1', 'normal', 2000, 11): ('0x1.52c88fd33576ap-3', '0x1.93614d717e3f9p-3', 2000, False),
    ('alpha1', 'normal', 2000, 2024): ('0x1.436c66dd72e75p-3', '0x1.d1c14aef39921p-3', 2000, False),
    ('alpha2', 'normal', 2000, 11): ('0x1.2f01b56d25273p-3', '0x1.9930a32d6039fp-5', 2000, False),
    ('alpha2', 'normal', 2000, 2024): ('0x1.3526929c3fc6fp-3', '0x1.2f01b9a24b420p-4', 2000, False),
    ('alpha1_is', 'normal', 2000, 11): ('0x1.3b4de8f734e25p-3', '0x1.c1edd8215c35ap-5', 2000, False),
    ('alpha1_is', 'normal', 2000, 2024): ('0x1.3914bbea69071p-3', '0x1.c2c364393f2aap-5', 2000, False),
    ('alpha2_is', 'normal', 2000, 11): ('0x1.3b1797a4269aep-3', '0x1.2b3e62feee9c2p-7', 2000, False),
    ('alpha2_is', 'normal', 2000, 2024): ('0x1.3a490d2f2da39p-3', '0x1.29e2faf5ba4dbp-7', 2000, False),
    ('beta1_alpha', 'normal', 2000, 11): ('0x1.3c319495ecd3bp-3', '0x1.703e08360c467p-5', 1000, False),
    ('beta1_alpha', 'normal', 2000, 2024): ('0x1.390bfa3cebcc9p-3', '0x1.6d4a3ecd95ecfp-5', 1000, False),
    ('beta2_alpha', 'normal', 2000, 11): ('0x1.381073442c697p-3', '0x1.045221f3f9361p-6', 667, False),
    ('beta2_alpha', 'normal', 2000, 2024): ('0x1.3b8d69bbf65d8p-3', '0x1.fcc07dc13772ap-7', 667, False),
    ('cmc', 'laplace', 2000, 11): ('0x1.45a1cac083127p-3', '0x1.768bc4103c8a1p-2', 2000, False),
    ('cmc', 'laplace', 2000, 2024): ('0x1.4bc6a7ef9db23p-3', '0x1.79635340a13bcp-2', 2000, False),
    ('alpha1', 'laplace', 2000, 11): ('0x1.3c06d0d9f256dp-3', '0x1.5bf1b5f826433p-3', 2000, False),
    ('alpha1', 'laplace', 2000, 2024): ('0x1.4d6f438a131b6p-3', '0x1.08d0339a591c0p-3', 2000, False),
    ('alpha2', 'laplace', 2000, 11): ('0x1.43e84b0371136p-3', '0x1.6e15161df5ec5p-5', 2000, False),
    ('alpha2', 'laplace', 2000, 2024): ('0x1.3fcfb78eb4a8cp-3', '0x0.0p+0', 2000, True),
    ('alpha1_is', 'laplace', 2000, 11): ('0x1.432bad1f64dcep-3', '0x1.43eb4fdf95741p-5', 2000, False),
    ('alpha1_is', 'laplace', 2000, 2024): ('0x1.431bf6d8042a8p-3', '0x1.458bfa24e0782p-5', 2000, False),
    ('beta1_alpha', 'laplace', 2000, 11): ('0x1.42d54296d107cp-3', '0x1.0e74124e48ae1p-5', 1000, False),
    ('beta1_alpha', 'laplace', 2000, 2024): ('0x1.42f4af25926c9p-3', '0x1.0803a72dc2ad9p-5', 1000, False),
    ('cmc', 'normal2', 66036, 5): ('0x1.06e28d839af56p-2', '0x1.bf50130d5f393p-2', 66036, False),
    ('beta1_alpha', 'normal2', 66036, 5): ('0x1.04e9dda6c7c61p-2', '0x1.3d8b5fcec6b21p-4', 66036, False),
    ('beta1_alpha', 'normal1', 100, 3): ('0x1.44ed0bb7cb20bp-3', '0x0.0p+0', 0, True),
    ('alpha2_is', 'disjoint', 100, 1): ('0x1.3333333333334p-1', '0x0.0p+0', 0, True),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_bit_identical_to_recorded_values(case):
    name, model, replicates, seed = case
    build, gamma = MODELS[model]
    r = ru.run_estimator(name, build(), gamma, replicates, seed)
    got = (r.estimate.hex(), r.sample_std.hex(), r.replicates, r.degenerate)
    assert got == GOLDEN[case]


# Multi-chunk outputs, recorded before one estimator's chunks and strata ran
# on the worker pool and before Gaussian draws were made in row blocks; they
# must hold for any thread count.  The two equicorr4 rows read the pair layer
# and were recorded again when it moved to the batched Gauss-Kronrod rule;
# the conditioning rows were recorded again when Gaussian conditionals moved
# to kriging, and every row but cmc when the package's own special functions
# replaced scipy's (at most 1.3e-15 relative).  The beta1_alpha row was
# recorded again when its cell k began to draw only X_0..X_k; it sits 2.6 s.e.
# from the Markov-recursion value 0.0019921269445957 (the mean z of 20 fresh
# 4e5-replicate runs is -0.46 +- 0.22).  131,073 replicates are chunks
# of 65,536 + 65,536 + 1, so the last chunk is a 1-row draw; beta2_alpha's
# 65,537 sweeps on equicorr4 end in a 1-row chunk too.  The toeplitz16 pair
# rows condition on non-adjacent columns; its beta2_alpha runs 1,093 sweeps
# of 120 pair strata, so it is one chunk of many pool units (two chunks would
# be 7.9M draws).
MULTI_CHUNK_MODELS = {
    "toeplitz64": (lambda: ru.NormalModel(0.5 ** abs(np.subtract.outer(np.arange(64), np.arange(64)))), 4.0),
    "equicorr4": (lambda: ru.NormalModel.equicorrelated(4, 0.75), 2.0),
    "toeplitz16": (lambda: ru.NormalModel(0.5 ** abs(np.subtract.outer(np.arange(16), np.arange(16)))), 4.0),
}

# (estimator, model, replicates): (estimate, sample_std), all at seed 2026
MULTI_CHUNK = {
    ("cmc", "toeplitz64", 131073): ("0x1.07ff7c0041ffep-9", "0x1.6f481502327e5p-5"),
    ("alpha1", "toeplitz64", 131073): ("0x1.04ad7bd4aebfep-9", "0x1.94c389b681dc7p-8"),
    ("alpha1_is", "toeplitz64", 131073): ("0x1.0513724f15dfdp-9", "0x1.86f47e864e2fdp-13"),
    ("beta1_alpha", "toeplitz64", 131073): ("0x1.055ad87543afdp-9", "0x1.0de348e004548p-15"),
    ("alpha2_is", "equicorr4", 393222): ("0x1.cd7df0ba96f2bp-5", "0x1.445a790e2bc1dp-7"),
    ("beta2_alpha", "equicorr4", 393222): ("0x1.cdefade1f6b6cp-5", "0x1.ac9e5609c2ce6p-7"),
    ("alpha2_is", "toeplitz16", 131073): ("0x1.05883210dd194p-11", "0x1.486ee84101667p-21"),
    ("beta2_alpha", "toeplitz16", 131073): ("0x1.05898501a905ap-11", "0x1.8fecdee639d40p-22"),
}


@pytest.fixture(scope="module")
def multi_chunk_models():
    return {name: (build(), gamma) for name, (build, gamma) in MULTI_CHUNK_MODELS.items()}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("case", sorted(MULTI_CHUNK), ids=lambda c: "-".join(map(str, c)))
def test_multi_chunk_bit_identical_for_any_thread_count(case, threads, multi_chunk_models, monkeypatch):
    monkeypatch.setenv("RARE_UNION_THREADS", threads)
    name, model, replicates = case
    m, gamma = multi_chunk_models[model]
    r = ru.run_estimator(name, m, gamma, replicates, 2026)
    assert (r.estimate.hex(), r.sample_std.hex()) == MULTI_CHUNK[case]
