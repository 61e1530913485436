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
values also pin numpy's SFC64 streams under ``SeedSequence`` spawn keys
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
Every sampled row was recorded again when the substreams moved from
Philox to SFC64, whose normals, exponentials and uniforms are cheaper; the
law is the same, and the re-recorded rows sit from -1.56 to +1.53 s.e. of
their truths (``test_every_recorded_row_lies_within_4_se_of_its_truth``),
where the Philox records reached -4.91 (``alpha2`` on ``normal``, seed 11).
The ten ``alpha1_is``/``alpha2_is`` rows on ``finite``, ``normal`` and
``laplace`` were recorded again when a mixture stratum began to draw its
law counts from one multinomial and then each law's rows in turn, in
place of a law per row: the law is the same, the stream is not.  They sit
at +1.48, +0.60 (``alpha1_is``, ``finite``, seeds 11 and 2024), -0.36,
+0.14 (``alpha2_is``, ``finite``), +3.25, -0.43 (``alpha1_is``,
``normal``), +1.45, +1.09 (``alpha2_is``, ``normal``) and -0.85, -0.45
(``alpha1_is``, ``laplace``) s.e. from their truths.  Over seeds 1-12,000
of the ``alpha1_is`` row on ``normal``, 39 runs lie beyond 3 s.e. against
32 expected of a normal z, with mean z +0.01 and sd 1.00 (``alpha2_is``:
43, +0.01 and 1.00): the +3.25 is the tail, not a bias.
A numpy release that changes the streams changes them too;
``tests/test_samplers.py`` pins the first draws of two substreams.
"""

import math

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
    ('cmc', 'finite', 2000, 11): ('0x1.e5604189374bcp-1', '0x1.c6d337afe016dp-3', 2000, False),
    ('cmc', 'finite', 2000, 2024): ('0x1.e5a1cac083127p-1', '0x1.c4c0a258ab46ep-3', 2000, False),
    ('alpha1', 'finite', 2000, 11): ('0x1.ecccccccccccfp-1', '0x1.7926cb1c12cf0p-1', 2000, False),
    ('alpha1', 'finite', 2000, 2024): ('0x1.eac083126e97bp-1', '0x1.7a6e291e4c574p-1', 2000, False),
    ('alpha2', 'finite', 2000, 11): ('0x1.e000000000002p-1', '0x1.8fc7a2e577589p-2', 2000, False),
    ('alpha2', 'finite', 2000, 2024): ('0x1.e189374bc6a81p-1', '0x1.923883390fc44p-2', 2000, False),
    ('alpha1_is', 'finite', 2000, 11): ('0x1.edc54a6921737p-1', '0x1.bcab463899e45p-2', 2000, False),
    ('alpha1_is', 'finite', 2000, 2024): ('0x1.e94a6921735f0p-1', '0x1.afc9774c5d292p-2', 2000, False),
    ('alpha2_is', 'finite', 2000, 11): ('0x1.e5b7a32846ff8p-1', '0x1.4f110b480a7cdp-3', 2000, False),
    ('alpha2_is', 'finite', 2000, 2024): ('0x1.e6a7ef9db22d3p-1', '0x1.4e4f57983682ap-3', 2000, False),
    ('beta1_alpha', 'finite', 2000, 11): ('0x1.ecccccccccccdp-1', '0x1.81f493e72d4b6p-2', 1000, False),
    ('beta1_alpha', 'finite', 2000, 2024): ('0x1.ea92a30553260p-1', '0x1.854bc28eca543p-2', 1000, False),
    ('beta2_alpha', 'finite', 2000, 11): ('0x1.e63545c6bc5f9p-1', '0x1.1ab0fdb8a7a91p-2', 667, False),
    ('beta2_alpha', 'finite', 2000, 2024): ('0x1.eb3c69512314ap-1', '0x1.17a2586035567p-2', 667, False),
    ('cmc', 'normal', 2000, 11): ('0x1.3020c49ba5e35p-3', '0x1.6c386386f66f4p-2', 2000, False),
    ('cmc', 'normal', 2000, 2024): ('0x1.395810624dd2fp-3', '0x1.70b82a04ba3c1p-2', 2000, False),
    ('alpha1', 'normal', 2000, 11): ('0x1.392ef6399bdd1p-3', '0x1.019545fb0ba04p-2', 2000, False),
    ('alpha1', 'normal', 2000, 2024): ('0x1.2ef18595c4d2dp-3', '0x1.1258e4a9721efp-2', 2000, False),
    ('alpha2', 'normal', 2000, 11): ('0x1.3c5194a889814p-3', '0x1.82ecc36cd5880p-4', 2000, False),
    ('alpha2', 'normal', 2000, 2024): ('0x1.406a281d45ebcp-3', '0x1.ab5464966c510p-4', 2000, False),
    ('alpha1_is', 'normal', 2000, 11): ('0x1.42483f36ff82cp-3', '0x1.ba262a689c3adp-5', 2000, False),
    ('alpha1_is', 'normal', 2000, 2024): ('0x1.39263f45637c2p-3', '0x1.c3e992d661957p-5', 2000, False),
    ('alpha2_is', 'normal', 2000, 11): ('0x1.3ad926571cd31p-3', '0x1.2ae495915b317p-7', 2000, False),
    ('alpha2_is', 'normal', 2000, 2024): ('0x1.3ab2b93b65933p-3', '0x1.2aa6c6d1351c8p-7', 2000, False),
    ('beta1_alpha', 'normal', 2000, 11): ('0x1.3af6583050993p-3', '0x1.7143fb44c77bap-5', 1000, False),
    ('beta1_alpha', 'normal', 2000, 2024): ('0x1.3839d1f92e504p-3', '0x1.6c3acc9a3dd8fp-5', 1000, False),
    ('beta2_alpha', 'normal', 2000, 11): ('0x1.39a3b948b92a4p-3', '0x1.0545b065c2957p-6', 667, False),
    ('beta2_alpha', 'normal', 2000, 2024): ('0x1.3b7f02a9839fcp-3', '0x1.0bd5c854f7fddp-6', 667, False),
    ('cmc', 'laplace', 2000, 11): ('0x1.3126e978d4fdfp-3', '0x1.6cb9cd439d652p-2', 2000, False),
    ('cmc', 'laplace', 2000, 2024): ('0x1.3645a1cac0831p-3', '0x1.6f3b73d3e9893p-2', 2000, False),
    ('alpha1', 'laplace', 2000, 11): ('0x1.4331d2e63c112p-3', '0x1.40bf60007ab96p-3', 2000, False),
    ('alpha1', 'laplace', 2000, 2024): ('0x1.4644417dc9610p-3', '0x1.296bb70485c95p-3', 2000, False),
    ('alpha2', 'laplace', 2000, 11): ('0x1.42e2262641f8cp-3', '0x1.3d1db4bf7f51ep-5', 2000, False),
    ('alpha2', 'laplace', 2000, 2024): ('0x1.40d5dc6be3c38p-3', '0x1.6e5b7d16657e3p-6', 2000, False),
    ('alpha1_is', 'laplace', 2000, 11): ('0x1.40de79aababbdp-3', '0x1.4a3042c6fbf86p-5', 2000, False),
    ('alpha1_is', 'laplace', 2000, 2024): ('0x1.419b050343185p-3', '0x1.48937636940a2p-5', 2000, False),
    ('beta1_alpha', 'laplace', 2000, 11): ('0x1.400281c370fa8p-3', '0x1.0c6a8d1f9ea73p-5', 1000, False),
    ('beta1_alpha', 'laplace', 2000, 2024): ('0x1.43f0139b9d929p-3', '0x1.061b2c34815d4p-5', 1000, False),
    ('cmc', 'normal2', 66036, 5): ('0x1.035d6d86161cdp-2', '0x1.bd558d1fb0065p-2', 66036, False),
    ('beta1_alpha', 'normal2', 66036, 5): ('0x1.05095b4b86f38p-2', '0x1.3d6ff32969740p-4', 66036, False),
    ('beta1_alpha', 'normal1', 100, 3): ('0x1.44ed0bb7cb20bp-3', '0x0.0p+0', 0, True),
    ('alpha2_is', 'disjoint', 100, 1): ('0x1.3333333333334p-1', '0x0.0p+0', 0, True),
}


def _golden_row(case):
    name, model, replicates, seed = case
    build, gamma = MODELS[model]
    r = ru.run_estimator(name, build(), gamma, replicates, seed)
    return (r.estimate.hex(), r.sample_std.hex(), r.replicates, r.degenerate)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_bit_identical_to_recorded_values(case):
    assert _golden_row(case) == GOLDEN[case]


# Multi-chunk outputs, recorded before one estimator's chunks and strata ran
# on the worker pool and before Gaussian draws were made in row blocks; they
# must hold for any thread count.  The two equicorr4 rows read the pair layer
# and were recorded again when it moved to the batched Gauss-Kronrod rule;
# the conditioning rows were recorded again when Gaussian conditionals moved
# to kriging, and every row but cmc when the package's own special functions
# replaced scipy's (at most 1.3e-15 relative).  The beta1_alpha row was
# recorded again when its cell k began to draw only X_0..X_k.  Every row was
# recorded again when the substreams moved from Philox to SFC64: the
# toeplitz64 rows sit -1.10, +1.81, +2.02 and -0.26 s.e. from the
# Markov-recursion value 0.0019921269445957 (20 fresh 4e5-replicate runs
# give z of mean -0.25, sd 0.88 for alpha1_is and -0.39, 0.96 for
# beta1_alpha), the equicorr4 rows +0.30 and -0.66 from the one-factor
# oracle, and the toeplitz16 pair agree within 0.10 combined s.e.  The three
# mixture rows were recorded again when a mixture stratum began to draw its
# law counts from one multinomial: alpha1_is on toeplitz64 now sits at +0.36
# s.e., alpha2_is on equicorr4 at +0.44, and the toeplitz16 pair agree
# within 0.18 combined s.e.
# 131,073 replicates are chunks of 65,536 + 65,536 + 1, so the last chunk
# is a 1-row draw; beta2_alpha's 65,537 sweeps on equicorr4 end in a 1-row
# chunk too.  The toeplitz16 pair rows condition on non-adjacent columns;
# its beta2_alpha runs 1,093 sweeps of 120 pair strata, so it is one chunk
# of many pool units (two chunks would be 7.9M draws).
MULTI_CHUNK_MODELS = {
    "toeplitz64": (lambda: ru.NormalModel(0.5 ** abs(np.subtract.outer(np.arange(64), np.arange(64)))), 4.0),
    "equicorr4": (lambda: ru.NormalModel.equicorrelated(4, 0.75), 2.0),
    "toeplitz16": (lambda: ru.NormalModel(0.5 ** abs(np.subtract.outer(np.arange(16), np.arange(16)))), 4.0),
}

# (estimator, model, replicates): (estimate, sample_std), all at seed 2026
MULTI_CHUNK = {
    ("cmc", "toeplitz64", 131073): ("0x1.e7ff0c0079ffcp-10", "0x1.611f56863da64p-5"),
    ("alpha1", "toeplitz64", 131073): ("0x1.07ad7a54af7fep-9", "0x1.ffff00003fffep-9"),
    ("alpha1_is", "toeplitz64", 131073): ("0x1.0522d729eb2fep-9", "0x1.850a02f844041p-13"),
    ("beta1_alpha", "toeplitz64", 131073): ("0x1.05166a54c881fp-9", "0x1.141f0e0fb217fp-15"),
    ("alpha2_is", "equicorr4", 393222): ("0x1.cd86deee258f1p-5", "0x1.447c8cb8e8bbcp-7"),
    ("beta2_alpha", "equicorr4", 393222): ("0x1.cd318e29e40cfp-5", "0x1.ab2ad796a6ff3p-7"),
    ("alpha2_is", "toeplitz16", 131073): ("0x1.058881450993cp-11", "0x1.4a18d605ff66ap-21"),
    ("beta2_alpha", "toeplitz16", 131073): ("0x1.0588c68d9a002p-11", "0x1.7ee8f3c4feb41p-22"),
}


@pytest.fixture(scope="module")
def multi_chunk_models():
    return {name: (build(), gamma) for name, (build, gamma) in MULTI_CHUNK_MODELS.items()}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("case", sorted(MULTI_CHUNK), ids=lambda c: "-".join(map(str, c)))
def test_multi_chunk_bit_identical_for_any_thread_count(case, threads, multi_chunk_models, monkeypatch):
    monkeypatch.setenv("RARE_UNION_THREADS", threads)
    assert _multi_chunk_row(case, *multi_chunk_models[case[1]]) == MULTI_CHUNK[case]


def _multi_chunk_row(case, m, gamma):
    name, _, replicates = case
    r = ru.run_estimator(name, m, gamma, replicates, 2026)
    return (r.estimate.hex(), r.sample_std.hex())


# Every recorded row with a spread must sit within 4 s.e. of its truth, so
# that a re-recording cannot pin a biased stream: the exact mean on a finite
# model, the deterministic oracle on a normal (d <= 8) or Laplace model, and
# on toeplitz64 the Markov-recursion value.  toeplitz16 has no oracle here,
# so its two rows must agree within 4 combined s.e.
TOEPLITZ64_UNION = 0.0019921269445957


def _recorded_rows():
    """(estimator, model name, model, gamma, estimate, s.e.) of every recorded row."""
    built = {}
    for (name, model, _, _), (estimate, std, replicates, _) in GOLDEN.items():
        build, gamma = MODELS[model]
        se = float.fromhex(std) / math.sqrt(max(replicates, 1))
        yield name, model, built.setdefault(model, build()), gamma, float.fromhex(estimate), se
    for (name, model, replicates), (estimate, std) in MULTI_CHUNK.items():
        build, gamma = MULTI_CHUNK_MODELS[model]
        m = built.setdefault(model, build())
        strata = {"beta1_alpha": m.d - 1, "beta2_alpha": math.comb(m.d, 2)}.get(name, 1)
        se = float.fromhex(std) / math.sqrt(-(-replicates // strata))  # one replicate per sweep
        yield name, model, m, gamma, float.fromhex(estimate), se


def test_every_recorded_row_lies_within_4_se_of_its_truth():
    rows = [row for row in _recorded_rows() if row[5] > 0.0]
    toeplitz16 = {name: (estimate, se) for name, model, _, _, estimate, se in rows if model == "toeplitz16"}
    far = []
    for name, model, m, gamma, estimate, se in rows:
        if model == "toeplitz16":
            (other, other_se), = (v for k, v in toeplitz16.items() if k != name)
            truth, se = other, math.hypot(se, other_se)
        elif model == "toeplitz64":
            truth = TOEPLITZ64_UNION
        elif isinstance(m, ru.FinitePatternModel):
            truth = ru.exhaustive_estimator_mean(name, m)
        else:
            truth = ru.oracle_for_model(m, gamma)
        z = (estimate - truth) / se
        if abs(z) > 4.0:
            far.append((name, model, round(z, 2)))
    assert not far


if __name__ == "__main__":
    # Recompute both tables and print them in this file's own literal format,
    # to re-record the pins after a deliberate change of stream; nothing is
    # written.  Run as ``PYTHONPATH=src python tests/test_golden.py``.
    print("GOLDEN = {")
    for case in GOLDEN:
        print(f"    {case!r}: {_golden_row(case)!r},")
    print("}\n")
    print("MULTI_CHUNK = {")
    for case in MULTI_CHUNK:
        build, gamma = MULTI_CHUNK_MODELS[case[1]]
        print(f"    {case!r}: {_multi_chunk_row(case, build(), gamma)!r},".replace("'", '"'))
    print("}")
