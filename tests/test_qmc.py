"""The package's Sobol engine against ``scipy.stats.qmc.Sobol``, bit for bit.

Only tests import ``scipy.stats``: the package itself never does.
"""

import numpy as np
import pytest
from scipy.stats import qmc as scipy_qmc

from rareunion import _qmc, oracles

# The draw sequence of a doubling run, continued past the 2^16-row blocks
# ``_genz_cell`` draws in: 1, 1, 2, 4, ..., 2^16, 2^16, 2^16.
DRAWS = [1, 1, *(1 << k for k in range(1, 17)), 1 << 16, 1 << 16]


def scramble_rng(key):
    """The Generator ``oracles._sobol_engine`` hands the engine for ``key``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(oracles._QMC_ENTROPY, spawn_key=key))
    )


@pytest.mark.parametrize("key", [(0, 1), (3, 5), (7, 7)], ids=lambda k: f"scramble{k[0]}-cell{k[1]}")
@pytest.mark.parametrize("dim", range(1, _qmc.MAXDIM + 1))
def test_matches_scipy_bit_for_bit(dim, key):
    ours = _qmc.Sobol(dim, seed=scramble_rng(key))
    theirs = scipy_qmc.Sobol(dim, scramble=True, seed=scramble_rng(key))
    for n in DRAWS:
        got, want = ours.random(n), theirs.random(n)
        assert got.shape == want.shape == (n, dim)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_oracle_engine_matches_scipy():
    for s, i in [(0, 1), (4, 6)]:
        got = oracles._sobol_engine(i, (s, i)).random(1 << 12)
        want = scipy_qmc.Sobol(i, scramble=True, seed=scramble_rng((s, i))).random(1 << 12)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "before, n",
    [((), 3), ((), 0), ((4,), 8), ((4,), 3), ((2, 2), 8), ((1,), 2)],
)
def test_draw_must_be_an_aligned_power_of_two(before, n):
    engine = _qmc.Sobol(3, seed=scramble_rng((0, 3)))
    for m in before:
        engine.random(m)
    with pytest.raises(ValueError, match="aligned power of two"):
        engine.random(n)


def test_draw_beyond_the_engine_length_raises_before_allocating():
    # 2**31 points of 2 dimensions would be 16 GiB of uint32 codes
    engine = _qmc.Sobol(2, seed=np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"at most 2\*\*30 points"):
        engine.random(1 << 31)


@pytest.mark.parametrize("dim", [0, _qmc.MAXDIM + 1])
def test_dimension_range(dim):
    with pytest.raises(ValueError, match="dimension"):
        _qmc.Sobol(dim, seed=scramble_rng((0, 1)))
