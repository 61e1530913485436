"""Scrambled Sobol points for the QMC oracle, in numpy.

Direction numbers from Joe & Kuo (2008, "Constructing Sobol sequences with
better two-dimensional projections", SIAM J. Sci. Comput. 30(5)), scrambled
by a random lower-triangular linear matrix and a digital shift (Matousek
1998, "On the L2-discrepancy for anchored boxes", J. Complexity 14).  The
random stream, the scramble and the 30-bit point values are those of
``scipy.stats.qmc.Sobol(d, scramble=True, seed=rng)``, so every point is
bit-identical to scipy's; only the order of work differs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Sobol"]

BITS = 30  # bits per coordinate; an engine yields at most 2**BITS points

_FROM_TOP = np.arange(BITS - 1, -1, -1, dtype=np.uint32)  # bit shifts, most significant first

# Joe & Kuo's primitive polynomials and initial direction numbers for the
# first seven dimensions, as tabulated by scipy (dimension 0 is all ones).
_POLY = (1, 3, 7, 11, 13, 19, 25)
_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13))


def _directions() -> np.ndarray:
    """The unscrambled direction numbers, ``(dimension, bit)``, 30-bit
    integers with bit ``j``'s number scaled up by ``2**(BITS - 1 - j)``."""
    v = np.ones((len(_POLY), BITS), dtype=np.uint32)
    for d, (p, init) in enumerate(zip(_POLY[1:], _VINIT[1:]), 1):
        m = p.bit_length() - 1
        row = list(init)
        for j in range(m, BITS):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    return v << _FROM_TOP


_V = _directions()
MAXDIM = len(_V)


class Sobol:
    """Scrambled Sobol engine in ``dim`` dimensions, seeded by a child of the
    Generator ``seed``.

    ``random(n)`` continues the sequence with the next ``n`` points, as an
    ``(n, dim)`` float array; ``random(n, out=a)`` writes them into ``a``, a
    C-contiguous ``(n, dim)`` float64 array, and returns it.  Each draw must
    be an aligned power-of-two block (``n`` a power of two that divides the
    points drawn before it), which keeps every prefix a balanced net and
    makes the block the first ``n`` points XOR one constant.  No point table
    is kept between draws.
    """

    def __init__(self, dim: int, *, seed: np.random.Generator):
        if not 1 <= dim <= MAXDIM:
            raise ValueError(f"dimension must be in 1..{MAXDIM}, got {dim}")
        rng = seed.spawn(1)[0]  # the child stream scipy's engine draws from
        bits = rng.integers(2, size=(dim, BITS), dtype=np.uint32)
        self._shift = bits @ (np.uint32(1) << np.arange(BITS, dtype=np.uint32))
        ltm = np.tril(rng.integers(2, size=(dim, BITS, BITS), dtype=np.uint32))
        ltm[:, np.arange(BITS), np.arange(BITS)] = 1
        # Bit p of a scrambled number, counted from the top, is the parity of
        # row p of its matrix dotted with the number's bits, also from the top.
        digits = _V[:dim, :, None] >> _FROM_TOP & 1
        self._v = (digits @ ltm.transpose(0, 2, 1) & 1) @ (np.uint32(1) << _FROM_TOP)
        self._dim = dim
        self._drawn = 0

    def random(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        start = self._drawn
        if n < 1 or n & (n - 1) or start % n:
            raise ValueError(f"a Sobol draw must be an aligned power of two: {n} points after {start}")
        if start + n > 1 << BITS:
            raise ValueError(f"a Sobol engine yields at most 2**{BITS} points")
        if out is None:
            out = np.empty((n, self._dim))
        elif not (
            isinstance(out, np.ndarray)
            and out.shape == (n, self._dim)
            and out.dtype == np.float64
            and out.flags.c_contiguous
        ):
            raise ValueError(f"out must be a C-contiguous ({n}, {self._dim}) float64 array")
        # Gray-code order: the codes of [2^j, 2^(j+1)) are those of [0, 2^j)
        # reversed, XOR the direction number of bit j.  One row per dimension
        # keeps each XOR contiguous.
        q = np.empty((self._dim, n), dtype=np.uint32)
        q[:, 0] = 0
        h = 1
        while h < n:
            np.bitwise_xor(q[:, h - 1::-1], self._v[:, h.bit_length() - 1, None], out=q[:, h:2 * h])
            h *= 2
        # Point start + i has code gray(start) XOR gray(i), as start is aligned.
        code = start ^ (start >> 1)
        offset = self._shift.copy()
        for j in range(code.bit_length()):
            if code >> j & 1:
                offset ^= self._v[:, j]
        np.bitwise_xor(q, offset[:, None], out=q)
        self._drawn = start + n
        np.multiply(q.T, 1.0 / (1 << BITS), out=out)
        return out
