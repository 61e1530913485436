"""Joint laws of the underlying vector and their exceedance events.

Every model describes a random vector ``X`` of dimension ``d`` together
with the events ``A_i = {X_i > gamma}``.  The common surface is sampling,
marginal and pairwise exceedance probabilities, and handles for drawing
from the law conditioned on one event or on a pair of events.  Models are
immutable after construction and safe to share between workers; all
randomness flows through caller-supplied generators.

A model supports an operation when it overrides the method; the base
class raises :class:`CapabilityError` for the others.  The estimators
build every conditional handle they will draw from before drawing
anything, so an unsupported law fails before any sampling.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import events as ev
from . import samplers
from .errors import CapabilityError, ModelSpecError, _dimension, _real
from .special import SQRT2, bivariate_normal_orthant, integrate, norm_sf

__all__ = [
    "DependenceModel",
    "NormalModel",
    "LaplaceModel",
    "ArchimedeanModel",
    "FinitePatternModel",
    "build_model",
]


@dataclass(frozen=True)
class Interval:
    """A parameter range, each end open or closed."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = False

    def contains(self, x: float) -> bool:
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return lo_ok and hi_ok

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


class DependenceModel(abc.ABC):
    """Abstract joint law with threshold-exceedance events."""

    @property
    @abc.abstractmethod
    def d(self) -> int:
        ...

    @abc.abstractmethod
    def sample(self, rng, size) -> np.ndarray:
        """``size`` draws, one row each (shape ``(size, d)``).

        A draw of a model or of its conditional handles returns its rows.
        Two draws also take ``_per_row``, a function of rows that returns one
        value per row and reads only its own row: ``NormalModel.sample`` and
        ``GaussianConditional.draw`` hand it each row block as it is drawn
        (``samplers.gaussian_rows``) and return the ``(size,)`` values, so a
        wide Gaussian sample is never held whole.  The estimators evaluate
        every other draw on its whole output."""

    def exceedance_patterns(self, x, gamma) -> np.ndarray:
        """Boolean event indicators for sampled rows ``x`` of shape ``(n, d)``."""
        return np.asarray(x, dtype=float) > gamma

    def marginal_survival(self, i: int, gamma: float) -> float:
        raise CapabilityError(f"{type(self).__name__} cannot compute marginal probabilities")

    def pair_survival(self, i: int, j: int, gamma: float) -> float:
        raise CapabilityError(f"{type(self).__name__} cannot compute pairwise probabilities")

    def pair_survivals(self, gamma: float) -> np.ndarray:
        """``P(A_i A_j)`` for i < j in lexicographic order."""
        pairs = itertools.combinations(range(self.d), 2)
        return np.array([self.pair_survival(i, j, gamma) for i, j in pairs])

    def conditional_given_exceedance(self, i: int, gamma: float):
        raise CapabilityError(f"{type(self).__name__} cannot sample conditioned on one event")

    def conditional_given_pair_exceedance(self, i: int, j: int, gamma: float):
        raise CapabilityError(f"{type(self).__name__} cannot sample conditioned on event pairs")

    def leading(self, c: int) -> "DependenceModel":
        """A law whose draws agree in law with this model's on the first ``c``
        coordinates, for a draw whose value reads no others.  By default the
        model itself, which draws all d."""
        return self

    def check_threshold(self, gamma: float) -> float:
        """The threshold as a float; raises ModelSpecError outside the model's domain."""
        return _real(gamma, "the threshold gamma")

    def _check_index(self, i: int) -> int:
        i = _dimension(i, "event index", least=0)
        if i >= self.d:
            raise ModelSpecError(f"event index {i} out of range for d={self.d}")
        return i

    def _check_pair(self, i: int, j: int) -> tuple[int, int]:
        i, j = self._check_index(i), self._check_index(j)
        if i == j:
            raise ModelSpecError("pair indices must differ")
        return i, j


# ---------------------------------------------------------------------------
# Gaussian


class NormalModel(DependenceModel):
    """Multivariate normal law.

    Construction validates positive definiteness through the Cholesky
    factorization, which is also what sampling uses.  The common
    correlation of an equicorrelated law is read off its covariance,
    however it was spelled, because the deterministic union oracle has a
    one-factor fast path for it.
    """

    def __init__(self, sigma, mu=None):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ModelSpecError("covariance must be a square matrix")
        d = sigma.shape[0]
        if mu is None:
            mu = np.zeros(d)
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (d,):
            raise ModelSpecError(f"mean must have length {d}")
        with np.errstate(over="ignore", invalid="ignore"):  # caught as non-finite next
            sym = 0.5 * (sigma + sigma.T)
        if not (np.isfinite(sym).all() and np.isfinite(mu).all()):
            raise ModelSpecError("covariance and mean entries must be finite")
        if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
            raise ModelSpecError("covariance must be symmetric")
        if (np.diag(sigma) <= 0).any():
            raise ModelSpecError("covariance diagonal must be positive")
        try:
            chol = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise ModelSpecError("covariance is not positive-definite") from exc
        self._mu = mu.copy()
        self._mu.setflags(write=False)
        self._sigma = sym
        self._sigma.setflags(write=False)
        self._chol = chol
        self._chol.setflags(write=False)
        self._sd = np.sqrt(np.diag(self._sigma))

    @classmethod
    def equicorrelated(cls, d: int, rho: float) -> "NormalModel":
        """Unit-variance zero-mean model with constant pairwise correlation."""
        d = _dimension(d)
        rho = _real(rho, "rho")
        lo = -1.0 / (d - 1) + 1e-9 if d > 1 else -1.0
        if not lo <= rho < 1.0:
            raise ModelSpecError(
                f"equicorrelation must lie in [{lo:.9f}, 1) for d={d}, got {rho}"
            )
        if d == 1:
            rho = 0.0
        return cls((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))

    @property
    def d(self) -> int:
        return self._mu.size

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def sigma(self) -> np.ndarray:
        return self._sigma

    @property
    def chol(self) -> np.ndarray:
        return self._chol

    @property
    def equicorrelation(self):
        """The common off-diagonal of a zero-mean law with unit diagonal (to a
        few ulp), else None; 0.0 at d=1."""
        off = self._sigma[~np.eye(self.d, dtype=bool)]
        rho = float(off[0]) if off.size else 0.0
        unit = np.abs(np.diag(self._sigma) - 1.0).max() <= 4 * np.finfo(float).eps
        return rho if unit and not self._mu.any() and (off == rho).all() else None

    def correlation(self, i: int, j: int) -> float:
        return float(self._sigma[i, j] / (self._sd[i] * self._sd[j]))

    def leading(self, c: int) -> "NormalModel":
        """The normal law of ``X_0..X_{c-1}``: ``mu[:c]`` and ``sigma[:c, :c]``,
        with the factor ``chol[:c, :c]``.  The leading block of a lower
        Cholesky factor is the factor of the covariance's leading block, so
        nothing is factored again, and the first c coordinates of ``L z``
        read only ``z_0..z_{c-1}``."""
        c = _dimension(c, "column count")
        if c > self.d:
            raise ModelSpecError(f"column count {c} exceeds d={self.d}")
        if c == self.d:
            return self
        law = object.__new__(NormalModel)
        law._mu, law._sd = self._mu[:c], self._sd[:c]
        law._sigma, law._chol = self._sigma[:c, :c], self._chol[:c, :c]
        return law

    def sample(self, rng, size, _per_row=None) -> np.ndarray:
        """Rows of ``mu + z @ chol.T``, drawn by ``samplers.gaussian_rows``."""
        return samplers.gaussian_rows(self, rng, _dimension(size, "size", least=0), _per_row=_per_row)

    def marginal_survival(self, i: int, gamma: float) -> float:
        i = self._check_index(i)
        return norm_sf((self.check_threshold(gamma) - self._mu[i]) / self._sd[i])

    def pair_survival(self, i: int, j: int, gamma: float) -> float:
        i, j = self._check_pair(i, j)
        gamma = self.check_threshold(gamma)
        ti = (gamma - self._mu[i]) / self._sd[i]
        tj = (gamma - self._mu[j]) / self._sd[j]
        return bivariate_normal_orthant(ti, tj, self.correlation(i, j))

    def pair_survivals(self, gamma: float) -> np.ndarray:
        """The pair layer as one orthant batch, which holds each distinct
        standardised key ``(max t, min t, rho)`` once."""
        i, j = np.triu_indices(self.d, 1)
        t = (self.check_threshold(gamma) - self._mu) / self._sd
        rho = self._sigma[i, j] / (self._sd[i] * self._sd[j])
        keys = np.column_stack([np.maximum(t[i], t[j]), np.minimum(t[i], t[j]), rho])
        keys, inverse = np.unique(keys, axis=0, return_inverse=True)
        return bivariate_normal_orthant(*keys.T)[inverse.reshape(-1)]

    def conditional_given_exceedance(self, i: int, gamma: float):
        return samplers.GaussianConditional(self, (i,), gamma)

    def conditional_given_pair_exceedance(self, i: int, j: int, gamma: float):
        return samplers.GaussianConditional(self, (i, j), gamma)


# ---------------------------------------------------------------------------
# Common-factor Laplace


class LaplaceModel(DependenceModel):
    """Multivariate Laplace: a standard normal vector scaled by one
    exponential factor, ``X = sqrt(R) Y`` with ``R ~ Exp(1)``.

    Marginals are symmetric Laplace with unit variance; the shared factor
    couples the tails.  Pairwise exceedance probabilities integrate the
    conditional Gaussian orthant over the factor.
    """

    def __init__(self, d: int):
        self._d = _dimension(d)

    @property
    def d(self) -> int:
        return self._d

    def sample(self, rng, size) -> np.ndarray:
        n = _dimension(size, "size", least=0)
        r = rng.exponential(1.0, n)  # every radius before any normal: the draw is not split
        x = rng.standard_normal((n, self._d))
        x *= np.sqrt(r)[:, None]
        return x

    def marginal_survival(self, i: int, gamma: float) -> float:
        self._check_index(i)
        g = self.check_threshold(gamma)
        if g >= 0.0:
            return 0.5 * math.exp(-SQRT2 * g)
        return 1.0 - 0.5 * math.exp(SQRT2 * g)

    def pair_survival(self, i: int, j: int, gamma: float) -> float:
        self._check_pair(i, j)
        g = self.check_threshold(gamma)

        def f(r):
            tail = norm_sf(g / np.sqrt(r))
            return np.exp(-r) * tail * tail

        peak = abs(g) / SQRT2
        hi = max(60.0, 6.0 * peak)
        return integrate(f, 0.0, hi, points=[peak], epsrel=1e-11)

    def pair_survivals(self, gamma: float) -> np.ndarray:
        """The law is exchangeable, so every pair shares one integral."""
        count = self._d * (self._d - 1) // 2
        return np.full(count, self.pair_survival(0, 1, gamma) if count else 0.0)

    def conditional_given_exceedance(self, i: int, gamma: float):
        i = self._check_index(i)
        gamma = self.check_threshold(gamma)
        if gamma <= 0.0:
            raise ModelSpecError("the Laplace conditional sampler requires gamma > 0")
        return _LaplaceTail(self._d, i, gamma)


class _LaplaceTail:
    def __init__(self, d: int, i: int, gamma: float):
        self.d = d
        self.i = i
        self.gamma = gamma

    def draw(self, rng, size) -> np.ndarray:
        return samplers.laplace_conditional_exceedance(self.d, self.i, self.gamma, rng, size)


# ---------------------------------------------------------------------------
# Archimedean copulas (uniform marginals)


class _ArchGenerator:
    """One Archimedean family at one theta.

    Each family keeps its textbook parameter range for construction
    (``valid``) and the range where its frailty law exists for sampling
    (``sampleable``), and writes three forms of its own: ``diagonal(u)``,
    the copula diagonal ``C(u, u)``; ``upper_pair(v)``, the corner
    ``P(U_1 > 1 - v, U_2 > 1 - v)`` for v up to 1/2, written in ``v``
    itself so that no small value is rounded against 1; and
    ``sample(rng, n, d)``, n rows of the frailty construction
    ``U_i = psi_inv(E_i / V)`` (Marshall & Olkin 1988), with i.i.d. unit
    exponentials E_i and a frailty V whose Laplace transform is the
    generator inverse psi_inv.  Each is written in a form that neither
    overflows nor rounds to a constant over the family's range of theta.
    """

    name = ""

    def __init__(self, theta: float):
        self.theta = float(theta)


@functools.cache
def _gauss_legendre12():
    """12-point Gauss-Legendre nodes and weights on [0, 1], made on first use
    so that ``import rareunion`` does not load ``numpy.polynomial``."""
    x, w = np.polynomial.legendre.leggauss(12)
    return 0.5 * (x + 1.0), 0.5 * w


class _Clayton(_ArchGenerator):
    name = "clayton"
    valid = Interval(-1.0, math.inf)
    sampleable = Interval(0.0, math.inf)

    def _log_diagonal(self, lu):
        """For theta != 0, ``log C(u, u) = log u - log(2 - u^theta) / theta``
        from ``lu = log u``, which cannot overflow; -inf at the generator's
        zero, where theta < 0 and ``u^theta >= 2``."""
        one_less = -np.expm1(self.theta * lu)  # 1 - u^theta
        if one_less <= -1.0:
            return -math.inf
        return lu - np.log1p(one_less) / self.theta

    def diagonal(self, u):
        if self.theta == 0.0:
            return u * u
        return np.exp(self._log_diagonal(np.log(u)))

    def upper_pair(self, v):
        """With ``f(x) = (1 + x)^(-1/theta)`` and ``a = u^-theta - 1``,
        ``f(0) = 1``, ``f(a) = u`` and ``f(2a) = C(u, u)``, so the corner is
        the second difference ``a^2 int_0^1 t f''(a t) + (1 - t) f''(a + a t)
        dt`` of a positive integrand, which cannot cancel.  Where -1/4 <= a
        <= 1, for either sign of theta, it is summed by 12-point
        Gauss-Legendre, scaled by ``(a / theta)^2``, which stays finite as
        theta tends to 0; beyond 1 the corner is not small against v, so
        ``2v - 1 + C(u, u)`` cancels little.  Below -1/4 (theta near -1, u
        near 1/2) the second piece is summed on panels graded towards the
        integrand's singularity at -1."""
        th, lu = self.theta, np.log1p(-v)  # lu = log u
        if th == 0.0:
            return v * v
        a = np.expm1(min(-th * lu, 1.0))  # u^-theta - 1, capped at e - 1: past 1 only a > 1 is read
        if th > 0.0 and a > 1.0:
            return 2.0 * v + np.expm1(self._log_diagonal(lu))
        p = -(1.0 / th + 2.0)  # f''(w) theta^2 / (1 + theta) = (1 + w)^p
        t, wt = _gauss_legendre12()
        g = lambda w: np.exp(p * np.log1p(w))
        if a >= -0.25:
            return (a / th) ** 2 * (1.0 + th) * np.dot(wt, t * g(a * t) + (1.0 - t) * g(a + a * t))
        # theta < 0 and a in (-1/2, -1/4): the piece on [2a, a] runs to within
        # s0 = 1 + 2a of the integrand's singularity at w = -1.  In s = 1 + w it
        # is int (s - s0) s^p ds on [s0, 1 + a], summed by 12 points on each of
        # panels doubling away from s0, none longer than its distance from 0
        s0, s1 = 1.0 + 2.0 * a, 1.0 + a  # 1 + 2a is exact
        if s0 <= 0.0:  # the generator's zero (theta = -1 at v = 1/2): C(u, u) = 0
            return 2.0 * v - 1.0
        edges = np.append(s0 * 2.0 ** np.arange(max(1, math.ceil(math.log2(s1 / s0)))), s1)
        lo, width = edges[:-1, None], np.diff(edges)[:, None]
        near = np.sum(width * wt * (lo - s0 + width * t) * np.exp(p * np.log(lo + width * t)))
        return (1.0 + th) / th**2 * (a * a * np.dot(wt, t * g(a * t)) + near)

    def sample(self, rng, n, d):
        """``psi_inv(E / V) = (1 + E / G)^(-1/theta)`` with ``V = theta G``,
        G ~ Gamma(1/theta), whose Laplace transform is psi_inv.  At large
        theta G underflows, so it is drawn in logs as ``Gamma(1 + 1/theta)
        U^theta`` with U uniform, and the row is finished in logs."""
        th = self.theta
        if th == 0.0:  # independence: V = 1
            return np.exp(-rng.exponential(1.0, (n, d)))
        log_g = np.log(rng.gamma(1.0 + 1.0 / th, 1.0, n)) + th * np.log1p(-rng.random(n))
        with np.errstate(divide="ignore"):  # E = 0 gives U = 1
            log_e = np.log(rng.exponential(1.0, (n, d)))
        return np.exp(-np.logaddexp(0.0, log_e - log_g[:, None]) / th)


class _GumbelHougaard(_ArchGenerator):
    name = "gumbel-hougaard"
    valid = Interval(1.0, math.inf)
    sampleable = valid

    def diagonal(self, u):
        return np.power(u, 2.0 ** (1.0 / self.theta))

    def upper_pair(self, v):
        # C(u, u) = u ** 2 ** (1 / theta)
        return 2.0 * v + np.expm1(2.0 ** (1.0 / self.theta) * np.log1p(-v))

    def sample(self, rng, n, d):
        """``psi_inv(E / V) = exp(-(E / V)^(1/theta))`` with the positive
        stable frailty, totally skewed with unit scale (Chambers, Mallows &
        Stuck 1976), drawn in logs: its factors ``sin(u)^theta`` and
        ``(sin((1 - 1/theta) u) / W)^(theta - 1)`` under- and overflow at
        large theta."""
        th = self.theta
        if th == 1.0:  # independence: V = 1
            return np.exp(-rng.exponential(1.0, (n, d)))
        alpha = 1.0 / th
        u = math.pi * (1.0 - rng.random(n))  # in (0, pi], where every sine below is positive
        w = rng.exponential(1.0, n)
        log_v = (np.log(np.sin(alpha * u)) - th * np.log(np.sin(u))
                 + (th - 1.0) * (np.log(np.sin((1.0 - alpha) * u)) - np.log(w)))
        with np.errstate(divide="ignore"):  # E = 0 gives U = 1
            return np.exp(-np.exp(alpha * (np.log(rng.exponential(1.0, (n, d))) - log_v[:, None])))


class _Frank(_ArchGenerator):
    name = "frank"
    valid = Interval(-math.inf, math.inf, False)
    sampleable = Interval(0.0, math.inf)

    def diagonal(self, u):
        th = self.theta
        if th == 0.0:
            return u * u
        if th * u > 2.0:
            # near comonotone, C(u, u) > (1 - log(2) / 2) u, so u less a term below
            # log(2) / theta keeps its digits; expm1(-theta) rounds to -1 from 37 on
            # and expm1(theta) overflows from 710, and this form takes neither
            tail = -np.expm1(-th * u) - np.expm1(-th * (1.0 - u))
            return u - (np.log(tail) - np.log1p(-np.exp(-th))) / th
        # the log1p argument is positive for theta < 0 and at least e^-2 - 1 otherwise
        return -np.log1p(np.expm1(-th * u) ** 2 / np.expm1(-th)) / th

    def upper_pair(self, v):
        # Frank is radially symmetric, so the corner is C(v, v)
        return self.diagonal(v)

    def log_frailty(self, rng, n):
        """n draws of log V for the logarithmic frailty ``P(V = k) = p^k / (k
        theta)``, ``p = 1 - e^-theta``.  p rounds to 1 from theta = 37 on and
        V passes the largest double near theta = 710, so V is drawn in logs by
        Kemp's (1981) LK algorithm from ``log(1 - p) = -theta`` itself: with R,
        W uniform and ``q = 1 - e^(-theta W)``, V is 1 if R >= q, 2 if
        q^2 <= R < q, and else ``floor(1 + log R / log q)``."""
        log_r = np.log1p(-rng.random(n))  # R in (0, 1]
        a = self.theta * rng.random(n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_q = np.where(a < math.log(2.0), np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))
            many = np.where(a > 700.0, np.log(-log_r) + a, np.log(np.floor(1.0 - log_r / -log_q)))
        return np.where(log_r >= log_q, 0.0, np.where(log_r >= 2.0 * log_q, math.log(2.0), many))

    def sample(self, rng, n, d):
        """``psi_inv(E / V)`` in logs, from ``log V``."""
        th = self.theta
        if th == 0.0:  # independence: V = 1 and psi_inv(s) = e^-s
            return np.exp(-rng.exponential(1.0, (n, d)))
        log_v = self.log_frailty(rng, n)
        with np.errstate(divide="ignore"):
            log_s = np.log(rng.exponential(1.0, (n, d))) - log_v[:, None]
            s = np.exp(log_s)
            # psi_inv(s) = -log(1 + x) / theta with 1 + x = 1 - e^-s (1 - e^-theta); where
            # 1 + x < 1/2 its digits are in the positive terms -expm1(-s) + e^(-s - theta)
            x = np.exp(-s) * math.expm1(-th)
            log_one_less = np.where(log_s < -700.0, log_s, np.log(-np.expm1(-s)))  # log(1 - e^-s)
            return -np.where(x >= -0.5, np.log1p(x), np.logaddexp(log_one_less, -s - th)) / th


class _AliMikhailHaq(_ArchGenerator):
    name = "ali-mikhail-haq"
    valid = Interval(-1.0, 1.0)
    sampleable = Interval(0.0, 1.0)

    def diagonal(self, u):
        return u * u / (1.0 - self.theta * (1.0 - u) ** 2)

    def upper_pair(self, v):
        # C(u, u) = u^2 / (1 - theta v^2), so the corner is rational in v
        th = self.theta
        return v * v * (1.0 + th - 2.0 * th * v) / (1.0 - th * v * v)

    def sample(self, rng, n, d):
        """``psi_inv(E / V) = (1 - theta) / (exp(E / V) - theta)`` with the
        geometric frailty ``P(V = k) = (1 - theta) theta^(k - 1)``; V = 1 at
        theta = 0."""
        th = self.theta
        v = np.ones(n) if th == 0.0 else rng.geometric(1.0 - th, n).astype(float)
        return (1.0 - th) / (np.exp(rng.exponential(1.0, (n, d)) / v[:, None]) - th)


_ARCH_FAMILIES = {
    "clayton": _Clayton,
    "gumbel-hougaard": _GumbelHougaard,
    "gumbel": _GumbelHougaard,
    "frank": _Frank,
    "ali-mikhail-haq": _AliMikhailHaq,
    "amh": _AliMikhailHaq,
}


def _arch_family(name) -> type:
    """The generator class of a family name or alias, in any case, with
    ``_``, ``-`` or spaces between its words."""
    key = str(name).strip().lower().replace("_", "-").replace(" ", "-")
    if key not in _ARCH_FAMILIES:
        raise ModelSpecError(
            f"unknown Archimedean family {name!r}; choose from {sorted(_ARCH_FAMILIES)}"
        )
    return _ARCH_FAMILIES[key]


class ArchimedeanModel(DependenceModel):
    """Exchangeable Archimedean copula with uniform marginals.

    Thresholds are taken directly on the uniform scale: the events are
    ``{U_i > u}`` for ``u`` in (0, 1), so the marginal exceedance
    probability is ``1 - u`` and the pairwise one follows from
    the copula diagonal.  Sampling uses the frailty construction and is
    available for parameter values where the frailty law exists
    (non-negative association); construction accepts the full textbook
    parameter range so the model can still be interrogated analytically.
    """

    def __init__(self, family: str, theta: float, d: int):
        d = _dimension(d)
        gen_cls = _arch_family(family)
        theta = _real(theta, "theta")
        if not gen_cls.valid.contains(theta):
            raise ModelSpecError(f"theta={theta} outside the valid range for {gen_cls.name}")
        self._gen = gen_cls(theta)
        self._d = d

    @property
    def d(self) -> int:
        return self._d

    @property
    def family(self) -> str:
        return self._gen.name

    @property
    def theta(self) -> float:
        return self._gen.theta

    def check_threshold(self, u: float) -> float:
        u = _real(u, "the threshold u")
        if not 0.0 < u < 1.0:
            raise ModelSpecError(
                f"Archimedean thresholds live on the uniform scale (0, 1), got {u}"
            )
        return u

    def sample(self, rng, size) -> np.ndarray:
        if not self._gen.sampleable.contains(self.theta):
            raise CapabilityError(
                f"no frailty construction for {self.family} with theta={self.theta}; "
                "sampling supports the non-negative-association range only"
            )
        return self._gen.sample(rng, _dimension(size, "size", least=0), self._d)

    def diagonal(self, u: float) -> float:
        """Copula diagonal ``C(u, u)``."""
        return float(self._gen.diagonal(self.check_threshold(u)))

    def marginal_survival(self, i: int, gamma: float) -> float:
        self._check_index(i)
        return 1.0 - self.check_threshold(gamma)

    def pair_survival(self, i: int, j: int, gamma: float) -> float:
        """``1 - 2u + C(u, u)``, which cancels as u tends to 1; from u = 1/2
        on, where ``v = 1 - u`` is exact, the family's corner in v."""
        self._check_pair(i, j)
        u = self.check_threshold(gamma)
        if u < 0.5:
            return 1.0 - 2.0 * u + self.diagonal(u)
        return float(self._gen.upper_pair(1.0 - u))


# ---------------------------------------------------------------------------
# Finite pattern distributions (exhaustive test oracle)


class FinitePatternModel(DependenceModel):
    """Explicit distribution over the ``2**d`` event patterns.

    Exists so that every estimator can be checked against exhaustive
    enumeration.  Thresholds are ignored: the events are the pattern bits
    themselves.  Samples are 0/1 vectors.
    """

    def __init__(self, pmf, d=None):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1:
            raise ModelSpecError("pmf must be one-dimensional")
        size = pmf.size
        inferred = int(round(math.log2(size))) if size > 0 else 0
        if size < 2 or (1 << inferred) != size:
            raise ModelSpecError("pmf length must be a power of two (one entry per pattern)")
        if d is not None and _dimension(d) != inferred:
            raise ModelSpecError(f"pmf length {size} does not match d={d}")
        if inferred > 20:
            raise ModelSpecError("finite pattern models support d <= 20")
        if (pmf < 0).any() or abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise ModelSpecError("pmf must be non-negative and sum to 1 within 1e-12")
        self._pmf = pmf.copy()
        self._pmf.setflags(write=False)
        self._d = inferred

    @property
    def d(self) -> int:
        return self._d

    @property
    def pmf(self) -> np.ndarray:
        return self._pmf

    @property
    def patterns(self) -> np.ndarray:
        return ev.enumerate_patterns(self._d)

    def exceedance_patterns(self, x, gamma) -> np.ndarray:
        return np.asarray(x, dtype=float) > 0.5

    def sample(self, rng, size) -> np.ndarray:
        # the pmf as given, not renormalised: the draw sees the model's own p
        return _FiniteConditional(self, np.arange(self._pmf.size), self._pmf).draw(rng, size)

    def _given(self, events) -> np.ndarray:
        """The mask of the patterns in which every event in ``events`` occurs."""
        return self.patterns[:, list(events)].all(axis=1)

    def marginal_survival(self, i: int, gamma: float = 0.0) -> float:
        return float(self._pmf[self._given((self._check_index(i),))].sum())

    def pair_survival(self, i: int, j: int, gamma: float = 0.0) -> float:
        return float(self._pmf[self._given(self._check_pair(i, j))].sum())

    def _restricted(self, required: tuple[int, ...]) -> "_FiniteConditional":
        mask = self._given(required)
        total = float(self._pmf[mask].sum())
        if total <= 0.0:
            raise ModelSpecError(f"conditioning event {required} has probability zero")
        return _FiniteConditional(self, np.where(mask)[0], self._pmf[mask] / total)

    def conditional_given_exceedance(self, i: int, gamma: float = 0.0):
        return self._restricted((self._check_index(i),))

    def conditional_given_pair_exceedance(self, i: int, j: int, gamma: float = 0.0):
        return self._restricted(self._check_pair(i, j))

    def to_json(self) -> dict:
        """The ``build_model`` spec of this model."""
        return {"type": "finite", "d": self._d, "pmf": [float(p) for p in self._pmf]}


class _FiniteConditional:
    def __init__(self, model: FinitePatternModel, indices: np.ndarray, probs: np.ndarray):
        self.model = model
        self.indices = indices
        self.probs = probs

    def draw(self, rng, size) -> np.ndarray:
        pick = rng.choice(self.indices.size, size=_dimension(size, "size", least=0), p=self.probs)
        return self.model.patterns[self.indices[pick]].astype(float)


# ---------------------------------------------------------------------------
# Declarative construction


def build_model(spec: dict) -> DependenceModel:
    """Build a model from its JSON-style description.

    Recognized forms::

        {"type": "normal", "d": 4, "rho": 0.75}
        {"type": "normal", "sigma": [[...], ...], "mu": [...]}
        {"type": "laplace", "d": 4}
        {"type": "archimedean", "family": "clayton", "theta": 2.0, "d": 3}
        {"type": "ar1", "phi": 0.5, "sigma_eps": 0.866, "d": 8}
        {"type": "finite", "d": 2, "pmf": [...]}
    """
    if not isinstance(spec, dict):
        raise ModelSpecError("model spec must be a JSON object")
    kind = spec.get("type")
    try:
        if kind == "normal":
            if "sigma" in spec:
                return NormalModel(np.asarray(spec["sigma"], dtype=float), spec.get("mu"))
            if "rho" in spec:
                return NormalModel.equicorrelated(spec["d"], spec["rho"])
            raise ModelSpecError("normal spec needs either 'sigma' or ('d', 'rho')")
        if kind == "laplace":
            return LaplaceModel(spec["d"])
        if kind == "archimedean":
            return ArchimedeanModel(spec["family"], spec["theta"], spec["d"])
        if kind == "ar1":  # the stationary path at d consecutive times: a Toeplitz normal
            phi, sigma_eps, d = spec["phi"], spec["sigma_eps"], spec["d"]
            phi, sigma_eps = _real(phi, "phi"), _real(sigma_eps, "sigma_eps")
            d = _dimension(d, "path length")
            if not -1.0 < phi < 1.0:
                raise ModelSpecError("autoregression coefficient must lie in (-1, 1)")
            if sigma_eps <= 0.0:
                raise ModelSpecError("innovation standard deviation must be positive")
            lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
            return NormalModel(sigma_eps**2 / (1.0 - phi**2) * phi**lags)
        if kind == "finite":
            return FinitePatternModel(spec["pmf"], d=spec.get("d"))
    except ModelSpecError:
        raise
    except KeyError as exc:
        raise ModelSpecError(f"model spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelSpecError(f"invalid {kind} model spec: {exc}") from exc
    raise ModelSpecError(f"unknown model type {kind!r}")
