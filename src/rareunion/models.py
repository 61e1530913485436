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
        """``size`` draws, one row each (shape ``(size, d)``)."""

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

    def sample(self, rng, size) -> np.ndarray:
        """Rows are drawn block by block, with the bits of
        ``mu + z @ chol.T`` on one ``(n, d)`` normal draw."""
        n = _dimension(size, "size", least=0)
        x = np.empty((n, self.d))
        z_buf = np.empty((min(n, samplers.ROW_BLOCK), self.d))
        for start, stop in samplers.row_blocks(n):
            z = rng.standard_normal(out=z_buf[:stop - start])
            np.matmul(z, self._chol.T, out=x[start:stop])
            x[start:stop] += self._mu
        return x

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
        return _NormalTail(self, (self._check_index(i),), self.check_threshold(gamma))

    def conditional_given_pair_exceedance(self, i: int, j: int, gamma: float):
        return _NormalTail(self, self._check_pair(i, j), self.check_threshold(gamma))


class _NormalTail:
    """Draws from the Gaussian law given ``X_k > gamma`` for each k in ``given``.

    One conditioned coordinate is a truncated-normal draw; a pair is an
    exact minimax-tilted accept-reject draw.  The whole vector is then
    drawn given those values by kriging (``samplers.GaussianConditional``):
    one unconditional model draw, moved by the gain
    ``K = sigma[:, given] sigma[given, given]^-1``.
    """

    def __init__(self, model: NormalModel, given: tuple, gamma: float):
        self.given = given
        self._mu = model.mu[list(given)]
        self._sd = model._sd[list(given)]
        self._t = (gamma - self._mu) / self._sd
        if len(given) == 2:
            self._rho = model.correlation(*given)
        self._cond = samplers.GaussianConditional(model, given)

    def draw(self, rng, size) -> np.ndarray:
        n = _dimension(size, "size", least=0)
        if len(self.given) == 1:
            z = (samplers.sample_truncated_std_normal(self._t[0], rng, n),)
        else:
            z = samplers.sample_truncated_std_normal_pair(*self._t, self._rho, rng, size=n)
        return self._cond.draw(self._mu + self._sd * np.column_stack(z), rng)


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
        r = rng.exponential(1.0, n)
        y = rng.standard_normal((n, self._d))
        return np.sqrt(r)[:, None] * y

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
    """One Archimedean generator: psi, its inverse, and a frailty law.

    The frailty law V has Laplace transform equal to the generator inverse,
    so ``U_i = psi_inv(E_i / V)`` with i.i.d. unit exponentials is an exact
    d-dimensional draw.  Families keep their textbook parameter ranges for
    construction (``valid``); sampling is limited to the range where the
    frailty law exists (``sampleable``).
    """

    name = ""

    def __init__(self, theta: float):
        self.theta = float(theta)


class _Clayton(_ArchGenerator):
    name = "clayton"
    valid = Interval(-1.0, math.inf)
    sampleable = Interval(0.0, math.inf)

    def psi(self, t):
        th = self.theta
        if th == 0.0:
            return -np.log(t)
        return (np.power(t, -th) - 1.0) / th

    def psi_inv(self, s):
        th = self.theta
        if th == 0.0:
            return np.exp(-s)
        base = 1.0 + th * np.asarray(s, dtype=float)
        if th < 0.0:
            base = np.maximum(base, 0.0)
        return np.power(base, -1.0 / th)

    def frailty(self, rng, n):
        if self.theta == 0.0:
            return np.ones(n)
        # Laplace transform of Gamma(1/theta, scale=theta) is (1 + theta s)^(-1/theta)
        return rng.gamma(1.0 / self.theta, self.theta, n)


class _GumbelHougaard(_ArchGenerator):
    name = "gumbel-hougaard"
    valid = Interval(1.0, math.inf)
    sampleable = valid

    def psi(self, t):
        return np.power(-np.log(t), self.theta)

    def psi_inv(self, s):
        return np.exp(-np.power(np.asarray(s, dtype=float), 1.0 / self.theta))

    def frailty(self, rng, n):
        if self.theta == 1.0:
            return np.ones(n)
        alpha = 1.0 / self.theta
        # positive stable draw, totally skewed, unit scale
        u = rng.random(n) * math.pi
        w = rng.exponential(1.0, n)
        a = np.sin(alpha * u) / np.power(np.sin(u), 1.0 / alpha)
        b = np.power(np.sin((1.0 - alpha) * u) / w, (1.0 - alpha) / alpha)
        return a * b


class _Frank(_ArchGenerator):
    name = "frank"
    valid = Interval(-math.inf, math.inf, False)
    sampleable = Interval(0.0, math.inf)

    def psi(self, t):
        th = self.theta
        if th == 0.0:
            return -np.log(t)
        return -np.log(np.expm1(-th * np.asarray(t, dtype=float)) / math.expm1(-th))

    def psi_inv(self, s):
        th = self.theta
        if th == 0.0:
            return np.exp(-s)
        return -np.log1p(np.exp(-np.asarray(s, dtype=float)) * math.expm1(-th)) / th

    def frailty(self, rng, n):
        if self.theta == 0.0:
            return np.ones(n)
        return rng.logseries(-math.expm1(-self.theta), n).astype(float)


class _AliMikhailHaq(_ArchGenerator):
    name = "ali-mikhail-haq"
    valid = Interval(-1.0, 1.0)
    sampleable = Interval(0.0, 1.0)

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        return np.log((1.0 - self.theta * (1.0 - t)) / t)

    def psi_inv(self, s):
        return (1.0 - self.theta) / (np.exp(np.asarray(s, dtype=float)) - self.theta)

    def frailty(self, rng, n):
        if self.theta == 0.0:
            return np.ones(n)
        return rng.geometric(1.0 - self.theta, n).astype(float)


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
        n = _dimension(size, "size", least=0)
        v = self._gen.frailty(rng, n)
        e = rng.exponential(1.0, (n, self._d))
        return self._gen.psi_inv(e / v[:, None])

    def diagonal(self, u: float) -> float:
        """Copula diagonal ``C(u, u)``."""
        u = self.check_threshold(u)
        return float(self._gen.psi_inv(2.0 * self._gen.psi(u)))

    def marginal_survival(self, i: int, gamma: float) -> float:
        self._check_index(i)
        return 1.0 - self.check_threshold(gamma)

    def pair_survival(self, i: int, j: int, gamma: float) -> float:
        self._check_pair(i, j)
        u = self.check_threshold(gamma)
        return 1.0 - 2.0 * u + self.diagonal(u)


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
