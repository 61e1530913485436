"""Rare-event efficiency classification and diagnostics.

The central question: as the threshold grows, does the relative error of
the first-order partially-deterministic estimator stay bounded (BRE),
blow up slower than any power (LE), or degrade outright?  The governing
ratio is ``max_pair P(A_i A_j) / max_k P(A_k)^(2-eps)``; everything here
either evaluates that ratio numerically or decides its limit from model
structure:

* residual tail index rules for identically-distributed pairs,
* a catalogue verdict per Archimedean family and parameter,
* closed-form rules for type-I elliptical laws (normal and the
  power-exponential Kotz family) built from pairwise tail scales.

Gaussian special cases are covariances, not rules of their own: an AR(1)
path is a ``NormalModel`` with Toeplitz covariance ``phi**|i-j|``, so it
gets the scale and residual-tail-index rules of every normal, and its
verdict depends on the path length as well as on ``phi``.

Asymptotic rate formulas are exposed up to unspecified positive
constants; consumers must compare them on a log scale only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelSpecError, _dimension, _real
from .estimators import _Layers
from .models import ArchimedeanModel, DependenceModel, Interval, NormalModel, _arch_family

__all__ = [
    "BRE",
    "LE",
    "INEFFICIENT",
    "UNKNOWN",
    "EfficiencyVerdict",
    "SlowlyVarying",
    "LedfordTawnParams",
    "gaussian_copula_ledford_tawn",
    "classify_ledford_tawn",
    "LEDFORD_TAWN_TABLE",
    "Interval",
    "ArchimedeanFamilyRule",
    "ARCHIMEDEAN_TABLE",
    "classify_archimedean",
    "classify_kotz3",
    "classify_normal",
    "classify_model",
    "savage_condition",
    "KotzRadial",
    "NORMAL_RADIAL",
    "berman_univariate_asymptotic",
    "EllipticalInput",
    "PairTailParams",
    "bivariate_type1_asymptotic_rate",
    "RatioRow",
    "RatioDiagnostics",
    "empirical_efficiency_ratio",
]

BRE = "BRE"
LE = "LE"
INEFFICIENT = "Inefficient"
UNKNOWN = "Unknown"

_LEVELS = (BRE, LE, INEFFICIENT, UNKNOWN)

_REL_TOL = 1e-9


@dataclass(frozen=True)
class EfficiencyVerdict:
    level: str
    diagnostics: dict = field(default_factory=dict)
    rules_fired: tuple = ()

    def __post_init__(self):
        if self.level not in _LEVELS:
            raise ModelSpecError(f"level must be one of {_LEVELS}")

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "diagnostics": dict(self.diagnostics),
            "rules_fired": list(self.rules_fired),
        }


# ---------------------------------------------------------------------------
# Residual tail index rules


@dataclass(frozen=True)
class SlowlyVarying:
    """Symbolic tag for the slowly-varying factor of a pair tail.

    Only the limit behaviour matters for classification: a constant never
    diverges, a positive log power diverges, and a custom tag is treated
    as unknown.
    """

    kind: str  # "constant" | "log_power" | "custom"
    value: Optional[float] = None
    note: Optional[str] = None

    @staticmethod
    def constant(value: Optional[float] = None) -> "SlowlyVarying":
        return SlowlyVarying(kind="constant", value=value)

    @staticmethod
    def log_power(exponent: float) -> "SlowlyVarying":
        return SlowlyVarying(kind="log_power", value=float(exponent))

    @staticmethod
    def custom(note: str) -> "SlowlyVarying":
        return SlowlyVarying(kind="custom", note=note)

    @property
    def diverges(self) -> Optional[bool]:
        if self.kind == "constant":
            return False
        if self.kind == "log_power":
            return self.value > 0.0
        return None


@dataclass(frozen=True)
class LedfordTawnParams:
    """Residual tail index eta and slowly-varying factor of the maximal pair,
    with the pair survival written against unit-Frechet marginals."""

    eta: float
    L: SlowlyVarying

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ModelSpecError("the residual tail index lives in (0, 1]")


def gaussian_copula_ledford_tawn(rho: float) -> LedfordTawnParams:
    """Residual tail parameters of a Gaussian copula pair: ``eta = (1+rho)/2``
    with a log-power slowly-varying factor of exponent ``-rho/(1+rho)``."""
    rho = _real(rho, "correlation")
    if not -1.0 < rho < 1.0:
        raise ModelSpecError("correlation must lie in (-1, 1)")
    return LedfordTawnParams(eta=(1.0 + rho) / 2.0, L=SlowlyVarying.log_power(-rho / (1.0 + rho)))


def classify_ledford_tawn(params: LedfordTawnParams) -> EfficiencyVerdict:
    """Verdict from the residual tail index of the maximal pair.

    Below one half the pair tail decays faster than independence and the
    first-order estimator keeps bounded relative error.  At exactly one
    half logarithmic efficiency always holds, upgraded to BRE when the
    slowly-varying factor stays bounded.  Above one half the squared
    marginal decays faster than the pair and the relative error diverges.
    """
    eta = params.eta
    diag = {"eta": eta, "L_kind": params.L.kind}
    if params.L.value is not None:
        diag["L_value"] = params.L.value
    if eta < 0.5 - _REL_TOL:
        return EfficiencyVerdict(BRE, diag, ("eta_below_half",))
    if abs(eta - 0.5) <= _REL_TOL:
        diverges = params.L.diverges
        if diverges is False:
            return EfficiencyVerdict(BRE, diag, ("eta_half", "L_bounded"))
        if diverges is True:
            return EfficiencyVerdict(LE, diag, ("eta_half", "L_diverges"))
        return EfficiencyVerdict(LE, diag, ("eta_half", "L_unknown"))
    return EfficiencyVerdict(INEFFICIENT, diag, ("eta_above_half",))


@dataclass(frozen=True)
class LedfordTawnRow:
    number: int
    name: str
    eta: float
    L: SlowlyVarying


# Residual tail indices catalogued for common bivariate copulas (the
# directory's own row numbering is kept; constants depend on the family
# parameters and are irrelevant for the verdict).
LEDFORD_TAWN_TABLE = (
    LedfordTawnRow(1, "ali-mikhail-haq", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(2, "bb10", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(3, "frank", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(4, "morgenstern", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(5, "plackett", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(6, "crowder", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(7, "bb2", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(8, "pareto", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(9, "raftery", 0.5, SlowlyVarying.constant()),
    LedfordTawnRow(11, "joe", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(12, "bb8", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(13, "bb6", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(14, "extreme-value", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(15, "b11", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(16, "bb1", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(17, "bb3", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(18, "bb4", 1.0, SlowlyVarying.constant()),
    LedfordTawnRow(19, "bb7", 1.0, SlowlyVarying.constant()),
)


# ---------------------------------------------------------------------------
# Archimedean family catalogue


@dataclass(frozen=True)
class ArchimedeanFamilyRule:
    """Catalogue entry: parameter range and the subset with a BRE guarantee.

    The guarantee comes from smoothness of the generator inverse at the
    origin (bounded second derivative), which caps the pair tail at the
    square of the marginal tail.  ``efficient`` is one of ``all``,
    ``one_only`` (the independence value 1), ``all_except_zero`` or
    ``none``.
    """

    number: int
    name: Optional[str]
    valid: Interval
    efficient: str

    def theta_efficient(self, theta: float) -> bool:
        if self.efficient == "all":
            return True
        if self.efficient == "one_only":
            return theta == 1.0
        if self.efficient == "all_except_zero":
            return theta != 0.0
        return False


_INF = math.inf

ARCHIMEDEAN_TABLE = (
    ArchimedeanFamilyRule(1, "clayton", _arch_family("clayton").valid, "all"),
    ArchimedeanFamilyRule(2, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(3, "ali-mikhail-haq", _arch_family("ali-mikhail-haq").valid, "all"),
    ArchimedeanFamilyRule(4, "gumbel-hougaard", _arch_family("gumbel-hougaard").valid, "one_only"),
    ArchimedeanFamilyRule(5, "frank", _arch_family("frank").valid, "all_except_zero"),
    ArchimedeanFamilyRule(6, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(7, None, Interval(0.0, 1.0, False, True), "all"),
    ArchimedeanFamilyRule(8, None, Interval(1.0, _INF, True, False), "all"),
    ArchimedeanFamilyRule(9, None, Interval(0.0, 1.0, False, True), "all"),
    ArchimedeanFamilyRule(10, None, Interval(0.0, 1.0, False, True), "all"),
    ArchimedeanFamilyRule(11, None, Interval(0.0, 0.5, False, True), "all"),
    ArchimedeanFamilyRule(12, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(13, None, Interval(0.0, _INF, False, False), "all"),
    ArchimedeanFamilyRule(14, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(15, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(16, None, Interval(0.0, _INF, True, False), "all"),
    ArchimedeanFamilyRule(17, None, Interval(-_INF, _INF, False, False), "all_except_zero"),
    ArchimedeanFamilyRule(18, None, Interval(2.0, _INF, True, False), "none"),
    ArchimedeanFamilyRule(19, None, Interval(0.0, _INF, False, False), "all"),
    ArchimedeanFamilyRule(20, None, Interval(0.0, _INF, False, False), "all"),
    ArchimedeanFamilyRule(21, None, Interval(1.0, _INF, True, False), "one_only"),
    ArchimedeanFamilyRule(22, None, Interval(0.0, 1.0, False, True), "all"),
)


def classify_archimedean(family, theta: float) -> EfficiencyVerdict:
    """Catalogue verdict for an Archimedean copula family and parameter.

    ``family`` is a catalogue number or one of the named families.  A
    parameter inside the family's guaranteed subset yields BRE; elsewhere
    the catalogue is silent, so the verdict is Unknown rather than a
    proof of inefficiency.
    """
    if isinstance(family, str):
        name = _arch_family(family).name
        row = next(row for row in ARCHIMEDEAN_TABLE if row.name == name)
    else:
        number = _dimension(family, "family number", least=None)
        row = next((row for row in ARCHIMEDEAN_TABLE if row.number == number), None)
        if row is None:
            raise ModelSpecError(f"no Archimedean catalogue entry number {number}")
    theta = _real(theta, "theta")
    if not row.valid.contains(theta):
        raise ModelSpecError(
            f"theta={theta} outside the valid range {row.valid.describe()} "
            f"for family #{row.number}"
        )
    diag = {
        "family_number": row.number,
        "family_name": row.name or f"#{row.number}",
        "theta": theta,
        "efficient_subset": row.efficient,
    }
    if row.theta_efficient(theta):
        return EfficiencyVerdict(BRE, diag, ("archimedean_catalogue_efficient",))
    return EfficiencyVerdict(UNKNOWN, diag, ("archimedean_catalogue_not_covered",))


# ---------------------------------------------------------------------------
# Type-I elliptical machinery


@dataclass(frozen=True)
class KotzRadial:
    """Power-exponential radial tail ``K x^N exp(-r x^delta)`` with scaling
    function ``w(x) = r delta x^(delta-1)``.  The Gaussian radial is the
    ``N=0, r=1/2, delta=2`` member."""

    K: float = 1.0
    N: float = 0.0
    r: float = 0.5
    delta: float = 2.0

    def __post_init__(self):
        if self.K <= 0 or self.r <= 0 or self.delta <= 0:
            raise ModelSpecError("Kotz radial parameters K, r, delta must be positive")

    def sf(self, x: float) -> float:
        if x <= 0:
            raise ModelSpecError("the radial tail approximation needs x > 0")
        return self.K * x**self.N * math.exp(-self.r * x**self.delta)

    def w(self, x: float) -> float:
        return self.r * self.delta * x ** (self.delta - 1.0)

    @property
    def w_over_x_bounded(self) -> bool:
        """Whether ``w(x)/x`` stays bounded as x grows (delta <= 2)."""
        return self.delta <= 2.0


NORMAL_RADIAL = KotzRadial(K=1.0, N=0.0, r=0.5, delta=2.0)


@dataclass(frozen=True)
class PairTailParams:
    """Location/scale of the joint tail of one pair, ordered so the first
    component has the larger marginal scale."""

    i: int
    j: int
    a: float
    rho: float
    mu_ij: float
    kappa_ij: float
    branch: str  # "rho_ge_a" | "rho_lt_a"


class EllipticalInput:
    """Mean, covariance and radial tail of a type-I elliptical vector,
    with the derived pairwise tail parameters.

    For a pair with scales ``s_i >= s_j`` and correlation ``rho``, the
    joint tail is governed by ``kappa = s_j`` when ``rho >= s_j/s_i``
    (the smaller component rides along) and otherwise by the root of
    ``s_i^2 s_j^2 (1-rho^2) / (s_i^2 - 2 rho s_i s_j + s_j^2)``, which
    meets ``s_j`` continuously at the branch point.  The location
    parameter on the second branch is taken as
    ``(m_i - a rho (m_i + m_j) + a^2 m_j) / (a (1 - rho^2))``; it is zero
    for centred models, the only case exercised by the reference checks,
    and should be treated as experimental otherwise.
    """

    def __init__(self, mu, sigma, radial: KotzRadial = NORMAL_RADIAL):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or mu.shape != (sigma.shape[0],):
            raise ModelSpecError("need a mean vector and a matching square covariance")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ModelSpecError("mean and covariance entries must be finite")
        if (np.diag(sigma) <= 0).any():
            raise ModelSpecError("covariance diagonal must be positive")
        self.mu = mu
        self.sigma = sigma
        self.radial = radial
        self.sd = np.sqrt(np.diag(sigma))

    @property
    def d(self) -> int:
        return self.mu.size

    def pair_params(self, i: int, j: int) -> PairTailParams:
        i, j = _dimension(i, "pair index", least=0), _dimension(j, "pair index", least=0)
        if max(i, j) >= self.d or i == j:
            raise ModelSpecError(f"need two different pair indices below d={self.d}, got {i}, {j}")
        # order so the first index carries the larger scale
        if (self.sd[i], self.mu[i], -i) < (self.sd[j], self.mu[j], -j):
            i, j = j, i
        s_i, s_j = self.sd[i], self.sd[j]
        m_i, m_j = self.mu[i], self.mu[j]
        rho = float(self.sigma[i, j] / (s_i * s_j))
        a = s_j / s_i
        if rho >= a:
            return PairTailParams(i, j, a, rho, mu_ij=m_j, kappa_ij=s_j, branch="rho_ge_a")
        denom = s_i * s_i - 2.0 * rho * s_i * s_j + s_j * s_j
        kappa_sq = s_i * s_i * s_j * s_j * (1.0 - rho * rho) / denom
        mu_ij = (m_i - a * rho * (m_i + m_j) + a * a * m_j) / (a * (1.0 - rho * rho))
        return PairTailParams(i, j, a, rho, mu_ij=mu_ij, kappa_ij=math.sqrt(kappa_sq), branch="rho_lt_a")

    def dominant_marginal(self) -> tuple[float, float]:
        """(sigma1, mu1) of the component with the largest marginal tail."""
        order = sorted(range(self.d), key=lambda k: (self.sd[k], self.mu[k]), reverse=True)
        lead = order[0]
        return float(self.sd[lead]), float(self.mu[lead])

    def extremal_pair_params(self) -> tuple[float, float]:
        """(kappa, mu) maximized over pairs; mu over the kappa-maximizing pairs."""
        if self.d < 2:
            raise ModelSpecError("pair parameters need at least two components")
        params = [self.pair_params(i, j) for i in range(self.d) for j in range(i + 1, self.d)]
        kappa = max(p.kappa_ij for p in params)
        mus = [p.mu_ij for p in params if abs(p.kappa_ij - kappa) <= _REL_TOL * max(kappa, 1.0)]
        return float(kappa), float(max(mus))


def classify_kotz3(
    K: float,
    N: float,
    r: float,
    delta: float,
    sigma1: float,
    kappa: float,
    mu1: float,
    mu: float,
) -> EfficiencyVerdict:
    """Efficiency rule for a power-exponential radial tail.

    Compares ``sigma1**delta`` with ``2 kappa**delta``: strictly larger
    means the squared dominant marginal decays no faster than the worst
    pair (BRE); equality gives LE, upgraded to BRE when ``delta > 1`` and
    the dominant location beats the pair location; strictly smaller means
    the pair tail dominates and the estimator is inefficient.
    """
    radial = KotzRadial(K=K, N=N, r=r, delta=delta)
    lhs = float(sigma1) ** radial.delta
    rhs = 2.0 * float(kappa) ** radial.delta
    diag = {
        "sigma1": float(sigma1),
        "kappa": float(kappa),
        "mu1": float(mu1),
        "mu": float(mu),
        "delta": radial.delta,
        "sigma1_pow_delta": lhs,
        "two_kappa_pow_delta": rhs,
    }
    tol = _REL_TOL * max(abs(lhs), abs(rhs), 1e-300)
    if lhs > rhs + tol:
        return EfficiencyVerdict(BRE, diag, ("scale_dominates",))
    if abs(lhs - rhs) <= tol:
        if radial.delta > 1.0 and mu1 > mu:
            return EfficiencyVerdict(BRE, diag, ("scale_boundary", "location_dominates"))
        return EfficiencyVerdict(LE, diag, ("scale_boundary",))
    return EfficiencyVerdict(INEFFICIENT, diag, ("pair_scale_dominates",))


def classify_normal(model: NormalModel) -> EfficiencyVerdict:
    """Efficiency of the first-order estimator for a Gaussian vector.

    Specialization of the power-exponential rule with exponent two, with
    all pair parameters derived from the covariance.
    """
    if model.d < 2:
        return EfficiencyVerdict(
            BRE, {"d": model.d}, ("single_component",)
        )
    ell = EllipticalInput(model.mu, model.sigma, NORMAL_RADIAL)
    sigma1, mu1 = ell.dominant_marginal()
    kappa, mu = ell.extremal_pair_params()
    verdict = classify_kotz3(1.0, 0.0, 0.5, 2.0, sigma1, kappa, mu1, mu)
    return EfficiencyVerdict(
        verdict.level,
        verdict.diagnostics,
        ("normal_scale_rule",) + verdict.rules_fired,
    )


def classify_model(model: DependenceModel) -> EfficiencyVerdict:
    """Best available structural verdict for a model.

    Gaussian models combine the scale rule with the residual-tail-index
    rule when the marginals are exchangeable enough for the latter to
    apply; on disagreement the sharper residual-tail verdict is reported
    and both sets of diagnostics are kept.
    """
    if isinstance(model, ArchimedeanModel):
        return classify_archimedean(model.family, model.theta)
    if isinstance(model, NormalModel):
        scale_verdict = classify_normal(model)
        sd = np.sqrt(np.diag(model.sigma))
        identical = (
            model.d >= 2
            and np.allclose(sd, sd[0], rtol=1e-12, atol=0.0)
            and np.allclose(model.mu, model.mu[0], rtol=0.0, atol=1e-12)
        )
        if not identical:
            return scale_verdict
        corr = model.sigma / np.outer(sd, sd)
        rho_max = float(max(corr[i, j] for i in range(model.d) for j in range(i + 1, model.d)))
        lt_verdict = classify_ledford_tawn(gaussian_copula_ledford_tawn(rho_max))
        diag = dict(scale_verdict.diagnostics)
        diag.update({f"lt_{k}": v for k, v in lt_verdict.diagnostics.items()})
        diag["rho_max"] = rho_max
        return EfficiencyVerdict(
            lt_verdict.level,
            diag,
            lt_verdict.rules_fired + scale_verdict.rules_fired,
        )
    return EfficiencyVerdict(
        UNKNOWN,
        {"model": type(model).__name__},
        ("no_structural_rule", "use_empirical_ratio"),
    )


# ---------------------------------------------------------------------------
# Savage condition and asymptotic rates


def savage_condition(sigma, t) -> tuple[bool, np.ndarray]:
    """Check whether the Gaussian tail quadratic program is cornered at ``t``.

    Returns the indicator of ``sigma^{-1} t > 0`` componentwise along with
    the vector itself for diagnostics.  When it holds, the large-deviation
    rate of the joint orthant is attained at the corner and every
    component matters in the limit.
    """
    sigma = np.asarray(sigma, dtype=float)
    t = np.asarray(t, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or t.shape != (sigma.shape[0],):
        raise ModelSpecError("need a square covariance and a matching threshold vector")
    if not (np.isfinite(sigma).all() and np.isfinite(t).all()):
        raise ModelSpecError("covariance and threshold entries must be finite")
    try:
        x = np.linalg.solve(sigma, t)
    except np.linalg.LinAlgError as exc:
        raise ModelSpecError("covariance matrix is singular") from exc
    return bool((x > 0).all()), x


def berman_univariate_asymptotic(radial: KotzRadial, mu_i: float, sigma_i: float, gamma: float) -> float:
    """Leading-order marginal tail of a type-I elliptical component.

    ``F̄(v) / sqrt(2 pi v w(v))`` at the standardized level
    ``v = (gamma - mu_i)/sigma_i``; the vanishing correction factor is
    dropped.
    """
    if sigma_i <= 0:
        raise ModelSpecError("the marginal scale must be positive")
    v = (_real(gamma, "gamma") - float(mu_i)) / float(sigma_i)
    if v <= 0:
        raise ModelSpecError("the tail approximation needs a standardized level above zero")
    wv = radial.w(v)
    if wv <= 0:
        raise ModelSpecError("the scaling function must be positive at the evaluation point")
    return radial.sf(v) / math.sqrt(2.0 * math.pi * v * wv)


def bivariate_type1_asymptotic_rate(ell: EllipticalInput, i: int, j: int, gamma: float) -> tuple[float, str]:
    """Joint tail rate of one pair, up to an unspecified positive constant.

    Returns ``F̄(v) (2 pi v w(v))^{-1/2}`` on the ``rho > a`` branch and
    ``F̄(v) (2 pi v w(v))^{-1}`` on the ``rho < a`` branch, with
    ``v = (gamma - mu_ij)/kappa_ij``.  On the boundary branch the rate
    carries an unknown constant and requires the usual side condition
    (dominant location or sub-linear scaling function).  Constants are
    never fabricated: compare rates on a log scale only.
    """
    p = ell.pair_params(i, j)
    v = (_real(gamma, "gamma") - p.mu_ij) / p.kappa_ij
    if v <= 0:
        raise ModelSpecError("the joint tail approximation needs a standardized level above zero")
    wv = ell.radial.w(v)
    base = 2.0 * math.pi * v * wv
    if abs(p.rho - p.a) <= _REL_TOL:
        if not (ell.mu[p.i] >= ell.mu[p.j] or ell.radial.w_over_x_bounded):
            raise ModelSpecError(
                "boundary branch needs the dominant location or a sub-linear scaling function"
            )
        return ell.radial.sf(v) / math.sqrt(base), "rho_eq_a"
    if p.rho > p.a:
        return ell.radial.sf(v) / math.sqrt(base), "rho_gt_a"
    return ell.radial.sf(v) / base, "rho_lt_a"


# ---------------------------------------------------------------------------
# Empirical ratio diagnostics


@dataclass(frozen=True)
class RatioRow:
    gamma: float
    ratio_strict: float   # eps = 0, the BRE-governing ratio
    ratio_relaxed: float  # eps = 0.1, a logarithmic-efficiency probe


@dataclass(frozen=True)
class RatioDiagnostics:
    rows: tuple
    strict_trend: str
    relaxed_trend: str

    def to_json(self) -> dict:
        return asdict(self)


def _trend(values) -> str:
    """Classify a sequence as constant / strictly increasing / strictly
    decreasing / mixed, up to relative rounding noise."""
    values = list(values)
    steps = len(values) - 1
    if steps < 1:
        return "constant"
    ups = downs = flats = 0
    for a, b in zip(values, values[1:]):
        tol = _REL_TOL * max(abs(a), abs(b), 1e-300)
        if b > a + tol:
            ups += 1
        elif b < a - tol:
            downs += 1
        else:
            flats += 1
    if flats == steps:
        return "constant"
    if ups == steps:
        return "increasing"
    if downs == steps:
        return "decreasing"
    return "mixed"


def _over_power(num: float, base: float, power: float) -> float:
    """``num / base**power`` for ``0 < base <= 1``.  Where the power leaves
    the normal range (``base`` below about 1e-154 for a square) it divides
    by ``base**(power / 2)`` twice instead, so the ratio does not divide by
    an underflowed zero."""
    whole = base**power
    if whole >= sys.float_info.min:
        return num / whole
    half = base ** (0.5 * power)
    return num / half / half


def empirical_efficiency_ratio(model: DependenceModel, gamma_grid) -> RatioDiagnostics:
    """Evaluate the efficiency-governing ratio on a threshold grid.

    For each threshold, the largest pairwise exceedance probability is
    divided by the largest marginal probability raised to ``2 - eps`` for
    ``eps`` of 0 and 0.1.  A bounded strict ratio along growing
    thresholds is the empirical signature of bounded relative error.
    """
    if model.d < 2:
        raise ModelSpecError("the ratio diagnostic needs at least two events")
    try:
        grid = list(gamma_grid)
    except TypeError:  # a single number, not a grid
        grid = []
    if not grid:
        raise ModelSpecError(f"the threshold grid must be a non-empty sequence, got {gamma_grid!r}")
    rows = []
    for gamma in map(model.check_threshold, grid):
        layers = _Layers(model, gamma)
        marg_max = float(layers.margs.max())  # first: a model that only samples fails on these
        pair_max = float(layers.pairs.max())
        if marg_max == 0.0:
            raise ModelSpecError(
                f"every P(A_i) underflows to 0 at gamma={gamma}, so the ratio is undefined"
            )
        rows.append(
            RatioRow(
                gamma=gamma,
                ratio_strict=_over_power(pair_max, marg_max, 2.0),
                ratio_relaxed=_over_power(pair_max, marg_max, 1.9),
            )
        )
    return RatioDiagnostics(
        rows=tuple(rows),
        strict_trend=_trend(r.ratio_strict for r in rows),
        relaxed_trend=_trend(r.ratio_relaxed for r in rows),
    )
