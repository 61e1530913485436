"""The estimator family for union probabilities and tail functionals.

Every estimator is one construction: an exact inclusion-exclusion head
plus weighted strata, ``head + sum_k w_k z_k``.  A stratum is its weight
and its laws, ``(w_k, [(P(events), events), ...])``; a law is the model
conditioned on its events (``()`` the model itself, ``(i,)`` given
``A_i``, ``(i, j)`` given both), and ``z_k`` is drawn from the mixture of
the stratum's laws in proportion to their weights.  Each estimator is
described once, as an ``_Estimator`` record of head, strata and per-stratum
value function:

* ``cmc`` and ``alpha_n`` are one stratum of the unconditional law;
  ``alpha_n`` amounts to unit-weight control variates built from the
  exceedance count (optimized weights are not implemented).
* ``alpha1_is`` and ``alpha2_is`` are one stratum mixing the laws given each
  event or pair (the conditioning mixture of Adler, Blanchet & Liu 2012).
* ``beta_n``, ``beta1_alpha`` and ``beta2_alpha`` have one stratum per
  partition cell, each a single law weighted by the cell's probability.

``run_estimator(name, model, gamma, replicates, seed)`` runs the seven
union-probability estimators above by registry name (``alpha_n`` is
``alpha1`` and ``alpha2``); ``estimate_beta_n`` builds the order-n
partition record for a payoff, the one entry for tail functionals
``E[Y 1{E >= n}]``.  One chunked runner samples the record, and
``exhaustive_estimator_mean`` reads the same record on a finite pattern
model, summing each law's values against its conditional pmf
``pmf 1{events} / weight``.  A record with no strata returns its head; so
does a stratum of positive weight whose laws all weigh zero, which is an
error when that head is zero too.  Otherwise a replicate is one sweep
drawing once from each stratum of positive weight, ``ceil(replicates /
strata)`` sweeps in all.  The estimate is the mean of the replicate
values, ``sample_std`` their standard deviation and ``stderr = sample_std
/ sqrt(replicates)``.  Degeneration means a sample variance of exactly
zero, detected by exact min/max comparison, so a degenerated first-order
estimator is bit-identical to the Bonferroni upper bound.

Replicates run in fixed-size chunks, each on a derived substream: a
record of one stratum draws chunk c from ``(seed, c)``, and stratum k of
several from ``(seed, k + 1, c)``.  Those substreams make the (chunk,
stratum) units independent, so they run on the package's worker pool
(``_workers.ordered_map``), and a single chunk of many strata still
spreads.  The calling thread adds the weighted values in stratum order and
merges chunk statistics in chunk order, so results are bit-identical for a
given (model, gamma, replicates, seed) and any thread count.  Called from a
pool thread, as in a table cell, the runner works inline.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import events as ev
from ._rng import derive_generator, iter_chunks
from ._workers import ordered_map
from .errors import ModelSpecError, _dimension
from .models import DependenceModel, FinitePatternModel

__all__ = [
    "EstimateResult", "BonferroniBounds", "Payoff", "bonferroni_bounds", "estimate_beta_n",
    "ESTIMATOR_NAMES", "run_estimator", "exhaustive_estimator_mean",
    "exhaustive_residual_second_moment", "exhaustive_variance_components",
]


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    sample_std: float
    stderr: float
    replicates: int
    degenerate: bool
    seed: int
    wall_ms: float

    def to_json(self) -> dict:
        return asdict(self)


class BonferroniBounds(NamedTuple):
    upper: float
    second: float


class Payoff:
    """The random factor Y in tail functionals ``E[Y 1{E >= n}]``: one
    deterministic function of the sampled vector and its event pattern,
    called as ``fn(x, patterns)``.

    ``constant_one`` recovers plain probabilities.  ``residual_alternating(m)``
    is the alternating binomial sum ``sum_{i<=m} (-1)^i C(E, i)`` of the
    exceedance count, the payoff that turns a partition estimator into a
    union-probability estimator.  ``custom`` wraps any such function.
    """

    def __init__(self, fn: Callable):
        if not callable(fn):
            raise ModelSpecError(f"a payoff must be a function of (x, patterns), got {fn!r}")
        self._fn = fn

    @staticmethod
    def constant_one() -> "Payoff":
        return Payoff(lambda x, patterns: np.ones(patterns.shape[0]))

    @staticmethod
    def residual_alternating(order: int) -> "Payoff":
        order = _dimension(order, "order", least=0)
        return Payoff(
            lambda x, patterns: ev.payoff_alternating_table(patterns.shape[1], order)[patterns.sum(axis=1)]
        )

    @staticmethod
    def custom(fn: Callable) -> "Payoff":
        return Payoff(fn)

    def values(self, x, patterns) -> np.ndarray:
        values = np.asarray(self._fn(x, patterns), dtype=float)
        if values.shape != (patterns.shape[0],):
            raise ModelSpecError(f"a payoff must return one value per row, got shape {values.shape}")
        return values

    __call__ = values


class _Stats:
    """Streaming mean/variance/min/max of chunks, merged in fixed chunk order."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0
        self.vmin, self.vmax = math.inf, -math.inf

    @classmethod
    def of(cls, values: np.ndarray) -> "_Stats":
        """The statistics of one chunk's values."""
        s = cls()
        s.n = values.size
        s.mean = float(values.mean())
        s.m2 = float(((values - s.mean) ** 2).sum())
        s.vmin, s.vmax = float(values.min()), float(values.max())
        return s

    def merge(self, chunk: "_Stats"):
        if self.n == 0:
            self.n, self.mean, self.m2 = chunk.n, chunk.mean, chunk.m2
        else:
            n = self.n + chunk.n
            delta = chunk.mean - self.mean
            self.mean += delta * chunk.n / n
            self.m2 += chunk.m2 + delta * delta * self.n * chunk.n / n
            self.n = n
        self.vmin = min(self.vmin, chunk.vmin)
        self.vmax = max(self.vmax, chunk.vmax)

    def result(self, seed: int, t0: float) -> EstimateResult:
        if self.vmin == self.vmax:  # degenerate: the exact common value, no spread
            return _result(self.vmin, 0.0, self.n, True, seed, t0)
        return _result(self.mean, math.sqrt(self.m2 / (self.n - 1)), self.n, False, seed, t0)


def _result(estimate: float, std: float, replicates: int, degenerate: bool, seed: int, t0: float):
    stderr = std / math.sqrt(replicates) if replicates else 0.0
    wall_ms = (time.perf_counter() - t0) * 1e3
    return EstimateResult(float(estimate), std, stderr, replicates, degenerate, seed, wall_ms)


class _Layers:
    """The inclusion-exclusion layers of one (model, gamma), each computed on first use."""

    def __init__(self, model: DependenceModel, gamma: float):
        self.model = model
        self.gamma = gamma
        self.d = model.d

    @cached_property
    def margs(self) -> np.ndarray:
        """``P(A_i)`` for i = 0..d-1."""
        return np.array([self.model.marginal_survival(i, self.gamma) for i in range(self.d)])

    @cached_property
    def pairs(self) -> np.ndarray:
        """``P(A_i A_j)`` for i < j in lexicographic order, the order of the pair cells."""
        return self.model.pair_survivals(self.gamma)

    @cached_property
    def abar(self) -> float:
        return float(np.sum(self.margs))

    @cached_property
    def q(self) -> float:
        return float(np.sum(self.pairs))


def bonferroni_bounds(model: DependenceModel, gamma: float) -> BonferroniBounds:
    """First two inclusion-exclusion truncations: the upper bound
    ``sum_i P(A_i)`` and the lower bound with pairwise terms subtracted."""
    layers = _Layers(model, model.check_threshold(gamma))
    return BonferroniBounds(upper=layers.abar, second=layers.abar - layers.q)


# ---------------------------------------------------------------------------
# One record per estimator


class _Estimator(NamedTuple):
    head: float
    strata: list  # (weight, [(weight, events) per law]) per stratum
    value: Callable  # value(k, x, patterns) for draws x from stratum k


_UNCONDITIONAL = [(1.0, [(1.0, ())])]


def _crude(lay: _Layers) -> _Estimator:
    """Crude Monte Carlo (``cmc``): mean of the union indicator ``1{E >= 1}``."""
    return _Estimator(0.0, _UNCONDITIONAL, lambda k, x, p: (p.sum(axis=1) >= 1).astype(float))


def _alpha_n(n: int):
    """``alpha1``/``alpha2``: exact inclusion-exclusion head of depth n (1:
    marginals, 2: also pairs) plus the sampled alternating remainder.  The
    remainder vanishes unless a replicate has more than n exceedances, so
    deep in the tail the estimator degenerates to the matching Bonferroni
    bound."""

    def build(lay: _Layers) -> _Estimator:
        head = lay.abar if n == 1 else lay.abar - lay.q
        table = ev.residual_term_table(lay.d, n)
        return _Estimator(head, _UNCONDITIONAL, lambda k, x, p: table[p.sum(axis=1)])

    return build


def _alpha1_is(lay: _Layers) -> _Estimator:
    """First-order conditioning mixture: event i is picked with probability
    ``P(A_i) / abar``, with ``abar`` the marginal sum, and the replicate
    value is ``abar / E``.  The union has probability one under the
    mixture, so no replicate is wasted."""
    abar = lay.abar
    laws = [(w, (i,)) for i, w in enumerate(lay.margs)]
    return _Estimator(0.0, [(1.0, laws)], lambda k, x, p: abar / p.sum(axis=1))


def _alpha2_is(lay: _Layers) -> _Estimator:
    """Second-order conditioning mixture: pair (i, j) is picked with
    probability ``P(A_i A_j) / q``, with ``q`` the pairwise sum, and the
    value is ``abar - 2 q / E``.  When ``q`` is exactly zero there is
    nothing to sample: the value is the marginal sum, flagged degenerate."""
    q = lay.q
    laws = list(zip(lay.pairs, itertools.combinations(range(lay.d), 2)))
    return _Estimator(lay.abar, [(1.0, laws)], lambda k, x, p: -2.0 * q / p.sum(axis=1))


def _beta_n(n: int, payoff: Payoff, head: Callable = lambda lay: 0.0, first: int = 0):
    """The order-n partition cells from ``first`` on, each a one-law stratum
    weighted by its exact probability ``P(B_I)``, with value ``Y 1{C_I}``."""
    if not isinstance(payoff, Payoff):
        raise ModelSpecError(f"payoff must be a Payoff, got {payoff!r}")

    def build(lay: _Layers) -> _Estimator:
        cells = (ev.partition_cells(lay.d, n) if n <= lay.d else [])[first:]
        weights = (lay.margs if n == 1 else lay.pairs)[first:]
        strata = [(w, [(w, cell.events)]) for w, cell in zip(weights, cells)]
        return _Estimator(head(lay), strata, lambda k, x, p: payoff.values(x, p) * cells[k].blocked_clear(p))

    return build


_ESTIMATORS = {
    "cmc": _crude,
    "alpha1": _alpha_n(1),
    "alpha2": _alpha_n(2),
    "alpha1_is": _alpha1_is,
    "alpha2_is": _alpha2_is,
    # union probability through the order-1 partition: the first cell's
    # conditional expectation is identically one, so its contribution is the
    # exact P(A_1) and only the remaining d - 1 cells are sampled
    "beta1_alpha": _beta_n(1, Payoff.constant_one(), head=lambda lay: float(lay.margs[0]), first=1),
    # union probability through the order-2 partition: the marginal layer is
    # exact and the pair cells estimate the alternating remainder with payoff
    # 1 - E; the cell constraint indicator keeps the cells disjoint, which is
    # what makes the estimator unbiased beyond two dimensions
    "beta2_alpha": _beta_n(2, Payoff.residual_alternating(1), head=lambda lay: lay.abar),
}

ESTIMATOR_NAMES = tuple(_ESTIMATORS) + ("bonferroni",)


def _lookup(name: str):
    if name not in _ESTIMATORS:
        raise ModelSpecError(f"unknown estimator {name!r}; valid names: {tuple(_ESTIMATORS)}")
    return _ESTIMATORS[name]


def _check_order(n: int) -> int:
    if n not in (1, 2):
        raise ModelSpecError("only the first- and second-order variants are implemented")
    return n


# ---------------------------------------------------------------------------
# The chunked runner


def _sampler(model: DependenceModel, gamma: float, events: tuple):
    if not events:
        return model.sample
    if len(events) == 1:
        return model.conditional_given_exceedance(events[0], gamma).draw
    return model.conditional_given_pair_exceedance(*events, gamma).draw


def _run(build, model: DependenceModel, gamma: float, replicates: int, seed: int) -> EstimateResult:
    """Monte Carlo over the record ``build`` describes for (model, gamma)."""
    replicates = _dimension(replicates, "replicates")
    seed = _dimension(seed, "seed", least=None)
    gamma = model.check_threshold(gamma)
    t0 = time.perf_counter()
    est = build(_Layers(model, gamma))
    if not est.strata:  # nothing to sample: the head is exact
        return _result(est.head, 0.0, 0, True, seed, t0)
    picks = {}  # per stratum of positive weight: its law weights as pick probabilities
    for k, (weight, laws) in enumerate(est.strata):
        if weight > 0.0:
            weights = np.array([w for w, _ in laws])
            total = float(weights.sum())
            if total == 0.0:  # a mixture with nothing to weigh: the head is exact
                if est.head == 0.0:
                    raise ModelSpecError("the mixture is undefined when its head and every weight are zero")
                return _result(est.head, 0.0, 0, True, seed, t0)
            picks[k] = weights / total
    # every handle is built before anything is drawn: an unsupported law fails here
    draws = {k: [_sampler(model, gamma, e) if w > 0.0 else None for w, e in est.strata[k][1]] for k in picks}
    single = len(est.strata) == 1

    def values(k, draw, rng, count):
        x = draw(rng, count)
        return est.value(k, x, model.exceedance_patterns(x, gamma))

    def stratum(unit):
        chunk, count, k = unit
        rng = derive_generator(seed, chunk) if single else derive_generator(seed, k + 1, chunk)
        if len(draws[k]) == 1:  # one law: no pick
            z = values(k, draws[k][0], rng, count)
        else:
            z = np.empty(count)
            picked = rng.choice(len(draws[k]), size=count, p=picks[k])
            for j, draw in enumerate(draws[k]):
                sel = np.where(picked == j)[0]
                if sel.size:
                    z[sel] = values(k, draw, rng, sel.size)
        z *= est.strata[k][0]  # every value function returns a new float array
        return z

    # the units come back chunk by chunk, in stratum order; each takes the running
    # sum in place, so the reduction holds no array while the next unit draws
    stats = _Stats()
    chunks = list(iter_chunks(-(-replicates // len(est.strata))))
    units = ordered_map(stratum, [(chunk, count, k) for chunk, count in chunks for k in picks])
    for _, count in chunks:
        v = est.head
        for k in picks:
            v = operator.iadd(next(units), v)
        stats.merge(_Stats.of(np.broadcast_to(v, count)))
    units.close()  # every unit is consumed: shut the pool down now
    return stats.result(seed, t0)


# ---------------------------------------------------------------------------
# Public entry points


def estimate_beta_n(
    model: DependenceModel,
    gamma: float,
    n: int,
    payoff: Payoff,
    replicates: int,
    seed: int,
) -> EstimateResult:
    """Partition estimator of ``E[Y 1{E >= n}]``: each disjoint cell
    ``B_I C_I`` of ``{E >= n}``, indexed by an n-subset I, contributes
    ``P(B_I) E[Y 1{C_I} | B_I]``.  Each of the ``C(d, n)`` cells receives
    ``ceil(replicates / C(d, n))`` draws."""
    return _run(_beta_n(_check_order(n), payoff), model, gamma, replicates, seed)


def run_estimator(name: str, model: DependenceModel, gamma: float, replicates: int, seed: int) -> EstimateResult:
    """Run a union-probability estimator by its registry name: ``cmc``,
    ``alpha1``, ``alpha2``, ``alpha1_is``, ``alpha2_is``, ``beta1_alpha``
    or ``beta2_alpha``."""
    return _run(_lookup(name), model, gamma, replicates, seed)


# ---------------------------------------------------------------------------
# Exhaustive expectations over finite pattern models
#
# These are the oracles behind the unbiasedness and variance-inequality
# test suites; their ground truth is events.brute_force_union and
# events.brute_force_tail_expectation.


def _exact_laws(model: FinitePatternModel, est: _Estimator):
    """``(w_k w_j / sum(w), conditional pmf, values)`` of every law j of
    positive weight in a stratum k of positive weight, the conditional pmf
    being ``pmf 1{events} / w_j`` on its support."""
    patterns = model.patterns
    x = patterns.astype(float)
    for k, (weight, laws) in enumerate(est.strata):
        total = float(np.sum([w for w, _ in laws]))
        for w, events in laws:
            if weight > 0.0 and w > 0.0:
                mask = model._given(events)
                yield weight * (w / total), model.pmf[mask] / w, est.value(k, x[mask], patterns[mask])


def exhaustive_estimator_mean(
    name: str,
    model: FinitePatternModel,
    *,
    n: Optional[int] = None,
    payoff: Optional[Payoff] = None,
) -> float:
    """Exact expectation of an estimator under a finite pattern model: the
    head plus every law's weighted mean, from the record the Monte Carlo
    runner samples."""
    model = ev._finite_model(model)
    if name == "beta_n":
        if n is None or payoff is None:
            raise ModelSpecError("beta_n needs both n and payoff")
        build = _beta_n(_check_order(n), payoff)
    elif n is not None or payoff is not None:
        raise ModelSpecError(f"n and payoff apply only to 'beta_n', not to {name!r}")
    else:
        build = _lookup(name)
    est = build(_Layers(model, 0.0))
    total = est.head
    for weight, cond, z in _exact_laws(model, est):
        total += weight * float((cond * z).sum())
    return float(total)


def exhaustive_residual_second_moment(model: FinitePatternModel, n: int = 1) -> float:
    """Exact ``E[R_n^2]`` of the alternating remainder."""
    model = ev._finite_model(model)
    counts = model.patterns.sum(axis=1)
    table = ev.residual_term_table(model.d, n)
    vals = table[counts]
    return float((model.pmf * vals * vals).sum())


def exhaustive_variance_components(model: FinitePatternModel, n: int, payoff: Payoff) -> dict:
    """Exact per-sweep variances of the partition estimator and its crude form.

    Returns the conditional sweep variance
    ``sum_I P(B_I)^2 Var(Y 1{C_I} | B_I)``, the crude sweep variance
    ``sum_I Var(Y 1{B_I C_I})`` and ``max_I P(B_I)``.
    """
    est = _beta_n(_check_order(n), payoff)(_Layers(ev._finite_model(model), 0.0))
    conditional = crude = max_cell = 0.0
    for w, cond, z in _exact_laws(model, est):
        m, m2 = float((cond * z).sum()), float((cond * z * z).sum())
        conditional += w * w * (m2 - m * m)
        crude += w * m2 - (w * m) ** 2  # E[(Y 1{B_I C_I})^2] - E[Y 1{B_I C_I}]^2
        max_cell = max(max_cell, w)
    return {
        "conditional_sweep_var": conditional,
        "crude_sweep_var": crude,
        "max_cell_prob": max_cell,
    }
