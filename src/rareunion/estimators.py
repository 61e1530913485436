"""The estimator family for union probabilities and tail functionals.

Every estimator is one construction: an exact inclusion-exclusion head
plus weighted terms, each sampled under a conditional law of the model.
A law is its weight and the events it conditions on: ``()`` is the model
itself, ``(i,)`` the law given ``A_i``, ``(i, j)`` the law given both.
Each estimator is described once, as an ``_Estimator`` record of head,
laws, per-law value function and allocation:

* *mixture* (``cmc``, ``alpha_n``, ``alpha1_is``, ``alpha2_is``): each
  replicate picks law k with probability ``w_k / sum(w)`` (the
  conditioning mixture of Adler, Blanchet & Liu 2012) and takes the whole
  replicate value ``head + sum(w) z_k`` from the value function.  Crude
  Monte Carlo and ``alpha_n`` are the single unconditional law, which
  needs no pick.  ``alpha_n`` amounts to unit-weight control variates
  built from the exceedance count; optimized weights are not implemented.
* *stratified* (``beta_n``, ``beta1_alpha``, ``beta2_alpha``): one
  replicate is a sweep drawing once from each of the L laws, one per
  partition cell, with value ``head + w_0 z_0 + w_1 z_1 + ...``; each law
  gets ``ceil(replicates / L)`` draws.

``run_estimator(name, model, gamma, replicates, seed)`` runs the seven
union-probability estimators above by registry name (``alpha_n`` is
``alpha1`` and ``alpha2``); ``estimate_beta_n`` builds the order-n
partition record for a payoff, the one entry for tail functionals
``E[Y 1{E >= n}]``.  One chunked runner samples the record, and
``exhaustive_estimator_mean`` reads the same record on a finite pattern
model, summing each law's values against its conditional pmf
``pmf 1{events} / weight``.  Laws of weight zero are never drawn; a
record with nothing to sample returns its head.  The estimate is the
mean of the replicate values, ``sample_std`` their standard deviation and
``stderr = sample_std / sqrt(replicates)``.  Degeneration means a sample
variance of exactly zero, detected by exact min/max comparison, so a
degenerated first-order estimator is bit-identical to the Bonferroni
upper bound.

Replicates run in fixed-size chunks, each on a derived substream:
``(seed, chunk)`` for a mixture, ``(seed, k + 1, chunk)`` for law k of a
stratified estimator.  Those substreams make the units independent, so
they run on the package's worker pool (``_workers.ordered_map``): a
mixture's units are its chunks, whose statistics are reduced in the
worker; a stratified estimator's units are the (chunk, law) pairs, so a
single chunk of many laws still spreads.  The calling thread adds
``weight * values`` in law order and merges chunk statistics in chunk
order, so results are bit-identical for a given (model, gamma,
replicates, seed) and any thread count.  Called from a pool thread, as
in a table cell, the runner works inline.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import events as ev
from ._rng import derive_generator, iter_chunks
from ._workers import ordered_map
from .errors import ModelSpecError
from .models import DependenceModel, FinitePatternModel, _dimension

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


@dataclass(frozen=True)
class Payoff:
    """The random factor Y in tail functionals ``E[Y 1{E >= n}]``.

    ``constant_one`` recovers plain probabilities.  ``residual_alternating(m)``
    is the alternating binomial sum ``sum_{i<=m} (-1)^i C(E, i)`` of the
    exceedance count, the payoff that turns a partition estimator into a
    union-probability estimator.  ``custom`` wraps any deterministic
    function of the sampled vector and its event pattern.
    """

    kind: str
    order: Optional[int] = None
    fn: Optional[Callable] = None

    @staticmethod
    def constant_one() -> "Payoff":
        return Payoff(kind="constant_one")

    @staticmethod
    def residual_alternating(order: int) -> "Payoff":
        return Payoff(kind="residual_alternating", order=_dimension(order, "order", least=0))

    @staticmethod
    def custom(fn: Callable) -> "Payoff":
        return Payoff(kind="custom", fn=fn)

    def values(self, x, patterns) -> np.ndarray:
        patterns = np.atleast_2d(patterns)
        if self.kind == "constant_one":
            return np.ones(patterns.shape[0])
        if self.kind == "residual_alternating":
            table = ev.payoff_alternating_table(patterns.shape[1], self.order)
            return table[patterns.sum(axis=1)]
        return np.asarray(self.fn(x, patterns), dtype=float)

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
    return EstimateResult(float(estimate), std, stderr, replicates, degenerate, int(seed), wall_ms)


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
    laws: list  # (weight, events) per conditional law
    value: Callable  # value(k, x, patterns) for draws x from law k
    mixture: bool


_UNCONDITIONAL = [(1.0, ())]


def _crude(lay: _Layers) -> _Estimator:
    """Crude Monte Carlo (``cmc``): mean of the union indicator ``1{E >= 1}``."""
    return _Estimator(0.0, _UNCONDITIONAL, lambda k, x, p: (p.sum(axis=1) >= 1).astype(float), True)


def _alpha_n(n: int):
    """``alpha1``/``alpha2``: exact inclusion-exclusion head of depth n (1:
    marginals, 2: also pairs) plus the sampled alternating remainder.  The
    remainder vanishes unless a replicate has more than n exceedances, so
    deep in the tail the estimator degenerates to the matching Bonferroni
    bound."""

    def build(lay: _Layers) -> _Estimator:
        head = lay.abar if n == 1 else lay.abar - lay.q
        table = ev.residual_term_table(lay.d, n)
        return _Estimator(head, _UNCONDITIONAL, lambda k, x, p: head + table[p.sum(axis=1)], True)

    return build


def _alpha1_is(lay: _Layers) -> _Estimator:
    """First-order conditioning mixture: event i is picked with probability
    ``P(A_i) / abar``, with ``abar`` the marginal sum, and the replicate
    value is ``abar / E``.  The union has probability one under the
    mixture, so no replicate is wasted."""
    abar = lay.abar
    laws = [(w, (i,)) for i, w in enumerate(lay.margs)]
    return _Estimator(abar, laws, lambda k, x, p: abar / p.sum(axis=1), True)


def _alpha2_is(lay: _Layers) -> _Estimator:
    """Second-order conditioning mixture: pair (i, j) is picked with
    probability ``P(A_i A_j) / q``, with ``q`` the pairwise sum, and the
    value is ``abar - 2 q / E``.  When ``q`` is exactly zero there is
    nothing to sample: the value is the marginal sum, flagged degenerate."""
    abar, q = lay.abar, lay.q
    laws = list(zip(lay.pairs, itertools.combinations(range(lay.d), 2)))
    return _Estimator(abar, laws, lambda k, x, p: abar - 2.0 * q / p.sum(axis=1), True)


def _partition(lay: _Layers, n: int, head: float, z: Callable, first: int = 0) -> _Estimator:
    """The order-n partition cells from ``first`` on, each a law weighted by
    its exact probability ``P(B_I)``, with value ``z(cell, x, patterns)``."""
    cells = ev.partition_cells(lay.d, n) if n <= lay.d else []
    weights = lay.margs if n == 1 else lay.pairs
    laws = [(weights[k], cell.events) for k, cell in enumerate(cells)][first:]
    cells = cells[first:]
    return _Estimator(head, laws, lambda k, x, p: z(cells[k], x, p), False)


def _beta_n(n: int, payoff: Payoff, head: Callable = lambda lay: 0.0):
    return lambda lay: _partition(lay, n, head(lay), lambda c, x, p: payoff.values(x, p) * c.blocked_clear(p))


def _beta1_alpha(lay: _Layers) -> _Estimator:
    """Union probability through the order-1 partition: the first cell's
    conditional expectation is identically one, so its contribution is the
    exact ``P(A_1)`` and only the remaining ``d - 1`` cells are sampled."""
    return _partition(lay, 1, float(lay.margs[0]), lambda c, x, p: c.blocked_clear(p).astype(float), first=1)


_ESTIMATORS = {
    "cmc": _crude,
    "alpha1": _alpha_n(1),
    "alpha2": _alpha_n(2),
    "alpha1_is": _alpha1_is,
    "alpha2_is": _alpha2_is,
    "beta1_alpha": _beta1_alpha,
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
    gamma = model.check_threshold(gamma)
    t0 = time.perf_counter()
    est = build(_Layers(model, gamma))
    if est.mixture:
        weights = np.array([w for w, _ in est.laws])
        total = float(np.sum(weights))
        if total == 0.0 and est.head == 0.0:
            raise ModelSpecError("the mixture is undefined when its head and every weight are zero")
        sweeps = replicates
    else:
        total = len(est.laws)
        sweeps = -(-replicates // max(total, 1))
    if total == 0:  # nothing to sample: the head is exact
        return _result(est.head, 0.0, 0, True, seed, t0)
    # every handle is built before anything is drawn: an unsupported law fails here
    draws = [_sampler(model, gamma, events) if w > 0.0 else None for w, events in est.laws]

    def values(k, rng, count):
        x = draws[k](rng, count)
        return est.value(k, x, model.exceedance_patterns(x, gamma))

    def mixture_chunk(unit):
        chunk, count = unit
        rng = derive_generator(seed, chunk)
        if len(draws) == 1:
            return _Stats.of(values(0, rng, count))
        v = np.empty(count)
        picks = rng.choice(len(draws), size=count, p=weights / total)
        for k in range(len(draws)):
            sel = np.where(picks == k)[0]
            if sel.size:
                v[sel] = values(k, rng, sel.size)
        return _Stats.of(v)

    def stratum(unit):
        chunk, count, k = unit
        return values(k, derive_generator(seed, k + 1, chunk), count)

    stats = _Stats()
    chunks = list(iter_chunks(sweeps))
    if est.mixture:
        for chunk_stats in ordered_map(mixture_chunk, chunks):
            stats.merge(chunk_stats)
        return stats.result(seed, t0)
    # stratified: the (chunk, law) units come back chunk by chunk, in law order
    laws = [k for k, draw in enumerate(draws) if draw is not None]
    strata = ordered_map(stratum, [(chunk, count, k) for chunk, count in chunks for k in laws])
    for _, count in chunks:
        v = np.full(count, est.head, dtype=float)
        for k in laws:
            v = v + est.laws[k][0] * next(strata)
        stats.merge(_Stats.of(v))
    strata.close()  # every unit is consumed: shut the pool down now
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


def _finite(model) -> FinitePatternModel:
    if not isinstance(model, FinitePatternModel):
        raise ModelSpecError("exhaustive expectations require a finite pattern model")
    return model


def _exact_laws(model: FinitePatternModel, est: _Estimator):
    """``(weight, conditional pmf, values)`` of every law of positive weight,
    the conditional pmf being ``pmf 1{events} / weight`` on its support."""
    patterns = model.patterns
    x = patterns.astype(float)
    for k, (weight, events) in enumerate(est.laws):
        if weight > 0.0:
            mask = model._given(events)
            yield weight, model.pmf[mask] / weight, est.value(k, x[mask], patterns[mask])


def exhaustive_estimator_mean(
    name: str,
    model: FinitePatternModel,
    *,
    n: Optional[int] = None,
    payoff: Optional[Payoff] = None,
) -> float:
    """Exact expectation of an estimator under a finite pattern model.

    Reads the record the Monte Carlo runner samples.  A mixture averages
    its law means with weights ``w_k / sum(w)``; a stratified estimator
    adds ``w_k`` times each law mean to its head.
    """
    model = _finite(model)
    if name == "beta_n":
        if n is None or payoff is None:
            raise ModelSpecError("beta_n needs both n and payoff")
        build = _beta_n(_check_order(n), payoff)
    else:
        build = _lookup(name)
    est = build(_Layers(model, 0.0))
    scale = float(np.sum([w for w, _ in est.laws])) if est.mixture else 1.0
    if scale == 0.0:
        return est.head
    total = 0.0 if est.mixture else est.head
    for weight, cond, z in _exact_laws(model, est):
        total += weight / scale * float((cond * z).sum())
    return total


def exhaustive_residual_second_moment(model: FinitePatternModel, n: int = 1) -> float:
    """Exact ``E[R_n^2]`` of the alternating remainder."""
    model = _finite(model)
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
    est = _beta_n(_check_order(n), payoff)(_Layers(_finite(model), 0.0))
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
