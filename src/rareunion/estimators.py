"""The estimator family for union probabilities and tail functionals.

Every estimator is one construction: an exact inclusion-exclusion head
plus weighted strata, ``head + sum_k w_k z_k``.  A stratum is its weight
and its laws, ``(w_k, [(P(events), events), ...])``; a law is the model
conditioned on its events (``()`` the model itself, ``(i,)`` given
``A_i``, ``(i, j)`` given both), and ``z_k`` is drawn from the mixture of
the stratum's laws in proportion to their weights.  Each estimator is
described once, as an ``_Estimator`` record of head, strata and per-stratum
value function:

* ``alpha_n`` is one stratum of the unconditional law; it amounts to
  unit-weight control variates built from the exceedance count (optimized
  weights are not implemented), and ``cmc`` is its order-0 member.
* ``alpha1_is`` and ``alpha2_is`` are one stratum mixing the laws given each
  event or pair (the conditioning mixture of Adler, Blanchet & Liu 2012).
* ``beta_n``, ``beta1_alpha`` and ``beta2_alpha`` have one stratum per
  partition cell, each a single law weighted by the cell's probability.
  With a payoff that reads no coordinate (``beta1_alpha``), cell k's value
  reads only ``X_0..X_k``, so the record names that column count and the
  runner draws from the model's law of those columns (``leading``); the
  exact enumerator reads every column.

One builder per family serves every order: it reads the order-n
probabilities ``layer(n)`` and the depth-n head ``head(n)`` off ``_Layers``.

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

A unit draws every law's row count with one multinomial on its substream,
the counts of a pick per row, then each law's rows in turn; a one-law
stratum draws no count.  The replicates' mean, std and min/max ignore that
law order while at most one stratum of a record mixes laws (``_Estimator``).

A draw returns its rows, and the runner turns them into the stratum's
replicate values.  The two Gaussian draws, ``NormalModel.sample`` and
``GaussianConditional.draw``, instead take the value function as
``_per_row`` and evaluate each row block of at most
``samplers.block_rows(d)`` rows (2^16 values, 16,384 rows at d = 4 and
1,024 at d = 64) as soon as it is drawn, so their unit holds the values
plus two block buffers of scratch, never the whole sample; every other
draw is evaluated whole.  Each value reads only its own row, so the values
are those of the whole draw, bit for bit.  The count-based values read the
exceedance count from ``events.exceedance_count``.
"""

from __future__ import annotations

import inspect
import itertools
import math
import operator
import time
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
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
    union-probability estimator.  ``custom`` wraps any such function.  The
    runner calls it on blocks of rows as they are drawn, at most
    ``samplers.block_rows(d)`` = max(1, 2^16 / d) rows of a Gaussian
    model at a time, so it must return one value per row and read only that
    row.
    ``constant_one`` alone reads no column of x or of the patterns, so a
    partition cell with it draws only the columns its constraint reads.
    """

    _reads_coordinates = True

    def __init__(self, fn: Callable):
        if not callable(fn):
            raise ModelSpecError(f"a payoff must be a function of (x, patterns), got {fn!r}")
        self._fn = fn

    @staticmethod
    def constant_one() -> "Payoff":
        payoff = Payoff(lambda x, patterns: np.ones(patterns.shape[0]))
        payoff._reads_coordinates = False
        return payoff

    @staticmethod
    def residual_alternating(order: int) -> "Payoff":
        order = _dimension(order, "order", least=0)
        return Payoff(
            lambda x, p: ev.payoff_alternating_table(p.shape[1], order).take(ev.exceedance_count(p))
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
    """The inclusion-exclusion layers of one (model, gamma) for the orders in
    ``_ORDERS``, each computed on first use."""

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

    def layer(self, n: int) -> np.ndarray:
        """The order-n probabilities ``P(A_I)``, |I| = n, in the order of
        ``itertools.combinations(range(d), n)``."""
        return self.margs if n == 1 else self.pairs

    def head(self, n: int) -> float:
        """The depth-n inclusion-exclusion truncation ``S_1 - S_2 + ... +
        (-1)^(n-1) S_n``, with ``S_k`` the sum of layer k; 0 for n = 0."""
        return sum(((-1.0) ** (k - 1) * float(np.sum(self.layer(k))) for k in range(1, n + 1)), 0.0)


_ORDERS = (1, 2)  # the orders _Layers.layer knows


# The layers are a pure function of (model, gamma), and every estimate on
# the pair reads the same ones: the cells of a table at one threshold share
# them, so each threshold's pair layer is integrated once, not once per
# estimator.  Keyed by the model object itself, which stays alive while cached.
@lru_cache(maxsize=64)
def _shared_layers(model: DependenceModel, gamma: float) -> _Layers:
    return _Layers(model, gamma)


def bonferroni_bounds(model: DependenceModel, gamma: float) -> BonferroniBounds:
    """First two inclusion-exclusion truncations: the upper bound
    ``sum_i P(A_i)`` and the lower bound with pairwise terms subtracted."""
    layers = _shared_layers(model, model.check_threshold(gamma))
    return BonferroniBounds(upper=layers.head(1), second=layers.head(2))


# ---------------------------------------------------------------------------
# One record per estimator


class _Estimator(NamedTuple):
    """At most one stratum has more than one law: a mixture's values come in
    law order, and two mixtures summed row by row would pair law j of one
    with law j of the other, which biases the sample variance."""

    head: float
    strata: list  # (weight, [(weight, events) per law]) per stratum
    value: Callable  # value(k, x, patterns) for draws x from stratum k
    columns: Optional[list] = None  # leading columns stratum k's value reads; None: all d


_UNCONDITIONAL = [(1.0, [(1.0, ())])]


def _alpha_n(n: int):
    """``alpha_n``: the exact inclusion-exclusion head of depth n plus the
    sampled alternating remainder, which vanishes unless a replicate has
    more than n exceedances, so deep in the tail the estimator degenerates
    to the matching Bonferroni bound.  At n = 0 the head is 0 and the
    remainder is the union indicator ``1{E >= 1}``: crude Monte Carlo."""

    def build(lay: _Layers) -> _Estimator:
        table = ev.residual_term_table(lay.d, n)
        return _Estimator(lay.head(n), _UNCONDITIONAL, lambda k, x, p: table.take(ev.exceedance_count(p)))

    return build


def _alpha_n_is(n: int):
    """The order-n conditioning mixture: the n-subset I is picked with
    probability ``P(A_I) / S_n``, with ``S_n`` the order-n layer sum, and the
    replicate value is ``head(n - 1) + (-1)^(n-1) n S_n / E``.  At n = 1 the
    union has probability one under the mixture, so no replicate is wasted.
    When ``S_n`` is exactly zero there is nothing to sample: the value is the
    head, flagged degenerate."""

    def build(lay: _Layers) -> _Estimator:
        laws = list(zip(lay.layer(n), itertools.combinations(range(lay.d), n)))
        scale = (-1) ** (n - 1) * n * float(np.sum(lay.layer(n)))
        return _Estimator(lay.head(n - 1), [(1.0, laws)], lambda k, x, p: scale / ev.exceedance_count(p))

    return build


def _beta_n(n: int, payoff: Payoff, head: Callable = lambda lay: 0.0, first: int = 0):
    """The order-n partition cells from ``first`` on, each a one-law stratum
    weighted by its exact probability ``P(B_I)``, with value ``Y 1{C_I}``.
    The blocked indices of a cell all precede its last event, so when Y
    reads no coordinate a cell's value reads only ``X_0..X_{max(I)}``."""
    if not isinstance(payoff, Payoff):
        raise ModelSpecError(f"payoff must be a Payoff, got {payoff!r}")

    def build(lay: _Layers) -> _Estimator:
        cells = (ev.partition_cells(lay.d, n) if n <= lay.d else [])[first:]
        weights = lay.layer(n)[first:]
        strata = [(w, [(w, cell.events)]) for w, cell in zip(weights, cells)]
        columns = None if payoff._reads_coordinates else [max(cell.events) + 1 for cell in cells]
        return _Estimator(
            head(lay), strata, lambda k, x, p: payoff.values(x, p) * cells[k].blocked_clear(p), columns
        )

    return build


_ESTIMATORS = {
    "cmc": _alpha_n(0),
    "alpha1": _alpha_n(1),
    "alpha2": _alpha_n(2),
    "alpha1_is": _alpha_n_is(1),
    "alpha2_is": _alpha_n_is(2),
    # union probability through the order-1 partition: the first cell's
    # conditional expectation is identically one, so its contribution is the
    # exact P(A_1) and only the remaining d - 1 cells are sampled
    "beta1_alpha": _beta_n(1, Payoff.constant_one(), head=lambda lay: float(lay.margs[0]), first=1),
    # union probability through the order-2 partition: the marginal layer is
    # exact and the pair cells estimate the alternating remainder with payoff
    # 1 - E; the cell constraint indicator keeps the cells disjoint, which is
    # what makes the estimator unbiased beyond two dimensions
    "beta2_alpha": _beta_n(2, Payoff.residual_alternating(1), head=lambda lay: lay.head(1)),
}

ESTIMATOR_NAMES = tuple(_ESTIMATORS) + ("bonferroni",)


def _lookup(name: str):
    if name not in _ESTIMATORS:
        raise ModelSpecError(f"unknown estimator {name!r}; valid names: {tuple(_ESTIMATORS)}")
    return _ESTIMATORS[name]


def _check_order(n: int) -> int:
    if n not in _ORDERS:
        raise ModelSpecError("only the first- and second-order variants are implemented")
    return n


# ---------------------------------------------------------------------------
# The chunked runner


def _sampler(model: DependenceModel, gamma: float, events: tuple):
    """The draw of one law, as a function of ``(rng, size, _per_row)``."""
    if not events:
        draw = model.sample
    elif len(events) == 1:
        draw = model.conditional_given_exceedance(events[0], gamma).draw
    else:
        draw = model.conditional_given_pair_exceedance(*events, gamma).draw
    if _takes_per_row(getattr(draw, "__func__", draw)):
        return draw
    return lambda rng, size, _per_row: _per_row(draw(rng, size))  # evaluated on the whole draw


@lru_cache(maxsize=256)
def _takes_per_row(fn) -> bool:
    """Whether a draw takes ``_per_row``, as only the two Gaussian draws do:
    every other draw, a user's own model's too, returns its rows."""
    return "_per_row" in inspect.signature(fn).parameters


def _run(build, model: DependenceModel, gamma: float, replicates: int, seed: int) -> EstimateResult:
    """Monte Carlo over the record ``build`` describes for (model, gamma)."""
    replicates = _dimension(replicates, "replicates")
    seed = _dimension(seed, "seed", least=None)
    gamma = model.check_threshold(gamma)
    t0 = time.perf_counter()
    est = build(_shared_layers(model, gamma))
    if not est.strata:  # nothing to sample: the head is exact
        return _result(est.head, 0.0, 0, True, seed, t0)
    picks = {}  # per stratum of positive weight: its law weights as multinomial probabilities
    for k, (weight, laws) in enumerate(est.strata):
        if weight > 0.0:
            weights = np.array([w for w, _ in laws])
            total = float(weights.sum())
            if total == 0.0:  # a mixture with nothing to weigh: the head is exact
                if est.head == 0.0:
                    raise ModelSpecError("the mixture is undefined when its head and every weight are zero")
                return _result(est.head, 0.0, 0, True, seed, t0)
            picks[k] = weights / total
    # every handle is built before anything is drawn: an unsupported law fails here.
    # A stratum draws from the law of the leading columns its value reads
    draws = {}
    for k in picks:
        law = model if est.columns is None else model.leading(est.columns[k])
        draws[k] = [_sampler(law, gamma, e) if w > 0.0 else None for w, e in est.strata[k][1]]
    single = len(est.strata) == 1

    def stratum(unit):
        chunk, count, k = unit
        rng = derive_generator(seed, chunk) if single else derive_generator(seed, k + 1, chunk)

        def value(x):  # a draw hands its rows over block by block and keeps only these values
            return est.value(k, x, model.exceedance_patterns(x, gamma))

        # each law's row count, as a pick per row gives it, then its rows in law order
        counts = rng.multinomial(count, picks[k]).tolist()
        parts = [draw(rng, n, _per_row=value) for draw, n in zip(draws[k], counts) if n]
        z = parts[0] if len(parts) == 1 else np.concatenate(parts)
        z *= est.strata[k][0]  # every draw returns a new float array of values
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
    table = ev.residual_term_table(model.d, n)
    vals = table[ev.exceedance_count(model.patterns)]
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
