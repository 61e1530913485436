"""Spans around the package's public functions, recorded from outside.

The traced run wraps each function at the place it is looked up: a name
bound by ``from .special import bivariate_normal_orthant`` is patched in
``rareunion.models``, a method on its class, a function reached as
``samplers.gibbs_bivariate_truncated`` on the ``samplers`` module.
Conditional sampler handles are proxied through the model methods that
create them, and the QMC oracle's ``scipy.stats.qmc`` reference through a
counting stand-in.  ``src/`` is never modified; ``Tracer.installed``
restores every original on exit.

Each span records name, start, end, parent span, thread and run id, plus a
row count where the call has one.  Parents are tracked per thread because
``cli.run_experiment`` runs its cells in a thread pool.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    run: int
    rows: Optional[int]
    rel_spread: Optional[float]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return self._asdict()


def _first_len(result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _rel_spread(result) -> float:
    return result.error / result.value if result.value else 0.0


class _Handle:
    """Proxy for a conditional sampler handle whose ``draw`` is a span."""

    def __init__(self, handle, draw):
        self._handle = handle
        self.draw = draw

    def __getattr__(self, name):
        return getattr(self._handle, name)


class _CountingEngine:
    def __init__(self, engine, tracer):
        self._engine = engine
        self.random = tracer.wrap(engine.random, "oracles.qmc.sobol", rows=_first_len)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class _CountingQmc:
    """Stands in for ``scipy.stats.qmc`` inside ``rareunion.oracles``."""

    def __init__(self, qmc, tracer):
        self._qmc = qmc
        self._tracer = tracer

    def Sobol(self, *args, **kwargs):
        return _CountingEngine(self._qmc.Sobol(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._qmc, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, rows=None, rel_spread=None):
        """``fn`` recording one span per call; ``rows(result)`` counts its rows."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), self.run,
                     rows(result) if rows else None,
                     rel_spread(result) if rel_spread else None)
            )
            return result

        return traced

    def _handle_factory(self, fn, name):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            handle = fn(*args, **kwargs)
            return _Handle(handle, self.wrap(handle.draw, name, rows=_first_len))

        return factory

    def _patches(self):
        """(owner, attribute, replacement factory) for every traced lookup."""
        import rareunion.cli as cli
        import rareunion.efficiency as efficiency
        import rareunion.estimators as estimators
        import rareunion.events as events
        import rareunion.models as models
        import rareunion.oracles as oracles
        import rareunion.samplers as samplers
        import rareunion.special as special

        def span(name, **kw):
            return lambda fn: self.wrap(fn, name, **kw)

        def estimator_span(fn):
            @functools.wraps(fn)
            def run_estimator(name, *args, **kwargs):
                return self.wrap(fn, f"estimators.{name}")(name, *args, **kwargs)

            return run_estimator

        rows = {"rows": _first_len}
        qmc = {"rel_spread": _rel_spread}
        return [
            (special, "integrate", span("special.integrate")),
            (models, "integrate", span("special.integrate")),
            (oracles, "integrate", span("special.integrate")),
            (models, "bivariate_normal_orthant", span("special.bivariate_normal_orthant")),
            (estimators, "bonferroni_bounds", span("estimators.bonferroni_bounds")),
            (cli, "bonferroni_bounds", span("estimators.bonferroni_bounds")),
            (estimators, "run_estimator", estimator_span),
            (cli, "run_estimator", estimator_span),
            (estimators.Payoff, "values", span("estimators.payoff_values")),
            (estimators, "derive_generator", span("rng.derive_generator")),
            (models.NormalModel, "sample", span("models.sample", **rows)),
            (models.LaplaceModel, "sample", span("models.sample", **rows)),
            (models.DependenceModel, "exceedance_patterns", span("models.exceedance_patterns", **rows)),
            (models.NormalModel, "pair_survival", span("models.pair_survival")),
            (models.LaplaceModel, "pair_survival", span("models.pair_survival")),
            (models.NormalModel, "marginal_survival", span("models.marginal_survival")),
            (models.LaplaceModel, "marginal_survival", span("models.marginal_survival")),
            (models.NormalModel, "conditional_given_exceedance",
             lambda fn: self._handle_factory(fn, "models.draw.normal_single")),
            (models.NormalModel, "conditional_given_pair_exceedance",
             lambda fn: self._handle_factory(fn, "models.draw.normal_pair")),
            (models.LaplaceModel, "conditional_given_exceedance",
             lambda fn: self._handle_factory(fn, "models.draw.laplace")),
            (samplers, "gibbs_bivariate_truncated", span("samplers.gibbs_bivariate_truncated", **rows)),
            (samplers, "sample_truncated_std_normal", span("samplers.sample_truncated_std_normal", **rows)),
            (samplers.GaussianConditional, "draw", span("samplers.GaussianConditional.draw", **rows)),
            (samplers, "laplace_conditional_exceedance",
             span("samplers.laplace_conditional_exceedance", **rows)),
            (events.PartitionCell, "blocked_clear", span("events.blocked_clear")),
            (events, "partition_cells", span("events.partition_cells")),
            (cli, "run_experiment", span("cli.run_experiment")),
            (oracles, "oracle_union_normal_qmc", span("oracles.oracle_union_normal_qmc", **qmc)),
            (cli, "oracle_union_normal_qmc", span("oracles.oracle_union_normal_qmc", **qmc)),
            (oracles, "oracle_union_normal_equicorr", span("oracles.oracle_union_normal_equicorr")),
            (oracles, "oracle_union_laplace", span("oracles.oracle_union_laplace")),
            (oracles, "qmc", lambda mod: _CountingQmc(mod, self)),
            (efficiency, "classify_model", span("efficiency.classify_model")),
            (cli, "classify_model", span("efficiency.classify_model")),
            (efficiency, "empirical_efficiency_ratio", span("efficiency.empirical_efficiency_ratio")),
            (cli, "empirical_efficiency_ratio", span("efficiency.empirical_efficiency_ratio")),
        ]

    @contextlib.contextmanager
    def installed(self, run: int):
        """Patch every traced lookup for the duration of one run."""
        self.run = run
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]  # KeyError: the lookup moved
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one run


SAMPLING_SPANS = tuple(
    f"estimators.{n}"
    for n in ("cmc", "alpha1", "alpha2", "alpha1_is", "alpha2_is", "beta1_alpha", "beta2_alpha")
)


def layer_metrics(spans, wall: float, main_thread: int, pool_threads: int) -> dict:
    """Counts, total seconds and derived ratios of one traced run.

    ``.s`` totals are summed over threads, so on a pooled run they can
    exceed the wall time.  Self time is a span's time minus its children's.
    """
    calls = defaultdict(int)
    rows = defaultdict(int)
    secs = defaultdict(float)
    child_secs = defaultdict(float)
    by_id = {s.id: s for s in spans}
    for s in spans:
        calls[s.name] += 1
        rows[s.name] += s.rows or 0
        secs[s.name] += s.seconds
        if s.parent is not None:
            child_secs[s.parent] += s.seconds
    est_self = sum(s.seconds - child_secs[s.id] for s in spans if s.name in SAMPLING_SPANS)

    # work: top-level spans in every thread; the main thread's run_experiment
    # mostly waits on its pool, so its children count instead of itself
    def is_work(s):
        if s.name == "cli.run_experiment":
            return False
        parent = by_id.get(s.parent)
        return parent is None or parent.name == "cli.run_experiment"

    work = sum(s.seconds for s in spans if is_work(s))
    runs = [s for s in spans if s.name == "cli.run_experiment"]
    cell_s = sum(s.seconds for s in spans if s.parent is None and s.thread != main_thread)
    run_span = sum(s.seconds for s in runs)
    main_roots = sum(s.seconds for s in spans if s.parent is None and s.thread == main_thread)
    spreads = [s.rel_spread for s in spans if s.rel_spread is not None]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def count_time(name, with_rows=False, with_calls=True):
        if with_calls:
            put(f"{name}.calls", calls[name], "count")
        if with_rows:
            put(f"{name}.rows", rows[name], "count")
        put(f"{name}.s", secs[name], "s")

    count_time("special.bivariate_normal_orthant")
    count_time("special.integrate")
    count_time("estimators.bonferroni_bounds")
    for name in SAMPLING_SPANS:
        put(f"{name}.s", secs[name], "s")
    put("estimators.payoff_values.s", secs["estimators.payoff_values"], "s")
    put("estimators.self_s", est_self, "s")
    for name in ("models.sample", "models.exceedance_patterns"):
        count_time(name, with_rows=True, with_calls=False)
    count_time("models.pair_survival")
    put("models.marginal_survival.calls", calls["models.marginal_survival"], "count")
    for kind in ("normal_single", "normal_pair", "laplace"):
        count_time(f"models.draw.{kind}", with_rows=True, with_calls=False)
    count_time("samplers.gibbs_bivariate_truncated", with_rows=True)
    for name in ("samplers.sample_truncated_std_normal", "samplers.GaussianConditional.draw",
                 "samplers.laplace_conditional_exceedance"):
        count_time(name, with_rows=True, with_calls=False)
    count_time("events.blocked_clear")
    put("events.partition_cells.calls", calls["events.partition_cells"], "count")
    count_time("rng.derive_generator")
    put("cli.run_experiment.s", run_span, "s")
    put("cli.pool.threads", pool_threads if runs else 0, "count")
    put("cli.pool.busy_frac", cell_s / (pool_threads * run_span) if run_span else 0.0, "ratio")
    count_time("oracles.oracle_union_normal_qmc")
    put("oracles.qmc.points", rows["oracles.qmc.sobol"], "count")
    put("oracles.qmc.rel_spread", max(spreads, default=0.0), "ratio")
    put("oracles.oracle_union_normal_equicorr.s", secs["oracles.oracle_union_normal_equicorr"], "s")
    put("oracles.oracle_union_laplace.s", secs["oracles.oracle_union_laplace"], "s")
    put("efficiency.classify_model.s", secs["efficiency.classify_model"], "s")
    put("efficiency.empirical_efficiency_ratio.s", secs["efficiency.empirical_efficiency_ratio"], "s")
    put("share.gibbs_bivariate_truncated",
        secs["samplers.gibbs_bivariate_truncated"] / work if work else 0.0, "ratio")
    put("share.oracle_union_normal_qmc",
        secs["oracles.oracle_union_normal_qmc"] / work if work else 0.0, "ratio")
    put("trace.coverage", main_roots / wall if wall else 0.0, "ratio")
    return out


COUNT_KEYS = (".calls", ".rows", ".points", ".threads")


def counts_only(metrics: dict) -> dict:
    """The metrics that are pure counts; they must repeat exactly."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_KEYS)}
