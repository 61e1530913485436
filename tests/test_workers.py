"""The package's worker pool: ordered results, inline nesting, bounded
look-ahead, clean failure, and the default worker count."""

import os
import sys
import threading
import time

import pytest

from rareunion import ModelSpecError, NormalModel, Payoff, estimate_beta_n, run_estimator
from rareunion import _workers
from rareunion._workers import AHEAD_PER_WORKER, ordered_map, worker_count


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rareunion")]


@pytest.fixture
def three_threads(monkeypatch):
    monkeypatch.setenv("RARE_UNION_THREADS", "3")


def test_results_come_back_in_item_order(three_threads):
    def slow_first(i):
        time.sleep(0.02 if i % 3 == 0 else 0.0)
        return i * i

    assert list(ordered_map(slow_first, range(20))) == [i * i for i in range(20)]


def test_units_run_on_several_threads(three_threads):
    barrier = threading.Barrier(3, timeout=10)

    def meet(_):
        barrier.wait()  # passes only when three units run at once
        return threading.get_ident()

    assert len(set(ordered_map(meet, range(3)))) == 3


def test_nested_call_runs_in_the_callers_thread(three_threads):
    def outer(i):
        me = threading.get_ident()
        inner = list(ordered_map(lambda _: threading.get_ident(), range(5)))
        return me, inner

    for me, inner in ordered_map(outer, range(4)):
        assert inner == [me] * 5


def test_units_ahead_of_the_consumer_are_bounded(three_threads):
    started = []
    consumed = 0
    for _ in ordered_map(started.append, range(50)):
        consumed += 1
        time.sleep(0.002)  # a slow consumer: the pool must not run away
        assert len(started) - consumed <= AHEAD_PER_WORKER * 3
    assert consumed == len(started) == 50


def test_single_worker_runs_inline(monkeypatch):
    monkeypatch.setenv("RARE_UNION_THREADS", "1")
    assert set(ordered_map(lambda _: threading.get_ident(), range(4))) == {threading.get_ident()}


class UnitFailed(Exception):
    pass


def test_exception_escapes_with_its_type_and_leaves_no_thread(three_threads):
    ran = []

    def unit(i):
        ran.append(i)
        if i == 0:
            raise UnitFailed(i)
        time.sleep(0.05)
        return i

    with pytest.raises(UnitFailed):
        list(ordered_map(unit, range(100)))
    # three workers start units 0-2, the first freed one may take unit 3; the
    # units queued behind it (up to AHEAD_PER_WORKER * 3 = 6) are cancelled
    assert len(ran) <= 4
    assert pool_threads() == []


def test_raising_payoff_escapes_the_estimator_and_leaves_no_thread(three_threads):
    def payoff(x, patterns):
        raise UnitFailed("payoff")

    model = NormalModel.equicorrelated(3, 0.5)
    with pytest.raises(UnitFailed):
        estimate_beta_n(model, 1.0, 1, Payoff.custom(payoff), 3 * (1 << 17), 5)
    assert pool_threads() == []


def test_more_threads_than_cores_with_fast_switching_keep_the_bits(monkeypatch):
    # the units share the model, its sampler handles and the estimator record
    model = NormalModel.equicorrelated(4, 0.5)
    names = ("alpha1_is", "beta2_alpha")

    def run_all():
        return [run_estimator(name, model, 1.5, 1 << 18, 3) for name in names]

    monkeypatch.setenv("RARE_UNION_THREADS", "1")
    want = run_all()
    monkeypatch.setenv("RARE_UNION_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_all()
    finally:
        sys.setswitchinterval(interval)
    assert [(r.estimate, r.sample_std) for r in got] == [(r.estimate, r.sample_std) for r in want]
    assert pool_threads() == []


class TestWorkerCount:
    def test_environment_variable_wins(self, monkeypatch):
        monkeypatch.setenv("RARE_UNION_THREADS", "5")
        assert worker_count() == 5

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_invalid_environment_variable(self, value, monkeypatch):
        monkeypatch.setenv("RARE_UNION_THREADS", value)
        with pytest.raises(ModelSpecError):
            worker_count()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("RARE_UNION_THREADS", raising=False)
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(_workers.os, "cpu_count", lambda: 64)
        assert worker_count() == 1

    @pytest.mark.parametrize("cpus, want", [(6, 6), (None, 1)])
    def test_default_without_cpu_affinity_counts_cpus(self, cpus, want, monkeypatch):
        monkeypatch.delenv("RARE_UNION_THREADS", raising=False)
        monkeypatch.delattr(_workers.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_workers.os, "cpu_count", lambda: cpus)
        assert worker_count() == want
