"""The benchmark's gates, checked in Tier-1 against ``perfbench/workloads.py``
as it stands, so that a change that would fail a benchmark run fails here
first."""

import importlib.util
from pathlib import Path

import pytest

from rareunion import oracles

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_default_qmc_target_meets_the_benchmark_gate():
    # a traced run gates the QMC oracle's relative spread at QMC_REL_SPREAD_MAX;
    # the oracle's own default target must not be looser
    assert 0.0 < oracles.QMC_REL_TARGET <= workloads.QMC_REL_SPREAD_MAX


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_benchmark_checks(workload, monkeypatch):
    # a benchmark run fails when a cell fails its gate, when two repeats give
    # different digests, or when the digest moves with the thread count
    prep = workloads.prepare(workload, workloads.make_inputs(workload, 1, smoke=True))
    refs = workloads.references(prep)
    digests = []
    for threads in ("2", "2", "1"):  # a repeat, then one thread
        monkeypatch.setenv("RARE_UNION_THREADS", threads)
        cells = workloads.run(prep)
        failed = [
            (c["grid"], c["name"], c["gamma"], msgs)
            for c, msgs in zip(cells, workloads.gate(workload, cells, refs))
            if msgs
        ]
        assert not failed, (threads, failed)
        digests.append(workloads.digest(cells))
    assert digests[1] == digests[0], "two repeats differ"
    assert digests[2] == digests[0], "one thread and two threads differ"
