"""The benchmark gates the QMC oracle's relative spread in a traced run
(``perfbench/workloads.py``, ``QMC_REL_SPREAD_MAX``).  The oracle's own
default target must not be looser, or the only sign would be a failed
traced benchmark run."""

import importlib.util
from pathlib import Path

from rareunion import oracles

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_qmc_target_meets_the_benchmark_gate():
    assert 0.0 < oracles.QMC_REL_TARGET <= _load_workloads().QMC_REL_SPREAD_MAX
