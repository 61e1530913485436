"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench/tests -q

They are not part of the package's test suite (``testpaths`` is
``tests``).  Every workload's code path runs in-process or through
``run.py --smoke``, in seconds.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _smoke(workload, seed=1):
    prep = workloads.prepare(workload, workloads.make_inputs(workload, seed, smoke=True))
    return prep, workloads.references(prep)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke_run(request):
    prep, refs = _smoke(request.param)
    return prep, refs, workloads.run(prep)


def _first_resolved(cells, refs):
    return workloads.wnrv_by_cell([cells], refs)[0][0]


def test_smoke_run_passes_every_gate(smoke_run):
    prep, refs, cells = smoke_run
    failures = workloads.gate(prep.workload, cells, refs)
    assert not any(failures), [f for f in failures if f]


def test_corrupted_estimate_trips_the_gate(smoke_run):
    prep, refs, cells = smoke_run
    k = _first_resolved(cells, refs)
    bad = [dict(c) for c in cells]
    bad[k]["estimate"] *= 1.5
    failures = workloads.gate(prep.workload, bad, refs)
    assert failures[k], cells[k]


@pytest.mark.parametrize("workload", ["paper_table", "oracle_qmc"])
def test_corrupted_oracle_value_trips_the_gate(workload):
    prep, refs = _smoke(workload)
    cells = workloads.run(prep)
    names = {"paper_table": "oracle", "oracle_qmc": "oracle_for_model"}
    k = next(i for i, c in enumerate(cells) if c["name"] == names[workload])
    cells[k]["estimate"] *= 1.01
    assert workloads.gate(workload, cells, refs)[k]


def test_degenerate_alpha_must_equal_its_bound():
    prep, refs = _smoke("paper_table")
    cells = workloads.run(prep)
    k = next(i for i, c in enumerate(cells) if c["name"] == "alpha1" and c["degenerate"])
    cells[k]["estimate"] = math.nextafter(cells[k]["estimate"], 0.0)
    assert workloads.gate("paper_table", cells, refs)[k]


def test_raising_cell_counts_as_failed():
    prep, refs = _smoke("wide_estimate")
    prep.inputs = dict(prep.inputs, replicates=0)  # run_estimator rejects it
    cells = workloads.run(prep)
    assert all(c["error"] for c in cells)
    assert all(workloads.gate("wide_estimate", cells, refs))


@pytest.mark.parametrize("workload", ["paper_table", "wide_estimate"])
def test_changed_seed_trips_the_digest_check(workload):
    digests = {}
    for seed in (1, 1, 2):
        prep, refs = _smoke(workload, seed)
        digests.setdefault(seed, set()).add(workloads.digest(workloads.run(prep)))
    assert len(digests[1]) == 1, "the same seed must reproduce bit for bit"
    assert digests[1] != digests[2]

    prep, refs = _smoke(workload, 1)
    repeats = [worker._repeat(prep, refs)]
    prep2, _ = _smoke(workload, 2)
    repeats.append(worker._repeat(prep2, refs))
    tally = worker._tally(repeats)
    assert tally["failed"] >= len(repeats[1]["cells"])


def test_tracer_restores_every_lookup_and_counts_repeat():
    import rareunion.models as models
    import rareunion.special as special

    prep, refs = _smoke("paper_table")
    counts = []
    for run in (1, 2):
        tr = tracer.Tracer()
        with tr.installed(run=run):
            workloads.run(prep)
        metrics = tracer.layer_metrics(tr.spans, 1.0, 0, 2)
        counts.append(tracer.counts_only(metrics))
    assert counts[0] == counts[1]
    assert counts[0]["samplers.gibbs_bivariate_truncated.calls"][0] > 0
    assert models.bivariate_normal_orthant is special.bivariate_normal_orthant
    assert "traced" not in models.NormalModel.sample.__code__.co_name


def test_references_match_the_acceptance_suite():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    frozen = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("EQUICORR_UNION", "LAPLACE_UNION")
    }
    assert frozen["EQUICORR_UNION"] == workloads.EQUICORR_UNION
    assert frozen["LAPLACE_UNION"] == workloads.LAPLACE_UNION


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    spec = _bench_spec()
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
