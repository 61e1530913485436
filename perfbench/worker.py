"""One workload process of the benchmark; started by run.py, never by hand.

    worker.py setup|run|trace WORKLOAD SEED SECONDS T0 [--smoke]

``T0`` is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is shared by every process on the host), so
``setup_s`` covers interpreter start, ``import rareunion`` and building the
workload's models and configs.  The report is the last line of stdout.

* ``setup``: stop after setup.
* ``run``: repeat the workload untraced until SECONDS have passed; gate
  and digest every repeat.
* ``trace``: one untraced repeat, one traced repeat and, for paper_table,
  one untraced repeat with ``RARE_UNION_THREADS=1``; all digests must agree.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import tracer
import workloads


def _repeat(prep, refs):
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    cells = workloads.run(prep)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    failures = workloads.gate(prep.workload, cells, refs)
    return {
        "cells": cells,
        "wall": wall,
        "cpu": cpu,
        "digest": workloads.digest(cells),
        "failures": failures,
    }


def _tally(repeats) -> dict:
    """attempted/failed over every repeat; a repeat whose digest differs from
    the first one's counts all its cells as failed."""
    attempted = failed = 0
    messages = []
    first = repeats[0]["digest"]
    for k, rep in enumerate(repeats):
        n = len(rep["cells"])
        attempted += n
        if rep["digest"] != first:
            failed += n
            messages.append(f"repeat {k}: digest {rep['digest'][:12]} != {first[:12]}")
            continue
        for cell, msgs in zip(rep["cells"], rep["failures"]):
            if msgs:
                failed += 1
                messages.append(f"{cell['grid']}/{cell['name']}@{cell['gamma']:g}: {'; '.join(msgs)}")
    return {"attempted": attempted, "failed": failed, "messages": messages[:20]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas,
    }


def _wnrv_by_estimator(repeats, refs) -> dict:
    groups = {}
    for k, w in workloads.wnrv_by_cell(repeats, refs):
        groups.setdefault(repeats[0][k]["name"], []).append(w)
    return {name: workloads.geomean(ws) for name, ws in groups.items()}


def cmd_run(prep, refs, seconds):
    repeats = [_repeat(prep, refs)]
    start = time.perf_counter() - repeats[0]["wall"]
    # start no repeat that would end after the budget, judged by the last one
    while time.perf_counter() - start + repeats[-1]["wall"] <= seconds:
        repeats.append(_repeat(prep, refs))
    wnrv = [w for _, w in workloads.wnrv_by_cell([r["cells"] for r in repeats], refs)]
    return {
        "walls": [r["wall"] for r in repeats],
        "digest": repeats[0]["digest"],
        "wnrv_geomean": workloads.geomean(wnrv),
        "peak_rss_mb": _peak_rss_mb(),
        **_tally(repeats),
    }


def cmd_trace(prep, refs):
    untraced = _repeat(prep, refs)
    tr = tracer.Tracer()
    with tr.installed(run=1):
        traced = _repeat(prep, refs)
    repeats = [untraced, traced]
    pool_threads = int(os.environ.get("RARE_UNION_THREADS", "1"))
    if prep.workload == "paper_table":
        os.environ["RARE_UNION_THREADS"] = "1"
        try:
            repeats.append(_repeat(prep, refs))
        finally:
            os.environ["RARE_UNION_THREADS"] = str(pool_threads)
    tally = _tally(repeats)
    metrics = tracer.layer_metrics(tr.spans, traced["wall"], threading.get_ident(), pool_threads)
    if metrics["oracles.oracle_union_normal_qmc.calls"][0]:
        # only the traced run sees the scramble spread oracle_for_model drops
        spread = metrics["oracles.qmc.rel_spread"][0]
        tally["attempted"] += 1
        if not spread <= workloads.QMC_REL_SPREAD_MAX:
            tally["failed"] += 1
            tally["messages"].append(f"oracles.qmc.rel_spread {spread:.2e} > {workloads.QMC_REL_SPREAD_MAX:g}")
    wnrv = _wnrv_by_estimator([untraced["cells"]], refs)
    for name in workloads.SAMPLING_ESTIMATORS:
        metrics[f"estimators.{name}.wnrv"] = (wnrv.get(name, 0.0), "s")
    metrics["process.cpu_s"] = (untraced["cpu"], "s")
    metrics["trace.overhead_frac"] = (traced["wall"] / untraced["wall"] - 1.0, "ratio")
    return {
        "metrics": metrics,
        "digests": [r["digest"] for r in repeats],
        "spans": [s.to_json() for s in tr.spans],
        **tally,
    }


def main(argv) -> int:
    mode, workload, seed, seconds, t0 = argv[:5]
    smoke = "--smoke" in argv[5:]
    inputs = workloads.make_inputs(workload, int(seed), smoke=smoke)
    prep = workloads.prepare(workload, inputs)
    report = {"setup_s": time.monotonic() - float(t0)}
    if mode != "setup":
        refs = workloads.references(prep)
        report.update(cmd_run(prep, refs, float(seconds)) if mode == "run" else cmd_trace(prep, refs))
        report["versions"] = _versions()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
