"""The rareunion benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 28 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (``setup_s``,
``wall_s``, ``wnrv_geomean``, ``peak_rss_mb``), measured untraced; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and
settings.  Both are also written to ``.perfbench/`` with the spans of a
traced run.  The exit code is 0 only when every gate and digest check
passed.

Every workload process runs with BLAS/OpenMP pinned to one thread and
``RARE_UNION_THREADS`` set to the number of usable cores, so the package's
own pool is the only parallelism and never exceeds the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 7  # the workload process's own setup plus six setup-only ones
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s
START = time.monotonic()
IMPORT_MODULES = {
    "rareunion": "import.rareunion_s",
    "scipy.stats": "import.scipy_stats_s",
    "scipy.integrate": "import.scipy_integrate_s",
}
PINNED_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in PINNED_THREAD_VARS})
    env["RARE_UNION_THREADS"] = str(threads)
    return env


def _run_child(cmd, env) -> subprocess.CompletedProcess:
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - START))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"{cmd[1:4]} passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{cmd[1:4]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def worker(mode, workload, seed, seconds, env, smoke=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)]
    cmd.append(repr(time.monotonic()))
    if smoke:
        cmd.append("--smoke")
    out = _run_child(cmd, env).stdout.strip().splitlines()
    return json.loads(out[-1])


def import_times(env, runs) -> dict:
    """Cumulative import time of the named modules, from ``-X importtime``
    in fresh interpreters (median over runs)."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(runs):
        proc = _run_child([sys.executable, "-X", "importtime", "-c", "import rareunion"], env)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {
        metric: (statistics.median(samples[name]) if samples[name] else 0.0, "s")
        for name, metric in IMPORT_MODULES.items()
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_info(args, env, report) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        **report.get("versions", {}),
        "blas_threads": {var: env[var] for var in PINNED_THREAD_VARS},
        "RARE_UNION_THREADS": env["RARE_UNION_THREADS"],
    }


def measure(args, env) -> tuple:
    """(correct, attempted, failed, metrics, worker report) of one run."""
    if args.trace:
        report = worker("trace", args.workload, args.seed, args.seconds, env, args.smoke)
        metrics = dict(report["metrics"])
        metrics.update(import_times(env, 1 if args.smoke else IMPORTTIME_SAMPLES))
    else:
        report = worker("run", args.workload, args.seed, args.seconds, env, args.smoke)
        setups = report["setup_samples"] = [report["setup_s"]] + [
            worker("setup", args.workload, args.seed, 0, env, args.smoke)["setup_s"]
            for _ in range((1 if args.smoke else SETUP_SAMPLES) - 1)
        ]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(report["walls"]), "s"),
            "wnrv_geomean": (report["wnrv_geomean"], "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    # the worker counts a repeat whose digest differs as failed cells
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics["error_rate"] = (failed / attempted, "ratio")
    return failed == 0, attempted, failed, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rareunion" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'rareunion'}", file=sys.stderr)
        return 2
    env = child_env(nproc())
    try:
        correct, attempted, failed, metrics, report = measure(args, env)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = machine_info(args, env, report)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, "result": result, "failures": report["messages"],
              "digests": report.get("digests", [report.get("digest")]),
              "repeat_walls": report.get("walls"), "setup_samples": report.get("setup_samples")}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in report["spans"]:
                fh.write(json.dumps(span) + "\n")
    for msg in report["messages"]:
        print(f"gate: {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
