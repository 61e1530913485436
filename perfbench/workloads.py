"""Workload inputs, execution, correctness gates and digests.

The benchmark makes every input from the workload seed; the package sees
only the generated configs and models.  ``make_inputs`` needs neither
numpy nor the package, so the parent process can build inputs cheaply;
``prepare`` imports the package and builds models and configs, which is
what the ``setup_s`` metric times.

Workloads (why each was chosen is in README.md):

* ``paper_table``: ``cli.run_experiment`` (the ``table`` command) on the
  paper's two benchmark grids, with its cell thread pool.
* ``wide_estimate``: sequential ``estimators.run_estimator`` calls (the
  ``estimate`` command) on a d=64 AR(1)-Toeplitz normal model.
* ``oracle_qmc``: the deterministic oracles, led by the QMC oracle at the
  ``oracle`` command's default 2^20 points, plus the efficiency
  diagnostics and a small importance-sampling cross-check of the QMC value.

Lookups into the package go through module attributes at call time
(``estimators.run_estimator``, never a name bound at import), so the
traced run sees every call it wraps.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import random
import statistics
import time
from types import SimpleNamespace

WORKLOADS = ("paper_table", "wide_estimate", "oracle_qmc")

# Gate width in standard errors.  A run gates about 30 Monte Carlo cells and
# the benchmark is run about a hundred times per commit; at 4 s.e. a false
# alarm somewhere is likely (~20 %) even for exactly normal estimates, and
# low-count crude cells have heavier tails.  At 5 s.e. the family-wise
# false-alarm rate is ~1e-3 per hundred runs, and a corrupted estimate
# still fails by orders of magnitude.
Z_GATE = 5.0

# A cell enters the work-normalised relative variance only when the sampled
# part of its estimate (the estimate minus its deterministic head, see
# ``heads``) has a relative standard error of at most this.  With fewer
# hits, (stderr/estimate)^2 is itself an estimate with O(1) relative error
# (k hits give the sampled part relative error ~1/sqrt(k)), and a rare cell
# entering the set on its first hit would swing the geometric mean.
RESOLVED_REL_ERR = 0.1

# Four-digit references of the two paper models, the same values that
# tests/test_acceptance.py freezes as EQUICORR_UNION and LAPLACE_UNION.
EQUICORR_UNION = {2.0: "5.633e-02", 4.0: "1.095e-04", 6.0: "3.838e-09", 8.0: "2.481e-15"}
LAPLACE_UNION = {6.0: "4.093e-04", 8.0: "2.435e-05", 10.0: "1.442e-06", 12.0: "8.526e-08"}

ALL_ESTIMATORS = (
    "cmc",
    "alpha1",
    "alpha2",
    "alpha1_is",
    "alpha2_is",
    "beta1_alpha",
    "beta2_alpha",
    "bonferroni",
)
SAMPLING_ESTIMATORS = ALL_ESTIMATORS[:-1]
LAPLACE_ESTIMATORS = ("cmc", "alpha1", "alpha2", "alpha1_is", "beta1_alpha", "bonferroni")
WIDE_ESTIMATORS = ("cmc", "alpha1", "alpha1_is", "beta1_alpha")
CROSSCHECK_ESTIMATORS = ("alpha1_is", "beta1_alpha")

QMC_REL_SPREAD_MAX = 1e-6
EQUICORR_QMC_REL_TOL = 1e-6


def toeplitz(d: int, phi: float) -> list:
    """Covariance ``phi**|i-j|``: the stationary AR(1) law with unit variance."""
    return [[phi ** abs(i - j) for j in range(d)] for i in range(d)]


def _cell_seeds(seed: int, label: str, names) -> dict:
    rng = random.Random(f"{label}:{seed}")
    return {name: rng.getrandbits(63) for name in names}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """JSON-ready inputs of one workload; the same seed gives the same inputs.

    ``smoke`` shrinks every size so the benchmark's own tests run each
    code path in seconds; measured runs never use it.
    """
    if workload == "paper_table":
        reps = 2_000 if smoke else 50_000
        return {
            "grids": [
                {
                    "model": {"type": "normal", "d": 4, "rho": 0.75},
                    "gamma_grid": [2.0, 4.0, 6.0, 8.0],
                    "estimators": list(ALL_ESTIMATORS),
                    "replicates": reps,
                    "master_seed": seed,
                    "oracle": "auto",
                },
                {
                    "model": {"type": "laplace", "d": 4},
                    "gamma_grid": [6.0, 8.0, 10.0, 12.0],
                    "estimators": list(LAPLACE_ESTIMATORS),
                    "replicates": reps,
                    "master_seed": seed,
                    "oracle": "auto",
                },
            ]
        }
    if workload == "wide_estimate":
        d = 12 if smoke else 64
        return {
            "model": {"type": "normal", "sigma": toeplitz(d, 0.5)},
            "gamma": 4.0,
            "replicates": 20_000 if smoke else 400_000,
            "seeds": _cell_seeds(seed, workload, WIDE_ESTIMATORS),
        }
    if workload == "oracle_qmc":
        return {
            "toeplitz": {"type": "normal", "sigma": toeplitz(8, 0.5)},
            "gamma": 5.0,
            "points": 1 << (12 if smoke else 20),
            "equicorr": {"d": 8, "rho": 0.5, "points": 1 << (12 if smoke else 16)},
            "paper_normal": {"d": 4, "rho": 0.75, "gammas": sorted(EQUICORR_UNION)},
            "paper_laplace": {"d": 4, "gammas": sorted(LAPLACE_UNION)},
            "ratio_gammas": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "crosscheck_replicates": 5_000 if smoke else 2_000_000,
            "seeds": {
                model: _cell_seeds(seed, f"{workload}:{model}", CROSSCHECK_ESTIMATORS)
                for model in ("toeplitz", "equicorr")
            },
        }
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


def prepare(workload: str, inputs: dict) -> SimpleNamespace:
    """Import the package and build the models and configs of a workload."""
    ru = importlib.import_module("rareunion")
    prep = SimpleNamespace(
        workload=workload,
        inputs=inputs,
        cli=importlib.import_module("rareunion.cli"),
        estimators=importlib.import_module("rareunion.estimators"),
        oracles=importlib.import_module("rareunion.oracles"),
        efficiency=importlib.import_module("rareunion.efficiency"),
        models=importlib.import_module("rareunion.models"),
        version=ru.__version__,
    )
    if workload == "paper_table":
        prep.configs = [prep.cli.ExperimentConfig.from_dict(g) for g in inputs["grids"]]
    elif workload == "wide_estimate":
        prep.model = prep.models.build_model(inputs["model"])
    else:
        eq = inputs["equicorr"]
        prep.toeplitz = prep.models.build_model(inputs["toeplitz"])
        prep.equicorr = prep.models.build_model({"type": "normal", "d": eq["d"], "rho": eq["rho"]})
    return prep


def references(prep) -> dict:
    """Deterministic references the gates compare against, computed once
    per process and outside every timed or traced repeat."""
    inputs = prep.inputs
    if prep.workload == "wide_estimate":
        return {"bounds": prep.estimators.bonferroni_bounds(prep.model, inputs["gamma"])}
    if prep.workload == "oracle_qmc":
        eq = inputs["equicorr"]
        return {
            "bounds": prep.estimators.bonferroni_bounds(prep.toeplitz, inputs["gamma"]),
            "one_factor": prep.oracles.oracle_union_normal_equicorr(eq["d"], eq["rho"], inputs["gamma"]),
        }
    return {}


# ---------------------------------------------------------------------------
# one repeat of a workload: a list of cells


def _cell(grid, name, gamma, estimate, sample_std=0.0, stderr=0.0, degenerate=False,
          seconds=0.0, mc=False, label="", values=(), error=None) -> dict:
    return {
        "grid": grid,
        "name": name,
        "gamma": float(gamma),
        "estimate": float(estimate),
        "sample_std": float(sample_std),
        "stderr": float(stderr),
        "degenerate": bool(degenerate),
        "seconds": float(seconds),
        "mc": mc,
        "label": label,
        "values": [float(v) for v in values],
        "error": error,
    }


def _failed_cell(grid, name, gamma, exc, mc=True) -> dict:
    return _cell(grid, name, gamma, math.nan, math.nan, math.nan, mc=mc,
                 error=f"{type(exc).__name__}: {exc}")


def _run_paper_table(prep) -> list:
    cells = []
    for cfg in prep.configs:
        grid = cfg.model["type"]
        try:
            rows = prep.cli.run_experiment(cfg)
        except Exception as exc:  # one raising grid fails its cells, not the run
            cells += [
                _failed_cell(grid, name, g, exc)
                for name in cfg.estimators
                for g in cfg.gamma_grid
            ]
            continue
        for r in rows:
            cells.append(
                _cell(grid, r.estimator, r.gamma, r.estimate, r.sample_std, r.stderr,
                      r.degenerate, r.wall_ms / 1e3, mc=r.estimator in SAMPLING_ESTIMATORS)
            )
    return cells


def _run_wide_estimate(prep) -> list:
    inputs = prep.inputs
    gamma, reps = inputs["gamma"], inputs["replicates"]
    cells = []
    for name in WIDE_ESTIMATORS:
        try:
            res = prep.estimators.run_estimator(name, prep.model, gamma, reps, inputs["seeds"][name])
        except Exception as exc:  # counted by the gates
            cells.append(_failed_cell("toeplitz", name, gamma, exc))
            continue
        cells.append(
            _cell("toeplitz", name, gamma, res.estimate, res.sample_std, res.stderr,
                  res.degenerate, res.wall_ms / 1e3, mc=True)
        )
    return cells


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _run_oracle_qmc(prep) -> list:
    inputs = prep.inputs
    oracles, efficiency, estimators = prep.oracles, prep.efficiency, prep.estimators
    gamma = inputs["gamma"]
    eq = inputs["equicorr"]
    pn, pl = inputs["paper_normal"], inputs["paper_laplace"]
    calls = [
        ("toeplitz", "oracle_for_model", gamma, lambda: oracles.oracle_for_model(
            prep.toeplitz, gamma, qmc_points=inputs["points"])),
        ("equicorr", "oracle_union_normal_qmc", gamma, lambda: oracles.oracle_union_normal_qmc(
            prep.equicorr, gamma, points=eq["points"])),
        ("equicorr", "oracle_union_normal_equicorr", gamma, lambda: oracles.oracle_union_normal_equicorr(
            eq["d"], eq["rho"], gamma)),
    ]
    calls += [
        ("paper_normal", "oracle_union_normal_equicorr", g,
         lambda g=g: oracles.oracle_union_normal_equicorr(pn["d"], pn["rho"], g))
        for g in pn["gammas"]
    ]
    calls += [
        ("paper_laplace", "oracle_union_laplace", g, lambda g=g: oracles.oracle_union_laplace(pl["d"], g))
        for g in pl["gammas"]
    ]
    cells = []
    for grid, name, g, call in calls:
        try:
            out, secs = _timed(call)
        except Exception as exc:
            cells.append(_failed_cell(grid, name, g, exc, mc=False))
            continue
        err = getattr(out, "error", 0.0)
        cells.append(_cell(grid, name, g, float(out), err, err, seconds=secs))

    try:
        verdict, secs = _timed(efficiency.classify_model, prep.toeplitz)
        cells.append(_cell("toeplitz", "classify_model", gamma, 0.0, seconds=secs,
                           label=verdict.level))
    except Exception as exc:
        cells.append(_failed_cell("toeplitz", "classify_model", gamma, exc, mc=False))
    try:
        diag, secs = _timed(efficiency.empirical_efficiency_ratio, prep.toeplitz, inputs["ratio_gammas"])
        ratios = [v for r in diag.rows for v in (r.ratio_strict, r.ratio_relaxed)]
        cells.append(_cell("toeplitz", "empirical_efficiency_ratio", gamma, ratios[-2], seconds=secs,
                           label=f"{diag.strict_trend}/{diag.relaxed_trend}", values=ratios))
    except Exception as exc:
        cells.append(_failed_cell("toeplitz", "empirical_efficiency_ratio", gamma, exc, mc=False))

    for grid, model in (("toeplitz", prep.toeplitz), ("equicorr", prep.equicorr)):
        for name in CROSSCHECK_ESTIMATORS:
            try:
                res = estimators.run_estimator(
                    name, model, gamma, inputs["crosscheck_replicates"], inputs["seeds"][grid][name])
            except Exception as exc:
                cells.append(_failed_cell(grid, name, gamma, exc))
                continue
            cells.append(_cell(grid, name, gamma, res.estimate, res.sample_std, res.stderr,
                               res.degenerate, res.wall_ms / 1e3, mc=True))
    return cells


RUNNERS = {
    "paper_table": _run_paper_table,
    "wide_estimate": _run_wide_estimate,
    "oracle_qmc": _run_oracle_qmc,
}


def run(prep) -> list:
    """One repeat of the workload: every cell or call with its outputs."""
    return RUNNERS[prep.workload](prep)


# ---------------------------------------------------------------------------
# correctness gates: a list of failure messages per cell


def _within(estimate, ref, stderr) -> bool:
    return math.isfinite(estimate) and abs(estimate - ref) <= Z_GATE * stderr


def _gate_paper_table(cells, refs) -> list:
    tables = {"normal": EQUICORR_UNION, "laplace": LAPLACE_UNION}
    by_key = {(c["grid"], c["name"], c["gamma"]): c for c in cells}
    failures = []
    for c in cells:
        msgs = []
        grid, name, g = c["grid"], c["name"], c["gamma"]
        oracle = by_key.get((grid, "oracle", g))
        if c["error"]:
            msgs.append(c["error"])
        elif name == "oracle":
            want = tables[grid].get(g)
            if f"{c['estimate']:.3e}" != want:
                msgs.append(f"oracle {c['estimate']:.4e} != reference {want}")
        elif name in SAMPLING_ESTIMATORS:
            if oracle is None:
                msgs.append("no oracle row to compare with")
            elif c["degenerate"]:
                bound = {"alpha1": "bonferroni_upper", "alpha2": "bonferroni_second"}.get(name)
                if bound is not None:
                    row = by_key.get((grid, bound, g))
                    if row is None or c["estimate"] != row["estimate"]:
                        msgs.append(f"degenerate {name} is not bit-equal to {bound}")
            elif not _within(c["estimate"], oracle["estimate"], c["stderr"]):
                msgs.append(
                    f"|{c['estimate']:.6e} - oracle {oracle['estimate']:.6e}| > {Z_GATE:g} s.e. "
                    f"({c['stderr']:.3e})"
                )
        elif not math.isfinite(c["estimate"]):
            msgs.append("non-finite value")
        failures.append(msgs)
    return failures


def _gate_wide_estimate(cells, refs) -> list:
    upper, second = refs["bounds"]
    failures = []
    for c in cells:
        msgs = []
        if c["error"]:
            msgs.append(c["error"])
        else:
            slack = Z_GATE * c["stderr"]
            if not (math.isfinite(c["estimate"]) and second - slack <= c["estimate"] <= upper + slack):
                msgs.append(
                    f"{c['estimate']:.6e} outside [{second:.6e}, {upper:.6e}] +- {Z_GATE:g} s.e."
                )
        failures.append(msgs)
    for (i, a), (j, b) in itertools.combinations(enumerate(cells), 2):
        # a degenerate cell reports stderr 0, which says nothing about its error
        if a["error"] or b["error"] or a["degenerate"] or b["degenerate"]:
            continue
        se = math.hypot(a["stderr"], b["stderr"])
        if not abs(a["estimate"] - b["estimate"]) <= Z_GATE * se:
            msg = f"{a['name']} and {b['name']} differ by more than {Z_GATE:g} combined s.e."
            failures[i].append(msg)
            failures[j].append(msg)
    return failures


def _gate_oracle_qmc(cells, refs) -> list:
    upper, second = refs["bounds"]
    one_factor = refs["one_factor"]
    tables = {"paper_normal": EQUICORR_UNION, "paper_laplace": LAPLACE_UNION}
    toeplitz_value = next(
        (c["estimate"] for c in cells if c["name"] == "oracle_for_model" and not c["error"]), None
    )
    failures = []
    for c in cells:
        msgs = []
        grid, name, v = c["grid"], c["name"], c["estimate"]
        if c["error"]:
            msgs.append(c["error"])
        elif name == "oracle_for_model":
            if not second <= v <= upper:
                msgs.append(f"QMC value {v:.6e} outside its Bonferroni bracket [{second:.6e}, {upper:.6e}]")
        elif name == "oracle_union_normal_qmc":
            if not abs(v - one_factor) <= EQUICORR_QMC_REL_TOL * one_factor:
                msgs.append(f"equicorrelated QMC {v:.9e} != one-factor {one_factor:.9e}")
            if not c["stderr"] <= QMC_REL_SPREAD_MAX * v:
                msgs.append(f"QMC relative spread {c['stderr'] / v:.2e} > {QMC_REL_SPREAD_MAX:g}")
        elif grid in tables:
            want = tables[grid].get(c["gamma"])
            if f"{v:.3e}" != want:
                msgs.append(f"oracle {v:.4e} != reference {want}")
        elif name == "empirical_efficiency_ratio":
            if not all(math.isfinite(r) and r > 0 for r in c["values"]):
                msgs.append("non-finite or non-positive ratio")
        elif c["mc"]:
            ref = one_factor if grid == "equicorr" else toeplitz_value
            if ref is None:
                msgs.append("no oracle value to compare with")
            elif c["degenerate"] or not _within(v, ref, c["stderr"]):
                msgs.append(f"|{v:.6e} - oracle {ref:.6e}| > {Z_GATE:g} s.e. ({c['stderr']:.3e})")
        failures.append(msgs)
    return failures


GATES = {
    "paper_table": _gate_paper_table,
    "wide_estimate": _gate_wide_estimate,
    "oracle_qmc": _gate_oracle_qmc,
}


def gate(workload: str, cells: list, refs: dict) -> list:
    """Failure messages per cell; a cell with any message counts as failed."""
    return GATES[workload](cells, refs)


# ---------------------------------------------------------------------------
# digests and the work-normalised relative variance


def digest(cells) -> str:
    """Bit-exact digest of every cell's identity and outputs (never its time)."""
    h = hashlib.sha256()
    for c in cells:
        parts = [c["grid"], c["name"], c["gamma"].hex(), c["estimate"].hex(),
                 c["sample_std"].hex(), c["label"]] + [v.hex() for v in c["values"]]
        h.update("|".join(parts).encode())
        h.update(b"\n")
    return h.hexdigest()


# the Bonferroni bound an alpha_n estimate adds its sampled remainder to
HEAD_BOUNDS = {"alpha1": "upper", "alpha2": "second"}


def heads(cells, refs) -> list:
    """Deterministic part of each cell's estimate: the matching Bonferroni
    bound for alpha1/alpha2 (the table's own row, else the workload's
    reference bounds), 0 for every other estimator."""
    rows = {(c["grid"], c["gamma"], c["name"]): c["estimate"] for c in cells}
    out = []
    for c in cells:
        kind = HEAD_BOUNDS.get(c["name"])
        if kind is None:
            out.append(0.0)
        elif "bounds" in refs:
            out.append(getattr(refs["bounds"], kind))
        else:
            out.append(rows.get((c["grid"], c["gamma"], f"bonferroni_{kind}"), math.nan))
    return out


def cell_wnrv(cell, head, seconds):
    """``(stderr/estimate)^2 * seconds`` of a resolved Monte Carlo cell, else None."""
    est, se = cell["estimate"], cell["stderr"]
    if not cell["mc"] or cell["degenerate"] or cell["error"] or not (est and se > 0):
        return None
    if not se <= RESOLVED_REL_ERR * abs(est - head):
        return None
    return (se / est) ** 2 * seconds


def wnrv_by_cell(repeats, refs) -> list:
    """(cell index, wnrv) per resolved cell, with each cell's time the median
    over repeats; the repeats hold identical outputs, checked by the digest."""
    out = []
    for k, (cell, head) in enumerate(zip(repeats[0], heads(repeats[0], refs))):
        w = cell_wnrv(cell, head, statistics.median(rep[k]["seconds"] for rep in repeats))
        if w is not None:
            out.append((k, w))
    return out


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
