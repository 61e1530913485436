"""Command line harness: single estimates, grid experiments, oracles,
classification and ratio diagnostics.

Experiment cells get their seeds from a stable hash of the master seed,
the estimator name and the threshold, so extending a configuration never
perturbs existing cells.  Output is deterministic for fixed arguments up
to the wall-time column.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

from ._qmc import BITS
from ._rng import stable_cell_seed
from ._workers import ordered_map
from .errors import CapabilityError, ModelSpecError, RareUnionError, _dimension, _real
from .estimators import ESTIMATOR_NAMES, bonferroni_bounds, run_estimator
from .efficiency import classify_archimedean, classify_model, empirical_efficiency_ratio
from .models import build_model
# oracle_union_normal_qmc stays importable here: perfbench's tracer patches this lookup
from .oracles import QMC_POINT_CAP, oracle_for_model, oracle_union_normal_qmc  # noqa: F401

CSV_HEADER = "estimator,gamma,estimate,sample_std,stderr,rel_err,degenerate,replicates,seed,wall_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    gamma_grid: tuple
    estimators: tuple
    replicates: int = 100_000
    master_seed: int = 0
    output: str = "csv"
    oracle: object = "auto"  # "auto" | "none" | cap on QMC points

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object whose keys are this class's field names."""
        if not isinstance(obj, dict):
            raise ModelSpecError("experiment config must be a JSON object")
        keys = [f.name for f in fields(cls)]
        unknown = [k for k in obj if k not in keys]
        if unknown:
            raise ModelSpecError(f"unknown experiment config keys {unknown}; valid keys: {keys}")
        # a field left out takes its default from the class
        obj = {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **obj}
        try:
            model = obj["model"]
            grid = obj["gamma_grid"]
        except KeyError as exc:
            raise ModelSpecError(f"experiment config missing field {exc}") from exc
        estimators = obj.get("estimators", [])
        if not isinstance(grid, (list, tuple)) or not isinstance(estimators, (list, tuple)):
            raise ModelSpecError("gamma_grid and estimators must be lists")
        gamma_grid = tuple(_real(g, "gamma_grid values") for g in grid)
        if not gamma_grid or any(b <= a for a, b in zip(gamma_grid, gamma_grid[1:])):
            raise ModelSpecError("gamma_grid must be non-empty and strictly increasing")
        for name in estimators:
            if name not in ESTIMATOR_NAMES:
                raise ModelSpecError(
                    f"unknown estimator {name!r}; valid names: {ESTIMATOR_NAMES}"
                )
        replicates = _dimension(obj["replicates"], "replicates")
        master_seed = _dimension(obj["master_seed"], "master_seed", least=None)
        output = obj["output"]
        if output not in ("csv", "json"):
            raise ModelSpecError("output must be 'csv' or 'json'")
        oracle = obj["oracle"]
        if oracle not in ("auto", "none"):
            oracle = _dimension(oracle, "oracle")
            if oracle > 1 << BITS:
                raise ModelSpecError(f"the oracle's QMC point cap must be at most 2**{BITS}, got {oracle}")
        build_model(model)  # validate early
        return cls(
            model=model,
            gamma_grid=gamma_grid,
            estimators=tuple(estimators),
            replicates=replicates,
            master_seed=master_seed,
            output=output,
            oracle=oracle,
        )


@dataclass(frozen=True)
class TableRow:
    estimator: str
    gamma: float
    estimate: float
    sample_std: float
    stderr: float
    rel_err: Optional[float]
    degenerate: bool
    replicates: int
    seed: int
    wall_ms: float

    def to_json(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        est = f"{self.estimate:.10e}"
        if self.degenerate:
            est += "*"  # the table convention for zero-variance cells
        rel = "" if self.rel_err is None else f"{self.rel_err:.6e}"
        return ",".join(
            [
                self.estimator,
                f"{self.gamma:g}",
                est,
                f"{self.sample_std:.10e}",
                f"{self.stderr:.10e}",
                rel,
                "true" if self.degenerate else "false",
                str(self.replicates),
                str(self.seed),
                str(int(round(self.wall_ms))),
            ]
        )


def _oracle_values(config: ExperimentConfig, model) -> dict:
    if config.oracle == "none":
        return {}
    points = config.oracle if isinstance(config.oracle, int) else QMC_POINT_CAP
    values = {}
    for gamma in config.gamma_grid:
        try:
            values[gamma] = oracle_for_model(model, gamma, qmc_points=points)
        except RareUnionError:
            values[gamma] = None
    return values


def _run_cell(config: ExperimentConfig, model, name: str, gamma: float, oracle: Optional[float]):
    seed = stable_cell_seed(config.master_seed, name, gamma)
    if name == "bonferroni":
        t0 = time.perf_counter()
        bounds = bonferroni_bounds(model, gamma)
        wall = (time.perf_counter() - t0) * 1e3
        rows = []
        for label, value in (("bonferroni_upper", bounds.upper), ("bonferroni_second", bounds.second)):
            rel = abs(value - oracle) / oracle if oracle else None
            rows.append(
                TableRow(label, gamma, value, 0.0, 0.0, rel, False, 0, seed, wall / 2.0)
            )
        return rows
    try:
        res = run_estimator(name, model, gamma, config.replicates, seed)
    except CapabilityError as exc:
        print(f"warning: {name} at gamma={gamma}: {exc}", file=sys.stderr)
        return [
            TableRow(name, gamma, math.nan, math.nan, math.nan, None, False, 0, seed, 0.0)
        ]
    rel = abs(res.estimate - oracle) / oracle if oracle else None
    return [
        TableRow(
            name, gamma, res.estimate, res.sample_std, res.stderr, rel,
            res.degenerate, res.replicates, seed, res.wall_ms,
        )
    ]


def run_experiment(config: ExperimentConfig) -> list:
    """One row per (estimator, threshold), plus oracle rows when available.

    Cells are independent (each carries its own derived seed) and run on
    the package's worker pool, each cell's estimator inline in its worker
    thread; rows come back in configuration order regardless of
    completion order.
    """
    model = build_model(config.model)
    oracles = _oracle_values(config, model)
    cells = [(name, gamma) for name in config.estimators for gamma in config.gamma_grid]
    rows: list = []
    for gamma in config.gamma_grid:
        value = oracles.get(gamma)
        if value is not None:
            rows.append(
                TableRow("oracle", gamma, value, 0.0, 0.0, 0.0, False, 0, 0, 0.0)
            )
    for cell_rows in ordered_map(
        lambda cell: _run_cell(config, model, cell[0], cell[1], oracles.get(cell[1])), cells
    ):
        rows.extend(cell_rows)
    return rows


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([r.to_json() for r in rows], indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _model_from_arg(arg: str) -> dict:
    try:
        return json.loads(arg)
    except json.JSONDecodeError as exc:
        raise ModelSpecError(f"--model must be a JSON object: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rareunion",
        description="Union-of-rare-events estimation, oracles and efficiency diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimator once")
    p_est.add_argument("--model", required=True, help="model spec as JSON")
    p_est.add_argument("--estimator", required=True, choices=[n for n in ESTIMATOR_NAMES if n != "bonferroni"])
    p_est.add_argument("--gamma", type=float, required=True)
    p_est.add_argument("--replicates", type=int, default=100_000)
    p_est.add_argument("--seed", type=int, default=0)

    p_tab = sub.add_parser("table", help="run a config-driven experiment grid")
    p_tab.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_tab.add_argument("--out", default=None, help="output file (default: stdout)")

    p_or = sub.add_parser("oracle", help="deterministic union probability")
    p_or.add_argument("--model", required=True)
    p_or.add_argument("--gamma", type=float, required=True)
    p_or.add_argument(
        "--points", type=int, default=QMC_POINT_CAP, help="cap on QMC points for general covariances"
    )
    p_or.add_argument("--precision", type=int, default=3, help="mantissa digits to print")

    p_cl = sub.add_parser("classify", help="structural efficiency verdict")
    group = p_cl.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model spec as JSON")
    group.add_argument("--family", help="Archimedean family name or catalogue number")
    p_cl.add_argument("--theta", type=float, default=None)

    p_ra = sub.add_parser("ratio", help="empirical efficiency ratio on a threshold grid")
    p_ra.add_argument("--model", required=True)
    p_ra.add_argument("--gammas", required=True, help="comma-separated thresholds")

    return parser


def _cmd_estimate(args) -> int:
    model = build_model(_model_from_arg(args.model))
    res = run_estimator(args.estimator, model, args.gamma, args.replicates, args.seed)
    print(json.dumps(res.to_json(), indent=2))
    return 0


def _cmd_table(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    config = ExperimentConfig.from_dict(obj)
    # --out is opened before the run, so a path that cannot be written fails
    # first, and emptied only once the rows exist, so a failed run leaves an
    # existing file as it was
    out_file = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out_file as out:
        rows = run_experiment(config)
        text = rows_to_csv(rows) if config.output == "csv" else rows_to_json(rows)
        if args.out:
            out.truncate(0)
        out.write(text)
    return 0


def _cmd_oracle(args) -> int:
    if args.points < 1 or args.precision < 0:
        raise ModelSpecError("--points must be positive and --precision non-negative")
    model = build_model(_model_from_arg(args.model))
    value = oracle_for_model(model, args.gamma, qmc_points=args.points)
    if value is None:
        raise CapabilityError(f"no deterministic oracle for {type(model).__name__}")
    print(f"{value:.{args.precision}e}")
    return 0


def _cmd_classify(args) -> int:
    if args.model is not None:
        model = build_model(_model_from_arg(args.model))
        verdict = classify_model(model)
    else:
        if args.theta is None:
            raise ModelSpecError("--family needs --theta")
        family = int(args.family) if args.family.isdigit() else args.family
        verdict = classify_archimedean(family, args.theta)
    print(json.dumps(verdict.to_json(), indent=2))
    return 0


def _cmd_ratio(args) -> int:
    model = build_model(_model_from_arg(args.model))
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
    except ValueError as exc:
        raise ModelSpecError(f"--gammas must be comma-separated numbers: {exc}") from exc
    diag = empirical_efficiency_ratio(model, gammas)
    print(json.dumps(diag.to_json(), indent=2))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "table": _cmd_table,
    "oracle": _cmd_oracle,
    "classify": _cmd_classify,
    "ratio": _cmd_ratio,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ModelSpecError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RareUnionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
