import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import numpy as np
import pytest

from rareunion import cli, oracles
from rareunion.cli import (
    CSV_HEADER,
    ExperimentConfig,
    main,
    run_experiment,
    rows_to_csv,
    rows_to_json,
)
from rareunion.errors import CapabilityError, ModelSpecError

NORMAL4 = '{"type":"normal","d":4,"rho":0.75}'


@contextlib.contextmanager
def _environment(env):
    saved = {key: os.environ.get(key) for key in env or {}}
    os.environ.update(env or {})
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def run_cli(*args, env=None, timeout=120):
    """``rareunion <args>`` run in this process, as a ``CompletedProcess``.

    ``main`` runs on a thread joined with ``timeout``, so a hang fails the
    test.  argparse's ``SystemExit`` becomes the exit code and any other
    uncaught exception a traceback on stderr with exit code 1, as in a
    real process.  ``env`` holds only while the command runs.
    """
    out, err = io.StringIO(), io.StringIO()
    code = []

    def command():
        try:
            code.append(main(list(args)))
        except SystemExit as exc:
            code.append(0 if exc.code is None else exc.code)
        except BaseException:
            traceback.print_exc(file=err)
            code.append(1)

    with _environment(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        worker = threading.Thread(target=command, daemon=True)
        worker.start()
        worker.join(timeout)
    if worker.is_alive():
        raise subprocess.TimeoutExpired(["rareunion", *args], timeout)
    return subprocess.CompletedProcess(["rareunion", *args], code[0], out.getvalue(), err.getvalue())


def run_cli_process(*args):
    """``python -m rareunion.cli <args>`` in a fresh interpreter that imports
    the package from the same source tree as this test run, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rareunion.cli", *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def strip_wall_ms(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "model": {"type": "normal", "d": 3, "rho": 0.5},
        "gamma_grid": [1.0, 2.0],
        "estimators": ["cmc", "alpha1", "alpha1_is", "bonferroni"],
        "replicates": 5000,
        "master_seed": 123,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_from_dict_validation(self):
        with pytest.raises(ModelSpecError):
            ExperimentConfig.from_dict({"model": {"type": "laplace", "d": 2}, "gamma_grid": []})
        with pytest.raises(ModelSpecError):
            ExperimentConfig.from_dict(
                {"model": {"type": "laplace", "d": 2}, "gamma_grid": [2.0, 1.0]}
            )
        with pytest.raises(ModelSpecError):
            ExperimentConfig.from_dict(
                {
                    "model": {"type": "laplace", "d": 2},
                    "gamma_grid": [1.0],
                    "estimators": ["zeta"],
                }
            )

    def test_non_finite_gamma_grid_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ModelSpecError):
                ExperimentConfig.from_dict(
                    {"model": {"type": "laplace", "d": 2}, "gamma_grid": [1.0, bad]}
                )

    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(
            {"model": {"type": "laplace", "d": 2}, "gamma_grid": [1.0]}
        )
        assert cfg.replicates == 100_000
        assert cfg.oracle == "auto"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gamma_grid", ["x"]),
            ("gamma_grid", 5),
            ("replicates", "x"),
            ("replicates", 2.7),
            ("master_seed", "x"),
            ("master_seed", 1.5),
            ("switch_below_std", "x"),
            ("estimators", "cmc"),
            ("oracle", 0),
            ("replicates", True),
            ("oracle", True),
            ("gamma_grid", ["1.5", 3, 4]),
            ("gamma_grid", [False, True]),
            ("switch_below_std", "0.1"),
            ("switch_below_std", True),
        ],
    )
    def test_bad_number_or_kind_rejected(self, field, value):
        # these once raised a bare ValueError or TypeError, truncated 2.7
        # to 2, read True as 1, read "1.5" as 1.5, or iterated "cmc" letter
        # by letter
        obj = {"model": {"type": "laplace", "d": 2}, "gamma_grid": [1.0], field: value}
        with pytest.raises(ModelSpecError, match=field):
            ExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "extra", [{"estimator": ["cmc"], "replicate": 10}, {"switch_below_std": 1.0}]
    )
    def test_unknown_keys_rejected(self, extra):
        # a misspelt key was once ignored, so {"estimator": [...]} ran an
        # oracle-only table at the default replicate count
        obj = {"model": {"type": "laplace", "d": 2}, "gamma_grid": [1.0], **extra}
        with pytest.raises(ModelSpecError, match="valid keys") as info:
            ExperimentConfig.from_dict(obj)
        assert all(repr(key) in str(info.value) for key in extra)
        assert "'estimators'" in str(info.value) and "'replicates'" in str(info.value)

    def test_integral_counts_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {"model": {"type": "laplace", "d": 2}, "gamma_grid": [1.0], "replicates": 2.0, "master_seed": -3}
        )
        assert (cfg.replicates, cfg.master_seed) == (2, -3)
        assert type(cfg.replicates) is int


class TestRunExperiment:
    def test_rows_in_config_order_with_oracle(self):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "normal", "d": 3, "rho": 0.5},
                "gamma_grid": [1.0, 2.0],
                "estimators": ["cmc", "bonferroni"],
                "replicates": 2000,
                "master_seed": 7,
            }
        )
        rows = run_experiment(cfg)
        names = [r.estimator for r in rows]
        assert names[:2] == ["oracle", "oracle"]
        assert names[2:] == [
            "cmc",
            "cmc",
            "bonferroni_upper",
            "bonferroni_second",
            "bonferroni_upper",
            "bonferroni_second",
        ]
        gammas = [r.gamma for r in rows[2:4]]
        assert gammas == [1.0, 2.0]

    def test_capability_mismatch_reported_not_fatal(self, capsys):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "laplace", "d": 3},
                "gamma_grid": [6.0],
                "estimators": ["alpha2_is", "cmc"],
                "replicates": 500,
            }
        )
        rows = run_experiment(cfg)
        bad = [r for r in rows if r.estimator == "alpha2_is"]
        assert len(bad) == 1 and np.isnan(bad[0].estimate)
        good = [r for r in rows if r.estimator == "cmc"]
        assert len(good) == 1 and np.isfinite(good[0].estimate)

    def test_model_without_an_oracle_leaves_rel_err_empty(self):
        # a normal beyond d=8 that is not equicorrelated has no oracle route
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "ar1", "phi": 0.5, "sigma_eps": 0.866, "d": 9},
                "gamma_grid": [3.0],
                "estimators": ["alpha1"],
                "replicates": 500,
            }
        )
        rows = run_experiment(cfg)
        assert [r.estimator for r in rows] == ["alpha1"]
        assert rows[0].rel_err is None and np.isfinite(rows[0].estimate)
        assert rows[0].to_csv().split(",")[5] == ""

    def test_oracle_only_run(self):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "laplace", "d": 4},
                "gamma_grid": [6.0, 8.0],
                "estimators": [],
            }
        )
        rows = run_experiment(cfg)
        assert [r.estimator for r in rows] == ["oracle", "oracle"]
        assert rows[0].estimate == pytest.approx(4.093e-4, rel=1e-3)

    def test_cell_seeds_stable_under_extension(self):
        base = {
            "model": {"type": "normal", "d": 3, "rho": 0.5},
            "gamma_grid": [1.0],
            "estimators": ["cmc"],
            "replicates": 1000,
            "master_seed": 5,
        }
        rows1 = run_experiment(ExperimentConfig.from_dict(base))
        extended = dict(base, estimators=["cmc", "alpha1"])
        rows2 = run_experiment(ExperimentConfig.from_dict(extended))
        cmc1 = [r for r in rows1 if r.estimator == "cmc"][0]
        cmc2 = [r for r in rows2 if r.estimator == "cmc"][0]
        assert cmc1.seed == cmc2.seed
        assert cmc1.estimate == cmc2.estimate


class TestCsvFormat:
    def test_header_and_asterisk_convention(self):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "normal", "d": 4, "rho": 0.75},
                "gamma_grid": [6.0],
                "estimators": ["alpha1"],
                "replicates": 1000,
                "master_seed": 3,
            }
        )
        rows = run_experiment(cfg)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        alpha_line = [l for l in lines if l.startswith("alpha1,")][0]
        fields = alpha_line.split(",")
        assert re.fullmatch(r"3\.94\d+e-09\*", fields[2])  # degenerate cell
        assert fields[6] == "true"

    def test_golden_layout(self):
        # pinned layout: column order and formatting are part of the contract
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "finite", "pmf": [0.25, 0.25, 0.25, 0.25]},
                "gamma_grid": [0.0],
                "estimators": ["bonferroni"],
                "oracle": "none",
            }
        )
        text = rows_to_csv(run_experiment(cfg))
        lines = text.strip().splitlines()
        assert lines[0] == (
            "estimator,gamma,estimate,sample_std,stderr,rel_err,degenerate,"
            "replicates,seed,wall_ms"
        )
        assert lines[1].startswith("bonferroni_upper,0,1.0000000000e+00,")
        assert lines[2].startswith("bonferroni_second,0,7.5000000000e-01,")

    def test_json_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {
                "model": {"type": "normal", "d": 2, "rho": 0.5},
                "gamma_grid": [1.0],
                "estimators": ["cmc"],
                "replicates": 500,
            }
        )
        rows = run_experiment(cfg)
        parsed = json.loads(rows_to_json(rows))
        assert parsed[0]["estimator"] == "oracle"
        assert {"estimate", "gamma", "seed"} <= set(parsed[0])


class TestCommandLine:
    def test_oracle_prints_reference_value(self):
        proc = run_cli_process("oracle", "--model", NORMAL4, "--gamma", "4")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.095e-04"

    def test_qmc_point_cap_has_one_owner(self):
        # the --points default, the table's "auto" oracle and the oracle
        # functions all read the cap that the oracles module names
        assert oracles.QMC_POINT_CAP == 1 << 20
        args = cli._build_parser().parse_args(["oracle", "--model", NORMAL4, "--gamma", "4"])
        assert args.points == oracles.QMC_POINT_CAP
        assert cli.QMC_POINT_CAP is oracles.QMC_POINT_CAP
        defaults = {
            inspect.signature(oracles.oracle_union_normal_qmc).parameters["points"].default,
            inspect.signature(oracles.oracle_for_model).parameters["qmc_points"].default,
        }
        assert defaults == {oracles.QMC_POINT_CAP}

    def test_classify_model_negative_rho(self):
        proc = run_cli("classify", "--model", '{"type":"normal","d":3,"rho":-0.25}')
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["level"] == "BRE"

    def test_classify_family(self):
        proc = run_cli("classify", "--family", "clayton", "--theta", "2.0")
        assert json.loads(proc.stdout)["level"] == "BRE"

    def test_estimate_json_shape(self):
        proc = run_cli(
            "estimate",
            "--model",
            '{"type":"laplace","d":4}',
            "--estimator",
            "alpha1_is",
            "--gamma",
            "6",
            "--replicates",
            "20000",
            "--seed",
            "7",
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["stderr"] > 0.0
        assert obj["replicates"] == 20000

    def test_ratio_subcommand(self):
        proc = run_cli(
            "ratio", "--model", '{"type":"normal","d":2,"rho":0.75}', "--gammas", "1,2,3"
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["strict_trend"] == "increasing"

    def test_table_determinism_across_thread_counts(self, small_config, tmp_path):
        out1 = run_cli("table", "--config", str(small_config), env={"RARE_UNION_THREADS": "1"})
        out2 = run_cli("table", "--config", str(small_config), env={"RARE_UNION_THREADS": "4"})
        assert out1.returncode == out2.returncode == 0
        assert strip_wall_ms(out1.stdout) == strip_wall_ms(out2.stdout)

    def test_table_repeat_byte_identical_modulo_wall(self, small_config):
        a = run_cli("table", "--config", str(small_config))
        b = run_cli("table", "--config", str(small_config))
        assert strip_wall_ms(a.stdout) == strip_wall_ms(b.stdout)

    def test_table_reads_output_and_replicates_from_config(self, tmp_path):
        cfg = {
            "model": {"type": "normal", "d": 2, "rho": 0.5},
            "gamma_grid": [1.0],
            "estimators": ["cmc", "alpha1_is"],
            "replicates": 500,
            "output": "json",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("table", "--config", str(path))
        assert proc.returncode == 0
        rows = [row for row in json.loads(proc.stdout) if row["estimator"] != "oracle"]
        assert [row["estimator"] for row in rows] == ["cmc", "alpha1_is"]
        assert all(row["replicates"] == 500 for row in rows)

    def test_table_writes_file(self, small_config, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli("table", "--config", str(small_config), "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_unknown_subcommand_exits_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_bad_model_json_exits_two(self):
        proc = run_cli("oracle", "--model", "{not json", "--gamma", "1")
        assert proc.returncode == 2

    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"type": "laplace", "d": 2}, "gamma_grid": []}))
        proc = run_cli("table", "--config", str(path))
        assert proc.returncode == 2

    def test_config_that_is_a_list_exits_two(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"model": {"type": "laplace", "d": 2}, "gamma_grid": [6.0]}]))
        proc = run_cli("table", "--config", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "JSON object" in proc.stderr

    def test_classify_family_without_theta_exits_two(self):
        proc = run_cli("classify", "--family", "clayton")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "--theta" in proc.stderr

    def test_ratio_gamma_that_is_not_a_number_exits_two(self):
        proc = run_cli("ratio", "--model", '{"type":"normal","d":2,"rho":0.75}', "--gammas", "1,x")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "--gammas" in proc.stderr

    def test_unknown_config_key_exits_two(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"model": {"type": "laplace", "d": 2}, "gamma_grid": [6.0], "estimator": ["cmc"]}))
        proc = run_cli("table", "--config", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "'estimator'" in proc.stderr

    def test_missing_config_file_exits_two(self, tmp_path):
        # a directory and a file that is not UTF-8 once ended in a traceback
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"model": "\xe9"}')
        for path in ("/nonexistent/config.json", str(tmp_path), str(not_utf8)):
            proc = run_cli("table", "--config", path)
            assert proc.returncode == 2, path
            assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, path

    def test_output_path_that_is_a_directory_exits_two(self, small_config, tmp_path, monkeypatch):
        # a directory or a missing parent once failed only after the whole table ran
        def run_experiment(config):
            raise AssertionError("the table ran before --out was opened")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        for out in (tmp_path, tmp_path / "missing" / "rows.csv"):
            proc = run_cli("table", "--config", str(small_config), "--out", str(out))
            assert proc.returncode == 2, out
            assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, out

    def test_failed_run_leaves_existing_output(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "rows.csv"
        old = "previous rows\n" * 1000
        out.write_text(old)

        def run_experiment(config):
            raise CapabilityError("no sampler")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_experiment", run_experiment)
            proc = run_cli("table", "--config", str(small_config), "--out", str(out))
        assert proc.returncode == 1
        assert out.read_text() == old
        # a run that succeeds replaces the longer old contents entirely
        assert run_cli("table", "--config", str(small_config), "--out", str(out)).returncode == 0
        written = out.read_text()
        assert written.startswith(CSV_HEADER) and "previous rows" not in written

    def test_estimate_beyond_sixty_four_events_exits_zero(self):
        # once a traceback from the binomial terms' 64-event cap
        proc = run_cli(
            "estimate", "--model", '{"type":"ar1","phi":0.5,"sigma_eps":0.866,"d":65}',
            "--estimator", "alpha1", "--gamma", "4", "--replicates", "2000",
        )
        assert proc.returncode == 0, proc.stderr
        assert math.isfinite(json.loads(proc.stdout)["estimate"])

    def test_runtime_error_exits_one(self):
        # archimedean models have no deterministic union oracle
        proc = run_cli(
            "oracle", "--model", '{"type":"archimedean","family":"clayton","theta":1.0,"d":3}',
            "--gamma", "0.9",
        )
        assert proc.returncode == 1

    def test_non_finite_gamma_exits_two(self):
        # a non-finite threshold once hung the truncated-normal sampler
        proc = run_cli(
            "estimate", "--model", NORMAL4, "--estimator", "beta1_alpha", "--gamma", "nan",
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_invalid_laplace_threshold_exits_two_without_traceback(self):
        proc = run_cli(
            "estimate", "--model", '{"type":"laplace","d":4}', "--estimator", "alpha1_is",
            "--gamma", "-1", timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_archimedean_threshold_outside_unit_interval_exits_two(self):
        proc = run_cli(
            "estimate", "--model", '{"type":"archimedean","family":"clayton","theta":2.0,"d":3}',
            "--estimator", "alpha1", "--gamma", "1.5", timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_non_finite_covariance_exits_two(self):
        # an infinite variance once printed an estimate of 0.525
        proc = run_cli(
            "estimate", "--model", '{"type":"normal","sigma":[[Infinity]]}', "--estimator", "cmc",
            "--gamma", "1.5", timeout=120,
        )
        assert proc.returncode == 2
        assert "finite" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_model_field_exits_two_without_traceback(self):
        proc = run_cli_process("oracle", "--model", '{"type":"laplace","d":null}', "--gamma", "6")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_oracle_non_finite_gamma_exits_two(self):
        proc = run_cli("oracle", "--model", NORMAL4, "--gamma", "nan", timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_ratio_non_finite_gamma_exits_two(self):
        proc = run_cli(
            "ratio", "--model", '{"type":"normal","d":2,"rho":0.75}', "--gammas", "1,nan",
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_ratio_deep_tail_prints_finite_ratios(self):
        proc = run_cli(
            "ratio", "--model", '{"type":"normal","d":2,"rho":0.5}', "--gammas", "1,2,30",
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert all(math.isfinite(r["ratio_strict"]) and math.isfinite(r["ratio_relaxed"]) for r in rows)

    def test_ratio_archimedean_deep_tail_is_positive(self):
        # the pair layer once cancelled to a negative probability: a strict ratio of -3.33
        proc = run_cli(
            "ratio", "--model", '{"type":"archimedean","family":"frank","theta":3,"d":3}',
            "--gammas", "0.99,0.9999,0.999999,0.99999999", timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 4
        assert all(r["ratio_strict"] > 0.0 and r["ratio_relaxed"] > 0.0 for r in rows)

    @pytest.mark.parametrize(
        "family, theta, estimator, u, union",
        [
            # numpy's logseries once raised (exit 1): its p = 1 - e^-theta rounds to 1 from theta = 37
            ("frank", 40, "cmc", 0.3, 0.7274651536),
            # the Gamma(1/theta) frailty once underflowed to 0 and cmc read 0.299
            ("clayton", 2000, "cmc", 0.3, 0.7001647466),
            # the pair layer once read 0.4 (u^-theta overflowed) and alpha2 printed 1.197
            ("clayton", 2000, "alpha2", 0.3, 0.7001647466),
            # expm1(theta) once overflowed to a nan pair layer above u = 1/2, and psi
            # once rounded to 0 below it, an inf layer
            ("frank", 800, "alpha2", 0.7, 0.3013732654),
            ("frank", 100, "alpha2", 0.49, 0.5209861229),
        ],
    )
    def test_archimedean_large_theta_estimates(self, family, theta, estimator, u, union):
        # union: 1 - psi_inv(3 psi(u)), the d = 3 union, at 900 digits (mpmath)
        model = json.dumps({"type": "archimedean", "family": family, "theta": theta, "d": 3})
        proc = run_cli("estimate", "--model", model, "--estimator", estimator, "--gamma", str(u),
                       "--replicates", "20000", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert 0.0 <= out["estimate"] <= 1.0
        assert abs(out["estimate"] - union) <= 5 * out["stderr"], out

    @pytest.mark.parametrize(
        "model, gammas",
        [('{"type":"normal","d":2,"rho":0.5}', "1,2,40"), ('{"type":"laplace","d":3}', "1000")],
        ids=["normal", "laplace"],
    )
    def test_ratio_underflowed_marginals_exit_two(self, model, gammas):
        # every P(A_i) underflows to 0: once a ZeroDivisionError traceback
        proc = run_cli("ratio", "--model", model, "--gammas", gammas, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_oracle_beyond_qmc_dimension_exits_two(self):
        # not equicorrelated: np.eye(9) is, with rho = 0, and takes the one-factor route
        lags = np.abs(np.subtract.outer(np.arange(9), np.arange(9)))
        model = json.dumps({"type": "normal", "sigma": (0.5**lags).tolist()})
        proc = run_cli("oracle", "--model", model, "--gamma", "3", timeout=120)
        assert proc.returncode == 2
        assert "QMC oracle supports d <= 8" in proc.stderr

    def test_ratio_single_event_exits_two(self):
        proc = run_cli(
            "ratio", "--model", '{"type":"normal","d":1,"rho":0}', "--gammas", "1,2",
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, value", [("--points", "-5"), ("--precision", "-3")])
    def test_oracle_bad_count_exits_two(self, flag, value):
        # --points -5 once integrated 16 points and exited 0
        proc = run_cli("oracle", "--model", NORMAL4, "--gamma", "2", flag, value, timeout=120)
        assert proc.returncode == 2
        assert flag in proc.stderr and "Traceback" not in proc.stderr

    def test_table_oracle_cap_beyond_qmc_points_exits_two(self, tmp_path):
        # once printed no oracle row and no rel_err, and exited 0
        path = tmp_path / "config.json"
        model = {"type": "ar1", "phi": 0.5, "sigma_eps": 0.866, "d": 3}
        path.write_text(json.dumps({"model": model, "gamma_grid": [2.0], "oracle": 1 << 40}))
        proc = run_cli("table", "--config", str(path), timeout=120)
        assert proc.returncode == 2
        assert "oracle" in proc.stderr and "Traceback" not in proc.stderr

    def test_table_bad_replicates_exits_two(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": json.loads(NORMAL4), "gamma_grid": [2.0], "replicates": "x"}))
        proc = run_cli("table", "--config", str(path), timeout=120)
        assert proc.returncode == 2
        assert "replicates" in proc.stderr and "Traceback" not in proc.stderr

    def test_oracle_invalid_thread_count_exits_two(self):
        lags = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        model = json.dumps({"type": "normal", "sigma": (0.5 ** lags).tolist()})
        proc = run_cli(
            "oracle", "--model", model, "--gamma", "2",
            env={"RARE_UNION_THREADS": "0"}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
