import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rarefuse.cli import (
    ConfigError,
    ExperimentConfig,
    convergence_study,
    main,
    run_experiment,
)


def small_config(tmp_path, **overrides):
    doc = {
        "benchmark": "linear-gaussian-2.5",
        "mode": "fuse",
        "m": 5000,
        "n_grid": [300, 600],
        "seed": 3,
        "repetitions": 2,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


# Each value fails validation of the config alone, before any work is done.
BAD_VALUES = [
    {"benchmark": "no-such-benchmark"},
    {"seed": -1},
    {"subset": {"N": 50}},
    {"subset": {"p0": 1.0}},
    {"subset": {"p0": 0.0}},
    {"subset": {"max_levels": 0}},
    {"subset": 5},
]
BAD_VALUE_IDS = [
    "unknown-benchmark",
    "negative-seed",
    "subset-N-50",
    "subset-p0-1",
    "subset-p0-0",
    "subset-max-levels-0",
    "subset-number",
]


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"benchmark": "B1", "typo_field": 1})

    def test_unknown_subset_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown subset keys"):
            ExperimentConfig.from_dict(
                {"benchmark": "B1", "subset": {"N": 500, "burn_in": 7}}
            )

    def test_benchmark_required(self):
        with pytest.raises(ConfigError, match="benchmark"):
            ExperimentConfig.from_dict({"mode": "fuse"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict({"benchmark": "B1", "mode": "plot"})

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig.from_dict({"benchmark": "B1", "n_grid": [600, 300]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            ExperimentConfig.from_dict({"benchmark": "B1", "n_grid": []})

    def test_repetitions_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"benchmark": "B1", "repetitions": 0})

    @pytest.mark.parametrize("overrides", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"benchmark": "B1", **overrides})

    def test_hash_ignores_output_dir(self):
        a = ExperimentConfig.from_dict({"benchmark": "B1", "output_dir": "x"})
        b = ExperimentConfig.from_dict({"benchmark": "B1", "output_dir": "y"})
        assert a.hash() == b.hash()

    def test_hash_tracks_parameters(self):
        a = ExperimentConfig.from_dict({"benchmark": "B1", "seed": 1})
        b = ExperimentConfig.from_dict({"benchmark": "B1", "seed": 2})
        assert a.hash() != b.hash()


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        config = small_config(tmp_path, mode="all", repetitions=1,
                              subset={"N": 500, "p0": 0.1, "max_levels": 12})
        run_experiment(config)
        out = Path(config.output_dir)
        for name in (
            "densities.json",
            "estimates.csv",
            "weights.csv",
            "convergence.csv",
            "subset.csv",
            "report.json",
        ):
            assert (out / name).exists(), name

    def test_rerun_byte_identical(self, tmp_path):
        c1 = small_config(tmp_path / "a", mode="all", repetitions=2,
                          subset={"N": 500, "p0": 0.1, "max_levels": 12})
        c2 = small_config(tmp_path / "b", mode="all", repetitions=2,
                          subset={"N": 500, "p0": 0.1, "max_levels": 12})
        run_experiment(c1)
        run_experiment(c2)
        for name in ("densities.json", "estimates.csv", "weights.csv",
                     "convergence.csv", "subset.csv"):
            a = (Path(c1.output_dir) / name).read_bytes()
            b = (Path(c2.output_dir) / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_weight_rows_sum_to_one(self, tmp_path):
        config = small_config(tmp_path)
        report = run_experiment(config)
        k = len(report.density_reports)
        for row in report.fused_rows:
            total = sum(row[f"alpha_{i + 1}"] for i in range(k))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_budget_accounting(self, tmp_path):
        config = small_config(tmp_path)
        report = run_experiment(config)
        n_runs = len(config.n_grid) * config.repetitions
        expected_fused = sum(config.n_grid) * config.repetitions
        assert report.budget["fused_samples"] == expected_fused
        assert report.budget["reference_samples"] == expected_fused
        assert report.budget["mc_samples"] == expected_fused
        assert report.budget["total_budget_samples"] == 3 * expected_fused
        # every sample lands inside the Gaussian domain, so budget == evals
        assert report.budget["actual_hf_evaluations"] == 3 * expected_fused

    def test_insufficient_budget_flagged(self, tmp_path):
        config = small_config(tmp_path, n_grid=[4, 300])
        report = run_experiment(config)
        flagged = [r for r in report.convergence_rows if r["n"] == 4]
        assert flagged and all(r["flag"] == "insufficient" for r in flagged)
        assert not any(r["n_total"] == 4 for r in report.estimator_rows)

    def test_fallback_density_gets_smallest_weight(self, tmp_path):
        # the constant surrogate falls back to the nominal density, whose
        # estimator carries by far the largest variance at rare-event scale
        config = small_config(
            tmp_path, mode="fuse", m=20000, n_grid=[300, 600, 900, 1200],
            repetitions=10,
        )
        report = run_experiment(config)
        assert report.density_reports[2].fell_back_to_nominal
        largest_n = max(config.n_grid)
        rows = [r for r in report.fused_rows if r["n_total"] == largest_n]
        assert len(rows) == config.repetitions
        smallest = sum(
            1
            for r in rows
            if r["alpha_3"] <= r["alpha_1"] and r["alpha_3"] <= r["alpha_2"]
        )
        assert smallest >= 0.8 * len(rows)

    def test_estimator_rows_traceable(self, tmp_path):
        config = small_config(tmp_path)
        report = run_experiment(config)
        for row in report.estimator_rows:
            assert row["config_hash"] == report.config_hash
            assert row["seed"] == config.seed
            assert 0 <= row["repetition"] < config.repetitions

    def test_subset_csv_columns(self, tmp_path):
        config = small_config(
            tmp_path, mode="subset",
            subset={"N": 500, "p0": 0.1, "max_levels": 12},
        )
        run_experiment(config)
        with open(Path(config.output_dir) / "subset.csv") as fh:
            header = next(csv.reader(fh))
        for col in ("samples", "samples_each_level", "levels", "estimate", "approx_cv"):
            assert col in header

    def test_convergence_study_rows(self, tmp_path):
        config = small_config(tmp_path, mode="fuse")
        rows = convergence_study(config)
        ids = {r["estimator_id"] for r in rows}
        assert {"q1", "q2", "q3", "fused", "nominal", "q_ref"} <= ids
        ns = {r["n"] for r in rows}
        assert ns == set(config.n_grid)

    def test_csv_floats_17_significant_digits(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        with open(Path(config.output_dir) / "estimates.csv") as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        value = row["estimate"]
        assert float(value) == float(format(float(value), ".17g"))


class TestCommandLine:
    def test_benchmarks_list(self, capsys):
        assert main(["benchmarks", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "linear-gaussian" in out and "arrhenius-2d" in out

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--benchmark", "linear-gaussian", "--resolution", "101"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2.3263e-4, rel=1e-4)

    def test_oracle_unknown_benchmark(self, capsys):
        assert main(["oracle", "--benchmark", "missing"]) == 2

    def test_run_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"benchmark": "B1", "surprise": True}))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_run_bad_values_exit_2_before_work(self, tmp_path, overrides, monkeypatch):
        import rarefuse.cli as cli_mod

        def no_work(*args):
            raise AssertionError("a phase ran for an invalid config")

        for phase in ("_build_phase", "_estimate_phase", "_subset_phase"):
            monkeypatch.setattr(cli_mod, phase, no_work)
        doc = {
            "benchmark": "arrhenius-2d",
            "mode": "all",
            "output_dir": str(tmp_path / "out"),
            **overrides,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_run_missing_file_exit_2(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_run_model_failure_exit_3(self, tmp_path, monkeypatch):
        import rarefuse.cli as cli_mod

        def broken(config, benchmark, report):
            raise RuntimeError("synthetic model failure")

        monkeypatch.setattr(cli_mod, "_estimate_phase", broken)
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "benchmark": "linear-gaussian-2.5",
                    "mode": "fuse",
                    "m": 1000,
                    "n_grid": [100],
                    "seed": 0,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["run", "--config", str(path)]) == 3

    def test_run_end_to_end_subprocess(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "benchmark": "linear-gaussian-2.5",
                    "mode": "fuse",
                    "m": 2000,
                    "n_grid": [120],
                    "seed": 1,
                    "repetitions": 1,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "rarefuse.cli", "run", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "estimates.csv").exists()
