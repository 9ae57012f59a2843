import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from rarefuse.cli import (
    ConfigError,
    ExperimentConfig,
    SubsetSettings,
    _split_budget,
    _write_csv,
    main,
    run_experiment,
)
from rarefuse.estimators import (
    EstimatorResult,
    cv,
    importance_sampling_estimate,
    monte_carlo_estimate,
    rmse,
)
from rarefuse.models import get_benchmark

README = Path(__file__).resolve().parents[1] / "README.md"
OUTPUT_FILES = [
    "densities.json",
    "estimates.csv",
    "weights.csv",
    "convergence.csv",
    "subset.csv",
    "report.json",
]


def listed_files(stdout):
    """File names that ``rarefuse run`` lists under its output directory."""
    return [line.strip() for line in stdout.splitlines() if line.startswith("  ")]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def raise_on_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def write_subset_only_config(tmp_path):
    """A subset-only config whose run stops unconverged at two levels."""
    path = tmp_path / "cfg.json"
    doc = {
        "benchmark": "arrhenius-2d",
        "mode": "subset",
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "subset": {"N": 500, "max_levels": 2},
    }
    path.write_text(json.dumps(doc))
    return path


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
    {"repetitions": 1.5},
    {"m": 2000.5},
    {"n_grid": [300.5]},
    {"n_grid": [300, 300]},
    {"seed": 1.5},
    {"subset": {"N": 1000.5}},
    {"subset": {"max_levels": 2.5}},
    {"repetitions": True},
    {"mode": "convergence"},
    {"output_dir": 5},
    {"threshold_relax": float("nan")},
    {"threshold_relax": True},
    {"threshold_relax": 10**400},
    {"benchmark": "B1"},
    {"m": 10**400},
    {"m": 2**63},
    {"n_grid": [2**63]},
    {"subset": {"N": 2**63}},
    {"repetitions": 2**32 + 1},
    {"split": "by-cost"},
    {"split": "equal"},
    {"n_grid": 300},
    {"n_grid": None},
]
BAD_VALUE_IDS = [
    "unknown-benchmark",
    "negative-seed",
    "subset-N-50",
    "subset-p0-1",
    "subset-p0-0",
    "subset-max-levels-0",
    "subset-number",
    "repetitions-1.5",
    "m-2000.5",
    "n-grid-300.5",
    "n-grid-repeated",
    "seed-1.5",
    "subset-N-1000.5",
    "subset-max-levels-2.5",
    "repetitions-true",
    "mode-convergence",
    "output-dir-number",
    "threshold-relax-nan",
    "threshold-relax-true",
    "threshold-relax-huge-int",
    "benchmark-alias-B1",
    "m-huge-int",
    "m-2-63",
    "n-grid-2-63",
    "subset-N-2-63",
    "repetitions-2-32-plus-1",
    "split-by-cost",
    "split-equal",
    "n-grid-number",
    "n-grid-null",
]


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "typo_field": 1})

    def test_unknown_subset_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown subset keys"):
            ExperimentConfig.from_dict(
                {"benchmark": "linear-gaussian", "subset": {"N": 500, "burn_in": 7}}
            )

    def test_config_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict([1])

    def test_benchmark_required(self):
        with pytest.raises(ConfigError, match="benchmark"):
            ExperimentConfig.from_dict({"mode": "fuse"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "mode": "plot"})

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "n_grid": [600, 300]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "n_grid": []})

    def test_repetitions_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "repetitions": 0})

    def test_counts_at_their_bounds_accepted(self):
        # validation only: nothing is drawn; seed has no upper bound
        big = 2**63 - 1
        c = ExperimentConfig.from_dict({
            "benchmark": "linear-gaussian", "m": big, "n_grid": [big],
            "repetitions": 2**32, "seed": 2**170, "subset": {"N": big},
        })
        assert (c.m, c.n_grid, c.repetitions, c.subset.N) == (big, (big,), 2**32, big)

    @pytest.mark.parametrize("overrides", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"benchmark": "linear-gaussian", **overrides})

    def test_hash_ignores_output_dir(self):
        a = ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "output_dir": "x"})
        b = ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "output_dir": "y"})
        assert a.hash() == b.hash()

    def test_hash_same_for_equal_threshold_relax(self):
        a, b = (ExperimentConfig("linear-gaussian", threshold_relax=r) for r in (1, 1.0))
        assert a.hash() == b.hash()
        # absent, null, 0 and 0.0 are one experiment, stored as the float 0.0
        zeros = [{}, *({"threshold_relax": r} for r in (None, 0, 0.0))]
        configs = [ExperimentConfig.from_dict({"benchmark": "linear-gaussian", **d}) for d in zeros]
        assert {c.hash() for c in configs} == {configs[0].hash()}
        assert all(type(c.threshold_relax) is float for c in configs)

    def test_hash_tracks_parameters(self):
        a = ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "seed": 1})
        b = ExperimentConfig.from_dict({"benchmark": "linear-gaussian", "seed": 2})
        assert a.hash() != b.hash()


class TestOneConstructionPath:
    """A config built in Python is normalised, checked and hashed as the
    same config parsed from JSON."""

    def test_python_built_config_equals_the_parsed_one(self):
        doc = {"benchmark": "arrhenius-2d", "n_grid": [300, 600], "subset": {"N": 500}}
        built = ExperimentConfig("arrhenius-2d", n_grid=[300, 600], subset={"N": 500})
        parsed = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
        assert isinstance(built.subset, SubsetSettings)
        assert built.n_grid == (300, 600)
        assert built == parsed
        assert built.hash() == parsed.hash()

    @pytest.mark.parametrize(
        "subset, match",
        [({"N": 5}, "subset.N"), (5, "JSON object"), ([], "JSON object"),
         ({"burn_in": 3}, "unknown subset keys"), ({"p0": "0.1"}, "subset.p0"),
         ({"p0": None}, "subset.p0")],
        ids=["N-5", "number", "list", "unknown-key", "p0-string", "p0-null"],
    )
    def test_bad_subset_raises_at_construction(self, subset, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig("arrhenius-2d", subset=subset)

    def test_string_p0_raises_in_subset_settings(self):
        with pytest.raises(ConfigError, match="subset.p0 must be a number"):
            SubsetSettings(p0="0.1")

    def test_null_subset_means_the_defaults(self):
        c = ExperimentConfig.from_dict(json.loads('{"benchmark": "arrhenius-2d", "subset": null}'))
        assert c.subset == SubsetSettings()
        assert c.hash() == ExperimentConfig("arrhenius-2d").hash()

    @pytest.mark.parametrize(
        "overrides",
        [{"mode": "build_densities"}, {"mode": "fuse"}, {"mode": "subset"}, {"mode": "all"},
         {"mode": "build_densities", "threshold_relax": 1}],
        ids=["build_densities", "fuse", "subset", "all", "integer-threshold-relax"],
    )
    def test_report_config_hashes_to_the_run_hash(self, tmp_path, overrides):
        doc = {
            "benchmark": "linear-gaussian-2.5", "m": 2000, "n_grid": [300], "seed": 3,
            "output_dir": str(tmp_path / "out"), "subset": {"N": 200, "max_levels": 2},
            **overrides,
        }
        report = run_experiment(ExperimentConfig.from_dict(doc))
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert written["config_hash"] == report.config_hash
        assert ExperimentConfig.from_dict(written["config"]).hash() == report.config_hash


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

    def test_budget_counts_hf_points_seen(self, tmp_path, monkeypatch):
        import rarefuse.cli as cli_mod

        bench = get_benchmark("arrhenius-2d")
        seen = []

        def fn(pts):
            seen.append(pts.shape[0])
            return bench.high_fidelity.fn(pts)

        counted = dataclasses.replace(
            bench, high_fidelity=dataclasses.replace(bench.high_fidelity, fn=fn)
        )
        monkeypatch.setattr(cli_mod, "get_benchmark", lambda name: counted)
        estimate_phase = cli_mod._estimate_phase

        def count_estimates(config, benchmark, report):
            seen.clear()  # the reference density build also calls the model
            estimate_phase(config, benchmark, report)

        monkeypatch.setattr(cli_mod, "_estimate_phase", count_estimates)
        report = run_experiment(small_config(tmp_path, benchmark="arrhenius-2d"))
        # IS draws outside the box never reach the model
        assert report.budget["actual_hf_evaluations"] == sum(seen)
        assert sum(seen) < report.budget["total_budget_samples"]

    def test_insufficient_budget_flagged(self, tmp_path):
        config = small_config(tmp_path, n_grid=[4, 300])
        report = run_experiment(config)
        flagged = [r for r in report.convergence_rows if r["n"] == 4]
        assert flagged and all(r["flag"] == "insufficient" for r in flagged)
        assert not any(r["n_total"] == 4 for r in report.estimator_rows)

    def test_every_budget_insufficient_writes_flagged_rows(self, tmp_path):
        # 3 points over 3 densities leave none with 2 draws: no estimator runs
        config = small_config(tmp_path, benchmark="arrhenius-2d", m=2000, n_grid=[3])
        report = run_experiment(config)
        assert report.files == ["densities.json", "convergence.csv", "report.json"]
        rows = read_csv(Path(config.output_dir) / "convergence.csv")
        assert [(r["n"], r["estimator_id"], r["flag"]) for r in rows] == [
            ("3", e, "insufficient") for e in ("q1", "q2", "q3", "fused", "nominal", "q_ref")
        ]
        assert report.budget["actual_hf_evaluations"] == report.budget["fused_samples"] == 0

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
        for row in read_csv(Path(config.output_dir) / "subset.csv"):
            assert int(row["samples"]) == 500 * int(row["levels"])
            assert int(row["samples_each_level"]) == 500

    def test_subset_levels_recorded_per_repetition(self, tmp_path):
        config = small_config(
            tmp_path, benchmark="arrhenius-2d", mode="subset", repetitions=6,
            subset={"N": 500, "p0": 0.1, "max_levels": 12},
        )
        run_experiment(config)
        out = Path(config.output_dir)
        report = json.loads((out / "report.json").read_text())
        rows = read_csv(out / "subset.csv")
        assert len(report["subset_levels"]) == len(rows) == config.repetitions
        assert "subset" not in report and "fused" not in report
        converged = 0
        for row, records in zip(rows, report["subset_levels"]):
            assert len(records) == int(row["levels"])
            if row["converged"] != "true":
                continue
            converged += 1
            last = records[-1]
            assert float(row["estimate"]) == 0.1 ** (len(records) - 1) * last["p_level"]
            assert last["failures"] / 500 == last["p_level"]
        assert converged > 0

    def test_convergence_study_rows(self, tmp_path):
        config = small_config(tmp_path, mode="fuse")
        rows = run_experiment(config).convergence_rows
        ids = {r["estimator_id"] for r in rows}
        assert {"q1", "q2", "q3", "fused", "nominal", "q_ref"} <= ids
        ns = {r["n"] for r in rows}
        assert ns == set(config.n_grid)

    def test_cv_reps_counts_repetitions_with_a_cv(self, tmp_path):
        # the cv of a repetition exists iff its estimate is positive
        config = small_config(
            tmp_path, benchmark="arrhenius-2d", n_grid=[4, 30, 300], seed=7,
            repetitions=40,
        )
        run_experiment(config)
        out = Path(config.output_dir)
        hits = Counter()
        for row in read_csv(out / "estimates.csv"):
            hits[row["n_total"], row["density_id"]] += float(row["estimate"]) > 0
        for row in read_csv(out / "weights.csv"):
            hits[row["n_total"], "fused"] += float(row["estimate"]) > 0
        partial = 0
        for row in read_csv(out / "convergence.csv"):
            if row["flag"] == "insufficient":
                assert row["cv_reps"] == ""
                continue
            reps = int(row["cv_reps"])
            assert reps == hits[row["n"], row["estimator_id"]], row
            partial += 0 < reps < config.repetitions
        assert partial > 0

    def test_estimate_rows_carry_rmse_and_cv(self, tmp_path):
        # a zero estimate says nothing about its error: rmse and cv write
        # nan; otherwise they are those of the estimator result of the row
        config = small_config(tmp_path, n_grid=[30])
        run_experiment(config)
        rows = read_csv(Path(config.output_dir) / "estimates.csv")
        assert [(row["density_id"], row["kind"]) for row in rows] == config.repetitions * [
            ("q1", "IS"), ("q2", "IS"), ("q3", "IS"), ("nominal", "MC"), ("q_ref", "IS")
        ]
        kinds = Counter()
        for row in rows:
            r = EstimatorResult(
                float(row["estimate"]), int(row["n"]), float(row["sample_variance"]),
                int(row["hits"]), row["density_id"], row["kind"],
            )
            if r.estimate > 0.0:
                assert float(row["rmse"]) == rmse(r)
                assert float(row["cv"]) == cv(r)
                kinds["positive"] += 1
            else:
                assert (row["rmse"], row["cv"]) == ("nan", "nan")
                kinds["zero"] += 1
        assert kinds["positive"] > 0 and kinds["zero"] > 0

    def test_no_information_fused_rmse_is_nan(self, tmp_path):
        # at n_total 30 every q misses in both repetitions, so each fused
        # result has no information and the budget's fused rmse mean is nan;
        # at 3000 it is the mean of the fused standard deviations
        config = small_config(tmp_path, benchmark="arrhenius-2d", n_grid=[30, 3000])
        run_experiment(config)
        out = Path(config.output_dir)
        sds = {}
        for row in read_csv(out / "weights.csv"):
            sds.setdefault(row["n_total"], []).append(
                None if row["no_information"] == "true" else math.sqrt(float(row["variance"]))
            )
        assert sds["30"] == [None, None]
        assert None not in sds["3000"]
        fused = {
            row["n"]: row["rmse"]
            for row in read_csv(out / "convergence.csv")
            if row["estimator_id"] == "fused"
        }
        assert fused["30"] == "nan"
        assert float(fused["3000"]) == float(np.mean(sds["3000"]))

    def test_fallback_density_is_the_registered_nominal(self, tmp_path):
        # each benchmark is built once per process, so a fallback density
        # from a run is the nominal of any later get_benchmark call
        config = small_config(tmp_path, benchmark="arrhenius-2d", n_grid=[300])
        report = run_experiment(config)
        (fallback,) = {r.density for r in report.density_reports if r.fell_back_to_nominal}
        bench = get_benchmark("arrhenius-2d")
        assert bench is get_benchmark("arrhenius-2d")
        assert isinstance(bench.surrogates, tuple)
        res = importance_sampling_estimate(
            bench.high_fidelity, bench.limit_state, bench.nominal, fallback, 300,
            np.random.default_rng(1),
        )
        assert res.model_evals == 300

    def test_rows_follow_their_spawn_keys(self, tmp_path):
        # budget 4 is insufficient, so the usable budgets keep indices 1 and
        # 2 in their keys (2, n_idx, rep, slot); each estimates.csv row is
        # the direct call on its key, in the order the units were queued
        config = small_config(
            tmp_path, benchmark="arrhenius-2d", m=20000, n_grid=[4, 30, 300], repetitions=2
        )
        report = run_experiment(config)
        bench = get_benchmark(config.benchmark)
        densities = [r.density for r in report.density_reports]
        # a fallback density is the run's nominal, which IS recognises by identity
        (nominal,) = {r.density for r in report.density_reports if r.fell_back_to_nominal}
        fixed = (bench.high_fidelity, bench.limit_state, nominal)
        expected = []
        for n_idx, n_total in [(1, 30), (2, 300)]:
            ns = _split_budget(n_total, len(densities))
            slots = [
                *(
                    (s, partial(
                        importance_sampling_estimate, *fixed, q, n, density_id=f"q{s + 1}"
                    ))
                    for s, (q, n) in enumerate(zip(densities, ns))
                ),
                (900, partial(monte_carlo_estimate, *fixed, n_total, density_id="nominal")),
                (901, partial(
                    importance_sampling_estimate, *fixed, report.reference_report.density,
                    n_total, density_id="q_ref",
                )),
            ]
            for rep in range(config.repetitions):
                for slot, call in slots:
                    seed = np.random.SeedSequence(config.seed, spawn_key=(2, n_idx, rep, slot))
                    res = call(np.random.default_rng(seed))
                    expected.append(
                        (n_total, rep, res.density_id, res.estimate, res.sample_variance)
                    )
        rows = read_csv(Path(config.output_dir) / "estimates.csv")
        assert [
            (
                int(row["n_total"]), int(row["repetition"]), row["density_id"],
                float(row["estimate"]), float(row["sample_variance"]),
            )
            for row in rows
        ] == expected
        # q2 and q_ref hit at every key, so a row on another key shows
        assert len({e[3] for e in expected if e[3] > 0}) >= 8

    def test_csv_headers(self, tmp_path):
        # the rows define each header; the first budget is insufficient,
        # so its convergence rows come first and must carry every column
        config = small_config(
            tmp_path, benchmark="arrhenius-2d", mode="all", n_grid=[4, 300],
            subset={"N": 500, "max_levels": 2},
        )
        run_experiment(config)
        out = Path(config.output_dir)
        headers = {
            "estimates.csv": "config_hash,seed,n_total,repetition,density_id,kind,n,"
            "estimate,sample_variance,hits,rmse,cv",
            "weights.csv": "config_hash,seed,n_total,repetition,estimate,variance,"
            "no_information,alpha_1,alpha_2,alpha_3",
            "convergence.csv": "n,estimator_id,estimate,rmse,cv,cv_reps,flag",
            "subset.csv": "config_hash,seed,repetition,samples,samples_each_level,"
            "levels,estimate,approx_cv,converged,model_evals",
        }
        for name, header in headers.items():
            assert (out / name).read_text().splitlines()[0] == header, name
        first = (out / "convergence.csv").read_text().splitlines()[1]
        assert first == "4,q1,,,,,insufficient"

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
        path.write_text(json.dumps({"benchmark": "linear-gaussian", "surprise": True}))
        assert main(["run", "--config", str(path)]) == 2

    def test_run_integer_past_the_digit_limit_exit_2(self, tmp_path):
        # json refuses an integer of more digits than int() converts
        doc = json.dumps({"benchmark": "linear-gaussian", "output_dir": str(tmp_path / "out")})
        path = tmp_path / "cfg.json"
        path.write_text(doc[:-1] + ', "threshold_relax": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

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

    def test_output_dir_below_a_file_exit_2_before_work(self, tmp_path, capsys, monkeypatch):
        import rarefuse.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "build_biasing_density", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        doc = {"benchmark": "arrhenius-2d", "mode": "all", "output_dir": str(blocker / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert calls == []

    def test_run_lists_only_files_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "benchmark": "linear-gaussian-2.5",
            "m": 2000,
            "n_grid": [120],
            "seed": 1,
            "output_dir": str(out),
            "subset": {"N": 200},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "mode": "all"}))
        assert main(["run", "--config", str(path)]) == 0
        assert listed_files(capsys.readouterr().out) == OUTPUT_FILES
        path.write_text(json.dumps({**doc, "mode": "build_densities"}))
        assert main(["run", "--config", str(path)]) == 0
        assert listed_files(capsys.readouterr().out) == ["densities.json", "report.json"]
        # files of the earlier run stay on disk; they are just not listed
        assert (out / "estimates.csv").exists()

    def test_subset_mode_lists_only_its_files(self, tmp_path, capsys):
        path = write_subset_only_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        assert listed_files(capsys.readouterr().out) == ["subset.csv", "report.json"]
        assert not (tmp_path / "out" / "densities.json").exists()

    def test_report_json_is_strict(self, tmp_path):
        # the unconverged run's approx_cv is inf; report.json must still
        # parse without the NaN/Infinity extension
        path = write_subset_only_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert read_csv(out / "subset.csv")[0]["approx_cv"] == "inf"
        report = json.loads((out / "report.json").read_text(), parse_constant=raise_on_constant)
        assert len(report["subset_levels"]) == 1

    def test_readme_example_config_runs(self, tmp_path, capsys):
        block = re.search(r"```json\n(.*?)```", README.read_text(), re.S)
        doc = json.loads(block.group(1))
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 0
        assert listed_files(capsys.readouterr().out) == OUTPUT_FILES

    def test_readme_library_example_runs(self, capsys):
        block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
        exec(compile(block.group(1), str(README), "exec"), {})
        assert capsys.readouterr().out

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


class TestCsvFormat:
    @staticmethod
    def former_fmt(value):
        """The per-value formatter that fed csv.writer before rows were streamed."""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        if value is None:
            return ""
        return str(value)

    def test_streamed_rows_match_csv_writer(self, tmp_path):
        row = {
            "nan": math.nan,
            "inf": math.inf,
            "minus_inf": -math.inf,
            "minus_zero": -0.0,
            "subnormal": 5e-324,
            "tenth": 0.1,
            "past_2_53": 2**53 + 1,
            "yes": True,
            "no": False,
            "none": None,
            "hash": "4869a9c44648",
        }
        rows = [row, {**row, "tenth": 2.5e-310, "yes": False}]
        _write_csv(tmp_path / "rows.csv", (r for r in rows))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(rows[0])
        for r in rows:
            writer.writerow([self.former_fmt(value) for value in r.values()])
        assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode()
