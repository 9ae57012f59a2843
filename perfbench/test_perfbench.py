"""Tests of the benchmark's own logic: ``python -m pytest perfbench -q``."""

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from rarefuse.cli import ExperimentConfig, run_experiment  # noqa: E402
from rarefuse.fusion import VARIANCE_FLOOR  # noqa: E402
from run import (  # noqa: E402
    WORKLOAD_CONFIGS,
    bracketed_ratios,
    layer_metrics,
    nearest_rank,
    tail_percentile,
)
from tracing import PointCounter, Tracer, instrumented, self_times, union_length  # noqa: E402

SMALL = {
    "benchmark": "arrhenius-2d",
    "mode": "all",
    "m": 20000,
    "n_grid": [3, 30, 120],
    "repetitions": 3,
    "seed": 5,
    "subset": {"N": 500, "p0": 0.1, "max_levels": 12},
}
CSVS = ("estimates.csv", "weights.csv", "convergence.csv", "subset.csv")


def _run(tmp_path, name, tracer=None):
    config = ExperimentConfig.from_dict(dict(SMALL, output_dir=str(tmp_path / name)))
    counter = PointCounter()
    with instrumented(tracer, counter):
        run = run_experiment if tracer is None else tracer.wrap("cli.run_experiment", run_experiment)
        run(config)
    return config, counter.points


def _check(tmp_path, name, config, hf_points=None):
    return check_outputs(tmp_path / name, config, 3, VARIANCE_FLOOR, hf_points)


def _edit_csv(path, row_index, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_index][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        [0, -1, "parent", 0.0, 10.0, 0, None],
        [1, 0, "a", 1.0, 4.0, 0, None],
        [2, 0, "b", 3.0, 6.0, 0, None],  # overlaps a
        [3, 0, "c", 8.0, 9.0, 0, None],
        [4, 3, "grandchild", 8.2, 8.5, 0, None],  # not a direct child of parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0, 0.7, 0.3])


def test_union_length_clips_to_the_parent_interval():
    assert union_length([(-1.0, 2.0), (1.5, 3.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert union_length([], 0.0, 1.0) == 0.0


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    for n in range(20, 400):
        values = list(range(n))
        pct = tail_percentile(n)
        assert n - 1 - nearest_rank(values, pct) >= 10
        assert n - 1 - nearest_rank(values, pct + 1) < 10


def test_bracketed_ratios_divide_by_the_mean_of_the_neighbouring_references():
    assert bracketed_ratios([3.0, 8.0], [1.0, 2.0, 6.0]) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        bracketed_ratios([3.0, 8.0], [1.0, 2.0])


def test_check_passes_a_real_run_and_counts_hf_points(tmp_path):
    config, hf_points = _run(tmp_path, "plain")
    assert _check(tmp_path, "plain", config, hf_points) == []
    assert _check(tmp_path, "plain", config, hf_points + 1) != []


def test_check_flags_nan_estimate(tmp_path):
    config, _ = _run(tmp_path, "plain")
    _edit_csv(tmp_path / "plain" / "estimates.csv", 4, "estimate", "nan")
    problems = _check(tmp_path, "plain", config)
    assert any("estimates.csv row 4" in p for p in problems)


def test_check_flags_weights_summing_to_0_9(tmp_path):
    config, _ = _run(tmp_path, "plain")
    path = tmp_path / "plain" / "weights.csv"
    with open(path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    alpha_1 = float(row["alpha_1"]) - 0.1
    _edit_csv(path, 0, "alpha_1", repr(alpha_1))
    problems = _check(tmp_path, "plain", config)
    assert any("weights.csv row 0: weights sum to 0.9" in p for p in problems)


def test_check_flags_missing_rows_and_unconverged_subset(tmp_path):
    config, _ = _run(tmp_path, "plain")
    _edit_csv(tmp_path / "plain" / "subset.csv", 1, "converged", "false")
    problems = _check(tmp_path, "plain", config)
    assert any("did not converge" in p for p in problems)
    doc = dict(SMALL, repetitions=4, output_dir=str(tmp_path / "plain"))
    assert any("rows, expected" in p for p in _check(tmp_path, "plain", ExperimentConfig.from_dict(doc)))


def test_traced_and_plain_runs_write_identical_csvs(tmp_path):
    _, plain_points = _run(tmp_path, "plain")
    tracer = Tracer()
    _, traced_points = _run(tmp_path, "traced", tracer)
    assert plain_points == traced_points
    for name in CSVS:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    names = {span[2] for span in tracer.spans}
    assert {"cli.run_experiment", "models.hf", "densities.pdf", "subset_sim.grow_chains"} <= names
    # every patched attribute is restored
    import rarefuse.cli as cli
    from rarefuse.models import get_benchmark

    assert cli.get_benchmark is get_benchmark


def test_layer_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    _run(tmp_path, "traced", tracer)
    metrics, _ = layer_metrics(tracer, tmp_path / "traced", 1e-3)
    measured_at_setup = {"setup.import_s", "setup.import_scipy_special_s",
                         "setup.get_benchmark_s", "trace.overhead_s"}
    assert set(metrics) | measured_at_setup == {d["name"] for d in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_CONFIGS)
    assert metrics["models.hf.points"] == sum(s[5] for s in tracer.spans if s[2] == "models.hf")
