"""Calibration of the fused estimate and of each estimator against the oracle.

One ``mode: "fuse"`` run per benchmark and build seed, with m = 20000 and
300 repetitions at budgets of 300 and 3000.  At each budget the fused
estimate's ±1.96·sqrt(variance) interval must contain the oracle in at
least 90% of the repetitions, where a repetition with no information is a
miss, and the mean estimate must lie within 2 standard errors of the
oracle.  The same runs bound the bias of each estimator: 3 standard
errors for those that draw from the nominal density (MC, and IS on a
build that fell back to it), which are unbiased by construction, and 2
for IS on a fitted density.  Each known miss is a strict xfail that names
the ROADMAP item whose fix should meet the bounds, so a fix that lands
unnoticed turns the test red and its marker comes off; a crash is not a
miss.
"""

import functools
import math

import numpy as np
import pytest

from rarefuse.cli import ExperimentConfig, run_experiment
from rarefuse.models import get_benchmark, oracle_failure_probability

SEEDS = (3, 7, 11)
BUDGETS = (300, 3000)
REPETITIONS = 300
MIN_COVERAGE = 0.90
MAX_BIAS_SE = 2.0
MAX_NOMINAL_BIAS_SE = 3.0
ESTIMATORS = ("q1", "q2", "q3", "nominal", "q_ref")

HEAVY_TAILS = "ROADMAP item 2: the fitted densities' weights are heavy-tailed"
# the ROADMAP item whose fix should meet the bounds on each benchmark
MISSES = {
    "arrhenius-2d": "ROADMAP item 10: the plug-in fusion weights bias the fused estimate",
    "linear-gaussian": HEAVY_TAILS,
}
# Only linear-gaussian at build seed 11 meets both bounds, at both budgets.
# Seed 3 there misses at 3000 by 2 repetitions (268 of 300 covered), so a
# NumPy or BLAS build that moves a few draws may flip it.
CALIBRATED = {("linear-gaussian", 11)}
# (benchmark, seed, budget, estimator) of IS on a fitted density beyond 2 SE;
# arrhenius-2d q2 at seed 3 and 3000 reads -16 SE
BIASED = {
    ("arrhenius-2d", 3, 3000, "q2"),
    ("arrhenius-2d", 7, 3000, "q2"),
    ("linear-gaussian", 7, 300, "q1"),
    ("linear-gaussian", 7, 3000, "q1"),
    ("linear-gaussian", 3, 300, "q_ref"),
    ("linear-gaussian", 3, 3000, "q_ref"),
    ("linear-gaussian", 7, 300, "q_ref"),
    ("linear-gaussian", 7, 3000, "q_ref"),
}


def known_miss(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def cases():
    for name, item in MISSES.items():
        for seed in SEEDS:
            marks = [known_miss(item)] if (name, seed) not in CALIBRATED else []
            for n_total in BUDGETS:
                yield pytest.param(name, seed, n_total, marks=marks, id=f"{name}-{seed}-{n_total}")


def estimator_cases():
    for name in MISSES:
        for seed in SEEDS:
            for n_total in BUDGETS:
                for e in ESTIMATORS:
                    marks = [known_miss(HEAVY_TAILS)] if (name, seed, n_total, e) in BIASED else []
                    yield pytest.param(
                        name, seed, n_total, e, marks=marks, id=f"{name}-{seed}-{n_total}-{e}"
                    )


@functools.cache
def oracle(name):
    return oracle_failure_probability(get_benchmark(name), 4001)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """reports(name, seed): the report of one run, made once."""

    @functools.cache
    def run(name, seed):
        config = ExperimentConfig.from_dict(
            {
                "benchmark": name,
                "mode": "fuse",
                "m": 20000,
                "n_grid": list(BUDGETS),
                "seed": seed,
                "repetitions": REPETITIONS,
                "output_dir": str(tmp_path_factory.mktemp("calibration")),
            }
        )
        return run_experiment(config)

    return run


@pytest.fixture(scope="module")
def fused_rows(reports):
    """fused_rows(name, seed): the weights.csv rows of one run."""
    return lambda name, seed: reports(name, seed).fused_rows


# the parameter is not called "benchmark": pytest-benchmark owns that fixture name
@pytest.mark.parametrize("name, seed, n_total", cases())
def test_fused_estimate_covers_oracle_without_bias(fused_rows, name, seed, n_total):
    p = oracle(name)
    rows = [row for row in fused_rows(name, seed) if row["n_total"] == n_total]
    assert len(rows) == REPETITIONS
    estimate = np.array([row["estimate"] for row in rows])
    half_width = 1.96 * np.sqrt([row["variance"] for row in rows])
    informed = ~np.array([row["no_information"] for row in rows])
    coverage = np.mean(informed & (np.abs(estimate - p) <= half_width))
    bias_se = (estimate.mean() - p) / (estimate.std(ddof=1) / math.sqrt(REPETITIONS))
    assert coverage >= MIN_COVERAGE, (coverage, bias_se)
    assert abs(bias_se) <= MAX_BIAS_SE, (coverage, bias_se)


@pytest.mark.parametrize("name, seed, n_total, estimator", estimator_cases())
def test_estimator_unbiased(reports, name, seed, n_total, estimator):
    report = reports(name, seed)
    builds = {f"q{i + 1}": r for i, r in enumerate(report.density_reports)}
    builds["q_ref"] = report.reference_report
    nominal = estimator == "nominal" or builds[estimator].fell_back_to_nominal
    rows = [
        row
        for row in report.estimator_rows
        if row["n_total"] == n_total and row["density_id"] == estimator
    ]
    assert len(rows) == REPETITIONS
    estimate = np.array([row["estimate"] for row in rows])
    bias_se = (estimate.mean() - oracle(name)) / (estimate.std(ddof=1) / math.sqrt(REPETITIONS))
    assert abs(bias_se) <= (MAX_NOMINAL_BIAS_SE if nominal else MAX_BIAS_SE), bias_se
