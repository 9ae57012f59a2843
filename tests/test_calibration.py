"""Calibration of the fused estimate against the oracle.

One ``mode: "fuse"`` run per benchmark and build seed, with m = 20000 and
300 repetitions at budgets of 300 and 3000.  At each budget the fused
estimate's ±1.96·sqrt(variance) interval must contain the oracle in at
least 90% of the repetitions, where a repetition with no information is a
miss, and the mean estimate must lie within 2 standard errors of the
oracle.  Each known miss is a strict xfail that names the ROADMAP item
whose fix should meet the bounds, so a fix that lands unnoticed turns the
test red and its marker comes off.
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

# the ROADMAP item whose fix should meet the bounds on each benchmark
MISSES = {
    "arrhenius-2d": "ROADMAP item 10: the plug-in fusion weights bias the fused estimate",
    "linear-gaussian": "ROADMAP item 2: the fitted densities' weights are heavy-tailed",
}
# Only linear-gaussian at build seed 11 meets both bounds, at both budgets.
# Seed 3 there misses at 3000 by 2 repetitions (268 of 300 covered), so a
# NumPy or BLAS build that moves a few draws may flip it.
CALIBRATED = {("linear-gaussian", 11)}


def cases():
    for name, item in MISSES.items():
        for seed in SEEDS:
            known_miss = (name, seed) not in CALIBRATED
            marks = [pytest.mark.xfail(strict=True, reason=item)] if known_miss else []
            for n_total in BUDGETS:
                yield pytest.param(name, seed, n_total, marks=marks, id=f"{name}-{seed}-{n_total}")


@functools.cache
def oracle(name):
    return oracle_failure_probability(get_benchmark(name), 4001)


@pytest.fixture(scope="module")
def fused_rows(tmp_path_factory):
    """fused_rows(name, seed): the weights.csv rows of one run, made once."""

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
        return run_experiment(config).fused_rows

    return run


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
