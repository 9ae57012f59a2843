"""Transient memory of the bulk paths, traced with ``tracemalloc`` (NumPy
reports its array buffers to it; it traces every thread).

Density builds and importance sampling draw, evaluate and drop their points
in chunks of ``estimators._CHUNK``, and the exact sums run block by block
over the per-chunk hit weights, so a call's peak is bounded by the chunk
plus what it keeps (failing points, hit weights), not by its sample count.
The bounds sit between that and the peaks of the unchunked forms, which
held every draw at once: 33 MB for the build and 27 MB for the estimator.
The runner runs two such calls at once; at 2**14 points per chunk the two
lanes of a bulk estimation phase stay below one call's bound.  Seeding a
phase holds one 32-byte row per unit; each unit builds its generator only
when it runs.  The quadrature oracle counts failing cells in blocks of at
most 2**16, so its peak does not grow with its resolution.
"""

import threading
import tracemalloc

import pytest

from rarefuse.cli import (
    CampaignReport,
    ExperimentConfig,
    _build_phase,
    _estimate_phase,
    _generator,
    _stream,
)
from rarefuse.estimators import importance_sampling_estimate
from rarefuse.mfis import build_biasing_density
from rarefuse.models import get_benchmark, oracle_failure_probability

BUILD_PEAK_MB = 8.0  # m = 10**6 draws; measured 1.5 MB
IS_PEAK_MB = 14.0  # n = 6 * 10**5 draws, about 5.2 * 10**5 hits; measured 5.2 MB
SEEDS_PEAK_MB = 0.1
ORACLE_PEAK_MB = 8.0  # resolution 4001; measured 1.7 MB, 49 MB in blocks of 512 rows
REPORT_HOLD_MB = 0.5  # the many-small estimation phase's results, held after it
SMALL_PHASE_PEAK_MB = 2.0


def traced_peak_mb(fn):
    """(fn(), the peak traced memory above the start of the call, in MB)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, (peak - base) / 1e6


@pytest.fixture(scope="module")
def bench():
    return get_benchmark("linear-gaussian-2.5")


def runner_rng(seed, *key):
    """The generator the runner gives the unit with this spawn key."""
    return _generator(_stream(seed, [key])[0])


def test_build_peak_bounded_by_chunk(bench):
    b = bench
    rep, peak = traced_peak_mb(
        lambda: build_biasing_density(
            b.high_fidelity, b.limit_state, b.nominal, 1_000_000, runner_rng(1, 1, 1000)
        )
    )
    assert not rep.fell_back_to_nominal
    assert peak < BUILD_PEAK_MB


def test_importance_sampling_peak_bounded_by_chunk_and_hits(bench):
    b = bench
    q = build_biasing_density(
        b.high_fidelity, b.limit_state, b.nominal, 20_000, runner_rng(1, 1, 1000)
    ).density
    res, peak = traced_peak_mb(
        lambda: importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, q, 600_000, runner_rng(1, 2, 0, 0, 901)
        )
    )
    assert res.hits > 500_000  # most draws hit, so the hit weights alone are ~4 MB
    assert peak < IS_PEAK_MB


def test_seeding_a_budget_holds_seeds_not_generators():
    """One is-many-small-arrhenius budget: 300 repetitions of 5 slots, 1500
    keys.  Measured 81 KB; the 1500 generators built up front held 1.1 MB."""
    keys = [(2, 0, rep, slot) for rep in range(300) for slot in (0, 1, 2, 900, 901)]
    seeds, peak = traced_peak_mb(lambda: _stream(1, keys))
    assert seeds.shape == (1500, 4)
    assert peak < SEEDS_PEAK_MB


def test_arrhenius_oracle_peak_bounded_by_block():
    b = get_benchmark("arrhenius-2d")
    p, peak = traced_peak_mb(lambda: oracle_failure_probability(b, 4001))
    assert p == 0.0005353572878962214  # the failing-cell count is an integer
    assert peak < ORACLE_PEAK_MB


def test_two_lane_estimation_phase_peak_below_one_call_bound(bench, monkeypatch):
    """is-bulk-gaussian's estimation phase: budgets of 3 and 6 * 10**5
    points, two repetitions, the calls of both budgets split over two lanes
    from one queue, largest first.  Measured 8.0-8.4 MB (7.6-7.7 MB with
    one queue per budget); one lane at the former 2**16-point chunk peaked
    at 8.5 MB."""
    config = ExperimentConfig.from_dict(
        {
            "benchmark": "linear-gaussian-2.5",
            "mode": "fuse",
            "m": 1_000_000,
            "n_grid": [300_000, 600_000],
            "repetitions": 2,
            "seed": 3,
        }
    )
    report = CampaignReport(config=config, config_hash=config.hash())
    _build_phase(config, bench, report)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    _, peak = traced_peak_mb(lambda: _estimate_phase(config, bench, report))
    assert len(started) == 1  # one queue for both budgets
    assert len(report.estimator_rows) == 2 * 2 * 5
    assert peak < IS_PEAK_MB


def test_many_small_estimation_phase_holds_arrays_not_rows():
    """is-many-small-arrhenius's estimation phase (4 budgets of 5 estimator
    calls and one fuse per repetition) at 80 of its 300 repetitions, so the
    traced run stays under a second.  The report holds each budget's
    results as arrays, and the CSV rows are built only as they are
    written.  Measured: holds 0.20 MB and peaks at 0.30 MB (about 0.14 MB
    of the hold is the interpreter's free list of the seeding keys'
    tuples); one dict per CSV row held 1.22 MB and peaked at 1.32 MB,
    and 4.09-4.24 MB at all 300 repetitions."""
    bench = get_benchmark("arrhenius-2d")
    config = ExperimentConfig.from_dict(
        {
            "benchmark": "arrhenius-2d",
            "mode": "fuse",
            "m": 20000,
            "n_grid": [30, 60, 120, 300],
            "repetitions": 80,
            "seed": 1,
        }
    )
    report = CampaignReport(config=config, config_hash=config.hash())
    _build_phase(config, bench, report)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, peak = traced_peak_mb(lambda: _estimate_phase(config, bench, report))
        held = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()
    assert len(report.estimator_rows) == 4 * 80 * 5
    assert held < REPORT_HOLD_MB
    assert peak < SMALL_PHASE_PEAK_MB
