"""Transient memory of the bulk paths, traced with ``tracemalloc`` (NumPy
reports its array buffers to it).

Density builds and importance sampling draw, evaluate and drop their points
in chunks of ``estimators._CHUNK``, and the exact sums run block by block
over the per-chunk hit weights, so a call's peak is bounded by the chunk
plus what it keeps (failing points, hit weights), not by its sample count.
The bounds sit between that and the peaks of the unchunked forms, which
held every draw at once: 33 MB for the build and 27 MB for the estimator.
"""

import tracemalloc

import pytest

from rarefuse.cli import _stream
from rarefuse.estimators import importance_sampling_estimate
from rarefuse.mfis import build_biasing_density
from rarefuse.models import get_benchmark

BUILD_PEAK_MB = 8.0  # m = 10**6 draws; measured 3.2 MB
IS_PEAK_MB = 14.0  # n = 6 * 10**5 draws, about 5.2 * 10**5 hits; measured 8.0 MB


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


def test_build_peak_bounded_by_chunk(bench):
    b = bench
    rep, peak = traced_peak_mb(
        lambda: build_biasing_density(
            b.high_fidelity, b.limit_state, b.nominal, 1_000_000, _stream(1, 1, 1000)
        )
    )
    assert not rep.fell_back_to_nominal
    assert peak < BUILD_PEAK_MB


def test_importance_sampling_peak_bounded_by_chunk_and_hits(bench):
    b = bench
    q = build_biasing_density(
        b.high_fidelity, b.limit_state, b.nominal, 20_000, _stream(1, 1, 1000)
    ).density
    res, peak = traced_peak_mb(
        lambda: importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, q, 600_000, _stream(1, 2, 0, 0, 901)
        )
    )
    assert res.hits > 500_000  # most draws hit, so the hit weights alone are ~4 MB
    assert peak < IS_PEAK_MB
