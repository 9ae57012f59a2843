"""The runner's seeded units and two lanes: each phase seeds its units in
one ``_stream`` call, and they run on the calling thread and one more when
some unit spans more than ``_LANE_CHUNKS`` chunks, with results and errors
as a serial loop would give them, and model calls never overlapping."""

import dataclasses
import sys
import threading
import time
import types

import numpy as np
import pytest
from numpy.random import SeedSequence

import rarefuse.cli as cli
import rarefuse.estimators as est
from rarefuse.cli import ExperimentConfig, run_experiment
from rarefuse.models import get_benchmark

L = cli._LANE_CHUNKS * est._CHUNK  # the most points a unit may draw and stay serial


def units_recording_threads(points, raising=()):
    """One unit per point count; unit i returns i, or raises its own error
    when i is in ``raising``.  Units record the thread they ran on, and the
    lowest raising unit waits first, so a higher one raises before it."""
    threads = {}
    errors = {i: RuntimeError(f"unit {i}") for i in raising}
    raised = []

    def unit(i):
        threads[i] = threading.get_ident()
        if i in errors:
            if i == min(errors):
                time.sleep(0.05)
            raised.append(i)
            raise errors[i]
        return i

    return [lambda i=i: unit(i) for i in range(len(points))], threads, errors, raised


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


class TestInLanes:
    def test_results_in_input_order_for_uneven_units(self):
        points = [L + 1, 7 * L, 3, 2 * L, 5 * L, L, 4 * L]
        units, threads, _, _ = units_recording_threads(points)
        assert list(cli._in_lanes(units, points)) == list(range(len(points)))
        here = threading.get_ident()
        # longest first to the lane with fewer points so far, ties to this thread
        assert {i for i, t in threads.items() if t == here} == {0, 1, 3}
        assert len(set(threads.values())) == 2

    def test_small_units_run_here_as_their_results_are_read(self, started):
        points = [L, 1, L]
        order = []
        results = cli._in_lanes((lambda i=i: order.append(i) or i for i in range(3)), points)
        assert order == []
        assert next(results) == 0
        assert order == [0]
        assert list(results) == [1, 2]
        assert order == [0, 1, 2]
        assert started == []

    def test_run_units_seeds_each_call_by_its_key_as_it_runs(self, started):
        keys = [(5, i) for i in range(3)]
        log = []

        def calls():
            for i in range(3):
                log.append(("made", i))
                yield lambda rng, i=i: log.append(("ran", i)) or rng.random()

        results = cli._run_units(3, keys, [L, 1, L], calls())
        assert log == []
        expected = [np.random.default_rng(SeedSequence(3, spawn_key=k)).random() for k in keys]
        assert next(results) == expected[0]
        assert log == [("made", 0), ("ran", 0)]  # a serial phase holds one unit at a time
        assert list(results) == expected[1:]
        assert started == []

    @pytest.mark.parametrize("raising", [(1, 3), (2, 3), (0, 1, 2, 3)])
    def test_lowest_index_error_raised_as_in_a_serial_loop(self, raising):
        # lanes: this thread runs units 0 and 3, the other units 1 and 2
        points = [4 * L, 3 * L, 2 * L, L + 1]
        units, threads, errors, raised = units_recording_threads(points, raising)
        with pytest.raises(RuntimeError) as serial:
            [unit() for unit in units]
        raised.clear()
        threads.clear()
        with pytest.raises(RuntimeError) as lanes:
            cli._in_lanes(units, points)
        assert lanes.value is serial.value is errors[min(raising)]
        # every unit ran, and a unit raised in each lane
        assert sorted(raised) == sorted(raising)
        assert len({threads[i] for i in raised}) == 2


SMALL_CONFIGS = {
    "is-many-small-arrhenius": {
        "benchmark": "arrhenius-2d",
        "mode": "fuse",
        "m": 20000,
        "n_grid": [30, 60, 120, 300],
        "repetitions": 300,
    },
    "readme-arrhenius": {
        "benchmark": "arrhenius-2d",
        "mode": "all",
        "m": 20000,
        "n_grid": [300, 600, 900, 1200],
        "repetitions": 10,
    },
}


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_small_configs_start_no_thread(tmp_path, monkeypatch, name):
    """Neither the 1200-point estimator calls nor the 20000-point builds of
    the benchmark's small configs take a second lane."""

    def no_thread(*args, **kwargs):
        raise AssertionError("a phase started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    doc = dict(SMALL_CONFIGS[name], seed=3, output_dir=str(tmp_path / "out"))
    report = run_experiment(ExperimentConfig.from_dict(doc))
    assert len(report.estimator_rows) == len(doc["n_grid"]) * doc["repetitions"] * 5


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_one_stream_call_per_phase(tmp_path, monkeypatch, name):
    """The builds, each budget and the subset repetitions are each seeded
    by one ``_stream`` call over all their units: 6 calls for
    readme-arrhenius, 5 for is-many-small-arrhenius (no subset phase)."""
    stream, keys_per_call = cli._stream, []

    def counted(seed, keys):
        keys_per_call.append(len(keys))
        return stream(seed, keys)

    monkeypatch.setattr(cli, "_stream", counted)
    doc = dict(SMALL_CONFIGS[name], seed=3, output_dir=str(tmp_path / "out"))
    run_experiment(ExperimentConfig.from_dict(doc))
    k, reps = len(get_benchmark(doc["benchmark"]).surrogates), doc["repetitions"]
    subset = [reps] if doc["mode"] == "all" else []
    assert keys_per_call == [k + 1, *[reps * (k + 2)] * len(doc["n_grid"]), *subset]
    assert len(keys_per_call) == {"readme-arrhenius": 6, "is-many-small-arrhenius": 5}[name]


def test_model_calls_never_overlap_and_count_every_point(tmp_path, monkeypatch, started):
    monkeypatch.setattr(est, "_CHUNK", 256)  # every unit below takes two lanes
    bench = get_benchmark("linear-gaussian-2.5")
    active, overlaps = [], []
    hf = types.SimpleNamespace(points=0)

    def recording(fn, counter=None):
        def wrapped(pts):
            active.append(pts.shape[0])
            if len(active) > 1:
                overlaps.append(list(active))
            if counter is not None:
                counter.points += pts.shape[0]  # not atomic: a lost update shows
            time.sleep(0.001)  # releases the GIL, so an unlocked call would overlap
            out = fn(pts)
            active.pop()
            return out

        return wrapped

    recorded = dataclasses.replace(
        bench,
        high_fidelity=dataclasses.replace(
            bench.high_fidelity, fn=recording(bench.high_fidelity.fn, hf)
        ),
        surrogates=[dataclasses.replace(s, fn=recording(s.fn)) for s in bench.surrogates],
    )
    monkeypatch.setattr(cli, "get_benchmark", lambda name: recorded)
    config = ExperimentConfig.from_dict(
        {
            "benchmark": "linear-gaussian-2.5",
            "mode": "fuse",
            "m": 2000,
            "n_grid": [1800, 3000],
            "repetitions": 2,
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_experiment(config)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 1 + len(config.n_grid)  # the build phase and each budget
    assert overlaps == []
    # the reference density build spends m points on the high-fidelity model
    assert hf.points == report.budget["actual_hf_evaluations"] + config.m


def test_two_lane_bulk_run_byte_identical_to_serial(tmp_path, monkeypatch, started):
    doc = {
        "benchmark": "linear-gaussian-2.5",
        "mode": "all",
        "m": 2 * L + 5,
        "n_grid": [L // 2, 2 * L + 1],
        "repetitions": 2,
        "seed": 7,
        "subset": {"N": L + 1},
    }

    def run(name):
        return run_experiment(ExperimentConfig.from_dict(dict(doc, output_dir=str(tmp_path / name))))

    lanes = run("lanes")
    # the builds, the larger budget and the subset runs each take two lanes
    assert len(started) == 3
    monkeypatch.setattr(cli, "_in_lanes", lambda units, points: (unit() for unit in units))
    serial = run("serial")
    assert lanes.files == serial.files
    for name in lanes.files:
        if name != "report.json":  # its timings and output_dir differ
            assert (tmp_path / "lanes" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes(), name
    assert lanes.budget == serial.budget
