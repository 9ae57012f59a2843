"""The runner's seeded units and two lanes: each phase seeds its units in
one ``_stream`` call, and they run on the calling thread and one more, each
taking the next unit, largest first, as it comes free, when the phase's
largest unit draws more than ``_LANE_POINTS`` points, with results and
errors as a serial loop would give them, and model calls never
overlapping."""

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

L = cli._LANE_POINTS  # the most points a phase's largest unit may draw and stay serial


def calls_recording_threads(n, raising=(), sleeps=None):
    """``n`` calls; call i sleeps ``sleeps[i]`` seconds and returns i, or
    raises its own error when i is in ``raising``.  Calls record the thread
    they ran on, and the lowest raising call waits first, so a higher one
    raises before it."""
    threads = {}
    errors = {i: RuntimeError(f"unit {i}") for i in raising}
    raised = []

    def call(i):
        threads[i] = threading.get_ident()
        time.sleep(sleeps[i] if sleeps else 0)
        if i in errors:
            if i == min(errors):
                time.sleep(0.1)
            raised.append(i)
            raise errors[i]
        return i

    calls = [lambda rng, i=i: call(i) for i in range(n)]
    return calls, threads, errors, raised


def keys(n):
    return [(5, i) for i in range(n)]


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


class TestRunUnits:
    def test_results_in_input_order_for_uneven_units(self, started):
        sleeps = [0.02, 0.001, 0.03, 0, 0.01, 0.002, 0]
        calls, threads, _, _ = calls_recording_threads(len(sleeps), sleeps=sleeps)
        results = cli._run_units(3, keys(len(sleeps)), calls, [L + 1] * len(sleeps))
        assert list(results) == list(range(len(sleeps)))
        assert sorted(threads) == list(range(len(sleeps)))
        assert len(started) == 1

    def test_small_units_run_here_as_their_results_are_read(self, started):
        order = []
        calls = [lambda rng, i=i: order.append((i, threading.get_ident())) or i for i in range(3)]
        results = cli._run_units(3, keys(3), calls, [L, 1, L])
        assert order == []
        assert next(results) == 0
        here = threading.get_ident()
        assert order == [(0, here)]
        assert list(results) == [1, 2]
        assert order == [(0, here), (1, here), (2, here)]
        assert started == []

    def test_run_units_seeds_each_call_by_its_key_as_it_runs(self, started):
        log = []

        def calls():
            for i in range(3):
                log.append(("made", i))
                yield lambda rng, i=i: log.append(("ran", i)) or rng.random()

        results = cli._run_units(3, keys(3), calls(), [1, L, 2])
        assert log == []
        expected = [np.random.default_rng(SeedSequence(3, spawn_key=k)).random() for k in keys(3)]
        assert next(results) == expected[0]
        assert log == [("made", 0), ("ran", 0)]  # a serial phase holds one unit at a time
        assert list(results) == expected[1:]
        assert started == []

    @pytest.mark.parametrize("raising", [(1, 3), (2, 3), (0, 1, 2, 3)])
    def test_lowest_index_error_raised_as_in_a_serial_loop(self, raising):
        calls, threads, errors, raised = calls_recording_threads(4, raising)
        with pytest.raises(RuntimeError) as serial:
            [call(None) for call in calls]
        raised.clear()
        threads.clear()
        with pytest.raises(RuntimeError) as lanes:
            cli._run_units(3, keys(4), calls, [L + 1] * 4)
        assert lanes.value is serial.value is errors[min(raising)]
        # every unit ran, and a higher unit raised before the lowest one
        assert sorted(threads) == [0, 1, 2, 3]
        assert sorted(raised) == sorted(raising)
        assert raised[0] > min(raising)

    def test_lowest_index_error_raised_when_its_unit_runs_last(self):
        # the lanes take unit 0, the smallest, last; its error is still the
        # one raised, as in a serial loop
        calls, threads, errors, raised = calls_recording_threads(4, (0, 1, 3))
        with pytest.raises(RuntimeError) as lanes:
            cli._run_units(3, keys(4), calls, [1, L + 1, 2, L + 1])
        assert lanes.value is errors[0]
        assert sorted(threads) == [0, 1, 2, 3]
        assert raised[-1] == 0

    def test_two_lanes_take_the_largest_unit_first(self, started):
        """Units start largest first, equal sizes in input order.  The first
        unit taken holds its lane until every other unit has started, so
        the other lane takes the rest one at a time and their order shows."""
        points = [3, L + 9, 5, L + 1, 5, L + 9, 0]
        n, began, rest = len(points), [], threading.Semaphore(0)

        def call(i):
            began.append(i)
            if i == 1:
                for _ in range(n - 1):
                    assert rest.acquire(timeout=10)
            else:
                rest.release()
            return i

        calls = [lambda rng, i=i: call(i) for i in range(n)]
        assert list(cli._run_units(3, keys(n), calls, points)) == list(range(n))
        assert 1 in began[:2]
        assert [i for i in began if i != 1] == [5, 3, 2, 4, 0, 6]
        assert len(started) == 1

    def test_each_unit_runs_exactly_once_under_contention(self, monkeypatch, started):
        monkeypatch.setattr(cli, "_LANE_POINTS", 0)
        n, ran = 3000, []
        calls = [lambda rng, i=i: ran.append((i, threading.get_ident())) or i for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(cli._run_units(3, keys(n), calls, [1] * n))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(n))
        assert sorted(i for i, _ in ran) == list(range(n))
        assert len(started) == 1
        assert len({thread for _, thread in ran}) == 2


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which would stop pytest itself."""


class TestInterrupts:
    @pytest.mark.parametrize("lane", ["calling", "second"])
    def test_interrupt_stops_both_lanes_and_is_raised(self, lane, started):
        """An interrupt on either lane empties the queue, so both lanes stop
        after their current unit, and it is raised before the error of a
        lower-index unit."""
        here, n, ran = threading.get_ident(), 100, []

        def call(i):
            ran.append(i)
            time.sleep(0.01)  # releases the GIL, so both lanes take units
            if i == 0:
                raise RuntimeError("unit 0")
            if len(ran) > 4 and (threading.get_ident() == here) == (lane == "calling"):
                raise Interrupt(i)
            return i

        calls = [lambda rng, i=i: call(i) for i in range(n)]
        with pytest.raises(Interrupt):
            cli._run_units(3, keys(n), calls, [L + 1] * n)
        assert len(started) == 1 and not started[0].is_alive()
        assert len(ran) < 20


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
    """The builds, the estimator calls of every budget and the subset
    repetitions are each seeded by one ``_stream`` call over all their
    units: 3 calls for readme-arrhenius, 2 for is-many-small-arrhenius (no
    subset phase)."""
    stream, keys_per_call = cli._stream, []

    def counted(seed, keys):
        keys_per_call.append(len(keys))
        return stream(seed, keys)

    monkeypatch.setattr(cli, "_stream", counted)
    doc = dict(SMALL_CONFIGS[name], seed=3, output_dir=str(tmp_path / "out"))
    run_experiment(ExperimentConfig.from_dict(doc))
    k, reps = len(get_benchmark(doc["benchmark"]).surrogates), doc["repetitions"]
    subset = [reps] if doc["mode"] == "all" else []
    assert keys_per_call == [k + 1, len(doc["n_grid"]) * reps * (k + 2), *subset]
    assert len(keys_per_call) == {"readme-arrhenius": 3, "is-many-small-arrhenius": 2}[name]


def test_model_calls_never_overlap_and_count_every_point(tmp_path, monkeypatch, started):
    monkeypatch.setattr(cli, "_LANE_POINTS", 1024)  # every phase below takes two lanes
    monkeypatch.setattr(est, "_CHUNK", 256)  # and each unit makes many model calls
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
    assert len(started) == 2  # the build phase and the estimation phase
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
    monkeypatch.setattr(cli, "_LANE_POINTS", doc["m"])  # no phase takes two lanes
    serial = run("serial")
    assert len(started) == 3
    assert lanes.files == serial.files
    for name in lanes.files:
        if name != "report.json":  # its timings and output_dir differ
            assert (tmp_path / "lanes" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes(), name
    assert lanes.budget == serial.budget
