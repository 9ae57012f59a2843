#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``rarefuse.cli.run_experiment``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload readme-arrhenius --seed 1 --seconds 28 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  One process drives one workload in a closed loop: a warm-up
run and ``SETUP_SAMPLES`` fresh interpreters that time the package's
set-up, then timed runs until ``--seconds`` have passed, each followed by
the host reference (see ``run_rel``).  Set-up is sampled before the timed
window so that the window holds as many runs as it can.  Every run's
output files are checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics with tracing off; the only
instrument left is a counter of high-fidelity points (one Python call per
model call) that the output check compares with ``report.json``:

- ``run_rel``: median over the timed runs of each run's wall time divided
  by the wall time of a fixed reference computation (``HostReference``,
  which spans the memory hierarchy) timed right before and right after
  it.  On a shared 2-vCPU Xeon virtual machine the CPU speed was seen to
  change by up to 2x, in CPU time as well as wall time, in phases of
  seconds to minutes, so a run time in seconds moves with the phase a run
  landed in: over ten seeds the IQR/median of the median run time was
  8-32% and that of the fastest run 12-42%.  Dividing by the bracketing
  reference cancels most of that, as both see the same phase.  The
  reference is the benchmark's own code, identical on every commit, so a
  change to rarefuse moves ``run_rel`` in proportion to its run time.  The
  median and the highest percentile the sample count supports of the run
  time in seconds are printed on the info line as ``run_s`` and
  ``run_s_tail``.
- ``setup_s``: median wall time of ``SETUP_SAMPLES`` fresh interpreters
  doing ``import rarefuse`` plus ``get_benchmark``.
- ``peak_rss_mb``: peak RSS of a fresh process running the workload once.

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the fastest traced run, whose spans are written to
``.perfbench_out/``.  ``trace.overhead_s`` is the fastest traced run minus
the fastest untraced one.

Metric names, units and the reason for each workload live in
``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it (the info line) carries the machine, the seed,
the sample counts, the failed-run fraction and the layers that were absent.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from tracing import PointCounter, Tracer, instrumented, totals  # noqa: E402

WORKLOAD_CONFIGS = {
    "readme-arrhenius": {
        "benchmark": "arrhenius-2d",
        "mode": "all",
        "m": 20000,
        "n_grid": [300, 600, 900, 1200],
        "repetitions": 10,
        "subset": {"N": 2000, "p0": 0.1, "max_levels": 12},
    },
    "is-bulk-gaussian": {
        "benchmark": "linear-gaussian-2.5",
        "mode": "fuse",
        "m": 1000000,
        "n_grid": [300000, 600000],
        "repetitions": 2,
    },
    "is-many-small-arrhenius": {
        "benchmark": "arrhenius-2d",
        "mode": "fuse",
        "m": 20000,
        "n_grid": [30, 60, 120, 300],
        "repetitions": 300,
    },
}

MIN_RUNS = 3
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
ORACLE_RESOLUTION = 4001

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import rarefuse
t1 = time.perf_counter()
rarefuse.get_benchmark(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "get_benchmark_s": t2 - t1}))
"""

SCIPY_SPECIAL_CODE = """
import json, time
t0 = time.perf_counter()
import scipy.special
print(json.dumps(time.perf_counter() - t0))
"""

# VmHWM is the peak of this process alone; ru_maxrss would also count the
# benchmark's own resident memory, which the child inherits at fork.
RSS_CODE = """
import json, sys
from rarefuse.cli import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it, or None when it would not lie above the median."""
    if n < 2 * beyond:
        return None
    return (100 * (n - beyond)) // n


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    """The nearest-rank percentile of ascending ``sorted_values``."""
    rank = max(1, math.ceil(percentile * len(sorted_values) / 100))
    return sorted_values[rank - 1]


class HostReference:
    """A fixed computation that never touches rarefuse, timed between runs
    to measure how fast the host is at that moment.

    The host's slow phases hit code with large working sets harder, so the
    reference spans the memory hierarchy in seven parts of similar time: an
    interpreter loop, NumPy calls on 300 points, passes over an array that
    fits in L2, random gathers from and streaming passes over 32 MiB
    arrays, and Python floats and dict entries scattered over the heap.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._l2 = rng.random(2**18)
        self._table = rng.random(2**22)
        self._index = rng.integers(0, 2**22, 2**19)
        self._stream = rng.random(2**22)
        self._out = np.empty_like(self._stream)
        floats = [float(i) for i in range(2**20)]
        self._floats = random.Random(0).sample(floats, 2**18)
        self._dict = {str(i): i for i in range(2**18)}
        self._keys = random.Random(1).sample(list(self._dict), 2**16)

    def seconds(self) -> float:
        np = self._np
        gc.collect()  # the garbage of the previous run is not the reference's cost
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += i * i % 7
        rng = np.random.default_rng(1)
        for _ in range(900):
            x = rng.random(300)
            acc += math.fsum(np.exp(-x)) + float(x.mean())
        for _ in range(2):
            acc += math.fsum(np.exp(np.sort(self._l2)))
        for _ in range(3):
            acc += float(self._table[self._index].sum())
        for _ in range(3):
            np.multiply(self._stream, 1.0001, out=self._out)
            acc += float(self._out.sum())
        for x in self._floats:
            acc += x
        table = self._dict
        for key in self._keys:
            acc += table[key]
        elapsed = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise RuntimeError("reference computation gave a non-finite value")
        return elapsed


def bracketed_ratios(runs: list[float], refs: list[float]) -> list[float]:
    """Each run's time over the mean of the reference times just before and
    just after it; ``refs`` has one more entry than ``runs``."""
    if len(refs) != len(runs) + 1:
        raise ValueError("need one reference time before and after each run")
    return [run / ((before + after) / 2) for run, before, after in zip(runs, refs, refs[1:])]


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def _child(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports the checkout's
    package; returns (its last stdout line as JSON, wall seconds)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - t0


class SetupSampler:
    """Fresh-interpreter set-up times."""

    def __init__(self, benchmark: str, scipy_special: bool):
        self.benchmark = benchmark
        self.scipy_special = scipy_special
        self.samples: dict[str, list[float]] = {}

    def sample(self) -> None:
        inner, wall = _child(SETUP_CODE, self.benchmark)
        found = {
            "setup_s": wall,
            "setup.import_s": inner["import_s"],
            "setup.get_benchmark_s": inner["get_benchmark_s"],
        }
        if self.scipy_special:
            found["setup.import_scipy_special_s"] = _child(SCIPY_SPECIAL_CODE)[0]
        for key, value in found.items():
            self.samples.setdefault(key, []).append(value)

    def medians(self) -> dict[str, float]:
        return {key: statistics.median(v) for key, v in self.samples.items()}


class Runner:
    """Runs one workload config in this process and checks every run."""

    def __init__(self, workload: str, seed: int):
        import rarefuse
        from rarefuse.cli import ExperimentConfig, run_experiment
        from rarefuse.fusion import VARIANCE_FLOOR

        self.out_dir = OUT / workload / "run"
        self.rss_dir = OUT / workload / "rss"
        self.doc = dict(WORKLOAD_CONFIGS[workload], seed=seed, output_dir=str(self.out_dir))
        self.config = ExperimentConfig.from_dict(self.doc)
        self.benchmark = rarefuse.get_benchmark(self.config.benchmark)
        self._run_experiment = run_experiment
        self._variance_floor = VARIANCE_FLOOR
        self.attempted = 0
        self.problems: list[list[str]] = []

    def check(self, out_dir, hf_points=None) -> None:
        problems = check_outputs(
            out_dir, self.config, len(self.benchmark.surrogates),
            self._variance_floor, hf_points,
        )
        self.attempted += 1
        if problems:
            self.problems.append(problems)

    def run(self, tracer: Tracer | None = None) -> float:
        """One checked run; returns its wall seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        counter = PointCounter()
        with instrumented(tracer, counter):
            run = self._run_experiment
            if tracer is not None:
                run = tracer.wrap("cli.run_experiment", run)
            t0 = time.perf_counter()
            run(self.config)
            elapsed = time.perf_counter() - t0
        self.check(self.out_dir, counter.points)
        return elapsed

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process running the workload once."""
        shutil.rmtree(self.rss_dir, ignore_errors=True)
        kib, _ = _child(RSS_CODE, json.dumps(dict(self.doc, output_dir=str(self.rss_dir))))
        self.check(self.rss_dir)
        return kib * 1024 / 1e6


def _ess_frac(result) -> float:
    """Effective sample size over n, from the estimate and sample variance."""
    n, est, sv = result.n, result.estimate, result.sample_variance
    if est == 0.0:
        return 0.0
    return n * est * est / ((n - 1) * sv + n * est * est)


def _bias_se(out_dir: Path, oracle: float) -> dict[int, float]:
    """Per budget: (mean fused estimate - oracle) / its standard error."""
    by_budget: dict[int, list[float]] = {}
    path = out_dir / "weights.csv"
    if path.exists():
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                by_budget.setdefault(int(row["n_total"]), []).append(float(row["estimate"]))
    out = {}
    for n, values in sorted(by_budget.items()):
        if len(values) > 1 and statistics.stdev(values) > 0.0:
            se = statistics.stdev(values) / math.sqrt(len(values))
            out[n] = (statistics.fmean(values) - oracle) / se
    return out


def layer_metrics(tracer: Tracer, out_dir: Path, oracle: float):
    """Per-layer metrics of one traced run, and its bias per budget.

    A layer that did not run, or a helper that no longer exists, has no
    entry here and is reported as absent.
    """
    t = totals(tracer.spans)

    def total(name, key):
        return t.get(name, {}).get(key, 0)

    def results(name):
        return [span[6] for span in tracer.spans if span[2] == name]

    m: dict[str, float] = {}
    for name, keys in (
        ("densities.sample", ("calls", "points", "s")),
        ("densities.pdf", ("calls", "points", "s")),
        ("models.hf", ("calls", "points", "s")),
        ("models.surrogate", ("points", "s")),
        ("models.limit_state", ("s",)),
        ("mfis.build", ("calls", "s")),
        ("estimators.is", ("calls", "s", "self_s")),
        ("estimators.mc", ("calls", "s")),
        ("fusion.fuse", ("calls", "s")),
    ):
        for key in keys:
            m[f"{name}.{key}"] = total(name, key)
    if m["models.hf.calls"]:
        m["models.hf.points_per_call"] = m["models.hf.points"] / m["models.hf.calls"]
    m["mfis.build.fallbacks"] = sum(r.fell_back_to_nominal for r in results("mfis.build"))

    is_results = results("estimators.is")
    for density_id in sorted({r.density_id for r in is_results}):
        mine = [r for r in is_results if r.density_id == density_id]
        m[f"estimators.is.ess_frac.{density_id}"] = statistics.fmean(_ess_frac(r) for r in mine)
        m[f"estimators.is.hit_rate.{density_id}"] = sum(r.hits for r in mine) / sum(r.n for r in mine)

    fused = results("fusion.fuse")
    m["fusion.excluded"] = sum(len(r.excluded) for r in fused)
    m["fusion.floored"] = sum(len(r.floored) for r in fused)
    bias = _bias_se(out_dir, oracle)
    if bias:
        m["fusion.bias_se.min_budget"] = bias[min(bias)]
        m["fusion.bias_se.max_budget"] = bias[max(bias)]

    subsets = results("subset_sim.run")
    if subsets:
        m["subset_sim.run.calls"] = len(subsets)
        m["subset_sim.run.s"] = total("subset_sim.run", "s")
        m["subset_sim.levels"] = statistics.fmean(r.levels for r in subsets)
        m["subset_sim.model_evals"] = sum(r.total_model_evals for r in subsets)
        m["subset_sim.rel_err"] = statistics.fmean(abs(r.estimate - oracle) / oracle for r in subsets)
        for name in ("subset_sim.grow_chains", "subset_sim.gamma"):
            if name not in tracer.absent:
                m[f"{name}.s"] = total(name, "s")

    m["cli.run_experiment.s"] = total("cli.run_experiment", "s")
    m["cli.self_s"] = total("cli.run_experiment", "self_s")
    if "cli.write_outputs" not in tracer.absent:
        m["cli.write_outputs.s"] = total("cli.write_outputs", "s")
    if "cli.streams" not in tracer.absent:
        m["cli.streams.calls"] = total("cli.streams", "calls")
    m["cli.output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return m, bias


def _result_metrics(declared: list[dict], values: dict[str, float]):
    """Every declared metric, 0 for the absent ones; and the absent names."""
    unknown = set(values) - {d["name"] for d in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics, absent = {}, []
    for d in declared:
        if d["name"] not in values:
            absent.append(d["name"])
        metrics[d["name"]] = {"value": values.get(d["name"], 0), "unit": d["unit"]}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CONFIGS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "rarefuse" / "__init__.py").is_file():
        print(f"error: no rarefuse sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import rarefuse

    if SRC not in Path(rarefuse.__file__).resolve().parents:
        print(f"error: imported rarefuse from {rarefuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup = SetupSampler(WORKLOAD_CONFIGS[args.workload]["benchmark"], bool(args.trace))
    runner = Runner(args.workload, args.seed)
    runner.run()  # warm-up; its imports also compile the bytecode the set-up children load
    for _ in range(SETUP_SAMPLES):
        setup.sample()
    info: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
    }
    OUT.mkdir(exist_ok=True)
    plain: list[float] = []
    traced: list[float] = []
    fastest: Tracer | None = None
    if args.trace:
        oracle = rarefuse.oracle_failure_probability(runner.benchmark, ORACLE_RESOLUTION)
    reference = HostReference()
    reference.seconds()  # warm-up
    refs = [reference.seconds()]
    start = time.perf_counter()
    while len(plain) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        plain.append(runner.run())
        refs.append(reference.seconds())
        if args.trace:
            tracer = Tracer()
            traced.append(runner.run(tracer))
            if traced[-1] == min(traced):
                fastest = tracer

    if not args.trace:
        rel = bracketed_ratios(plain, refs)
        values = {
            "run_rel": statistics.median(rel),
            "setup_s": setup.medians()["setup_s"],
            "peak_rss_mb": runner.peak_rss_mb(),
        }
        declared = spec["end_to_end"]
        info["run_rel_samples"] = rel
        info["ref_s"] = {"value": statistics.median(refs), "unit": "s", "samples": len(refs)}
        info["ref_s_samples"] = refs
        info["run_s_samples"] = list(plain)
        plain.sort()
        pct = tail_percentile(len(plain))
        info["run_s"] = {"value": statistics.median(plain), "unit": "s", "samples": len(plain)}
        info["run_s_tail"] = {
            "percentile": pct,
            "value": nearest_rank(plain, pct) if pct is not None else None,
            "unit": "s",
            "samples": len(plain),
        }
        info["setup_s_samples"] = setup.samples["setup_s"]
    else:
        # every run of one config and seed writes the same CSVs
        values, bias = layer_metrics(fastest, runner.out_dir, oracle)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        fastest.write(spans_path)
        values.update({k: v for k, v in setup.medians().items() if k.startswith("setup.")})
        values["trace.overhead_s"] = min(traced) - min(plain)
        declared = spec["per_layer"]
        info.update(samples=len(traced), spans=str(spans_path.relative_to(ROOT)),
                    fusion_bias_se_per_budget={str(n): v for n, v in bias.items()},
                    oracle=oracle, absent_helpers=fastest.absent)

    metrics, absent = _result_metrics(declared, values)
    failed = len(runner.problems)
    info["absent"] = absent
    info["ops_failed_frac"] = {"value": failed / runner.attempted, "unit": "1"}
    info["check_failures"] = runner.problems[:3]
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
