"""Config-driven experiment runner and command-line interface.

Reproduces the study shapes of the estimation pipeline end to end:
biasing-density construction reports, per-density importance-sampling
estimators fused into one estimate, convergence studies over the sample
budget, and subset-simulation baselines.  Outputs are CSV/JSON files with
deterministic content for a fixed (config, seed) pair.

Commands::

    rarefuse run --config experiment.json
    rarefuse benchmarks list
    rarefuse oracle --benchmark arrhenius-2d --resolution 2001
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import estimators
from .estimators import cv, importance_sampling_estimate, monte_carlo_estimate, rmse
from .fusion import fuse
from .mfis import BiasingBuildReport, build_biasing_density
from .models import Benchmark, benchmark_names, get_benchmark, oracle_failure_probability
from .subset_sim import subset_simulation

__all__ = [
    "ExperimentConfig",
    "SubsetSettings",
    "CampaignReport",
    "ConfigError",
    "run_experiment",
    "main",
]

MODES = ("build_densities", "fuse", "subset", "all")
# per-budget means over the finite values; cv_reps counts the finite cvs
_STATS = ("estimate", "rmse", "cv")
_CONVERGENCE_COLUMNS = ["n", "estimator_id", *_STATS, "cv_reps", "flag"]
_ESTIMATE_COLUMNS = [
    "density_id",
    "kind",
    "n",
    "estimate",
    "sample_variance",
    "hits",
    "rmse",
    "cv",
]
_WEIGHT_COLUMNS = ["estimate", "variance", "multiplier", "no_information"]
_SUBSET_COLUMNS = [
    "config_hash",
    "seed",
    "repetition",
    "samples",
    "samples_each_level",
    "levels",
    "estimate",
    "approx_cv",
    "converged",
    "model_evals",
]


def _estimate_row(res) -> dict:
    """The estimates.csv columns of one estimator result.  A zero estimate
    carries no information about its error, so its rmse and cv are nan."""
    zero = res.estimate <= 0.0
    return {
        "density_id": res.density_id,
        "kind": res.kind,
        "n": res.n,
        "estimate": res.estimate,
        "sample_variance": res.sample_variance,
        "hits": res.hits,
        "rmse": float("nan") if zero else rmse(res),
        "cv": float("nan") if zero else cv(res),
    }


def _subset_row(result, n_each_level: int) -> dict:
    """The subset.csv columns of one subset-simulation run, past the run columns."""
    return {
        "samples": n_each_level * result.levels,
        "samples_each_level": n_each_level,
        "levels": result.levels,
        "estimate": result.estimate,
        "approx_cv": result.approx_cv,
        "converged": result.converged,
        "model_evals": result.total_model_evals,
    }


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require_count(name: str, value, minimum: int) -> None:
    # counts must be JSON integers; bool is an int subclass but not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class SubsetSettings:
    N: int = 2000
    p0: float = 0.1
    max_levels: int = 12

    def __post_init__(self):
        _require_count("subset.N", self.N, 100)
        _require_count("subset.max_levels", self.max_levels, 1)
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("subset.p0 must lie strictly between 0 and 1")


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str
    mode: str = "all"
    m: int = 20000
    n_grid: tuple[int, ...] = (300, 600, 900, 1200)
    split: str = "equal"
    seed: int = 0
    repetitions: int = 1
    output_dir: str = "rarefuse_out"
    threshold_relax: float | None = None
    subset: SubsetSettings = field(default_factory=SubsetSettings)

    def __post_init__(self):
        if self.benchmark not in benchmark_names():
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}; known: "
                + ", ".join(benchmark_names())
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        _require_count("m", self.m, 0)
        _require_count("seed", self.seed, 0)
        _require_count("repetitions", self.repetitions, 1)
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        for n in self.n_grid:
            _require_count("n_grid entry", n, 1)
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly ascending")
        if self.split != "equal":
            raise ConfigError("only the 'equal' split rule is supported")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        relax = self.threshold_relax
        if relax is not None and (
            isinstance(relax, bool)
            or not isinstance(relax, (int, float))
            or not (math.isfinite(relax) and relax >= 0)
        ):
            raise ConfigError(f"threshold_relax must be a finite number >= 0, got {relax!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "benchmark" not in doc:
            raise ConfigError("config requires a 'benchmark' name")
        kwargs = dict(doc)
        subset_doc = kwargs.pop("subset", None)
        try:
            if "n_grid" in kwargs:
                kwargs["n_grid"] = tuple(kwargs["n_grid"])
            if subset_doc is not None:
                if not isinstance(subset_doc, dict):
                    raise ConfigError("subset must be a JSON object")
                sub_unknown = set(subset_doc) - {f.name for f in fields(SubsetSettings)}
                if sub_unknown:
                    raise ConfigError(f"unknown subset keys: {sorted(sub_unknown)}")
                kwargs["subset"] = SubsetSettings(**subset_doc)
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["n_grid"] = list(self.n_grid)
        return doc

    def hash(self) -> str:
        # identifies the experiment itself; where outputs land is not part of it
        doc = self.to_dict()
        doc.pop("output_dir")
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass
class CampaignReport:
    config: ExperimentConfig
    config_hash: str
    density_reports: list[BiasingBuildReport] = field(default_factory=list)
    reference_report: BiasingBuildReport | None = None
    estimator_rows: list[dict] = field(default_factory=list)
    fused_rows: list[dict] = field(default_factory=list)
    convergence_rows: list[dict] = field(default_factory=list)
    subset_rows: list[dict] = field(default_factory=list)
    subset_levels: list[list[dict]] = field(default_factory=list)
    budget: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value, xor, mult):
    # NumPy's hashmix and output steps, on uint32 arrays
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _stream(seed: int, keys) -> np.ndarray:
    """Row i: ``SeedSequence(seed, spawn_key=keys[i]).generate_state(4, np.uint64)``.

    NumPy's hash: the seed's own pool (``SeedSequence(seed).pool``, its
    32-bit words mixed by NumPy), then each key word mixed into the pools
    of all keys at once, in the result's buffer.
    """
    (width,) = {len(key) for key in keys}  # ValueError unless the keys share a length
    state = np.empty((len(keys), 8), dtype="<u4")  # each key's pool in words 0-3
    state[:, :4] = np.random.SeedSequence(seed).pool
    # the seed's words, at least 4, took 4 hashmix calls each
    start = 4 * max(4, -(-seed.bit_length() // 32))
    h = [_INIT_A * pow(_MULT_A, t, 1 << 32) & _M32 for t in range(start, start + 4 * width + 1)]
    calls = zip(h, h[1:])  # (xor, mult) of mix_entropy's hashmix calls, in call order
    for j in range(width):
        w = np.fromiter((key[j] for key in keys), np.uint32, len(keys))  # past 32 bits raises
        for p in range(4):
            state[:, p] = _mix(state[:, p], _hashmix(w, *next(calls)))
    state[:, 4:] = state[:, :4]  # generate_state hashes the pool cycled to 8 words
    g = [_INIT_B * pow(_MULT_B, t, 1 << 32) & _M32 for t in range(9)]
    for i in range(8):
        state[:, i] = _hashmix(state[:, i], g[i], g[i + 1])
    return state.view("<u8").astype(np.uint64, copy=False)  # joined little-endian


class _Seeded(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the 4 uint64 words it asks for: a row of ``_stream``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words) -> np.random.Generator:
    """A unit's generator, built when it runs: a phase holds seeds, not generators."""
    return np.random.Generator(np.random.PCG64(_Seeded(words)))


# A phase takes a second lane only when one of its units spans more than
# this many chunks.  Below that the thread costs more than the overlap
# saves: two lanes for density builds of 20000 points left run times within
# noise and raised peak RSS by about 1 MB, the malloc arena of the thread
# (gone with MALLOC_ARENA_MAX=1).
_LANE_CHUNKS = 4


def _in_lanes(units, points: list[int]):
    """Call the zero-argument ``units`` of a phase (its density builds, one
    budget's estimator calls, or its subset runs); returns an iterator over
    their results in input order.

    ``points[i]`` is the number of points unit i draws.  When some unit
    spans more than ``_LANE_CHUNKS`` chunks (``estimators._CHUNK``), the
    units run in two lanes, this thread and one more, since NumPy releases
    the GIL in its bulk kernels: each goes, longest first, to the lane with
    fewer points so far (ties to this thread).  Otherwise no thread starts
    and each unit runs here as its result is read, as in a plain loop.  A
    unit's result must not depend on when it runs: ``_run_units`` gives
    each its own generator.  In two lanes, if units raise, every unit
    still runs, and the error of the lowest-index one is raised, as a
    serial loop would.
    """
    if max(points, default=0) <= _LANE_CHUNKS * estimators._CHUNK:
        return (unit() for unit in units)
    units = list(units)
    lanes, loads = ([], []), [0, 0]
    for i in sorted(range(len(units)), key=lambda i: -points[i]):
        lane = 0 if loads[0] <= loads[1] else 1
        lanes[lane].append(i)
        loads[lane] += points[i]
    results = [None] * len(units)
    errors = {}

    def run(lane):
        for i in lane:
            try:
                results[i] = units[i]()
            except Exception as exc:
                errors[i] = exc

    other = threading.Thread(target=run, args=(lanes[1],))
    other.start()
    try:
        run(lanes[0])
    finally:
        other.join()
    if errors:
        raise errors[min(errors)]
    return iter(results)


def _run_units(seed: int, keys: list, points: list[int], calls):
    """Run unit i of a phase as ``calls[i](rng)``, seeded by spawn key
    ``keys[i]`` and scheduled by its ``points[i]`` (``_in_lanes``); returns
    an iterator over the results in input order.  One ``_stream`` call seeds
    the phase; each unit builds its generator when it runs, and a lazy
    ``calls`` keeps a serial phase to one unit at a time."""
    seeds = _stream(seed, keys)
    units = (lambda c=call, w=words: c(_generator(w)) for call, words in zip(calls, seeds))
    return _in_lanes(units, points)


class _OneAtATime:
    """Stands in for a model; ``evaluate`` holds a lock shared by every
    model of a run, so model calls never overlap across lanes.  A user
    model need not be reentrant, and one that counts its points with
    ``+=`` loses none."""

    def __init__(self, model, lock):
        self.model = model
        self.lock = lock

    def evaluate(self, z):
        with self.lock:
            return self.model.evaluate(z)


def _split_budget(n: int, k: int) -> list[int]:
    """Equal split floor(n/k) with the remainder given to the first densities."""
    base, rem = divmod(n, k)
    return [base + 1 if i < rem else base for i in range(k)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in header])


def _nan_mean(values: list[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


def _build_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    # one density per surrogate, then the high-fidelity reference on key 1000
    models = [*enumerate(benchmark.surrogates), (1000, benchmark.high_fidelity)]
    fixed = (benchmark.limit_state, benchmark.nominal, config.m)
    calls = [
        partial(build_biasing_density, model, *fixed, threshold_relax=config.threshold_relax)
        for _, model in models
    ]
    keys = [(1, key) for key, _ in models]
    builds = list(_run_units(config.seed, keys, [config.m] * len(models), calls))
    report.density_reports = builds[:-1]
    report.reference_report = builds[-1]
    report.timings["build_densities_s"] = time.perf_counter() - t0


def _estimate_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    fixed = (benchmark.high_fidelity, benchmark.limit_state, benchmark.nominal)
    densities = [r.density for r in report.density_reports]
    q_ref = report.reference_report.density
    k = len(densities)
    density_ids = [f"q{i + 1}" for i in range(k)]
    estimator_ids = [*density_ids, "fused", "nominal", "q_ref"]
    hf_evaluations = 0

    for n_idx, n_total in enumerate(config.n_grid):
        if n_total // k < 2:
            report.convergence_rows += [
                {"n": n_total, "estimator_id": e, "flag": "insufficient"}
                for e in estimator_ids
            ]
            continue
        splits = _split_budget(n_total, k)
        reps = range(config.repetitions)
        # IS on each density, then MC on the nominal and IS on the reference
        slots = [
            *(
                partial(importance_sampling_estimate, *fixed, q, n, density_id=i)
                for q, n, i in zip(densities, splits, density_ids)
            ),
            partial(monte_carlo_estimate, *fixed, n_total, density_id="nominal"),
            partial(importance_sampling_estimate, *fixed, q_ref, n_total, density_id="q_ref"),
        ]
        slot_keys = [*range(k), 900, 901]
        done = _run_units(
            config.seed,
            [(2, n_idx, rep, s) for rep in reps for s in slot_keys],
            [*splits, n_total, n_total] * len(reps),
            (call for _ in reps for call in slots),
        )
        per_rep: dict[str, list[dict]] = {e: [] for e in estimator_ids}
        for rep in reps:
            results = [next(done) for _ in slots]
            fused = fuse(results[:k])
            hf_evaluations += sum(res.model_evals for res in results)

            base = {
                "config_hash": report.config_hash,
                "seed": config.seed,
                "n_total": n_total,
                "repetition": rep,
            }
            for res in results:
                row = {**base, **_estimate_row(res)}
                report.estimator_rows.append(row)
                per_rep[res.density_id].append(row)

            sd = float(np.sqrt(fused.variance))
            fused_row = {
                **base,
                "estimate": fused.estimate,
                "variance": fused.variance,
                "multiplier": fused.multiplier,
                "no_information": fused.no_information,
                "rmse": float("nan") if fused.no_information else sd,
                "cv": sd / fused.estimate if fused.estimate > 0 else float("nan"),
                **{f"alpha_{i + 1}": float(w) for i, w in enumerate(fused.weights)},
            }
            report.fused_rows.append(fused_row)
            per_rep["fused"].append(fused_row)

        report.convergence_rows += [
            {
                "n": n_total,
                "estimator_id": e,
                **{s: _nan_mean([r[s] for r in per_rep[e]]) for s in _STATS},
                "cv_reps": sum(1 for r in per_rep[e] if math.isfinite(r["cv"])),
                "flag": "",
            }
            for e in estimator_ids
        ]

    # each of the fused, reference and MC estimators spends the full budget
    spent = config.repetitions * sum(n for n in config.n_grid if n // k >= 2)
    report.budget = {
        "fused_samples": spent,
        "reference_samples": spent,
        "mc_samples": spent,
        "total_budget_samples": 3 * spent,
        "actual_hf_evaluations": hf_evaluations,
    }
    report.timings["estimation_s"] = time.perf_counter() - t0


def _subset_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    fixed = (benchmark.high_fidelity, benchmark.limit_state, benchmark.nominal)
    sub = config.subset
    run = partial(subset_simulation, *fixed, sub.N, sub.p0, sub.max_levels)
    keys = [(3, rep) for rep in range(config.repetitions)]
    results = _run_units(config.seed, keys, [sub.N] * len(keys), [run] * len(keys))
    for rep, result in enumerate(results):
        report.subset_rows.append(
            {
                "config_hash": report.config_hash,
                "seed": config.seed,
                "repetition": rep,
                **_subset_row(result, sub.N),
            }
        )
        report.subset_levels.append(result.level_stats)
    evaluations = sum(row["model_evals"] for row in report.subset_rows)
    report.budget["subset_hf_evaluations"] = evaluations
    report.timings["subset_s"] = time.perf_counter() - t0


def _write_outputs(report: CampaignReport, out_dir: Path) -> list[str]:
    """Write every output file that has content; returns the names written."""
    config = report.config
    built = report.reference_report is not None
    reference = report.reference_report.to_dict() if built else None
    densities_doc = {
        "config_hash": report.config_hash,
        "benchmark": config.benchmark,
        "densities": [r.to_dict() for r in report.density_reports],
        "reference": reference,
    }
    densities_json = json.dumps(densities_doc, indent=2, sort_keys=True) if built else ""
    # the CSVs hold the per-repetition rows; report.json does not repeat them
    report_doc = {
        "config": config.to_dict(),
        "config_hash": report.config_hash,
        "budget": report.budget,
        "timings": report.timings,
        "density_reports": densities_doc["densities"],
        "reference_report": reference,
        "subset_levels": report.subset_levels,
    }
    run_columns = ["config_hash", "seed", "n_total", "repetition"]
    alphas = [f"alpha_{i + 1}" for i in range(len(report.density_reports))]
    # (name, CSV columns or None for a JSON file, rows or the JSON text);
    # empty content means the phase that fills the file did not run
    files = [
        ("densities.json", None, densities_json),
        ("estimates.csv", [*run_columns, *_ESTIMATE_COLUMNS], report.estimator_rows),
        ("weights.csv", [*run_columns, *_WEIGHT_COLUMNS, *alphas], report.fused_rows),
        ("convergence.csv", _CONVERGENCE_COLUMNS, report.convergence_rows),
        ("subset.csv", _SUBSET_COLUMNS, report.subset_rows),
        # strict JSON: a non-finite float raises instead of writing NaN
        ("report.json", None, json.dumps(report_doc, indent=2, allow_nan=False)),
    ]
    written = []
    for name, columns, content in files:
        if not content:
            continue
        if columns is None:
            (out_dir / name).write_text(content + "\n")
        else:
            _write_csv(out_dir / name, columns, content)
        written.append(name)
    return written


def run_experiment(config: ExperimentConfig) -> CampaignReport:
    """Run the configured experiment phases and write the output files."""
    # an unusable output_dir is a config error, raised before any work
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {str(out_dir)!r}: {exc}") from None
    benchmark = get_benchmark(config.benchmark)
    lock = threading.Lock()
    benchmark = replace(
        benchmark,
        high_fidelity=_OneAtATime(benchmark.high_fidelity, lock),
        surrogates=[_OneAtATime(s, lock) for s in benchmark.surrogates],
    )
    report = CampaignReport(config=config, config_hash=config.hash())

    if config.mode in ("build_densities", "fuse", "all"):
        _build_phase(config, benchmark, report)
    if config.mode in ("fuse", "all"):
        _estimate_phase(config, benchmark, report)
    if config.mode in ("subset", "all"):
        _subset_phase(config, benchmark, report)

    report.files = _write_outputs(report, out_dir)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rarefuse",
        description="Rare-event failure probability estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config file")

    p_bench = sub.add_parser("benchmarks", help="benchmark registry commands")
    p_bench.add_argument("action", choices=["list"])

    p_oracle = sub.add_parser("oracle", help="print a benchmark's oracle probability")
    p_oracle.add_argument("--benchmark", required=True)
    p_oracle.add_argument("--resolution", type=int, default=4001)

    args = parser.parse_args(argv)

    if args.command == "benchmarks":
        for name in benchmark_names():
            print(name)
        return 0

    if args.command == "oracle":
        try:
            benchmark = get_benchmark(args.benchmark)
            value = oracle_failure_probability(benchmark, args.resolution)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format(value, ".17g"))
        return 0

    # run
    try:
        config = ExperimentConfig.from_file(args.config)
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # model failures and numerical breakdowns
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    print(f"wrote outputs to {Path(config.output_dir).resolve()}")
    for name in report.files:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
