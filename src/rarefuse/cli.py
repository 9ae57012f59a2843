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


# the estimates.csv values of one estimator call: its own, then its rmse and cv; a
# budget holds (repetitions, k + 2) of them
_RESULT = np.dtype(
    [("estimate", float), ("sample_variance", float), ("hits", np.int64)]
    + [("rmse", float), ("cv", float)]
)
_ESTIMATE_COLUMNS = ("density_id", "kind", "n", *_RESULT.names)


def _result(res) -> tuple:
    """The ``_RESULT`` fields of one estimator result.  A zero estimate
    carries no information about its error, so its rmse and cv are nan."""
    # per result: cv()'s Python x**2 is libm pow, not NumPy's x*x, so vectorised it changes bytes
    errors = (math.nan, math.nan) if res.estimate <= 0.0 else (rmse(res), cv(res))
    return res.estimate, res.sample_variance, res.hits, *errors


def _estimate_row(res) -> dict:
    """The estimates.csv columns of one estimator result, past the run columns."""
    return dict(zip(_ESTIMATE_COLUMNS, (res.density_id, res.kind, res.n, *_result(res))))


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


_MAX_SIZE = 2**63 - 1  # NumPy's largest array size bounds every count of draws


def _require_count(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    # counts must be JSON integers; bool is an int subclass but not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    if value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}")


def _from_object(cls, doc, name: str):
    """``cls(**doc)`` for the JSON object ``doc``, or a ``ConfigError``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SubsetSettings:
    N: int = 2000
    p0: float = 0.1
    max_levels: int = 12

    def __post_init__(self):
        _require_count("subset.N", self.N, 100, _MAX_SIZE)
        _require_count("subset.max_levels", self.max_levels, 1)
        if isinstance(self.p0, bool) or not isinstance(self.p0, (int, float)):
            raise ConfigError(f"subset.p0 must be a number, got {self.p0!r}")
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("subset.p0 must lie strictly between 0 and 1")


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str
    mode: str = "all"
    m: int = 20000
    n_grid: tuple[int, ...] = (300, 600, 900, 1200)
    seed: int = 0
    repetitions: int = 1
    output_dir: str = "rarefuse_out"
    threshold_relax: float = 0.0
    subset: SubsetSettings = field(default_factory=SubsetSettings)

    def __post_init__(self):
        # a config built in Python is normalised and checked as a parsed one
        if not isinstance(self.subset, SubsetSettings):  # JSON null means the defaults
            doc = {} if self.subset is None else self.subset
            object.__setattr__(self, "subset", _from_object(SubsetSettings, doc, "subset"))
        if not isinstance(self.n_grid, (list, tuple)):
            raise ConfigError(f"n_grid must be a list, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if self.benchmark not in benchmark_names():
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}; known: "
                + ", ".join(benchmark_names())
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        _require_count("m", self.m, 0, _MAX_SIZE)
        _require_count("seed", self.seed, 0)
        # each repetition index is one 32-bit spawn-key word in _stream
        _require_count("repetitions", self.repetitions, 1, 2**32)
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        for n in self.n_grid:
            _require_count("n_grid entry", n, 1, _MAX_SIZE)
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly ascending")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        # JSON null means 0; stored as a float, so null, 0 and 0.0 hash alike
        relax = 0.0 if self.threshold_relax is None else self.threshold_relax
        number = isinstance(relax, (int, float)) and not isinstance(relax, bool)
        try:
            value = float(relax) if number else math.nan
        except OverflowError:  # an integer past the float range
            raise ConfigError("threshold_relax is too large for a float") from None
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"threshold_relax must be a finite number >= 0, got {relax!r}")
        object.__setattr__(self, "threshold_relax", value)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if isinstance(doc, dict) and "benchmark" not in doc:
            raise ConfigError("config requires a 'benchmark' name")
        return _from_object(cls, doc, "config")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or too many digits
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        # identifies the experiment itself; where outputs land is not part of it
        doc = self.to_dict()
        doc.pop("output_dir")
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BudgetResults:
    """The estimator results of one budget; row r is repetition r.  ``results``
    holds a ``_RESULT`` per slot (IS on each density, MC, IS on the reference),
    ``slots`` each slot's (density_id, kind, n), and ``fused`` the fused
    estimate, variance, no_information flag and k weights."""

    n_total: int
    slots: list[tuple[str, str, int]]
    results: np.ndarray
    fused: np.ndarray


@dataclass
class CampaignReport:
    config: ExperimentConfig
    config_hash: str
    density_reports: list[BiasingBuildReport] = field(default_factory=list)
    reference_report: BiasingBuildReport | None = None
    budgets: list[BudgetResults] = field(default_factory=list)
    convergence_rows: list[dict] = field(default_factory=list)
    subset_rows: list[dict] = field(default_factory=list)
    subset_levels: list[list[dict]] = field(default_factory=list)
    budget: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)

    # the estimates.csv and weights.csv rows, built from the budgets on each access
    estimator_rows = property(lambda self: list(_estimate_rows(self)))
    fused_rows = property(lambda self: list(_fused_rows(self)))


def _runs(report: CampaignReport):
    """(budget, repetition, the run columns) of each repetition that ran."""
    run = {"config_hash": report.config_hash, "seed": report.config.seed}
    for b in report.budgets:
        for rep in range(len(b.results)):
            yield b, rep, {**run, "n_total": b.n_total, "repetition": rep}


def _estimate_rows(report: CampaignReport):
    """The estimates.csv rows: each repetition's slots in turn."""
    for b, rep, run in _runs(report):
        for slot, result in zip(b.slots, b.results[rep].tolist()):
            yield {**run, **dict(zip(_ESTIMATE_COLUMNS, slot + result))}


def _fused_rows(report: CampaignReport):
    """The weights.csv rows: the fused result of each repetition."""
    for b, rep, run in _runs(report):
        estimate, variance, no_information, weights = b.fused[rep].item()
        fused = {"estimate": estimate, "variance": variance, "no_information": no_information}
        yield {**run, **fused, **{f"alpha_{i + 1}": w for i, w in enumerate(weights.tolist())}}


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


# A phase takes a second lane only when its largest unit draws more than
# this many points.  Below that the thread costs more than the overlap
# saves: two lanes for density builds of 20000 points left run times within
# noise and raised peak RSS by about 1 MB, the malloc arena of the thread
# (gone with MALLOC_ARENA_MAX=1).
_LANE_POINTS = 1 << 16


def _run_units(seed: int, keys: list, calls, points: list):
    """Run unit i of a phase (a density build, an estimator call or a
    subset run), which draws ``points[i]`` points, as ``calls[i](rng)``,
    seeded by spawn key ``keys[i]``; returns an iterator over the results
    in input order.

    One ``_stream`` call seeds the phase, and each unit builds its
    generator when it runs, so a result does not depend on when or where
    its unit runs.  When the phase's largest unit draws more than
    ``_LANE_POINTS`` points, the units run in two lanes, this thread and
    one more, since NumPy releases the GIL in its bulk kernels: each lane
    takes the next unit, largest first, as it comes free, so the lane
    that finishes last waits on a short unit.  If units raise, every unit
    still runs, and the error of the lowest-index one is raised, as a
    serial loop would; an interrupt or ``SystemExit`` on either lane
    stops both after their current unit and is raised.  Otherwise no
    thread starts and each unit runs here, in input order, as its result
    is read, so a lazy ``calls`` keeps a serial phase to one unit at a
    time.
    """
    rows = _stream(seed, keys) if keys else []  # _stream needs a key
    if max(points, default=0) <= _LANE_POINTS:
        return (call(_generator(words)) for call, words in zip(calls, rows))
    calls = list(calls)
    order = sorted(range(len(keys)), key=points.__getitem__, reverse=True)  # ties keep order
    units = iter([(i, calls[i], rows[i]) for i in order])  # both lanes take from it
    results, errors = [None] * len(keys), {}

    def lane():
        for i, call, words in units:  # next() holds the GIL
            try:
                results[i] = call(_generator(words))
            except Exception as exc:
                errors[i] = exc
            except BaseException as exc:  # Ctrl-C or SystemExit: raised before any unit's error
                errors[-1] = exc
                list(units)  # empty the queue: both lanes stop after their current unit

    other = threading.Thread(target=lane)
    other.start()
    try:
        lane()
    finally:
        other.join()
    if errors:
        raise errors[min(errors)]
    return iter(results)


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


# CSV text of a value, by its exact type.  Every field is a number, a flag,
# the config hash or an estimator id, so none needs quoting.
_FORMAT = {float: "{:.17g}".format, int: str, str: str, type(None): lambda value: ""}
_FORMAT[bool] = lambda value: "true" if value else "false"


def _write_csv(path: Path, rows) -> None:
    """Write the rows as they come; the first row's keys are the header."""
    with open(path, "w", newline="") as fh:
        for i, row in enumerate(rows):
            if i == 0:
                fh.write(",".join(row) + "\n")
            fh.write(",".join([_FORMAT[type(value)](value) for value in row.values()]) + "\n")


def _means(*columns) -> dict:
    """The convergence.csv statistics of one estimator at one budget, from
    its estimate, rmse and cv at each repetition; all four are empty when
    the budget ran no repetitions."""
    finite = [c[np.isfinite(c)] for c in map(np.asarray, columns)]
    means = {s: float(c.mean()) if c.size else math.nan for s, c in zip(_STATS, finite)}
    stats = {**means, "cv_reps": finite[-1].size}
    return stats if len(columns[0]) else dict.fromkeys(stats)


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
    builds = list(_run_units(config.seed, keys, calls, [config.m] * len(keys)))
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
    reps = range(config.repetitions)
    slot_keys = [*range(k), 900, 901]

    def slots(n_total):  # (call, points) of IS on each density, MC, IS on the reference
        ref = partial(importance_sampling_estimate, *fixed, q_ref, n_total, density_id="q_ref")
        return [
            *(
                (partial(importance_sampling_estimate, *fixed, q, n, density_id=i), n)
                for q, n, i in zip(densities, _split_budget(n_total, k), density_ids)
            ),
            (partial(monte_carlo_estimate, *fixed, n_total, density_id="nominal"), n_total),
            (ref, n_total),
        ]

    # the budgets with at least 2 draws per density; one queue runs all their units
    budgets = {i: slots(n) for i, n in enumerate(config.n_grid) if n // k >= 2}
    done = _run_units(
        config.seed,
        [(2, n_idx, rep, s) for n_idx in budgets for rep in reps for s in slot_keys],
        (call for units in budgets.values() for _ in reps for call, _ in units),
        [n for units in budgets.values() for _ in reps for _, n in units],
    )
    fused_fields = [("estimate", float), ("variance", float), ("no_information", bool)]
    hf_evaluations = spent = 0
    for n_idx, n_total in enumerate(config.n_grid):
        # each estimator's estimate, rmse and cv at every repetition
        columns = dict.fromkeys(estimator_ids, ((), (), ()))
        if n_idx in budgets:
            results = np.empty((config.repetitions, len(slot_keys)), _RESULT)
            fused = np.empty(config.repetitions, [*fused_fields, ("weights", float, (k,))])
            for rep in reps:
                spent += n_total
                units = [next(done) for _ in slot_keys]
                f = fuse(units[:k])
                hf_evaluations += sum(res.model_evals for res in units)
                results[rep] = [_result(res) for res in units]
                fused[rep] = f.estimate, f.variance, f.no_information, f.weights
            labels = [(res.density_id, res.kind, res.n) for res in units]
            report.budgets.append(BudgetResults(n_total, labels, results, fused))
            for (density_id, _, _), column in zip(labels, results.T):
                columns[density_id] = column["estimate"], column["rmse"], column["cv"]
            sd, estimate = np.sqrt(fused["variance"]), fused["estimate"]
            ratio = np.divide(sd, estimate, out=np.full_like(sd, math.nan), where=estimate > 0.0)
            columns["fused"] = (estimate, np.where(fused["no_information"], math.nan, sd), ratio)
        flag = "" if n_idx in budgets else "insufficient"
        report.convergence_rows += [
            {"n": n_total, "estimator_id": e, **_means(*columns[e]), "flag": flag}
            for e in estimator_ids
        ]

    # each of the fused, reference and MC estimators spends the full budget
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
    results = _run_units(config.seed, keys, [run] * len(keys), [sub.N] * len(keys))
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
    # (name, CSV rows or JSON text); empty content means the phase that
    # fills the file did not run, or ran no repetition
    files = [
        ("densities.json", densities_json),
        ("estimates.csv", report.budgets and _estimate_rows(report)),
        ("weights.csv", report.budgets and _fused_rows(report)),
        ("convergence.csv", report.convergence_rows),
        ("subset.csv", report.subset_rows),
        # strict JSON: a non-finite float raises instead of writing NaN
        ("report.json", json.dumps(report_doc, indent=2, allow_nan=False)),
    ]
    written = []
    for name, content in files:
        if not content:
            continue
        if isinstance(content, str):
            (out_dir / name).write_text(content + "\n")
        else:
            _write_csv(out_dir / name, content)
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
        surrogates=tuple(_OneAtATime(s, lock) for s in benchmark.surrogates),
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
