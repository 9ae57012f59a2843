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
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .estimators import (
    EstimatorResult,
    importance_sampling_estimate,
    monte_carlo_estimate,
)
from .fusion import FusedResult, fuse
from .mfis import BiasingBuildReport, build_biasing_density
from .models import Benchmark, benchmark_names, get_benchmark, oracle_failure_probability
from .subset_sim import subset_simulation

__all__ = [
    "ExperimentConfig",
    "SubsetSettings",
    "CampaignReport",
    "ConfigError",
    "run_experiment",
    "convergence_study",
    "main",
]

MODES = ("build_densities", "convergence", "fuse", "subset", "all")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SubsetSettings:
    N: int = 2000
    p0: float = 0.1
    max_levels: int = 12

    def __post_init__(self):
        if self.N < 100:
            raise ConfigError("subset.N must be >= 100")
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("subset.p0 must lie strictly between 0 and 1")
        if self.max_levels < 1:
            raise ConfigError("subset.max_levels must be >= 1")


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
        if self.m < 0:
            raise ConfigError("m must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        if list(self.n_grid) != sorted(self.n_grid):
            raise ConfigError("n_grid must be ascending")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid entries must be positive")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.split != "equal":
            raise ConfigError("only the 'equal' split rule is supported")
        if self.threshold_relax is not None and self.threshold_relax < 0:
            raise ConfigError("threshold_relax must be nonnegative")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "benchmark",
            "mode",
            "m",
            "n_grid",
            "split",
            "seed",
            "repetitions",
            "output_dir",
            "threshold_relax",
            "subset",
        }
        unknown = set(doc) - known
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
                sub_unknown = set(subset_doc) - {"N", "p0", "max_levels"}
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
    budget: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


class CountingModel:
    """Wrapper that counts per-point model evaluations for the budget report."""

    def __init__(self, inner):
        self._inner = inner
        self.evaluations = 0

    @property
    def input_dim(self):
        return self._inner.input_dim

    @property
    def output_dim(self):
        return self._inner.output_dim

    @property
    def cost_tag(self):
        return self._inner.cost_tag

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        self.evaluations += 1 if z.ndim == 1 else z.shape[0]
        return self._inner.evaluate(z)

    __call__ = evaluate


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work, stable under reordering."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


def _build_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    for i, surrogate in enumerate(benchmark.surrogates):
        rng = _stream(config.seed, 1, i)
        report.density_reports.append(
            build_biasing_density(
                surrogate,
                benchmark.limit_state,
                benchmark.nominal,
                config.m,
                rng,
                config.threshold_relax,
            )
        )
    rng = _stream(config.seed, 1, 1000)
    report.reference_report = build_biasing_density(
        benchmark.high_fidelity,
        benchmark.limit_state,
        benchmark.nominal,
        config.m,
        rng,
        config.threshold_relax,
    )
    report.timings["build_densities_s"] = time.perf_counter() - t0


def _estimate_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    hf = CountingModel(benchmark.high_fidelity)
    ls = benchmark.limit_state
    nominal = benchmark.nominal
    densities = [r.density for r in report.density_reports]
    k = len(densities)
    density_ids = [f"q{i + 1}" for i in range(k)]
    fused_samples = 0
    reference_samples = 0
    mc_samples = 0

    for n_idx, n_total in enumerate(config.n_grid):
        per_rep: dict[str, list[dict]] = {}
        insufficient = n_total // k < 2
        for rep in range(config.repetitions):
            if insufficient:
                continue
            splits = _split_budget(n_total, k)
            results: list[EstimatorResult] = []
            for slot, (density, n_i) in enumerate(zip(densities, splits)):
                rng = _stream(config.seed, 2, n_idx, rep, slot)
                results.append(
                    importance_sampling_estimate(
                        hf, ls, nominal, density, n_i, rng, density_ids[slot]
                    )
                )
            fused_samples += sum(splits)
            fused = fuse(results, assume_independent=True)

            rng = _stream(config.seed, 2, n_idx, rep, 900)
            mc_result = monte_carlo_estimate(hf, ls, nominal, n_total, rng, "nominal")
            mc_samples += n_total

            rng = _stream(config.seed, 2, n_idx, rep, 901)
            ref_result = importance_sampling_estimate(
                hf, ls, nominal, report.reference_report.density, n_total, rng, "q_ref"
            )
            reference_samples += n_total

            base = {
                "config_hash": report.config_hash,
                "seed": config.seed,
                "n_total": n_total,
                "repetition": rep,
            }
            for res in [*results, mc_result, ref_result]:
                row = dict(base)
                row.update(res.csv_row())
                report.estimator_rows.append(row)
                per_rep.setdefault(res.density_id, []).append(row)

            fused_row = dict(base)
            fused_row.update(
                {
                    "estimate": fused.estimate,
                    "variance": fused.variance,
                    "multiplier": fused.multiplier,
                    "no_information": fused.no_information,
                    "rmse": float(np.sqrt(fused.variance)),
                    "cv": (
                        float(np.sqrt(fused.variance)) / fused.estimate
                        if fused.estimate > 0
                        else float("nan")
                    ),
                }
            )
            for i, w in enumerate(fused.weights):
                fused_row[f"alpha_{i + 1}"] = float(w)
            report.fused_rows.append(fused_row)
            per_rep.setdefault("fused", []).append(fused_row)

        for estimator_id in [*density_ids, "fused", "nominal", "q_ref"]:
            if insufficient:
                report.convergence_rows.append(
                    {
                        "n": n_total,
                        "estimator_id": estimator_id,
                        "estimate": None,
                        "rmse": None,
                        "cv": None,
                        "flag": "insufficient",
                    }
                )
                continue
            rows = per_rep.get(estimator_id, [])
            report.convergence_rows.append(
                {
                    "n": n_total,
                    "estimator_id": estimator_id,
                    "estimate": _nan_mean([r["estimate"] for r in rows]),
                    "rmse": _nan_mean([r["rmse"] for r in rows]),
                    "cv": _nan_mean([r["cv"] for r in rows]),
                    "flag": "",
                }
            )

    report.budget = {
        "fused_samples": fused_samples,
        "reference_samples": reference_samples,
        "mc_samples": mc_samples,
        "total_budget_samples": fused_samples + reference_samples + mc_samples,
        "actual_hf_evaluations": hf.evaluations,
    }
    report.timings["estimation_s"] = time.perf_counter() - t0


def _subset_phase(config: ExperimentConfig, benchmark: Benchmark, report: CampaignReport):
    t0 = time.perf_counter()
    hf = CountingModel(benchmark.high_fidelity)
    for rep in range(config.repetitions):
        rng = _stream(config.seed, 3, rep)
        result = subset_simulation(
            hf,
            benchmark.limit_state,
            benchmark.nominal,
            config.subset.N,
            config.subset.p0,
            config.subset.max_levels,
            rng,
        )
        row = {
            "config_hash": report.config_hash,
            "seed": config.seed,
            "repetition": rep,
            "converged": result.converged,
            "model_evals": result.total_model_evals,
        }
        row.update(result.csv_row())
        report.subset_rows.append(row)
    report.budget.setdefault("subset_hf_evaluations", hf.evaluations)
    report.timings["subset_s"] = time.perf_counter() - t0


def _write_outputs(report: CampaignReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = report.config

    densities_doc = {
        "config_hash": report.config_hash,
        "benchmark": config.benchmark,
        "densities": [r.to_dict() for r in report.density_reports],
        "reference": (
            report.reference_report.to_dict() if report.reference_report else None
        ),
    }
    (out_dir / "densities.json").write_text(
        json.dumps(densities_doc, indent=2, sort_keys=True) + "\n"
    )

    if report.estimator_rows:
        _write_csv(
            out_dir / "estimates.csv",
            [
                "config_hash",
                "seed",
                "n_total",
                "repetition",
                "density_id",
                "kind",
                "n",
                "estimate",
                "sample_variance",
                "hits",
                "rmse",
                "cv",
            ],
            report.estimator_rows,
        )
    if report.fused_rows:
        k = len(report.density_reports)
        _write_csv(
            out_dir / "weights.csv",
            [
                "config_hash",
                "seed",
                "n_total",
                "repetition",
                "estimate",
                "variance",
                "multiplier",
                "no_information",
                *[f"alpha_{i + 1}" for i in range(k)],
            ],
            report.fused_rows,
        )
    if report.convergence_rows:
        _write_csv(
            out_dir / "convergence.csv",
            ["n", "estimator_id", "estimate", "rmse", "cv", "flag"],
            report.convergence_rows,
        )
    if report.subset_rows:
        _write_csv(
            out_dir / "subset.csv",
            [
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
            ],
            report.subset_rows,
        )

    report_doc = {
        "config": config.to_dict(),
        "config_hash": report.config_hash,
        "budget": report.budget,
        "timings": report.timings,
        "density_reports": [r.to_dict() for r in report.density_reports],
        "reference_report": (
            report.reference_report.to_dict() if report.reference_report else None
        ),
        "fused": report.fused_rows,
        "subset": report.subset_rows,
    }
    (out_dir / "report.json").write_text(json.dumps(report_doc, indent=2) + "\n")


def run_experiment(config: ExperimentConfig) -> CampaignReport:
    """Run the configured experiment phases and write the output files."""
    benchmark = get_benchmark(config.benchmark)
    report = CampaignReport(config=config, config_hash=config.hash())

    if config.mode in ("build_densities", "convergence", "fuse", "all"):
        _build_phase(config, benchmark, report)
    if config.mode in ("convergence", "fuse", "all"):
        _estimate_phase(config, benchmark, report)
    if config.mode in ("subset", "all"):
        _subset_phase(config, benchmark, report)

    _write_outputs(report, Path(config.output_dir))
    return report


def convergence_study(config: ExperimentConfig) -> list[dict]:
    """Run the convergence phase; returns the (n, estimator_id, ...) rows."""
    doc = config.to_dict()
    doc["mode"] = "convergence"
    report = run_experiment(ExperimentConfig.from_dict(doc))
    return report.convergence_rows


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # model failures and numerical breakdowns
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    out = Path(config.output_dir)
    print(f"wrote outputs to {out.resolve()}")
    for name in ("densities.json", "estimates.csv", "weights.csv", "convergence.csv", "subset.csv", "report.json"):
        if (out / name).exists():
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
