"""Output check run after every benchmark run of ``run_experiment``.

It reads the files the run wrote and returns one message per violated
property; an empty list means the run passed.  It deliberately does not
compare estimates with the oracle: plug-in fusion weights are biased low at
small budgets, which the traced run reports as ``fusion.bias_se`` instead.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

WEIGHT_SUM_TOL = 1e-12
VARIANCE_RTOL = 1e-12


def _rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _probability_ok(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_outputs(out_dir, config, n_surrogates: int, variance_floor: float,
                  hf_points: int | None = None) -> list[str]:
    """Check the files of one run; ``hf_points`` is the benchmark's own count
    of high-fidelity points, or None when it was not counted."""
    out = Path(out_dir)
    problems: list[str] = []
    k = n_surrogates
    estimates = _rows(out / "estimates.csv")
    weights = _rows(out / "weights.csv")
    convergence = _rows(out / "convergence.csv")
    subset = _rows(out / "subset.csv")
    report = json.loads((out / "report.json").read_text())

    estimating = config.mode in ("convergence", "fuse", "all")
    runs_subset = config.mode in ("subset", "all")
    sufficient = [n for n in config.n_grid if n // k >= 2] if estimating else []
    expected_rows = {
        "estimates.csv": (len(estimates), len(sufficient) * config.repetitions * (k + 2)),
        "weights.csv": (len(weights), len(sufficient) * config.repetitions),
        "convergence.csv": (len(convergence), len(config.n_grid) * (k + 3) if estimating else 0),
        "subset.csv": (len(subset), config.repetitions if runs_subset else 0),
    }
    for name, (got, want) in expected_rows.items():
        if got != want:
            problems.append(f"{name}: {got} rows, expected {want}")

    for name, rows in (("estimates.csv", estimates), ("weights.csv", weights),
                       ("convergence.csv", convergence), ("subset.csv", subset)):
        for i, row in enumerate(rows):
            if row["estimate"] == "" and row.get("flag") == "insufficient":
                continue
            if not _probability_ok(row["estimate"]):
                problems.append(f"{name} row {i}: estimate {row['estimate']} not in [0, 1]")

    fused_ids = {f"q{i + 1}" for i in range(k)}
    variances: dict[tuple[str, str], list[float]] = {}
    for row in estimates:
        if row["density_id"] not in fused_ids:
            continue
        sv, est, n = float(row["sample_variance"]), float(row["estimate"]), int(row["n"])
        if sv == 0.0 and est == 0.0:
            continue  # excluded from fusion
        key = (row["n_total"], row["repetition"])
        variances.setdefault(key, []).append(max(sv, variance_floor) / n)
    for i, row in enumerate(weights):
        if row["no_information"] == "true":
            continue
        alphas = [float(row[f"alpha_{j + 1}"]) for j in range(k)]
        total = math.fsum(alphas)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            problems.append(f"weights.csv row {i}: weights sum to {total!r}")
        included = variances.get((row["n_total"], row["repetition"]))
        fused_variance = float(row["variance"])
        if not included:
            problems.append(f"weights.csv row {i}: no included estimator rows")
        elif not fused_variance <= min(included) * (1.0 + VARIANCE_RTOL):
            problems.append(
                f"weights.csv row {i}: fused variance {fused_variance!r} exceeds "
                f"the smallest included variance {min(included)!r}"
            )

    for i, row in enumerate(subset):
        if row["converged"] != "true":
            problems.append(f"subset.csv row {i}: subset simulation did not converge")

    if hf_points is not None:
        budget = report["budget"]
        reference = report.get("reference_report") or {}
        expected = (
            reference.get("samples_drawn", 0)
            + budget.get("actual_hf_evaluations", 0)
            + budget.get("subset_hf_evaluations", 0)
        )
        if hf_points != expected:
            problems.append(
                f"high-fidelity points: counted {hf_points}, report.json accounts for {expected}"
            )
    return problems
