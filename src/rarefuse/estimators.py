"""Plain Monte Carlo and importance-sampling failure probability estimators.

Both estimators return an :class:`EstimatorResult` carrying the estimate,
its unbiased sample variance (n-1 divisor), and the raw failure-hit count.
The variance of the *estimator* is ``sample_variance / n``; that is the
quantity consumed by the fusion stage.

Weighted indicators are accumulated with exact (compensated) summation so
results do not depend on the order in which sample chunks are reduced --
partitioning the work across any number of workers reproduces the same
floating-point result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LimitState, Model

__all__ = [
    "EstimatorResult",
    "monte_carlo_estimate",
    "importance_sampling_estimate",
    "rmse",
    "cv",
    "theoretical_mc_cv",
    "UndefinedCVError",
    "BrokenBiasingDensityError",
]

# Evaluation proceeds in fixed-size chunks; exact summation makes the result
# independent of the chunking, so this only bounds peak memory.
_CHUNK = 1 << 16


class UndefinedCVError(ValueError):
    """Coefficient of variation requested for a zero estimate."""


class BrokenBiasingDensityError(RuntimeError):
    """A biasing density returned pdf 0 at one of its own samples."""


@dataclass(frozen=True)
class EstimatorResult:
    """One unbiased probability estimate and its sampling diagnostics.

    ``hits`` counts raw indicator successes even in IS mode; a healthy
    biasing density produces hits on a sizable fraction of its draws.
    ``model_evals`` counts the points handed to the model: ``n`` for MC,
    only the draws inside the nominal support for IS.
    """

    estimate: float
    n: int
    sample_variance: float
    hits: int
    density_id: str
    kind: str  # "MC" | "IS"
    model_evals: int = 0

    @property
    def variance(self) -> float:
        """Variance of the estimator itself: sample_variance / n."""
        return self.sample_variance / self.n

    def csv_row(self) -> dict:
        row = {
            "density_id": self.density_id,
            "kind": self.kind,
            "n": self.n,
            "estimate": self.estimate,
            "sample_variance": self.sample_variance,
            "hits": self.hits,
            "rmse": rmse(self),
        }
        row["cv"] = cv(self) if self.estimate > 0.0 else float("nan")
        return row


def _exact_mean(values: np.ndarray) -> float:
    """Order-independent mean via exact summation."""
    return math.fsum(values) / values.shape[0] if values.shape[0] else 0.0


def monte_carlo_estimate(
    model: Model,
    ls: LimitState,
    nominal,
    n: int,
    rng: np.random.Generator,
    density_id: str = "nominal",
) -> EstimatorResult:
    """Standard Monte Carlo estimate: fraction of nominal draws that fail."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = 0
    done = 0
    while done < n:
        batch = min(_CHUNK, n - done)
        pts = nominal.sample(rng, batch)
        g = ls.evaluate(model.evaluate(pts))
        hits += int((g < 0.0).sum())
        done += batch
    p_hat = hits / n
    if n == 1:
        sample_variance = 0.0
    else:
        sample_variance = (n / (n - 1.0)) * p_hat * (1.0 - p_hat)
    return EstimatorResult(p_hat, n, sample_variance, hits, density_id, "MC", n)


def importance_sampling_estimate(
    model: Model,
    ls: LimitState,
    nominal,
    biasing,
    n: int,
    rng: np.random.Generator,
    density_id: str = "q",
) -> EstimatorResult:
    """Importance sampling estimate with likelihood-ratio weights.

    Draws from ``biasing`` and averages I(failure) * p(z)/q(z).  Samples
    where the nominal density vanishes lie outside the input domain, carry
    zero weight, and skip the model evaluation entirely.  The biasing
    density must have full support (its ``full_support`` flag is set) or
    equal the nominal density.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for the unbiased sample variance")
    if not biasing.full_support and biasing != nominal:
        raise ValueError(
            "biasing density must have full support or equal the nominal density"
        )

    weights = np.empty(n)
    hits = 0
    evals = 0
    done = 0
    while done < n:
        batch = min(_CHUNK, n - done)
        pts = biasing.sample(rng, batch)
        q_vals = np.atleast_1d(biasing.pdf(pts))
        if np.any(q_vals <= 0.0):
            raise BrokenBiasingDensityError(
                "biasing density evaluated to 0 at one of its own samples"
            )
        p_vals = np.atleast_1d(nominal.pdf(pts))
        ind = np.zeros(batch)
        inside = p_vals > 0.0
        evals += int(inside.sum())
        if inside.any():
            g = ls.evaluate(model.evaluate(pts[inside]))
            ind[inside] = g < 0.0
        weights[done : done + batch] = ind * p_vals / q_vals
        hits += int(ind.sum())
        done += batch

    estimate = _exact_mean(weights)
    if weights.max() == weights.min():
        # all weighted indicators identical: zero scatter by definition
        sample_variance = 0.0
    else:
        sample_variance = math.fsum((weights - estimate) ** 2) / (n - 1.0)
    return EstimatorResult(estimate, n, sample_variance, hits, density_id, "IS", evals)


def rmse(result: EstimatorResult) -> float:
    """Root-mean-squared error sqrt(sample_variance / n)."""
    return math.sqrt(result.sample_variance / result.n)


def cv(result: EstimatorResult) -> float:
    """Coefficient of variation sqrt(sample_variance / (n * estimate^2))."""
    if result.estimate <= 0.0:
        raise UndefinedCVError("coefficient of variation undefined for estimate 0")
    return math.sqrt(result.sample_variance / (result.n * result.estimate**2))


def theoretical_mc_cv(p: float, n: int) -> float:
    """Coefficient of variation sqrt((1-P)/(n P)) of plain MC at probability P."""
    if not 0.0 < p < 1.0:
        raise ValueError("P must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt((1.0 - p) / (n * p))
