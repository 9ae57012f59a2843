"""Biasing-density construction from surrogate failure sets.

A surrogate model is sampled under the nominal density; the parameter
points it flags as failing are collected and a Gaussian is fitted to
them, yielding a biasing density concentrated near the failure region.
When the surrogate finds too few failures to fit, the nominal density
itself is returned and the report says so.

The nominal draws are taken, evaluated and filtered in chunks of
``estimators._CHUNK`` points, and only the failing points are kept, so a
build's memory is bounded by the chunk plus the failure set, not by the
number of draws.  Chunking changes no result: the draws come off the
generator in the same order and each point is evaluated on its own.  The
runner builds two densities at once when a build draws more than 2**16
points, so the chunk must keep two builds together within the memory
bound that one build is held to; 2**14 points do.

An optional threshold relaxation widens the surrogate failure set
(failure under g < relax instead of g < 0).  Relaxation only affects the
density construction here; the estimators always apply the true limit
state, so unbiasedness is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import InsufficientSamplesError, fit_gaussian
from .estimators import _batches
from .models import LimitState, Model

__all__ = ["BiasingBuildReport", "build_biasing_density"]


@dataclass(frozen=True)
class BiasingBuildReport:
    """Outcome of one biasing-density build."""

    samples_drawn: int
    failures_found: int
    fell_back_to_nominal: bool
    density: object
    threshold_used: float

    def to_dict(self) -> dict:
        return {
            "samples_drawn": self.samples_drawn,
            "failures_found": self.failures_found,
            "fell_back_to_nominal": self.fell_back_to_nominal,
            "threshold_used": self.threshold_used,
            "density": self.density.to_dict(),
        }


def build_biasing_density(
    surrogate: Model,
    ls: LimitState,
    nominal,
    m: int,
    rng: np.random.Generator,
    threshold_relax: float | None = None,
) -> BiasingBuildReport:
    """Build a biasing density from the surrogate's (relaxed) failure set.

    Draws ``m`` nominal samples, evaluates the surrogate at each, keeps the
    points with g < relax (relax defaults to 0, the true failure
    condition), and fits a Gaussian to them.  Falls back to the nominal
    density when fewer than d+2 failures are found (always when m is 0).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    relax = 0.0 if threshold_relax is None else float(threshold_relax)
    if not (math.isfinite(relax) and relax >= 0.0):
        raise ValueError("threshold_relax must be finite and nonnegative")

    kept = [np.empty((0, nominal.d))]
    for batch in _batches(m):
        pts = nominal.sample(rng, batch)
        kept.append(pts[ls.evaluate(surrogate.evaluate(pts)) < relax])
    failing = np.concatenate(kept)
    failures = failing.shape[0]
    try:
        density = fit_gaussian(failing)
    except InsufficientSamplesError:
        return BiasingBuildReport(m, failures, True, nominal, relax)
    return BiasingBuildReport(m, failures, False, density, relax)
