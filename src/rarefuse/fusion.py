"""Minimum-variance fusion of unbiased probability estimators.

Given k unbiased estimators with covariance matrix S, the weights that
minimize the variance of the linear combination sum(alpha_i * P_i) subject
to the unbiasedness constraint sum(alpha_i) = 1 solve the equality-
constrained quadratic program

    min  alpha' S alpha   s.t.  alpha' 1 = 1,

whose optimality system is the symmetric (k+1) x (k+1) block

    [ S   1 ] [alpha]   [0]
    [ 1'  0 ] [lambda] = [1].

For positive definite S the solution is alpha = S^-1 1 / (1' S^-1 1)
with variance 1 / (1' S^-1 1); for uncorrelated estimators this reduces
to the classical inverse-variance weighted mean.  S^-1 1 is solved from
NumPy's Cholesky factor (``np.linalg.cholesky``, as in ``densities``), not
an explicit inverse; the factorization also rejects an S that is not
positive definite, for which the formula would return a negative variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorResult

__all__ = [
    "CovarianceMatrix",
    "FusedResult",
    "optimal_weights",
    "optimal_weights_diagonal",
    "fuse",
    "dominance_criterion",
    "SingularCovarianceError",
]

# 1-norm condition estimates beyond this are treated as singular.
CONDITION_LIMIT = 1e12

# Zero sample variances paired with a positive estimate are floored here so
# the inverse-variance weights stay finite; the input is flagged.
VARIANCE_FLOOR = 1e-300


class SingularCovarianceError(ValueError):
    """Covariance matrix is singular or numerically indistinguishable from
    singular."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix of a set of estimators."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("covariance matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-14 * scale:
            raise ValueError("covariance matrix must be symmetric within 1e-14")
        object.__setattr__(self, "entries", m)
        m.setflags(write=False)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FusedResult:
    """Fused estimate with its weights and optimality diagnostics.

    ``weights`` has one entry per *input* estimator; excluded inputs carry
    weight 0, so the weights still sum to one over the informative ones.
    The Lagrange multiplier of the sum-to-one constraint is ``-variance``.
    """

    estimate: float
    weights: np.ndarray
    variance: float
    excluded: list[int] = field(default_factory=list)
    floored: list[int] = field(default_factory=list)
    no_information: bool = False


def optimal_weights(cov: CovarianceMatrix) -> tuple[np.ndarray, float, float]:
    """Minimum-variance weights for possibly correlated estimators.

    Returns ``(weights, multiplier, variance)`` where the multiplier is the
    Lagrange multiplier of the sum-to-one constraint (equal to minus the
    fused variance) and ``variance = weights' S weights = 1 / (1' S^-1 1)``.

    Raises :class:`SingularCovarianceError` when the 1-norm condition
    estimate exceeds 1e12; callers holding independent estimators should
    use :func:`optimal_weights_diagonal` instead.  Raises ``ValueError``
    when the covariance is not positive definite.
    """
    condition = float(np.linalg.cond(cov.entries, 1))  # inf when exactly singular
    if not math.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularCovarianceError(
            "covariance condition estimate exceeds 1e12; "
            "weight independent estimators with optimal_weights_diagonal"
        )
    try:
        L = np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    x = np.linalg.solve(L.T, np.linalg.solve(L, np.ones(cov.k)))
    total = float(x.sum())
    return x / total, -1.0 / total, 1.0 / total


def optimal_weights_diagonal(variances) -> tuple[np.ndarray, float]:
    """Inverse-variance weights for uncorrelated estimators.

    alpha_i = (1/v_i) / sum_l (1/v_l) with fused variance 1 / sum_l (1/v_l).
    """
    v = np.asarray(variances, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("variances must be a nonempty vector")
    if not (v > 0.0).all():  # NaN fails too
        raise ValueError("variances must be strictly positive")
    inv = 1.0 / v
    total = inv.sum()
    return inv / total, float(1.0 / total)


def dominance_criterion(variances, candidate_variance: float) -> bool:
    """True iff fusing beats a single estimator of the given variance.

    For k estimators with equal sample counts, the fused estimator at the
    same total budget has strictly smaller variance than a single-density
    estimator exactly when the candidate's (asymptotic) variance exceeds
    the harmonic mean k / sum_i (1/v_i).
    """
    v = np.asarray(variances, dtype=float)
    if not (np.all(v > 0.0) and candidate_variance > 0.0):  # NaN fails too
        raise ValueError("variances must be strictly positive")
    harmonic = v.size / float((1.0 / v).sum())
    return bool(candidate_variance > harmonic)


def fuse(results: list[EstimatorResult]) -> FusedResult:
    """Fuse independent unbiased estimator results into a minimum-variance
    estimate, with inverse-variance weights from ``sample_variance_i / n_i``.
    Correlated estimators are fused with :func:`optimal_weights` instead.

    Degenerate-input policy: a result with zero sample variance and a zero
    estimate carries no information about the failure region and is
    excluded (its weight reported as 0); a zero sample variance with a
    positive estimate is floored at ``VARIANCE_FLOOR`` and flagged.  If
    every input is excluded the fused estimate is 0 with
    ``no_information`` set rather than an error.  A non-finite estimate or
    sample variance raises ``ValueError``.
    """
    if not results:
        raise ValueError("need at least one estimator result")
    if not all(math.isfinite(r.estimate) and math.isfinite(r.sample_variance) for r in results):
        raise ValueError("estimates and sample variances must be finite")
    k_in = len(results)
    excluded, included = [], []
    for i, r in enumerate(results):
        (excluded if r.sample_variance == 0.0 and r.estimate == 0.0 else included).append(i)
    if not included:
        return FusedResult(
            estimate=0.0,
            weights=np.zeros(k_in),
            variance=0.0,
            excluded=excluded,
            no_information=True,
        )

    floored = [i for i in included if results[i].sample_variance == 0.0]
    variances = np.array(
        [(results[i].sample_variance or VARIANCE_FLOOR) / results[i].n for i in included]
    )
    estimates = np.array([results[i].estimate for i in included])
    sub_weights, variance = optimal_weights_diagonal(variances)
    weights = np.zeros(k_in)
    weights[included] = sub_weights
    return FusedResult(
        estimate=float(sub_weights @ estimates),
        weights=weights,
        variance=variance,
        excluded=excluded,
        floored=floored,
    )
